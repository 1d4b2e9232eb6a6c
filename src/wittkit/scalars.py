"""Exact scalar ring: rational combinations of square roots with a commuting imaginary j.

An element is a finite sum over squarefree positive radicands d:

    sum_d (p_d + q_d * j) * sqrt(d)

with p_d, q_d rational and j**2 = -1.  The d = 1 slot carries the plain
rational and pure-imaginary parts.  Addition and multiplication are closed
(sqrt(d1)*sqrt(d2) reduces through the shared square factor); inversion is
defined only for monomials, which is all the constructions here divide by.
Negative radicands enter through j: sqrt(-d) is represented as j*sqrt(d).
The constructors take ints and Fractions only, never floats or strings.

The integer kernel below serves every linear map of the package.  A value
indexed by masks or matrix positions is stored as slots {key: {index:
numerator}} over one denominator den, in the canonical form reduce_slots
gives (zeros dropped, gcd(den, every numerator) == 1), so two equal values
have equal slots and dens: ga.Multivector and witt_global.MvMatrix both
store this form.  split_slots brings index -> Scalar into slots, join_slots
turns them back into Scalars and json_slots into JSON, with no Fraction;
combine_slots sums scalar multiples of slot values (+, -, scale and every
fixed linear combination), and apply_slots sums a vector against a fixed
map split once by split_map (both coordinate maps, matmul and dense_apply).
ga._product runs the same loop on the slots of its two operands.  walsh runs
the radix-2 stages of the fast Walsh-Hadamard transform on one lane of
numerators, for omega.fast_apply and the coordinate maps of a pair basis.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .errors import NonMonomialError

# term key: (squarefree radicand d, imaginary part?)
Key = tuple[int, bool]

# largest radicand accepted from JSON: split_square factors by trial division,
# which stays under 0.1 s at this size and never finishes on 100 digits
MAX_RADICAND = 10**12

# the only coefficient strings JSON may carry: Fraction alone would also take
# "1e999999999" and build 10**999999999
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def split_square(n: int) -> tuple[int, int]:
    """Split n > 0 as outside**2 * inside with inside squarefree."""
    if n <= 0:
        raise ValueError("split_square needs n > 0")
    outside = 1
    inside = 1
    p = 2
    while p * p <= n:
        if n % p:
            p += 1 if p == 2 else 2
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        outside *= p ** (e // 2)
        if e & 1:
            inside *= p
    inside *= n  # leftover factor is 1 or prime
    return outside, inside


def is_squarefree(n: int) -> bool:
    return n > 0 and split_square(n)[1] == n


class Scalar:
    """Immutable ring element; the empty term map is the canonical zero."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        # terms must already be normalized: squarefree d > 0, no zero values
        self.terms: dict[Key, Fraction] = terms if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        q = _rational(value)
        return cls({(1, False): q}) if q else cls()

    @classmethod
    def rational(cls, p, q=1) -> "Scalar":
        return cls.of(Fraction(p, q))

    @classmethod
    def j(cls, coeff=1) -> "Scalar":
        q = _rational(coeff)
        return cls({(1, True): q}) if q else cls()

    @classmethod
    def sqrt(cls, n: int, coeff=1) -> "Scalar":
        """coeff * sqrt(n); sqrt of a negative integer comes out as j*sqrt(-n)."""
        if not isinstance(n, int):
            raise TypeError(f"radicand must be an int, not {type(n).__name__}")
        if n == 0:
            raise ValueError("sqrt(0) has no radicand")
        q = _rational(coeff)
        if not q:
            return cls()
        imag = n < 0
        outside, inside = split_square(-n if imag else n)
        return cls({(inside, imag): q * outside})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        merged = dict(self.terms)
        for k, v in other.terms.items():
            s = merged.get(k)
            if s is None:
                merged[k] = v
            else:
                s = s + v
                if s:
                    merged[k] = s
                else:
                    del merged[k]
        return Scalar(merged)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[Key, Fraction] = {}
        for k1, q1 in self.terms.items():
            for k2, q2 in other.terms.items():
                key, factor = key_product(k1, k2)
                acc[key] = acc.get(key, 0) + q1 * q2 * factor
        return Scalar({k: q for k, q in acc.items() if q})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            return self * other.inv()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("scalar division by zero")
        return self * Scalar.of(Fraction(1) / Fraction(other))

    def inv(self) -> "Scalar":
        """Multiplicative inverse of a monomial q*sqrt(d) or q*j*sqrt(d)."""
        if not self.terms:
            raise ZeroDivisionError("zero scalar has no inverse")
        if len(self.terms) > 1:
            raise NonMonomialError("inverse defined only for single-term scalars")
        ((d, imag), q), = self.terms.items()
        r = Fraction(1) / (q * d)
        if imag:
            r = -r
        return Scalar({(d, imag): r})

    def conjugate(self) -> "Scalar":
        """Negate the j part of every term."""
        return Scalar({(d, imag): (-q if imag else q) for (d, imag), q in self.terms.items()})

    # -- predicates and accessors ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_rational(self) -> bool:
        return all(k == (1, False) for k in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("scalar is not a plain rational")
        return self.terms[(1, False)]

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # equal to an int or Fraction exactly when rational: hash like it
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(frozenset(self.terms.items()))

    # -- rendering and serialization ---------------------------------------

    def __str__(self):
        parts = []
        for (d, imag), q in sorted(self.terms.items()):
            body = []
            if imag:
                body.append("j")
            if d != 1:
                body.append(f"sqrt({d})")
            if body:
                mag = "*".join(body)
                if q == 1:
                    s = mag
                elif q == -1:
                    s = "-" + mag
                else:
                    s = f"{q}*{mag}"
            else:
                s = str(q)
            parts.append(s)
        return join_signed(parts)

    def __repr__(self):
        return f"Scalar({self})"

    def latex(self) -> str:
        parts = []
        for (d, imag), q in sorted(self.terms.items()):
            mag = ("j" if imag else "") + (f"\\sqrt{{{d}}}" if d != 1 else "")
            neg = q < 0
            aq = -q if neg else q
            if aq == 1 and mag:
                body = mag
            elif aq.denominator == 1:
                body = f"{aq}{mag}"
            else:
                body = f"\\frac{{{aq.numerator}}}{{{aq.denominator}}}{mag}"
            parts.append(("-" if neg else "") + body)
        return join_signed(parts)

    def to_json(self) -> list[dict]:
        return json_slots(*split_slots({0: self})).get(0, [])

    @classmethod
    def from_json(cls, data) -> "Scalar":
        if not isinstance(data, list):
            raise ValueError("scalar JSON must be a list of term objects")
        terms: dict[Key, Fraction] = {}
        seen: set[int] = set()
        for entry in data:
            if not isinstance(entry, dict) or "d" not in entry:
                raise ValueError("scalar term must be an object with a 'd' key")
            if not entry.keys() <= {"d", "re", "im"}:
                unknown = min(entry.keys() - {"d", "re", "im"})
                raise ValueError(f"scalar term has an unknown key {unknown!r}")
            d = entry["d"]
            if _is_int(d) and d > MAX_RADICAND:
                raise ValueError(f"radicand exceeds the bound {MAX_RADICAND}")
            if not _is_int(d) or not is_squarefree(d):
                raise ValueError(f"radicand {d!r} is not a squarefree positive integer")
            if d in seen:                    # whatever either copy holds
                raise ValueError(f"duplicate term for d={d}")
            seen.add(d)
            for part, imag in (("re", False), ("im", True)):
                if part in entry:
                    q = _exact(entry[part])
                    if q:
                        terms[d, imag] = q
        return cls(terms)


def _is_int(x) -> bool:
    """An int that JSON wrote as a number, not as true/false."""
    return isinstance(x, int) and not isinstance(x, bool)


def _exact(value) -> Fraction:
    """An exact JSON coefficient: an int, or a string "p" or "p/q" of
    decimal digits with an optional leading "-", such as "-3/4"."""
    if _is_int(value):
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"coefficient {value!r} must be an integer or a string")
    m = _RATIONAL.fullmatch(value)
    if not m:
        raise ValueError(f"coefficient {value!r} is not of the form p or p/q")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"coefficient {value!r} is not an exact rational") from None


def _rational(value) -> Fraction:
    """An exact coefficient: an int or a Fraction, never a float or a string."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact coefficients are ints or Fractions, "
                        f"not {type(value).__name__}")
    return Fraction(value)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.of(x)
    return None


# -- the integer linear-combination kernel ---------------------------------


def key_product(k1: Key, k2: Key) -> tuple[Key, int]:
    """sqrt(d1) j^i1 * sqrt(d2) j^i2 as (key, factor): factor * sqrt(d) j^i.

    The shared square g = gcd(d1, d2) leaves the factor g, and j*j gives -1.
    """
    (d1, i1), (d2, i2) = k1, k2
    g = gcd(d1, d2)
    return (d1 // g * (d2 // g), i1 != i2), (-g if i1 and i2 else g)


def split_slots(vec: dict) -> tuple[dict[Key, dict], int]:
    """A sparse map index -> Scalar as integer slots over one denominator.

    Returns ({key: {index: numerator}}, den), where den is the lcm of every
    Fraction denominator in vec, so the coefficient q of term key on index
    is stored as the int q * den.  The lcm of reduced denominators leaves
    the slots in canonical form.
    """
    den = lcm(*(q.denominator for c in vec.values() for q in c.terms.values()))
    slots: dict[Key, dict] = {}
    for i, c in vec.items():
        for key, q in c.terms.items():
            slots.setdefault(key, {})[i] = q.numerator * (den // q.denominator)
    return slots, den


def join_slots(acc: dict[Key, dict], den: int) -> dict:
    """Integer sums {key: {index: numerator}} over den back to index -> Scalar,
    one Fraction per nonzero coefficient; zero coefficients are dropped."""
    terms: dict = {}
    for key, out in acc.items():
        for i, v in out.items():
            if v:
                terms.setdefault(i, {})[key] = Fraction(v, den)
    return {i: Scalar(t) for i, t in terms.items()}


def json_slots(slots: dict[Key, dict], den: int) -> dict:
    """Integer slots over den as index -> Scalar.to_json(), with no Fraction:
    terms by radicand, "re" before "im", each "p" or "p/q" in lowest terms."""
    out: dict = {}
    for (d, imag), slot in sorted(slots.items()):
        for i, v in slot.items():
            g = gcd(v, den)
            out.setdefault(i, {}).setdefault(d, {"d": d})["im" if imag else "re"] = (
                str(v // g) if g == den else f"{v // g}/{den // g}")
    return {i: list(c.values()) for i, c in out.items()}


def split_map(rows: dict) -> tuple[dict[Key, dict[object, list[tuple[object, int]]]], int]:
    """A fixed linear map k -> (index -> Scalar) as integer slots, split once.

    Returns ({key: {k: [(index, numerator), ...]}}, den): every row of the
    map in one structure over one shared denominator, the lcm of all its
    Fraction denominators, so apply_slots can sum any vector against it.
    """
    den = lcm(*(q.denominator for row in rows.values()
                for c in row.values() for q in c.terms.values()))
    split: dict[Key, dict[object, list[tuple[object, int]]]] = {}
    for k, row in rows.items():
        for i, c in row.items():
            for key, q in c.terms.items():
                split.setdefault(key, {}).setdefault(k, []).append(
                    (i, q.numerator * (den // q.denominator)))
    return split, den


def apply_slots(vs: dict, den_v: int, split) -> tuple[dict[Key, dict], int]:
    """sum_k vec[k] * row_k for a vector vs in slots {key: {k: numerator}}
    over den_v and a map split by split_map, which is never written, so a
    fixed map is split once for every call.  Returns the sums {key: {index:
    numerator}} over den_v * den_r, zero sums included, for reduce_slots."""
    rows, den_r = split
    acc: dict[Key, dict] = {}
    for kv, v_slot in vs.items():
        for kr, r_rows in rows.items():
            key, factor = key_product(kv, kr)
            out = acc.setdefault(key, {})
            get = out.get
            for k, nv in v_slot.items():
                row = r_rows.get(k)
                if row is not None:
                    nv *= factor
                    for i, nr in row:
                        out[i] = get(i, 0) + nv * nr
    return acc, den_v * den_r


def reduce_slots(acc: dict[Key, dict], den: int) -> tuple[dict[Key, dict], int]:
    """Integer sums {key: {index: numerator}} over den > 0 in canonical form:
    zero numerators and empty keys dropped and gcd(den, every numerator) ==
    1, so two equal values have equal slots and denominators."""
    slots: dict[Key, dict] = {}
    g = den
    for key, out in acc.items():
        out = {i: v for i, v in out.items() if v}
        if out:
            slots[key] = out
            g = gcd(g, *out.values())
    if g != 1:
        slots = {key: {i: v // g for i, v in out.items()} for key, out in slots.items()}
        den //= g
    return slots, den


def combine_slots(terms) -> tuple[dict[Key, dict], int]:
    """sum_k s_k * v_k for terms (s_k, slots_k, den_k) of exact scalars s_k
    (Scalar, int or Fraction) and values v_k in slots: one apply_slots of the
    s_k against the v_k rescaled to the lcm of their dens.  Returns the sums,
    zero sums included, for reduce_slots."""
    terms = list(terms)
    den = lcm(*(d for _, _, d in terms))
    rows: dict[Key, dict] = {}
    for k, (_, slots, d) in enumerate(terms):
        f = den // d
        for key, slot in slots.items():
            rows.setdefault(key, {})[k] = [(i, v * f) for i, v in slot.items()]
    coeffs, den_s = split_slots({k: Scalar.of(s) for k, (s, _, _) in enumerate(terms)})
    return apply_slots(coeffs, den_s, (rows, den))


def walsh(v: list, k: int) -> list:
    """k radix-2 stages of the fast Walsh-Hadamard transform (Fino and
    Algazi, 1976) on a lane of numerators: each stage sends the pair (x, y)
    at the lowest index bit to (x + y, x - y) and writes that bit as the
    highest.  On a lane of 2**k this is Sylvester's H_k v, every bit back in
    place; on a longer lane the k low bits are transformed and end above
    the rest."""
    for _ in range(k):
        x, y = v[0::2], v[1::2]
        v = [*map(add, x, y), *map(sub, x, y)]
    return v


# -- rendering shared by every str and latex method ----------------------


def join_signed(parts: list[str]) -> str:
    """Join rendered terms into a sum, folding a leading '-' into ' - '."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def pmatrix(rows, cell) -> str:
    """LaTeX pmatrix with one line per row and cell(entry) in each cell."""
    body = " \\\\\n".join(" & ".join(cell(e) for e in row) for row in rows)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"
