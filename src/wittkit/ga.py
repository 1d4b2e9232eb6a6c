"""Geometric algebra kernel over exact scalars.

Basis blades are bitmasks over the generator list: bit i set means generator i
is a factor, written in ascending index order.  Products are computed by
counting transpositions and applying the metric square of each shared
generator; coefficients live in the exact scalar ring, so every identity in
this package is checked with zero floating point error.

A multivector stores its coefficients as integer slots {(radicand, j):
{mask: numerator}} over one denominator, in the canonical form of
scalars.reduce_slots, so == compares slots and every linear map and product
runs on ints: ``+``, ``-`` and ``scale`` are scalars.combine_slots, and
``gp`` and ``wedge`` multiply the keys of each pair of slots once by
scalars.key_product and run the blade loop on plain ints, with signs read
from a cached row per left blade.  to_json renders the slots; ``terms:
dict[mask, Scalar]``, for LaTeX, ``str`` and callers, is built on first read.

anticommutator_relations checks a family against its Gram matrix of
anticommutators x_i x_k + x_k x_i: [[0, I], [I, 0]] for a global pair
a_1..a_n, b_1..b_n, J - I for a local family, 2 diag(eta) for a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .errors import DimensionMismatchError, RangeError, SignatureMismatchError
from .scalars import (Key, Scalar, _is_int, combine_slots, join_signed, join_slots,
                      json_slots, key_product, reduce_slots, split_slots)

MAX_GENERATORS = 12


@dataclass(frozen=True)
class Signature:
    """Ordered generator metric: squares[i] is +1 or -1 for generator i."""

    squares: tuple[int, ...]
    name: str = ""
    gen_names: tuple[str, ...] = ()
    latex_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= len(self.squares) <= MAX_GENERATORS:
            raise RangeError(f"supported generator counts are 1..{MAX_GENERATORS}")
        if any(s not in (1, -1) for s in self.squares):
            raise ValueError("generator squares must be +1 or -1")
        if not self.gen_names:
            object.__setattr__(self, "gen_names",
                               tuple(f"x{i}" for i in range(len(self.squares))))
        if len(self.gen_names) != len(self.squares):
            raise ValueError("one name per generator")
        if not self.latex_names:
            object.__setattr__(self, "latex_names",
                               tuple(_auto_latex(n) for n in self.gen_names))

    @property
    def m(self) -> int:
        return len(self.squares)

    @property
    def dim(self) -> int:
        return 1 << len(self.squares)


def _auto_latex(name: str) -> str:
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return f"{head}_{{{tail}}}" if tail else head


@lru_cache(maxsize=None)
def g_nn(n: int) -> Signature:
    """Neutral algebra with generator order e1, f1, ..., en, fn."""
    if not 1 <= 2 * n <= MAX_GENERATORS:
        raise RangeError("g_nn supports 1 <= n <= 6")
    names = []
    for i in range(1, n + 1):
        names += [f"e{i}", f"f{i}"]
    return Signature((1, -1) * n, f"g{n}{n}", tuple(names))


@lru_cache(maxsize=None)
def g_1n(n: int) -> Signature:
    """Lorentz-style algebra with generator order e1, f1, ..., fn."""
    if not 1 <= n + 1 <= MAX_GENERATORS:
        raise RangeError("g_1n supports 1 <= n <= 11")
    names = ["e1"] + [f"f{i}" for i in range(1, n + 1)]
    return Signature((1,) + (-1,) * n, f"g1{n}", tuple(names))


@lru_cache(maxsize=None)
def g3() -> Signature:
    return Signature((1, 1, 1), "g3", ("e1", "e2", "e3"))


@lru_cache(maxsize=None)
def g13() -> Signature:
    return Signature((1, -1, -1, -1), "g13", ("g0", "g1", "g2", "g3"),
                     ("\\gamma_{0}", "\\gamma_{1}", "\\gamma_{2}", "\\gamma_{3}"))


@lru_cache(maxsize=None)
def _blade_product(mask_a: int, mask_b: int, squares: tuple[int, ...]) -> tuple[int, int]:
    # transposition count to interleave the two ascending factor lists
    s = 0
    a = mask_a >> 1
    while a:
        s += (a & mask_b).bit_count()
        a >>= 1
    sign = -1 if s & 1 else 1
    common = mask_a & mask_b
    i = 0
    while common:
        if common & 1 and squares[i] < 0:
            sign = -sign
        common >>= 1
        i += 1
    return sign, mask_a ^ mask_b


def blade_product(mask_a: int, mask_b: int, sig: Signature) -> tuple[int, int]:
    """Product of two basis blades: (sign, result mask)."""
    if mask_a >> sig.m or mask_b >> sig.m or mask_a < 0 or mask_b < 0:
        raise RangeError("blade mask out of range for signature")
    return _blade_product(mask_a, mask_b, sig.squares)


def _compat(a: Signature, b: Signature):
    if a.squares != b.squares:
        raise SignatureMismatchError(f"signatures differ: {a.squares} vs {b.squares}")


class Multivector:
    """Immutable sparse multivector: blade mask -> exact scalar coefficient,
    stored as den and slots {key: {mask: numerator}} in canonical form.
    terms is built from the slots on first read and cached; given terms are
    split once and kept as that cache.  Treat den, slots and terms as read-only.
    """

    __slots__ = ("sig", "den", "slots", "_terms")

    def __init__(self, sig: Signature, terms: dict[int, Scalar] | None = None):
        if terms and (min(terms) < 0 or max(terms) >= sig.dim):
            raise RangeError("blade mask out of range for signature")
        self.sig = sig
        self._terms = {m: c for m, c in terms.items() if c} if terms else {}
        self.slots, self.den = split_slots(self._terms)

    @classmethod
    def _of_sums(cls, sig: Signature, acc, den: int) -> "Multivector":
        """The multivector of integer sums {key: {mask: numerator}} over den."""
        x = cls.__new__(cls)
        x.sig = sig
        x.slots, x.den = reduce_slots(acc, den)
        x._terms = None
        return x

    @property
    def terms(self) -> dict[int, Scalar]:
        if self._terms is None:
            self._terms = join_slots(self.slots, self.den)
        return self._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value) -> "Multivector":
        return cls(sig, {0: Scalar.of(value)})

    @classmethod
    def blade(cls, sig: Signature, mask: int, coeff=1) -> "Multivector":
        return cls(sig, {mask: Scalar.of(coeff)})

    @classmethod
    def generator(cls, sig: Signature, i: int) -> "Multivector":
        if not 0 <= i < sig.m:
            raise RangeError("generator index out of range")
        return cls.blade(sig, 1 << i)

    # -- linear structure --------------------------------------------------

    @classmethod
    def combine(cls, sig: Signature, pairs) -> "Multivector":
        """sum s * x over pairs (s, x) of exact scalars and multivectors of sig;
        an x over other squares raises SignatureMismatchError."""
        pairs = list(pairs)
        for _, x in pairs:
            _compat(sig, x.sig)
        return cls._of_sums(sig, *combine_slots((s, x.slots, x.den) for s, x in pairs))

    def __add__(self, other, sign=1):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Multivector.combine(self.sig, [(1, self), (sign, other)])

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return -self + other

    def scale(self, factor) -> "Multivector":
        return Multivector.combine(self.sig, [(factor, self)])

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return gp(self, other)
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other.inv())
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("multivector division by zero")
            return self.scale(Fraction(1) / Fraction(other))
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return wedge(self, other)
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, Multivector):
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return Multivector.scalar(self.sig, other)
        return None

    # -- structure queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.slots

    def __bool__(self) -> bool:
        return bool(self.slots)

    def _masks(self) -> set[int]:
        return {m for slot in self.slots.values() for m in slot}

    def grades(self) -> set[int]:
        return {m.bit_count() for m in self._masks()}

    def scalar_part(self) -> Scalar:
        return self.coeff(0)

    def coeff(self, mask: int) -> Scalar:
        return self.terms.get(mask, Scalar())

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.sig.squares, self.den, self.slots) == \
            (other.sig.squares, other.den, other.slots)

    def __hash__(self):
        # equal to a Scalar, int or Fraction exactly when only the scalar
        # part is set: hash like that Scalar
        if self._masks() <= {0}:
            return hash(self.scalar_part())
        return hash((self.sig.squares, self.den,
                     frozenset((key, frozenset(slot.items()))
                               for key, slot in self.slots.items())))

    # -- rendering and serialization ---------------------------------------

    def _render(self, coeff, group: str, times: str, label) -> str:
        """The signed sum of terms, lowest grade first, behind str and latex.

        coeff renders a Scalar, group wraps a multi-term coefficient, times
        joins a coefficient to its blade and label(mask) names the blade.
        """
        parts = []
        for m in sorted(self.terms, key=lambda k: (k.bit_count(), k)):
            c = self.terms[m]
            cs = group.format(coeff(c)) if len(c.terms) > 1 else coeff(c)
            lab = label(m)
            if not lab:
                parts.append(cs)
            elif cs == "1":
                parts.append(lab)
            elif cs == "-1":
                parts.append("-" + lab)
            else:
                parts.append(cs + times + lab)
        return join_signed(parts)

    def _blade_label(self, mask: int, names, sep: str = "") -> str:
        return sep.join(names[i] for i in range(self.sig.m) if mask >> i & 1)

    def __str__(self):
        return self._render(str, "({})", "*",
                            lambda m: self._blade_label(m, self.sig.gen_names, "*"))

    def __repr__(self):
        return f"Multivector<{self.sig.name or self.sig.squares}>({self})"

    def latex(self) -> str:
        return self._latex(lambda m: self._blade_label(m, self.sig.latex_names))

    def _latex(self, label) -> str:
        """latex() with label(mask) naming each blade."""
        return self._render(Scalar.latex, "\\left({}\\right)", "\\,", label)

    def to_json(self) -> dict:
        coeffs = json_slots(self.slots, self.den)
        return {"signature": list(self.sig.squares),
                "terms": [{"blade": [i for i in range(self.sig.m) if m >> i & 1],
                           "coeff": coeffs[m]}
                          for m in sorted(coeffs, key=lambda k: (k.bit_count(), k))]}

    @classmethod
    def from_json(cls, data, sig: Signature | None = None) -> "Multivector":
        if not isinstance(data, dict) or "signature" not in data or "terms" not in data:
            raise ValueError("multivector JSON needs 'signature' and 'terms'")
        squares, raw_terms = data["signature"], data["terms"]
        if not isinstance(squares, list) or not all(_is_int(s) for s in squares):
            raise ValueError("multivector signature must be a list of integers")
        if not isinstance(raw_terms, list):
            raise ValueError("multivector terms must be a list")
        squares = tuple(squares)
        if sig is None:
            sig = Signature(squares)
        elif sig.squares != squares:
            raise ValueError("multivector signature does not match target algebra")
        terms: dict[int, Scalar] = {}
        for t in raw_terms:
            if not isinstance(t, dict) or "blade" not in t or "coeff" not in t:
                raise ValueError("term JSON needs 'blade' and 'coeff'")
            idx = t["blade"]
            if (not isinstance(idx, list)
                    or not all(_is_int(i) and 0 <= i < sig.m for i in idx)
                    or idx != sorted(set(idx))):
                raise ValueError("blade must list distinct ascending generator indices")
            mask = sum(1 << i for i in idx)
            if mask in terms:                # whatever either copy holds
                raise ValueError(f"duplicate blade {idx} in multivector JSON")
            terms[mask] = Scalar.from_json(t["coeff"])
        return cls(sig, terms)               # the constructor drops zero terms


# -- products and involutions ---------------------------------------------


@lru_cache(maxsize=None)
def _sign_row(squares: tuple[int, ...], mask_a: int, outer: bool) -> tuple[int, ...]:
    """Sign of blade mask_a times every blade mask_b, indexed by mask_b.

    Built on first use.  The outer row is 0 wherever the two blades share a
    generator, which drops those pairs from the wedge without a branch in the
    product loop.  The rows of the empty blade and of a single generator come
    from _blade_product, the one sign rule.  That sign is a product of one
    factor per generator i of mask_a (-1 per factor of mask_b below i, times
    the square of i when mask_b holds i), so the row of a longer blade is the
    entrywise product of the rows of its lowest generator and of the rest.
    """
    if mask_a & (mask_a - 1):
        low = mask_a & -mask_a
        return tuple(map(mul, _sign_row(squares, low, outer),
                         _sign_row(squares, mask_a ^ low, outer)))
    return tuple(0 if outer and mask_a & mb else _blade_product(mask_a, mb, squares)[0]
                 for mb in range(1 << len(squares)))


def _product(x: Multivector, y: Multivector, outer: bool) -> Multivector:
    """Blade-pair product of x and y on the integer slots of both operands."""
    _compat(x.sig, y.sig)
    squares = x.sig.squares
    acc: dict[Key, dict[int, int]] = {}
    for kx, x_slot in x.slots.items():
        for ky, y_slot in y.slots.items():
            key, factor = key_product(kx, ky)
            out = acc.setdefault(key, {})
            get = out.get
            y_pairs = y_slot.items()
            for ma, na in x_slot.items():
                row = _sign_row(squares, ma, outer)
                na *= factor
                for mb, nb in y_pairs:
                    m = ma ^ mb
                    out[m] = get(m, 0) + row[mb] * na * nb
    return Multivector._of_sums(x.sig, acc, x.den * y.den)


def gp(x: Multivector, y: Multivector) -> Multivector:
    """Geometric product."""
    return _product(x, y, False)


def wedge(x: Multivector, y: Multivector) -> Multivector:
    """Outer product: the grade-raising part of the geometric product."""
    return _product(x, y, True)


def reverse(x: Multivector) -> Multivector:
    """Reverse the factor order of every blade: grades 2 and 3 mod 4 flip sign."""
    return Multivector._of_sums(x.sig, {key: {m: -v if m.bit_count() & 2 else v
                                              for m, v in slot.items()}
                                        for key, slot in x.slots.items()}, x.den)


def grade_project(x: Multivector, k: int) -> Multivector:
    if not 0 <= k <= x.sig.m:
        raise RangeError("grade out of range")
    return Multivector._of_sums(x.sig, {key: {m: v for m, v in slot.items()
                                              if m.bit_count() == k}
                                        for key, slot in x.slots.items()}, x.den)


def gp_chain(vs) -> Multivector:
    """Left-to-right geometric product of a nonempty sequence."""
    return reduce(gp, vs)


def wedge_chain(vs) -> Multivector:
    """Left-to-right outer product of a nonempty sequence."""
    return reduce(wedge, vs)


def anticommutator(x: Multivector, y: Multivector) -> Multivector:
    return gp(x, y) + gp(y, x)


def relation_name(labels, i: int, k: int, g) -> str:
    """The name of entry (i, k) of an anticommutator table: x^2 = g/2 on the
    diagonal, else x y anticommute when g is 0 and x y + y x = g otherwise."""
    x, y = labels[i], labels[k]
    if i == k:
        return f"{x}^2 = {Fraction(g, 2)}"
    return f"{x} {y} + {y} {x} = {g}" if g else f"{x} {y} anticommute"


def anticommutator_relations(family, labels, gram) -> list[str]:
    """The failing relations of the anticommutator table gram of family, row
    by row and named by relation_name: x_i x_k + x_k x_i = gram[i][k] for
    i < k and x_i^2 = gram[i][i]/2; empty when all hold.  An empty family,
    or labels or a Gram matrix of another size, raises
    DimensionMismatchError rather than leaving a relation untested."""
    n = len(family)
    if not n or len(labels) != n or len(gram) != n or any(len(row) != n for row in gram):
        raise DimensionMismatchError("an anticommutator table needs a nonempty family "
                                     "and one label, Gram row and Gram column per vector")
    return [relation_name(labels, i, k, gram[i][k])
            for i, x in enumerate(family) for k in range(i, n)
            if (gp(x, x) != Fraction(gram[i][i], 2) if i == k
                else anticommutator(x, family[k]) != gram[i][k])]


def null_pair(e: Multivector, f: Multivector) -> tuple[Multivector, Multivector]:
    """The nilpotent pair ((e + f)/2, (e - f)/2) of anticommuting e, f with
    e^2 = -f^2 = 1."""
    return (e + f) / 2, (e - f) / 2
