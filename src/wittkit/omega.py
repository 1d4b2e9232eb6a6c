"""Recursive +-1 sign matrices with orthogonal rows.

Two intertwined families, "plain" and "minus", are defined on sizes 2**k:

    plain(2)  = [[1, 1], [1, -1]]          minus(2) = [[1, 1], [-1, 1]]
    plain(2N) = [[plain,  minus ],         minus(2N) = [[minus,  plain],
                 [plain, -minus ]]                      [-plain,  minus]]

Both satisfy W W^T = 2**k * I, so they are scaled Hadamard matrices; they
arise as the change-of-basis between an orthonormal frame and a null frame
whose elements pairwise half-anticommute.  The complex variants, built for
k = 1, 2, are the real ones complexified on one row: complex-plain (-minus)
is plain (minus) with row 1, the f1 row, times j, so W W* = 2**k * I still
holds.  tests/test_omega.py checks this closed form against the literal
matrices (TestLiterals, test_complex_is_real_with_j_on_row_1).

The butterfly in fast_apply evaluates W @ x in O(k 2**k) integer additions:
the entries are split once into integer slots over one denominator
(scalars.split_slots), each slot key is one lane of plain ints through the
butterfly, and the lanes are joined back into exact values once.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatchError, RangeError, UnsupportedError
from .scalars import Scalar, apply_slots, join_slots, pmatrix, split_map, split_slots

MAX_K_REAL = 6
MAX_K_DET = 5


class OmegaVariant(str, Enum):
    PLAIN = "plain"
    MINUS = "minus"
    COMPLEX_PLAIN = "complex-plain"
    COMPLEX_MINUS = "complex-minus"


def _block(tl, tr, bl, br):
    n = len(tl)
    out = []
    for i in range(n):
        out.append(tl[i] + tr[i])
    for i in range(n):
        out.append(bl[i] + br[i])
    return out


def _real_pair(k: int):
    plain = [[1, 1], [1, -1]]
    minus = [[1, 1], [-1, 1]]
    for _ in range(k - 1):
        neg_p = [[-x for x in row] for row in plain]
        neg_m = [[-x for x in row] for row in minus]
        plain, minus = (_block(plain, minus, plain, neg_m),
                        _block(minus, plain, neg_p, minus))
    return plain, minus


class OmegaMatrix:
    """Sign matrix: int entries for the real variants, Scalars for the complex.
    Treat rows as read-only: dense_apply caches their column split."""

    __slots__ = ("rows", "k", "variant", "_split")

    def __init__(self, rows, k: int, variant: OmegaVariant):
        self.k = k
        self.variant = variant
        self.rows = [list(r) for r in rows]
        self._split = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def transpose(self) -> "OmegaMatrix":
        return OmegaMatrix([list(c) for c in zip(*self.rows)], self.k, self.variant)

    def conj_transpose(self) -> "OmegaMatrix":
        # int.conjugate() exists, so this serves both entry types
        return OmegaMatrix([[e.conjugate() for e in col] for col in zip(*self.rows)],
                           self.k, self.variant)

    def matmul(self, other: "OmegaMatrix"):
        """Exact product rows: ints for two real matrices, else Scalars."""
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix sizes differ")
        cols = list(zip(*other.rows))
        return [[sum(map(mul, r, c)) for c in cols] for r in self.rows]

    def dense_apply(self, xs: list) -> list[Scalar]:
        """W x for entries x_t that are Scalars, ints or Fractions."""
        if len(xs) != self.dim:
            raise DimensionMismatchError("vector length does not match matrix")
        # W x = sum_t x_t (column t of W), in one integer sum against the
        # columns, split on the first call; real columns are already one
        # rational slot of +-1 numerators over 1
        if self._split is None:
            cols = list(enumerate(zip(*self.rows)))
            self._split = (({(1, False): {t: list(enumerate(c)) for t, c in cols}}, 1)
                           if self.variant in (OmegaVariant.PLAIN, OmegaVariant.MINUS)
                           else split_map({t: dict(enumerate(c)) for t, c in cols}))
        out = join_slots(*apply_slots(*split_slots({t: Scalar.of(x) for t, x in enumerate(xs)}),
                                      self._split))
        return [out.get(i, Scalar()) for i in range(self.dim)]

    def __eq__(self, other):
        if not isinstance(other, OmegaMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"OmegaMatrix(k={self.k}, variant={self.variant.value}, dim={self.dim})"

    def to_json(self) -> dict:
        return {"k": self.k, "variant": self.variant.value, "dim": self.dim,
                "entries": [[Scalar.of(e).to_json() for e in row] for row in self.rows]}

    def to_csv(self) -> str:
        return "\n".join(",".join(str(e) for e in row) for row in self.rows) + "\n"

    def latex(self) -> str:
        # the entries are +-1 and +-j, whose str is already their LaTeX
        return pmatrix(self.rows, str)


def omega(k: int, variant: OmegaVariant | str = OmegaVariant.PLAIN) -> OmegaMatrix:
    variant = OmegaVariant(variant)
    if variant in (OmegaVariant.PLAIN, OmegaVariant.MINUS):
        if not 1 <= k <= MAX_K_REAL:
            raise RangeError(f"real sign matrices are built for 1 <= k <= {MAX_K_REAL}")
        plain, minus = _real_pair(k)
        return OmegaMatrix(plain if variant is OmegaVariant.PLAIN else minus,
                           k, variant)
    # the paper tabulates the complex family only at k = 1, 2
    if not 1 <= k <= 2:
        raise UnsupportedError("complex sign matrices exist only for k = 1, 2")
    plain, minus = _real_pair(k)
    rows = [[Scalar.of(x) for x in row]
            for row in (plain if variant is OmegaVariant.COMPLEX_PLAIN else minus)]
    rows[1] = [x * Scalar.j() for x in rows[1]]
    return OmegaMatrix(rows, k, variant)


def gram_check(k: int, variant: OmegaVariant | str = OmegaVariant.PLAIN) -> bool:
    """W W^T (or W W* in the complex case) equals 2**k times the identity."""
    variant = OmegaVariant(variant)
    w = omega(k, variant)
    g = w.matmul(w.conj_transpose())
    n = w.dim
    return all(g[i][j] == (n if i == j else 0) for i in range(n) for j in range(n))


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free integer determinant (Bareiss elimination)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("matrix must be square")
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, n):
            for c2 in range(c + 1, n):
                m[r][c2] = (m[r][c2] * m[c][c] - m[r][c] * m[c][c2]) // prev
            m[r][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def det_omega(k: int, variant: OmegaVariant | str = OmegaVariant.PLAIN) -> int:
    variant = OmegaVariant(variant)
    if variant not in (OmegaVariant.PLAIN, OmegaVariant.MINUS):
        raise UnsupportedError("determinants are computed for the real variants")
    if not 1 <= k <= MAX_K_DET:
        raise RangeError(f"determinants are computed for 1 <= k <= {MAX_K_DET}")
    return bareiss_det(omega(k, variant).rows)


def fast_apply(k: int, variant: OmegaVariant | str, xs: list) -> list:
    """Butterfly evaluation of omega(k, variant) @ xs without forming the matrix.

    Entries may be Scalars, Fractions or ints; the result entries are Scalars
    when any input is, otherwise exact Fractions/ints.
    """
    variant = OmegaVariant(variant)
    if variant not in (OmegaVariant.PLAIN, OmegaVariant.MINUS):
        # the complex family stops at k = 2; a dense product is already cheap
        return omega(k, variant).dense_apply(xs)
    if not 1 <= k <= MAX_K_REAL:
        raise RangeError(f"real sign matrices are built for 1 <= k <= {MAX_K_REAL}")
    if len(xs) != 1 << k:
        raise DimensionMismatchError("vector length must be 2**k")

    # each level needs both variants of both halves, so compute the pair at once
    def apply_both(level: int, v: list) -> tuple[list, list]:
        if level == 1:
            s, d = v[0] + v[1], v[0] - v[1]
            return [s, d], [s, v[1] - v[0]]
        h = len(v) // 2
        pt, mt = apply_both(level - 1, v[:h])
        pb, mb = apply_both(level - 1, v[h:])
        plain = [a + b for a, b in zip(pt, mb)] + [a - b for a, b in zip(pt, mb)]
        minus = [a + b for a, b in zip(mt, pb)] + [b - a for a, b in zip(pt, mb)]
        return plain, minus

    # W is +-1, so each slot key is one lane of integer numerators over the
    # common den, run through the butterfly alone and joined once at the end
    n, side = len(xs), variant is OmegaVariant.MINUS
    slots, den = split_slots({t: Scalar.of(x) for t, x in enumerate(xs)})
    lanes = {key: [slot.get(t, 0) for t in range(n)] for key, slot in slots.items()}
    out = join_slots({key: dict(enumerate(apply_both(k, lane)[side]))
                      for key, lane in lanes.items()}, den)
    ys = [out.get(i, Scalar()) for i in range(n)]
    if any(isinstance(x, Scalar) for x in xs):
        return ys
    # ints and Fractions in, exact rationals out: ints when every input is one
    rational = int if all(isinstance(x, int) for x in xs) else Fraction
    return [rational(y.as_fraction()) for y in ys]
