"""Sign matrices with orthogonal rows: Sylvester's Walsh-Hadamard matrix
in the paper's two orders.

Two intertwined families, "plain" and "minus", are defined on sizes 2**k:

    plain(2)  = [[1, 1], [1, -1]]          minus(2) = [[1, 1], [-1, 1]]
    plain(2N) = [[plain,  minus ],         minus(2N) = [[minus,  plain],
                 [plain, -minus ]]                      [-plain,  minus]]

In closed form, row i of plain is row -i mod 2**k of Sylvester's H_k,
H_k[r][c] = (-1)^|r & c|, and minus is plain with every row but the first
negated, so W W^T = 2**k * I.  tests/test_omega.py::TestRecursion checks
the closed form against the recursion, read off omega(k - 1), for both
variants at every k up to MAX_K_REAL.  The matrices arise as the
change-of-basis between an orthonormal frame and a null frame whose
elements pairwise half-anticommute.  The complex variants, built for
k = 1, 2, are the real ones complexified on one row: complex-plain (-minus)
is plain (minus) with row 1, the f1 row, times j, so W W* = 2**k * I still
holds.  tests/test_omega.py checks this closed form against the literal
matrices (TestLiterals, test_complex_is_real_with_j_on_row_1).

fast_apply evaluates W @ x as the fast Walsh-Hadamard transform
scalars.walsh plus that row map, in k 2**k integer additions: the entries
are split once into integer slots over one denominator
(scalars.split_slots), each slot key is one lane of plain ints through the
transform, and the lanes are joined back into exact values once.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatchError, RangeError, UnsupportedError
from .scalars import (Scalar, apply_slots, join_slots, pmatrix, split_map, split_slots,
                      walsh)

MAX_K_REAL = 6
MAX_K_DET = 5


class OmegaVariant(str, Enum):
    PLAIN = "plain"
    MINUS = "minus"
    COMPLEX_PLAIN = "complex-plain"
    COMPLEX_MINUS = "complex-minus"


def _real_rows(k: int, minus: bool) -> list[list[int]]:
    """Row -i mod 2**k of H_k as row i, built by doubling; for minus, every
    row but the first negated."""
    h = [[1]]
    for _ in range(k):
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return [h[0]] + [[-x for x in r] if minus else r for r in h[:0:-1]]


class OmegaMatrix:
    """Sign matrix: int entries for the real variants, Scalars for the complex.
    Treat rows as read-only: dense_apply caches their column split."""

    __slots__ = ("rows", "k", "variant", "_split")

    def __init__(self, rows, k: int, variant: OmegaVariant | str):
        self.k = k
        self.variant = OmegaVariant(variant)
        self.rows = [list(r) for r in rows]
        if k < 0 or {len(self.rows), *map(len, self.rows)} != {1 << k}:
            raise DimensionMismatchError("a sign matrix has 2**k rows of 2**k entries")
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
        return OmegaMatrix(_real_rows(k, variant is OmegaVariant.MINUS), k, variant)
    # the paper tabulates the complex family only at k = 1, 2
    if not 1 <= k <= 2:
        raise UnsupportedError("complex sign matrices exist only for k = 1, 2")
    rows = [[Scalar.of(x) for x in row]
            for row in _real_rows(k, variant is OmegaVariant.COMPLEX_MINUS)]
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
    """Fraction-free integer determinant (Bareiss elimination); the 0 x 0
    matrix has determinant 1."""
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
    return sign * m[n - 1][n - 1] if n else 1


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

    # W x is H_k x with row -i mod 2**k as row i, negated for i > 0 in
    # minus; W is +-1, so each slot key is one lane of integer numerators
    # over the common den, through walsh alone and joined once at the end
    n, sign = len(xs), -1 if variant is OmegaVariant.MINUS else 1
    slots, den = split_slots({t: Scalar.of(x) for t, x in enumerate(xs)})
    lanes = {key: walsh([slot.get(t, 0) for t in range(n)], k) for key, slot in slots.items()}
    out = join_slots({key: {i: h[-i % n] * (sign if i else 1) for i in range(n)}
                      for key, h in lanes.items()}, den)
    ys = [out.get(i, Scalar()) for i in range(n)]
    if any(isinstance(x, Scalar) for x in xs):
        return ys
    # ints and Fractions in, exact rationals out: ints when every input is one
    rational = int if all(isinstance(x, int) for x in xs) else Fraction
    return [rational(y.as_fraction()) for y in ys]
