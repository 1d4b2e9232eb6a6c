"""Locally dual nilpotent families c_1..c_m and their frame identifications.

Local duality means every distinct pair anticommutes to exactly 1:
c_i c_j + c_j c_i = 1, c_i^2 = 0, the anticommutator table J - I.  An
orthonormal frame has the table 2 diag(eta) of its squares eta.  Both are
checked by ga.anticommutator_relations, in check_local_relations and
check_frame_relations.  Any locally dual family generates the Lorentz
algebra g(1, m-1): e_1 = c_1+c_2, f_1 = c_1-c_2, and for k >= 2

    f_k = alpha_k (C_k - (k-1) c_{k+1}),   alpha_k = -sqrt(2)/sqrt(k(k-1)),

with C_k = c_1+..+c_k, gives an orthonormal frame.  The construction
inverts: c_{k+1} = (C_k - f_k/alpha_k)/(k-1).

For m = 4 and m = 8 there is a second, symmetric family: the frame itself
is a scaled sign-matrix image of a locally dual family, with the sign
matrices from the omega module.  Putting j on the f1 row of the m = 4 map
gives signature (2,2) (complex_identification_g22).  For m = 3 no +-1 sign
matrix with rows scaled by lambda sqrt(d), d in {1, 2, 3, 6}, gives one;
no_identification_g12 proves that by exhaustion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatchError, RangeError, UnsupportedError
from .ga import (Multivector, Signature, anticommutator, anticommutator_relations,
                 g_1n, gp, gp_chain, null_pair, wedge_chain)
from .omega import OmegaVariant, omega
from .scalars import Scalar, pmatrix


def alpha_coeff(k: int) -> Scalar:
    """alpha_k = -sqrt(2)/sqrt(k(k-1)) as a single radical term."""
    if k < 2:
        raise RangeError("alpha_k is defined for k >= 2")
    t = k * (k - 1)
    return Scalar.sqrt(2 * t, coeff=Fraction(-1, t))


@dataclass
class LocalWitt:
    """m pairwise locally-dual nilpotents spanning grade 1 of g(1, m-1)."""

    m: int
    sig: Signature
    c: list[Multivector]


def make_local_witt(m: int) -> LocalWitt:
    if not 2 <= m <= 8:
        raise RangeError("local witt families are built for 2 <= m <= 8")
    sig = g_1n(m - 1)
    c = list(null_pair(Multivector.generator(sig, 0), Multivector.generator(sig, 1)))
    for k in range(2, m):
        ck_sum = c[0]
        for v in c[1:k]:
            ck_sum = ck_sum + v
        fk = Multivector.generator(sig, k)
        c.append((ck_sum - fk / alpha_coeff(k)).scale(Fraction(1, k - 1)))
    return LocalWitt(m, sig, c)


def check_local_relations(w: LocalWitt) -> list[str]:
    """The failing relations of the Gram table J - I of c_1..c_m (c_i^2 = 0,
    every distinct pair anticommuting to 1) and a nonzero top wedge, by
    name; empty when all hold.  A family of other than w.m vectors raises
    DimensionMismatchError."""
    gram = [[int(i != k) for k in range(w.m)] for i in range(w.m)]
    failing = anticommutator_relations(w.c, [f"c{i}" for i in range(1, len(w.c) + 1)], gram)
    if not wedge_chain(w.c):
        failing.append(f"c1^...^c{w.m} != 0")
    return failing


def ef_from_c(w: LocalWitt) -> list[Multivector]:
    """The orthonormal frame (e1, f1, .., f_{m-1}) generated by the family.

    For a family built by make_local_witt this returns the preset
    generators themselves, exactly.
    """
    out = [w.c[0] + w.c[1], w.c[0] - w.c[1]]
    ck_sum = w.c[0] + w.c[1]
    for k in range(2, w.m):
        fk = (ck_sum - w.c[k].scale(k - 1)).scale(alpha_coeff(k))
        out.append(fk)
        ck_sum = ck_sum + w.c[k]
    return out


def check_frame_relations(frame: list[Multivector],
                          squares: list[int],
                          labels: list[str] | None = None) -> list[str]:
    """The failing relations of the Gram table 2 diag(squares) of frame
    (prescribed squares, pairwise anticommutation), by name; empty when
    all hold.  squares or labels of another length than frame raise
    DimensionMismatchError."""
    if labels is None:
        labels = [f"v{i+1}" for i in range(len(frame))]
    gram = [[2 * q if i == k else 0 for k in range(len(squares))]
            for i, q in enumerate(squares)]
    return anticommutator_relations(frame, labels, gram)


# -- sign-matrix identifications -------------------------------------------


@dataclass
class FrameMap:
    """Exact identity scales[r] * targets[r] = sum_s signs[r][s] * sources[s].

    sources is a locally dual nilpotent family, targets an orthonormal frame
    with the prescribed squares; signs entries are 0, +-1 or +-j.
    """

    scales: list[Scalar]
    signs: list[list[Scalar]]
    sources: list[Multivector]
    targets: list[Multivector]
    source_labels: list[str]
    target_labels: list[str]
    expected_squares: list[int]

    def __post_init__(self):
        rows, width = len(self.signs), len(self.sources)
        if (any(len(x) != rows for x in (self.scales, self.targets, self.target_labels,
                                         self.expected_squares))
                or any(len(x) != width for x in (*self.signs, self.source_labels))):
            raise DimensionMismatchError(
                "a frame map needs one scale, sign row, target, label and square per row, "
                "and one sign and label per source")

    def row_combination(self, r: int) -> Multivector:
        return Multivector.combine(self.sources[0].sig, zip(self.signs[r], self.sources))

    def verify_rows(self) -> bool:
        return all(self.targets[r].scale(self.scales[r]) == self.row_combination(r)
                   for r in range(len(self.targets)))

    def verify_frame(self) -> list[str]:
        return check_frame_relations(self.targets, self.expected_squares,
                                     self.target_labels)

    def verify_sources(self) -> list[str]:
        lw = LocalWitt(len(self.sources), self.sources[0].sig,
                       list(self.sources))
        return check_local_relations(lw)

    def to_json(self) -> dict:
        return {"scales": [s.to_json() for s in self.scales],
                "signs": [[e.to_json() for e in row] for row in self.signs],
                "rows": [{"label": lab, "multivector": t.to_json()}
                         for lab, t in zip(self.target_labels, self.targets)]}

    def latex(self) -> str:
        lhs = " \\\\ ".join(f"{s.latex()}\\,{lab}"
                            for s, lab in zip(self.scales, self.target_labels))
        rhs = " \\\\ ".join(self.source_labels)
        return (f"\\begin{{pmatrix}}{lhs}\\end{{pmatrix}} = "
                f"{pmatrix(self.signs, Scalar.latex)} "
                f"\\begin{{pmatrix}}{rhs}\\end{{pmatrix}}")


def hadamard_identification(k: int) -> FrameMap:
    """The frame of g(1, 2^k - 1) as scaled sign combinations of nilpotents:
    scales[r] frame[r] = sum_s W[r][s] c_s with W = omega(k, plain), solved
    for the c's as c = (1/2^k) W^T (scaled frame)."""
    if k not in (2, 3):
        raise UnsupportedError("sign-matrix identifications exist for k = 2, 3")
    n = 1 << k
    sig = g_1n(n - 1)
    frame = [Multivector.generator(sig, i) for i in range(n)]
    # row of ones squares to (n^2 - n)/2, zero-sum rows to -n/2
    scales = [Scalar.sqrt(n * (n - 1) // 2)] + [Scalar.sqrt(n // 2)] * (n - 1)
    w = omega(k, OmegaVariant.PLAIN).rows
    scaled = [f.scale(s) for f, s in zip(frame, scales)]
    c = [Multivector.combine(sig, ((Fraction(w[r][i], n), scaled[r]) for r in range(n)))
         for i in range(n)]
    fm = FrameMap(
        scales=scales,
        signs=[[Scalar.of(x) for x in row] for row in w],
        sources=c,
        targets=frame,
        source_labels=[f"c{i+1}" for i in range(n)],
        target_labels=["e1"] + [f"f{i}" for i in range(1, n)],
        expected_squares=[1] + [-1] * (n - 1),
    )
    if not fm.verify_rows():
        raise RuntimeError("sign-matrix identity failed to close")
    return fm


def hadamard_nilpotents(k: int) -> LocalWitt:
    """The locally dual family c_1..c_{2^k} of hadamard_identification(k)."""
    fm = hadamard_identification(k)
    return LocalWitt(len(fm.sources), fm.sources[0].sig, fm.sources)


def pseudoscalar_identity(c: list[Multivector] | None = None) -> tuple[Multivector, Multivector]:
    """Both routes to the top blade of g(1,7).

    Returns (lhs, rhs) with lhs = 2^8 sqrt(7) e1 f1 .. f7 computed as a
    geometric product of the frame, rhs = -2^12 c1^..^c8 computed as a wedge
    of the k=3 nilpotents c, the sources of hadamard_identification(3),
    built here unless the caller passes them; they are equal.
    """
    if c is None:
        c = hadamard_nilpotents(3).c
    frame = [Multivector.generator(c[0].sig, i) for i in range(8)]
    lhs = gp_chain(frame).scale(Scalar.sqrt(7, coeff=Fraction(256)))
    rhs = wedge_chain(c).scale(-4096)
    return lhs, rhs


def complex_identification_g22() -> FrameMap:
    """Signature (2,2) from the complexified m=4 family: hadamard_identification(2)
    with its f1 row times j, signs and target both, so f1 becomes jf1 with
    square +1 and the signs become omega(2, complex-plain)."""
    fm = hadamard_identification(2)
    j = Scalar.j()
    fm.signs[1] = [x * j for x in fm.signs[1]]
    fm.targets[1] = fm.targets[1].scale(j)
    fm.target_labels[1] = "jf1"
    fm.expected_squares[1] = 1
    return fm


# -- negative search in g(1,2) ---------------------------------------------


def _rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass
class NegativeSearchReport:
    sign_matrices: int
    radicand_combos: int
    candidates_checked: int
    frames_found: int
    unit_examples: list[tuple[str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.frames_found == 0


def no_identification_g12() -> NegativeSearchReport:
    """Exhaustive proof that no +-1 sign matrix gives an m=3 analogue of the
    m=4 identification (the discrete Hartley matrix of order 3 gives one).

    Tries every 3x3 sign matrix (entries +-1) and per-row monomial scaling
    lambda*sqrt(d), d in {1,2,3,6}, lambda a positive rational, asking for an
    orthonormal g(1,2) frame: one square +1, two squares -1, all pairs
    anticommuting.  None exists, even though single unit vectors do.

    Row r of sign matrix bits is one of only 8 sign vectors, v = bits >> 3r
    & 7 (bit s set: +c_s, else -c_s).  The 8 rows, their squares and all 64
    ordered anticommutators are computed once and indexed by v; the search
    still visits every one of the 512 matrices and 64 radicand choices.

    With c_i^2 = 0 and c_i c_k + c_k c_i = 1, rows sum s_i c_i and sum t_k c_k
    anticommute to the scalar (sum s)(sum t) - s.t, which is 2 mod 4 for
    sign vectors of length 3, so never 0.  No sign matrix passes the
    anticommutation test, and for this reason the radicand stage is never
    reached: every candidate is counted and rejected there.
    """
    lw = make_local_witt(3)
    c = lw.c
    radicands = (1, 2, 3, 6)
    zero = Multivector.zero(lw.sig)

    vectors = [c[0].scale(1 if v & 1 else -1) + c[1].scale(1 if v & 2 else -1)
               + c[2].scale(1 if v & 4 else -1) for v in range(8)]
    vector_squares = [gp(x, x).scalar_part().as_fraction() for x in vectors]
    anticommute = [[anticommutator(x, y) == zero for y in vectors] for x in vectors]

    found = 0
    checked = 0
    for bits in range(1 << 9):
        vs = [bits >> 3 * r & 7 for r in range(3)]
        squares = [vector_squares[v] for v in vs]
        anti_ok = all(anticommute[vs[i]][vs[k]]
                      for i in range(3) for k in range(i + 1, 3))
        for d0 in radicands:
            for d1 in radicands:
                for d2 in radicands:
                    checked += 1
                    if not anti_ok:
                        continue
                    ds = (d0, d1, d2)
                    # some row plays e1 (square +1), the other two play f
                    for plus in range(3):
                        good = True
                        for r in range(3):
                            target = 1 if r == plus else -1
                            q = squares[r]
                            if not q:
                                good = False
                                break
                            lam_sq = Fraction(target, 1) / (q * ds[r])
                            if _rational_sqrt(lam_sq) is None:
                                good = False
                                break
                        if good:
                            found += 1
                            break
    report = NegativeSearchReport(
        sign_matrices=1 << 9,
        radicand_combos=len(radicands) ** 3,
        candidates_checked=checked,
        frames_found=found,
    )
    s3 = (c[0] + c[1] + c[2]).scale(Scalar.sqrt(3, coeff=Fraction(1, 3)))
    if gp(s3, s3) == Multivector.scalar(lw.sig, 1):
        report.unit_examples.append(("(c1+c2+c3)/sqrt(3)", 1))
    d12 = c[0] - c[1]
    if gp(d12, d12) == Multivector.scalar(lw.sig, -1):
        report.unit_examples.append(("c1-c2", -1))
    return report


# -- the complexified m = 8 table ------------------------------------------


@dataclass
class C8Table:
    """The eight complexified frame elements of g(1,7) and their nilpotent forms.

    labels pair each frame element with its closed form in C_k = c_1+..+c_k
    and c_{k+1}; elements at odd k >= 3 carry a factor j so that the eight
    squares alternate through signature (4,4).  The a/b lists are the four
    globally dual pairs assembled from the table.
    """

    witt: LocalWitt
    labels: list[str]
    entries: list[Multivector]
    recursion_forms: list[Multivector]
    tabulated_forms: list[Multivector]
    a: list[Multivector]
    b: list[Multivector]

    def rows(self) -> list[tuple[str, Multivector]]:
        return list(zip(self.labels, self.entries))


# closed-form coefficients (x on C_k, y on c_{k+1}) as tabulated; the f4 row
# is reproduced as printed even though its y does not match the recursion
_C8_TABULATED = {
    "f2": (Scalar.of(-1), Scalar.of(1)),
    "jf3": (Scalar.sqrt(-3, Fraction(-1, 3)), Scalar.sqrt(-3, Fraction(2, 3))),
    "f4": (Scalar.sqrt(6, Fraction(-1, 6)), Scalar.sqrt(3, Fraction(1, 2))),
    "jf5": (Scalar.sqrt(-10, Fraction(-1, 10)), Scalar.sqrt(-10, Fraction(2, 5))),
    "f6": (Scalar.sqrt(15, Fraction(-1, 15)), Scalar.sqrt(15, Fraction(1, 3))),
    "jf7": (Scalar.sqrt(-21, Fraction(-1, 21)), Scalar.sqrt(-21, Fraction(2, 7))),
}


def c8_tabulated_coefficients() -> dict[str, tuple[Scalar, Scalar]]:
    return dict(_C8_TABULATED)


def c8_complex_table() -> C8Table:
    lw = make_local_witt(8)
    j = Scalar.j()
    labels = ["e1", "f1", "f2", "jf3", "f4", "jf5", "f6", "jf7"]
    # element k of the frame, times j at odd k >= 3
    entries = [Multivector.generator(lw.sig, k) for k in range(8)]
    recursion_forms = ef_from_c(lw)
    for k in (3, 5, 7):
        entries[k], recursion_forms[k] = entries[k].scale(j), recursion_forms[k].scale(j)

    csum = [lw.c[0]]
    for v in lw.c[1:]:
        csum.append(csum[-1] + v)
    tabulated_forms = recursion_forms[:2]
    for k in range(2, 8):
        x, y = _C8_TABULATED[labels[k]]
        tabulated_forms.append(csum[k - 1].scale(x) + lw.c[k].scale(y))

    a, b = [lw.c[0]], [lw.c[1]]
    for i in (3, 5, 7):                              # (jf_i, f_{i-1}) pairs
        ai, bi = null_pair(entries[i], entries[i - 1])
        a.append(ai)
        b.append(bi)
    return C8Table(lw, labels, entries, recursion_forms, tabulated_forms, a, b)
