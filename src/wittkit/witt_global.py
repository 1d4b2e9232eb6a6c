"""Dual nilpotent pairs, matrix-unit (spectral) bases, and the exact
multivector <-> coordinate-matrix isomorphism.

A globally dual pair consists of nilpotent vectors a_1..a_n, b_1..b_n in the
neutral algebra g(n,n) with a_i*b_j + b_j*a_i = delta_ij.  Bordering the
product of the n idempotents b_i*a_i with subset words in the a's (rows) and
b's (columns) yields a complete family of matrix units E[i][j], which turns
the 4**n dimensional algebra into the full 2**n x 2**n matrix algebra over
the rational-plus-j subfield.

Coordinates come from the trace: for matrix units the scalar part is the
normalized trace, so the (i, j) coordinate of g is x_ij = n <E[j][i] g>_0
(plus the central-blade part when the basis is taken over a central unit).
Each basis certifies once that its family really is a complete set of
matrix units before mv_to_matrix reads any coordinates; see
SpectralBasis._build_extraction.  matrix_to_mv only expands sum x_ij E_ij
and needs no certificate.  Inputs and basis entries may carry radicals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DimensionMismatchError, ExtractorUnavailableError,
                     RangeError, SignatureMismatchError)
from .ga import (Multivector, Signature, blade_product, g_nn, gp, gp_chain,
                 sym_dot)
from .scalars import Scalar, _is_int, apply_map, pmatrix, split_map


def _product_part(x: Multivector, y: Multivector, t: int) -> Scalar:
    """<x y>_t without forming x y: blade a of x meets blade a ^ t of y."""
    acc = Scalar()
    for a, ca in x.terms.items():
        cb = y.terms.get(a ^ t)
        if cb is not None:
            p = ca * cb
            acc = acc + (p if blade_product(a, a ^ t, x.sig)[0] > 0 else -p)
    return acc


# -- coordinate matrices ---------------------------------------------------


class MvMatrix:
    """Square matrix of exact scalars: the coordinate image of a multivector."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DimensionMismatchError("matrix must be square")
        self.entries = [[Scalar.of(e) for e in row] for row in entries]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, dim: int) -> "MvMatrix":
        return cls([[Scalar.of(1 if i == j else 0) for j in range(dim)]
                    for i in range(dim)])

    def matmul(self, other: "MvMatrix") -> "MvMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix sizes differ")
        # row i of the product is sum_k a_ik (row k of other); other is
        # split once, not once per row of self
        rows = split_map({k: dict(enumerate(row)) for k, row in enumerate(other.entries)})
        out = [apply_map(dict(enumerate(row)), rows) for row in self.entries]
        return MvMatrix([[r.get(j, Scalar()) for j in range(self.dim)] for r in out])

    def __add__(self, other):
        if not isinstance(other, MvMatrix) or self.dim != other.dim:
            return NotImplemented
        return MvMatrix([[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, factor) -> "MvMatrix":
        s = Scalar.of(factor)
        return MvMatrix([[e * s for e in row] for row in self.entries])

    def transpose(self) -> "MvMatrix":
        return MvMatrix([list(col) for col in zip(*self.entries)])

    def __eq__(self, other):
        if not isinstance(other, MvMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"MvMatrix[{rows}]"

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    @classmethod
    def from_json(cls, data) -> "MvMatrix":
        if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
            raise ValueError("matrix JSON needs 'dim' and 'entries'")
        n = data["dim"]
        rows = data["entries"]
        if not _is_int(n) or not isinstance(rows, list) or len(rows) != n:
            raise ValueError("matrix JSON entry count does not match dim")
        out = []
        for row in rows:
            if not isinstance(row, list) or len(row) != n:
                raise ValueError("matrix JSON row length does not match dim")
            out.append([Scalar.from_json(e) for e in row])
        return cls(out)

    def latex(self) -> str:
        return pmatrix(self.entries, Scalar.latex)


class CentralMatrix:
    """Square matrix whose entries are central multivectors.

    Used when the coordinate subfield is generated by a central blade (the
    unit pseudoscalar of g(3)) instead of the scalar j.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DimensionMismatchError("matrix must be square")
        self.entries = list(map(list, entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def matmul(self, other: "CentralMatrix") -> "CentralMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix sizes differ")
        cols = list(zip(*other.entries))
        return CentralMatrix([[sum(map(gp, row, col)) for col in cols]
                              for row in self.entries])

    def scale(self, factor) -> "CentralMatrix":
        return CentralMatrix([[e.scale(factor) for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, CentralMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"CentralMatrix[{rows}]"

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    def latex(self) -> str:
        """pmatrix with the central pseudoscalar blade written as iota.

        With an odd number of generators the pseudoscalar, mask sig.dim - 1,
        is the only non-scalar central blade.
        """
        def cell(mv: Multivector) -> str:
            top = mv.sig.dim - 1
            return mv._latex(lambda m: "\\iota" if m == top
                             else mv._blade_label(m, mv.sig.latex_names))

        return pmatrix(self.entries, cell)


# -- witt pairs ------------------------------------------------------------


@dataclass
class GlobalWitt:
    """Dual nilpotent pair a_i = (e_i+f_i)/2, b_i = (e_i-f_i)/2 in g(n,n)."""

    n: int
    sig: Signature
    a: list[Multivector]
    b: list[Multivector]


def make_global_witt(n: int) -> GlobalWitt:
    if not 1 <= n <= 4:
        raise RangeError("global witt pairs are built for 1 <= n <= 4")
    sig = g_nn(n)
    half = Fraction(1, 2)
    a, b = [], []
    for i in range(n):
        e = Multivector.generator(sig, 2 * i)
        f = Multivector.generator(sig, 2 * i + 1)
        a.append((e + f).scale(half))
        b.append((e - f).scale(half))
    return GlobalWitt(n, sig, a, b)


def check_duality_relations(a: list[Multivector], b: list[Multivector]) -> list[str]:
    """The failing relations among nilpotency, in-family anticommutation and
    a_i.b_j = delta_ij/2, by name; empty when the pair is dual."""
    rels = []
    one = Multivector.scalar(a[0].sig, 1)
    zero = Multivector.zero(a[0].sig)
    for label, fam in (("a", a), ("b", b)):
        for i, v in enumerate(fam, 1):
            rels.append((f"{label}{i}^2 = 0", gp(v, v) == zero))
    for label, fam in (("a", a), ("b", b)):
        for i in range(len(fam)):
            for k in range(i + 1, len(fam)):
                rels.append((f"{label}{i+1} {label}{k+1} anticommute",
                             gp(fam[i], fam[k]) + gp(fam[k], fam[i]) == zero))
    for i, ai in enumerate(a, 1):
        for k, bk in enumerate(b, 1):
            want = one if i == k else zero
            rels.append((f"2 a{i}.b{k} = {'1' if i == k else '0'}",
                         sym_dot(ai, bk).scale(2) == want))
    return [name for name, held in rels if not held]


# -- spectral basis --------------------------------------------------------


class SpectralBasis:
    """Matrix units E[i][j] = rows[i] * center * cols[j] plus the coordinate maps."""

    def __init__(self, rows, center, cols, central_unit: Multivector | None = None,
                 row_labels=None, col_labels=None):
        if len(rows) != len(cols):
            raise DimensionMismatchError("row and column borders must have equal length")
        self.sig = center.sig
        self.rows = list(rows)
        self.cols = list(cols)
        self.center = center
        self.central_unit = central_unit
        self.row_labels = list(row_labels) if row_labels else None
        self.col_labels = list(col_labels) if col_labels else None
        # each row product r_i * center once; same left-to-right order as gp_chain
        self.E = [[gp(rc, c) for c in self.cols]
                  for rc in (gp(r, center) for r in self.rows)]
        self._extraction = None
        self._split_units = None
        self._unit_blades = set()     # the blades t that _split_units covers

    @property
    def dim(self) -> int:
        return len(self.rows)

    # -- structural checks -------------------------------------------------

    def identity_sum(self) -> Multivector:
        return sum((self.E[i][i] for i in range(self.dim)), Multivector.zero(self.sig))

    def matrix_unit_law(self, quadruples=None) -> bool:
        """E[i][j]*E[k][l] == delta_jk E[i][l]; all quadruples unless given."""
        n = self.dim
        if quadruples is None:
            quadruples = ((i, j, k, l) for i in range(n) for j in range(n)
                          for k in range(n) for l in range(n))
        zero = Multivector.zero(self.sig)
        for i, j, k, l in quadruples:
            want = self.E[i][l] if j == k else zero
            if gp(self.E[i][j], self.E[k][l]) != want:
                return False
        return True

    # -- coordinate maps ---------------------------------------------------

    def _build_extraction(self):
        """Certify the family as matrix units, then cache the trace table.

        With tau(X) = n * sum_t <X>_t, where t runs over the scalar blade and,
        for a basis over a central unit, the central blade (whose part is
        read as a multiple of the central unit), the certificate is:

        1. there are sig.dim elements: n**2, or 2 n**2 with a central unit;
        2. the central unit is one non-scalar blade (monomial coefficient)
           that commutes with every generator;
        3. u = center satisfies u u = u and tau(u) = 1;
        4. tau(u c_i r_k) = delta_ik for all i, k.

        Why that suffices.  By (1) and (2) the algebra is central simple over
        the scalars (even generator count) or over its center Z spanned by 1
        and the central unit (odd count), where it is a product of simple
        factors; either way tau is its reduced trace, Z-valued, since every
        other blade anticommutes with some generator and has trace 0.  An
        idempotent of reduced trace 1 has rank one in every factor, so
        u X u = tau(u X) u for all X.  By (4), u c_i r_k u = delta_ik u, hence
        E_ij E_kl = r_i (u c_j r_k u) c_l = delta_jk E_il: the matrix-unit
        law.  Matrix units with tau(E_ii) = tau(u c_i r_i) = 1 are independent
        over Z, and by (1) there are as many as the dimension, so they form a
        basis; expanding g = sum z_kl E_kl gives tau(E_ji g) = z_ij exactly.

        The table maps each blade mask b to the flat indices it feeds and
        their weights, idx = (p n + i) n + j for part p, so the coordinates
        are one scalars.apply_map of the input's terms: x_ij = n <E_ji g>_t
        sums E_ji[a] g[b] over the masks a = b ^ t.  The whole table is
        stored split once by scalars.split_map, so no conversion splits it
        again.
        """
        n, sig, u, cu = self.dim, self.sig, self.center, self.central_unit
        count = n * n if cu is None else 2 * n * n
        if count != sig.dim:
            raise ExtractorUnavailableError(
                f"{count} basis elements cannot span a {sig.dim}-dimensional algebra")
        parts = [(0, Scalar.of(n))]      # tau(X) = (w <X>_t for t, w in parts)
        if cu is not None:
            mask, coeff = next(iter(cu.terms.items()), (0, Scalar()))
            if (len(cu.terms) != 1 or not mask or len(coeff.terms) != 1
                    or any(gp(cu, e) != gp(e, cu) for e in
                           (Multivector.generator(sig, k) for k in range(sig.m)))):
                raise ExtractorUnavailableError(
                    "the central unit must be a single non-scalar blade that "
                    "commutes with every generator")
            parts.append((mask, Scalar.of(n) / coeff))
        zeros = (0,) * (len(parts) - 1)
        if gp(u, u) != u or tuple(w * u.coeff(t) for t, w in parts) != (1,) + zeros:
            raise ExtractorUnavailableError("the center is not an idempotent of trace 1")
        for i, c in enumerate(self.cols):
            uc = gp(u, c)
            for k, r in enumerate(self.rows):
                if tuple(w * _product_part(uc, r, t) for t, w in parts) != \
                        (int(i == k),) + zeros:
                    raise ExtractorUnavailableError(
                        f"tau(u c{i} r{k}) is not {int(i == k)}: "
                        "the family breaks the matrix-unit law")
        table: dict[int, dict[int, Scalar]] = {}
        for p, (t, w) in enumerate(parts):
            for i in range(n):
                for j in range(n):
                    idx = (p * n + i) * n + j
                    for a, c in self.E[j][i].terms.items():
                        v = w * c
                        if blade_product(a, a ^ t, sig)[0] < 0:
                            v = -v
                        table.setdefault(a ^ t, {})[idx] = v
        self._extraction = split_map(table)

    def mv_to_matrix(self, g: Multivector):
        """x_ij = n <E_ji g>_0, plus the central-blade part over a central unit."""
        if g.sig.squares != self.sig.squares:
            raise SignatureMismatchError("multivector belongs to a different algebra")
        if self._extraction is None:
            self._build_extraction()
        n = self.dim
        xs = apply_map(g.terms, self._extraction)
        x = [xs.get(idx, Scalar()) for idx in range(self.sig.dim)]
        if self.central_unit is None:
            return MvMatrix([[x[i * n + j] for j in range(n)] for i in range(n)])
        # x holds every plain part, then every central-unit part, row-major
        cu, nn = self.central_unit, n * n
        return CentralMatrix([[Multivector.scalar(self.sig, x[i * n + j])
                               + cu.scale(x[nn + i * n + j]) for j in range(n)]
                              for i in range(n)])

    def matrix_to_mv(self, mat) -> Multivector:
        """sum x_ij E_ij; a central-unit entry x_ij contributes x_ij E_ij as a
        geometric product, blade by blade."""
        if mat.dim != self.dim:
            raise DimensionMismatchError("matrix size does not match basis dimension")
        n = self.dim
        # blade t of entry (i, j) feeds the row t E_ij, keyed (t n + i) n + j;
        # a scalar entry is all blade 0
        vec = {}
        for i, row in enumerate(mat.entries):
            for j, e in enumerate(row):
                if isinstance(e, Multivector):
                    for t, c in e.terms.items():
                        vec[(t * n + i) * n + j] = c
                else:
                    vec[i * n + j] = e
        blades = {k // (n * n) for k in vec} | {0}
        if not blades <= self._unit_blades:
            # the products t E_ij are fixed per basis: split them once, for
            # every blade t seen so far; no certificate is needed to expand
            # sum x_ij E_ij, so this never builds the trace table
            self._unit_blades |= blades
            self._split_units = split_map({
                (t * n + i) * n + j: (u if t == 0 else
                                      gp(Multivector.blade(self.sig, t), u)).terms
                for t in self._unit_blades
                for i, row in enumerate(self.E) for j, u in enumerate(row)})
        return Multivector(self.sig, apply_map(vec, self._split_units))

    def latex(self) -> str:
        return pmatrix(self.E, Multivector.latex)

    def to_json(self) -> dict:
        return {"signature": list(self.sig.squares),
                "dim": self.dim,
                "row_labels": self.row_labels,
                "col_labels": self.col_labels,
                "entries": [[e.to_json() for e in row] for row in self.E]}


def spectral_basis_nn(n: int) -> SpectralBasis:
    """Matrix units of g(n,n): subset words in the a's (rows, ascending inner
    index) against subset words in the b's (columns, descending inner index),
    around the idempotent product (b_1 a_1)...(b_n a_n)."""
    if not 1 <= n <= 4:
        raise RangeError("spectral bases are built for 1 <= n <= 4")
    w = make_global_witt(n)
    one = Multivector.scalar(w.sig, 1)
    rows, cols, row_labels, col_labels = [], [], [], []
    for subset in range(1 << n):
        idx = [i for i in range(n) if subset >> i & 1]
        if idx:
            rows.append(gp_chain([w.a[i] for i in idx]))
            cols.append(gp_chain([w.b[i] for i in reversed(idx)]))
            row_labels.append("a" + "".join(str(i + 1) for i in idx))
            col_labels.append("b" + "".join(str(i + 1) for i in reversed(idx)))
        else:
            rows.append(one)
            cols.append(one)
            row_labels.append("1")
            col_labels.append("1")
    center = gp_chain([gp(w.b[i], w.a[i]) for i in range(n)]) if n > 1 else gp(w.b[0], w.a[0])
    return SpectralBasis(rows, center, cols,
                         row_labels=row_labels, col_labels=col_labels)
