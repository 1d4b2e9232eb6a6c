"""Dual nilpotent pairs, matrix-unit (spectral) bases, and the exact
multivector <-> coordinate-matrix isomorphism.

A globally dual pair consists of nilpotent vectors a_1..a_n, b_1..b_n in the
neutral algebra g(n,n) with a_i*b_j + b_j*a_i = delta_ij: the anticommutator
table [[0, I], [I, 0]] that check_duality_relations checks.  Bordering the
product of the n idempotents b_i*a_i with subset words in the a's (rows) and
b's (columns) yields matrix units E[i][j], which turn the algebra into the
2**n x 2**n matrices over the rational-plus-j subfield.

Coordinates are the trace form: for matrix units the scalar part is the
normalized trace, so the (i, j) coordinate of g is x_ij = n <E[j][i] g>_t
over the blades t of the centre, which the signature fixes (_centre).  A
coordinate matrix stores blade t of entry (i, j) at the index
(t n + i) n + j of integer slots over one denominator: MvMatrix is the
scalar case t = 0 and CentralMatrix carries the pseudoscalar of an odd
algebra too.  Inputs may carry radicals.

Every SpectralBasis is built from its pairs, and both coordinate maps are
read off them (Jordan and Wigner, Z. Phys. 47 (1928) 631).  On the words
a_I u that SpectralBasis(a, b) borders, a_k and b_k act as fixed creation
and annihilation matrices, whatever the pairs hold.
SpectralBasis._build_extraction checks the blade relations of the pair
blades a_k +- b_k on those matrices, so the image of each blade is a
product of Pauli strings, itself one: j^w iota^z X^f Z^d in the (f, d) bit
form of Aaronson and Gottesman (Phys. Rev. A 70 (2004) 052328), where X^f
sends column c to row c ^ f and Z^d multiplies it by (-1)^|d & c|, three
ints (f, d, 4 z + w) that _times multiplies.  So entry (c ^ f, c) of the
image of g is the sum over d of (-1)^|d & c| j^w g_M for the blades
M = (f, d, z), and g_M is j^-w / n times the same sum over c.  Each map runs
scalars.walsh on lanes of sig.dim positions (z n + f) n + d
(SpectralBasis._walsh), or, on a lane with few nonzeros (see
_LANE_OVERHEAD), one scalars.apply_slots of a table read off the same
images: no E, no gp and no Scalar.  E is read off the unit table, as the
preimages of the matrix units; border() builds with gp the arrays the paper
borders by hand.  tests/test_witt_global.py::TestButterfly checks the Pauli
form and forced-walsh round trips against gp at every pair basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, mul

from .errors import (DimensionMismatchError, ExtractorUnavailableError,
                     RangeError, SignatureMismatchError)
from .ga import (Multivector, Signature, _blade_product, anticommutator_relations,
                 g_nn, gp, null_pair)
from .scalars import (Scalar, _is_int, apply_slots, combine_slots, join_slots,
                      json_slots, pmatrix, reduce_slots, split_slots, walsh)


# -- the images of a pair basis --------------------------------------------

# A lane of nnz numerators costs nnz n multiply-adds on a table of n x n
# matrices, since every image has n entries, and about 3 per lane position
# plus this overhead through SpectralBasis._walsh, whose gather, signs and
# scatter cost more than its log2(n) stages; _apply gives a lane to the
# cheaper one.  Timed through both maps over Q and Q(j) with CPython 3.11 on
# a 2-core x86-64 machine, a lane breaks even at 24 nonzeros in g(3,3) (the
# rule gives 26), at 48 in g(4,4) (49) and at 53-57 in g(1,7) (49; 85
# forward over Q, where one real lane fills both keys), while lanes of 16
# nonzeros in g(2,2) and g(1,3) cost as much or more on the stages and stay
# on the tables
_LANE_OVERHEAD = 16


def _times(x: tuple, y: tuple, flip: int = 0) -> tuple:
    """The Pauli string x y, negated when flip is 2.  (f, d, w) is
    j^(w & 3) iota^(w >> 2) X^f Z^d, iota the centre blade of an odd algebra,
    which at most one factor holds; Z^d X^g = (-1)^|d & g| X^g Z^d."""
    (f, d, w), (g, e, v) = x, y
    return f ^ g, d ^ e, (w + v + 2 * (d & g).bit_count()) & 3 ^ flip | (w | v) & 4


def _centre(sig: Signature) -> tuple[int, ...]:
    """The blades spanning the centre of the algebra of sig: the scalar, and
    the pseudoscalar for an odd generator count (Lounesto, Clifford Algebras
    and Spinors, 2001); tests/test_witt_global.py::TestCentre checks it."""
    return (0, sig.dim - 1) if sig.m & 1 else (0,)


# -- coordinate matrices ---------------------------------------------------


class _SlotMatrix:
    """Square matrix stored as the integer kernel computes it: slots {key:
    {(t n + i) n + j: numerator}} for blade t of entry (i, j), over one den,
    in canonical form (zero numerators dropped, den > 0, gcd(den, every
    numerator) == 1), so two matrices over one ring are equal exactly when
    dim, den and slots are.  entries, the rows of cells, is built from the
    slots on first read and cached.  Treat sig, slots, den and entries as
    read-only.
    """

    __slots__ = ("dim", "sig", "den", "slots", "_entries")

    @classmethod
    def _of_sums(cls, n: int, acc, den: int, sig: Signature | None = None):
        """The n x n matrix of integer sums {key: {(t n + i) n + j: numerator}}
        over den; sig is the algebra of the central blades t, or None."""
        m = cls.__new__(cls)
        m.dim, m.sig = n, sig
        m.slots, m.den = reduce_slots(acc, den)
        m._entries = None
        return m

    @property
    def entries(self) -> list[list]:
        if self._entries is None:
            n = self.dim
            parts = [[{} for _ in range(n)] for _ in range(n)]
            for idx, c in join_slots(self.slots, self.den).items():
                t, ij = divmod(idx, n * n)
                parts[ij // n][ij % n][t] = c
            self._entries = [[self._cell(p) for p in row] for row in parts]
        return self._entries

    def _ring(self):
        """What an entry is: the class, and the generator squares of sig."""
        return type(self), self.sig and self.sig.squares

    def matmul(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix sizes differ")
        if self._ring() != other._ring():
            raise SignatureMismatchError("matrix entries belong to different rings")
        # blade s of a_ik times blade t of b_kj is sign(s, t) times blade
        # u = s ^ t of entry (i, j): other is split once into the map from
        # index (s n + i) n + k of self to (u n + i) n + j, for every blade s
        # of self, so the product is one apply_slots of self against it
        n, nn, squares = self.dim, self.dim ** 2, self.sig.squares if self.sig else ()
        blades = {idx // nn for slot in self.slots.values() for idx in slot}
        split: dict = {}
        for key, slot in other.slots.items():
            dst = split[key] = {}
            for idx, v in slot.items():
                t, kj = divmod(idx, nn)
                k, j = divmod(kj, n)
                for s in blades:
                    sign, u = _blade_product(s, t, squares)
                    a_sk, c_uj, w = s * nn + k, u * nn + j, sign * v
                    for i_n in range(0, nn, n):
                        dst.setdefault(a_sk + i_n, []).append((c_uj + i_n, w))
        return self._of_sums(n, *apply_slots(self.slots, self.den, (split, other.den)),
                             self.sig)

    def __add__(self, other):
        if not isinstance(other, _SlotMatrix) or \
                (self._ring(), self.dim) != (other._ring(), other.dim):
            return NotImplemented
        return self._of_sums(self.dim, *combine_slots(
            [(1, self.slots, self.den), (1, other.slots, other.den)]), self.sig)

    def scale(self, factor):
        return self._of_sums(self.dim, *combine_slots([(factor, self.slots, self.den)]),
                             self.sig)

    def __eq__(self, other):
        if not isinstance(other, _SlotMatrix):
            return NotImplemented
        return (self._ring(), self.dim, self.den, self.slots) == \
            (other._ring(), other.dim, other.den, other.slots)

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.entries)
        return f"{type(self).__name__}[{rows}]"


class MvMatrix(_SlotMatrix):
    """Square matrix of exact scalars: the coordinate image of a multivector."""

    __slots__ = ()

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DimensionMismatchError("matrix must be square")
        rows = [[Scalar.of(e) for e in row] for row in entries]
        self.slots, self.den = split_slots({i * n + j: e for i, row in enumerate(rows)
                                            for j, e in enumerate(row)})
        self.dim, self.sig, self._entries = n, None, rows

    @staticmethod
    def _cell(parts: dict) -> Scalar:
        return parts.get(0, Scalar())

    @classmethod
    def identity(cls, dim: int) -> "MvMatrix":
        return cls._of_sums(dim, {(1, False): {i * dim + i: 1 for i in range(dim)}}, 1)

    # matmul and to_json are set on each class itself, where
    # perfbench/tracer.py looks them up
    matmul = _SlotMatrix.matmul

    def transpose(self) -> "MvMatrix":
        n = self.dim                     # entry i n + j moves to j n + i
        return self._of_sums(n, {key: {idx % n * n + idx // n: v for idx, v in slot.items()}
                                 for key, slot in self.slots.items()}, self.den)

    def to_json(self) -> dict:
        x, n = json_slots(self.slots, self.den), self.dim
        return {"dim": n, "entries": [[x.get(i * n + j, []) for j in range(n)] for i in range(n)]}

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


class CentralMatrix(_SlotMatrix):
    """Square matrix whose entries lie in the centre of one algebra.

    Used when the coordinate subfield is generated by a central blade (the
    pseudoscalar of an odd algebra, such as g(3)) instead of the scalar j.
    Blade t of entry (i, j) is stored at the slot index (t n + i) n + j.
    """

    __slots__ = ()

    def __init__(self, entries):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DimensionMismatchError("matrix must be square")
        self.sig = entries[0][0].sig if n else None
        if any(e.sig.squares != self.sig.squares for row in entries for e in row):
            raise SignatureMismatchError("central matrix entries belong to different algebras")
        # matrix_to_mv reads only the blades of the centre
        if any(t not in _centre(e.sig) for row in entries for e in row for t in e.terms):
            raise ValueError("a central matrix entry has only a scalar and a pseudoscalar part")
        self.slots, self.den = split_slots({(t * n + i) * n + j: c
                                            for i, row in enumerate(entries)
                                            for j, e in enumerate(row)
                                            for t, c in e.terms.items()})
        self.dim, self._entries = n, list(map(list, entries))

    def _cell(self, parts: dict) -> Multivector:
        return Multivector(self.sig, parts)

    matmul = _SlotMatrix.matmul

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    def latex(self) -> str:
        """pmatrix with the non-scalar blade of the centre written as iota."""
        def cell(mv: Multivector) -> str:
            return mv._latex(lambda m: "\\iota" if m in _centre(mv.sig)[1:]
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
    a, b = zip(*(null_pair(Multivector.generator(sig, 2 * i),
                           Multivector.generator(sig, 2 * i + 1)) for i in range(n)))
    return GlobalWitt(n, sig, list(a), list(b))


def check_duality_relations(a: list[Multivector], b: list[Multivector]) -> list[str]:
    """The failing relations of the Gram table [[0, I], [I, 0]] of a_1..a_n,
    b_1..b_n (nilpotency, in-family anticommutation, a_i b_k + b_k a_i =
    delta_ik), by name; empty when the pair is dual.  A b family of another
    length than a raises DimensionMismatchError."""
    n = len(a)
    gram = [[int(abs(i - k) == n) for k in range(2 * n)] for i in range(2 * n)]
    labels = [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, len(b) + 1)]
    return anticommutator_relations([*a, *b], labels, gram)


# -- spectral basis --------------------------------------------------------


class SpectralBasis:
    """Matrix units E[I][J] = a_I u b_J bordered from nilpotent pairs a_k, b_k,
    plus the coordinate maps: subset words in the a's (rows, ascending inner
    index) against subset words in the b's (columns, descending inner index),
    around the idempotent product u = (b_1 a_1)...(b_n a_n).  Row and column
    0 are the empty word 1.  The coordinates lie in the centre, so an odd
    algebra gets CentralMatrix coordinates."""

    def __init__(self, a: list[Multivector], b: list[Multivector]):
        if not a or len(a) != len(b):
            raise DimensionMismatchError("the pairs need one b for every a, and at least one a")
        if len({x.sig.squares for x in (*a, *b)}) > 1:
            raise SignatureMismatchError("the pairs belong to different algebras")
        n = len(a)
        self.sig, self.dim, self._pairs = a[0].sig, 1 << n, (list(a), list(b))
        words = [[str(i + 1) for i in range(n) if s >> i & 1] for s in range(1, 1 << n)]
        self.row_labels = ["1"] + ["a" + "".join(w) for w in words]
        self.col_labels = ["1"] + ["b" + "".join(reversed(w)) for w in words]
        self._extraction = None       # the trace table, for mv_to_matrix
        self._units = None            # the unit table, for matrix_to_mv and E
        self._lanes = None            # the gather and scatter lists of _walsh, both ways

    @cached_property
    def E(self) -> list[list[Multivector]]:
        """The matrix units, read off the unit table on first read: E_IJ is
        the preimage of the matrix unit (I, J), row I n + J of the table."""
        if self._extraction is None:
            self._build_extraction()
        (units, den), n = self._units, self.dim
        return [[Multivector._of_sums(self.sig, {key: dict(rows.get(i * n + j, ()))
                                                 for key, rows in units.items()}, den)
                 for j in range(n)] for i in range(n)]

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
        """Certify the pairs, then build the trace table, the unit table and
        the lanes of _walsh from the Jordan-Wigner images of their blades.

        Row I of the basis is the word a_I u, I a bit mask.  A_k holds
        (-1)^#{i in I : i < k} at (I + {k}, I) for each I without k, and B_k
        the same sign at (I - {k}, I) for each I with k.  Each pair blade
        x_k = a_k + b_k and y_k = a_k - b_k must be a unit c (+-1 or +-j)
        times one blade, which is sent to (A_k + B_k)/c and (A_k - B_k)/c;
        an odd algebra also sends its pseudoscalar to iota I.

        Why that suffices.  The images of every two pair blades p, q must
        keep the relation _blade_product gives them, p q = s(p, q) s(q, p) q p,
        and p p = s(p, p).  The pseudoscalar is central (_centre) and iota I
        squares as CentralMatrix multiplies it, so its relations hold as
        built.  The products of these blades must reach all sig.dim blades,
        each once, so blades and relations present the algebra: the blade
        map extends to a homomorphism phi, with phi(a_k) = (phi(x_k) +
        phi(y_k))/2 = A_k and phi(b_k) = B_k.  On the words a_I, A_k creates
        k and B_k annihilates it, so phi(u) = prod B_k A_k is the matrix unit
        (0, 0) and phi(E_IJ) = phi(a_I u b_J) the unit (I, J).  So phi is
        onto, hence bijective by dimension: it is the trace map.

        Doubling over the generating blades, phi(e_(M ^ p)) = s(M, p)
        phi(e_M) phi(e_p), gives every image, a Pauli string (f, d, w)
        (_times).  The trace table sends blade M to its image's n entries
        over den 1, one row in the key of w & 1.  The images are unitary and
        tr(phi(e_M)^H phi(e_K)) has scalar part n delta_MK, so the unit table
        is the conjugate transpose over den n."""
        n, sig, sq = self.dim, self.sig, self.sig.squares
        one, gens = (0, 0, 0), []
        for k, (ak, bk) in enumerate(zip(*self._pairs)):
            for name, op, x, d in (("x", "+", ak + bk, (1 << k) - 1),
                                   ("y", "-", ak - bk, (2 << k) - 1)):
                match x.den, [(key, *mv) for key, slot in x.slots.items() for mv in slot.items()]:
                    case 1, [((1, imag), mask, (1 | -1) as v)]:     # x = j^-w e_mask
                        gens.append((f"{name}{k + 1}", mask, (1 << k, d, v - 1 - imag & 3)))
                    case _:
                        raise ExtractorUnavailableError(f"pair {k + 1}: a{k + 1} {op} "
                                                        f"b{k + 1} is not a unit times one blade")
        for i, (x, mx, px) in enumerate(gens):
            for y, my, py in gens[i:]:
                s = _blade_product(mx, my, sq)[0] * (1 if x == y else _blade_product(my, mx, sq)[0])
                if _times(px, py) != _times(one, one if x == y else _times(py, px), 1 - s):
                    rel = f"{x}^2 = {s}" if x == y else f"{x} {y} = {'-' * (s < 0)}{y} {x}"
                    raise ExtractorUnavailableError(f"the images of the pair blades break {rel}")
        if sig.m & 1:
            gens.append(("iota", sig.dim - 1, (0, 0, 4)))
        images = {0: one}
        for _, p, image in gens:
            images.update({m ^ p: _times(x, image, 1 - _blade_product(m, p, sq)[0])
                           for m, x in images.items()})
        if not len(images) == 1 << len(gens) == sig.dim:
            raise ExtractorUnavailableError(f"the products of the {len(gens)} pair blades "
                                            f"reach {len(images)} of the {sig.dim} blades")
        # blade m holds (-1)^|d & c| j^w at (c ^ f, c) of blade z = w >> 2.
        # Lane position (z n + f) n + c holds blade (f, c, z) or entry
        # (c ^ f, c) of blade z; after the stages it sits at z n + f + c sig.dim / n
        top, fwd, back = sig.dim - 1, ({}, {}), ({}, {})      # real and j parts
        blades, phases = [0] * sig.dim, [0] * sig.dim
        for m, (f, d, w) in images.items():
            z, imag = w >> 2, w & 1
            row = fwd[imag][m] = [((z * top * n + (c ^ f)) * n + c,
                                   1 - (w + 2 * (d & c).bit_count() & 2)) for c in range(n)]
            for idx, v in row:
                back[imag].setdefault(idx, []).append((m, -v if imag else v))
            pos = (z * n + f) * n + d
            blades[pos], phases[pos] = m, w & 3
        self._extraction, self._units = (
            ({(1, imag == 1): rows for imag, rows in enumerate(table) if rows}, den)
            for table, den in ((fwd, 1), (back, n)))
        flats = [(pos // n // n * top * n + (pos ^ pos // n) % n) * n + pos % n
                 for pos in range(sig.dim)]
        order = [h * n + c for c in range(n) for h in range(sig.dim // n)]

        def signs(ws, e):
            """Row s, im: at each lane position the sign of j^(e w) j^(im ^ s),
            from input key j^(im ^ s) to output key j^im, or 0 unless w & 1
            is s."""
            return [[[1 - ((im ^ s) + e * w & 2) if w & 1 == s else 0 for w in ws]
                     for im in (0, 1)] for s in range(1 + any(w & 1 for w in ws))]

        self._lanes = ((flats, [blades[q] for q in order], signs([phases[q] for q in order], -1)),
                       (blades, [flats[q] for q in order], signs(phases, 1)))

    def mv_to_matrix(self, g: Multivector):
        """x_ij = n <E_ji g>_t for each blade t of the centre: an MvMatrix
        in an even algebra, a CentralMatrix in an odd one."""
        if g.sig.squares != self.sig.squares:
            raise SignatureMismatchError("multivector belongs to a different algebra")
        sums, den = self._apply(g.slots, g.den, True)
        if len(_centre(self.sig)) == 1:
            return MvMatrix._of_sums(self.dim, sums, den)
        return CentralMatrix._of_sums(self.dim, sums, den, self.sig)

    def matrix_to_mv(self, mat) -> Multivector:
        """sum x_ij E_ij; a central entry x_ij contributes x_ij E_ij as a
        geometric product, blade by blade."""
        if isinstance(mat, CentralMatrix) and mat._ring() != (CentralMatrix, self.sig.squares):
            raise SignatureMismatchError("matrix entries belong to a different ring")
        if mat.dim != self.dim:
            raise DimensionMismatchError("matrix size does not match basis dimension")
        sums, den = self._apply(mat.slots, mat.den, False)
        return Multivector._of_sums(self.sig, sums, den)

    # -- the Walsh lanes -----------------------------------------------------

    def _apply(self, slots: dict, den: int, forward: bool):
        """apply_slots of the trace table (forward, mv_to_matrix) or the unit
        table (backward, matrix_to_mv), built on the first map, or _walsh for
        a lane longer than the rule at _LANE_OVERHEAD allows, over the same
        dens, 1 forward and n backward; a j-swapped lane of _walsh adds into
        a key the tables also write."""
        if self._extraction is None:
            self._build_extraction()
        limit = (3 * self.sig.dim + _LANE_OVERHEAD) // self.dim
        acc, den = apply_slots({key: s for key, s in slots.items() if len(s) <= limit}, den,
                               self._extraction if forward else self._units)
        lanes = {key: s for key, s in slots.items() if len(s) > limit}
        for key, lane in (self._walsh(lanes, forward) if lanes else {}).items():
            for i, v in acc.get(key, {}).items():
                lane[i] += v
            acc[key] = lane
        return acc, den

    def _walsh(self, slots: dict, forward: bool) -> dict:
        """Lanes of numerators through the log2(n) stages of scalars.walsh:
        forward from blade masks, each times j^w, to flat indices; backward
        from flat indices to blade masks, each times j^-w and n times too
        large.  An odd w swaps the real and j keys, so output key (rad, im)
        reads key (rad, im ^ 1) through the second row of signs, 0 at every
        even w.  Zero sums are kept, for reduce_slots."""
        gather, scatter, signs = self._lanes[forward]
        stages = self.dim.bit_length() - 1
        if not forward:
            slots = {key: walsh(list(map(slot.get, gather, repeat(0))), stages)
                     for key, slot in slots.items()}
        out = {}
        for rad, im in slots if len(signs) == 1 else {(rad, im): 0 for rad, _ in slots
                                                      for im in (False, True)}:
            v = [map(mul, sign[im], map(slots[rad, im != s].get, gather, repeat(0))
                     if forward else slots[rad, im != s])
                 for s, sign in enumerate(signs) if (rad, im != s) in slots]
            v = map(add, *v) if len(v) > 1 else v[0]
            out[rad, im] = dict(zip(scatter, walsh(list(v), stages) if forward else v))
        return out

    def latex(self) -> str:
        return pmatrix(self.E, Multivector.latex)

    def to_json(self) -> dict:
        return {"signature": list(self.sig.squares),
                "dim": self.dim,
                "row_labels": self.row_labels,
                "col_labels": self.col_labels,
                "entries": [[e.to_json() for e in row] for row in self.E]}


def border(rows, center, cols) -> list[list[Multivector]]:
    """The array rows[i] * center * cols[j] through gp, each row product
    rows[i] * center once, in the same left-to-right order as gp_chain: the
    forms the paper borders by hand, and the oracle of SpectralBasis.E."""
    return [[gp(rc, c) for c in cols] for rc in (gp(r, center) for r in rows)]


def spectral_basis_nn(n: int) -> SpectralBasis:
    """Matrix units of g(n,n), bordered from its global Witt pairs."""
    if not 1 <= n <= 4:
        raise RangeError("spectral bases are built for 1 <= n <= 4")
    w = make_global_witt(n)
    return SpectralBasis(w.a, w.b)
