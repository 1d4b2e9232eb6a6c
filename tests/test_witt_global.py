"""Global nilpotent pairs, spectral bases, and the coordinate isomorphism."""

import random
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import bounded_fractions
from wittkit import ga, scalars, witt_global
from wittkit.cli import _basis
from wittkit.dirac import (dirac_frame, dirac_idempotents, dirac_spectral_new,
                           dirac_spectral_standard, pauli_spectral)
from wittkit.errors import (DimensionMismatchError, ExtractorUnavailableError,
                            RangeError, SignatureMismatchError)
from wittkit.ga import Multivector, g3, gp, gp_chain, null_pair, reverse
from wittkit.scalars import Scalar
from wittkit.witt_global import (CentralMatrix, MvMatrix, SpectralBasis, border,
                                 check_duality_relations, make_global_witt,
                                 spectral_basis_nn)
from wittkit.witt_local import make_local_witt

fractions = bounded_fractions(9, 9)

# p + q j + r sqrt(d): rationals, Q(j) and a radical in one coefficient
exact_scalars = st.tuples(fractions, fractions, fractions,
                          st.sampled_from([2, 3, 6])).map(
    lambda t: Scalar.of(t[0]) + Scalar.j(t[1]) + Scalar.sqrt(t[3], t[2]))


def fresh_basis(name):
    """Every basis the CLI converts through, the Pauli basis, and g(1, m-1)
    from its local family as local<m>."""
    if name.startswith("local"):
        return SpectralBasis(*local_pairs(int(name[5:])))
    return pauli_spectral()[0] if name == "pauli" else _basis(name)


@cache
def pair_border(sb):
    """The matrix units of sb through gp alone, the oracle of sb.E: border of
    the subset words in the a's, u = (b_1 a_1)...(b_n a_n) and the reversed
    subset words in the b's."""
    (a, b), one = sb._pairs, Multivector.scalar(sb.sig, 1)
    words = [[i for i in range(len(a)) if s >> i & 1] for s in range(sb.dim)]
    return border([gp_chain([one] + [a[i] for i in w]) for w in words],
                  gp_chain([gp(bi, ai) for ai, bi in zip(a, b)]),
                  [gp_chain([one] + [b[i] for i in reversed(w)]) for w in words])


named_basis = cache(fresh_basis)


def multivectors(sig, coeff=fractions.map(Scalar.of)):
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=sig.dim - 1), coeff),
        max_size=6).map(
        lambda terms: sum((Multivector.blade(sig, m, c) for m, c in terms),
                         Multivector.zero(sig)))


# one ring per drawn multivector: its slot lanes are full (Q and Q(j)) or
# split by radicand into lanes of about a third of the blades
rings = [fractions.map(Scalar.of),
         st.tuples(fractions, fractions).map(lambda t: Scalar.of(t[0]) + Scalar.j(t[1])),
         exact_scalars]


def dense_multivectors(sig):
    """A coefficient drawn for every blade of sig, all from one ring."""
    return st.sampled_from(rings).flatmap(
        lambda coeff: st.lists(coeff, min_size=sig.dim, max_size=sig.dim)).map(
        lambda cs: Multivector(sig, dict(enumerate(cs))))


class TestGlobalPairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_duality_relations(self, n):
        w = make_global_witt(n)
        assert check_duality_relations(w.a, w.b) == []

    def test_half_sum_forms(self):
        w = make_global_witt(2)
        sig = w.sig
        half = Fraction(1, 2)
        e1 = Multivector.generator(sig, 0)
        f1 = Multivector.generator(sig, 1)
        assert w.a[0] == (e1 + f1).scale(half)
        assert w.b[0] == (e1 - f1).scale(half)

    def test_range_guard(self):
        with pytest.raises(RangeError):
            make_global_witt(0)
        with pytest.raises(RangeError):
            make_global_witt(5)

    def test_perturbed_pair_fails_only_nilpotency(self):
        # b1 -> b1 + a1 keeps every cross relation but breaks b1^2 = 0,
        # so the checker has to test nilpotency separately
        w = make_global_witt(1)
        assert check_duality_relations(w.a, [w.b[0] + w.a[0]]) == ["b1^2 = 0"]

    def test_perturbed_pair_fails_only_cross_relation(self):
        # 2 b1 breaks only a1 b1 + b1 a1 = 1; b2 + b1 only a1 b2 anticommute
        w = make_global_witt(2)
        assert check_duality_relations(w.a, [w.b[0].scale(2), w.b[1]]) == \
            ["a1 b1 + b1 a1 = 1"]
        assert check_duality_relations(w.a, [w.b[0], w.b[1] + w.b[0]]) == \
            ["a1 b2 anticommute"]

    def test_incomplete_pair_rejected(self):
        # b2 is missing: an unchecked a2 must not read as dual
        w = make_global_witt(2)
        with pytest.raises(DimensionMismatchError):
            check_duality_relations(w.a, w.b[:1])

    def test_empty_pair_rejected(self):
        with pytest.raises(DimensionMismatchError):
            check_duality_relations([], [])

    def test_pair_products_are_idempotents(self):
        w = make_global_witt(1)
        ab = gp(w.a[0], w.b[0])
        ba = gp(w.b[0], w.a[0])
        one = Multivector.scalar(w.sig, 1)
        assert gp(ab, ab) == ab
        assert gp(ba, ba) == ba
        assert ab + ba == one


class TestSpectralArrays:
    def test_n1_array(self):
        w = make_global_witt(1)
        sb = spectral_basis_nn(1)
        a, b = w.a[0], w.b[0]
        assert sb.E == [[gp(b, a), b], [a, gp(a, b)]]

    def test_n1_coordinates(self):
        w = make_global_witt(1)
        sb = spectral_basis_nn(1)
        a, b = w.a[0], w.b[0]
        assert sb.mv_to_matrix(a) == MvMatrix([[0, 0], [1, 0]])
        assert sb.mv_to_matrix(b) == MvMatrix([[0, 1], [0, 0]])
        assert sb.mv_to_matrix(gp(b, a)) == MvMatrix([[1, 0], [0, 0]])
        assert sb.mv_to_matrix(gp(a, b)) == MvMatrix([[0, 0], [0, 1]])

    def test_n2_array_with_reversed_idempotents(self):
        w = make_global_witt(2)
        sb = spectral_basis_nn(2)
        a1, a2 = w.a
        b1, b2 = w.b
        u1, u2 = gp(b1, a1), gp(b2, a2)
        r1, r2 = reverse(u1), reverse(u2)
        expected = [
            [gp(u1, u2), gp(b1, u2), gp(b2, u1), gp(b2, b1)],
            [gp(a1, u2), gp(r1, u2), gp(a1, b2), -gp(b2, r1)],
            [gp(a2, u1), gp(a2, b1), gp(u1, r2), gp(b1, r2)],
            [gp(a1, a2), -gp(a2, r1), gp(a1, r2), gp(r1, r2)],
        ]
        assert sb.E == expected

    def test_n2_signed_entries(self):
        # the two negative entries come from moving a factor past a nilpotent
        sb = spectral_basis_nn(2)
        w = make_global_witt(2)
        a1, a2 = w.a
        b1, b2 = w.b
        r1 = reverse(gp(b1, a1))
        assert sb.E[1][3] == -gp(b2, r1)
        assert sb.E[3][1] == -gp(a2, r1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_sum(self, n):
        sb = spectral_basis_nn(n)
        assert sb.identity_sum() == Multivector.scalar(sb.sig, 1)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matrix_unit_law_full(self, n):
        assert spectral_basis_nn(n).matrix_unit_law()

    def test_matrix_unit_law_sampled_n3(self):
        sb = spectral_basis_nn(3)
        quads = [(i, j, k, l)
                 for i in (0, 3, 7) for j in (1, 5) for k in (1, 2) for l in (0, 6)]
        assert sb.matrix_unit_law(quads)

    def test_alternative_border(self):
        w = make_global_witt(1)
        one = Multivector.scalar(w.sig, 1)
        e = w.a[0] + w.b[0]
        u_plus = gp(w.b[0], w.a[0])
        u_minus = one - u_plus
        alt = border([one, e], u_plus, [one, e])
        assert alt == [[u_plus, gp(e, u_minus)], [gp(e, u_plus), u_minus]]


# the arrays of the bases as each was bordered by hand before the pairs
# bordered them, and their labels


def reference_subset_basis(n):
    """g(n,n): subset words of the a's against reversed words of the b's."""
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
    return border(rows, center, cols), row_labels, col_labels


def reference_g13new():
    """g(1,3) from a1, b1 = (g0 -+ g3)/2 and a2, b2 = (j g2 +- g1)/2."""
    g0, g1, g2, g3_ = dirac_frame().gammas
    half, jg2 = Fraction(1, 2), g2.scale(Scalar.j())
    a1, b1 = (g0 - g3_).scale(half), (g0 + g3_).scale(half)
    a2, b2 = (jg2 + g1).scale(half), (jg2 - g1).scale(half)
    one = Multivector.scalar(g0.sig, 1)
    return (border([one, a1, a2, gp(a1, a2)], gp(gp(b1, a1), gp(b2, a2)),
                   [one, b1, b2, gp(b2, b1)]),
            ["1", "a1", "a2", "a12"], ["1", "b1", "b2", "b21"])


def reference_pauli():
    """g(3) over its center iota = e123, from a, b = (e1 +- e1 e3)/2."""
    sig = g3()
    e = Multivector.generator(sig, 0)
    f = gp(e, Multivector.generator(sig, 2))
    a, b = (e + f).scale(Fraction(1, 2)), (e - f).scale(Fraction(1, 2))
    one = Multivector.scalar(sig, 1)
    return border([one, a], gp(b, a), [one, b])


def reference_g13_standard():
    """g(1,3) around u_pp = (1 + g0)(1 + j g12)/4, bordered by
    (1, e13, e3, e1) and (1, -e13, e3, e1) with e_k = g_k g0."""
    fr = dirac_frame()
    one = Multivector.scalar(fr.gammas[0].sig, 1)
    e1, _, e3 = fr.rest
    e13 = gp(e1, e3)
    return (border([one, e13, e3, e1], dirac_idempotents(fr).u_pp, [one, -e13, e3, e1]),
            ["1", "e13", "e3", "e1"], ["1", "-e13", "e3", "e1"])


class TestFromPairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_neutral_matches_subset_words(self, n):
        ref, w = reference_subset_basis(n), make_global_witt(n)
        for sb in (spectral_basis_nn(n), SpectralBasis(w.a, w.b)):
            assert (sb.E, sb.row_labels, sb.col_labels) == ref
            assert witt_global._centre(sb.sig) == (0,)

    def test_g13new_matches_hand_bordering(self):
        ref = reference_g13new()
        for sb in (dirac_spectral_new().basis, _basis("g13new")):
            assert (sb.E, sb.row_labels, sb.col_labels) == ref

    def test_pauli_matches_hand_bordering(self):
        ref, (sb, mats) = reference_pauli(), pauli_spectral()
        assert (sb.E, witt_global._centre(sb.sig)) == (ref, (0, 7))
        assert mats == [trace_form(ref, Multivector.generator(sb.sig, k)) for k in range(3)]
        # the labels are the pair words; no output prints them
        assert (sb.row_labels, sb.col_labels) == (["1", "a1"], ["1", "b1"])

    def test_cli_g13_is_the_standard_basis(self):
        # the standard pairs (j g23 +- e13)/2, (e3 +- g3)/2 border the
        # hand-bordered basis around u_pp exactly; only the labels are set
        ref = reference_g13_standard()
        for sb in (_basis("g13"), dirac_spectral_standard()[0]):
            assert (sb.E, sb.row_labels, sb.col_labels) == ref

    @pytest.mark.parametrize("na, nb", [(2, 1), (1, 2), (0, 0)])
    def test_unpaired_families_rejected(self, na, nb):
        w = make_global_witt(2)
        with pytest.raises(DimensionMismatchError):
            SpectralBasis(w.a[:na], w.b[:nb])


def local_pairs(m):
    """Global pairs of g(1, m-1) from its local family c_1..c_m: a_1 = c_1,
    b_1 = c_2, and the C8 pairing null_pair(j f_i, f_(i-1)) for each odd
    frame index i >= 3."""
    w = make_local_witt(m)
    a, b = [w.c[0]], [w.c[1]]
    for i in range(3, m, 2):
        ai, bi = null_pair(Multivector.generator(w.sig, i).scale(Scalar.j()),
                           Multivector.generator(w.sig, i - 1))
        a.append(ai)
        b.append(bi)
    return a, b


class TestLocalBases:
    """g(1, m-1) as matrices from its local family, with no argument but
    the pairs: an odd m has coordinates over the pseudoscalar."""

    @pytest.mark.parametrize("m", range(2, 9))
    def test_certifies_round_trips_and_keeps_products(self, m):
        a, b = local_pairs(m)
        assert check_duality_relations(a, b) == []
        sb = SpectralBasis(a, b)
        assert (1 + m % 2) * sb.dim ** 2 == sb.sig.dim
        gs = [seeded_multivector(sb.sig, seed) for seed in range(4)]
        mats = [sb.mv_to_matrix(g) for g in gs]          # certifies the basis
        assert {type(x) for x in mats} == {CentralMatrix if m % 2 else MvMatrix}
        assert mats[0] == trace_form(pair_border(sb), gs[0])
        for g, x in zip(gs, mats):
            assert sb.matrix_to_mv(x) == g
        for (g, x), (h, y) in zip(zip(gs, mats), zip(gs[1:], mats[1:])):
            assert sb.mv_to_matrix(gp(g, h)) == x.matmul(y)
        rng = random.Random(m)
        assert sb.matrix_unit_law([tuple(rng.randrange(sb.dim) for _ in range(4))
                                   for _ in range(20)])


class TestCentre:
    """The centre the coordinate maps read off the signature, against gp:
    the blades that commute with every generator."""

    @pytest.mark.parametrize("sig", [g3(), *(ga.g_1n(m - 1) for m in range(2, 9))],
                             ids=lambda sig: sig.name)
    def test_only_the_centre_commutes_with_every_generator(self, sig):
        gens = [Multivector.generator(sig, k) for k in range(sig.m)]
        blades = [Multivector.blade(sig, t) for t in range(sig.dim)]
        commuting = tuple(t for t, x in enumerate(blades) if all(gp(x, e) == gp(e, x) for e in gens))
        assert commuting == ((0, sig.dim - 1) if sig.m % 2 else (0,))
        assert witt_global._centre(sig) == commuting


BASES = ["g11", "g22", "g33", "g44", "g13", "g13new", "pauli"]
NN_BASES = ["g11", "g22", "g33", "g44"]


class TestIsomorphism:
    @pytest.mark.parametrize("name", BASES)
    def test_homomorphism(self, name):
        sb = named_basis(name)

        # a g44 example multiplies two 16 x 16 matrices, so it runs half
        # the examples of the smaller sizes
        @settings(max_examples=10 if name == "g44" else 20)
        @given(multivectors(sb.sig, exact_scalars), multivectors(sb.sig, exact_scalars))
        def check(g, h):
            assert sb.mv_to_matrix(gp(g, h)) == \
                sb.mv_to_matrix(g).matmul(sb.mv_to_matrix(h))

        check()

    @pytest.mark.parametrize("name", BASES)
    @given(data=st.data())
    def test_roundtrip(self, name, data):
        # sparse inputs (at most 6 terms) keep g33/g44 cheap per example
        sb = named_basis(name)
        g = data.draw(multivectors(sb.sig, exact_scalars))
        assert sb.matrix_to_mv(sb.mv_to_matrix(g)) == g

    @pytest.mark.parametrize("name", BASES)
    def test_coordinates_match_trace_form(self, name):
        # the cached split table against the defining formula through gp
        sb = named_basis(name)

        @settings(max_examples=10 if name == "g44" else 20)
        @given(multivectors(sb.sig, exact_scalars))
        def check(g):
            assert sb.mv_to_matrix(g) == trace_form(pair_border(sb), g)

        check()

    @pytest.mark.parametrize("name", NN_BASES)
    def test_dense_roundtrip(self, name):
        # every blade set: at g33 and g44, the lanes _walsh takes
        sb = named_basis(name)

        @settings(max_examples=10 if name == "g44" else 20)
        @given(dense_multivectors(sb.sig))
        def check(g):
            assert sb.matrix_to_mv(sb.mv_to_matrix(g)) == g

        check()

    @pytest.mark.parametrize("name", NN_BASES)
    def test_dense_coordinates_match_trace_form(self, name):
        # a dense g44 trace form is 256 products with every blade set
        sb = named_basis(name)

        @settings(max_examples={"g33": 10, "g44": 3}.get(name, 20))
        @given(dense_multivectors(sb.sig))
        def check(g):
            assert sb.mv_to_matrix(g) == trace_form(pair_border(sb), g)

        check()

    def test_central_matrix_needs_a_central_basis(self):
        # g(3) coordinate matrices meet the g(1,1) basis, which has the
        # same size and no central unit
        sb = spectral_basis_nn(1)
        for mat in pauli_spectral()[1]:
            with pytest.raises(SignatureMismatchError, match="different ring"):
                sb.matrix_to_mv(mat)

    def test_central_matrix_of_another_algebra_rejected(self):
        sb = named_basis("pauli")
        sig = ga.Signature((1, 1, -1))
        mat = CentralMatrix([[Multivector.blade(sig, 0b111, 2), Multivector.zero(sig)],
                             [Multivector.zero(sig), Multivector.scalar(sig, 1)]])
        with pytest.raises(SignatureMismatchError, match="different ring"):
            sb.matrix_to_mv(mat)

    def test_scalar_matrix_on_a_central_basis_accepted(self):
        # scalar entries are central, so an MvMatrix still converts
        sb = named_basis("pauli")
        mat = MvMatrix([[Fraction(1, 2), 3], [0, Scalar.sqrt(2)]])
        want = sum((gp(Multivector.scalar(sb.sig, x), e) for row, units in
                    zip(mat.entries, pair_border(sb)) for x, e in zip(row, units)),
                   Multivector.zero(sb.sig))
        assert sb.matrix_to_mv(mat) == want

    def test_radical_coefficients_pass_through(self):
        # basis entries are rational, but inputs may carry radicals
        sb = spectral_basis_nn(1)
        g = Multivector.blade(sb.sig, 0b01, Scalar.sqrt(2))
        assert sb.matrix_to_mv(sb.mv_to_matrix(g)) == g

    def test_signature_mismatch(self):
        sb = spectral_basis_nn(1)
        with pytest.raises(SignatureMismatchError):
            sb.mv_to_matrix(Multivector.generator(g3(), 0))

    def test_borders_from_another_algebra_rejected(self):
        # the constructor computes nothing, so it compares the signatures of
        # the pairs: g(2,2) and g(3,3) in either family or within one
        w2, w3 = make_global_witt(2), make_global_witt(3)
        for a, b in ((w2.a, w3.b[:2]), (w3.a[:2], w2.b), ([w2.a[0], w3.a[1]], w2.b)):
            with pytest.raises(SignatureMismatchError, match="different algebras"):
                SpectralBasis(a, b)

    def test_scalar_maps_to_scaled_identity(self):
        sb = spectral_basis_nn(2)
        g = Multivector.scalar(sb.sig, Fraction(3, 7))
        assert sb.mv_to_matrix(g) == MvMatrix.identity(4).scale(Fraction(3, 7))


def trace_form(units, g):
    """x_ij = n <E_ji g>_0, plus n <E_ji g>_c on the pseudoscalar c of an
    odd algebra, from gp alone, for the matrix units E = units."""
    n, sig = len(units), g.sig
    if sig.m % 2 == 0:
        return MvMatrix([[gp(units[j][i], g).coeff(0) * n for j in range(n)]
                         for i in range(n)])
    c = sig.dim - 1

    def entry(p):
        return Multivector.blade(sig, 0, p.coeff(0) * n) + \
            Multivector.blade(sig, c, p.coeff(c) * n)

    return CentralMatrix([[entry(gp(units[j][i], g)) for j in range(n)]
                          for i in range(n)])


def seeded_multivector(sig, seed):
    """Up to 6 blades with p + q j + r sqrt(d) coefficients, drawn from seed."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    terms = {rng.randrange(sig.dim): Scalar.of(q()) + Scalar.j(q())
             + Scalar.sqrt(rng.choice([2, 3, 6]), q()) for _ in range(rng.randint(1, 6))}
    return Multivector(sig, {m: c for m, c in terms.items() if c})


def reference_extraction(sb):
    """The trace table as it was first built: n <E_ji g>_t as Scalar weights
    sign(a, a ^ t) n E_ji[a] on blade a ^ t, split once by split_map, with E
    from gp (pair_border)."""
    n, table, units = sb.dim, {}, pair_border(sb)
    for t in witt_global._centre(sb.sig):
        for i in range(n):
            for j in range(n):
                for a, c in units[j][i].terms.items():
                    table.setdefault(a ^ t, {})[(t * n + i) * n + j] = \
                        ga.blade_product(a, a ^ t, sb.sig)[0] * n * c
    return scalars.split_map(table)


def reference_units(sb):
    """The unit table as it was first built: the products t E_ij for each
    blade t of the centre, split by split_map at row (t n + i) n + j, with E
    from gp (pair_border)."""
    n = sb.dim
    return scalars.split_map({(t * n + i) * n + j: gp(Multivector.blade(sb.sig, t), u).terms
                              for t in witt_global._centre(sb.sig)
                              for i, row in enumerate(pair_border(sb))
                              for j, u in enumerate(row)})


def sorted_rows(split):
    return {key: {k: sorted(row) for k, row in rows.items()} for key, rows in split.items()}


def dense_multivector(sig, seed):
    """Every blade, with a p + q j + r sqrt(d) coefficient drawn from seed."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return Multivector(sig, {m: Scalar.of(q()) + Scalar.j(q())
                             + Scalar.sqrt(rng.choice([2, 3, 6]), q())
                             for m in range(sig.dim)})


# every basis with coordinate tables: the CLI's, Pauli and g(1, m-1) from its
# local family
TABLE_BASES = BASES + [f"local{m}" for m in range(2, 9)]


def table_basis(name):
    """A fresh basis of TABLE_BASES with both tables built."""
    sb = fresh_basis(name)
    sb._build_extraction()
    return sb


def through(sb, table, value):
    """value's slots through one table alone: a multivector through a trace
    table gives its coordinate matrix, a matrix through a unit table its
    multivector."""
    sums, den = scalars.apply_slots(value.slots, value.den, table)
    if not isinstance(value, Multivector):
        return Multivector._of_sums(sb.sig, sums, den)
    if sb.sig.m % 2:
        return CentralMatrix._of_sums(sb.dim, sums, den, sb.sig)
    return MvMatrix._of_sums(sb.dim, sums, den)


def expansion(sb, mat):
    """sum x_ij E_ij through gp, a scalar entry as a multiple of 1."""
    return sum((gp(x if isinstance(x, Multivector) else Multivector.scalar(sb.sig, x), u)
                for row, units in zip(mat.entries, pair_border(sb)) for x, u in zip(row, units)),
               Multivector.zero(sb.sig))


def refuse_gp_and_scalars(monkeypatch):
    """Patch gp and Scalar arithmetic to raise AssertionError."""
    def refuse(*args):
        raise AssertionError("gp or Scalar arithmetic ran")

    monkeypatch.setattr(ga, "_product", refuse)
    monkeypatch.setattr(witt_global, "gp", refuse)
    for op in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, op, refuse)


class TestTraceTable:
    """Both tables and E, read off the Jordan-Wigner images of the pair
    blades, against the oracles built with gp, on seeded dense inputs."""

    @pytest.mark.parametrize("name", TABLE_BASES)
    def test_E_is_the_gp_border(self, name, monkeypatch):
        # the first read of a fresh basis builds the tables and reads E off
        # the unit table, with gp and Scalar arithmetic refused
        sb = fresh_basis(name)
        want = pair_border(sb)
        refuse_gp_and_scalars(monkeypatch)
        assert sb.E == want

    @pytest.mark.parametrize("name", TABLE_BASES)
    def test_matches_scalar_reference(self, name):
        # the same rows over the same den as the Scalar-weight oracle, so no
        # conversion reduces more
        sb, ref, _ = oracles(name)
        split, den = sb._extraction
        assert den == ref[1]
        assert sorted_rows(split) == sorted_rows(ref[0])
        for seed in range(2):
            g = dense_multivector(sb.sig, seed)
            mat = through(sb, sb._extraction, g)
            assert mat == through(sb, ref, g)
            assert seed or mat == trace_form(pair_border(sb), g)

    @pytest.mark.parametrize("name", TABLE_BASES)
    def test_unit_table_matches_products(self, name):
        # the conjugate transpose over den n against the split products t E_ij
        sb, _, ref = oracles(name)
        split, den = sb._units
        assert den == ref[1]
        assert sorted_rows(split) == sorted_rows(ref[0])
        for seed in range(2):
            g = dense_multivector(sb.sig, seed)
            mat = through(sb, sb._extraction, g)
            assert through(sb, sb._units, mat) == through(sb, ref, mat) == g
            assert seed or expansion(sb, mat) == g


class TestConversionCaches:
    @pytest.mark.parametrize("name", ["g22", "g13", "pauli"])
    def test_reused_basis_matches_fresh(self, name):
        sb = fresh_basis(name)
        for seed in range(20):
            g = seeded_multivector(sb.sig, seed)
            other = fresh_basis(name)
            mat = sb.mv_to_matrix(g)
            assert mat == other.mv_to_matrix(g)
            assert sb.matrix_to_mv(mat) == other.matrix_to_mv(mat) == g

    def test_central_entries_match_products(self):
        # one basis for every seed, so later calls read the cached split
        # of t E_ij; an entry may lack either part or be zero
        sb = fresh_basis("pauli")
        sig, n = sb.sig, sb.dim
        for seed in range(20):
            rng = random.Random(seed)

            def part():
                if rng.random() < 0.25:
                    return Scalar()
                return Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) + \
                    Scalar.sqrt(rng.choice([2, 3, 6]), Fraction(rng.randint(-9, 9), 7))

            mat = CentralMatrix([[Multivector.blade(sig, 0, part())
                                  + Multivector.blade(sig, sig.dim - 1, part())
                                  for _ in range(n)] for _ in range(n)])
            want = sum((gp(e, u) for row, units in zip(mat.entries, pair_border(sb))
                        for e, u in zip(row, units)), Multivector.zero(sig))
            assert sb.matrix_to_mv(mat) == want

    @pytest.mark.parametrize("name", BASES)
    def test_matrix_to_mv_builds_no_trace_table(self, name):
        # the image of each generator converts back through the unit table
        p = named_basis(name)
        images = [p.mv_to_matrix(Multivector.generator(p.sig, k)) for k in range(p.sig.m)]
        for k, mat in enumerate(images):
            assert p.matrix_to_mv(mat) == Multivector.generator(p.sig, k)


def reference_central_matmul(a, b):
    """The product of two square lists of central multivectors, entry by
    entry as sum(map(gp, row, col)): the old CentralMatrix.matmul."""
    cols = list(zip(*b))
    return [[sum(map(gp, row, col)) for col in cols] for row in a]


def central_matrices(n, sig=g3()):
    """n x n matrices over the center span{1, e123} of g(3), each part a
    rational, Q(j) or sqrt(2|3|6) coefficient, or zero."""
    part = st.one_of(st.just(Scalar()), fractions.map(Scalar.of), exact_scalars)
    entry = st.tuples(part, part).map(
        lambda p: Multivector(sig, {m: c for m, c in zip((0, sig.dim - 1), p) if c}))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


class TestCentralMatrix:
    """CentralMatrix stores blade t of entry (i, j) at (t n + i) n + j."""

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(central_matrices(n), central_matrices(n))))
    def test_matmul_matches_entrywise_reference(self, ab):
        a, b = ab
        product = CentralMatrix(a).matmul(CentralMatrix(b))
        want = reference_central_matmul(a, b)
        assert product.entries == want
        assert product == CentralMatrix(want)
        assert product.den > 0 and gcd(product.den, *(
            v for slot in product.slots.values() for v in slot.values())) == 1

    @given(central_matrices(2))
    def test_pauli_round_trip_from_both_sides(self, rows):
        sb = named_basis("pauli")
        mat = CentralMatrix(rows)
        x = sb.matrix_to_mv(mat)
        assert sb.mv_to_matrix(x) == mat
        assert sb.matrix_to_mv(sb.mv_to_matrix(x)) == x

    def test_non_central_entry_rejected(self):
        # matrix_to_mv would drop the e1 part, so the constructor refuses it
        sig, zero = g3(), Multivector.zero(g3())
        with pytest.raises(ValueError, match="pseudoscalar part"):
            CentralMatrix([[Multivector.generator(sig, 0), zero], [zero, zero]])

    def test_entries_of_another_algebra_rejected(self):
        x, y = Multivector.scalar(g3(), 1), Multivector.blade(ga.g13(), 15)
        for rows in ([[x, x], [x, y]], [[y, x], [x, x]]):
            with pytest.raises(SignatureMismatchError, match="different algebras"):
                CentralMatrix(rows)

    def test_top_blade_of_an_even_algebra_rejected(self):
        # e1 f1 anticommutes with e1: g(1,1) has only the scalars as centre
        sig = ga.g_nn(1)
        with pytest.raises(ValueError, match="pseudoscalar part"):
            CentralMatrix([[Multivector.blade(sig, 3)]])
        assert CentralMatrix([[Multivector.scalar(sig, 2)]]).slots == {(1, False): {0: 2}}

    def test_slot_layout(self):
        sig = g3()
        one, iota = Multivector.scalar(sig, 1), Multivector.blade(sig, 7)
        m = CentralMatrix([[one, iota.scale(Fraction(1, 2))],
                           [iota.scale(Scalar.j()), Multivector.zero(sig)]])
        assert (m.dim, m.den) == (2, 2)
        assert m.slots == {(1, False): {0: 2, 7 * 4 + 1: 1}, (1, True): {7 * 4 + 2: 2}}
        assert CentralMatrix._of_sums(2, m.slots, m.den, sig).entries == m.entries
        assert (CentralMatrix([]).dim, CentralMatrix([]).slots) == (0, {})

    def test_never_equals_an_mv_matrix_with_the_same_slots(self):
        mv = MvMatrix([[1, Scalar.j()], [Fraction(1, 3), Scalar.sqrt(2)]])
        central = CentralMatrix._of_sums(2, mv.slots, mv.den, g3())
        assert (central.dim, central.den, central.slots) == (mv.dim, mv.den, mv.slots)
        assert central != mv and mv != central
        assert not central == mv and not mv == central
        assert central.entries[0][1] == Multivector.scalar(g3(), Scalar.j())
        with pytest.raises(TypeError):
            central + mv
        with pytest.raises(SignatureMismatchError):
            central.matmul(mv)
        with pytest.raises(SignatureMismatchError):
            mv.matmul(central)
        # the same slots over another algebra are another matrix too
        other = CentralMatrix._of_sums(2, mv.slots, mv.den, ga.g_nn(1))
        assert other != central
        assert central == CentralMatrix._of_sums(2, mv.slots, mv.den, g3())


def refused(sb, match):
    """Both maps of sb raise ExtractorUnavailableError matching match."""
    one = Multivector.scalar(sb.sig, 1)
    with pytest.raises(ExtractorUnavailableError, match=match):
        sb.mv_to_matrix(one)
    with pytest.raises(ExtractorUnavailableError, match=match):
        sb.matrix_to_mv(MvMatrix.identity(sb.dim))


class TestExtractorGuards:
    """The certificate of the pairs names the rule a basis breaks."""

    def test_radical_basis_entries_rejected(self):
        # sqrt(2) a1 and b1 / sqrt(2) are still dual and border matrix units,
        # but a1 + b1 is no longer a unit times one blade
        w = make_global_witt(1)
        r2 = Scalar.sqrt(2)
        sb = SpectralBasis([w.a[0].scale(r2)], [w.b[0].scale(r2.inv())])
        assert check_duality_relations(sb._pairs[0], sb._pairs[1]) == []
        refused(sb, r"pair 1: a1 \+ b1 is not a unit times one blade")

    def test_dependent_basis_rejected(self):
        # the pair of g(1,1) twice: x1 = x2 = e1 commute, their images do not
        w = make_global_witt(2)
        refused(SpectralBasis([w.a[0]] * 2, [w.b[0]] * 2), "break x1 x2 = x2 x1")

    def test_spanning_non_unit_family_rejected(self):
        # b1 -> -b1 borders -ba, b, -a, ab: they span g(1,1) but are not
        # matrix units.  x1 = a1 - b1 = f1 squares to -1, its image to +1,
        # so E, which is read off the unit table, is refused with the maps
        w = make_global_witt(1)
        sb = SpectralBasis(w.a, [-w.b[0]])
        for read in (lambda: sb.E, sb.matrix_unit_law, sb.to_json):
            with pytest.raises(ExtractorUnavailableError, match=r"break x1\^2 = -1"):
                read()
        refused(sb, r"break x1\^2 = -1")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sign_flipped_b_names_the_relation(self, n):
        w = make_global_witt(n)
        for k in range(n):
            b = [-x if i == k else x for i, x in enumerate(w.b)]
            refused(SpectralBasis(w.a, b), rf"break x{k + 1}\^2 = -1")

    def test_pair_sum_not_one_blade_rejected(self):
        # a1 -> a1 + a2 keeps every a nilpotent, but a1 + b1 = e1 + a2
        w = make_global_witt(2)
        refused(SpectralBasis([w.a[0] + w.a[1], w.a[1]], w.b),
                r"pair 1: a1 \+ b1 is not a unit times one blade")

    def test_count_mismatch_rejected(self):
        # one pair of g(2,2) gives 2 x 2 matrices: its blades reach 4 of 16
        w = make_global_witt(2)
        refused(SpectralBasis(w.a[:1], w.b[:1]),
                "the products of the 2 pair blades reach 4 of the 16 blades")


def reference_matmul(a, b):
    """The product of two square lists of Scalars with Scalar * and +."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Scalar())
             for j in range(len(b))] for row in a]


def square_matrices(n):
    entry = st.one_of(st.just(Scalar()), fractions.map(Scalar.of), exact_scalars)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def assert_canonical(m):
    """m's slots have no zero numerator or empty key, den > 0, and
    gcd(den, every numerator) == 1."""
    assert m.den > 0
    nums = [v for slot in m.slots.values() for v in slot.values()]
    assert all(nums) and all(m.slots.values())
    assert gcd(m.den, *nums) == 1
    assert all(0 <= idx < m.dim * m.dim for slot in m.slots.values() for idx in slot)


def perturbed(a, data):
    """a with up to two entries redrawn, each possibly to its old value."""
    b = [list(row) for row in a]
    n = len(a)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        b[i][j] = data.draw(st.one_of(st.just(a[i][j]), st.just(Scalar()), exact_scalars))
    return b


class TestMvMatrix:
    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(square_matrices(n), square_matrices(n))), st.data())
    def test_matmul_matches_scalar_reference(self, ab, data):
        # the slot product against Scalar * and +, in the canonical form of
        # the matrix built from the reference's entries; == against Scalar
        # row equality on a copy that may differ in up to two entries
        a, b = ab
        product = MvMatrix(a).matmul(MvMatrix(b))
        assert product.entries == reference_matmul(a, b)
        assert_canonical(product)
        want = MvMatrix(reference_matmul(a, b))
        assert (product.den, product.slots) == (want.den, want.slots)
        c = perturbed(a, data)
        assert (MvMatrix(a) == MvMatrix(c)) == (a == c)
        assert (MvMatrix(a) != MvMatrix(c)) == (a != c)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(square_matrices(n), square_matrices(n))), st.data())
    def test_add_and_scale_match_scalar_reference(self, ab, data):
        # + and scale on slots against Scalar + and * entry by entry, in the
        # canonical form of the matrix built from the reference's entries;
        # b may be -a or a minus up to two entries, so sums can cancel
        a, b = ab
        b = data.draw(st.sampled_from([b, [[-e for e in row] for row in a],
                                       [[-e for e in row] for row in perturbed(a, data)]]))
        s = data.draw(st.one_of(st.integers(-3, 3), fractions, exact_scalars))
        for got, want in ((MvMatrix(a) + MvMatrix(b),
                           [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]),
                          (MvMatrix(a).scale(s), [[x * s for x in row] for row in a])):
            assert got.entries == want
            assert_canonical(got)
            want = MvMatrix(want)
            assert (got.den, got.slots) == (want.den, want.slots)

    def test_inexact_entries_rejected(self):
        # a float would enter as its binary expansion, a string would be parsed
        with pytest.raises(TypeError):
            MvMatrix([[0.5]])
        with pytest.raises(TypeError):
            MvMatrix([[1, "1/2"], [0, 1]])

    def test_identity_and_matmul(self):
        m = MvMatrix([[1, 2], [3, 4]])
        assert m.matmul(MvMatrix.identity(2)) == m

    def test_transpose(self):
        m = MvMatrix([[1, 2], [3, 4]])
        assert m.transpose() == MvMatrix([[1, 3], [2, 4]])

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=4).flatmap(square_matrices))
    def test_transpose_on_slots_matches_entries(self, a):
        # index i n + j moved to j n + i, against the transpose of the entries
        got = MvMatrix(a).transpose()
        assert got._entries is None                     # no entry was built
        want = MvMatrix([list(col) for col in zip(*a)])
        assert (got.dim, got.den, got.slots) == (want.dim, want.den, want.slots)
        assert got.entries == want.entries

    def test_add_scale(self):
        m = MvMatrix([[1, 0], [0, 1]])
        assert m + m == m.scale(2)

    def test_json_roundtrip(self):
        m = MvMatrix([[Scalar.j(), 0], [Scalar.sqrt(3), 1]])
        assert MvMatrix.from_json(m.to_json()) == m

    def test_from_json_shape_guard(self):
        with pytest.raises(ValueError):
            MvMatrix.from_json({"dim": 2, "entries": [[]]})


PLAIN_BASES = ["g11", "g22", "g33", "g44", "g13", "g13new"]


class TestSlotForm:
    """MvMatrix keeps one canonical integer-slot form: zeros dropped,
    den > 0, gcd(den, every numerator) == 1."""

    @pytest.mark.parametrize("name", PLAIN_BASES)
    def test_entries_and_mv_to_matrix_agree(self, name):
        sb = named_basis(name)
        for seed in range(10):
            mat = sb.mv_to_matrix(seeded_multivector(sb.sig, seed))
            assert_canonical(mat)
            again = MvMatrix(mat.entries)
            assert_canonical(again)
            assert again == mat
            assert (again.den, again.slots) == (mat.den, mat.slots)

    @pytest.mark.parametrize("name", PLAIN_BASES)
    def test_json_matches_entry_rendering(self, name):
        # to_json renders from the slots, a zero entry as []; each entry's
        # Scalar.to_json is the reference
        sb = named_basis(name)
        for seed in range(5):
            mat = sb.mv_to_matrix(seeded_multivector(sb.sig, seed))
            want = {"dim": mat.dim, "entries": [[e.to_json() for e in row]
                                                for row in MvMatrix(mat.entries).entries]}
            assert mat.to_json() == want
            assert MvMatrix.from_json(want) == mat

    def test_scaled_representation_reduces(self):
        sb = named_basis("g22")
        mat = sb.mv_to_matrix(seeded_multivector(sb.sig, 3))
        assert mat.den > 1
        tripled = {key: {idx: 3 * v for idx, v in slot.items()}
                   for key, slot in mat.slots.items()}
        tripled[(3, True)] = {0: 0}         # a zero sum is dropped too
        again = MvMatrix._of_sums(mat.dim, tripled, 3 * mat.den)
        assert_canonical(again)
        assert again == mat
        assert (again.den, again.slots) == (mat.den, mat.slots)
        assert again.entries == mat.entries

    def test_zero_matrix(self):
        sb = named_basis("g22")
        zero = MvMatrix([[0] * 4 for _ in range(4)])
        assert (zero.den, zero.slots) == (1, {})
        assert zero == sb.mv_to_matrix(Multivector.zero(sb.sig))
        assert zero == MvMatrix._of_sums(4, {(1, False): {0: 0, 5: 0}, (2, True): {}}, 6)
        assert zero == MvMatrix.identity(4).scale(0)
        assert zero.matmul(MvMatrix.identity(4)) == zero
        assert zero.entries == [[Scalar()] * 4 for _ in range(4)]
        assert sb.matrix_to_mv(zero) == Multivector.zero(sb.sig)

    def test_int_fraction_and_scalar_entries(self):
        m = MvMatrix([[1, Fraction(-1, 2)],
                      [Scalar.j(Fraction(2, 3)), Scalar.sqrt(8, Fraction(5, 4))]])
        assert_canonical(m)
        assert m.den == 6
        assert m.slots == {(1, False): {0: 6, 1: -3}, (1, True): {2: 4},
                           (2, False): {3: 15}}
        assert m == MvMatrix([[Scalar.of(1), Scalar.rational(-2, 4)],
                              [Scalar.j(Fraction(4, 6)), Scalar.sqrt(2, Fraction(5, 2))]])
        assert m != MvMatrix([[1, Fraction(-1, 2)], [Scalar.j(Fraction(2, 3)), 0]])
        assert MvMatrix([[3, 6], [9, 12]]).den == 1
        assert MvMatrix([[Fraction(1, 3), 0], [0, Fraction(2, 3)]]).slots == \
            {(1, False): {0: 1, 3: 2}}

    def test_entries_built_once_and_cached(self, monkeypatch):
        sb = named_basis("g33")
        mat = sb.mv_to_matrix(seeded_multivector(sb.sig, 7))
        calls = []

        def counted(acc, den):
            calls.append(1)
            return scalars.join_slots(acc, den)

        monkeypatch.setattr(witt_global, "join_slots", counted)
        rows = mat.entries
        assert mat.entries is rows
        assert len(calls) == 1
        assert MvMatrix(rows) == mat
        with pytest.raises(AttributeError):
            mat.entries = rows

    @pytest.mark.parametrize("name", PLAIN_BASES)
    def test_matrix_to_mv_reads_slots_without_splitting(self, name, monkeypatch):
        # both maps and == run on the stored slots: no split, no join
        sb = named_basis(name)
        gs = [seeded_multivector(sb.sig, seed) for seed in range(5)]
        sb.matrix_to_mv(sb.mv_to_matrix(gs[0]))   # the units are split on first use

        def refuse(*args):
            raise AssertionError("the slots were split or joined")

        for module in (scalars, ga, witt_global):
            monkeypatch.setattr(module, "split_slots", refuse)
            monkeypatch.setattr(module, "join_slots", refuse)
        for g in gs:
            assert sb.matrix_to_mv(sb.mv_to_matrix(g)) == g
        with pytest.raises(AssertionError, match="split or joined"):
            Multivector(sb.sig, gs[0].terms)      # the patch is live


KEY = (1, False)                        # the lane of rational numerators


@cache
def e_derived(n):
    """g(n,n) bordered from its Witt pairs, with both tables derived through
    gp (reference_extraction and reference_units): the oracle of
    the Walsh lanes and the tables.  Only lanes the tables take may reach
    it, since it has no lanes of its own."""
    w = make_global_witt(n)
    ref = SpectralBasis(w.a, w.b)
    ref._extraction, ref._units = reference_extraction(ref), reference_units(ref)
    return ref


@cache
def oracles(name):
    """A basis of TABLE_BASES, certified, and the trace and unit tables
    built with gp from its pairs (pair_border).  Tests that patch a basis
    border a fresh one from its pairs."""
    sb = table_basis(name)
    return sb, reference_extraction(sb), reference_units(sb)


def cached_rows(sb, forward):
    """The rows of sb's trace table (forward) or unit table, sorted."""
    rows, den = sb._extraction if forward else sb._units
    return {k: sorted(row) for k, row in rows[KEY].items()}, den


def all_on_walsh(sb, monkeypatch):
    """Patch the cost rule away on sb: every lane takes _walsh."""
    sb._build_extraction()

    def apply(slots, den, forward):
        return sb._walsh(slots, forward), den if forward else den * sb.dim

    monkeypatch.setattr(sb, "_apply", apply)


def spy_lanes(monkeypatch):
    """The lanes given to SpectralBasis._walsh from now on, as (forward,
    nnz)."""
    lanes, run = [], SpectralBasis._walsh

    def spy(self, slots, forward):
        lanes.extend((forward, len(s)) for s in slots.values())
        return run(self, slots, forward)

    monkeypatch.setattr(SpectralBasis, "_walsh", spy)
    return lanes


def nonzero(sums):
    """Integer sums {key: {index: numerator}} as sorted rows, zeros and
    empty keys dropped."""
    return {key: sorted((i, v) for i, v in out.items() if v)
            for key, out in sums.items() if any(out.values())}


def pauli_matrix(n, f, d, w):
    """j^(w & 3) iota^(w >> 2) X^f Z^d as a dense n x n matrix, from the
    definition: entry (c ^ f, c) is (-1)^|d & c| j^w, every other entry 0.
    An entry is the pair (scalar part, iota part) of complex ints."""
    m = [[(0, 0)] * n for _ in range(n)]
    for c in range(n):
        v = (-1) ** (d & c).bit_count() * (1, 1j, -1, -1j)[w & 3]
        m[c ^ f][c] = (0, v) if w & 4 else (v, 0)
    return m


def dense_product(x, y):
    """x y for dense matrices of pauli_matrix entries, iota in at most one."""
    n = len(x)
    return [[(sum(x[r][k][0] * y[k][c][0] for k in range(n)),
              sum(x[r][k][0] * y[k][c][1] + x[r][k][1] * y[k][c][0] for k in range(n)))
             for c in range(n)] for r in range(n)]


class TestPauliProduct:
    @pytest.mark.parametrize("n", [2, 4])
    def test_times_is_the_matrix_product(self, n):
        # every (f, d, w) pair, the iota bit on at most one factor, both flips
        strings = [(f, d, w) for f in range(n) for d in range(n) for w in range(8)]
        dense = {x: pauli_matrix(n, *x) for x in strings}
        for x in strings:
            for y in strings:
                if x[2] & y[2] & 4:
                    continue
                want = dense_product(dense[x], dense[y])
                got, negated = witt_global._times(x, y), witt_global._times(x, y, 2)
                assert dense[got] == want, (x, y)
                assert dense[negated] == [[(-a, -b) for a, b in row] for row in want], (x, y)


class TestButterfly:
    """The Walsh lanes of every pair basis and the tables of its pairs
    against the tables derived from E, their oracle."""

    @pytest.mark.parametrize("name", TABLE_BASES)
    def test_images_are_pauli_strings(self, name):
        # the image of each blade, through the trace table derived from E,
        # is j^w iota^z X^f Z^d at every column, and (f, d, z) is the lane
        # position that holds the blade: each (f, d) once in an even
        # algebra and twice, told apart by z, in an odd one
        sb, ref, _ = oracles(name)
        n, positions = sb.dim, {}
        for m in range(sb.sig.dim):
            image = {}
            for (_, imag), slot in through(sb, ref, Multivector.blade(sb.sig, m)).slots.items():
                for idx, v in slot.items():
                    assert v in (1, -1) and idx % n not in image
                    image[idx % n] = idx // n % n, idx // n // n > 0, imag + 1 - v
            f, z, w = image[0]
            d = sum(1 << k for k in range(n.bit_length() - 1) if image[1 << k][2] != w)
            assert image == {c: (c ^ f, z, w ^ 2 * ((d & c).bit_count() & 1))
                             for c in range(n)}, m
            positions[(z * n + f) * n + d] = m
        assert len(positions) == sb.sig.dim
        assert sb._lanes[True][0] == [positions[p] for p in range(sb.sig.dim)]

    @pytest.mark.parametrize("name", TABLE_BASES)
    def test_forced_walsh_matches_oracles(self, name, monkeypatch):
        # sparse and dense inputs, every lane on the stages, against the
        # tables derived from E
        ref, fwd, back = oracles(name)
        sb = SpectralBasis(*ref._pairs)
        all_on_walsh(sb, monkeypatch)
        for g in [seeded_multivector(sb.sig, seed) for seed in range(5)] + \
                [dense_multivector(sb.sig, seed) for seed in range(2)]:
            mat = through(ref, fwd, g)
            assert sb.mv_to_matrix(g) == mat
            assert sb.matrix_to_mv(mat) == through(ref, back, mat) == g

    @pytest.mark.parametrize("name", TABLE_BASES)
    def test_table_rows_are_walsh_images(self, name):
        # every row of both tables is the image of its unit lane through
        # _walsh, zeros dropped, over the same den
        sb = table_basis(name)
        for forward, lanes in ((True, range(sb.sig.dim)), (False, sb._lanes[False][0])):
            rows, den = sb._extraction if forward else sb._units
            assert den == (1 if forward else sb.dim)
            for k in lanes:
                assert nonzero(sb._walsh({KEY: {k: 1}}, forward)) == \
                    {key: sorted(r[k]) for key, r in rows.items() if k in r}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_blade_through_both_forward_paths(self, n):
        # one blade at a time, each a lane the table takes: the trace table
        # of the pairs holds the rows of the one derived from E
        sb, ref = spectral_basis_nn(n), e_derived(n)
        for m in range(sb.sig.dim):
            want = ref.mv_to_matrix(Multivector.blade(sb.sig, m))
            assert sb.mv_to_matrix(Multivector.blade(sb.sig, m)) == want
            fly = MvMatrix._of_sums(sb.dim, sb._walsh({KEY: {m: 1}}, True), 1)
            assert fly == want
        assert cached_rows(sb, True) == cached_rows(ref, True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_matrix_unit_through_both_backward_paths(self, n):
        sb, ref, size = spectral_basis_nn(n), e_derived(n), 1 << n
        for i in range(size):
            for j in range(size):
                unit = {KEY: {i * size + j: 1}}
                want = pair_border(ref)[i][j]
                assert sb.matrix_to_mv(MvMatrix._of_sums(size, unit, 1)) == want
                fly = Multivector._of_sums(sb.sig, sb._walsh(unit, False), size)
                assert fly == want
        assert cached_rows(sb, False) == cached_rows(ref, False)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forced_butterfly_matches_tables_on_seeded_inputs(self, n, monkeypatch):
        # sparse and dense inputs, with the cost rule patched away, against
        # the tables of the same pairs alone
        ref = spectral_basis_nn(n)
        ref._build_extraction()
        gs = [seeded_multivector(ref.sig, seed) for seed in range(5)] + \
            [dense_multivector(ref.sig, seed) for seed in range(2)]
        want = [(through(ref, ref._extraction, g), g) for g in gs]
        sb = spectral_basis_nn(n)
        all_on_walsh(sb, monkeypatch)
        for mat, g in want:
            assert sb.mv_to_matrix(g) == mat
            assert sb.matrix_to_mv(mat) == through(ref, ref._units, mat) == g

    def test_rows_cached_only_when_read(self, monkeypatch):
        # a fresh basis caches nothing; the first conversion, a dense g44
        # one whose lanes all take _walsh, builds both tables in full and
        # the lanes, and later conversions keep the same ones.  A fresh
        # basis whose first read is E builds them once too
        sb = spectral_basis_nn(4)
        assert (sb._extraction, sb._units, sb._lanes) == (None, None, None)
        g = Multivector(sb.sig, {m: Scalar.of(Fraction(m * m % 11 + 1, 3))
                                 for m in range(256)})
        mat = sb.mv_to_matrix(g)
        assert len(mat.slots[KEY]) > 49
        cached = sb._extraction, sb._units, sb._lanes
        assert [len(cached_rows(sb, forward)[0]) for forward in (True, False)] == [256, 256]
        assert sb.matrix_to_mv(mat) == g
        h = seeded_multivector(sb.sig, 0)
        assert sb.mv_to_matrix(h) == e_derived(4).mv_to_matrix(h)
        assert sb.matrix_to_mv(sb.mv_to_matrix(h)) == h
        assert all(now is then for now, then in
                   zip((sb._extraction, sb._units, sb._lanes), cached))
        built, build = [], SpectralBasis._build_extraction
        monkeypatch.setattr(SpectralBasis, "_build_extraction",
                            lambda sb: built.append(sb) or build(sb))
        sb = spectral_basis_nn(4)
        assert sb.E == pair_border(e_derived(4)) and built == [sb]
        cached = sb._extraction, sb._units, sb._lanes
        assert sb.mv_to_matrix(g) == mat and sb.matrix_to_mv(mat) == g
        assert sb.mv_to_matrix(h) == e_derived(4).mv_to_matrix(h)
        assert built == [sb] and all(now is then for now, then in
                                     zip((sb._extraction, sb._units, sb._lanes), cached))

    def test_plan_built_once(self, monkeypatch):
        # the first conversion of either kind, a dense g44 one on the stages
        # or a sparse one on the tables, either way, certifies the pairs and
        # builds the tables and the lanes once; later conversions never do
        built, build = [], SpectralBasis._build_extraction
        monkeypatch.setattr(SpectralBasis, "_build_extraction",
                            lambda sb: built.append(sb) or build(sb))
        ref, fwd, _ = oracles("g44")
        gs = [dense_multivector(ref.sig, 0), seeded_multivector(ref.sig, 0)]
        mats = [through(ref, fwd, g) for g in gs]
        for g, mat in zip(gs, mats):
            for forward in (True, False):
                built.clear()
                sb = spectral_basis_nn(4)
                assert (sb.mv_to_matrix(g) if forward else sb.matrix_to_mv(mat)) == \
                    (mat if forward else g)
                assert built == [sb]
                for h, other in zip(gs, mats):
                    assert sb.mv_to_matrix(h) == other and sb.matrix_to_mv(other) == h
                assert built == [sb]

    def test_maps_call_no_gp_and_build_no_E(self, monkeypatch):
        # every pair basis, fresh, through both maps: the certificate and
        # both tables, sparse lanes on the tables and dense lanes past the
        # cost rule on _walsh, with gp and Scalar arithmetic refused
        bases = {name: table_basis(name) for name in TABLE_BASES}
        cases = {name: [(ref.mv_to_matrix(g), g) for g in
                        [seeded_multivector(ref.sig, seed) for seed in range(3)]
                        + [dense_multivector(ref.sig, 0)]] for name, ref in bases.items()}
        fresh = {name: SpectralBasis(*ref._pairs) for name, ref in bases.items()}
        refuse_gp_and_scalars(monkeypatch)
        for name, sb in fresh.items():
            for mat, g in cases[name]:
                assert sb.mv_to_matrix(g) == mat
                assert sb.matrix_to_mv(mat) == g
            assert "E" not in vars(sb) and sb._units is not None
        with pytest.raises(AssertionError, match="gp or"):
            border([g], g, [g])                         # the patch is live

    def test_cost_rule_picks_each_lane(self, monkeypatch):
        # g33, where a lane moves at more than 26 nonzeros: a full rational
        # lane and a sqrt(2) lane of 3 blades, whose image has 3 * 2**3; and
        # g44, where it moves at more than 49: the images of 4 and of 3
        # blades of grade 1, 64 and 48 nonzeros, whose forward lanes stay
        sb = spectral_basis_nn(3)
        g = Multivector(sb.sig, {m: Scalar.of(Fraction(m * m % 11 + 1, 3))
                                 for m in range(64)}) + \
            Multivector(sb.sig, {m: Scalar.sqrt(2, m - 2) for m in (1, 6, 40)})
        mat = sb.mv_to_matrix(g)
        assert mat == trace_form(pair_border(sb), g)
        assert sb.matrix_to_mv(mat) == g
        assert len(mat.slots[(2, False)]) == 24 and len(mat.slots[KEY]) > 26
        lanes = spy_lanes(monkeypatch)
        assert sb.matrix_to_mv(sb.mv_to_matrix(g)) == g
        assert lanes == [(True, 64), (False, len(mat.slots[KEY]))]
        sb = spectral_basis_nn(4)
        lanes.clear()
        for blades in ((1, 4, 16, 64), (1, 4, 16)):
            g = Multivector(sb.sig, {m: Scalar.of(m) for m in blades})
            assert sb.matrix_to_mv(sb.mv_to_matrix(g)) == g
        assert lanes == [(False, 64)]

    @pytest.mark.parametrize("name", ["local5", "local8"])
    def test_j_swapped_lanes_join_the_tables(self, name, monkeypatch):
        # odd w: a full rational lane on the stages fills the j key too,
        # where a j lane of 3 numerators on the tables adds to it, both ways
        ref, fwd, back = oracles(name)
        sb, flats = SpectralBasis(*ref._pairs), ref._lanes[False][0]
        g = Multivector._of_sums(sb.sig, {KEY: {m: m % 7 + 1 for m in range(sb.sig.dim)},
                                          (1, True): {1: 2, 2: -1, 5: 3}}, 1)
        sums = {KEY: {i: i % 5 + 1 for i in flats}, (1, True): {i: 2 for i in flats[:3]}}
        mat = (CentralMatrix._of_sums(sb.dim, sums, 1, sb.sig) if sb.sig.m % 2
               else MvMatrix._of_sums(sb.dim, sums, 1))
        lanes = spy_lanes(monkeypatch)
        assert sb.mv_to_matrix(g) == through(ref, fwd, g)
        assert sb.matrix_to_mv(mat) == through(ref, back, mat)
        assert lanes == [(True, sb.sig.dim), (False, sb.sig.dim)]

    @pytest.mark.parametrize("n, most", [(3, 26), (4, 49)])
    def test_lane_moves_past_the_break_even(self, n, most, monkeypatch):
        # nnz 2**n multiply-adds against 3 per lane position plus the
        # overhead
        sb = spectral_basis_nn(n)
        gs = [Multivector(sb.sig, {m: Scalar.of(m + 1) for m in range(nnz)})
              for nnz in (most, most + 1)]
        lanes = spy_lanes(monkeypatch)
        for g in gs:
            assert sb.mv_to_matrix(g) == trace_form(pair_border(sb), g)
        assert lanes == [(True, most + 1)]

    @pytest.mark.parametrize("name", ["g11", "g22", "g13", "g13new", "pauli"])
    def test_sparse_inputs_and_other_bases_stay_on_the_tables(self, name, monkeypatch):
        # no lane of these bases has more nonzeros than the cost rule allows
        def refuse(self, slots, forward):
            raise AssertionError("_walsh ran on a lane")

        sb = fresh_basis(name)
        monkeypatch.setattr(SpectralBasis, "_walsh", refuse)
        gs = [seeded_multivector(sb.sig, seed) for seed in range(5)] + \
            [dense_multivector(sb.sig, seed) for seed in range(2)]
        for g in gs:
            assert sb.matrix_to_mv(sb.mv_to_matrix(g)) == g
        assert sb._lanes is not None
