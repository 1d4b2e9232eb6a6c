"""Spacetime algebra representations: idempotents, coordinate matrices, Pauli."""

from fractions import Fraction

from hypothesis import given, strategies as st

from tests.conftest import bounded_fractions
from wittkit.dirac import (dirac_frame, dirac_idempotents,
                           dirac_spectral_new, dirac_spectral_standard,
                           g11_embedding_check, gamma_anticommutation_check,
                           idempotent_orders_agree, intertwining_relations,
                           new_border_form, new_rep_extra_matrices,
                           new_witt_pair,
                           pauli_impostor_check, pauli_spectral,
                           pseudoscalar_anticommutes)
from wittkit.ga import Multivector, g3, g13, gp, gp_chain
from wittkit.scalars import Scalar
from wittkit.witt_global import CentralMatrix, MvMatrix, check_duality_relations

J = Scalar.j()
HALF = Fraction(1, 2)

fractions = bounded_fractions(4, 4)


def complex_mvs(sig):
    coeff = st.tuples(fractions, fractions).map(
        lambda t: Scalar.of(t[0]) + Scalar.j(t[1]))
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=sig.dim - 1), coeff),
        max_size=5).map(
        lambda terms: sum((Multivector.blade(sig, m, c) for m, c in terms),
                         Multivector.zero(sig)))


class TestIdempotents:
    def test_factor_orders_agree(self):
        assert idempotent_orders_agree(dirac_frame())

    def test_partition_of_unity(self):
        u = dirac_idempotents(dirac_frame())
        sig = u.u_pp.sig
        assert sum(u.all(), Multivector.zero(sig)) == \
            Multivector.scalar(sig, 1)

    def test_squares(self):
        u = dirac_idempotents(dirac_frame())
        for x in u.all():
            assert gp(x, x) == x

    def test_mutual_annihilation(self):
        us = dirac_idempotents(dirac_frame()).all()
        zero = Multivector.zero(us[0].sig)
        for i, x in enumerate(us):
            for k, y in enumerate(us):
                if i != k:
                    assert gp(x, y) == zero

    def test_u_pp_closed_form(self):
        fr = dirac_frame()
        u = dirac_idempotents(fr)
        sig = fr.gammas[0].sig
        one = Multivector.scalar(sig, 1)
        g0 = fr.gammas[0]
        g12 = gp(fr.gammas[1], fr.gammas[2])
        want = gp((one + g0).scale(HALF),
                  (one + g12.scale(J)).scale(HALF))
        assert u.u_pp == want

    def test_intertwining(self):
        assert intertwining_relations(dirac_frame()) == []

    def test_pseudoscalar_anticommutes(self):
        assert pseudoscalar_anticommutes(dirac_frame())


_STD_GAMMA = [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    [[0, 0, 0, J], [0, 0, -J, 0], [0, -J, 0, 0], [J, 0, 0, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
]

_STD_E = [
    [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    [[0, 0, 0, -J], [0, 0, J, 0], [0, -J, 0, 0], [J, 0, 0, 0]],
    [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
]


class TestStandardRepresentation:
    def test_gamma_matrices(self):
        _, mats = dirac_spectral_standard()
        for mu in range(4):
            assert mats[mu] == MvMatrix(_STD_GAMMA[mu])

    def test_rest_frame_matrices(self):
        sb, mats = dirac_spectral_standard()
        fr = dirac_frame()
        for k in range(3):
            got = sb.mv_to_matrix(fr.rest[k])
            assert got == MvMatrix(_STD_E[k])
            assert got == mats[k + 1].matmul(mats[0])

    def test_pseudoscalar_matrix_is_not_j_identity(self):
        sb, _ = dirac_spectral_standard()
        fr = dirac_frame()
        got = sb.mv_to_matrix(fr.pseudoscalar)
        want = MvMatrix([[0, 0, J, 0], [0, 0, 0, J],
                         [J, 0, 0, 0], [0, J, 0, 0]])
        assert got == want
        assert got != MvMatrix.identity(4).scale(J)

    def test_bordered_array(self):
        sb, _ = dirac_spectral_standard()
        fr = dirac_frame()
        u = dirac_idempotents(fr)
        e1, _, e3 = fr.rest
        e13 = gp(e1, e3)
        us = [u.u_pp, u.u_pm, u.u_mp, u.u_mm]
        expected = [
            [us[0], -gp(e13, us[1]), gp(e3, us[2]), gp(e1, us[3])],
            [gp(e13, us[0]), us[1], gp(e1, us[2]), -gp(e3, us[3])],
            [gp(e3, us[0]), gp(e1, us[1]), us[2], -gp(e13, us[3])],
            [gp(e1, us[0]), -gp(e3, us[1]), gp(e13, us[2]), us[3]],
        ]
        assert sb.E == expected

    def test_anticommutation_table(self):
        _, mats = dirac_spectral_standard()
        assert gamma_anticommutation_check(dirac_frame().gammas, mats) == []

    def test_anticommutation_failures_named(self):
        # [g1] + [g0] squares to 0 and anticommutes with [g0] to 2; j [g1]
        # squares to +1 and still anticommutes with every other [g]
        _, mats = dirac_spectral_standard()
        gammas = dirac_frame().gammas
        assert gamma_anticommutation_check(
            gammas, [mats[0], mats[1] + mats[0], *mats[2:]]) == \
            ["[g0] [g1] anticommute", "[g1]^2 = -1"]
        assert gamma_anticommutation_check(
            gammas, [mats[0], mats[1].scale(J), *mats[2:]]) == ["[g1]^2 = -1"]
        assert gamma_anticommutation_check(
            [gammas[0], gammas[1].scale(J), *gammas[2:]], mats) == ["g1^2 = -1"]

    @given(complex_mvs(g13()), complex_mvs(g13()))
    def test_homomorphism(self, g, h):
        sb, _ = dirac_spectral_standard()
        assert sb.mv_to_matrix(gp(g, h)) == \
            sb.mv_to_matrix(g).matmul(sb.mv_to_matrix(h))


_NEW_GAMMA = [
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, -J, 0], [0, 0, 0, J], [-J, 0, 0, 0], [0, J, 0, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
]


class TestNewRepresentation:
    def test_pair_duality(self):
        _, a, b = new_witt_pair(dirac_frame())
        assert check_duality_relations(a, b) == []

    def test_pair_closed_forms(self):
        fr = dirac_frame()
        _, a, b = new_witt_pair(fr)
        g0, g1, g2, g3_ = fr.gammas
        assert a[0] == (g0 - g3_).scale(HALF)
        assert a[1] == (g2.scale(J) + g1).scale(HALF)
        assert b[0] == (g0 + g3_).scale(HALF)
        assert b[1] == (g2.scale(J) - g1).scale(HALF)

    def test_center_idempotent_forms(self):
        nd = dirac_spectral_new()
        fr = nd.frame
        sig = fr.gammas[0].sig
        one = Multivector.scalar(sig, 1)
        e3 = fr.rest[2]
        assert nd.u1 == (one + e3).scale(HALF)
        g12 = gp(fr.gammas[1], fr.gammas[2])
        assert nd.u2 == (one - g12.scale(J)).scale(HALF)
        # same idempotent via the pseudoscalar: u2 = (1 + j i e3)/2
        assert nd.u2 == \
            (one + gp(fr.pseudoscalar, e3).scale(J)).scale(HALF)

    def test_gamma_matrices_including_computed_gamma3(self):
        nd = dirac_spectral_new()
        for mu in range(4):
            assert nd.gamma_mats[mu] == MvMatrix(_NEW_GAMMA[mu])

    def test_gamma3_blocks(self):
        # two diagonal copies of the negated antisymmetric 2x2 unit
        nd = dirac_spectral_new()
        m = nd.gamma_mats[3]
        blk = [[0, 1], [-1, 0]]
        for i in range(2):
            for j in range(2):
                assert m.entries[i][j] == MvMatrix(blk).entries[i][j]
                assert m.entries[2 + i][2 + j] == MvMatrix(blk).entries[i][j]
                assert m.entries[i][2 + j].is_zero()
                assert m.entries[2 + i][j].is_zero()

    def test_border_forms_agree(self):
        nd = dirac_spectral_new()
        assert new_border_form(nd) == nd.basis.E

    def test_pair_matrices_transpose_related(self):
        extra = new_rep_extra_matrices(dirac_spectral_new())
        want_a1 = MvMatrix([[0, 0, 0, 0], [1, 0, 0, 0],
                            [0, 0, 0, 0], [0, 0, 1, 0]])
        want_a2 = MvMatrix([[0, 0, 0, 0], [0, 0, 0, 0],
                            [1, 0, 0, 0], [0, -1, 0, 0]])
        assert extra["a1"] == want_a1
        assert extra["a2"] == want_a2
        assert extra["b1"] == want_a1.transpose()
        assert extra["b2"] == want_a2.transpose()

    def test_rest_frame_matrices(self):
        extra = new_rep_extra_matrices(dirac_spectral_new())
        assert extra["e3"] == MvMatrix([[1, 0, 0, 0], [0, -1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, -1]])
        assert extra["e1"] == MvMatrix([[0, 0, 0, -1], [0, 0, 1, 0],
                                        [0, 1, 0, 0], [-1, 0, 0, 0]])
        assert extra["e2"] == MvMatrix([[0, 0, 0, -J], [0, 0, J, 0],
                                        [0, -J, 0, 0], [J, 0, 0, 0]])

    def test_anticommutation_table(self):
        d = dirac_spectral_new()
        assert gamma_anticommutation_check(d.frame.gammas, d.gamma_mats) == []

    @given(complex_mvs(g13()), complex_mvs(g13()))
    def test_homomorphism(self, g, h):
        sb = dirac_spectral_new().basis
        assert sb.mv_to_matrix(gp(g, h)) == \
            sb.mv_to_matrix(g).matmul(sb.mv_to_matrix(h))


class TestPauli:
    def test_matrices_use_central_unit(self):
        sb, mats = pauli_spectral()
        sig = sb.sig
        one = Multivector.scalar(sig, 1)
        zero = Multivector.zero(sig)
        iota = Multivector.blade(sig, 0b111)
        assert mats[0] == CentralMatrix([[zero, one], [one, zero]])
        assert mats[1] == CentralMatrix([[zero, -iota], [iota, zero]])
        assert mats[2] == CentralMatrix([[one, zero], [zero, -one]])

    def test_latex_writes_central_blade_as_iota(self):
        sig = g3()
        iota = Multivector.blade(sig, 0b111)
        mixed = Multivector.scalar(sig, 1) + iota.scale(Fraction(1, 2))
        grouped = iota.scale(Scalar.of(1) + Scalar.j())
        assert CentralMatrix([[mixed]]).latex() == \
            "\\begin{pmatrix}\n1 + \\frac{1}{2}\\,\\iota\n\\end{pmatrix}"
        # a multi-term coefficient is grouped as in every multivector term
        assert CentralMatrix([[grouped]]).latex() == \
            "\\begin{pmatrix}\n\\left(1 + j\\right)\\,\\iota\n\\end{pmatrix}"

    def test_central_unit_squares_to_minus_one(self):
        sig = g3()
        iota = Multivector.blade(sig, 0b111)
        assert gp(iota, iota) == Multivector.scalar(sig, -1)

    def test_row_uses_bivector_e13(self):
        # the off-diagonal border element is a = (e1 + e1 e3)/2, not a
        # vector; the duality table does not ask for grade 1
        sb, _ = pauli_spectral()
        sig = sb.sig
        e1 = Multivector.generator(sig, 0)
        e3 = Multivector.generator(sig, 2)
        a = (e1 + gp(e1, e3)).scale(HALF)
        b = (e1 - gp(e1, e3)).scale(HALF)
        assert check_duality_relations([a], [b]) == []

    def test_impostor_breaks_product(self):
        assert pauli_impostor_check(*pauli_spectral()) == []

    def test_impostor_check_names_an_impostor_basis(self):
        # with the lookalike in place of [e2] the check fails, by name
        sb, mats = pauli_spectral()
        sig = sb.sig
        zero = Multivector.zero(sig)
        pj = Multivector.scalar(sig, J)
        impostor = CentralMatrix([[zero, -pj], [pj, zero]])
        assert pauli_impostor_check(sb, [mats[0], impostor, mats[2]]) == \
            ["impostor != [e2]", "[e2] [f] = [e2 f]"]

    def test_embedding_into_g3(self):
        assert g11_embedding_check()

    def test_matrix_product_respects_center(self):
        sb, mats = pauli_spectral()
        sig = sb.sig
        e2 = Multivector.generator(sig, 1)
        e1 = Multivector.generator(sig, 0)
        assert mats[0].matmul(mats[1]) == sb.mv_to_matrix(gp(e1, e2))

    @given(complex_mvs(g3()), complex_mvs(g3()))
    def test_homomorphism(self, g, h):
        sb, _ = pauli_spectral()
        assert sb.mv_to_matrix(gp(g, h)) == \
            sb.mv_to_matrix(g).matmul(sb.mv_to_matrix(h))


class TestFramePresets:
    def test_gamma_squares(self):
        fr = dirac_frame()
        sig = fr.gammas[0].sig
        one = Multivector.scalar(sig, 1)
        assert gp(fr.gammas[0], fr.gammas[0]) == one
        for mu in (1, 2, 3):
            assert gp(fr.gammas[mu], fr.gammas[mu]) == -one

    def test_rest_frame_squares_positive(self):
        fr = dirac_frame()
        sig = fr.gammas[0].sig
        one = Multivector.scalar(sig, 1)
        for ek in fr.rest:
            assert gp(ek, ek) == one

    def test_pseudoscalar_is_gamma_chain(self):
        fr = dirac_frame()
        assert fr.pseudoscalar == gp_chain(fr.gammas)
