"""Multivector kernel: blade products, involutions, grades, serialization."""

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from tests.conftest import bounded_fractions
from wittkit.errors import RangeError, SignatureMismatchError
from wittkit.ga import (MAX_GENERATORS, Multivector, Signature, anticommutator,
                        blade_product, g3, g13, g_1n, g_nn, gp, gp_chain,
                        grade_project, reverse, sym_dot, wedge, wedge_chain)
from wittkit.scalars import Scalar

SIG = g_nn(2)

fractions = bounded_fractions(9, 9)

SIGNATURES = [g3(), g_nn(1), g13(), g_nn(2), g_nn(3), g_nn(4)]

# units of the coefficient ring: Q, Q(j) and the radicals sqrt 2, 3, 6 and j*sqrt 2
UNITS = [Scalar.of(1), Scalar.j(), Scalar.sqrt(2), Scalar.sqrt(3), Scalar.sqrt(6),
         Scalar.sqrt(-2)]


def multivectors(sig=SIG):
    coeff = fractions.map(Scalar.of)
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=sig.dim - 1), coeff),
        max_size=8).map(
        lambda terms: sum((Multivector.blade(sig, m, c) for m, c in terms),
                         Multivector.zero(sig)))


def ring_multivectors(sig):
    """Sums of (p/q) * unit on random blades; a blade drawn twice gets a
    multi-term coefficient.  Flat tuples keep hypothesis drawing cheap."""
    term = st.tuples(st.integers(min_value=0, max_value=sig.dim - 1),
                     st.integers(min_value=-9, max_value=9),
                     st.integers(min_value=1, max_value=9),
                     st.sampled_from(UNITS))

    def build(terms):
        acc = {}
        for m, p, q, unit in terms:
            acc[m] = acc.get(m, Scalar()) + unit * Fraction(p, q)
        return Multivector(sig, {m: c for m, c in acc.items() if c})
    # g44 operands stay sparse: the reference product is quadratic in Scalars
    return st.lists(term, max_size=6 if sig.dim > 64 else 24).map(build)


def reference_product(x, y, outer=False):
    """gp (or wedge, when outer) as a plain loop of Scalar products and sums."""
    acc = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            if outer and ma & mb:
                continue
            sign, m = blade_product(ma, mb, x.sig)
            acc[m] = acc.get(m, Scalar()) + ca * cb * sign
    return Multivector(x.sig, {m: c for m, c in acc.items() if c})


def vectors(sig=SIG):
    return st.lists(fractions, min_size=sig.m, max_size=sig.m).map(
        lambda cs: sum((Multivector.generator(sig, i).scale(c)
                        for i, c in enumerate(cs)),
                       Multivector.zero(sig)))


class TestSignature:
    def test_generator_count_bounds(self):
        with pytest.raises(RangeError):
            Signature((1,) * (MAX_GENERATORS + 1))
        with pytest.raises(RangeError):
            Signature(())

    def test_square_values_checked(self):
        with pytest.raises(ValueError):
            Signature((1, 2))

    def test_preset_orders(self):
        assert g_nn(2).gen_names == ("e1", "f1", "e2", "f2")
        assert g_1n(3).gen_names == ("e1", "f1", "f2", "f3")
        assert g3().squares == (1, 1, 1)
        assert g13().squares == (1, -1, -1, -1)

    def test_dim(self):
        assert g_nn(2).dim == 16
        assert g13().dim == 16


class TestBladeProduct:
    def test_generator_squares(self):
        for i, sq in enumerate(SIG.squares):
            sign, mask = blade_product(1 << i, 1 << i, SIG)
            assert (sign, mask) == (sq, 0)

    def test_distinct_generators_anticommute(self):
        for i in range(SIG.m):
            for k in range(i + 1, SIG.m):
                s1, m1 = blade_product(1 << i, 1 << k, SIG)
                s2, m2 = blade_product(1 << k, 1 << i, SIG)
                assert m1 == m2 and s1 == -s2

    def test_known_case(self):
        # (e1 f1)(e1) = e1 f1 e1 = -e1 e1 f1 = -f1 in g(1,1)
        sig = g_nn(1)
        sign, mask = blade_product(0b11, 0b01, sig)
        assert (sign, mask) == (-1, 0b10)

    def test_mask_range_checked(self):
        with pytest.raises(RangeError):
            blade_product(1 << SIG.m, 0, SIG)


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: s.name)
class TestProductOracle:
    """gp and wedge against the Scalar reference product, signature by signature."""

    @given(data=st.data())
    def test_gp_matches_reference(self, sig, data):
        x, y = data.draw(ring_multivectors(sig)), data.draw(ring_multivectors(sig))
        assert gp(x, y).terms == reference_product(x, y).terms

    @given(data=st.data())
    def test_wedge_matches_reference(self, sig, data):
        x, y = data.draw(ring_multivectors(sig)), data.draw(ring_multivectors(sig))
        assert wedge(x, y).terms == reference_product(x, y, outer=True).terms

    @given(data=st.data())
    def test_empty_operand(self, sig, data):
        x, zero = data.draw(ring_multivectors(sig)), Multivector.zero(sig)
        for product in (gp, wedge):
            assert product(x, zero).terms == product(zero, x).terms == {}

    @given(data=st.data())
    def test_cancelling_operands(self, sig, data):
        # (1 + e)(1 - e) = 0 when e^2 = 1, so z(1 + e) * (1 - e)w cancels to zero
        z, w = data.draw(ring_multivectors(sig)), data.draw(ring_multivectors(sig))
        e = Multivector.generator(sig, sig.squares.index(1))
        x = reference_product(z, 1 + e)
        y = reference_product(1 - e, w)
        assert gp(x, y).terms == reference_product(x, y).terms == {}
        # v ^ v = 0 for a vector v
        v = grade_project(z, 1)
        assert wedge(v, v).terms == reference_product(v, v, outer=True).terms == {}


class TestProductStructure:
    @pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: s.name)
    @given(data=st.data())
    def test_gp_associative(self, sig, data):
        x, y, z = (data.draw(ring_multivectors(sig)) for _ in range(3))
        assert gp(gp(x, y), z) == gp(x, gp(y, z))

    @pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: s.name)
    @given(data=st.data())
    def test_gp_distributes(self, sig, data):
        x, y, z = (data.draw(ring_multivectors(sig)) for _ in range(3))
        assert gp(x, y + z) == gp(x, y) + gp(x, z)
        assert gp(y + z, x) == gp(y, x) + gp(z, x)

    @given(vectors(), vectors())
    def test_vector_product_splits(self, x, y):
        # xy = x . y + x ^ y for vectors
        assert gp(x, y) == sym_dot(x, y) + wedge(x, y)

    @given(vectors(), vectors())
    def test_sym_dot_symmetric_scalar(self, x, y):
        d = sym_dot(x, y)
        assert d == sym_dot(y, x)
        assert d.grades() in (set(), {0})

    @given(vectors())
    def test_wedge_nilpotent_on_vectors(self, x):
        assert wedge(x, x) == Multivector.zero(SIG)

    @given(vectors(), vectors())
    def test_wedge_antisymmetric_on_vectors(self, x, y):
        assert wedge(x, y) == -wedge(y, x)

    @given(multivectors(), multivectors())
    def test_reverse_antiautomorphism(self, x, y):
        assert reverse(gp(x, y)) == gp(reverse(y), reverse(x))

    @given(multivectors())
    def test_reverse_involution(self, x):
        assert reverse(reverse(x)) == x

    @given(multivectors())
    def test_grade_projection_partitions(self, x):
        total = Multivector.zero(SIG)
        for r in range(SIG.m + 1):
            total = total + grade_project(x, r)
        assert total == x

    @given(vectors(), vectors())
    def test_anticommutator(self, x, y):
        assert anticommutator(x, y) == gp(x, y) + gp(y, x)

    def test_chain_helpers(self):
        gens = [Multivector.generator(SIG, i) for i in range(4)]
        assert gp_chain(gens) == gp(gp(gp(gens[0], gens[1]), gens[2]), gens[3])
        top = wedge_chain(gens)
        assert top.grades() == {4}

    def test_signature_mismatch_raises(self):
        with pytest.raises(SignatureMismatchError):
            gp(Multivector.generator(g3(), 0), Multivector.generator(g13(), 0))


class TestAccessors:
    def test_scalar_part_and_coeff(self):
        x = Multivector.scalar(SIG, Fraction(2, 3)) + \
            Multivector.blade(SIG, 0b11, Scalar.sqrt(2))
        assert x.scalar_part() == Scalar.of(Fraction(2, 3))
        assert x.coeff(0b11) == Scalar.sqrt(2)
        assert x.coeff(0b1000).is_zero()

    def test_is_vector(self):
        assert Multivector.generator(SIG, 1).is_vector()
        assert not gp(Multivector.generator(SIG, 0),
                      Multivector.generator(SIG, 1)).is_vector()

    def test_str_names_blades(self):
        x = gp(Multivector.generator(SIG, 0), Multivector.generator(SIG, 1))
        assert "e1*f1" in str(x)

    def test_rendering_pinned(self):
        sig = g_nn(1)
        e, f = Multivector.generator(sig, 0), Multivector.generator(sig, 1)
        x = (Multivector.scalar(sig, Fraction(1, 2)) - e
             + f.scale(Scalar.of(2) - Scalar.j(Fraction(1, 3)))
             + Multivector.blade(sig, 0b11, Scalar.sqrt(2, -1)))
        assert str(x) == "1/2 - e1 + (2 - 1/3*j)*f1 - sqrt(2)*e1*f1"
        assert x.latex() == ("\\frac{1}{2} - e_{1} + \\left(2 - \\frac{1}{3}j\\right)"
                             "\\,f_{1} - \\sqrt{2}\\,e_{1}f_{1}")
        y = (-Multivector.scalar(sig, Scalar.sqrt(3) + Scalar.j()) + e
             - Multivector.blade(sig, 0b11))
        assert str(y) == "(-j - sqrt(3)) + e1 - e1*f1"
        assert y.latex() == "\\left(-j - \\sqrt{3}\\right) + e_{1} - e_{1}f_{1}"
        assert str(Multivector.zero(sig)) == Multivector.zero(sig).latex() == "0"

    def test_truediv(self):
        x = Multivector.generator(SIG, 0)
        assert x / 2 == x.scale(Fraction(1, 2))

    @given(st.data())
    def test_scale_matches_termwise_product(self, data):
        x = data.draw(ring_multivectors(SIG))
        s = data.draw(st.sampled_from(UNITS)) * data.draw(fractions)
        want = {m: c * s for m, c in x.terms.items() if c * s}
        assert x.scale(s).terms == want

    # a float would enter as its binary expansion, a string would be parsed
    @pytest.mark.parametrize("make", [
        lambda: Multivector.scalar(SIG, 0.1), lambda: Multivector.scalar(SIG, "1/2"),
        lambda: Multivector.blade(SIG, 0b11, 0.5),
        lambda: Multivector.generator(SIG, 0).scale(0.5),
        lambda: Multivector.generator(SIG, 0).scale("2"),
    ], ids=["scalar-float", "scalar-string", "blade-float", "scale-float",
            "scale-string"])
    def test_inexact_coefficients_rejected(self, make):
        with pytest.raises(TypeError):
            make()


class TestHash:
    def test_scalar_only_hashes_like_its_scalar(self):
        # equal values must collapse in sets and dict keys
        one = Multivector.scalar(g_nn(1), 1)
        assert one == 1 and len({one, 1}) == 1
        assert Multivector.zero(SIG) == 0 and len({Multivector.zero(SIG), 0}) == 1
        s = Scalar.sqrt(2) + Scalar.j()
        assert hash(Multivector.scalar(SIG, s)) == hash(s)


class TestJson:
    @given(multivectors())
    def test_roundtrip(self, x):
        assert Multivector.from_json(x.to_json()) == x

    def test_roundtrip_radical_coeffs(self):
        x = Multivector.blade(SIG, 0b101, Scalar.sqrt(6, coeff=Fraction(1, 2)))
        assert Multivector.from_json(x.to_json()) == x

    def test_blades_ascending_zero_based(self):
        x = Multivector.blade(SIG, 0b1010, Scalar.of(1))
        data = x.to_json()
        assert data["terms"][0]["blade"] == [1, 3]

    def test_signature_guard(self):
        x = Multivector.generator(g3(), 0)
        with pytest.raises(ValueError):
            Multivector.from_json(x.to_json(), sig=g13())
