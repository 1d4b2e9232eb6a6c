"""Multivector kernel: blade products, involutions, grades, serialization."""

import pytest
from fractions import Fraction
from math import gcd
from hypothesis import given, strategies as st

from tests.conftest import bounded_fractions
from wittkit import ga
from wittkit.errors import DimensionMismatchError, RangeError, SignatureMismatchError
from wittkit.ga import (MAX_GENERATORS, Multivector, Signature, anticommutator,
                        anticommutator_relations, blade_product, g3, g13, g_1n, g_nn,
                        gp, gp_chain, grade_project, reverse, wedge, wedge_chain)
from wittkit.scalars import Scalar, join_slots

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

    @pytest.mark.parametrize("mask", [8, -1, 1 << 12])
    @pytest.mark.parametrize("coeff", [1, 0])
    def test_constructor_rejects_masks_outside_the_signature(self, mask, coeff):
        # g3 has masks 0..7: mask 8 would serialize as the scalar and -1 as
        # the pseudoscalar, so any mask outside them is refused, zero or not
        with pytest.raises(RangeError):
            Multivector(g3(), {mask: Scalar.of(coeff), 1: Scalar.of(2)})
        with pytest.raises(RangeError):
            Multivector.blade(g3(), mask, coeff)
        assert Multivector(g3(), {7: Scalar.of(coeff)}).to_json()["terms"] == \
            [{"blade": [0, 1, 2], "coeff": [{"d": 1, "re": "1"}]}] * coeff


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


def reference_sum(x, y, sign=1):
    """x + sign * y as a dict of Scalar sums, zero coefficients dropped."""
    acc = dict(x.terms)
    for m, c in y.terms.items():
        acc[m] = acc.get(m, Scalar()) + c * sign
    return {m: c for m, c in acc.items() if c}


def assert_matches(got, want_terms):
    """got has the reference's terms, canonical slots, and the den and slots
    of the multivector split from the reference's Scalars, so == and hash
    agree with it."""
    assert got.terms == want_terms
    nums = [v for slot in got.slots.values() for v in slot.values()]
    assert got.den > 0 and all(nums) and all(got.slots.values())
    assert gcd(got.den, *nums) == 1
    want = Multivector(got.sig, want_terms)
    assert (got.den, got.slots) == (want.den, want.slots)
    assert got == want and hash(got) == hash(want)


def tripled(x):
    """x from sums with every numerator and the den times 3, plus a key whose
    sums are all zero."""
    acc = {key: {m: 3 * v for m, v in slot.items()} for key, slot in x.slots.items()}
    acc[(7, True)] = {0: 0}
    return Multivector._of_sums(x.sig, acc, 3 * x.den)


# scale factors: ints, Fractions and ring elements over Q, Q(j) and radicals
factors = st.one_of(st.integers(min_value=-3, max_value=3), fractions,
                    st.tuples(st.sampled_from(UNITS), fractions).map(lambda t: t[0] * t[1]))


@pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: s.name)
class TestSlotForm:
    """Multivectors stored as canonical integer slots agree with a reference
    on Scalar dicts, signature by signature."""

    @given(data=st.data())
    def test_linear_ops_match_reference(self, sig, data):
        x = data.draw(ring_multivectors(sig))
        # y may cancel x outright, or everywhere but on a few blades
        y = data.draw(st.sampled_from([
            data.draw(ring_multivectors(sig)),
            Multivector(sig, {m: -c for m, c in x.terms.items()}),
            Multivector(sig, reference_sum(data.draw(ring_multivectors(sig)), x, -1))]))
        s = data.draw(factors)
        assert_matches(x + y, reference_sum(x, y))
        assert_matches(x - y, reference_sum(x, y, -1))
        assert_matches(-x, {m: -c for m, c in x.terms.items()})
        assert_matches(x.scale(s), {m: c * s for m, c in x.terms.items() if c * s})
        assert_matches(reverse(x), {m: -c if m.bit_count() % 4 in (2, 3) else c
                                    for m, c in x.terms.items()})
        for k in range(sig.m + 1):
            assert_matches(grade_project(x, k),
                           {m: c for m, c in x.terms.items() if m.bit_count() == k})

    @given(data=st.data())
    def test_products_match_reference(self, sig, data):
        x, y = data.draw(ring_multivectors(sig)), data.draw(ring_multivectors(sig))
        assert_matches(gp(x, y), reference_product(x, y).terms)
        assert_matches(wedge(x, y), reference_product(x, y, outer=True).terms)

    @given(data=st.data())
    def test_equality_and_hash_match_reference(self, sig, data):
        x = data.draw(ring_multivectors(sig))
        z = data.draw(ring_multivectors(sig))
        # one value built four ways: split from Scalars, from sums over a
        # larger den, from kernel sums, and the reference
        for again in (Multivector(sig, dict(x.terms)), tripled(x), (x + z) - z):
            assert (again.den, again.slots) == (x.den, x.slots)
            assert again == x and hash(again) == hash(x)
        # 2x and x/2 can keep x's slots over another den
        for y in (z, x.scale(2), x.scale(Fraction(1, 2)), x + Multivector.blade(
                sig, data.draw(st.integers(0, sig.dim - 1)), data.draw(factors))):
            assert (x == y) == (x.terms == y.terms)
            assert (x != y) == (x.terms != y.terms)

    @given(data=st.data())
    def test_scalar_only_hashes_like_its_scalar(self, sig, data):
        s = data.draw(factors)
        s = Scalar.of(s)
        v = Multivector.generator(sig, 0)
        # built from the Scalar, and built by the kernel: v v = 1
        for x in (Multivector.scalar(sig, s), gp(v, v).scale(s), tripled(gp(v, v)).scale(s)):
            assert x == s and hash(x) == hash(s)
            assert len({x, s}) == 1
        if s.is_rational():
            assert hash(Multivector.scalar(sig, s)) == hash(s.as_fraction())

    def test_terms_built_once_and_read_only(self, sig, monkeypatch):
        calls = []

        def counted(acc, den):
            calls.append(1)
            return join_slots(acc, den)

        monkeypatch.setattr(ga, "join_slots", counted)
        v = Multivector.generator(sig, 0) + Multivector.scalar(sig, Scalar.j(Fraction(1, 3)))
        assert calls == []                  # given terms are kept, not joined
        x = gp(v, v)
        terms = x.terms
        assert x.terms is terms and len(calls) == 1
        assert terms == reference_product(v, v).terms
        with pytest.raises(AttributeError):
            x.terms = {}
        with pytest.raises(AttributeError):
            x.extra = 1


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
        # xy = x . y + x ^ y for vectors, with x . y = (xy + yx)/2
        assert gp(x, y) == anticommutator(x, y).scale(Fraction(1, 2)) + wedge(x, y)

    @given(vectors(), vectors())
    def test_vector_anticommutator_symmetric_scalar(self, x, y):
        d = anticommutator(x, y)
        assert d == anticommutator(y, x)
        assert d.grades() in (set(), {0})

    @given(vectors())
    def test_wedge_nilpotent_on_vectors(self, x):
        assert wedge(x, x) == Multivector.zero(SIG)

    @given(vectors(), vectors())
    def test_wedge_antisymmetric_on_vectors(self, x, y):
        assert wedge(x, y) == -wedge(y, x)

    @given(multivectors(), multivectors())
    def test_xor_operator_is_wedge(self, x, y):
        assert x ^ y == wedge(x, y)
        with pytest.raises(TypeError):
            x ^ 1

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

    def test_combine_rejects_another_signature(self):
        # a g3 blade summed into g11 would keep mask 4, out of range for 2 generators
        with pytest.raises(SignatureMismatchError, match=r"signatures differ: \(1, -1\) vs \(1, 1, 1\)"):
            Multivector.combine(g_nn(1), [(1, Multivector.generator(g3(), 2))])
        with pytest.raises(SignatureMismatchError):
            Multivector.generator(g_nn(1), 0) + Multivector.generator(g3(), 0)


class TestNullPair:
    @pytest.mark.parametrize("sig", [g_nn(1), g_1n(2), g13()], ids=lambda s: s.name)
    def test_halves_of_a_unit_and_an_antiunit(self, sig):
        e, f = Multivector.generator(sig, 0), Multivector.generator(sig, 1)
        a, b = ga.null_pair(e, f)
        half = Fraction(1, 2)
        assert (a, b) == ((e + f).scale(half), (e - f).scale(half))
        zero = Multivector.zero(sig)
        assert (gp(a, a), gp(b, b)) == (zero, zero)
        assert anticommutator(a, b) == Multivector.scalar(sig, 1)


class TestAnticommutatorRelations:
    def test_names_follow_one_rule(self):
        # x = y = e1 and z = e2 of g3: the entries x^2, x y and x z are
        # wrong, one for each branch of the rule, and named row by row;
        # the right ones y^2 = 1, y z and z^2 = 1 are not named
        e1, e2 = (Multivector.generator(g3(), i) for i in range(2))
        gram = [[0, 0, 1], [0, 2, 0], [1, 0, 2]]
        assert anticommutator_relations([e1, e1, e2], ["x", "y", "z"], gram) == \
            ["x^2 = 0", "x y anticommute", "x z + z x = 1"]

    def test_diagonal_is_half_the_gram_entry(self):
        e = Multivector.generator(g3(), 0).scale(Scalar.sqrt(3))
        assert anticommutator_relations([e], ["e"], [[6]]) == []
        assert anticommutator_relations([e], ["e"], [[3]]) == ["e^2 = 3/2"]

    @pytest.mark.parametrize("family, labels, gram", [
        ([], [], []),
        ([Multivector.generator(g3(), 0)] * 2, ["x"], [[2, 0], [0, 2]]),
        ([Multivector.generator(g3(), 0)] * 2, ["x", "y"], [[2, 0]]),
        ([Multivector.generator(g3(), 0)] * 2, ["x", "y"], [[2], [0, 2]]),
    ], ids=["empty", "labels", "rows", "columns"])
    def test_table_of_another_size_rejected(self, family, labels, gram):
        with pytest.raises(DimensionMismatchError):
            anticommutator_relations(family, labels, gram)


class TestAccessors:
    def test_scalar_part_and_coeff(self):
        x = Multivector.scalar(SIG, Fraction(2, 3)) + \
            Multivector.blade(SIG, 0b11, Scalar.sqrt(2))
        assert x.scalar_part() == Scalar.of(Fraction(2, 3))
        assert x.coeff(0b11) == Scalar.sqrt(2)
        assert x.coeff(0b1000).is_zero()

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

    @pytest.mark.parametrize("sig", SIGNATURES, ids=lambda s: s.name)
    @given(data=st.data())
    def test_matches_scalar_rendering(self, sig, data):
        # to_json renders from the slots; the terms' Scalar.to_json is the reference
        x = data.draw(ring_multivectors(sig))
        assert x.to_json() == {
            "signature": list(sig.squares),
            "terms": [{"blade": [i for i in range(sig.m) if m >> i & 1],
                       "coeff": x.terms[m].to_json()}
                      for m in sorted(x.terms, key=lambda k: (k.bit_count(), k))]}
        assert Multivector.from_json(x.to_json(), sig=sig) == x

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

    @pytest.mark.parametrize("coeffs", [
        [[{"d": 1, "re": "1"}], []],
        [[{"d": 1, "re": "0"}], [{"d": 1, "re": "2"}]],
        [[], []]], ids=["value-then-empty", "zero-then-two", "both-empty"])
    def test_repeated_blade_rejected(self, coeffs):
        # one term object per blade, whatever the copies hold
        data = {"signature": [1, -1], "terms": [{"blade": [0], "coeff": c} for c in coeffs]}
        with pytest.raises(ValueError, match=r"duplicate blade \[0\]"):
            Multivector.from_json(data)

    def test_zero_terms_dropped(self):
        data = {"signature": [1, -1], "terms": [{"blade": [0], "coeff": []},
                                                {"blade": [1], "coeff": [{"d": 1, "re": "0"}]}]}
        assert Multivector.from_json(data) == Multivector.zero(g_nn(1))
