"""Exact scalar ring: rationals with j and reduced square roots."""

from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, strategies as st

from tests.conftest import bounded_fractions
from wittkit.errors import NonMonomialError
from wittkit.scalars import (Scalar, apply_slots, combine_slots, is_squarefree, join_slots,
                             json_slots, key_product, reduce_slots, split_map, split_slots,
                             split_square, walsh)

fractions = bounded_fractions(9, 9)


def rational_scalars():
    return fractions.map(Scalar.of)


def qj_scalars():
    return st.tuples(fractions, fractions).map(
        lambda t: Scalar.of(t[0]) + Scalar.j(t[1]))


def radical_scalars():
    # p + q j + r sqrt(d): Q, Q(j) and a radical in one coefficient
    return st.tuples(fractions, fractions, fractions, st.sampled_from([2, 3, 6])).map(
        lambda t: Scalar.of(t[0]) + Scalar.j(t[1]) + Scalar.sqrt(t[3], t[2]))


ring_scalars = st.one_of(rational_scalars(), qj_scalars(), radical_scalars())
# combine_slots takes ints, Fractions and Scalars as coefficients
coefficients = st.one_of(st.integers(min_value=-9, max_value=9), fractions, ring_scalars)
sparse_maps = st.dictionaries(st.integers(min_value=0, max_value=7), ring_scalars,
                              max_size=5)


def lincomb(pairs):
    """sum_k s_k * v_k for sparse maps v_k: index -> Scalar, through
    split_slots, combine_slots and join_slots."""
    return join_slots(*combine_slots((s, *split_slots(v)) for s, v in pairs))


def apply_map(vec, split):
    """sum_k vec[k] * row_k for a map split by split_map, the way a
    coordinate map runs it: vec split once, summed, joined."""
    return join_slots(*apply_slots(*split_slots(vec), split))


def reference_lincomb(pairs):
    """sum_k s_k * v_k with Scalar * and +, zero coefficients dropped."""
    out = {}
    for s, v in pairs:
        for i, c in v.items():
            out[i] = out.get(i, Scalar()) + c * s
    return {i: c for i, c in out.items() if c}


class TestConstruction:
    def test_of_int(self):
        assert Scalar.of(3) + Scalar.of(-3) == Scalar.of(0)

    def test_sqrt_reduces_square_factors(self):
        assert Scalar.sqrt(28) == Scalar.sqrt(7, coeff=2)

    def test_sqrt_of_square_is_rational(self):
        assert Scalar.sqrt(4) == Scalar.of(2)
        assert Scalar.sqrt(1) == Scalar.of(1)

    def test_sqrt_negative_becomes_imaginary(self):
        # sqrt(-n) lands on the j axis
        s = Scalar.sqrt(-4)
        assert s == Scalar.j(2)
        assert s * s == Scalar.of(-4)

    def test_sqrt_zero_rejected(self):
        with pytest.raises(ValueError):
            Scalar.sqrt(0)

    def test_sqrt_zero_coeff_collapses(self):
        assert Scalar.sqrt(5, coeff=0).is_zero()

    # a float would enter as its binary expansion, a string would be parsed
    @pytest.mark.parametrize("make", [
        lambda: Scalar.of(0.1), lambda: Scalar.of("3/4"), lambda: Scalar.j(0.5),
        lambda: Scalar.j("1"), lambda: Scalar.sqrt(2, 0.5), lambda: Scalar.sqrt(2.0),
    ], ids=["of-float", "of-string", "j-float", "j-string", "sqrt-float-coeff",
            "sqrt-float-radicand"])
    def test_inexact_inputs_rejected(self, make):
        with pytest.raises(TypeError):
            make()


def reference_split_square(n):
    """n = outside**2 * inside, inside squarefree, by trial division of every
    p with p * p <= n."""
    outside, inside, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n, outside = n // (p * p), outside * p
        if n % p == 0:
            n, inside = n // p, inside * p
        p += 1 if p == 2 else 2
    return outside, inside * n


class TestSplitSquare:
    # split_square divides only while p**3 <= n: what is left is 1, q, q*q or
    # q*r, told apart by isqrt.  Squares and products of primes just above the
    # cube root of MAX_RADICAND (10**4), the bound itself, a prime below it,
    # and three large factors above it
    EDGES = [10007 ** 2, 10007 * 10009, 999983 ** 2, 2 * 999983 ** 2, 10 ** 12,
             9973 ** 2 * 7, 999999999989, 10007 ** 2 * 10009, 10007 * 10009 * 10037]

    @pytest.mark.parametrize("n", EDGES)
    def test_edges_match_full_trial_division(self, n):
        want = reference_split_square(n)
        assert split_square(n) == want
        assert is_squarefree(n) == (want == (1, n))

    def test_small_values_match_full_trial_division(self):
        for n in range(1, 5000):
            want = reference_split_square(n)
            assert split_square(n) == want and is_squarefree(n) == (want == (1, n)), n


class TestArithmetic:
    def test_radical_product_merges(self):
        assert Scalar.sqrt(2) * Scalar.sqrt(3) == Scalar.sqrt(6)
        assert Scalar.sqrt(2) * Scalar.sqrt(2) == Scalar.of(2)
        assert Scalar.sqrt(6) * Scalar.sqrt(10) == Scalar.sqrt(15, coeff=2)

    def test_j_square(self):
        assert Scalar.j() * Scalar.j() == Scalar.of(-1)

    def test_mixed_terms_stay_separate(self):
        s = Scalar.of(1) + Scalar.sqrt(2)
        assert s != Scalar.of(1)
        assert s - Scalar.sqrt(2) == Scalar.of(1)

    def test_str_forms(self):
        assert str(Scalar.sqrt(3, coeff=Fraction(-1, 3)) * Scalar.j()) in (
            "-1/3*j*sqrt(3)", "-1/3*sqrt(3)*j")
        assert str(Scalar.sqrt(7, coeff=2)) == "2*sqrt(7)"

    @given(qj_scalars(), qj_scalars(), qj_scalars())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(qj_scalars(), qj_scalars())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(fractions, fractions)
    def test_radical_bilinearity(self, p, q):
        lhs = Scalar.sqrt(2, coeff=p) * Scalar.sqrt(3, coeff=q)
        assert lhs == Scalar.sqrt(6, coeff=p * q)


class TestRendering:
    # str and latex of multi-term scalars, pinned byte for byte
    @pytest.mark.parametrize("s,text,latex", [
        (Scalar.rational(-3, 4) + Scalar.j(Fraction(2, 5))
         + Scalar.sqrt(2, Fraction(-1, 3)) + Scalar.sqrt(-6, 7),
         "-3/4 + 2/5*j - 1/3*sqrt(2) + 7*j*sqrt(6)",
         "-\\frac{3}{4} + \\frac{2}{5}j - \\frac{1}{3}\\sqrt{2} + 7j\\sqrt{6}"),
        (Scalar.j(-1) + Scalar.sqrt(3), "-j + sqrt(3)", "-j + \\sqrt{3}"),
        (Scalar.sqrt(5, -1) + Scalar.sqrt(-5, Fraction(1, 2)),
         "-sqrt(5) + 1/2*j*sqrt(5)", "-\\sqrt{5} + \\frac{1}{2}j\\sqrt{5}"),
        (Scalar.rational(5, 3) - Scalar.j(), "5/3 - j", "\\frac{5}{3} - j"),
        (Scalar(), "0", "0"),
    ], ids=["four-terms", "negative-lead", "negative-radical", "minus-j", "zero"])
    def test_multi_term(self, s, text, latex):
        assert str(s) == text
        assert s.latex() == latex


class TestInverse:
    def test_rational_inverse(self):
        s = Scalar.of(Fraction(-3, 7))
        assert s * s.inv() == Scalar.of(1)

    def test_radical_inverse(self):
        s = Scalar.sqrt(7, coeff=Fraction(2, 3))
        assert s * s.inv() == Scalar.of(1)

    def test_imaginary_radical_inverse(self):
        s = Scalar.sqrt(5) * Scalar.j(Fraction(1, 2))
        assert s * s.inv() == Scalar.of(1)

    def test_multi_term_rejected(self):
        # public inversion covers monomials only; the coordinate solver
        # carries its own Q(j) inverse
        with pytest.raises(NonMonomialError):
            (Scalar.of(1) + Scalar.sqrt(2)).inv()
        with pytest.raises(NonMonomialError):
            (Scalar.of(3) + Scalar.j(4)).inv()

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Scalar.of(0).inv()

    @given(fractions.filter(bool), st.sampled_from([1, 2, 3, 5, 6, 7]),
           st.booleans())
    def test_monomial_inverse_roundtrip(self, q, d, imag):
        s = Scalar.sqrt(d, coeff=q)
        if imag:
            s = s * Scalar.j()
        assert s * s.inv() == Scalar.of(1)


class TestConjugate:
    def test_conjugate_flips_j(self):
        s = Scalar.of(2) + Scalar.j(5)
        assert s.conjugate() == Scalar.of(2) + Scalar.j(-5)

    def test_norm_of_mixed_term(self):
        s = Scalar.j(3) + Scalar.sqrt(2)
        assert s * s.conjugate() == Scalar.of(11)

    @given(qj_scalars())
    def test_involution(self, s):
        assert s.conjugate().conjugate() == s


class TestJson:
    @given(qj_scalars())
    def test_roundtrip_qj(self, s):
        assert Scalar.from_json(s.to_json()) == s

    def test_roundtrip_radicals(self):
        s = Scalar.sqrt(6, coeff=Fraction(2, 5)) + \
            Scalar.sqrt(3) * Scalar.j(Fraction(-1, 3)) + Scalar.of(7)
        assert Scalar.from_json(s.to_json()) == s

    def test_terms_sorted_by_radicand(self):
        s = Scalar.sqrt(7) + Scalar.of(1) + Scalar.sqrt(3)
        ds = [t["d"] for t in s.to_json()]
        assert ds == sorted(ds)

    @given(ring_scalars)
    def test_matches_fraction_rendering(self, s):
        # to_json renders from integer slots; str(Fraction) per term, grouped
        # by radicand with "re" before "im", is the reference
        groups = {}
        for (d, imag), q in sorted(s.terms.items()):
            groups.setdefault(d, {"d": d})["im" if imag else "re"] = str(q)
        assert s.to_json() == [groups[d] for d in sorted(groups)]

    def test_json_slots_reduces_each_coefficient(self):
        # slots that are not canonical as a whole: each value still comes out
        # in lowest terms, and an index with no term is absent
        slots = {(2, True): {0: 9}, (1, False): {0: 6, 1: -4, 2: 12}}
        assert json_slots(slots, 12) == {
            0: [{"d": 1, "re": "1/2"}, {"d": 2, "im": "3/4"}],
            1: [{"d": 1, "re": "-1/3"}],
            2: [{"d": 1, "re": "1"}]}
        assert json_slots({}, 1) == {}
        assert Scalar().to_json() == []

    @pytest.mark.parametrize("text, value", [
        ("007/014", Fraction(1, 2)), ("-0", 0), ("-12/8", Fraction(-3, 2)), ("5", 5)])
    def test_coefficient_strings(self, text, value):
        assert Scalar.from_json([{"d": 1, "re": text}]) == Scalar.of(value)

    def test_coefficient_past_int_digit_limit_rejected(self):
        with pytest.raises(ValueError, match="not an exact rational"):
            Scalar.from_json([{"d": 1, "re": "1" * 5000}])

    @pytest.mark.parametrize("term, key", [
        ({"d": 1, "Re": "5"}, "Re"), ({"d": 1, "re": "5", "imag": "1"}, "imag"),
        ({"d": 2, "re": "1", "zz": 0, "aa": 0}, "aa")])
    def test_unknown_key_rejected(self, term, key):
        # a misspelt "re" or "im" would otherwise drop its coefficient
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            Scalar.from_json([term])

    @pytest.mark.parametrize("terms", [
        [{"d": 1, "re": "0"}, {"d": 1, "re": "2"}],
        [{"d": 1, "re": "1"}, {"d": 1}],
        [{"d": 3, "re": "1"}, {"d": 3, "im": "2"}],
        [{"d": 2}, {"d": 1, "re": "1"}, {"d": 2}]],
        ids=["zero-then-two", "value-then-empty", "re-then-im", "both-empty"])
    def test_repeated_radicand_rejected(self, terms):
        # one term object per radicand, as to_json writes it, whatever the values
        with pytest.raises(ValueError, match=f"duplicate term for d={terms[-1]['d']}"):
            Scalar.from_json(terms)


class TestHash:
    def test_rational_hashes_like_its_fraction(self):
        # equal values must collapse in sets and dict keys
        assert len({Scalar.of(1), 1}) == 1
        assert len({Scalar(), 0}) == 1
        assert hash(Scalar.rational(-3, 4)) == hash(Fraction(-3, 4))

    @given(fractions)
    def test_rational_set_collapses(self, q):
        assert len({Scalar.of(q), q}) == 1


class TestKernel:
    @pytest.mark.parametrize("k1,k2,product", [
        ((1, True), (1, True), ((1, False), -1)),    # j j = -1
        ((2, False), (6, False), ((3, False), 2)),   # sqrt2 sqrt6 = 2 sqrt3
        ((3, False), (3, True), ((1, True), 3)),     # sqrt3 j sqrt3 = 3 j
    ], ids=["j-j", "sqrt2-sqrt6", "sqrt3-jsqrt3"])
    def test_key_product(self, k1, k2, product):
        assert key_product(k1, k2) == product
        assert key_product(k2, k1) == product

    @given(st.lists(st.tuples(coefficients, sparse_maps), max_size=5))
    def test_lincomb_matches_scalar_sum(self, pairs):
        assert lincomb(pairs) == reference_lincomb(pairs)

    def test_lincomb_of_nothing_is_empty(self):
        assert lincomb([]) == {}
        assert lincomb([(0, {0: Scalar.of(1)}), (Scalar.j(), {})]) == {}

    @given(st.dictionaries(st.integers(min_value=0, max_value=5), ring_scalars,
                           max_size=5),
           st.dictionaries(st.integers(min_value=0, max_value=5), sparse_maps,
                           max_size=5))
    def test_apply_map_matches_scalar_sum(self, vec, rows):
        # keys of vec without a row, and rows without a key in vec, drop out
        want = reference_lincomb((s, rows[k]) for k, s in vec.items() if k in rows)
        assert apply_map(vec, split_map(rows)) == want

    def test_apply_map_of_nothing_is_empty(self):
        assert apply_map({}, split_map({})) == {}
        assert apply_map({0: Scalar.of(1)}, split_map({})) == {}
        assert apply_map({}, split_map({0: {0: Scalar.j()}})) == {}
        assert apply_map({0: Scalar()}, split_map({0: {0: Scalar.j()}})) == {}

    @given(st.dictionaries(st.integers(min_value=0, max_value=5), ring_scalars,
                           max_size=5),
           st.dictionaries(st.integers(min_value=0, max_value=5), sparse_maps,
                           max_size=5))
    def test_apply_map_cancels(self, vec, rows):
        # v.r + (-v).r on shifted keys is 0, and v.(-r) = (-v).r
        neg = {k: -s for k, s in vec.items()}
        both = {**vec, **{k + 6: s for k, s in neg.items()}}
        assert apply_map(both, split_map({**rows, **{k + 6: v for k, v in rows.items()}})) == {}
        neg_rows = {k: {i: -c for i, c in v.items()} for k, v in rows.items()}
        assert apply_map(vec, split_map(neg_rows)) == apply_map(neg, split_map(rows))

    @given(st.lists(st.tuples(coefficients, sparse_maps), max_size=5))
    def test_split_core_only_reads_its_slots(self, pairs):
        # the same split map goes through apply_map twice: a write on the
        # first pass would change the second, and the slots must come back
        # as they went in
        rows = {k: v for k, (_, v) in enumerate(pairs)}
        vec = {k: Scalar.of(s) for k, (s, _) in enumerate(pairs)}
        split = split_map(rows)
        before = ({key: {k: list(slot) for k, slot in by_row.items()}
                   for key, by_row in split[0].items()}, split[1])
        want = reference_lincomb(pairs)
        assert apply_map(vec, split) == want
        assert apply_map(vec, split) == want
        assert split == before

    @given(coefficients, sparse_maps)
    def test_cancelling_pairs_drop_out(self, s, v):
        assert lincomb([(s, v), (s, {i: -c for i, c in v.items()})]) == {}
        assert lincomb([(s, v), (-s, v)]) == {}

    @given(st.dictionaries(st.sampled_from([(1, False), (1, True), (2, False), (6, True)]),
                           st.dictionaries(st.integers(0, 7), st.integers(-40, 40),
                                           max_size=5), max_size=4),
           st.integers(1, 36), st.integers(1, 12))
    def test_reduce_slots_is_canonical(self, acc, den, c):
        slots, d = reduce_slots(acc, den)
        nums = [v for slot in slots.values() for v in slot.values()]
        assert d > 0 and all(nums) and all(slots.values())
        assert gcd(d, *nums) == 1
        assert join_slots(slots, d) == join_slots(acc, den)
        scaled = {key: {i: c * v for i, v in slot.items()} for key, slot in acc.items()}
        assert reduce_slots(scaled, c * den) == (slots, d)


def sylvester(k):
    """H_k written out entry by entry: H_k[r][c] = (-1)^|r & c|."""
    return [[(-1) ** (r & c).bit_count() for c in range(1 << k)] for r in range(1 << k)]


class TestWalsh:
    """The radix-2 stages against the dense Sylvester product."""

    @given(st.data())
    def test_full_lane_is_sylvester_product(self, data):
        k = data.draw(st.integers(0, 6))
        v = data.draw(st.lists(st.integers(-99, 99), min_size=1 << k, max_size=1 << k))
        assert walsh(v, k) == [sum(map(mul, row, v)) for row in sylvester(k)]

    @given(st.data())
    def test_low_bits_transform_and_end_above_the_rest(self, data):
        # on a 4**n lane only the n low bits f go through H_n, and the result
        # for the high bits x and the frequency s sits at x + s 2**n
        n = data.draw(st.integers(1, 4))
        size = 1 << n
        v = data.draw(st.lists(st.integers(-99, 99), min_size=size * size,
                               max_size=size * size))
        h = sylvester(n)
        want = [0] * size * size
        for x in range(size):
            for s in range(size):
                want[x + s * size] = sum(h[s][f] * v[f + x * size] for f in range(size))
        assert walsh(v, n) == want
