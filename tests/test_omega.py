"""Sign-matrix family: literals, the recursion, Gram identities, determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import bounded_fractions
from wittkit.errors import DimensionMismatchError, RangeError, UnsupportedError
from wittkit.omega import (MAX_K_DET, MAX_K_REAL, OmegaMatrix, OmegaVariant, bareiss_det,
                           det_omega, fast_apply, gram_check, omega)
from wittkit.scalars import Scalar

J = Scalar.j()

fractions = bounded_fractions(9, 9)


class TestLiterals:
    def test_k1(self):
        assert omega(1, "plain").rows == [[1, 1], [1, -1]]
        assert omega(1, "minus").rows == [[1, 1], [-1, 1]]

    def test_k2_plain(self):
        assert omega(2, "plain").rows == [
            [1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]]

    def test_k2_minus(self):
        assert omega(2, "minus").rows == [
            [1, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]]

    def test_k1_complex(self):
        one = Scalar.of(1)
        assert omega(1, "complex-plain").rows == [[one, one], [J, -J]]
        assert omega(1, "complex-minus").rows == [[one, one], [-J, J]]

    def test_k2_complex(self):
        rows = omega(2, "complex-plain").rows
        assert rows[0] == [Scalar.of(1)] * 4
        assert rows[1] == [J, -J, -J, J]
        assert rows[2] == [Scalar.of(x) for x in (1, 1, -1, -1)]
        assert rows[3] == [Scalar.of(x) for x in (1, -1, 1, -1)]

    def test_k2_complex_minus(self):
        rows = omega(2, "complex-minus").rows
        assert rows[1] == [-J, J, J, -J]
        assert rows[2] == [Scalar.of(x) for x in (-1, -1, 1, 1)]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("variant,real", [("complex-plain", "plain"),
                                              ("complex-minus", "minus")])
    def test_complex_is_real_with_j_on_row_1(self, k, variant, real):
        rows = omega(k, variant).rows
        assert all(isinstance(x, Scalar) for row in rows for x in row)
        assert rows == [[J * x if i == 1 else Scalar.of(x) for x in row]
                        for i, row in enumerate(omega(k, real).rows)]


class TestRecursion:
    """The closed form (rows of Sylvester's H_k) against the paper's
    recursion, read off omega(k - 1), at every k the real family builds."""

    @pytest.mark.parametrize("k", range(2, MAX_K_REAL + 1))
    def test_block_structure(self, k):
        # top half [P, M], bottom half [P, -M] of the previous level
        p = omega(k - 1, "plain").rows
        m = omega(k - 1, "minus").rows
        h = 1 << (k - 1)
        rows = omega(k, "plain").rows
        for i in range(h):
            assert rows[i] == p[i] + m[i]
            assert rows[h + i] == p[i] + [-x for x in m[i]]

    @pytest.mark.parametrize("k", range(2, MAX_K_REAL + 1))
    def test_minus_block_structure(self, k):
        # the minus family recurses as [[M, P], [-P, M]]
        p = omega(k - 1, "plain").rows
        m = omega(k - 1, "minus").rows
        h = 1 << (k - 1)
        rows = omega(k, "minus").rows
        for i in range(h):
            assert rows[i] == m[i] + p[i]
            assert rows[h + i] == [-x for x in p[i]] + m[i]

    @pytest.mark.parametrize("k", range(1, MAX_K_REAL + 1))
    def test_minus_is_plain_with_rows_after_the_first_negated(self, k):
        plain = omega(k, "plain").rows
        assert omega(k, "minus").rows == [plain[0]] + [[-x for x in r] for r in plain[1:]]

    def test_first_row_all_ones(self):
        for k in range(1, MAX_K_REAL + 1):
            assert all(x == 1 for x in omega(k, "plain").rows[0])


class TestGuards:
    def test_k_range(self):
        with pytest.raises(RangeError):
            omega(0)
        with pytest.raises(RangeError):
            omega(MAX_K_REAL + 1)

    def test_complex_depth_unsupported(self):
        with pytest.raises(UnsupportedError):
            omega(3, "complex-plain")

    def test_det_range(self):
        with pytest.raises(RangeError):
            det_omega(MAX_K_DET + 1)

    @pytest.mark.parametrize("rows, k", [([[1, 1, 1]], 1), ([[1, 1, 1]], 0),
                                         ([[1, 1], [1, -1]], 3), ([[1, 1], [1]], 1),
                                         ([[1, 1], [1, -1], [1, 1]], 1), ([[1]], -1),
                                         ([], 0)])
    def test_constructor_needs_2_to_the_k_rows_of_2_to_the_k(self, rows, k):
        with pytest.raises(DimensionMismatchError):
            OmegaMatrix(rows, k, "plain")

    @pytest.mark.parametrize("variant", list(OmegaVariant))
    def test_every_built_matrix_has_its_shape(self, variant):
        for k in range(1, (MAX_K_REAL if variant.value in ("plain", "minus") else 2) + 1):
            w = omega(k, variant)
            for m in (w, w.transpose(), w.conj_transpose()):
                assert (m.k, m.dim) == (k, 1 << k)


class TestIdentities:
    @pytest.mark.parametrize("k", range(1, MAX_K_REAL + 1))
    @pytest.mark.parametrize("variant", ["plain", "minus"])
    def test_gram(self, k, variant):
        assert gram_check(k, variant)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("variant", ["complex-plain", "complex-minus"])
    def test_hermitian_gram(self, k, variant):
        assert gram_check(k, variant)

    @pytest.mark.parametrize("k,want", [
        (1, -2), (2, -16), (3, -4096), (4, -(2 ** 32)), (5, -(2 ** 80))])
    def test_determinants(self, k, want):
        assert det_omega(k) == want
        assert want == -(2 ** k) ** (2 ** (k - 1))

    def test_minus_determinants_flip_sign(self):
        for k in range(1, 5):
            assert det_omega(k, "minus") == -det_omega(k, "plain")


class TestBareiss:
    def test_small_known(self):
        assert bareiss_det([[2]]) == 2
        assert bareiss_det([[1, 2], [3, 4]]) == -2
        assert bareiss_det([[0, 1], [1, 0]]) == -1

    def test_empty_matrix_is_one(self):
        # the empty product: the 0 x 0 matrix once raised IndexError
        assert bareiss_det([]) == 1

    def test_singular(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0

    def test_permutation_with_zero_pivot(self):
        rows = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert bareiss_det(rows) == -1


class TestFastApply:
    @pytest.mark.parametrize("variant", ["plain", "minus"])
    @given(data=st.data())
    def test_matches_dense(self, variant, data):
        k = data.draw(st.integers(min_value=1, max_value=5))
        xs = [Scalar.of(data.draw(fractions)) for _ in range(1 << k)]
        w = omega(k, variant)
        assert fast_apply(k, variant, xs) == w.dense_apply(xs)

    @pytest.mark.parametrize("variant", ["plain", "minus"])
    @pytest.mark.parametrize("k", range(1, MAX_K_REAL + 1))
    def test_integer_lanes_match_dense_on_every_key(self, k, variant):
        # rational, j and radical parts: each key is its own integer lane
        rng = random.Random(k)

        def q():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        w = omega(k, variant)
        for _ in range(3):
            xs = [Scalar.of(q()) + Scalar.j(q()) + Scalar.sqrt(rng.choice([2, 3, 6]), q())
                  + Scalar.j() * Scalar.sqrt(6, q()) for _ in range(1 << k)]
            got = fast_apply(k, variant, xs)
            assert got == w.dense_apply(xs)
            assert all(isinstance(y, Scalar) for y in got)

    @pytest.mark.parametrize("variant", ["plain", "minus"])
    def test_exact_numbers_keep_their_types(self, variant):
        ints = [3, -1, 0, 7, 2, 2, -5, 1]
        got = fast_apply(3, variant, ints)
        assert got == [sum(e * x for e, x in zip(row, ints))
                       for row in omega(3, variant).rows]
        assert all(type(y) is int for y in got)
        mixed = [Fraction(1, 2), 3, Fraction(-2, 3), 0]
        got = fast_apply(2, variant, mixed)
        assert got == [sum(e * x for e, x in zip(row, mixed))
                       for row in omega(2, variant).rows]
        assert all(type(y) is Fraction for y in got)
        # one Scalar makes every entry a Scalar
        got = fast_apply(1, variant, [Scalar.of(1), 2])
        assert got == omega(1, variant).dense_apply([1, 2])
        assert all(isinstance(y, Scalar) for y in got)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            fast_apply(2, "plain", [Scalar.of(1)] * 3)

    @pytest.mark.parametrize("k,variant", [(3, "plain"), (2, "minus"),
                                           (2, "complex-plain"), (1, "complex-minus")])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_dense_matches_scalar_reference(self, k, variant, data):
        # Q(j) entries plus a radical: every term key of the kernel
        entry = st.tuples(fractions, fractions, fractions).map(
            lambda t: Scalar.of(t[0]) + Scalar.j(t[1]) + Scalar.sqrt(2, t[2]))
        xs = data.draw(st.lists(entry, min_size=1 << k, max_size=1 << k))
        w = omega(k, variant)
        want = [sum((x * e for x, e in zip(xs, row)), Scalar()) for row in w.rows]
        assert w.dense_apply(xs) == want

    def test_complex_variant_takes_exact_numbers(self):
        xs = [1, Fraction(1, 2), -3, 0]
        assert fast_apply(2, "complex-minus", xs) == \
            omega(2, "complex-minus").dense_apply(list(map(Scalar.of, xs)))


class TestSerialization:
    def test_csv_int_rows(self):
        assert omega(1, "plain").to_csv() == "1,1\n1,-1\n"

    def test_json_shape(self):
        data = omega(1, "plain").to_json()
        assert data["k"] == 1 and data["variant"] == "plain"
        assert data["dim"] == 2

    def test_latex_smoke(self):
        assert "pmatrix" in omega(2, "plain").latex()

    def test_variant_given_by_name(self):
        # the constructor takes the variant's name as omega() does, and
        # refuses a name that is no variant
        w = OmegaMatrix(omega(1).rows, 1, "plain")
        assert w.variant is OmegaVariant.PLAIN and w == omega(1)
        assert w.to_json() == omega(1).to_json()
        assert w.transpose().to_json()["variant"] == "plain"
        assert repr(w) == "OmegaMatrix(k=1, variant=plain, dim=2)"
        with pytest.raises(ValueError):
            OmegaMatrix(omega(1).rows, 1, "pain")

    def test_complex_latex_and_csv_pinned(self):
        w = omega(2, "complex-minus")
        assert w.latex() == ("\\begin{pmatrix}\n1 & 1 & 1 & 1 \\\\\n"
                             "-j & j & j & -j \\\\\n-1 & -1 & 1 & 1 \\\\\n"
                             "-1 & 1 & -1 & 1\n\\end{pmatrix}")
        assert w.to_csv() == "1,1,1,1\n-j,j,j,-j\n-1,-1,1,1\n-1,1,-1,1\n"
