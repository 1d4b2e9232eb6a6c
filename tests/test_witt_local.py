"""Local nilpotent families, sign-matrix identifications, and the rank-8 table."""

from dataclasses import replace
from fractions import Fraction

import pytest

from wittkit import ga, witt_local
from wittkit.errors import DimensionMismatchError, RangeError, UnsupportedError
from wittkit.ga import Multivector, g_1n, gp, gp_chain, wedge_chain
from wittkit.omega import omega
from wittkit.scalars import Scalar
from wittkit.witt_global import check_duality_relations
from wittkit.witt_local import (LocalWitt, NegativeSearchReport, _rational_sqrt,
                                alpha_coeff, c8_complex_table,
                                c8_tabulated_coefficients,
                                check_frame_relations, check_local_relations,
                                complex_identification_g22, ef_from_c,
                                hadamard_identification, hadamard_nilpotents,
                                make_local_witt,
                                no_identification_g12, pseudoscalar_identity)


def reference_no_identification_g12() -> NegativeSearchReport:
    """The search with every sign matrix building its rows, their squares
    and their anticommutators again: the loop the table lookup replaced.
    It reads witt_local.anticommutator, so a test can patch both searches."""
    lw = make_local_witt(3)
    c = lw.c
    radicands = (1, 2, 3, 6)
    zero = Multivector.zero(lw.sig)
    found = 0
    checked = 0
    for bits in range(1 << 9):
        rows_signs = [[1 if bits >> (3 * r + s) & 1 else -1 for s in range(3)]
                      for r in range(3)]
        rows = [c[0].scale(rs[0]) + c[1].scale(rs[1]) + c[2].scale(rs[2])
                for rs in rows_signs]
        squares = [gp(v, v).scalar_part().as_fraction() for v in rows]
        anti_ok = all(witt_local.anticommutator(rows[i], rows[k]) == zero
                      for i in range(3) for k in range(i + 1, 3))
        for ds in ((d0, d1, d2) for d0 in radicands for d1 in radicands
                   for d2 in radicands):
            checked += 1
            if not anti_ok:
                continue
            for plus in range(3):
                if all(squares[r] and _rational_sqrt(
                        Fraction(1 if r == plus else -1) / (squares[r] * ds[r]))
                        is not None for r in range(3)):
                    found += 1
                    break
    report = NegativeSearchReport(1 << 9, len(radicands) ** 3, checked, found)
    s3 = (c[0] + c[1] + c[2]).scale(Scalar.sqrt(3, coeff=Fraction(1, 3)))
    if gp(s3, s3) == Multivector.scalar(lw.sig, 1):
        report.unit_examples.append(("(c1+c2+c3)/sqrt(3)", 1))
    d12 = c[0] - c[1]
    if gp(d12, d12) == Multivector.scalar(lw.sig, -1):
        report.unit_examples.append(("c1-c2", -1))
    return report


class TestLocalFamilies:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_relations(self, m):
        w = make_local_witt(m)
        assert len(w.c) == m
        assert check_local_relations(w) == []

    def test_m2_closed_forms(self):
        w = make_local_witt(2)
        sig = w.sig
        half = Fraction(1, 2)
        e1 = Multivector.generator(sig, 0)
        f1 = Multivector.generator(sig, 1)
        assert w.c[0] == (e1 + f1).scale(half)
        assert w.c[1] == (e1 - f1).scale(half)

    def test_range_guard(self):
        with pytest.raises(RangeError):
            make_local_witt(1)
        with pytest.raises(RangeError):
            make_local_witt(9)

    def test_perturbed_family_fails_only_nilpotency(self):
        # c2 -> c2 + c1 keeps c1 c2 + c2 c1 = 1 but breaks c2^2 = 0
        w = make_local_witt(2)
        bad = LocalWitt(2, w.sig, [w.c[0], w.c[1] + w.c[0]])
        assert check_local_relations(bad) == ["c2^2 = 0"]

    def test_short_family_rejected(self):
        # c4 is missing: the family must not be checked as if m were 3
        w = make_local_witt(4)
        with pytest.raises(DimensionMismatchError):
            check_local_relations(LocalWitt(4, w.sig, w.c[:3]))

    def test_cross_anticommutators_are_one(self):
        w = make_local_witt(5)
        one = Multivector.scalar(w.sig, 1)
        for i in range(5):
            for k in range(i + 1, 5):
                assert gp(w.c[i], w.c[k]) + gp(w.c[k], w.c[i]) == one

    def test_frame_square_formula(self):
        # (sum of r_i c_i)^2 = ((sum r)^2 - sum r^2) / 2 for any dual family
        w = make_local_witt(4)
        r = [3, -1, 2, 5]
        v = sum((w.c[i].scale(r[i]) for i in range(4)),
                Multivector.zero(w.sig))
        total = sum(r)
        want = Fraction(total * total - sum(x * x for x in r), 2)
        assert gp(v, v) == Multivector.scalar(w.sig, want)


class TestFrameRecovery:
    def test_alpha_values(self):
        assert alpha_coeff(2) == Scalar.of(-1)
        assert alpha_coeff(3) == Scalar.sqrt(3, coeff=Fraction(-1, 3))
        assert alpha_coeff(4) == Scalar.sqrt(6, coeff=Fraction(-1, 6))
        for k in range(2, 9):
            assert alpha_coeff(k).inv() == -Scalar.sqrt(k * (k - 1) // 2)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_frame_equals_generators(self, m):
        w = make_local_witt(m)
        frame = ef_from_c(w)
        gens = [Multivector.generator(w.sig, i) for i in range(m)]
        assert frame == gens

    def test_g17_lorentz_relations(self):
        frame = ef_from_c(make_local_witt(8))
        assert check_frame_relations(frame, [1] + [-1] * 7) == []

    def test_frame_checker_catches_wrong_square(self):
        frame = ef_from_c(make_local_witt(2))
        assert check_frame_relations(frame, [1, 1]) == ["v2^2 = 1"]

    def test_frame_checker_needs_a_square_per_vector(self):
        # f1's square is not given: it must not go unchecked
        frame = ef_from_c(make_local_witt(2))
        with pytest.raises(DimensionMismatchError):
            check_frame_relations(frame, [1])


class TestHadamardIdentification:
    def test_k2_scales(self):
        fm = hadamard_identification(2)
        assert fm.scales == [Scalar.sqrt(6), Scalar.sqrt(2),
                             Scalar.sqrt(2), Scalar.sqrt(2)]

    def test_k3_scales(self):
        fm = hadamard_identification(3)
        assert fm.scales == [Scalar.sqrt(7, coeff=2)] + [Scalar.of(2)] * 7

    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_and_sources(self, k):
        fm = hadamard_identification(k)
        assert fm.verify_rows()
        assert fm.verify_sources() == []
        assert fm.verify_frame() == []

    def test_k2_first_row_explicit(self):
        # sqrt(6) e1 equals the plain sum of the four nilpotents
        w = hadamard_nilpotents(2)
        e1 = Multivector.generator(w.sig, 0)
        total = sum(w.c, Multivector.zero(w.sig))
        assert e1.scale(Scalar.sqrt(6)) == total

    def test_depth_guard(self):
        with pytest.raises(UnsupportedError):
            hadamard_nilpotents(4)

    def test_recursion_family_is_not_the_hadamard_one(self):
        # the recursion-built family satisfies the same local relations but
        # does not sum to a multiple of e1
        w = make_local_witt(4)
        total = sum(w.c, Multivector.zero(w.sig))
        e1 = Multivector.generator(w.sig, 0)
        assert total != e1.scale(Scalar.sqrt(6))
        assert gp(total, total) == Multivector.scalar(w.sig, 6)


class TestPseudoscalarIdentity:
    def test_exact_equality(self):
        lhs, rhs = pseudoscalar_identity()
        assert lhs == rhs
        assert not lhs.is_zero()

    def test_given_nilpotents_match_built_ones(self):
        assert pseudoscalar_identity(hadamard_identification(3).sources) == \
            pseudoscalar_identity()

    def test_wedge_is_scaled_top_blade(self):
        w = hadamard_nilpotents(3)
        top = wedge_chain(w.c)
        want = Multivector.blade(w.sig, (1 << 8) - 1,
                                 Scalar.sqrt(7, coeff=Fraction(-1, 16)))
        assert top == want

    def test_frame_product_is_top_blade(self):
        sig = g_1n(7)
        gens = [Multivector.generator(sig, i) for i in range(8)]
        assert gp_chain(gens) == Multivector.blade(sig, (1 << 8) - 1)


class TestNegativeSearch:
    def test_exhaustive_search_finds_nothing(self):
        rep = no_identification_g12()
        assert rep.ok
        assert rep.sign_matrices == 512
        assert rep.radicand_combos == 64
        assert rep.frames_found == 0
        assert rep.candidates_checked == 512 * 64

    def test_matches_per_matrix_search(self):
        assert no_identification_g12() == reference_no_identification_g12()

    def test_sign_rows_never_anticommute(self):
        # with c_i^2 = 0 and c_i c_k + c_k c_i = 1, rows sum s_i c_i and
        # sum t_k c_k anticommute to sum_{i != k} s_i t_k = (sum s)(sum t) - s.t,
        # which is 2 mod 4 for sign vectors of length 3: never 0, so no sign
        # matrix passes the anticommutation test and no radicand is tried
        lw = make_local_witt(3)
        signs = [[1 if v >> s & 1 else -1 for s in range(3)] for v in range(8)]
        pairs = 0
        for s in signs:
            for t in signs:
                value = sum(s) * sum(t) - sum(a * b for a, b in zip(s, t))
                x, y = (sum((ci.scale(w) for ci, w in zip(lw.c, u)), Multivector.zero(lw.sig))
                        for u in (s, t))
                assert witt_local.anticommutator(x, y) == Multivector.scalar(lw.sig, value)
                assert value % 4 == 2
                pairs += 1
        assert pairs == 64

    def test_matches_per_matrix_search_past_anticommutation(self, monkeypatch):
        # no two sign rows anticommute, so the radicand test never runs on
        # the real relations; with distinct rows declared anticommuting it
        # runs, and frames appear where one row squares to 3, two to -1
        def distinct_anticommute(x, y):
            return Multivector.scalar(x.sig, int(x == y))

        monkeypatch.setattr(witt_local, "anticommutator", distinct_anticommute)
        rep = no_identification_g12()
        assert rep.frames_found > 0
        assert rep == reference_no_identification_g12()

    def test_rows_are_built_once(self, monkeypatch):
        # 8 squares, 64 ordered anticommutators and 2 unit examples: 138
        # products; rebuilding every sign matrix's rows makes about 2,400
        calls = []

        def counted(x, y):
            calls.append(1)
            return gp(x, y)

        monkeypatch.setattr(ga, "gp", counted)
        monkeypatch.setattr(witt_local, "gp", counted)
        rep = no_identification_g12()
        assert rep.ok
        assert 0 < len(calls) <= 150

    def test_unit_examples(self):
        rep = no_identification_g12()
        assert ("(c1+c2+c3)/sqrt(3)", 1) in rep.unit_examples
        assert ("c1-c2", -1) in rep.unit_examples

    def test_unit_examples_verify(self):
        w = make_local_witt(3)
        sig = w.sig
        plus = sum(w.c, Multivector.zero(sig))
        assert gp(plus, plus) == Multivector.scalar(sig, 3)
        minus = w.c[0] - w.c[1]
        assert gp(minus, minus) == Multivector.scalar(sig, -1)


class TestComplexIdentification:
    def test_g22_rows_and_signature(self):
        fm = complex_identification_g22()
        assert fm.verify_rows()
        assert fm.expected_squares == [1, 1, -1, -1]
        assert fm.verify_frame() == []

    def test_signs_are_the_complex_sign_matrix(self):
        assert complex_identification_g22().signs == omega(2, "complex-plain").rows

    def test_other_rows_are_the_real_identification(self):
        fm, real = complex_identification_g22(), hadamard_identification(2)
        assert fm.scales == real.scales
        assert fm.sources == real.sources
        for r in (0, 2, 3):
            assert fm.signs[r] == real.signs[r]
            assert fm.targets[r] == real.targets[r]
            assert fm.target_labels[r] == real.target_labels[r]
            assert fm.expected_squares[r] == real.expected_squares[r]
        assert (fm.target_labels[1], fm.expected_squares[1]) == ("jf1", 1)

    def test_second_target_carries_j(self):
        fm = complex_identification_g22()
        sig = fm.targets[0].sig
        f1 = Multivector.generator(sig, 1)
        assert fm.targets[1] == f1.scale(Scalar.j())


class TestC8Table:
    def test_entries_match_recursion(self):
        tab = c8_complex_table()
        assert list(tab.labels) == \
            ["e1", "f1", "f2", "jf3", "f4", "jf5", "f6", "jf7"]
        assert tab.entries == tab.recursion_forms

    def test_recursion_forms_match_alpha_recursion(self):
        # alpha_k (C_k - (k-1) c_{k+1}), times j at odd k >= 3, written out
        tab = c8_complex_table()
        c = tab.witt.c
        want = [c[0] + c[1], c[0] - c[1]]
        for k in range(2, 8):
            coeff = alpha_coeff(k) * (Scalar.j() if k % 2 else Scalar.of(1))
            want.append((sum(c[1:k], c[0]) - c[k].scale(k - 1)).scale(coeff))
        assert tab.recursion_forms == want

    def test_only_f4_tabulation_differs(self):
        tab = c8_complex_table()
        mismatch = [lab for lab, ent, tf in
                    zip(tab.labels, tab.entries, tab.tabulated_forms)
                    if ent != tf]
        assert mismatch == ["f4"]

    def test_f4_bad_square(self):
        # the printed coefficient makes f4 square to 1 - sqrt(2), not -1
        tab = c8_complex_table()
        i = tab.labels.index("f4")
        bad = tab.tabulated_forms[i]
        good = tab.entries[i]
        sig = tab.witt.sig
        assert gp(bad, bad) == \
            Multivector.scalar(sig, Scalar.of(1) - Scalar.sqrt(2))
        assert gp(good, good) == Multivector.scalar(sig, -1)

    def test_tabulated_coefficient_values(self):
        co = c8_tabulated_coefficients()
        assert co["f2"] == (Scalar.of(-1), Scalar.of(1))
        assert co["f6"] == (Scalar.sqrt(15, Fraction(-1, 15)),
                            Scalar.sqrt(15, Fraction(1, 3)))
        assert co["jf7"] == (Scalar.sqrt(-21, Fraction(-1, 21)),
                             Scalar.sqrt(-21, Fraction(2, 7)))
        # the bad value: sqrt(3)/2 instead of sqrt(6)/2 on c5
        assert co["f4"][1] == Scalar.sqrt(3, Fraction(1, 2))

    def test_pair_decomposition(self):
        tab = c8_complex_table()
        half = Fraction(1, 2)
        assert tab.a[0] == tab.witt.c[0]
        assert tab.b[0] == tab.witt.c[1]
        f2, jf3 = tab.entries[2], tab.entries[3]
        assert tab.a[1] == (jf3 + f2).scale(half)
        assert tab.b[1] == (jf3 - f2).scale(half)

    def test_pairs_satisfy_global_duality(self):
        tab = c8_complex_table()
        assert check_duality_relations(tab.a, tab.b) == []


class TestFrameMapShape:
    # each map reuses hadamard_identification(2)'s fields with one of them resized
    @pytest.mark.parametrize("field,resize", [
        ("targets", lambda fm: fm.targets[:1]),            # rows 2 to 4 unchecked
        ("signs", lambda fm: fm.signs + [fm.signs[0]]),    # a fifth sign row
        ("scales", lambda fm: fm.scales[:2]),              # was an IndexError
        ("signs", lambda fm: [row[:3] for row in fm.signs]),
        ("source_labels", lambda fm: fm.source_labels[:3]),
    ], ids=["one-target", "fifth-sign-row", "short-scales", "short-sign-rows",
            "short-source-labels"])
    def test_mismatched_sizes_rejected(self, field, resize):
        fm = hadamard_identification(2)
        with pytest.raises(DimensionMismatchError):
            replace(fm, **{field: resize(fm)}).verify_rows()


class TestFrameMapSerialization:
    def test_json_shape(self):
        data = hadamard_identification(2).to_json()
        assert set(data) == {"scales", "signs", "rows"}
        assert len(data["rows"]) == 4
        assert {"label", "multivector"} == set(data["rows"][0])

    def test_latex_smoke(self):
        assert "pmatrix" in hadamard_identification(2).latex()

    def test_latex_pinned(self):
        assert hadamard_identification(2).latex() == (
            "\\begin{pmatrix}\\sqrt{6}\\,e1 \\\\ \\sqrt{2}\\,f1 \\\\ "
            "\\sqrt{2}\\,f2 \\\\ \\sqrt{2}\\,f3\\end{pmatrix} = "
            "\\begin{pmatrix}\n1 & 1 & 1 & 1 \\\\\n1 & -1 & -1 & 1 \\\\\n"
            "1 & 1 & -1 & -1 \\\\\n1 & -1 & 1 & -1\n\\end{pmatrix} "
            "\\begin{pmatrix}c1 \\\\ c2 \\\\ c3 \\\\ c4\\end{pmatrix}")
