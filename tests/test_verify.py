"""Report layer: suite registry, statuses, determinism, documented conflicts."""

import random
from fractions import Fraction

import pytest

from wittkit import verify, witt_local
from wittkit.errors import RangeError
from wittkit.ga import Multivector, g3, g13, g_nn
from wittkit.scalars import Scalar
from wittkit.verify import (SUITES, Check, VerifyReport, run_all, run_suite)
from wittkit.witt_global import MvMatrix, SpectralBasis
from wittkit.witt_local import ef_from_c

EXPECTED_CONFLICT_IDS = {"c8-tabulated-f4", "dirac-new-gamma3-matrix"}


@pytest.fixture(scope="module")
def all_reports():
    return run_all(seed=0, samples=10)


class TestSuites:
    def test_registry_names(self):
        assert set(SUITES) == {"table1", "witt-global", "witt-local", "omega",
                               "dirac", "pauli", "negative-g12"}

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            run_suite("nope")

    def test_no_failures_anywhere(self, all_reports):
        for rep in all_reports:
            assert rep.ok, rep.format_text()
            assert rep.n_fail == 0

    def test_exactly_two_conflicts(self, all_reports):
        conflicts = [c for rep in all_reports for c in rep.checks
                     if c.status == "CONFLICT"]
        assert {c.check_id for c in conflicts} == EXPECTED_CONFLICT_IDS

    def test_conflicts_carry_corrections(self, all_reports):
        by_id = {c.check_id: c for rep in all_reports for c in rep.checks}
        f4 = by_id["c8-tabulated-f4"]
        assert "sqrt(6)" in f4.detail and "-1" in f4.detail
        g3 = by_id["dirac-new-gamma3-matrix"]
        assert "[[0,1],[-1,0]]" in g3.detail

    def test_conflict_does_not_unset_ok(self):
        rep = run_suite("witt-local", seed=0, samples=5)
        assert rep.n_conflict == 1
        assert rep.ok

    def test_table1_is_16_passes(self):
        rep = run_suite("table1")
        assert len(rep.checks) == 16
        assert rep.n_pass == 16

    def test_checks_sorted_by_id(self, all_reports):
        for rep in all_reports:
            ids = [c.check_id for c in rep.checks]
            assert ids == sorted(ids)


class TestSampleBound:
    # only the rejection path runs: an accepted count this size would be
    # drawn in full before any check
    @pytest.mark.parametrize("name", sorted(SUITES))
    @pytest.mark.parametrize("samples", [0, verify.MAX_SAMPLES + 1, 10**20])
    def test_out_of_range_refused_before_the_suite_runs(self, name, samples, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(SUITES, name, refuse)
        with pytest.raises(RangeError, match=f"1..{verify.MAX_SAMPLES}"):
            run_suite(name, samples=samples)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_suite("witt-global", seed=7, samples=8)
        b = run_suite("witt-global", seed=7, samples=8)
        assert a.to_json() == b.to_json()

    def test_other_seeds_still_pass(self):
        for seed in (1, 42):
            assert run_suite("dirac", seed=seed, samples=5).ok


class TestReportShape:
    def test_json_layout(self):
        rep = run_suite("table1")
        data = rep.to_json()
        assert data["suite"] == "table1"
        assert data["summary"] == {"pass": 16, "fail": 0, "conflict": 0}
        assert all({"id", "anchor", "status", "detail"} == set(c)
                   for c in data["checks"])

    def test_format_text_lines(self):
        rep = run_suite("negative-g12")
        text = rep.format_text()
        assert text.startswith("suite negative-g12")
        assert "[PASS]" in text
        assert "pass, 0 fail" in text

    def test_counts(self):
        rep = VerifyReport("demo", [
            Check("b", "x", "PASS"), Check("a", "x", "FAIL", "boom"),
            Check("c", "x", "CONFLICT", "doc")])
        assert (rep.n_pass, rep.n_fail, rep.n_conflict) == (1, 1, 1)
        assert not rep.ok
        assert [c.check_id for c in rep.checks] == ["a", "b", "c"]


class TestFailingRows:
    def test_relation_row_names_failing_relations(self, monkeypatch):
        def stretched_frame(w):
            frame = ef_from_c(w)
            return [frame[0], frame[1].scale(2)] + frame[2:]
        monkeypatch.setattr(verify, "ef_from_c", stretched_frame)
        rep = run_suite("witt-local", seed=0, samples=1)
        row = next(c for c in rep.checks if c.check_id == "local-m3-frame")
        assert row.status == "FAIL"
        assert row.detail == "v2^2 = -1; frame = generators"

    def test_witt_local_builds_the_k3_identification_once(self, monkeypatch):
        # the top-blade row wedges the k = 3 nilpotents of the suite's own
        # loop; k = 2 is built again by complex_identification_g22
        built, build = [], witt_local.hadamard_identification

        def spy(k):
            built.append(k)
            return build(k)

        monkeypatch.setattr(verify, "hadamard_identification", spy)
        monkeypatch.setattr(witt_local, "hadamard_identification", spy)
        rep = run_suite("witt-local", seed=0, samples=1)
        assert rep.ok and sorted(built) == [2, 2, 3]

    def test_roundtrip_tested_when_homomorphism_fails(self, monkeypatch):
        # a wrong product fails the homomorphism row first; the round trip
        # must still run on the same samples and catch the wrong inverse map
        monkeypatch.setattr(MvMatrix, "matmul", lambda self, other: self)
        monkeypatch.setattr(SpectralBasis, "matrix_to_mv",
                            lambda self, mat: Multivector.zero(self.sig))
        rep = run_suite("witt-global", seed=0, samples=3)
        status = {c.check_id: c.status for c in rep.checks}
        assert status["iso-g11-homomorphism"] == "FAIL"
        assert status["iso-g11-roundtrip"] == "FAIL"

    def test_E_rows_fail_when_the_unit_table_is_wrong(self, monkeypatch):
        # E is read off the unit table, so a negated row of unit (0, 0)
        # must fail every row that reads E in full or at index 0
        build = SpectralBasis._build_extraction

        def negated(sb):
            build(sb)
            units, den = sb._units
            sb._units = ({key: {**rows, 0: [(m, -v) for m, v in rows[0]]} if 0 in rows else rows
                          for key, rows in units.items()}, den)

        monkeypatch.setattr(SpectralBasis, "_build_extraction", negated)
        rep = run_suite("witt-global", seed=0, samples=3)
        status = {c.check_id: c.status for c in rep.checks}
        rows = [f"spectral-n{n}-identity-sum" for n in range(1, 5)] + \
            [f"spectral-n{n}-{what}" for n in (1, 2) for what in ("matrix-units", "array")]
        assert {row: status[row] for row in rows} == dict.fromkeys(rows, "FAIL")


def reference_random_scalar(rng, complex_):
    """A draw built as Fraction, Scalar.of, Scalar.j and Scalar +."""
    s = Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if complex_:
        s = s + Scalar.j(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return s


class TestSampling:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("sig", [g3(), g_nn(1), g_nn(2), g13()],
                             ids=["g3", "g11", "g22", "g13"])
    def test_draws_match_reference(self, sig, complex_):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            draws = {m: reference_random_scalar(ref, complex_) for m in range(sig.dim)}
            want = Multivector(sig, {m: s for m, s in draws.items() if s})
            got = verify.random_multivector(sig, rng, complex_)
            assert got == want
            assert all(got.terms.values())
            assert rng.getstate() == ref.getstate()
            assert verify.random_scalar(rng, complex_) == \
                reference_random_scalar(ref, complex_)
            assert rng.getstate() == ref.getstate()
