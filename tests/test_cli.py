"""Command-line interface: emission formats, conversion pipeline, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wittkit import cli, witt_global
from wittkit.ga import Multivector, g13, gp
from wittkit.scalars import Scalar
from wittkit.witt_global import MvMatrix, SpectralBasis, make_global_witt, spectral_basis_nn


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    @pytest.mark.parametrize("obj,extra", [
        ("global-witt", ["--n", "2"]),
        ("local-witt", ["--m", "4"]),
        ("spectral", ["--algebra", "g22"]),
        ("omega", ["--k", "2"]),
        ("dirac-standard", []),
        ("dirac-new", []),
        ("pauli", []),
        ("frame-map", ["--k", "2"]),
        ("c8-table", []),
    ])
    def test_json_parses(self, capsys, obj, extra):
        code, out, _ = run_cli(capsys, ["generate", obj] + extra)
        assert code == 0
        json.loads(out)

    def test_omega_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "omega", "--k", "2", "--variant", "plain",
                     "--format", "csv"])
        assert code == 0
        assert out == "1,1,1,1\n1,-1,-1,1\n1,1,-1,-1\n1,-1,1,-1\n"

    def test_spectral_latex_has_matrix_env(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "spectral", "--algebra", "g11",
                     "--format", "latex"])
        assert code == 0
        assert "\\begin{pmatrix}" in out

    def test_pauli_latex_pinned(self, capsys):
        code, out, _ = run_cli(capsys, ["generate", "pauli", "--format", "latex"])
        assert code == 0
        assert out == ("[e_1] = \\begin{pmatrix}\n0 & 1 \\\\\n1 & 0\n\\end{pmatrix}\n"
                       "[e_2] = \\begin{pmatrix}\n0 & -\\iota \\\\\n\\iota & 0\n"
                       "\\end{pmatrix}\n"
                       "[e_3] = \\begin{pmatrix}\n1 & 0 \\\\\n0 & -1\n\\end{pmatrix}\n")

    def test_local_witt_csv_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "local-witt", "--m", "3", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label")
        assert lines[1].startswith("c1,")

    def test_bad_param_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["generate", "global-witt", "--n", "9"])
        assert code == 2
        assert "bad input" in err

    def test_complex_omega_depth_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["generate", "omega", "--k", "3",
                     "--variant", "complex-plain"])
        assert code == 2

    def test_unknown_object_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["generate", "whatever"])


ONE, ZERO, TWO = ([{"d": 1, "re": v}] for v in ("1", "0", "2"))


def _mv(*terms):
    """g11 multivector JSON of (blade, coeff) terms, in the order given."""
    return {"signature": [1, -1], "terms": [{"blade": b, "coeff": c} for b, c in terms]}


def _mat(coeff):
    """2x2 matrix JSON with coeff at (0, 0)."""
    return {"dim": 2, "entries": [[coeff, []], [[], []]]}


class TestConvert:
    def test_identity_matrix_becomes_scalar_one(self, capsys, monkeypatch):
        payload = json.dumps(MvMatrix.identity(2).to_json())
        code, out, _ = run_cli(capsys, ["convert", "mat2mv", "--algebra", "g11"],
                               payload, monkeypatch)
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [{"blade": [], "coeff": [{"d": 1, "re": "1"}]}]

    def test_gamma0_matrix_maps_back(self, capsys, monkeypatch):
        mat = MvMatrix([[1, 0, 0, 0], [0, 1, 0, 0],
                        [0, 0, -1, 0], [0, 0, 0, -1]])
        code, out, _ = run_cli(capsys, ["convert", "mat2mv", "--algebra", "g13"],
                               json.dumps(mat.to_json()), monkeypatch)
        assert code == 0
        got = Multivector.from_json(json.loads(out))
        assert got == Multivector.generator(g13(), 0)

    def test_roundtrip_normalized_json(self, capsys, monkeypatch):
        w = make_global_witt(2)
        g = gp(w.a[0], w.b[1]) + w.a[1].scale(3) + \
            Multivector.scalar(w.sig, Scalar.j())
        start = json.dumps(g.to_json())
        code, mid, _ = run_cli(capsys, ["convert", "mv2mat", "--algebra", "g22"],
                               start, monkeypatch)
        assert code == 0
        code, end, _ = run_cli(capsys, ["convert", "mat2mv", "--algebra", "g22"],
                               mid, monkeypatch)
        assert code == 0
        assert json.loads(end) == json.loads(start)

    def test_invalid_json_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["convert", "mv2mat", "--algebra", "g11"],
                               "not json", monkeypatch)
        assert code == 2
        assert "invalid JSON" in err

    def test_wrong_signature_exits_2(self, capsys, monkeypatch):
        g = Multivector.generator(g13(), 0)
        code, _, err = run_cli(capsys, ["convert", "mv2mat", "--algebra", "g11"],
                               json.dumps(g.to_json()), monkeypatch)
        assert code == 2

    def test_wrong_dim_exits_2(self, capsys, monkeypatch):
        payload = json.dumps(MvMatrix.identity(4).to_json())
        code, _, err = run_cli(capsys, ["convert", "mat2mv", "--algebra", "g11"],
                               payload, monkeypatch)
        assert code == 2
        assert "dim" in err

    @pytest.mark.parametrize("payload", [
        {"signature": [1, -1], "terms": [{"blade": [], "coeff": [{"d": 1, "re": "1/0"}]}]},
        {"signature": [1, -1], "terms": [{"blade": [], "coeff": [{"d": 1, "re": 0.1}]}]},
        {"signature": [1, -1], "terms": [{"blade": [], "coeff": [{"d": 1, "im": True}]}]},
        {"signature": [1, -1], "terms": [{"blade": [], "coeff": [{"d": True, "re": "1"}]}]},
        {"signature": [1, -1], "terms": [{"blade": [True], "coeff": [{"d": 1, "re": "1"}]}]},
        {"signature": [1, -1], "terms": [{"blade": [[0]], "coeff": [{"d": 1, "re": "1"}]}]},
        {"signature": 5, "terms": []},
        {"signature": [1, -1], "terms": 3},
        {"signature": [1, -1], "terms": [{"blade": [], "coeff": [{"d": 10**12 + 39, "re": "1"}]}]},
        {"signature": [1, -1], "terms": [{"blade": [], "coeff": [{"d": 10**99 + 289, "re": "1"}]}]},
    ] + [
        # coefficient strings are "p" or "p/q" only; Fraction would take these
        {"signature": [1, -1], "terms": [{"blade": [], "coeff": [{"d": 1, "re": text}]}]}
        for text in ("1e3", "1e999999999", "1.5", "+3", " 3", "1_000")
    ], ids=["zero-denominator", "float", "bool-im", "bool-d", "bool-blade",
            "nested-blade", "int-signature", "int-terms", "radicand-above-bound",
            "100-digit-radicand", "exponent", "huge-exponent", "decimal",
            "plus-sign", "leading-space", "underscore"])
    def test_malformed_multivector_exits_2(self, capsys, monkeypatch, payload):
        code, out, err = run_cli(capsys, ["convert", "mv2mat", "--algebra", "g11"],
                                 json.dumps(payload), monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("wittkit: bad input: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("direction", ["mv2mat", "mat2mv"])
    def test_unknown_scalar_key_exits_2(self, capsys, monkeypatch, direction):
        # {"Re": "5"} once converted to zero and exited 0
        coeff = [{"d": 1, "Re": "5"}]
        payload = ({"signature": [1, -1], "terms": [{"blade": [], "coeff": coeff}]}
                   if direction == "mv2mat" else {"dim": 2, "entries": [[coeff, []], [[], []]]})
        code, out, err = run_cli(capsys, ["convert", direction, "--algebra", "g11"],
                                 json.dumps(payload), monkeypatch)
        assert (code, out) == (2, "")
        assert err == "wittkit: bad input: scalar term has an unknown key 'Re'\n"

    @pytest.mark.parametrize("direction, payload, message", [
        ("mv2mat", _mv(([0], ONE), ([0], [])), "duplicate blade [0] in multivector JSON"),
        ("mv2mat", _mv(([0], ZERO), ([0], TWO)), "duplicate blade [0] in multivector JSON"),
        ("mv2mat", _mv(([0], ZERO + TWO)), "duplicate term for d=1"),
        ("mat2mv", _mat(ZERO + TWO), "duplicate term for d=1"),
        ("mat2mv", _mat(ONE + [{"d": 1}]), "duplicate term for d=1"),
    ], ids=["blade-value-then-empty", "blade-zero-then-two", "mv-radicand-zero-then-two",
            "mat-radicand-zero-then-two", "mat-radicand-value-then-empty"])
    def test_repeated_key_exits_2(self, capsys, monkeypatch, direction, payload, message):
        # a repeated blade or radicand with a zero or empty copy once exited
        # 0, reading the other copy
        code, out, err = run_cli(capsys, ["convert", direction, "--algebra", "g11"],
                                 json.dumps(payload), monkeypatch)
        assert (code, out) == (2, "")
        assert err == f"wittkit: bad input: {message}\n"

    @pytest.mark.parametrize("algebra", ["g13", "g13new"])
    @pytest.mark.parametrize("direction, builds", [("mv2mat", 1)])
    def test_trace_table_built_only_to_read_coordinates(self, capsys, monkeypatch,
                                                        algebra, direction, builds):
        calls = []
        build = SpectralBasis._build_extraction
        monkeypatch.setattr(SpectralBasis, "_build_extraction",
                            lambda sb: calls.append(sb) or build(sb))
        payload = Multivector.generator(g13(), 2).to_json()
        code, out, _ = run_cli(capsys, ["convert", direction, "--algebra", algebra],
                               json.dumps(payload), monkeypatch)
        assert code == 0 and out
        assert len(calls) == builds

    @pytest.mark.parametrize("algebra", ["g13", "g13new"])
    def test_mat2mv_certifies_the_pairs_once(self, capsys, monkeypatch, algebra):
        # matrix_to_mv reads the unit table, which the certificate of the
        # pairs builds together with the trace table
        calls = []
        build = SpectralBasis._build_extraction
        monkeypatch.setattr(SpectralBasis, "_build_extraction",
                            lambda sb: calls.append(sb) or build(sb))
        code, out, _ = run_cli(capsys, ["convert", "mat2mv", "--algebra", algebra],
                               json.dumps(MvMatrix.identity(4).to_json()), monkeypatch)
        assert (code, json.loads(out)) == (0, Multivector.scalar(g13(), 1).to_json())
        assert len(calls) == 1 and calls[0]._units is not None

    def test_deep_nesting_exits_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["convert", "mv2mat", "--algebra", "g11"],
                                 "[" * 100000 + "]" * 100000, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("wittkit: invalid JSON input: ")
        assert err.count("\n") == 1

    def test_unavailable_extractor_exits_3(self, capsys, monkeypatch):
        # b1 with its sign flipped breaks the blade relation x1^2 = -1 of
        # its pair blades, so the basis cannot support conversion
        w = make_global_witt(1)
        one = Multivector.scalar(w.sig, 1)
        broken = SpectralBasis(w.a, [-w.b[0]])
        monkeypatch.setattr(cli, "_basis", lambda name: broken)
        payload = json.dumps(one.to_json())
        code, _, err = run_cli(capsys, ["convert", "mv2mat", "--algebra", "g11"],
                               payload, monkeypatch)
        assert code == 3
        assert "unsupported conversion" in err and "x1^2 = -1" in err


# leaves and keys that reach past the first shape checks of the parsers
_KEYS = st.sampled_from(["signature", "terms", "blade", "coeff", "d", "re",
                         "im", "dim", "entries"])
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2**64) | st.floats(allow_nan=False)
           | st.sampled_from(["1/2", "-3", "1/0", "j", ""]) | st.text(max_size=6))
_JUNK = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=12)
_COEFF = st.lists(st.fixed_dictionaries(
    {"d": st.sampled_from([1, 2, 3, 4, 10**13]) | _JUNK,
     "re": st.sampled_from(["1/2", "-3"]) | _JUNK}), max_size=2) | _JUNK
_MV = st.fixed_dictionaries(
    {"signature": st.sampled_from([[1, -1], [1, -1, -1, -1]]) | _JUNK,
     "terms": st.lists(st.fixed_dictionaries(
         {"blade": st.lists(st.integers(-1, 4), max_size=4) | _JUNK,
          "coeff": _COEFF}), max_size=3) | _JUNK})
_MAT = st.fixed_dictionaries(
    {"dim": st.sampled_from([2, 4]) | _JUNK,
     "entries": st.lists(st.lists(_COEFF, max_size=4), max_size=4) | _JUNK})


class TestConvertFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["mv2mat", "mat2mv"]), st.sampled_from(["g11", "g13"]),
           st.one_of(_JUNK, _MV, _MAT))
    def test_no_traceback(self, direction, algebra, payload):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), \
                redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["convert", direction, "--algebra", algebra])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()


class TestVerify:
    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "table1"])
        assert code == 0
        assert "suite table1" in out
        assert "16 pass, 0 fail, 0 conflict" in out

    def test_conflict_does_not_fail_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "witt-local", "--samples", "5"])
        assert code == 0
        assert "[CONFLICT] c8-tabulated-f4" in out

    def test_all_suites_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "all", "--samples", "5",
                     "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["fail"] == 0
        assert data["summary"]["conflict"] == 2
        assert len(data["reports"]) == 7

    def test_failed_certificate_is_a_fail_row(self, capsys, monkeypatch):
        # the square of generator 1 flipped where the certificate reads
        # _blade_product: each suite that converts through a pair basis is
        # one FAIL row naming the broken relation, and the others still run
        real = witt_global._blade_product

        def flipped(a, b, squares):
            sign, m = real(a, b, squares)
            return -sign if a & b & 1 else sign, m

        monkeypatch.setattr(witt_global, "_blade_product", flipped)
        code, out, err = run_cli(capsys, ["verify", "--suite", "all", "--samples", "1",
                                          "--format", "json"])
        assert (code, err) == (1, "")
        reports = {r["suite"]: r for r in json.loads(out)["reports"]}
        for suite, gen in (("witt-global", 1), ("dirac", 2), ("pauli", 1)):
            assert reports.pop(suite)["checks"] == [{
                "id": f"{suite}-setup", "anchor": "suite set-up", "status": "FAIL",
                "detail": "ExtractorUnavailableError: the images of the pair blades "
                          f"break x{gen}^2 = -1"}]
        assert sorted(reports) == ["negative-g12", "omega", "table1", "witt-local"]
        assert all(r["summary"]["fail"] == 0 and r["checks"] for r in reports.values())

    def test_raising_suite_is_a_fail_row(self, capsys, monkeypatch):
        # the last entry of every sign matrix negated: the witt-local
        # constructor raises RuntimeError before any row is checked, which is
        # one FAIL row naming it, and the other six suites still report
        omega_module = sys.modules["wittkit.omega"]   # wittkit.omega is the function
        real = omega_module._real_rows

        def negated(k, minus):
            rows = real(k, minus)
            return rows[:-1] + [rows[-1][:-1] + [-rows[-1][-1]]]

        monkeypatch.setattr(omega_module, "_real_rows", negated)
        code, out, err = run_cli(capsys, ["verify", "--suite", "all", "--samples", "1",
                                          "--format", "json"])
        assert (code, err) == (1, "")
        reports = {r["suite"]: r for r in json.loads(out)["reports"]}
        assert len(reports) == 7
        assert reports.pop("witt-local")["checks"] == [{
            "id": "witt-local-setup", "anchor": "suite set-up", "status": "FAIL",
            "detail": "RuntimeError: sign-matrix identity failed to close"}]
        assert reports.pop("omega")["summary"]["fail"] == 27
        assert all(r["summary"]["fail"] == 0 and r["checks"] for r in reports.values())

    def test_seed_flag_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "table1", "--seed", "5",
                     "--format", "json"])
        assert json.loads(out)["seed"] == 5

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("WITTKIT_SEED", "9")
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "table1", "--format", "json"])
        assert json.loads(out)["seed"] == 9

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WITTKIT_SEED", "9")
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "table1", "--seed", "3",
                     "--format", "json"])
        assert json.loads(out)["seed"] == 3

    def test_samples_below_one_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--suite", "table1", "--samples", "-3"])
        assert code == 2
        assert out == ""
        assert "bad input" in err and "samples" in err

    @pytest.mark.parametrize("samples", ["10001", "100000000000000000000"])
    def test_samples_above_maximum_exits_2(self, capsys, samples):
        code, out, err = run_cli(capsys, ["verify", "--suite", "all", "--samples", samples])
        assert code == 2
        assert out == ""
        assert err == f"wittkit: bad input: samples must be in 1..10000, got {samples}\n"

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--suite", "pauli", "--samples", "5",
                "--format", "json"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestSeedParsing:
    # int() takes all of these; a seed is ASCII digits with an optional "-"
    BAD = [" 7", "7 ", "1_000", "\u0663", "+3", "0x10", ""]

    @pytest.mark.parametrize("raw", BAD)
    def test_bad_env_seed_exits_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("WITTKIT_SEED", raw)
        code, out, err = run_cli(capsys, ["verify", "--suite", "table1"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "WITTKIT_SEED" in err

    @pytest.mark.parametrize("raw", BAD)
    def test_bad_flag_seed_exits_2(self, capsys, raw):
        code, out, err = run_cli(capsys, ["verify", "--suite", "table1", f"--seed={raw}"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--seed" in err

    @pytest.mark.parametrize("raw,seed", [("-4", -4), ("007", 7)])
    def test_plain_digits_accepted(self, capsys, monkeypatch, raw, seed):
        monkeypatch.setenv("WITTKIT_SEED", raw)
        code, out, _ = run_cli(capsys, ["verify", "--suite", "table1", "--format", "json"])
        assert code == 0 and json.loads(out)["seed"] == seed
        code, out, _ = run_cli(capsys, ["verify", "--suite", "table1", "--format", "json",
                                        f"--seed={raw}"])
        assert code == 0 and json.loads(out)["seed"] == seed


class TestIntegerFlags:
    # the seed's rule on every integer option: int() takes all of these
    BAD = ["1_0", " 2", "+3", "\u0663"]
    FLAGS = {"--k": ["generate", "omega"], "--n": ["generate", "global-witt"],
             "--m": ["generate", "local-witt"], "--samples": ["verify", "--suite", "table1"]}

    @pytest.mark.parametrize("raw", BAD)
    @pytest.mark.parametrize("flag", FLAGS)
    def test_bad_value_exits_2(self, capsys, flag, raw):
        code, out, err = run_cli(capsys, self.FLAGS[flag] + [f"{flag}={raw}"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("wittkit: bad input: ") and flag in err

    @pytest.mark.parametrize("flag", FLAGS)
    def test_plain_digits_accepted(self, capsys, flag):
        code, out, err = run_cli(capsys, self.FLAGS[flag] + [f"{flag}=02"])
        assert (code, err) == (0, "") and out


class TestLargeRadicands:
    def test_prime_radicand_on_every_g44_blade(self):
        # d = 999999999989, a prime below MAX_RADICAND, on all 256 blades: a
        # squarefree check that divides by trial up to sqrt(d) takes about
        # 50 ms a term, so the run would take over 10 s
        d = 999999999989
        payload = {"signature": [1, -1] * 4, "terms": [
            {"blade": [i for i in range(8) if m >> i & 1], "coeff": [{"d": d, "re": "1"}]}
            for m in range(256)]}
        proc = subprocess.run([sys.executable, "-m", "wittkit.cli", "convert", "mv2mat",
                               "--algebra", "g44"], input=json.dumps(payload).encode(),
                              capture_output=True, env=TestClosedStdout.ENV, timeout=5)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["dim"] == 16


class TestClosedStdout:
    """A reader that closes the pipe early ends the run with exit 1 and
    nothing on stderr, not a BrokenPipeError traceback."""

    ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def spawn(self, argv, stdout, env=ENV):
        return subprocess.Popen([sys.executable, "-m", "wittkit.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "table1", "--format", "json"],
        ["generate", "omega", "--k", "2"],
    ], ids=["verify", "generate"])
    def test_reader_gone_before_the_first_write(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self.spawn(argv, write_end)
        os.close(write_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("fmt, head", [
        ("json", b'{\n  "signa'), ("latex", b"\\begin{pma"), ("csv", b"1/16 + 1/1"),
    ], ids=["json", "latex", "csv"])
    def test_reader_stops_after_ten_bytes(self, fmt, head, unbuffered):
        # 77 kB (csv) to 1 MB (json) of output, more than a pipe holds, read
        # as `head -c 10` reads it.  One write of it all returns short when
        # the reader goes, so the rest must be written again to fail.
        env = {k: v for k, v in self.ENV.items() if k != "PYTHONUNBUFFERED"}
        proc = self.spawn(["generate", "spectral", "--algebra", "g44", "--format", fmt],
                          subprocess.PIPE, env | {"PYTHONUNBUFFERED": "1"} if unbuffered else env)
        got = b""
        while len(got) < 10 and (chunk := os.read(proc.stdout.fileno(), 10 - len(got))):
            got += chunk
        assert got == head
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


class ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 4096 bytes per write and counts its calls."""

    def __init__(self):
        self.data, self.calls = bytearray(), 0

    def writable(self):
        return True

    def write(self, b):
        self.calls += 1
        self.data += b[:4096]
        return min(len(b), 4096)


class TestShortWrites:
    """Each response reaches a write-through stdout whole, in as few raw
    writes as a stream taking 4096 bytes a call allows, not one per
    encoder chunk."""

    @pytest.mark.parametrize("argv", [
        ["generate", "spectral", "--algebra", "g33", "--format", "json"],
        ["generate", "spectral", "--algebra", "g33", "--format", "latex"],
        ["generate", "spectral", "--algebra", "g33", "--format", "csv"],
        ["convert", "mv2mat", "--algebra", "g33"],
        ["convert", "mat2mv", "--algebra", "g33"],
        ["verify", "--suite", "table1", "--format", "json"],
    ], ids=["json", "latex", "csv", "mv2mat", "mat2mv", "verify"])
    def test_every_byte_in_the_fewest_writes(self, argv, monkeypatch):
        # every blade of g33 with a rational and a j part: 5.7 kB and 10.7 kB out
        sb = spectral_basis_nn(3)
        g = Multivector(sb.sig, {m: Scalar.from_json([{"d": 1, "re": f"{m % 7 - 3}/{m % 5 + 1}",
                                                        "im": str(m * 3 % 5 - 2)}])
                                 for m in range(64)})
        stdin = {"mv2mat": g.to_json(), "mat2mv": sb.mv_to_matrix(g).to_json()}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin.get(argv[1]))))
        raw, emitted, emit = ShortWrites(), [], cli._emit

        def spy(text):
            emitted.append(text)
            emit(text)

        monkeypatch.setattr(cli, "_emit", spy)
        monkeypatch.setattr("sys.stdout", io.TextIOWrapper(raw, "utf-8", write_through=True))
        assert cli.main(argv) == 0
        [text] = emitted
        assert raw.data == text.encode()
        assert raw.calls == -(-len(raw.data) // 4096)
