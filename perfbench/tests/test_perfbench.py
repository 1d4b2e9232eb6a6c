"""Tests of the benchmark itself (not of wittkit).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import types

import pytest

import checks
import run
from common import BENCH_DIR, ROOT, SRC, Tally, child_env
from tracer import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3, seconds: int = 1) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    out = bench(workload, trace=0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_verify_reaches_every_layer():
    out = bench("verify-cli", trace=1)
    assert out["correct"], "traced verify output must equal the untraced bytes"
    metrics = out["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    unreached = [name for name, m in metrics.items()
                 if m["value"] == 0 and name not in ("cli.cmd_generate.self_s",
                                                     "cli.cmd_convert.self_s",
                                                     "cli.parse.self_s",
                                                     "trace.overhead_s")]
    assert unreached == []


DETERMINISTIC = ("scalars.mul.calls", "scalars.add.calls", "ga.gp.calls",
                 "ga.gp.blade_pairs", "witt_global.extraction.calls")


def test_traced_counts_repeat():
    a, b = bench("convert-warm", trace=1), bench("convert-warm", trace=1)
    for name in DETERMINISTIC:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"] > 0, name


def test_launcher_counts_repeat(tmp_path):
    def traced(i):
        out = tmp_path / f"{i}.json"
        dt, proc = run.run_child([sys.executable, run.LAUNCHER, str(out), "--",
                                  "generate", "spectral", "--algebra", "g33"])
        assert proc.returncode == 0
        return proc.stdout, json.loads(out.read_text())

    (out_a, a), (out_b, b) = traced(0), traced(1)
    assert out_a == out_b
    for name in DETERMINISTIC[:4] + ("ga.blade_cache.misses",):
        assert a[name] == b[name] > 0, name


def test_children_ignore_caller_seed_and_use_checkout_src(monkeypatch):
    monkeypatch.setenv("WITTKIT_SEED", "5")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = child_env()
    assert "WITTKIT_SEED" not in env
    assert env["PYTHONPATH"] == str(SRC)


def _snapshot():
    """Identity of every binding the tracer may touch."""
    import wittkit.cli  # noqa: F401  (the tracer wraps cli functions too)
    snap = {}
    for name, mod in sys.modules.items():
        if mod is None or not (name == "wittkit" or name.startswith("wittkit.")):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    snap[(name, key, k2)] = v2
            if isinstance(value, type) and value.__module__ == name:
                for k2, v2 in vars(value).items():
                    snap[(name, key, "attr", k2)] = v2
    snap["json.dump"] = json.dump
    return snap


def test_install_uninstall_restores_every_function():
    import wittkit.ga as ga
    import wittkit.verify as verify
    before = _snapshot()
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        assert ga.gp is not before[("wittkit.ga", "gp")]
        assert verify.gp is ga.gp
        assert verify.SUITES["dirac"] is not before[("wittkit.verify", "SUITES", "dirac")]
        x = ga.Multivector.generator(ga.g_nn(1), 0)
        ga.gp(x, x)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["ga.gp.calls"] == 1
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _report(seed: int) -> str:
    """A verify JSON report that meets the expectations at this commit."""
    exp = checks.EXPECTED_VERIFY
    rows = [{"id": i, "status": "CONFLICT" if i in exp["conflicts"] else "PASS"}
            for i in exp["ids"]]
    reports = [{"suite": s, "checks": rows if k == 0 else []}
               for k, s in enumerate(exp["suites"])]
    return json.dumps({"seed": seed, "reports": reports, "summary": exp["summary"]})


def test_wrong_expected_value_is_counted_not_raised(monkeypatch):
    assert checks.check_verify(_report(5), 5) is None
    wrong = dict(checks.EXPECTED_VERIFY, summary={"pass": 136, "fail": 0, "conflict": 1})
    reports = {}

    def invoke(argv, stdin=None):
        out = reports.setdefault(argv[-1], _report(int(argv[-1])))
        return 0.01, types.SimpleNamespace(returncode=0, stdout=out, stderr="")

    tally = Tally("verify-cli", 7)
    assert run.verify_cli(7, invoke, tally, lambda i: i < 2) == [0.01, 0.01]
    assert (tally.attempted, tally.failed) == (2, 0)
    monkeypatch.setattr(checks, "EXPECTED_VERIFY", wrong)
    tally = Tally("verify-cli", 7)
    assert run.verify_cli(7, invoke, tally, lambda i: i < 2) == [0.01, 0.01]
    assert (tally.attempted, tally.failed) == (2, 2)


def test_broken_output_is_counted_not_raised():
    def invoke(argv, stdin=None):
        return 0.01, types.SimpleNamespace(returncode=0, stdout="not json", stderr="")

    tally = Tally("cli-requests", 7)
    run.cli_requests(7, invoke, tally, lambda r: r < 1)
    # Each generate fails its check; each convert pair fails at the round trip.
    converts = sum(1 for kind, _ in run.CLI_ROUND if kind == "convert")
    assert tally.failed == len(run.CLI_ROUND)
    assert tally.attempted == len(run.CLI_ROUND) + converts
