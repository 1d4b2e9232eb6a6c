"""wittkit benchmark: closed-loop workloads driven through the public API
and the CLI, one client, every output checked exactly.

    python3 perfbench/run.py --workload verify-cli --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

  verify-cli    fresh ``python -m wittkit.cli verify --suite all`` processes
  convert-warm  one process, bases built once, mv -> matrix -> mv round trips
  cli-requests  fresh CLI processes: convert pairs and generate commands

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a fixed, seed-determined list of operations runs untraced and
then traced, and the last line carries the per-layer metrics and the tracing
overhead.  Failed operations go to stderr with their seed, index and input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from checks import check_generate, check_round_trip, check_verify
from common import (BENCH_DIR, ROOT, SRC, SetupSampler, Tally, child_problem,
                    have_program, percentile, run_child)
from inputs import (CLI_ROUND, RINGS, SIGNATURES, multivector_json, random_terms,
                    rounds)

PY = sys.executable
WORKER = str(BENCH_DIR / "convert_worker.py")
LAUNCHER = str(BENCH_DIR / "launch.py")

# Set-up of each workload, timed in fresh interpreters (see SetupSampler).
SETUP_CLI = [PY, "-c", "import wittkit.cli"]
SETUP_SPACING_S = 2.0


def trace_size(workload: str, seconds: float) -> int:
    """Operations (verify-cli), rounds (cli-requests) or round trips
    (convert-warm) of a traced run: fixed by --seconds, never by the clock,
    so two traced runs with one seed do the same work."""
    if workload == "convert-warm":
        return max(30, int(10 * seconds))
    return max(1, int(seconds // 15))


# -- invoking the CLI --------------------------------------------------------


class PlainCli:
    """``python -m wittkit.cli``, as a user runs it; keeps every stdout."""

    def __init__(self):
        self.outputs: list[str | None] = []

    def __call__(self, argv, stdin=None):
        dt, proc = run_child([PY, "-m", "wittkit.cli", *argv], stdin)
        self.outputs.append(proc.stdout if proc else None)
        return dt, proc


class TraceTotals:
    """Per-layer numbers summed over the trace files of a run."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(int)
        self.missing: set[str] = set()

    def add(self, path: Path) -> None:
        trace = json.loads(path.read_text())
        self.missing.update(trace.pop("missing", []))
        for key, value in trace.items():
            self.totals[key] += value


class TracedCli(PlainCli):
    """The same command through the launcher, which writes a trace file."""

    def __init__(self, tmpdir: str):
        super().__init__()
        self.tmpdir = Path(tmpdir)
        self.trace = TraceTotals()

    def __call__(self, argv, stdin=None):
        out = self.tmpdir / f"trace-{len(self.outputs)}.json"
        dt, proc = run_child([PY, LAUNCHER, str(out), "--", *argv], stdin)
        self.outputs.append(proc.stdout if proc else None)
        if out.exists():
            self.trace.add(out)
        return dt, proc


# -- workloads: each runs whole rounds while keep_going(round) holds ---------


def verify_cli(seed: int, invoke, tally: Tally, keep_going) -> list[float]:
    rng = random.Random(seed)
    verify_seeds = [rng.randrange(1, 10**6) for _ in range(64)]
    latencies = []
    index = 0
    while keep_going(index):
        vseed = verify_seeds[index % len(verify_seeds)]
        argv = ["verify", "--suite", "all", "--format", "json", "--seed", str(vseed)]
        dt, proc = invoke(argv)
        latencies.append(dt)
        tally.check(index, lambda: {"argv": argv},
                    lambda: child_problem(proc) or check_verify(proc.stdout, vseed))
        index += 1
    return latencies


def cli_requests(seed: int, invoke, tally: Tally, keep_going) -> list[float]:
    rng = random.Random(seed)
    first: dict[tuple, str] = {}
    latencies = []
    index = 0
    current = None
    for rnd, (kind, what) in rounds(CLI_ROUND, rng):
        if rnd != current:
            if not keep_going(rnd):
                break
            current = rnd
        if kind == "generate":
            argv = list(what)
            dt, proc = invoke(argv)
            latencies.append(dt)

            def check():
                problem = child_problem(proc)
                if problem:
                    return problem
                if what not in first:
                    first[what] = proc.stdout
                    return check_generate(argv, proc.stdout)
                return None if proc.stdout == first[what] else \
                    "output differs from the first output of this command in the run"

            tally.check(index, lambda: {"argv": argv}, check)
            index += 1
            continue
        alg, density = what
        squares = SIGNATURES[alg]
        sent = multivector_json(squares, random_terms(rng, len(squares), density,
                                                      rng.choice(RINGS)))
        to_mat = ["convert", "mv2mat", "--algebra", alg]
        dt, p1 = invoke(to_mat, json.dumps(sent))
        latencies.append(dt)
        ok = tally.check(index, lambda: {"argv": to_mat, "stdin": sent},
                         lambda: child_problem(p1))
        index += 1
        if not ok:
            continue
        to_mv = ["convert", "mat2mv", "--algebra", alg]
        dt, p2 = invoke(to_mv, p1.stdout)
        latencies.append(dt)
        tally.check(index, lambda: {"argv": to_mv, "stdin": p1.stdout, "mv2mat_input": sent},
                    lambda: child_problem(p2) or check_round_trip(sent, p2.stdout))
        index += 1
    return latencies


CLI_WORKLOADS = {"verify-cli": verify_cli, "cli-requests": cli_requests}


def convert_warm(seed: int, tally: Tally, extra: list[str]) -> tuple[float, dict]:
    """Run the in-process worker; (wall seconds, its result)."""
    dt, proc = run_child([PY, WORKER, "--seed", str(seed), *extra])
    if proc is not None:
        sys.stderr.write(proc.stderr)
    if proc is None or proc.returncode != 0:
        tally.check(0, lambda: {"argv": extra}, lambda: child_problem(proc))
        return dt, {"latencies": [], "attempted": 0, "failed": 0}
    result = json.loads(proc.stdout.splitlines()[-1])
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    return dt, result


# -- runs --------------------------------------------------------------------


class NothingMeasured(Exception):
    pass


def timed_run(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    if workload == "convert-warm":
        _, result = convert_warm(seed, tally, ["--seconds", str(seconds)])
        latencies, setup = result["latencies"], result.get("setup_samples", [])
    else:
        sampler, plain = SetupSampler(SETUP_CLI, SETUP_SPACING_S, tally), PlainCli()
        start = time.perf_counter()

        def invoke(argv, stdin=None):
            sampler.tick()
            return plain(argv, stdin)

        latencies = CLI_WORKLOADS[workload](
            seed, invoke, tally, lambda _: time.perf_counter() - start < seconds)
        setup = sampler.samples
    if not setup or not latencies:
        raise NothingMeasured(f"{workload}: no operation completed")
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
    }
    info = {"setup_samples": len(setup), "op_samples": len(latencies)}
    for q in (90, 95, 99):
        info[f"op_p{q}_ms"] = 1000 * percentile(latencies, q)
    return metrics, info


def traced_run(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    size = trace_size(workload, seconds)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if workload == "convert-warm":
            plain_s, _ = convert_warm(seed, tally, ["--ops", str(size)])
            out = Path(tmp) / "trace.json"
            traced_s, _ = convert_warm(seed, tally, ["--ops", str(size),
                                                     "--trace-out", str(out)])
            trace = TraceTotals()
            if out.exists():
                trace.add(out)
        else:
            loop = CLI_WORKLOADS[workload]
            plain, traced = PlainCli(), TracedCli(tmp)
            plain_s = sum(loop(seed, plain, tally, lambda i: i < size))
            traced_s = sum(loop(seed, traced, tally, lambda i: i < size))
            trace = traced.trace
            for i, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
                tally.check(i, lambda: {"traced_output_index": i},
                            lambda: None if a == b else "traced stdout differs from untraced")
    metrics = dict(trace.totals)
    metrics["trace.overhead_s"] = traced_s - plain_s
    info = {"trace_size": size, "untraced_s": plain_s, "traced_s": traced_s,
            "missing_targets": sorted(trace.missing)}
    return metrics, info


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "wittkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": commit or None, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="wittkit benchmark")
    p.add_argument("--workload", required=True, choices=("verify-cli", "convert-warm", "cli-requests"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not have_program():
        print(f"perfbench: no wittkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(json.dumps({"meta": metadata(args.workload, args.seed, args.seconds, args.trace)}))
    tally = Tally(args.workload, args.seed)
    run = traced_run if args.trace else timed_run
    try:
        measured, info = run(args.workload, args.seed, args.seconds, tally)
    except NothingMeasured as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    print(json.dumps({"info": info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # A layer the workload never reaches reads 0.
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
