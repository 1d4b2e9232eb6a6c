"""Shared pieces of the benchmark: paths, child environment, statistics and
the failure tally."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One operation may not run longer than this; a hung child counts as failed.
OP_TIMEOUT_S = 120


def have_program() -> bool:
    return (SRC / "wittkit" / "cli.py").is_file()


def child_env() -> dict:
    """Environment for every child: the checkout's own src/ and no
    WITTKIT_SEED, so the caller's environment cannot change the workload."""
    env = dict(os.environ)
    env.pop("WITTKIT_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, stdin: str | None = None) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run a child to completion; (wall seconds, result or None on timeout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, proc


def child_problem(proc, expect_code: int = 0) -> str | None:
    """Exit-code and traceback checks shared by every CLI operation."""
    if proc is None:
        return f"timed out after {OP_TIMEOUT_S} s"
    if proc.returncode != expect_code:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    if "Traceback" in proc.stderr:
        return "traceback on stderr: " + proc.stderr.strip()[-400:]
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Counts attempted and failed operations.  A failure is printed with
    what is needed to replay it and never stops the run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def check(self, index: int, describe, check) -> bool:
        """Run ``check()``, which returns a problem string or None.
        ``describe()`` gives the operation's input, for the replay line."""
        self.attempted += 1
        try:
            problem = check()
        except Exception as exc:  # a broken output must not end the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem is None:
            return True
        self.failed += 1
        print(json.dumps({"FAILED": problem, "workload": self.workload,
                          "seed": self.seed, "op_index": index,
                          "input": describe()}), file=sys.stderr)
        return False


class SetupSampler:
    """Times fresh interpreters doing the benchmark's set-up, spread over the
    measured window: one sample at the start and then one per ``spacing``
    seconds, taken between operations.  On a shared machine the speed can
    drift within seconds, so a burst of samples at one moment would not
    represent the run.
    """

    def __init__(self, argv, spacing: float, tally: Tally):
        self.argv = argv
        self.spacing = spacing
        self.tally = tally
        self.samples: list[float] = []
        self.start = time.perf_counter()
        self.due = 0.0
        run_child(argv)  # warm-up: byte-compiles the checkout once

    def tick(self) -> None:
        """Take every sample that has fallen due; call between operations."""
        while time.perf_counter() - self.start >= self.due:
            index = round(self.due / self.spacing)
            dt, proc = run_child(self.argv)
            if self.tally.check(index, lambda: {"setup": self.argv[1:]},
                                lambda: child_problem(proc)):
                self.samples.append(dt)
            self.due += self.spacing
