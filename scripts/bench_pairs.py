#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as a BENCH_<n>.json record.

    python scripts/bench_pairs.py PARENT_REV WORKLOAD PAIRS FIRST_SEED \\
        --out BENCH_11.json [--claim ops_per_s]

The parent's src/, perfbench/ and BENCHMARK.json are exported with
`git archive PARENT_REV` into a temp dir, and the working tree's copies of
the same paths into another, so each side runs from its own copy.  Pair i
runs `python3 perfbench/run.py --workload WORKLOAD --seed FIRST_SEED + i
--seconds 35 --trace 0` once per side: odd seeds parent first, even seeds
change first.  35 s is the run length of the protocol in
perfbench/README.md, so every record compares runs of one length.  For
every end-to-end metric of the workload the record holds both sides'
quartiles (statistics.quantiles, method 'inclusive'), the pairs the change
wins, the ratio of the medians and the parent's IQR, plus the attempted and
failed operation counts; "runs" lists every run, pair by pair, with its
seed, the side that ran first, and each side's metric values and counts.
The machine line records the Python version, the usable cores,
PYTHONDONTWRITEBYTECODE, which decides whether each fresh child compiles
src/ again, and PYTHONUNBUFFERED, which decides whether each write to a
child's stdout is a system call of its own.  An existing --out file keeps
its other workloads and its other keys (such as a hand-written "change"
line), so one file can collect several runs of this script.  --claim
METRIC marks METRIC of WORKLOAD as claimed: met when the change wins at
least 9 of 10 pairs (rounded up) and the medians differ, in the better
direction, by more than the parent's IQR.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = ("src", "perfbench", "BENCHMARK.json")
SECONDS = 35


def export_rev(rev: str, dest: Path) -> str:
    """The rev's PATHS, extracted under dest; returns the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit, *PATHS],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")
    return commit


def copy_tree(dest: Path) -> None:
    """The working tree's PATHS, copied under dest without build leftovers."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in PATHS:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in tree: its last stdout line, the result object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {tree} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], seeds: list[int], spec: list[dict]) -> dict:
    """The workload entry of the record from runs [{parent, change}, ...]."""
    side = ("parent", "change")
    metrics = {}
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        vals = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in side}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        parent, change = quartiles(vals["parent"]), quartiles(vals["change"])
        metrics[name] = {
            "better": m["better"], "parent": parent, "change": change, "change_wins": wins,
            "median_ratio": round(change["median"] / parent["median"], 3),
            "parent_iqr": round(parent["q3"] - parent["q1"], 4)}
    listed = [{"seed": seed, "first": "parent" if seed % 2 else "change",
               **{s: {"attempted": r[s]["attempted"], "failed": r[s]["failed"],
                      **{m["name"]: round(r[s]["metrics"][m["name"]]["value"], 6)
                         for m in spec}} for s in side}}
              for seed, r in zip(seeds, runs)]
    return {"pairs": len(runs), "seeds": seeds,
            "failed": {s: sum(r[s]["failed"] for r in runs) for s in side},
            "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in side},
            "metrics": metrics, "runs": listed}


def claim_met(entry: dict, metric: str) -> bool:
    m = entry["metrics"][metric]
    diff = m["change"]["median"] - m["parent"]["median"]
    if m["better"] == "lower":
        diff = -diff
    return m["change_wins"] * 10 >= 9 * entry["pairs"] and diff > m["parent_iqr"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git rev of the parent commit")
    p.add_argument("workload", choices=("verify-cli", "convert-warm", "cli-requests"))
    p.add_argument("pairs", type=int)
    p.add_argument("first_seed", type=int)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--claim", metavar="METRIC")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("quartiles need at least 2 pairs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        commit = export_rev(args.parent, trees["parent"])
        copy_tree(trees["change"])
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {s: run_once(trees[s], args.workload, seed) for s in order}
            runs.append(pair)
            print(f"seed {seed}: " + ", ".join(
                f"{s} {json.dumps({k: round(v['value'], 4) for k, v in pair[s]['metrics'].items()})}"
                for s in order), file=sys.stderr, flush=True)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({
        "parent": commit,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "method": (f"{args.pairs} pairs per workload on consecutive seeds, odd seeds parent "
                   "first, even seeds change first; parent and change each run from their "
                   "own copy of src/, perfbench/ and BENCHMARK.json; a pair is won when the "
                   "change's value is better; quartiles by "
                   "statistics.quantiles(method='inclusive')"),
        # the children inherit these: import cost depends on whether they may
        # cache bytecode, output cost on whether their stdout is buffered
        "machine": f"Python {platform.python_version()}, "
                   f"{len(os.sched_getaffinity(0))} usable cores, " + ", ".join(
                       f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"))})
    entry = summarize(runs, seeds, spec)
    record.setdefault("workloads", {})[args.workload] = entry
    if args.claim:
        record["claim"] = {"workload": args.workload, "metric": args.claim,
                           "met": claim_met(entry, args.claim)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
