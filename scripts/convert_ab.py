#!/usr/bin/env python3
"""In-process A/B of the convert path: parent against the working tree.

    python scripts/convert_ab.py PARENT_REV PAIRS FIRST_SEED --out BENCH_11.json

convert-warm (perfbench/convert_worker.py) builds each input multivector
before its timer starts and times only mv_to_matrix, matrix_to_mv and the
final ==.  A `wittkit convert` request also parses its input and renders
its output, so work moved between the constructor, the maps and to_json
shows in one and not the other.  This script times both windows on the
convert-warm input stream, in one process per side and pair:

  roundtrip     Multivector built untimed from Scalar coefficients, then
                matrix_to_mv(mv_to_matrix(mv)) == mv, as convert-warm does;
  convert_path  Multivector.from_json(doc), mv_to_matrix, matrix_to_mv and
                to_json, the output checked against doc.

Each run does OPS operations (whole convert-warm rounds) after the five
bases are built.  Sides are laid out as in bench_pairs.py (parent exported
with `git archive`, the working tree copied), pair i uses seed
FIRST_SEED + i, odd seeds run the parent first.  The record gets an
"in_process_convert" entry with both sides' quartiles of ops/s (operations
over the summed latencies, as convert-warm's ops_per_s), the pairs the
change wins and the parent's IQR for each window, and the failed counts.
It also splits each side's roundtrip time by input class, the (algebra,
density) of the input: "classes" holds every class's operation count, its
summed seconds in each pair and the median of those sums, and its share of
the side's busy time, so the share a change moves shows; "median_op" holds,
per side and pair, the median roundtrip latency and the classes of the 5%
of operations on either side of it, the operations that set convert-warm's
op_p50_ms.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import copy_tree, export_rev, quartiles

OPS = 45 * 100
WINDOWS = ("roundtrip", "convert_path")


def worker(tree: Path, seed: int) -> dict:
    """OPS convert-warm operations in this process against tree's src/."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import wittkit
    if not Path(wittkit.__file__).is_relative_to(tree):
        sys.exit(f"convert_ab: wittkit imported from {wittkit.__file__}, not from {tree}")
    from wittkit import Multivector, Scalar
    from convert_worker import build_bases
    from inputs import CONVERT_WARM_ROUND, multivector_json, random_terms, rounds

    bases = build_bases()
    rng = random.Random(seed)
    spent = dict.fromkeys(WINDOWS, 0.0)
    ops: list[tuple[float, str]] = []          # (roundtrip latency, class)
    failed = 0
    for index, (_, (alg, density, ring)) in enumerate(rounds(CONVERT_WARM_ROUND, rng)):
        if index >= OPS:
            break
        sb = bases[alg]
        terms = random_terms(rng, sb.sig.m, density, ring)
        doc = multivector_json(sb.sig.squares, terms)
        t0 = perf_counter()
        out = sb.matrix_to_mv(sb.mv_to_matrix(Multivector.from_json(doc, sig=sb.sig))).to_json()
        spent["convert_path"] += perf_counter() - t0
        mv = Multivector(sb.sig, {mask: Scalar(dict(c)) for mask, c in terms.items()})
        t0 = perf_counter()
        same = sb.matrix_to_mv(sb.mv_to_matrix(mv)) == mv
        ops.append((perf_counter() - t0, f"{alg} {density}"))
        spent["roundtrip"] += ops[-1][0]
        failed += (out != doc) + (not same)
    by_class: dict[str, list] = {}
    for latency, cls in ops:
        by_class.setdefault(cls, []).append(latency)
    ops.sort()
    mid, width = len(ops) // 2, max(1, len(ops) // 20)
    around: dict[str, int] = {}
    for _, cls in ops[mid - width:mid + width + 1]:
        around[cls] = around.get(cls, 0) + 1
    return {"ops_per_s": {w: OPS / spent[w] for w in WINDOWS}, "failed": failed,
            "classes": {cls: [len(v), sum(v)] for cls, v in sorted(by_class.items())},
            "median_op": {"ms": ops[mid][0] * 1e3, "classes": around}}


def run_once(tree: Path, seed: int) -> dict:
    argv = [sys.executable, __file__, "--worker", str(tree), str(seed)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"convert_ab: {' '.join(argv)} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        print(json.dumps(worker(Path(argv[1]), int(argv[2]))))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git rev of the parent commit")
    p.add_argument("pairs", type=int)
    p.add_argument("first_seed", type=int)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("quartiles need at least 2 pairs")

    side = ("parent", "change")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    runs = []
    with tempfile.TemporaryDirectory(prefix="convert-ab-") as tmp:
        trees = {s: Path(tmp) / s for s in side}
        for tree in trees.values():
            tree.mkdir()
        commit = export_rev(args.parent, trees["parent"])
        copy_tree(trees["change"])
        for seed in seeds:
            order = side if seed % 2 else side[::-1]
            runs.append({s: run_once(trees[s], seed) for s in order})
            print(f"seed {seed}: " + ", ".join(f"{s} {runs[-1][s]}" for s in order),
                  file=sys.stderr, flush=True)

    windows = {}
    for w in WINDOWS:
        vals = {s: [r[s]["ops_per_s"][w] for r in runs] for s in side}
        parent, change = quartiles(vals["parent"]), quartiles(vals["change"])
        windows[w] = {"parent": parent, "change": change,
                      "change_wins": sum(c > p for p, c in zip(vals["parent"], vals["change"])),
                      "median_ratio": round(change["median"] / parent["median"], 3),
                      "parent_iqr": round(parent["q3"] - parent["q1"], 4)}
    classes = {}
    for s in side:
        busy = [sum(t for _, t in r[s]["classes"].values()) for r in runs]
        classes[s] = {}
        for cls, (count, _) in runs[0][s]["classes"].items():
            sums = [r[s]["classes"][cls][1] for r in runs]
            classes[s][cls] = {
                "ops": count, "seconds": [round(t, 4) for t in sums],
                "median_s": round(statistics.median(sums), 4),
                "busy_share": round(statistics.median(t / b for t, b in zip(sums, busy)), 3)}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["in_process_convert"] = {
        "parent": commit, "command": "python3 scripts/convert_ab.py PARENT PAIRS FIRST_SEED",
        "ops_per_run": OPS, "pairs": len(runs), "seeds": seeds,
        "failed": {s: sum(r[s]["failed"] for r in runs) for s in side},
        "ops_per_s": windows, "classes": classes,
        "median_op": {s: [{"ms": round(r[s]["median_op"]["ms"], 4),
                           "classes": r[s]["median_op"]["classes"]} for r in runs]
                      for s in side}}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
