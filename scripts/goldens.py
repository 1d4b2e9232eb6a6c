#!/usr/bin/env python3
"""Write every golden output of the wittkit CLI into OUTDIR.

    python scripts/goldens.py OUTDIR

Each golden is the stdout of one `python -m wittkit.cli` run against the
`src/` tree next to this script.  A run that exits nonzero or writes to
stderr also leaves `<name>.err` with its exit code and stderr.  The set:

  - `verify --suite all` as text and as JSON for seeds 0 and 1;
  - `generate` of every object, variant and size in json, latex and csv;
  - `convert mv2mat` of a dense Q(j) + sqrt(2) multivector, then
    `convert mat2mv` of that matrix, for all six algebras;
  - the same pair for a sparse one, three blades including the top one,
    whose lanes stay on the coordinate tables of g33 and g44 both ways.

Two trees produce the same output exactly when `diff -r` of their OUTDIRs
is empty.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FORMATS = ("json", "latex", "csv")
# the generator squares of each algebra `convert` accepts
ALGEBRAS = {"g11": [1, -1], "g22": [1, -1] * 2, "g33": [1, -1] * 3,
            "g44": [1, -1] * 4, "g13": [1, -1, -1, -1],
            "g13new": [1, -1, -1, -1]}


def generate_commands() -> dict[str, list[str]]:
    """Every generate object at every size and variant the CLI accepts."""
    objects = [("global-witt", ["--n", str(n)]) for n in range(1, 5)]
    objects += [("local-witt", ["--m", str(m)]) for m in range(2, 9)]
    objects += [("spectral", ["--algebra", a]) for a in ALGEBRAS]
    objects += [("omega", ["--variant", v, "--k", str(k)])
                for v in ("plain", "minus", "complex-plain", "complex-minus")
                for k in range(1, 7)]
    objects += [("frame-map", ["--k", str(k)]) for k in (2, 3)]
    objects += [(name, []) for name in
                ("dirac-standard", "dirac-new", "pauli", "c8-table")]
    out = {}
    for obj, params in objects:
        stem = "-".join([obj] + [p.lstrip("-") for p in params])
        for fmt in FORMATS:
            out[f"generate-{stem}.{fmt}"] = ["generate", obj, *params,
                                             "--format", fmt]
    return out


def dense_multivector(squares: list[int]) -> dict:
    """Every blade, with a rational, a j and a sqrt(2) part that vary by mask."""
    m = len(squares)
    terms = []
    for mask in range(1 << m):
        coeff = [{"d": 1, "re": f"{mask % 7 - 3}/{mask % 5 + 1}",
                  "im": str(mask * 3 % 5 - 2)},
                 {"d": 2, "re": f"{mask % 3 - 1}/2"}]
        terms.append({"blade": [i for i in range(m) if mask >> i & 1],
                      "coeff": coeff})
    return {"signature": squares, "terms": terms}


def sparse_multivector(squares: list[int]) -> dict:
    """Blades 1, top - 1 and top, each with a rational, a j and a sqrt(2)
    part that vary by mask: at most 3 2**n nonzeros per lane of its matrix."""
    m = len(squares)
    top = (1 << m) - 1
    terms = [{"blade": [i for i in range(m) if mask >> i & 1],
              "coeff": [{"d": 1, "re": f"{mask % 5 + 1}/3", "im": str(mask % 3 + 1)},
                        {"d": 2, "re": f"{mask % 7 + 1}/4"}]}
             for mask in (1, top - 1, top)]
    return {"signature": squares, "terms": terms}


def run(outdir: Path, name: str, argv: list[str], stdin: str = "") -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WITTKIT_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "wittkit.cli", *argv],
                          input=stdin, capture_output=True, text=True, env=env)
    (outdir / name).write_text(proc.stdout)
    if proc.returncode or proc.stderr:
        (outdir / f"{name}.err").write_text(
            f"exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout if proc.returncode == 0 else ""


def convert_pair(outdir: Path, algebra: str, stem: str, build) -> None:
    mv = json.dumps(build(ALGEBRAS[algebra]))
    mat = run(outdir, f"{stem}-mv2mat.json",
              ["convert", "mv2mat", "--algebra", algebra], mv)
    if mat:
        run(outdir, f"{stem}-mat2mv.json",
            ["convert", "mat2mv", "--algebra", algebra], mat)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    outdir = ap.parse_args().outdir
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = {f"verify-seed{s}.{ext}": ["verify", "--suite", "all", "--seed",
                                      str(s), "--format", fmt]
            for s in (0, 1) for ext, fmt in (("txt", "text"), ("json", "json"))}
    jobs.update(generate_commands())
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run, outdir, name, argv)
                   for name, argv in jobs.items()]
        futures += [pool.submit(convert_pair, outdir, a, f"convert-{a}", dense_multivector)
                    for a in ALGEBRAS]
        futures += [pool.submit(convert_pair, outdir, a, f"convert-{a}-sparse",
                                sparse_multivector) for a in ALGEBRAS]
        for f in futures:
            f.result()
    print(f"wrote {len(list(outdir.iterdir()))} files to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
