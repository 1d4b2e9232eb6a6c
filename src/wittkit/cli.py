"""Command-line front end.

Three subcommands:

  generate  emit a constructed object (bases, sign matrices, coordinate
            matrices) as JSON, LaTeX, or CSV
  convert   exact multivector <-> coordinate-matrix conversion through a
            named spectral basis, JSON on stdin/stdout
  verify    run named identity suites and print a report

Each response is rendered in full and written in one piece.  Exit codes: 0 pass,
1 verification failure or stdout closed early (any format, buffered or not), 2 bad
input, 3 unsupported conversion.  CONFLICT entries never affect the exit code.  The
default seed for randomized checks is 0; WITTKIT_SEED overrides it when --seed is absent.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys

# each command imports the modules it runs, so a process compiles no other
from .errors import (ExtractorUnavailableError, RangeError,
                     SignatureMismatchError, UnsupportedError)

_GENERATE_OBJECTS = ("global-witt", "local-witt", "spectral", "omega",
                     "dirac-standard", "dirac-new", "pauli", "frame-map",
                     "c8-table")
_ALGEBRAS = ("g11", "g22", "g33", "g44", "g13", "g13new")
_VARIANTS = ("plain", "minus", "complex-plain", "complex-minus")
# verify.SUITES, by name: parsing --suite imports no suite
_SUITES = ("table1", "witt-global", "witt-local", "omega", "dirac", "pauli",
           "negative-g12")


def _emit(text: str) -> None:
    """Write text to stdout, encoded once, until the binary layer has taken every byte:
    a write-through text layer (PYTHONUNBUFFERED) drops the rest of a short write."""
    if hasattr(out := sys.stdout, "buffer"):
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[out.buffer.write(data):]
    else:                                # a StringIO, in tests
        out.write(text)


def _basis(name: str):
    if name in ("g11", "g22", "g33", "g44"):
        from .witt_global import spectral_basis_nn
        return spectral_basis_nn(int(name[1]))
    # the basis alone: its trace table is built on the first mv_to_matrix
    from .dirac import _standard_basis, dirac_frame, new_witt_pair
    if name == "g13":
        return _standard_basis(dirac_frame())
    from .witt_global import SpectralBasis
    return SpectralBasis(*new_witt_pair(dirac_frame())[1:])


def _labeled_family(fmt: str, labels_mvs, header: dict, key: str):
    """The json payload, latex lines or csv rows of (label, multivector) pairs."""
    if fmt == "json":
        return {**header, key: [{"label": lab, "multivector": mv.to_json()}
                                for lab, mv in labels_mvs]}
    if fmt == "latex":
        return [f"{lab} = {mv.latex()}" for lab, mv in labels_mvs]
    return [["label", "multivector"]] + [[lab, str(mv)] for lab, mv in labels_mvs]


def _matrix_family(fmt: str, labels_mats, header: dict):
    """The json payload, latex lines or csv rows of (label, matrix) pairs."""
    if fmt == "json":
        return {**header, "matrices": [{"label": lab, "matrix": m.to_json()}
                                       for lab, m in labels_mats]}
    if fmt == "latex":
        return [f"[{lab}] = {m.latex()}" for lab, m in labels_mats]
    return [[lab] + [str(e) for e in row]
            for lab, m in labels_mats for row in m.entries]


def cmd_generate(args) -> int:
    """Build the object, then render only the requested format."""
    fmt, obj = args.format, args.object
    if obj == "global-witt":
        from .witt_global import make_global_witt
        w = make_global_witt(args.n)
        pairs = [(f"a{i+1}", g) for i, g in enumerate(w.a)] + \
                [(f"b{i+1}", g) for i, g in enumerate(w.b)]
        out = _labeled_family(fmt, pairs,
                              {"n": w.n, "signature": list(w.sig.squares)},
                              "family")
    elif obj == "local-witt":
        from .witt_local import make_local_witt
        w = make_local_witt(args.m)
        pairs = [(f"c{i+1}", g) for i, g in enumerate(w.c)]
        out = _labeled_family(fmt, pairs,
                              {"m": w.m, "signature": list(w.sig.squares)},
                              "family")
    elif obj == "spectral":
        sb = _basis(args.algebra)
        if fmt == "csv":
            out = [[str(e) for e in row] for row in sb.E]
        else:
            out = sb.to_json() if fmt == "json" else [sb.latex()]
    elif obj == "omega":
        from .omega import omega
        w = omega(args.k, args.variant)
        if fmt == "csv":
            _emit(w.to_csv())
            return 0
        out = w.to_json() if fmt == "json" else [w.latex()]
    elif obj == "dirac-standard":
        from .dirac import dirac_frame, dirac_spectral_standard
        sb, mats = dirac_spectral_standard()
        fr = dirac_frame()
        named = [(f"gamma{mu}", mats[mu]) for mu in range(4)]
        named += [(f"e{k+1}", sb.mv_to_matrix(fr.rest[k])) for k in range(3)]
        named.append(("e123", sb.mv_to_matrix(fr.pseudoscalar)))
        out = _matrix_family(fmt, named,
                             {"algebra": "g13", "representation": "standard"})
    elif obj == "dirac-new":
        from .dirac import dirac_spectral_new, new_rep_extra_matrices
        nd = dirac_spectral_new()
        extra = new_rep_extra_matrices(nd)
        named = [(f"gamma{mu}", nd.gamma_mats[mu]) for mu in range(4)]
        named += [(lab, extra[lab]) for lab in
                  ("a1", "a2", "b1", "b2", "e1", "e2", "e3")]
        out = _matrix_family(fmt, named,
                             {"algebra": "g13", "representation": "new"})
    elif obj == "pauli":
        from .dirac import pauli_spectral
        _, mats = pauli_spectral()
        if fmt == "latex":    # subscripted labels [e_1], unlike json/csv
            out = [f"[e_{k+1}] = {m.latex()}" for k, m in enumerate(mats)]
        else:
            out = _matrix_family(fmt, [(f"e{k+1}", m) for k, m in enumerate(mats)],
                                 {"algebra": "g3"})
    elif obj == "frame-map":
        from .witt_local import hadamard_identification
        fm = hadamard_identification(args.k)
        if fmt == "csv":
            out = [["scales"] + [str(s) for s in fm.scales]]
            out += [["sign-row"] + [str(e) for e in row] for row in fm.signs]
            out += [[lab, str(t)] for lab, t in zip(fm.target_labels, fm.targets)]
        else:
            out = fm.to_json() if fmt == "json" else [fm.latex()]
    else:  # c8-table
        from .witt_local import c8_complex_table
        tab = c8_complex_table()
        out = _labeled_family(fmt, tab.rows(),
                              {"m": 8, "signature": list(tab.witt.sig.squares)},
                              "entries")

    if fmt == "json":
        _emit(json.dumps(out, indent=2) + "\n")
    elif fmt == "latex":
        _emit("\n".join(out) + "\n")
    else:
        import csv
        csv.writer(text := io.StringIO()).writerows(out)
        _emit(text.getvalue())
    return 0


def cmd_convert(args) -> int:
    try:
        data = json.loads(sys.stdin.read())
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the parser goes
        print(f"wittkit: invalid JSON input: {exc}", file=sys.stderr)
        return 2
    sb = _basis(args.algebra)
    if args.direction == "mv2mat":
        from .ga import Multivector
        out = sb.mv_to_matrix(Multivector.from_json(data, sig=sb.sig))
    else:
        from .witt_global import MvMatrix
        mat = MvMatrix.from_json(data)
        if mat.dim != sb.dim:
            raise ValueError(f"matrix dim {mat.dim} does not match basis dim {sb.dim}")
        out = sb.matrix_to_mv(mat)
    _emit(json.dumps(out.to_json(), indent=2) + "\n")
    return 0


def _integer(name: str, raw: str) -> int:
    """The integer option name spelled raw: ASCII digits with an optional
    "-", the rule scalars._exact applies to coefficient strings.  int()
    alone would also take "1_0", " 2", "+3" and digits such as "\u0663"."""
    if not re.fullmatch(r"-?[0-9]+", raw):
        raise ValueError(f"{name} {raw!r} is not an integer of the form -?[0-9]+")
    return int(raw)


def cmd_verify(args) -> int:
    # --seed, else WITTKIT_SEED, else 0
    seed = (_integer("--seed", args.seed) if args.seed is not None
            else _integer("WITTKIT_SEED", os.environ.get("WITTKIT_SEED", "0")))
    from .verify import run_all, run_suite
    if args.suite == "all":
        reports = run_all(seed=seed, samples=args.samples)
    else:
        reports = [run_suite(args.suite, seed=seed, samples=args.samples)]
    summary = {"pass": sum(r.n_pass for r in reports),
               "fail": sum(r.n_fail for r in reports),
               "conflict": sum(r.n_conflict for r in reports)}
    if args.format == "json":
        _emit(json.dumps({"seed": seed, "samples": args.samples,
                          "reports": [r.to_json() for r in reports],
                          "summary": summary}, indent=2) + "\n")
    else:
        _emit("".join(f"{r.format_text()}\n" for r in reports) +
              f"TOTAL {sum(len(r.checks) for r in reports)} checks: " +
              "{pass} pass, {fail} fail, {conflict} conflict\n".format(**summary))
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wittkit",
        description="Exact Witt/spectral basis toolkit for Clifford algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a constructed object")
    gen.add_argument("object", choices=_GENERATE_OBJECTS)
    gen.add_argument("--format", choices=("json", "latex", "csv"),
                     default="json")
    gen.add_argument("--algebra", choices=_ALGEBRAS, default="g11")
    gen.add_argument("--k", default="2",
                     help="recursion depth for omega / frame-map")
    gen.add_argument("--n", default="2",
                     help="pair count for global-witt")
    gen.add_argument("--m", default="4",
                     help="generator count for local-witt")
    gen.add_argument("--variant", choices=_VARIANTS, default="plain")

    conv = sub.add_parser("convert",
                          help="multivector <-> matrix JSON conversion")
    conv.add_argument("direction", choices=("mv2mat", "mat2mv"))
    conv.add_argument("--algebra", choices=_ALGEBRAS, default="g11")

    ver = sub.add_parser("verify", help="run identity suites")
    ver.add_argument("--suite", choices=("all",) + _SUITES,
                     default="all")
    ver.add_argument("--seed", default=None)
    ver.add_argument("--samples", default="100",
                     help="sampled operand pairs per randomized check, 1..10000")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the integer options reach the parser as strings
        for flag in ("k", "n", "m", "samples"):
            if hasattr(args, flag):
                setattr(args, flag, _integer(f"--{flag}", getattr(args, flag)))
        code = {"generate": cmd_generate, "convert": cmd_convert,
                "verify": cmd_verify}[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`): the rest of the
        # output, flushed again at exit, goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ExtractorUnavailableError, UnsupportedError) as exc:
        if args.command == "convert":
            print(f"wittkit: unsupported conversion: {exc}", file=sys.stderr)
            return 3
        print(f"wittkit: {exc}", file=sys.stderr)
        return 2
    except (RangeError, SignatureMismatchError, ValueError, KeyError) as exc:
        print(f"wittkit: bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
