"""convert-warm worker: one process builds the five CLI bases once, then
streams seeded multivectors through ``mv_to_matrix`` and ``matrix_to_mv``
and checks that each round trip returns its input exactly.

    python perfbench/convert_worker.py --seed S --seconds T
    python perfbench/convert_worker.py --seed S --ops N [--trace-out FILE]
    python perfbench/convert_worker.py --setup-only

With --seconds the worker also times fresh ``--setup-only`` interpreters
between rounds (the samples behind setup_s).  Runs with the checkout's src/
on PYTHONPATH.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from time import perf_counter

from common import SetupSampler, Tally
from inputs import CONVERT_WARM_ROUND, multivector_json, random_terms, rounds


# One set-up sample (import, five bases, one conversion each: about 0.7 s)
# per this many seconds of the measured window.
SETUP_SPACING_S = 4.0


def build_bases() -> dict:
    """The bases the CLI offers for g22..g44 and both g13 representations,
    each warmed by one conversion so any lazy factorization is done."""
    from wittkit import (Multivector, dirac_spectral_new,
                         dirac_spectral_standard, spectral_basis_nn)
    bases = {"g22": spectral_basis_nn(2), "g33": spectral_basis_nn(3),
             "g44": spectral_basis_nn(4), "g13": dirac_spectral_standard()[0],
             "g13new": dirac_spectral_new().basis}
    for sb in bases.values():
        sb.mv_to_matrix(Multivector.scalar(sb.sig, 1))
    return bases


def stream(bases: dict, seed: int, seconds: float | None, ops: int | None) -> dict:
    from wittkit import Multivector, Scalar
    rng = random.Random(seed)
    tally = Tally("convert-warm", seed)
    latencies: list[float] = []
    round_len = len(CONVERT_WARM_ROUND)
    sampler = None
    if ops is None:
        sampler = SetupSampler([sys.executable, __file__, "--setup-only"],
                               SETUP_SPACING_S, tally)
    start = perf_counter()
    for index, (_, (alg, density, ring)) in enumerate(rounds(CONVERT_WARM_ROUND, rng)):
        if ops is not None:
            if index >= ops:
                break
        elif index % round_len == 0:
            sampler.tick()
            if perf_counter() - start >= seconds:
                break
        sb = bases[alg]
        terms = random_terms(rng, sb.sig.m, density, ring)
        mv = Multivector(sb.sig, {mask: Scalar(dict(c)) for mask, c in terms.items()})

        def op():
            t0 = perf_counter()
            back = sb.matrix_to_mv(sb.mv_to_matrix(mv))
            latencies.append(perf_counter() - t0)
            return None if back == mv else "matrix_to_mv(mv_to_matrix(x)) != x"

        tally.check(index, lambda: {"algebra": alg, "density": density, "ring": ring,
                                    "multivector": multivector_json(sb.sig.squares, terms)},
                    op)
    return {"latencies": latencies,
            "setup_samples": sampler.samples if sampler else [],
            "attempted": tally.attempted, "failed": tally.failed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--ops", type=int)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.setup_only:
        build_bases()
        return 0
    if (args.seconds is None) == (args.ops is None):
        p.error("give exactly one of --seconds and --ops")
    tracer = None
    if args.trace_out:
        import wittkit  # noqa: F401  (import time is not part of the traced set-up)
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        result = stream(build_bases(), args.seed, args.seconds, args.ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump(args.trace_out, {"missing": tracer.missing})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
