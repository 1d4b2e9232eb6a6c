"""Seeded inputs for the benchmark workloads.

Multivectors are generated as plain data, ``{mask: {(radicand, imag): Fraction}}``,
and rendered in wittkit's canonical JSON (terms by grade then mask, scalar
terms by radicand), so a round trip through the program can be compared
with the input exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Generator squares of the algebras the CLI accepts for ``convert``.
SIGNATURES = {
    "g11": (1, -1),
    "g22": (1, -1) * 2,
    "g33": (1, -1) * 3,
    "g44": (1, -1) * 4,
    "g13": (1, -1, -1, -1),
    "g13new": (1, -1, -1, -1),
}

DENSITIES = ("dense", "sparse")
RINGS = ("Q", "Qj", "Qj+sqrt")
RADICANDS = (2, 3, 6)

# Closed-loop mixes.  Every round is one pass over the listed items in a
# seeded order, and a run measures whole rounds, so the share of cheap and
# expensive operations is the same for every seed.
CONVERT_WARM_ALGEBRAS = ("g22", "g33", "g44", "g13", "g13new")
# Sparse inputs come twice per round.  With every combination once, the
# median round trip falls between two classes of input whose costs differ
# by 2x and jumps between them from run to run; with 45 items it falls
# inside one class.
CONVERT_WARM_ROUND = [(alg, dens, ring) for alg in CONVERT_WARM_ALGEBRAS
                      for dens in DENSITIES for ring in RINGS
                      for _ in range(2 if dens == "sparse" else 1)]

CLI_GENERATE = (
    ("generate", "spectral", "--algebra", "g33"),
    ("generate", "spectral", "--algebra", "g44"),
    ("generate", "dirac-standard"),
    ("generate", "dirac-new"),
    ("generate", "pauli"),
    ("generate", "omega", "--k", "6", "--format", "csv"),
    ("generate", "frame-map", "--k", "3"),
    ("generate", "c8-table"),
)
CLI_CONVERT_ALGEBRAS = ("g11", "g22", "g33", "g44", "g13", "g13new")
# One dense and one sparse convert pair per algebra: 32 processes a round,
# 5 of them on g44, so p95 falls among the g44 conversions rather than on
# the edge between them and `generate spectral --algebra g44`.
CLI_ROUND = ([("generate", argv) for argv in CLI_GENERATE]
             + [("convert", (alg, dens)) for alg in CLI_CONVERT_ALGEBRAS
                for dens in DENSITIES])


def rounds(items, rng: random.Random):
    """Endless stream of (round index, item), each round a seeded shuffle."""
    r = 0
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            yield r, item
        r += 1


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 8))


def random_coeff(rng: random.Random, ring: str) -> dict:
    """One nonzero exact scalar as ``{(radicand, imag): Fraction}``."""
    terms = {(1, False): _fraction(rng)}
    if ring != "Q":
        terms[(1, True)] = _fraction(rng)
    if ring == "Qj+sqrt":
        d = rng.choice(RADICANDS)
        terms[(d, False)] = _fraction(rng)
        if rng.random() < 0.5:
            terms[(d, True)] = _fraction(rng)
    return terms


def random_terms(rng: random.Random, m: int, density: str, ring: str) -> dict:
    """Blade mask -> coefficient: every blade, or 4 blades of grade 1-2."""
    if density == "dense":
        masks = range(1 << m)
    else:
        low = [k for k in range(1 << m) if 1 <= k.bit_count() <= 2]
        masks = rng.sample(low, min(4, len(low)))
    return {mask: random_coeff(rng, ring) for mask in masks}


def scalar_json(coeff: dict) -> list:
    groups: dict[int, dict] = {}
    for (d, imag), q in sorted(coeff.items()):
        groups.setdefault(d, {"d": d})["im" if imag else "re"] = str(q)
    return [groups[d] for d in sorted(groups)]


def multivector_json(squares, terms: dict) -> dict:
    m = len(squares)
    return {"signature": list(squares),
            "terms": [{"blade": [i for i in range(m) if mask >> i & 1],
                       "coeff": scalar_json(terms[mask])}
                      for mask in sorted(terms, key=lambda k: (k.bit_count(), k))]}
