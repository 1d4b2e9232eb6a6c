"""Exact checks of wittkit's outputs, written without wittkit.

Each check returns None when the output is right and a one-line problem
otherwise.  Scalars are parsed from wittkit's JSON into
``{(radicand, imag): Fraction}`` and multiplied here, so a check does not
trust the arithmetic it is checking.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

EXPECTED_VERIFY = json.loads((Path(__file__).parent / "expected_verify.json").read_text())


# -- exact scalars -----------------------------------------------------------


def parse_scalar(data) -> dict:
    out = {}
    for term in data:
        for part, imag in (("re", False), ("im", True)):
            if part in term:
                out[(term["d"], imag)] = Fraction(term[part])
    return {k: v for k, v in out.items() if v}


def s_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def s_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for (d1, i1), q1 in x.items():
        for (d2, i2), q2 in y.items():
            g = gcd(d1, d2)
            q = q1 * q2 * g
            if i1 and i2:
                q = -q
            key = ((d1 // g) * (d2 // g), i1 != i2)
            out[key] = out.get(key, 0) + q
    return {k: v for k, v in out.items() if v}


def m_mul(a, b):
    n = len(a)
    return [[_sum(s_mul(a[i][k], b[k][j]) for k in range(n)) for j in range(n)]
            for i in range(n)]


def _sum(xs) -> dict:
    acc: dict = {}
    for x in xs:
        acc = s_add(acc, x)
    return acc


def _parse_matrix(data) -> list:
    n = data["dim"]
    rows = [[parse_scalar(e) for e in row] for row in data["entries"]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix shape does not match dim")
    return rows


# -- verify ------------------------------------------------------------------


def check_verify(stdout: str, seed: int) -> str | None:
    """135 pass / 0 fail / 2 conflict, the expected check ids and conflicts,
    and a summary that agrees with the rows."""
    doc = json.loads(stdout)
    if doc.get("seed") != seed:
        return f"report seed {doc.get('seed')} != {seed}"
    if doc["summary"] != EXPECTED_VERIFY["summary"]:
        return f"summary {doc['summary']} != {EXPECTED_VERIFY['summary']}"
    if [r["suite"] for r in doc["reports"]] != EXPECTED_VERIFY["suites"]:
        return "suite list differs"
    rows = [c for r in doc["reports"] for c in r["checks"]]
    if sorted(c["id"] for c in rows) != sorted(EXPECTED_VERIFY["ids"]):
        return "check ids differ from the expected 137"
    conflicts = sorted(c["id"] for c in rows if c["status"] == "CONFLICT")
    if conflicts != sorted(EXPECTED_VERIFY["conflicts"]):
        return f"conflict rows {conflicts}"
    bad = [c["id"] for c in rows if c["status"] not in ("PASS", "CONFLICT")]
    if bad:
        return f"rows not passing: {bad[:5]}"
    return None


# -- convert -----------------------------------------------------------------


def check_round_trip(sent: dict, back_stdout: str) -> str | None:
    back = json.loads(back_stdout)
    return None if back == sent else "mat2mv(mv2mat(x)) != x"


# -- generate (the first output of each command) -----------------------------


def _check_spectral(doc: dict, n: int) -> str | None:
    """2**n x 2**n matrix units whose diagonal sums to the scalar 1."""
    dim = 1 << n
    if doc["dim"] != dim or len(doc["entries"]) != dim:
        return f"spectral dim {doc['dim']} != {dim}"
    acc: dict = {}
    for i, row in enumerate(doc["entries"]):
        if len(row) != dim:
            return "spectral row length differs from dim"
        for term in row[i]["terms"]:
            blade = tuple(term["blade"])
            acc[blade] = s_add(acc.get(blade, {}), parse_scalar(term["coeff"]))
    acc = {b: c for b, c in acc.items() if c}
    return None if acc == {(): {(1, False): 1}} else "sum of E[i][i] is not 1"


def _check_gammas(doc: dict) -> str | None:
    """gamma_mu gamma_nu + gamma_nu gamma_mu = 2 eta_mu_nu, eta = (+,-,-,-)."""
    mats = {m["label"]: _parse_matrix(m["matrix"]) for m in doc["matrices"]}
    gam = [mats[f"gamma{mu}"] for mu in range(4)]
    n = len(gam[0])
    for mu in range(4):
        for nu in range(mu, 4):
            ab, ba = m_mul(gam[mu], gam[nu]), m_mul(gam[nu], gam[mu])
            want = 0 if mu != nu else (2 if mu == 0 else -2)
            for i in range(n):
                for j in range(n):
                    got = s_add(ab[i][j], ba[i][j])
                    exp = {(1, False): Fraction(want)} if i == j and want else {}
                    if got != exp:
                        return f"gamma{mu} gamma{nu} anticommutator is wrong"
    return None


def _as_int(x: dict):
    """The integer an exact scalar equals, or None."""
    if not x:
        return 0
    q = x.get((1, False))
    return int(q) if x.keys() == {(1, False)} and q.denominator == 1 else None


def _orthogonal_sign_rows(rows) -> bool:
    """Rows of +-1 entries, pairwise orthogonal, each of squared length n."""
    n = len(rows)
    if any(len(r) != n or any(e not in (1, -1) for e in r) for r in rows):
        return False
    return all(sum(a * b for a, b in zip(rows[i], rows[j])) == (n if i == j else 0)
               for i in range(n) for j in range(i, n))


def check_generate(argv, stdout: str) -> str | None:
    """Checks of a generate output; the output must not be empty."""
    if not stdout.strip():
        return "empty output"
    obj = argv[1]
    if obj == "omega":  # --k 6 --format csv: a Hadamard matrix of order 64
        rows = [[int(x) for x in r] for r in csv.reader(io.StringIO(stdout))]
        return None if len(rows) == 64 and _orthogonal_sign_rows(rows) else \
            "omega k=6 is not a +-1 matrix with orthogonal rows"
    doc = json.loads(stdout)
    if obj == "spectral":
        return _check_spectral(doc, int(argv[3][1]))
    if obj in ("dirac-standard", "dirac-new"):
        return _check_gammas(doc)
    if obj == "pauli":
        dims = [m["matrix"]["dim"] for m in doc["matrices"]]
        return None if dims == [2, 2, 2] else f"pauli matrix dims {dims}"
    if obj == "frame-map":  # --k 3
        signs = [[_as_int(parse_scalar(e)) for e in row] for row in doc["signs"]]
        ok = len(doc["rows"]) == 8 and _orthogonal_sign_rows(signs)
        return None if ok else "frame-map sign matrix is not an order-8 +-1 orthogonal matrix"
    if obj == "c8-table":
        ok = doc["m"] == 8 and len(doc["signature"]) == 8 and len(doc["entries"]) == 8
        return None if ok else "c8-table shape differs"
    return f"no check for {obj}"
