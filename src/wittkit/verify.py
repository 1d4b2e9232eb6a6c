"""Named verification suites over the whole identity catalogue.

Each suite produces a VerifyReport: a sorted list of (check id, anchor,
status, detail) rows plus counts.  Status is PASS or FAIL, with CONFLICT
reserved for exactly two checks whose tabulated source values are known to
disagree with the defining construction; those carry the corrected value in
their detail and do not affect the exit status.  A failing relation row
names the relations that fail in its detail.  A suite that raises (a failed
certificate, say) is one FAIL row, <suite>-setup, naming the error.

Randomized checks draw rational coefficients with numerator and denominator
bounded by 9 from a seeded generator, so reports are reproducible.  Every
coordinate-map check of one basis runs on the same sampled operands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dirac import (dirac_frame, dirac_idempotents,
                    dirac_spectral_new, dirac_spectral_standard,
                    g11_embedding_check, gamma_anticommutation_check,
                    idempotent_orders_agree, intertwining_relations,
                    new_border_form, new_rep_extra_matrices,
                    pauli_impostor_check, pauli_spectral,
                    pseudoscalar_anticommutes)
from .errors import RangeError
from .ga import Multivector, gp, reverse
from .omega import OmegaVariant, bareiss_det, det_omega, fast_apply, gram_check, omega
from .scalars import Scalar
from .witt_global import (CentralMatrix, MvMatrix, SpectralBasis, border,
                          check_duality_relations, make_global_witt,
                          spectral_basis_nn)
from .witt_local import (c8_complex_table, check_frame_relations,
                         check_local_relations, complex_identification_g22,
                         ef_from_c, hadamard_identification, make_local_witt,
                         no_identification_g12, pseudoscalar_identity)

PASS = "PASS"
FAIL = "FAIL"
CONFLICT = "CONFLICT"


@dataclass(frozen=True)
class Check:
    check_id: str
    anchor: str
    status: str
    detail: str = ""


@dataclass
class VerifyReport:
    suite: str
    checks: list[Check]

    def __post_init__(self):
        self.checks = sorted(self.checks, key=lambda c: c.check_id)

    @property
    def n_pass(self) -> int:
        return sum(c.status == PASS for c in self.checks)

    @property
    def n_fail(self) -> int:
        return sum(c.status == FAIL for c in self.checks)

    @property
    def n_conflict(self) -> int:
        return sum(c.status == CONFLICT for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def to_json(self) -> dict:
        return {"suite": self.suite,
                "checks": [{"id": c.check_id, "anchor": c.anchor,
                            "status": c.status, "detail": c.detail}
                           for c in self.checks],
                "summary": {"pass": self.n_pass, "fail": self.n_fail,
                            "conflict": self.n_conflict}}

    def format_text(self) -> str:
        lines = [f"suite {self.suite}"]
        for c in self.checks:
            line = f"  [{c.status}] {c.check_id}  ({c.anchor})"
            if c.detail:
                line += f"  -- {c.detail}"
            lines.append(line)
        lines.append(f"  {self.n_pass} pass, {self.n_fail} fail, "
                     f"{self.n_conflict} conflict")
        return "\n".join(lines)


def _ck(check_id: str, anchor: str, ok: bool, detail: str = "") -> Check:
    return Check(check_id, anchor, PASS if ok else FAIL, detail)


def _ck_relations(check_id: str, anchor: str, failing: list[str],
                  detail: str = "") -> Check:
    """PASS with detail when no relation fails, else FAIL naming the failures."""
    if failing:
        return Check(check_id, anchor, FAIL, "; ".join(failing))
    return Check(check_id, anchor, PASS, detail)


# lcm(1, ..., 9): a draw p/q with 1 <= q <= 9 is the int p * (DRAW_DEN // q)
# over it, so sampling builds no Fraction
DRAW_DEN = 2520


def _draw(rng: random.Random, count: int, complex_: bool) -> dict:
    """count random coefficients p/q as {key: {index: numerator over
    DRAW_DEN}}, index by index: the rational part first, then the j part
    when complex_, p before q.  p and q are what rng.randint(-9, 9) and
    rng.randint(1, 9) return, by randint's own rejection loop on
    getrandbits: 5 bits for the 19 values of p, 4 for the 9 of q."""
    bits, acc = rng.getrandbits, {}
    keys = ((1, False), (1, True))[:1 + complex_]
    for i in range(count):
        for key in keys:
            p = bits(5)
            while p >= 19:
                p = bits(5)
            q = bits(4)
            while q >= 9:
                q = bits(4)
            acc.setdefault(key, {})[i] = (p - 9) * (DRAW_DEN // (q + 1))
    return acc


def random_scalar(rng: random.Random, complex_: bool = False) -> Scalar:
    return Scalar({k: Fraction(v[0], DRAW_DEN)
                   for k, v in _draw(rng, 1, complex_).items() if v[0]})


def random_multivector(sig, rng: random.Random,
                       complex_: bool = False) -> Multivector:
    # one draw per mask in ascending order, so seeded reports stay fixed
    return Multivector._of_sums(sig, _draw(rng, sig.dim, complex_), DRAW_DEN)


def _sample_pairs(sig, rng: random.Random, samples: int,
                  complex_: bool = False) -> list[tuple[Multivector, Multivector]]:
    """samples random operand pairs (g, h), g drawn before h."""
    return [(random_multivector(sig, rng, complex_),
             random_multivector(sig, rng, complex_)) for _ in range(samples)]


def _ck_homomorphism(check_id: str, basis: SpectralBasis, pairs) -> Check:
    """[g h] = [g][h] under the coordinate map, for every sampled pair."""
    to_mat = basis.mv_to_matrix
    ok = all(to_mat(gp(g, h)) == to_mat(g).matmul(to_mat(h)) for g, h in pairs)
    return _ck(check_id, "product preserved by coordinate map", ok,
               f"{len(pairs)} random pairs")


# -- table 1 ---------------------------------------------------------------

_TABLE1 = {
    ("a", "a"): "0", ("a", "b"): "ab", ("a", "ab"): "0", ("a", "ba"): "a",
    ("b", "a"): "ba", ("b", "b"): "0", ("b", "ab"): "b", ("b", "ba"): "0",
    ("ab", "a"): "a", ("ab", "b"): "0", ("ab", "ab"): "ab", ("ab", "ba"): "0",
    ("ba", "a"): "0", ("ba", "b"): "b", ("ba", "ab"): "0", ("ba", "ba"): "ba",
}


def suite_table1(seed: int = 0, samples: int = 100) -> VerifyReport:
    w = make_global_witt(1)
    a, b = w.a[0], w.b[0]
    elems = {"a": a, "b": b, "ab": gp(a, b), "ba": gp(b, a),
             "0": Multivector.zero(w.sig)}
    checks = []
    for (x, y), want in _TABLE1.items():
        checks.append(_ck(f"table1-{x}-{y}", "nilpotent pair product table",
                          gp(elems[x], elems[y]) == elems[want]))
    return VerifyReport("table1", checks)


# -- global witt / spectral ------------------------------------------------


def _expected_array_n1():
    w = make_global_witt(1)
    a, b = w.a[0], w.b[0]
    return [[gp(b, a), b], [a, gp(a, b)]]


def _expected_array_n2():
    w = make_global_witt(2)
    a1, a2 = w.a
    b1, b2 = w.b
    u1, u2 = gp(b1, a1), gp(b2, a2)
    r1, r2 = reverse(u1), reverse(u2)
    return [
        [gp(u1, u2), gp(b1, u2), gp(b2, u1), gp(b2, b1)],
        [gp(a1, u2), gp(r1, u2), gp(a1, b2), -gp(b2, r1)],
        [gp(a2, u1), gp(a2, b1), gp(u1, r2), gp(b1, r2)],
        [gp(a1, a2), -gp(a2, r1), gp(a1, r2), gp(r1, r2)],
    ]


def suite_witt_global(seed: int = 0, samples: int = 100) -> VerifyReport:
    checks = []
    for n in range(1, 5):
        w = make_global_witt(n)
        checks.append(_ck_relations(f"global-n{n}-relations",
                                    "dual family relations",
                                    check_duality_relations(w.a, w.b)))
    bases = {n: spectral_basis_nn(n) for n in range(1, 5)}
    for n, sb in bases.items():
        one = Multivector.scalar(sb.sig, 1)
        checks.append(_ck(f"spectral-n{n}-identity-sum",
                          "diagonal idempotents sum to 1",
                          sb.identity_sum() == one))
    for n in (1, 2):
        checks.append(_ck(f"spectral-n{n}-matrix-units", "matrix-unit law",
                          bases[n].matrix_unit_law()))
    rng = random.Random(seed)
    for n in (3, 4):
        dim = bases[n].dim
        quads = [(rng.randrange(dim), rng.randrange(dim),
                  rng.randrange(dim), rng.randrange(dim)) for _ in range(100)]
        checks.append(_ck(f"spectral-n{n}-matrix-units", "matrix-unit law",
                          bases[n].matrix_unit_law(quads),
                          "100 sampled index quadruples"))
    checks.append(_ck("spectral-n1-array", "tabulated array entries",
                      bases[1].E == _expected_array_n1()))
    checks.append(_ck("spectral-n2-array", "tabulated array entries",
                      bases[2].E == _expected_array_n2()))

    # the (1, e) border produces the hyperbolic idempotent form
    w = make_global_witt(1)
    e = w.a[0] + w.b[0]
    one = Multivector.scalar(w.sig, 1)
    u_plus = gp(w.b[0], w.a[0])
    u_minus = one - u_plus
    alt = border([one, e], u_plus, [one, e])
    expected = [[u_plus, gp(e, u_minus)], [gp(e, u_plus), u_minus]]
    checks.append(_ck("spectral-n1-alt-border", "idempotent border change",
                      alt == expected))

    for n in (1, 2):
        sb = bases[n]
        pairs = _sample_pairs(sb.sig, rng, samples)
        checks.append(_ck_homomorphism(f"iso-g{n}{n}-homomorphism", sb, pairs))
        checks.append(_ck(f"iso-g{n}{n}-roundtrip", "coordinate map bijective",
                          all(sb.matrix_to_mv(sb.mv_to_matrix(g)) == g
                              for g, _ in pairs)))
    return VerifyReport("witt-global", checks)


# -- local witt ------------------------------------------------------------


def suite_witt_local(seed: int = 0, samples: int = 100) -> VerifyReport:
    checks = []
    for m in range(2, 9):
        w = make_local_witt(m)
        checks.append(_ck_relations(f"local-m{m}-relations",
                                    "local duality relations",
                                    check_local_relations(w)))
        frame = ef_from_c(w)
        gens = [Multivector.generator(w.sig, i) for i in range(m)]
        failing = check_frame_relations(frame, [1] + [-1] * (m - 1))
        if frame != gens:
            failing.append("frame = generators")
        checks.append(_ck_relations(f"local-m{m}-frame", "frame recovery",
                                    failing))
    for k in (2, 3):
        fm = hadamard_identification(k)
        checks.append(_ck(f"hadamard-k{k}-rows", "sign-matrix identification",
                          fm.verify_rows()))
        checks.append(_ck_relations(f"hadamard-k{k}-sources",
                                    "local duality relations",
                                    fm.verify_sources()))
        checks.append(_ck_relations(f"hadamard-k{k}-frame", "frame signature",
                                    fm.verify_frame()))
    block = omega(3, OmegaVariant.PLAIN).rows
    checks.append(_ck("hadamard-k3-det", "block determinant",
                      bareiss_det(block) == -4096, "expected -2^12"))
    lhs, rhs = pseudoscalar_identity(fm.sources)      # the k = 3 nilpotents
    checks.append(_ck("pseudoscalar-g17", "top-blade identity", lhs == rhs))

    fm = complex_identification_g22()
    checks.append(_ck("g22-complex-rows", "sign-matrix identification",
                      fm.verify_rows()))
    checks.append(_ck_relations("g22-complex-frame", "frame signature",
                                fm.verify_frame(), "squares (+1, +1, -1, -1)"))
    checks.append(_ck("g22-hermitian-gram", "Hermitian Gram identity",
                      gram_check(2, OmegaVariant.COMPLEX_PLAIN)))

    tab = c8_complex_table()
    checks.append(_ck("c8-entries-recursion", "closed forms from recursion",
                      tab.entries == tab.recursion_forms))
    checks.append(_ck_relations("c8-duality",
                                "dual pairs in the complexified algebra",
                                check_duality_relations(tab.a, tab.b)))
    for i, label in enumerate(tab.labels):
        cid = f"c8-tabulated-{label}"
        anchor = "tabulated closed form"
        good = tab.entries[i]
        printed = tab.tabulated_forms[i]
        if printed == good:
            checks.append(Check(cid, anchor, PASS))
            continue
        want_sq = Multivector.scalar(tab.witt.sig, -1)
        if gp(good, good) == want_sq and gp(printed, printed) != want_sq:
            checks.append(Check(
                cid, anchor, CONFLICT,
                "tabulated c5 coefficient sqrt(3)/2 squares the form to "
                "1 - sqrt(2); the recursion coefficient 3/sqrt(6) = sqrt(6)/2 "
                "restores f4^2 = -1"))
        else:
            checks.append(Check(cid, anchor, FAIL,
                               "neither form satisfies the unit square"))
    return VerifyReport("witt-local", checks)


# -- omega -----------------------------------------------------------------

_J = Scalar.j()

_OMEGA2_PLAIN = [[1, 1, 1, 1], [1, -1, -1, 1], [1, 1, -1, -1], [1, -1, 1, -1]]
_OMEGA2_MINUS = [[1, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]]
_OMEGA2J_PLAIN = [[1, 1, 1, 1], [_J, -_J, -_J, _J],
                  [1, 1, -1, -1], [1, -1, 1, -1]]
_OMEGA2J_MINUS = [[1, 1, 1, 1], [-_J, _J, _J, -_J],
                  [-1, -1, 1, 1], [-1, 1, -1, 1]]


def suite_omega(seed: int = 0, samples: int = 100) -> VerifyReport:
    checks = []
    checks.append(_ck("omega-k2-plain-matrix", "tabulated sign matrix",
                      omega(2, "plain").rows == _OMEGA2_PLAIN))
    checks.append(_ck("omega-k2-minus-matrix", "tabulated sign matrix",
                      omega(2, "minus").rows == _OMEGA2_MINUS))
    checks.append(_ck("omega-k2-complex-plain-matrix", "tabulated sign matrix",
                      omega(2, "complex-plain").rows == _OMEGA2J_PLAIN))
    checks.append(_ck("omega-k2-complex-minus-matrix", "tabulated sign matrix",
                      omega(2, "complex-minus").rows == _OMEGA2J_MINUS))
    for k in range(1, 7):
        checks.append(_ck(f"omega-gram-plain-k{k}", "Gram identity",
                          gram_check(k, OmegaVariant.PLAIN)))
        checks.append(_ck(f"omega-gram-minus-k{k}", "Gram identity",
                          gram_check(k, OmegaVariant.MINUS)))
    for k in (1, 2):
        checks.append(_ck(f"omega-gram-complex-k{k}", "Hermitian Gram identity",
                          gram_check(k, OmegaVariant.COMPLEX_PLAIN)
                          and gram_check(k, OmegaVariant.COMPLEX_MINUS)))
    for k in range(1, 6):
        want = -(2 ** k) ** (2 ** (k - 1))
        checks.append(_ck(f"omega-det-k{k}", "determinant closed form",
                          det_omega(k) == want, f"expected {want}"))
    o4 = omega(2, "plain").rows
    o4m = omega(2, "minus").rows
    block = [o4[i] + o4m[i] for i in range(4)] + \
            [o4[i] + [-x for x in o4m[i]] for i in range(4)]
    checks.append(_ck("omega-det-block", "block determinant",
                      bareiss_det(block) == -4096
                      and block == omega(3, "plain").rows))
    rng = random.Random(seed)
    for variant in ("plain", "minus"):
        ok = True
        for k in range(1, 7):
            w = omega(k, variant)       # one matrix, split once, for the 5 draws
            for _ in range(5):
                xs = [random_scalar(rng) for _ in range(1 << k)]
                if fast_apply(k, variant, xs) != w.dense_apply(xs):
                    ok = False
        checks.append(_ck(f"omega-fastapply-{variant}",
                          "butterfly equals dense product", ok))
    ok = True
    for k in range(1, 5):
        w = omega(k, "plain")
        g = w.transpose().matmul(w)
        n = w.dim
        ok = ok and all(g[i][j] == (n if i == j else 0)
                        for i in range(n) for j in range(n))
    checks.append(_ck("omega-columns-orthogonal", "column orthogonality", ok))
    return VerifyReport("omega", checks)


# -- dirac -----------------------------------------------------------------


_STD_GAMMA = [
    MvMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
    MvMatrix([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    MvMatrix([[0, 0, 0, _J], [0, 0, -_J, 0], [0, -_J, 0, 0], [_J, 0, 0, 0]]),
    MvMatrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
]

_STD_REST = [
    MvMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
    MvMatrix([[0, 0, 0, -_J], [0, 0, _J, 0], [0, -_J, 0, 0], [_J, 0, 0, 0]]),
    MvMatrix([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]]),
]

_STD_PSEUDO = MvMatrix([[0, 0, _J, 0], [0, 0, 0, _J], [_J, 0, 0, 0], [0, _J, 0, 0]])

_NEW_GAMMA = [
    MvMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    MvMatrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
    MvMatrix([[0, 0, -_J, 0], [0, 0, 0, _J], [-_J, 0, 0, 0], [0, _J, 0, 0]]),
    MvMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
]

_NEW_A1 = MvMatrix([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])
_NEW_A2 = MvMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, -1, 0, 0]])

_NEW_REST = [
    MvMatrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]),
    MvMatrix([[0, 0, 0, -_J], [0, 0, _J, 0], [0, -_J, 0, 0], [_J, 0, 0, 0]]),
    MvMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]),
]


def suite_dirac(seed: int = 0, samples: int = 100) -> VerifyReport:
    checks = []
    fr = dirac_frame()
    sig = fr.gammas[0].sig
    one = Multivector.scalar(sig, 1)
    zero = Multivector.zero(sig)
    u = dirac_idempotents(fr)
    us = u.all()
    checks.append(_ck("dirac-idempotent-orders", "commuting factor pair",
                      idempotent_orders_agree(fr)))
    checks.append(_ck("dirac-idempotent-squares", "idempotency",
                      all(gp(x, x) == x for x in us)))
    checks.append(_ck("dirac-idempotent-partition", "partition of unity",
                      sum(us, zero) == one))
    checks.append(_ck("dirac-idempotent-annihilation", "mutual annihilation",
                      all(gp(x, y) == zero
                          for i, x in enumerate(us)
                          for k, y in enumerate(us) if i != k),
                      "12 ordered pairs"))
    checks.append(_ck_relations("dirac-intertwining", "idempotent intertwining",
                                intertwining_relations(fr)))
    e1, e2, e3 = fr.rest
    checks.append(_ck("dirac-bivector-identities",
                      "rest-frame bivector identities",
                      gp(fr.gammas[1], fr.gammas[2]) == gp(e2, e1)
                      and gp(fr.gammas[3], fr.gammas[1]) == gp(e1, e3)))
    checks.append(_ck("dirac-pseudoscalar-anticommutes",
                      "pseudoscalar anticommutes with vectors",
                      pseudoscalar_anticommutes(fr)))
    jay = Multivector.scalar(sig, Scalar.j())
    checks.append(_ck("dirac-j-commutes", "scalar imaginary is central",
                      all(gp(jay, g) == gp(g, jay) for g in fr.gammas)))

    sb, mats = dirac_spectral_standard()
    u_list = [u.u_pp, u.u_pm, u.u_mp, u.u_mm]
    e13 = gp(e1, e3)
    expected = [
        [u_list[0], -gp(e13, u_list[1]), gp(e3, u_list[2]), gp(e1, u_list[3])],
        [gp(e13, u_list[0]), u_list[1], gp(e1, u_list[2]), -gp(e3, u_list[3])],
        [gp(e3, u_list[0]), gp(e1, u_list[1]), u_list[2], -gp(e13, u_list[3])],
        [gp(e1, u_list[0]), -gp(e3, u_list[1]), gp(e13, u_list[2]), u_list[3]],
    ]
    checks.append(_ck("dirac-std-array", "tabulated array entries",
                      sb.E == expected))
    for mu in range(4):
        checks.append(_ck(f"dirac-std-gamma{mu}-matrix",
                          "tabulated coordinate matrix",
                          mats[mu] == _STD_GAMMA[mu]))
    rest_ok = all(sb.mv_to_matrix(ek) == _STD_REST[k]
                  and sb.mv_to_matrix(ek) == mats[k + 1].matmul(mats[0])
                  for k, ek in enumerate(fr.rest))
    checks.append(_ck("dirac-std-restframe", "rest-frame coordinate matrices",
                      rest_ok))
    pseudo_mat = sb.mv_to_matrix(fr.pseudoscalar)
    checks.append(_ck("dirac-std-pseudoscalar-matrix",
                      "central blade differs from scalar imaginary",
                      pseudo_mat == _STD_PSEUDO
                      and pseudo_mat != MvMatrix.identity(4).scale(_J)))

    nd = dirac_spectral_new()
    checks.append(_ck_relations("dirac-new-duality", "dual family relations",
                                check_duality_relations(nd.a, nd.b)))
    half = Fraction(1, 2)
    checks.append(_ck("dirac-new-u1", "primitive idempotent form",
                      nd.u1 == (one + e3).scale(half)))
    g12 = gp(fr.gammas[1], fr.gammas[2])
    u2_alt = (one + gp(fr.pseudoscalar, e3).scale(Scalar.j())).scale(half)
    checks.append(_ck("dirac-new-u2", "primitive idempotent form",
                      nd.u2 == (one - g12.scale(Scalar.j())).scale(half)
                      and nd.u2 == u2_alt))
    checks.append(_ck("dirac-new-border-equivalence", "border change of basis",
                      new_border_form(nd) == nd.basis.E))
    for mu in range(3):
        checks.append(_ck(f"dirac-new-gamma{mu}-matrix",
                          "tabulated coordinate matrix",
                          nd.gamma_mats[mu] == _NEW_GAMMA[mu]))
    if nd.gamma_mats[3] == _NEW_GAMMA[3]:
        checks.append(Check(
            "dirac-new-gamma3-matrix", "tabulated coordinate matrix", CONFLICT,
            "tabulated block labels are garbled; the construction gives two "
            "diagonal copies of the negated antisymmetric unit block "
            "[[0,1],[-1,0]]"))
    else:
        checks.append(Check("dirac-new-gamma3-matrix",
                            "tabulated coordinate matrix", FAIL,
                            "computed matrix does not match the derived value"))
    extra = new_rep_extra_matrices(nd)
    checks.append(_ck("dirac-new-pair-matrices",
                      "nilpotent pair coordinate matrices",
                      extra["a1"] == _NEW_A1 and extra["a2"] == _NEW_A2
                      and extra["b1"] == extra["a1"].transpose()
                      and extra["b2"] == extra["a2"].transpose()))
    checks.append(_ck("dirac-new-restframe", "rest-frame coordinate matrices",
                      [extra[f"e{k}"] for k in (1, 2, 3)] == _NEW_REST))
    for name, gamma_mats in (("standard", mats), ("new", nd.gamma_mats)):
        checks.append(_ck_relations(f"dirac-anticommutation-{name}",
                                    "metric anticommutation table",
                                    gamma_anticommutation_check(fr.gammas, gamma_mats),
                                    "all 16 pairs, multivector and matrix level"))
    rng = random.Random(seed)
    for name, basis in (("standard", sb), ("new", nd.basis)):
        pairs = _sample_pairs(sig, rng, samples, complex_=True)
        checks.append(_ck_homomorphism(f"dirac-homomorphism-{name}", basis,
                                       pairs))
    return VerifyReport("dirac", checks)


# -- pauli -----------------------------------------------------------------


def suite_pauli(seed: int = 0, samples: int = 100) -> VerifyReport:
    checks = []
    sb, mats = pauli_spectral()
    sig = sb.sig
    one = Multivector.scalar(sig, 1)
    zero = Multivector.zero(sig)
    iota = Multivector.blade(sig, 0b111)
    expected = [
        CentralMatrix([[zero, one], [one, zero]]),
        CentralMatrix([[zero, -iota], [iota, zero]]),
        CentralMatrix([[one, zero], [zero, -one]]),
    ]
    for k in range(3):
        checks.append(_ck(f"pauli-e{k+1}-matrix", "tabulated coordinate matrix",
                          mats[k] == expected[k]))
    checks.append(_ck("pauli-center-square", "central blade squares to -1",
                      gp(iota, iota) == -one))
    f = gp(Multivector.generator(sig, 0), Multivector.generator(sig, 2))
    e2 = Multivector.generator(sig, 1)
    checks.append(_ck("pauli-f-identity", "bivector factorization",
                      f == -gp(iota, e2)))
    checks.append(_ck_relations("pauli-impostor",
                                "central blade is not the scalar imaginary",
                                pauli_impostor_check(sb, mats),
                                "j-entried lookalike fails the product test"))
    checks.append(_ck("pauli-embedding", "subalgebra embedding",
                      g11_embedding_check(), "all 16 basis products"))
    pairs = _sample_pairs(sig, random.Random(seed), samples, complex_=True)
    checks.append(_ck_homomorphism("pauli-homomorphism", sb, pairs))
    return VerifyReport("pauli", checks)


# -- negative search -------------------------------------------------------


def suite_negative_g12(seed: int = 0, samples: int = 100) -> VerifyReport:
    rep = no_identification_g12()
    checks = [
        _ck("negative-g12-search", "exhaustive sign-matrix search",
            rep.ok,
            f"{rep.sign_matrices} sign matrices x {rep.radicand_combos} "
            f"radicand choices, {rep.frames_found} frames found"),
        _ck("negative-g12-unit-plus", "single unit vectors exist",
            ("(c1+c2+c3)/sqrt(3)", 1) in rep.unit_examples),
        _ck("negative-g12-unit-minus", "single unit vectors exist",
            ("c1-c2", -1) in rep.unit_examples),
    ]
    return VerifyReport("negative-g12", checks)


SUITES = {
    "table1": suite_table1,
    "witt-global": suite_witt_global,
    "witt-local": suite_witt_local,
    "omega": suite_omega,
    "dirac": suite_dirac,
    "pauli": suite_pauli,
    "negative-g12": suite_negative_g12,
}


# the sampled pairs of a suite are drawn up front, so a bound on their
# count bounds the memory a run takes
MAX_SAMPLES = 10_000


def run_suite(name: str, seed: int = 0, samples: int = 100) -> VerifyReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise RangeError(f"samples must be in 1..{MAX_SAMPLES}, got {samples}")
    try:
        return SUITES[name](seed=seed, samples=samples)
    except Exception as exc:     # a verification failure, not bad input
        return VerifyReport(name, [_ck(f"{name}-setup", "suite set-up", False,
                                       f"{type(exc).__name__}: {exc}")])


def run_all(seed: int = 0, samples: int = 100) -> list[VerifyReport]:
    return [run_suite(name, seed=seed, samples=samples) for name in SUITES]
