"""Acceptance gate: ten timed criteria, one printed pass/fail line each.

Every criterion is an exact algebraic identity; the time bounds are generous
ceilings, not benchmarks.  Run with `pytest -s tests/test_acceptance.py` to
see the summary lines.
"""

import random
import time

from wittkit.dirac import (dirac_frame, dirac_idempotents,
                           dirac_spectral_new, dirac_spectral_standard,
                           gamma_anticommutation_check,
                           new_witt_pair, pauli_spectral)
from wittkit.ga import Multivector, gp, reverse
from wittkit.omega import bareiss_det, gram_check, omega
from wittkit.scalars import Scalar
from wittkit.verify import random_multivector, run_all, suite_table1
from wittkit.witt_global import (CentralMatrix, MvMatrix,
                                 check_duality_relations, make_global_witt,
                                 spectral_basis_nn)
from wittkit.witt_local import (check_frame_relations, check_local_relations,
                                complex_identification_g22, ef_from_c,
                                make_local_witt, no_identification_g12,
                                pseudoscalar_identity)

J = Scalar.j()


def _report(num: int, name: str, ok: bool, t0: float, bound: float) -> None:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} {name} "
          f"({elapsed:.2f}s, bound {bound:g}s)")
    assert ok, f"criterion {num} ({name}) identity check failed"
    assert elapsed < bound, f"criterion {num} exceeded {bound}s"


def test_criterion_01_table1():
    t0 = time.perf_counter()
    rep = suite_table1()
    ok = rep.n_pass == 16 and rep.n_fail == 0 and len(rep.checks) == 16
    _report(1, "product table of {a, b, ab, ba}", ok, t0, 1.0)


def test_criterion_02_spectral_arrays():
    t0 = time.perf_counter()
    w1 = make_global_witt(1)
    sb1 = spectral_basis_nn(1)
    a, b = w1.a[0], w1.b[0]
    ok = sb1.E == [[gp(b, a), b], [a, gp(a, b)]]

    w2 = make_global_witt(2)
    sb2 = spectral_basis_nn(2)
    a1, a2 = w2.a
    b1, b2 = w2.b
    u1, u2 = gp(b1, a1), gp(b2, a2)
    r1, r2 = reverse(u1), reverse(u2)
    expected = [
        [gp(u1, u2), gp(b1, u2), gp(b2, u1), gp(b2, b1)],
        [gp(a1, u2), gp(r1, u2), gp(a1, b2), -gp(b2, r1)],
        [gp(a2, u1), gp(a2, b1), gp(u1, r2), gp(b1, r2)],
        [gp(a1, a2), -gp(a2, r1), gp(a1, r2), gp(r1, r2)],
    ]
    ok = ok and sb2.E == expected
    # full matrix-unit law: every index quadruple for both arrays
    ok = ok and sb1.matrix_unit_law() and sb2.matrix_unit_law()
    _report(2, "bordered arrays and matrix-unit law", ok, t0, 5.0)


def test_criterion_03_isomorphism():
    t0 = time.perf_counter()
    rng = random.Random(0)
    ok = True
    for n in (1, 2):
        sb = spectral_basis_nn(n)
        for _ in range(100):
            g = random_multivector(sb.sig, rng)
            h = random_multivector(sb.sig, rng)
            if sb.mv_to_matrix(gp(g, h)) != \
                    sb.mv_to_matrix(g).matmul(sb.mv_to_matrix(h)):
                ok = False
        ok = ok and sb.matrix_to_mv(sb.mv_to_matrix(g)) == g
    _report(3, "coordinate map is a ring isomorphism", ok, t0, 30.0)


def test_criterion_04_local_duality():
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 9):
        w = make_local_witt(m)
        ok = ok and check_local_relations(w) == []
    w8 = make_local_witt(8)
    frame = ef_from_c(w8)
    gens = [Multivector.generator(w8.sig, i) for i in range(8)]
    ok = ok and frame == gens
    ok = ok and check_frame_relations(frame, [1] + [-1] * 7) == []
    _report(4, "local families m=2..8 and the derived frame", ok, t0, 30.0)


def test_criterion_05_omega_identities():
    t0 = time.perf_counter()
    ok = all(gram_check(k, v)
             for k in range(1, 7) for v in ("plain", "minus"))
    for k, want in ((1, -2), (2, -16), (3, -4096),
                    (4, -(2 ** 32)), (5, -(2 ** 80))):
        ok = ok and bareiss_det(omega(k, "plain").rows) == want
    _report(5, "sign-matrix Gram and determinant family", ok, t0, 60.0)


def test_criterion_06_pseudoscalar_identity():
    t0 = time.perf_counter()
    lhs, rhs = pseudoscalar_identity()
    ok = lhs == rhs and not lhs.is_zero()
    _report(6, "256-dimensional top-blade identity", ok, t0, 10.0)


def test_criterion_07_complex_identification():
    t0 = time.perf_counter()
    ok = gram_check(2, "complex-plain")
    fm = complex_identification_g22()
    ok = ok and fm.verify_rows() and fm.verify_frame() == []
    ok = ok and fm.expected_squares == [1, 1, -1, -1]
    _report(7, "Hermitian Gram and (2,2) frame", ok, t0, 1.0)


def test_criterion_08_dirac_and_pauli():
    t0 = time.perf_counter()
    fr = dirac_frame()
    sig = fr.gammas[0].sig
    one = Multivector.scalar(sig, 1)
    zero = Multivector.zero(sig)
    us = dirac_idempotents(fr).all()
    ok = sum(us, zero) == one
    ok = ok and all(gp(x, y) == zero
                    for i, x in enumerate(us)
                    for k, y in enumerate(us) if i != k)

    _, mats = dirac_spectral_standard()
    std = [
        MvMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
        MvMatrix([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
        MvMatrix([[0, 0, 0, J], [0, 0, -J, 0], [0, -J, 0, 0], [J, 0, 0, 0]]),
        MvMatrix([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
    ]
    ok = ok and mats == std

    _, a, b = new_witt_pair(fr)
    ok = ok and check_duality_relations(a, b) == []
    ok = ok and gamma_anticommutation_check(fr.gammas, mats) == []
    ok = ok and gamma_anticommutation_check(fr.gammas, dirac_spectral_new().gamma_mats) == []

    psb, pmats = pauli_spectral()
    pone = Multivector.scalar(psb.sig, 1)
    pzero = Multivector.zero(psb.sig)
    iota = Multivector.blade(psb.sig, 0b111)
    ok = ok and pmats == [
        CentralMatrix([[pzero, pone], [pone, pzero]]),
        CentralMatrix([[pzero, -iota], [iota, pzero]]),
        CentralMatrix([[pone, pzero], [pzero, -pone]]),
    ]
    _report(8, "both spacetime representations and Pauli", ok, t0, 10.0)


def test_criterion_09_negative_search():
    t0 = time.perf_counter()
    rep = no_identification_g12()
    ok = rep.ok and rep.frames_found == 0 \
        and rep.sign_matrices == 512 and rep.radicand_combos == 64
    _report(9, "exhaustive search finds no mixed-signature frame", ok, t0, 10.0)


def test_criterion_10_documented_conflicts():
    t0 = time.perf_counter()
    reports = run_all(seed=0, samples=10)
    conflicts = [c for rep in reports for c in rep.checks
                 if c.status == "CONFLICT"]
    ok = {c.check_id for c in conflicts} == \
        {"c8-tabulated-f4", "dirac-new-gamma3-matrix"}
    ok = ok and all(c.detail for c in conflicts)
    ok = ok and all(rep.n_fail == 0 for rep in reports)
    _report(10, "exactly two documented conflicts with corrections",
            ok, t0, 60.0)
