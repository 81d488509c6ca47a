"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n ...: PASS|FAIL` line (run with
``pytest -s`` to see them live).  Criteria are implemented directly against
module operations and independent oracles; the two long sweeps reuse the
deterministic suite implementations that the CLI exposes.
"""

import time

import numpy as np
import pytest

from opsys import linalg as la
from opsys.dual import (
    Functional,
    MatrixFunctional,
    dual_order_unit_radius,
    faithful_state,
    is_cp,
    random_hermitian_functional,
)
from opsys.feasibility import FeasibilityProblem, dykstra_solve
from opsys.norms import max_order_norm, min_order_norm, norm_report, order_norm_h
from opsys.suites import (
    suite_choi_effros,
    suite_dual_equivalences,
)
from opsys.systems import (
    is_matrix_order_unit,
    make_operator_system,
    named_system,
    random_element,
    random_hermitian_element,
    random_system,
)
from opsys.towers import (
    make_tower,
    pairing,
    pullback_thread,
    verify_dual_cones,
)

SEED = 20240917


def record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  {detail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_norm_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    systems = [random_system(rng, d=int(rng.integers(2, 6))) for _ in range(10)]
    worst = -np.inf
    for i in range(100):
        s = systems[i % 10]
        v = random_element(s, rng)
        rep = norm_report(s, v)
        worst = max(
            worst,
            rep.min - rep.op,
            rep.op - rep.max_upper,
            rep.max_upper - 2 * rep.min,
        )
    elapsed = time.time() - t0
    record(
        1, "norm sandwich", worst <= 1e-6 and elapsed < 30.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_hermitian_coincidence():
    rng = np.random.default_rng(SEED + 1)
    systems = [random_system(rng, d=int(rng.integers(2, 6))) for _ in range(10)]
    worst_min, worst_max = 0.0, -np.inf
    for i in range(100):
        s = systems[i % 10]
        h = random_hermitian_element(s, rng)
        hn = order_norm_h(s, h)
        worst_min = max(worst_min, abs(min_order_norm(s, h) - hn))
        worst_max = max(worst_max, max_order_norm(s, h)[1] - hn)
    record(
        2, "hermitian coincidence",
        worst_min <= 1e-8 and worst_max <= 1e-6,
        f"|min-h| <= {worst_min:.2e}, max_upper-h <= {worst_max:.2e}",
    )


def test_criterion_3_mou_unit():
    rng = np.random.default_rng(SEED + 2)
    all_ok = True
    for i in range(10):
        d = int(rng.integers(2, 5))
        s = named_system(f"full:{d}") if i % 2 == 0 else random_system(rng, d=d)
        h = random_hermitian_element(s, rng, scale=0.4)
        e = h + (max(0.0, -la.lambda_min(h)) + 0.25) * s.unit
        assert la.lambda_min(e) > 0  # positive definite unit by construction
        report = is_matrix_order_unit(s, e, 3, samples_per_level=32, rng=rng)
        radii = [r for level in report.radii.values() for r in level]
        all_ok &= report.ok and len(radii) == 96 and all(r is not None for r in radii)
    diag2 = named_system("diag:2")
    rejected = is_matrix_order_unit(diag2, np.diag([1.0, 0.0]).astype(complex), 1)
    all_ok &= (not rejected.ok) and rejected.counterexample_level == 1
    record(3, "matrix order unit equivalence", all_ok,
           "radii at levels 1-3 for 10 systems; diag(1,0) rejected")


def test_criterion_4_choi_effros_desk_scale():
    t0 = time.time()
    checks = suite_choi_effros(SEED + 3)
    elapsed = time.time() - t0
    failed = [c.name for c in checks if c.status != "pass"]
    # independent oracle anchor: on a full algebra the radius is exactly
    # d * lambda_max of the Riesz matrix
    rng = np.random.default_rng(SEED + 4)
    s = named_system("full:3")
    delta = faithful_state(s)
    g = random_hermitian_functional(s, rng)
    r = dual_order_unit_radius(delta, g, 1)
    anchor = abs(r - max(0.0, 3 * la.lambda_max(g.riesz)))
    record(
        4, "dual order units at desk scale",
        not failed and anchor <= 1e-5 and elapsed < 300.0,
        f"{len(checks)} checks, oracle gap {anchor:.1e}, {elapsed:.0f}s",
    )


def test_criterion_5_dual_archimedean_schedule():
    checks = suite_dual_equivalences(SEED + 5, samples=50)
    total = sum(c.evidence["checked"] for c in checks)
    violations = sum(c.evidence["violations"] for c in checks)
    record(
        5, "dual Archimedean schedule",
        total >= 50 and violations == 0 and all(c.status == "pass" for c in checks),
        f"{total} schedule-passing functionals, {violations} violations",
    )


def test_criterion_6_feasibility_oracle():
    rng = np.random.default_rng(SEED + 6)
    tol = 1e-7
    disagreements = undecided = 0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        full = named_system(f"full:{d}")
        while True:
            w0 = random_hermitian_element(full, rng)
            lam = la.lambda_min(w0)
            if not (-10 * tol < lam < -tol):
                break
        cons = [
            (a, float(np.real(np.trace(a @ w0))))
            for a in full.hermitian_basis
        ]
        verdict = dykstra_solve(FeasibilityProblem(d, cons, tol=tol))
        if verdict.status == "undecided":
            undecided += 1
        elif (verdict.status == "feasible") != (lam >= -tol):
            disagreements += 1
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    cons = [
        (a, float(np.real(np.trace(a @ swap))))
        for a in named_system("full:4").hermitian_basis
    ]
    transpose_verdict = dykstra_solve(FeasibilityProblem(4, cons, tol=tol))
    record(
        6, "feasibility oracle equivalence",
        disagreements == 0 and undecided == 0
        and transpose_verdict.status == "infeasible",
        f"100 pinned instances, {disagreements} disagreements, "
        f"{undecided} undecided; transpose Choi infeasible",
    )


def test_criterion_7_duality_tower():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 7)
    tower = make_tower("matrix-doubling:4")
    top = tower.stage(4)

    # (a) pairing constancy over 50 random thread pairs
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 5))
        x = random_element(tower.stage(k), rng)
        e = tower.thread(k, x)
        f_top = Functional(top, rng.standard_normal((16, 16))
                           + 1j * rng.standard_normal((16, 16)))
        f = pullback_thread(tower, f_top)
        base = f.entry(k).pair(x)
        for m in range(k, 5):
            worst = max(worst, abs(f.entry(m).pair(e.image_at(m)) - base))
    ok_a = worst <= 1e-9

    # (b), (c) dual cones with constructed witnesses
    cones = verify_dual_cones(tower, samples=50, rng=rng)
    ok_bc = cones["passed"]

    # (d) injectivity: zero pairings against every stage basis force zero norm
    basis_threads = [
        tower.thread(k, b) for k in range(1, 5) for b in tower.stage(k).basis
    ]
    ok_d = True
    samples_d = [Functional.zero(top)]
    samples_d += [1e-13 * Functional(top, random_hermitian_element(top, rng))]
    samples_d += [Functional(top, random_hermitian_element(top, rng))
                  for _ in range(10)]
    for f_top in samples_d:
        f = pullback_thread(tower, f_top)
        pi = max(abs(pairing(e, f)) for e in basis_threads)
        # the thread norm sup_k ||f_k||, trace norms of the Riesz matrices
        norm = max(np.linalg.norm(g.riesz, "nuc") for g in f.entries)
        if pi <= 1e-9:
            ok_d &= norm <= 1e-8
        else:
            ok_d &= norm > 1e-8

    # (e) level-2 matrix functional threads: stage-wise CP versus
    # thread-cone membership on 30 samples
    ok_e = True
    for i in range(30):
        g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        if i % 2 == 0:
            choi = (g @ g.conj().T) / 32.0
            member = True  # PSD Choi data: CP at the deepest stage
        else:
            choi = la.hermitian_part(g)
            if la.lambda_min(choi) > -1e-3:
                choi -= np.eye(32)
            member = False
        mf_top = MatrixFunctional.from_choi(top, choi)
        stages = pullback_thread(tower, mf_top).entries
        stagewise = [is_cp(mf) for mf in stages]
        if member:
            ok_e &= all(v is True for v in stagewise)
        else:
            ok_e &= stagewise[-1] is False  # fails at the deepest stage

    elapsed = time.time() - t0
    record(
        7, "duality tower",
        ok_a and ok_bc and ok_d and ok_e and elapsed < 600.0,
        f"constancy {worst:.1e}; cones {cones['passed']}; "
        f"injectivity {ok_d}; level-2 CP {ok_e}; {elapsed:.0f}s",
    )


def test_criterion_8_contractivity():
    rng = np.random.default_rng(SEED + 8)
    worst = -np.inf
    for _ in range(100):
        d = int(rng.integers(3, 6))
        s = random_system(rng, d=d)
        d_small = int(rng.integers(2, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        p = q[:, :d_small]
        t = make_operator_system([p.conj().T @ b @ p for b in s.basis], d_small)
        v = random_element(s, rng)
        w = p.conj().T @ v @ p
        worst = max(worst, min_order_norm(t, w) - min_order_norm(s, v))
        worst = max(worst, max_order_norm(t, w)[1] - max_order_norm(s, v)[1])
    record(8, "unital contractivity", worst <= 1e-7,
           f"worst norm increase {worst:.2e} over 100 compressions")
