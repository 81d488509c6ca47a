"""Named verification suites: reproducible sweeps over the whole toolkit.

Each suite draws all randomness from one generator seeded by the caller
(feasibility-oracle's kernel cross-check from a second stream of the same
seed), runs a battery of property checks against independent oracles
(eigenvalue computations, brute-force sections, partial-trace identities)
and returns a flat list of named checks.  The CLI wraps these into reports;
the acceptance tests run the same sweeps directly.  A suite's options are
named after the ``opsys suite`` flags (``samples``, ``levels``,
``depth``), and the CLI passes on each flag that the suite takes.

choi-effros and dual-equivalences are loops over one per-system check each
(the trace state dominates sampled functionals at every level; the
Archimedean radius schedule), and ``opsys dual choi-effros`` runs the same
two checks on the one system it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .dual import (
    Functional,
    MatrixFunctional,
    cp_choi_problem,
    cp_verdict,
    dual_order_unit_radius,
    faithful_state,
    is_cp,
    is_positive_functional,
    kernel_counts,
    positivity_minimum,
    random_hermitian_functional,
    random_positive_functional,
)
from .feasibility import dykstra_solve
from .norms import max_order_norm, min_order_norm, norm_report, order_norm_h
from .systems import (
    make_operator_system,
    named_system,
    is_matrix_order_unit,
    random_hermitian_element,
    random_element,
    random_positive_element,
    random_system,
)
from .towers import make_tower, pullback_thread, verify_dual_cones, verify_gamma

__all__ = ["Check", "SUITES", "run_suite"]


@dataclass
class Check:
    name: str
    op: str
    status: str  # pass | fail | undecided
    detail: str = ""
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "op": self.op,
            "status": self.status,
            "detail": self.detail,
            "evidence": self.evidence,
        }


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _round(x: float) -> float:
    # evidence floats are rounded so reports stay byte-stable across BLAS
    # kernels that differ in the last bits
    return float(f"{x:.9e}")


def _sample_systems(rng, count, d_max):
    systems = []
    for i in range(count):
        d = int(rng.integers(2, d_max + 1))
        if i % 2 == 1:
            systems.append(random_system(rng, d=d, generators=1))
        else:
            systems.append(named_system(f"full:{d}"))
    return systems


# ----------------------------------------------------------------------------
# norm-sandwich: sandwich chain, Hermitian coincidence, UCP contractivity
# ----------------------------------------------------------------------------

def suite_norm_sandwich(seed: int, *, samples: int = 100) -> list[Check]:
    rng = np.random.default_rng(seed)
    systems = [random_system(rng, d=int(rng.integers(2, 6))) for _ in range(10)]
    checks = []

    worst = 0.0
    bad = 0
    for i in range(samples):
        s = systems[i % len(systems)]
        v = random_element(s, rng)
        rep = norm_report(s, v)
        gaps = [
            rep.min - rep.op,
            rep.op - rep.max_upper,
            rep.max_lower - rep.max_upper,
            rep.max_upper - 2.0 * rep.min,
        ]
        worst = max(worst, *gaps)
        if any(g > 1e-6 for g in gaps):
            bad += 1
    checks.append(Check(
        name="norm-sandwich/chain",
        op="norms.norm_report",
        status=_status(bad == 0),
        detail=f"{samples - bad}/{samples} elements satisfy min <= op <= "
               f"max_upper <= 2*min",
        evidence={"violations": bad, "worst_gap": _round(worst)},
    ))

    worst_min, worst_max = 0.0, 0.0
    bad = 0
    for i in range(samples):
        s = systems[i % len(systems)]
        h = random_hermitian_element(s, rng)
        hnorm = order_norm_h(s, h)
        gap_min = abs(min_order_norm(s, h) - hnorm)
        _, upper = max_order_norm(s, h)
        gap_max = upper - hnorm
        worst_min = max(worst_min, gap_min)
        worst_max = max(worst_max, gap_max)
        if gap_min > 1e-8 or gap_max > 1e-6:
            bad += 1
    checks.append(Check(
        name="norm-sandwich/hermitian-coincidence",
        op="norms.min_order_norm",
        status=_status(bad == 0),
        detail="order norms coincide on Hermitians",
        evidence={"violations": bad, "worst_min_gap": _round(worst_min),
                  "worst_max_gap": _round(worst_max)},
    ))

    worst = 0.0
    bad = 0
    for i in range(samples):
        s = systems[i % len(systems)]
        d_small = int(rng.integers(2, s.d + 1))
        q, _ = np.linalg.qr(
            rng.standard_normal((s.d, s.d)) + 1j * rng.standard_normal((s.d, s.d))
        )
        p = q[:, :d_small]
        compressed = make_operator_system(
            [p.conj().T @ b @ p for b in s.basis], d_small
        )
        v = random_element(s, rng)
        w = p.conj().T @ v @ p
        gap_min = min_order_norm(compressed, w) - min_order_norm(s, v)
        _, up_w = max_order_norm(compressed, w)
        _, up_v = max_order_norm(s, v)
        gap_max = up_w - up_v
        worst = max(worst, gap_min, gap_max)
        if gap_min > 1e-7 or gap_max > 1e-7:
            bad += 1
    checks.append(Check(
        name="norm-sandwich/ucp-contractivity",
        op="norms.min_order_norm",
        status=_status(bad == 0),
        detail="unital compressions never increase min/max norms",
        evidence={"violations": bad, "worst_increase": _round(worst)},
    ))
    return checks


# ----------------------------------------------------------------------------
# mou-unit: order unit <=> matrix order unit at sampled levels
# ----------------------------------------------------------------------------

def suite_mou_unit(seed: int, *, samples: int = 32) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(10):
        d = int(rng.integers(2, 5))
        s = named_system(f"full:{d}") if i % 2 == 0 else random_system(rng, d=d)
        h = random_hermitian_element(s, rng, scale=0.4)
        shift = max(0.0, -la.lambda_min(h)) + 0.25
        e = h + shift * s.unit  # positive definite by construction
        report = is_matrix_order_unit(s, e, 3, samples_per_level=samples, rng=rng)
        flat = [r for level in report.radii.values() for r in level]
        checks.append(Check(
            name=f"mou-unit/system-{i:02d}",
            op="systems.is_matrix_order_unit",
            status=_status(report.ok and all(r is not None for r in flat)),
            detail="positive-definite unit dominates at levels 1..3",
            evidence={"max_radius": _round(max(r for r in flat if r is not None))
                      if flat else 0.0},
        ))
    diag2 = named_system("diag:2")
    e_bad = np.diag([1.0, 0.0]).astype(complex)
    report = is_matrix_order_unit(diag2, e_bad, 1, rng=rng)
    checks.append(Check(
        name="mou-unit/diag-counterexample",
        op="systems.is_matrix_order_unit",
        status=_status(not report.ok and report.counterexample_level == 1),
        detail="diag(1,0) rejected at level 1 over the diagonal system",
        evidence={},
    ))
    return checks


# ----------------------------------------------------------------------------
# choi-effros and dual-equivalences: the faithful trace state is an
# Archimedean matrix order unit of S'
# ----------------------------------------------------------------------------

#: Radius of the Archimedean premise: f passes when r delta + f is positive
#: for every r in 2^-1 .. 2^-20.  For a positive delta the premise is
#: monotone in r (r' delta + f = (r' - r) delta + (r delta + f)), so its
#: smallest radius alone decides it.
_ARCHIMEDEAN_RADIUS = 2.0 ** -20


def _order_unit_check(s, name: str, samples: int, levels: int, rng) -> Check:
    """The trace state delta of s dominates ``samples`` Hermitian
    functionals g: each radius of g and of -g exists (and matches d
    lambda_max on a full algebra), and the common radius, plus a margin, is
    CP-certified on the diagonal lifts of r delta -+ g at levels 2..levels."""
    delta = faithful_state(s)
    radii = []
    ok = True
    oracle_gap = 0.0
    counts = kernel_counts()
    for _ in range(samples):
        g = random_hermitian_functional(s, rng)
        r = dual_order_unit_radius(delta, g, 1)
        if r is None:
            ok = False
            break
        radii.append(r)
        if s.is_full:
            oracle = max(0.0, s.d * la.lambda_max(g.riesz))
            oracle_gap = max(oracle_gap, abs(r - oracle))
            if abs(r - oracle) > 1e-5:
                ok = False
        r_neg = dual_order_unit_radius(delta, -1.0 * g, 1)
        if r_neg is None:
            ok = False
            continue
        r_pm = max(r, r_neg)
        # strict interior margin: at the exact radius the CP problem has no
        # Slater point, so a witness could be PSD only up to the solver's
        # accuracy; a margin of 1e-2 max(1, r) keeps every grid strictly
        # inside while staying within 1% of r
        margin = 1e-2 * max(1.0, r_pm)
        for n in range(2, levels + 1):
            for sign in (1.0, -1.0):
                lifted = MatrixFunctional.diag((r_pm + margin) * delta - sign * g, n)
                if is_cp(lifted) is not True:
                    ok = False
    return Check(
        name=name,
        op="dual.dual_order_unit_radius",
        status=_status(ok),
        detail=("full algebra, radius matches d*lambda_max" if s.is_full
                else "proper subsystem, CP-certified at all levels"),
        evidence={"d": s.d, "dim": s.dim,
                  "max_radius": _round(max(radii)) if radii else None,
                  "oracle_gap": _round(oracle_gap),
                  "kernel": kernel_counts(since=counts)},
    )


def _archimedean_check(s, name: str, count: int, rng) -> Check:
    """Every functional f with r delta + f positive for r = 2^-1 .. 2^-20
    (delta the trace state of s; tested at ``_ARCHIMEDEAN_RADIUS`` alone) is
    positive itself at 1e-6; it passes once ``count`` such f are checked,
    within 20 count draws (two in three shifted onto the boundary of the
    positive cone)."""
    delta = faithful_state(s)
    checked = 0
    violations = 0
    attempts = 0
    counts = kernel_counts()
    while checked < count and attempts < 20 * count:
        attempts += 1
        if attempts % 3 == 0:
            f = random_hermitian_functional(s, rng)
        else:
            p = random_positive_functional(s, rng)
            val, _ = positivity_minimum(p)
            f = p - float(s.d * val) * delta  # boundary shift
        if not is_positive_functional(_ARCHIMEDEAN_RADIUS * delta + f):
            continue
        checked += 1
        if not is_positive_functional(f, tol=1e-6):
            violations += 1
    return Check(
        name=name,
        op="dual.is_positive_functional",
        status=_status(violations == 0 and checked >= count),
        detail=f"{checked} schedule-passing functionals, {violations} "
               f"positivity violations at 1e-6",
        evidence={"checked": checked, "violations": violations,
                  "kernel": kernel_counts(since=counts)},
    )


def suite_choi_effros(seed: int, *, samples: int = 20, levels: int = 3) -> list[Check]:
    rng = np.random.default_rng(seed)
    systems = _sample_systems(rng, 20, 4)
    checks = [_order_unit_check(s, f"choi-effros/system-{i:02d}", samples, levels, rng)
              for i, s in enumerate(systems)]
    diag2 = named_system("diag:2")
    nonfaithful = Functional(diag2, np.diag([1.0, 0.0]).astype(complex))
    complement = Functional(diag2, np.diag([0.0, 1.0]).astype(complex))
    counts = kernel_counts()
    r = dual_order_unit_radius(nonfaithful, complement, 1)
    checks.append(Check(
        name="choi-effros/non-faithful-counterexample",
        op="dual.dual_order_unit_radius",
        status=_status(r is None),
        detail="non-faithful state dominates nothing transverse to its support",
        evidence={"kernel": kernel_counts(since=counts)},
    ))
    return checks


def suite_dual_equivalences(seed: int, *, samples: int = 50) -> list[Check]:
    rng = np.random.default_rng(seed)
    systems = [
        named_system("pauli-span"),
        named_system("diag:3"),
        named_system("full:3"),
        random_system(rng, d=3, generators=1),
    ]
    per = max(1, -(-samples // len(systems)))
    return [_archimedean_check(s, f"dual-equivalences/system-{i:02d}", per, rng)
            for i, s in enumerate(systems)]


# ----------------------------------------------------------------------------
# feasibility-oracle: Dykstra verdicts against the eigenvalue oracle and
# against the kernel's CP verdicts
# ----------------------------------------------------------------------------

def suite_feasibility_oracle(seed: int, *, samples: int = 100) -> list[Check]:
    rng = np.random.default_rng(seed)
    tol = 1e-7
    disagreements = 0
    undecided = 0
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        full = named_system(f"full:{d}")
        while True:
            w0 = random_hermitian_element(full, rng)
            lam = la.lambda_min(w0)
            # keep instances out of the (tol, 10 tol) gray band, where
            # neither the feasible exit nor a Farkas certificate can fire
            if not (-10 * tol < lam < -tol):
                break
        # at level 1 on full:d the Choi problem pins every Hermitian
        # coordinate of w0
        verdict = dykstra_solve(cp_choi_problem(MatrixFunctional.from_choi(full, w0), tol))
        oracle_feasible = lam >= -tol
        if verdict.status == "undecided":
            undecided += 1
        elif (verdict.status == "feasible") != oracle_feasible:
            disagreements += 1
    checks = [Check(
        name="feasibility-oracle/pinned-instances",
        op="feasibility.dykstra_solve",
        status=_status(disagreements == 0 and undecided == 0),
        detail=f"{samples} fully pinned instances against the eigenvalue "
               f"oracle",
        evidence={"disagreements": disagreements, "undecided": undecided},
    )]
    # Choi matrix of the transpose map on M_2 is the swap, eigenvalue -1
    full2 = named_system("full:2")
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    # pinned as a level-1 problem on full:4: the level-2 grid over full:2
    # pairs against another basis, which moves the digits of the gap
    verdict = dykstra_solve(
        cp_choi_problem(MatrixFunctional.from_choi(named_system("full:4"), swap), tol))
    mf = MatrixFunctional.from_choi(full2, swap)
    checks.append(Check(
        name="feasibility-oracle/transpose-choi",
        op="feasibility.dykstra_solve",
        status=_status(verdict.status == "infeasible" and is_cp(mf) is False),
        detail="transpose-map Choi (the swap) reported infeasible",
        evidence={"gap": _round(verdict.gap)},
    ))
    checks.append(_dykstra_cross_check(seed))
    return checks


def _choi_grids(s, n: int, rng) -> list:
    """Two level-n grids over s, built as the cp-certify benchmark builds
    them, each with the verdict its construction proves: PSD Choi data (CP)
    and data refuted by a point x of M_n(S)+ with <x, C> = -2 ||x||_F (not
    CP)."""
    side = n * s.d
    g = rng.standard_normal((side, side // 2)) + 1j * rng.standard_normal((side, side // 2))
    w = g @ g.conj().T / side + 0.02 * np.eye(side)
    x = random_positive_element(s, rng, level=n)
    t = (np.trace(x @ w).real + 2.0 * la.frobenius(x)) / np.trace(x @ x).real
    return [(MatrixFunctional.from_choi(s, w), True),
            (MatrixFunctional.from_choi(s, w - t * x), False)]


def _cross_check_grids(seed: int):
    """:func:`_choi_grids` at levels 2 and 3, in four rounds over
    pauli-span, diag:3, toeplitz:3 and two fresh random systems, drawn from
    a stream of their own so that the pinned instances keep their draws."""
    rng = np.random.default_rng((seed, 1))
    pool = [named_system(name) for name in ("pauli-span", "diag:3", "toeplitz:3")]
    for _ in range(4):
        fresh = [random_system(rng, d=d, generators=1) for d in (2, 3)]
        for s in pool + fresh:
            for n in (2, 3):
                yield from _choi_grids(s, n, rng)


def _dykstra_verdict_holds(problem, verdict) -> bool:
    """Re-check a definite Dykstra verdict against the problem's own data:
    a witness meets every constraint and has lambda_min >= -gap (to
    rounding); a Farkas certificate Z is PSD and a combination sum c_k A_k
    of the constraints (least squares) with sum c_k b_k < -10 tol ||Z||_F."""
    if verdict.status == "feasible":
        w = verdict.witness
        residual = max(abs(np.vdot(a, w).real - b) for a, b in problem.constraints)
        return residual <= 1e-9 and la.lambda_min(w) >= -verdict.gap - 1e-12
    z = verdict.certificate
    norm = la.frobenius(z)
    a = np.stack([m.reshape(-1).view(float) for m, _ in problem.constraints], axis=1)
    b = np.array([v for _, v in problem.constraints])
    target = np.ascontiguousarray(z).reshape(-1).view(float)
    c = np.linalg.lstsq(a, target, rcond=None)[0]
    return (la.frobenius(a @ c - target) <= 1e-10 * norm
            and la.lambda_min(z) >= -1e-12 * norm
            and c @ b < -10 * problem.tol * norm)


def _dykstra_cross_check(seed: int) -> Check:
    """Dykstra on the exported Choi problem against cp_verdict, the kernel
    verdict, on proper-subsystem grids: the two must agree wherever both are
    definite, and each definite Dykstra verdict must re-check."""
    grids = iterating = undecided = disagreements = unverified = 0
    for mf, _ in _cross_check_grids(seed):
        problem = cp_choi_problem(mf)
        verdict = dykstra_solve(problem)
        kernel = cp_verdict(mf)
        grids += 1
        iterating += verdict.iterations > 1
        if "undecided" in (verdict.status, kernel.status):
            undecided += 1
        else:
            disagreements += verdict.status != kernel.status
        if verdict.status != "undecided":
            unverified += not _dykstra_verdict_holds(problem, verdict)
    return Check(
        name="feasibility-oracle/kernel-cross-check",
        op="feasibility.dykstra_solve",
        status=_status(disagreements == 0 and unverified == 0),
        detail=f"{grids} proper-subsystem Choi problems, Dykstra against "
               f"cp_verdict, {iterating} past iteration 1",
        evidence={"grids": grids, "iterating": iterating, "undecided": undecided,
                  "disagreements": disagreements, "unverified": unverified},
    )


# ----------------------------------------------------------------------------
# duality-tower: pairing constancy, dual cones, Gamma checks
# ----------------------------------------------------------------------------

def suite_duality_tower(
    seed: int, *, depth: int = 4, levels: int = 2, samples: int = 50,
) -> list[Check]:
    rng = np.random.default_rng(seed)
    tower = make_tower(f"matrix-doubling:{depth}")
    checks = []

    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(1, depth + 1))
        x = random_element(tower.stage(k), rng)
        e = tower.thread(k, x)
        top = tower.stage(depth)
        f = pullback_thread(t=tower, f_top=Functional(
            top, rng.standard_normal((top.d, top.d))
            + 1j * rng.standard_normal((top.d, top.d))
        ))
        base = f.entry(k).pair(x)
        for m in range(k, depth + 1):
            worst = max(worst, abs(f.entry(m).pair(e.image_at(m)) - base))
    checks.append(Check(
        name="duality-tower/pairing-constancy",
        op="towers.pairing",
        status=_status(worst <= 1e-9),
        detail=f"stage evaluation constant along {samples} random thread pairs",
        evidence={"max_residual": _round(worst)},
    ))

    cones = verify_dual_cones(tower, samples=samples, rng=rng)
    checks.append(Check(
        name="duality-tower/dual-cones",
        op="towers.verify_dual_cones",
        status=_status(cones["passed"]),
        detail="positive pairings nonnegative; separating witnesses found",
        evidence={
            "violations": cones["positive_pairs"]["violations"],
            "separating_failures": cones["separating_states"]["failures"],
            "witness_failures": cones["negative_witnesses"]["failures"],
        },
    ))

    gamma = verify_gamma(tower, samples=min(samples, 30), max_level=levels, rng=rng)
    checks.append(Check(
        name="duality-tower/gamma",
        op="towers.verify_gamma",
        status=_status(gamma["passed"]),
        detail="injectivity, order and matrix-level correspondence at depth "
               f"{depth}",
        evidence={"failures": gamma["failures"]},
    ))

    worst = 0.0
    for emb in tower.embeddings:
        projected = emb.pullback(faithful_state(emb.target))
        expected = faithful_state(emb.source)
        worst = max(worst, la.frobenius(projected.riesz - expected.riesz))
    checks.append(Check(
        name="duality-tower/trace-state-thread",
        op="towers.Embedding.pullback",
        status=_status(worst <= 1e-10),
        detail="adjoints carry trace states to trace states (partial trace)",
        evidence={"max_residual": _round(worst)},
    ))
    return checks


SUITES = {
    "norm-sandwich": suite_norm_sandwich,
    "mou-unit": suite_mou_unit,
    "choi-effros": suite_choi_effros,
    "duality-tower": suite_duality_tower,
    "feasibility-oracle": suite_feasibility_oracle,
    "dual-equivalences": suite_dual_equivalences,
}


def run_suite(name: str, seed: int, **params) -> list[Check]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed, **params)
