import dataclasses
import json

import numpy as np
import pytest

from opsys import linalg as la
from opsys.errors import ValidationError
from opsys.feasibility import (
    FeasibilityProblem,
    FeasibilityVerdict,
    _AffineSpan,
    _farkas_certificate,
    dykstra_solve,
)
from opsys.dual import MatrixFunctional, cp_choi_problem
from opsys.suites import _choi_grids, _cross_check_grids
from opsys.systems import (
    named_system,
    random_hermitian_element,
    random_positive_element,
    random_system,
)


def pin_constraints(d, target):
    """Constraints pinning W = target entirely (full Hermitian basis)."""
    basis = named_system(f"full:{d}").hermitian_basis
    vals = np.real(np.einsum("aij,ji->a", basis, target))
    return [(b, float(v)) for b, v in zip(basis, vals)]


def swap_matrix():
    """Choi matrix of the transpose map on M_2."""
    s = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            s[2 * i + j, 2 * j + i] = 1.0
    return s


def assert_certificate_verifies(problem, z):
    """Check a Farkas certificate against the problem's own data, without
    the solver: Z = sum c_k A_k (least squares), Z >= 0, sum c_k b_k < 0 by
    more than the 10 tol margin."""
    norm = np.linalg.norm(z)
    a = np.stack([np.ascontiguousarray(m).reshape(-1).view(float)
                  for m, _ in problem.constraints], axis=1)
    b = np.array([v for _, v in problem.constraints])
    target = np.ascontiguousarray(z, dtype=complex).reshape(-1).view(float)
    c = np.linalg.lstsq(a, target, rcond=None)[0]
    assert np.linalg.norm(a @ c - target) <= 1e-10 * norm
    assert np.linalg.eigvalsh(z).min() >= -1e-12 * norm
    assert c @ b < -10 * problem.tol * norm


@pytest.mark.parametrize("a, b", [(np.eye(3), np.nan), (np.diag([1.0, np.inf, 0.0]), 1.0)],
                         ids=["nan-rhs", "inf-matrix"])
def test_non_finite_constraint_rejected(a, b):
    # such a problem used to build, and dykstra_solve then raised
    # NumericalError
    with pytest.raises(ValidationError, match="non-finite"):
        FeasibilityProblem(3, [(a, b)])


# -- real-orthonormal constraints -----------------------------------------------

@pytest.mark.parametrize("change", [
    lambda cons: [(2 * a, 2 * b) for a, b in cons],
    lambda cons: cons + [cons[2]],
    lambda cons: cons + [((cons[0][0] + cons[1][0]) / np.sqrt(2),
                          (cons[0][1] + cons[1][1]) / np.sqrt(2))],
    lambda cons: cons[:4] + [((1 + 1e-9) * cons[4][0], (1 + 1e-9) * cons[4][1])] + cons[5:],
], ids=["scaled", "duplicated", "dependent", "2e-9-off"])
def test_non_orthonormal_constraints_rejected(change):
    # consistent sets all: W = diag(1, 0.5, -0.25) meets every constraint,
    # yet only a real-orthonormal set is a problem; a 2e-9 error in the
    # Gram matrix is already too much
    cons = pin_constraints(3, np.diag([1.0, 0.5, -0.25]).astype(complex))
    FeasibilityProblem(3, cons)
    with pytest.raises(ValidationError, match="not real-orthonormal"):
        FeasibilityProblem(3, change(cons))


# -- affine projection ----------------------------------------------------------
# _AffineSpan.project is Dykstra's affine step: the Frobenius-nearest point
# of the affine set, for a complex Hermitian argument.  A single constraint
# (A, b) is given as (A, b) / ||A||_F, which is the same affine set

def test_project_affine_fixed_point():
    rng = np.random.default_rng(0)
    w0 = random_hermitian_element(named_system("full:3"), rng)
    problem = FeasibilityProblem(3, [(np.eye(3) / np.sqrt(3), np.trace(w0).real / np.sqrt(3))])
    assert np.linalg.norm(_AffineSpan.build(problem).project(w0) - w0) <= 1e-12


def test_project_affine_scalar():
    problem = FeasibilityProblem(1, [(np.eye(1), 3.0)])
    w = _AffineSpan.build(problem).project(np.zeros((1, 1), dtype=complex))
    assert w == pytest.approx(3.0)


def test_project_affine_uniform_correction():
    problem = FeasibilityProblem(2, [(np.eye(2) / np.sqrt(2), 1 / np.sqrt(2))])
    w = _AffineSpan.build(problem).project(np.zeros((2, 2), dtype=complex))
    assert np.allclose(w, np.eye(2) / 2)


def test_project_affine_is_nearest():
    # oracle: the projection must beat any other feasible point in Frobenius
    rng = np.random.default_rng(1)
    a = random_hermitian_element(named_system("full:3"), rng)
    norm = la.frobenius(a)
    span = _AffineSpan.build(FeasibilityProblem(3, [(a / norm, 0.7 / norm)]))
    w = random_hermitian_element(named_system("full:3"), rng)
    proj = span.project(w)
    assert np.trace(a @ proj).real == pytest.approx(0.7, abs=1e-10)
    for _ in range(20):
        other = span.project(random_hermitian_element(named_system("full:3"), rng))
        assert np.linalg.norm(w - proj) <= np.linalg.norm(w - other) + 1e-10


# -- Dykstra --------------------------------------------------------------------

def test_trace_one_feasible():
    problem = FeasibilityProblem(2, [(np.eye(2) / np.sqrt(2), 1 / np.sqrt(2))])
    verdict = dykstra_solve(problem)
    assert verdict.status == "feasible"
    w = verdict.witness
    assert np.trace(w).real == pytest.approx(1.0, abs=1e-7)
    assert la.lambda_min(w) >= -1e-7


def test_pinned_indefinite_infeasible():
    problem = FeasibilityProblem(2, pin_constraints(2, np.diag([1.0, -1.0])))
    verdict = dykstra_solve(problem)
    assert verdict.status == "infeasible"
    assert verdict.gap > 1e-6


def test_transpose_choi_infeasible():
    # oracle: the swap has eigenvalue -1
    swap = swap_matrix()
    assert la.lambda_min(swap) == pytest.approx(-1.0, abs=1e-12)
    problem = FeasibilityProblem(4, pin_constraints(4, swap))
    verdict = dykstra_solve(problem)
    assert verdict.status == "infeasible"
    assert verdict.iterations == 1  # the first certificate attempt verifies
    assert_certificate_verifies(problem, verdict.certificate)


def test_refuted_pauli_span_grid_certificate_verifies():
    # a level-2 grid refuted by x in M_2(S)+, built as the cp-certify
    # benchmark builds it: <x, C> = -2 ||x||_F
    rng = np.random.default_rng(8)
    s = named_system("pauli-span")
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w = g @ g.conj().T / 4 + 0.02 * np.eye(4)
    x = random_positive_element(s, rng, level=2)
    t = (np.trace(x @ w).real + 2.0 * np.linalg.norm(x)) / np.trace(x @ x).real
    problem = cp_choi_problem(MatrixFunctional.from_choi(s, w - t * x))
    verdict = dykstra_solve(problem)
    assert verdict.status == "infeasible"
    assert_certificate_verifies(problem, verdict.certificate)


def test_pinned_infeasible_verdicts_carry_certificates():
    rng = np.random.default_rng(9)
    infeasible = 0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        w0 = random_hermitian_element(named_system(f"full:{d}"), rng)
        if la.lambda_min(w0) > -1e-6:
            continue
        problem = FeasibilityProblem(d, pin_constraints(d, w0))
        verdict = dykstra_solve(problem)
        assert verdict.status == "infeasible"
        assert_certificate_verifies(problem, verdict.certificate)
        infeasible += 1
    assert infeasible >= 10


@pytest.mark.parametrize("depth, certified", [(5, False), (9, False), (11, True), (50, True)])
def test_certificate_needs_the_ten_tol_margin(depth, certified):
    # pinned diag(1, -depth tol): the displacement diag(0, depth tol) proves a
    # distance of exactly depth * tol, which must exceed 10 tol to be accepted
    tol = 1e-7
    x = np.diag([1.0, -depth * tol]).astype(complex)
    problem = FeasibilityProblem(2, pin_constraints(2, x), tol=tol)
    y = la.project_psd(x)
    z = _farkas_certificate(_AffineSpan.build(problem), y, x, tol)
    assert (z is not None) == certified
    if certified:
        assert_certificate_verifies(problem, z)


def test_no_unit_in_span_stays_undecided():
    # trace(diag(1, 0) W) = -1 has no PSD solution, but I is not in the
    # constraint span, so no certificate can be formed and the budget runs
    # out: infeasible is never reported without a certificate
    problem = FeasibilityProblem(2, [(np.diag([1.0, 0.0]), -1.0)], max_iter=200)
    verdict = dykstra_solve(problem)
    assert verdict.status == "undecided"
    assert verdict.certificate is None
    assert verdict.iterations == problem.max_iter


def test_oracle_equivalence_pinned():
    rng = np.random.default_rng(2)
    tol = 1e-7
    for _ in range(60):
        d = int(rng.integers(2, 7))
        while True:
            w0 = random_hermitian_element(named_system(f"full:{d}"), rng)
            lam = la.lambda_min(w0)
            if not (-10 * tol < lam < -tol):
                break
        problem = FeasibilityProblem(d, pin_constraints(d, w0), tol=tol)
        verdict = dykstra_solve(problem)
        assert verdict.status == ("feasible" if lam >= -tol else "infeasible")
        if verdict.status == "infeasible":
            assert_certificate_verifies(problem, verdict.certificate)


def test_feasible_witness_reverifies():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        target = g @ g.conj().T / d
        # pin only a few random orthonormal functionals of a PSD target:
        # feasible by design
        basis = named_system(f"full:{d}").hermitian_basis
        q = np.linalg.qr(rng.standard_normal((len(basis), 3)))[0]
        cons = [(a, float(np.trace(a @ target).real))
                for a in np.einsum("ak,aij->kij", q, basis)]
        problem = FeasibilityProblem(d, cons)
        verdict = dykstra_solve(problem)
        assert verdict.status == "feasible"
        for a, b in problem.constraints:
            assert np.trace(a @ verdict.witness).real == pytest.approx(b, abs=1e-7)
        assert la.lambda_min(verdict.witness) >= -1e-7


def test_gray_band_stays_undecided():
    # |lambda_min| between tol and 10*tol: neither test can fire, and the
    # contract says that surfaces as "undecided" rather than a guess
    tol = 1e-7
    w0 = np.diag([1.0, -5 * tol])
    problem = FeasibilityProblem(2, pin_constraints(2, w0), tol=tol, max_iter=300)
    verdict = dykstra_solve(problem)
    assert verdict.status == "undecided"
    assert verdict.iterations == problem.max_iter


@pytest.mark.parametrize("bad", [
    {"max_iter": 0},
    {"max_iter": -5},
    {"tol": 0.0},
    {"tol": -1e-7},
    {"tol": float("nan")},
    {"tol": float("inf")},
])
def test_problem_rejects_bad_budget_and_tolerance(bad):
    message = "max_iter must be positive" if "max_iter" in bad else "tol must be positive"
    with pytest.raises(ValidationError, match=message):
        FeasibilityProblem(2, [(np.eye(2) / np.sqrt(2), 1 / np.sqrt(2))], **bad)


@pytest.mark.parametrize("status", ["feasible", "infeasible", "undecided"])
def test_verdict_has_no_truth_value(status):
    # "undecided" is neither True nor False, so no verdict is coerced to one
    with pytest.raises(TypeError, match=r"\.status"):
        bool(FeasibilityVerdict(status, None, 0.0))


def test_problem_json_roundtrip():
    # the export of ``opsys dual check-cp --dump-problem`` decodes back to
    # the constraints, with the budget and tolerance beside them
    rng = np.random.default_rng(5)
    a = random_hermitian_element(named_system("full:3"), rng)
    a -= np.trace(a).real / 3 * np.eye(3)
    problem = FeasibilityProblem(3, [(np.eye(3) / np.sqrt(3), 1 / np.sqrt(3)),
                                     (a / la.frobenius(a), 0.25)], tol=1e-6, max_iter=123)
    obj = json.loads(json.dumps(problem.to_json()))
    assert (obj["dim"], obj["tol"], obj["max_iter"]) == (3, 1e-6, 123)
    assert len(obj["constraints"]) == len(problem.constraints)
    for c, (m, b) in zip(obj["constraints"], problem.constraints):
        assert np.array_equal(la.decode_matrix(c["a"]), m)
        assert c["b"] == b


# -- orthonormal constraints as the basis ---------------------------------------

def reference_span(problem):
    """The span every constraint set got before orthonormal ones were taken
    as given: Gram-Schmidt, then least squares for the right-hand sides."""
    flat = np.stack([a.reshape(-1) for a, _ in problem.constraints])
    b = np.array([v for _, v in problem.constraints])
    basis = la.orthonormalize(flat, 1e-12)
    coef = np.real(flat @ basis.conj().T)
    rhs = np.linalg.lstsq(coef, b, rcond=None)[0]
    span = _AffineSpan(basis=basis.view(float), rhs=rhs, has_unit=False)
    eye = np.eye(problem.dim, dtype=complex)
    span.has_unit = la.frobenius(eye - span.linear_part(eye)) <= 1e-10 * np.sqrt(problem.dim)
    return span


def orthonormal_problems():
    rng = np.random.default_rng(24)
    problems = []
    for d in range(2, 9):
        full = named_system(f"full:{d}")
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for target in (g @ g.conj().T / d, random_hermitian_element(full, rng)):
            problems.append(FeasibilityProblem(d, pin_constraints(d, target)))
    for name in ("pauli-span", "toeplitz:3"):
        for n in (1, 2, 3):
            for grid, _ in _choi_grids(named_system(name), n, rng):
                problems.append(cp_choi_problem(grid))
    return problems


def test_orthonormal_constraints_match_the_gram_schmidt_span(monkeypatch):
    problems = orthonormal_problems()
    for problem in problems:
        flat = np.stack([a.reshape(-1).view(float) for a, _ in problem.constraints])
        # the constraints are the basis as given
        assert np.array_equal(_AffineSpan.build(problem).basis, flat)
    fast = [dykstra_solve(problem) for problem in problems]
    monkeypatch.setattr(_AffineSpan, "build", classmethod(lambda cls, p: reference_span(p)))
    iterating = 0
    for problem, verdict in zip(problems, fast):
        reference = dykstra_solve(problem)
        assert (verdict.status, verdict.iterations) == (reference.status, reference.iterations)
        assert verdict.status != "undecided"
        if verdict.status == "feasible":
            assert np.abs(verdict.witness - reference.witness).max() <= 1e-10
        iterating += verdict.iterations > 1
    assert iterating >= 3  # the corrections run, not only the first step


@pytest.mark.parametrize("seed", [0, 3, 12])
def test_suite_cross_check_infeasible_instances_carry_certificates(seed):
    infeasible = 0
    for grid, cp in _cross_check_grids(seed):
        if cp:
            continue
        problem = cp_choi_problem(grid)
        verdict = dykstra_solve(problem)
        assert verdict.status == "infeasible"
        assert_certificate_verifies(problem, verdict.certificate)
        infeasible += 1
    assert infeasible == 40


# -- the affine set is derived once, from the checked constraints ---------------

def _level_choi_problems():
    rng = np.random.default_rng(36)
    pool = [named_system(name) for name in ("pauli-span", "diag:3", "toeplitz:3")]
    for s in pool + [random_system(np.random.default_rng(36), d=3, generators=1)]:
        for n in (1, 2, 3):
            for grid, _ in _choi_grids(s, n, rng):
                yield cp_choi_problem(grid)


def test_dykstra_span_is_the_restacked_constraints():
    # the span Dykstra projects onto is the constructor's real stack, equal
    # to the bit to the constraints stacked again, and so is its unit test
    for problem in _level_choi_problems():
        flat = np.stack([a.reshape(-1) for a, _ in problem.constraints]).view(float)
        span = _AffineSpan.build(problem)
        assert span.basis.shape == flat.shape and span.basis.tobytes() == flat.tobytes()
        assert np.array_equal(span.rhs, [b for _, b in problem.constraints])
        eye = np.eye(problem.dim, dtype=complex)
        vals = flat @ eye.reshape(-1).view(float)
        off = la.frobenius(eye - (vals @ flat).view(complex).reshape(eye.shape))
        assert span.has_unit == (off <= 1e-10 * np.sqrt(problem.dim))
        assert span.has_unit  # every Choi problem has I in its span


@pytest.mark.parametrize("name, value", [
    ("dim", 3), ("constraints", []), ("tol", 1e-3), ("max_iter", 5), ("_real", None),
])
def test_problem_is_immutable_once_checked(name, value):
    problem = FeasibilityProblem(2, [(np.eye(2) / np.sqrt(2), 1 / np.sqrt(2))])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(problem, name, value)
    a, _ = problem.constraints[0]
    with pytest.raises(ValueError):
        a[0, 0] = 2.0
    assert isinstance(problem.constraints, tuple)
