import numpy as np
import pytest

from opsys import linalg as la
from opsys._search import check_search_bounds
from opsys.dual import (
    Functional,
    MatrixFunctional,
    cp_choi_problem,
    cp_verdict,
    dual_order_unit_radius,
    faithful_state,
    is_cp,
    is_positive_functional,
    level_hermitian_basis,
    positivity_minimum,
    random_hermitian_functional,
    random_positive_functional,
    series_state,
)
from opsys.errors import DimensionError, MembershipError, ValidationError
from opsys.feasibility import FeasibilityProblem, dykstra_solve
from opsys.suites import _archimedean_check, _order_unit_check
from opsys.systems import (
    cone_member,
    make_operator_system,
    named_system,
    random_element,
    random_positive_element,
    random_system,
    subspace_member,
    to_blocks,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.conj().T


def block_grid(mf):
    """The grid [f_ij] of mf read off the blocks of its canonical Riesz
    matrix: f_ij is block (j, i), already canonical."""
    return [[Functional(mf.system, b, _canonical=True) for b in row]
            for row in to_blocks(mf.riesz, mf.system.d).swapaxes(0, 1)]


# -- evaluation and involution ---------------------------------------------------

def test_eval_trace():
    s = named_system("full:3")
    tr = Functional(s, np.eye(3))
    assert tr(np.eye(3)) == pytest.approx(3.0)


def test_eval_matrix_units():
    s = named_system("full:2")
    f = Functional(s, E21)
    assert f(E12) == pytest.approx(1.0)


def test_eval_membership_error():
    s = make_operator_system([PAULI_X], 2)
    f = Functional(s, np.eye(2))
    with pytest.raises(MembershipError):
        f(E12)


def test_involution_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_system(rng)
        f = Functional(s, rng.standard_normal((s.d, s.d))
                       + 1j * rng.standard_normal((s.d, s.d)))
        x = random_element(s, rng)
        # f*(x) = conj(f(x*)) has the Riesz matrix F*
        assert abs(Functional(s, f.riesz.conj().T)(x) - np.conj(f(x.conj().T))) <= 1e-10


def test_canonical_riesz_agrees_on_basis():
    rng = np.random.default_rng(1)
    s = make_operator_system([E12], 2)
    raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = Functional(s, raw)
    for b in s.basis:
        assert abs(f(b) - np.trace(raw @ b)) <= 1e-12
    # canonical matrix lies in the span and is unique
    assert subspace_member(s, f.riesz, 1e-10)


def test_riesz_of_values_matches_basis_sum():
    rng = np.random.default_rng(9)
    for s in (named_system("full:3"), named_system("toeplitz:4"), random_system(rng)):
        vals = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
        want = sum(v * b.conj().T for v, b in zip(vals, s.basis))
        f = Functional(s, s.riesz_of_values(vals[None]))
        assert np.abs(f.riesz - want).max() <= 1e-13
        assert np.abs([f.pair(b) for b in s.basis] - vals).max() <= 1e-13


# -- positivity -------------------------------------------------------------------

def _seam_systems():
    return [named_system("pauli-span"), named_system("toeplitz:3"),
            random_system(np.random.default_rng(22), d=4)]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_level_projection_is_least_squares_onto_level_hermitian_span(level):
    # M_n(S) is the complex span of the real basis of M_n(S)_h
    rng = np.random.default_rng(23)
    for s in _seam_systems():
        side = level * s.d
        span = level_hermitian_basis(s, level).reshape(-1, side * side).T
        for _ in range(2):
            x = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            c = np.linalg.lstsq(span, x.reshape(-1), rcond=None)[0]
            want = (span @ c).reshape(side, side)
            assert np.abs(s.project_level(x) - want).max() <= 1e-12
            assert subspace_member(s, s.project_level(x), 1e-12)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_riesz_of_values_reproduces_its_basis_values(level):
    # the adjoint of the coordinate map, read back by the element's values
    # on the basis and by the system's own basis pairing
    rng = np.random.default_rng(24)
    for s in _seam_systems():
        vals = (rng.standard_normal((level * level, s.dim))
                + 1j * rng.standard_normal((level * level, s.dim)))
        riesz = s.riesz_of_values(vals)
        assert np.abs(s.project_level(riesz) - riesz).max() <= 1e-12
        mf = MatrixFunctional(s, riesz)
        assert mf.n == level
        assert np.abs(mf.values(s.basis) - vals).max() <= 1e-12
        assert np.abs(s.level_values(mf.riesz) - vals).max() <= 1e-12


def test_of_map_grid_entries_are_the_map_entries():
    # f_ij(x) = phi(x)_ij on the basis, for a map S -> M_3 given by images
    rng = np.random.default_rng(25)
    for s in _seam_systems():
        images = rng.standard_normal((s.dim, 3, 3)) + 1j * rng.standard_normal((s.dim, 3, 3))
        grid = block_grid(MatrixFunctional.of_map(s, images))
        for i in range(3):
            for j in range(3):
                got = [grid[i][j](b) for b in s.basis]
                assert np.abs(np.array(got) - images[:, i, j]).max() <= 1e-12


def test_trace_positive():
    s = named_system("full:3")
    assert is_positive_functional(Functional(s, np.eye(3)))


def test_pauli_x_not_positive():
    s = named_system("full:2")
    assert not is_positive_functional(Functional(s, PAULI_X))


def test_subsystem_boundary_positive_brute_force():
    # S = span{I, X}: the section is x(t) = (I + tX)/2, |t| <= 1, and
    # trace(F x(t)) = (1 + t)/2 for F = (I + X)/2: min 0 at t = -1
    s = make_operator_system([PAULI_X], 2)
    f = Functional(s, (np.eye(2) + PAULI_X) / 2)
    ts = np.linspace(-1, 1, 2001)
    brute = min((1 + t) / 2 for t in ts)
    assert brute == pytest.approx(0.0, abs=1e-12)
    val, x = positivity_minimum(f)
    assert abs(val - brute) <= 1e-6
    assert is_positive_functional(f)


def test_positivity_minimum_full_is_exact():
    rng = np.random.default_rng(2)
    s = named_system("full:4")
    h = la.hermitian_part(rng.standard_normal((4, 4))
                          + 1j * rng.standard_normal((4, 4)))
    val, x = positivity_minimum(Functional(s, h))
    assert val == pytest.approx(la.lambda_min(h), abs=1e-10)
    assert np.trace(x).real == pytest.approx(1.0, abs=1e-10)


def test_positivity_dual_cone_sampling():
    rng = np.random.default_rng(3)
    s = named_system("pauli-span")
    for _ in range(10):
        f = random_hermitian_functional(s, rng)
        verdict = is_positive_functional(f)
        if verdict:
            for _ in range(200):
                x = random_positive_element(s, rng)
                assert f(x).real >= -1e-6 * max(1.0, la.op_norm(x))
        else:
            val, witness = positivity_minimum(f)
            assert val < -1e-8
            assert la.lambda_min(witness) >= -1e-8
            assert subspace_member(s, witness, 1e-8)


@pytest.mark.parametrize("name", ["pauli-span", "toeplitz:3"])
def test_positivity_evidence_rechecks_outside_the_solver(name):
    # the answer is checked against Dykstra on the explicit level-1 Choi
    # problem, an independent solver; the kernel verdict behind it is
    # re-checked by hand: a witness W >= 0 pairs like F on the Hermitian
    # basis, and a certificate Z normalizes to a point of S+ where f < -tol
    tol = 1e-8
    rng = np.random.default_rng(17)
    s = named_system(name)
    hb = s.hermitian_basis
    seen = set()
    for k in range(12):
        f = (random_positive_functional if k % 2 == 0 else random_hermitian_functional)(s, rng)
        mf = MatrixFunctional.from_grid([[f]])
        oracle = dykstra_solve(cp_choi_problem(mf, tol))
        assert oracle.status != "undecided"
        positive = is_positive_functional(f, tol)
        assert positive == (oracle.status == "feasible")
        verdict = cp_verdict(mf, tol)
        assert verdict.status == oracle.status
        fr = la.hermitian_part(f.riesz)
        if positive:
            w = verdict.witness
            pairing = np.einsum("aij,ji->a", hb, w - fr).real
            assert np.abs(pairing).max() <= 1e-10
            assert la.lambda_min(w) >= -tol
        else:
            x = verdict.certificate / np.trace(verdict.certificate).real
            assert s.residual(x) <= 1e-10
            assert la.lambda_min(x) >= -1e-12
            assert np.trace(fr @ x).real < -tol
        seen.add(positive)
    assert seen == {True, False}


def test_certified_positivity_skips_the_section_search(monkeypatch):
    import opsys.dual as dual_module

    def search(*args, **kwargs):
        raise AssertionError("section search called on a certified verdict")

    monkeypatch.setattr(dual_module, "positivity_minimum", search)
    s = make_operator_system([PAULI_X], 2)
    assert is_positive_functional(Functional(s, (np.eye(2) + PAULI_X) / 2))
    assert not is_positive_functional(Functional(s, PAULI_X))
    assert is_positive_functional(Functional(named_system("full:2"), np.eye(2)))


def test_gray_band_positivity_is_refuted_or_undecided(monkeypatch):
    # on span{I, X} the section is (I + tX)/2 with |t| <= 1, so
    # f = (I + X)/2 - 3e-8 I has minimum -3e-8: between -10 tol and -tol,
    # where no Farkas certificate with the 10 tol margin exists.  The
    # kernel's last primal point refutes it, and is checked again here.
    import opsys.dual as dual_module

    tol = 1e-8
    s = make_operator_system([PAULI_X], 2)
    f = Functional(s, (np.eye(2) + PAULI_X) / 2 - 3e-8 * np.eye(2))
    assert cp_verdict(MatrixFunctional.from_grid([[f]]), tol).status == "undecided"
    real_refutes = dual_module._refutes
    points = []

    def spy(g, z, tol):
        refuted = real_refutes(g, z, tol)
        if refuted:
            points.append(z / np.trace(z).real)
        return refuted

    monkeypatch.setattr(dual_module, "_refutes", spy)
    assert is_positive_functional(f, tol) is False
    assert len(points) == 1
    x = points[0]
    assert cone_member(s, x, 1e-10)
    assert f(x).real < -tol
    # with every Newton step failing no witness and no refuting point
    # exists: the answer is undecided, never an uncertified True
    monkeypatch.setattr(dual_module, "_refutes", real_refutes)

    def failing_step(m, dm):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(dual_module, "_step", failing_step)
    before = dual_module.kernel_counts()
    assert is_positive_functional(f, tol) is None
    assert dual_module.kernel_counts(since=before)["breakdowns"] == 1


# -- complete positivity -----------------------------------------------------------

def identity_grid(system):
    d = system.d
    return MatrixFunctional.from_grid(
        [[Functional(system, la.basis_matrix(d, j, i)) for j in range(d)]
         for i in range(d)]
    )


def transpose_grid(system):
    d = system.d
    return MatrixFunctional.from_grid(
        [[Functional(system, la.basis_matrix(d, i, j)) for j in range(d)]
         for i in range(d)]
    )


def test_identity_map_is_cp():
    s = named_system("full:2")
    mf = identity_grid(s)
    choi = mf.riesz
    # oracle: maximally entangled (rank one, trace 2)
    assert np.linalg.matrix_rank(choi) == 1
    assert la.lambda_min(choi) >= -1e-12
    assert is_cp(mf) is True


def test_transpose_map_not_cp():
    s = named_system("full:2")
    mf = transpose_grid(s)
    choi = mf.riesz
    assert la.lambda_min(choi) == pytest.approx(-1.0, abs=1e-12)  # the swap
    assert is_cp(mf) is False


def test_transpose_restricted_to_xy_plane_is_cp():
    # on span{I, X, Y} the transpose agrees with conjugation by X, a
    # unitary channel, so the restriction extends completely positively
    # even though the ambient transpose does not
    s = named_system("pauli-span")
    grid = [[Functional(s, la.basis_matrix(2, i, j)) for j in range(2)]
            for i in range(2)]
    mf = MatrixFunctional.from_grid(grid)
    assert is_cp(mf) is True


def test_is_cp_rejects_non_hermitian_grid():
    s = named_system("full:2")
    f = Functional(s, E12)
    z = Functional.zero(s)
    mf = MatrixFunctional.from_grid([[f, f], [z, f]])
    assert is_cp(mf) is False


def test_dual_elements_reject_malformed_input():
    s, t = named_system("pauli-span"), named_system("toeplitz:3")
    f = faithful_state(s)
    with pytest.raises(DimensionError, match="square"):
        MatrixFunctional.from_grid([[f, f]])
    with pytest.raises(DimensionError, match="square"):
        MatrixFunctional.from_grid([])
    g = Functional(named_system("full:2"), np.eye(2))
    with pytest.raises(ValidationError, match="mixed systems"):
        MatrixFunctional.from_grid([[f, f], [f, g]])
    with pytest.raises(ValidationError, match="different systems or levels"):
        f + MatrixFunctional.diag(f, 2)
    with pytest.raises(DimensionError, match="riesz matrix of shape"):
        Functional(t, np.eye(2))
    with pytest.raises(DimensionError, match="riesz matrix of shape"):
        Functional(s, np.eye(4))


def test_choi_grid_roundtrip():
    rng = np.random.default_rng(4)
    s = named_system("pauli-span")
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mf = MatrixFunctional.from_choi(s, g @ g.conj().T)
    clone = MatrixFunctional.from_choi(s, mf.riesz)
    blocks, clone_blocks = to_blocks(mf.riesz, s.d), to_blocks(clone.riesz, s.d)
    for i in range(2):
        for j in range(2):
            assert la.frobenius(blocks[i, j] - clone_blocks[i, j]) <= 1e-10


def test_grid_view_roundtrips_exactly():
    rng = np.random.default_rng(41)
    for name in ("pauli-span", "toeplitz:3", "full:2"):
        s = named_system(name)
        for n in (1, 2, 3):
            side = n * s.d
            raw = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            mf = MatrixFunctional(s, raw)
            assert np.array_equal(MatrixFunctional.from_grid(block_grid(mf)).riesz, mf.riesz)


def test_level_canonical_form_is_blockwise_functional_projection():
    # block (i, j) of the canonical matrix is the canonical Riesz matrix of
    # the functional f_ji, so the level-n projection is the level-1 one on
    # every block
    rng = np.random.default_rng(42)
    for name in ("pauli-span", "toeplitz:3", "full:2"):
        s = named_system(name)
        for n in (1, 2, 3):
            side = n * s.d
            raw = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            blocks = to_blocks(MatrixFunctional(s, raw).riesz, s.d)
            raw_blocks = to_blocks(raw, s.d)
            for i in range(n):
                for j in range(n):
                    f_ji = Functional(s, raw_blocks[i, j])
                    assert np.abs(blocks[i, j] - f_ji.riesz).max() <= 1e-12


def test_functional_is_its_own_level_one_grid():
    # a functional goes to cp_verdict as itself; wrapping it in a 1 x 1
    # grid changes neither the status nor the evidence
    rng = np.random.default_rng(43)
    for name in ("pauli-span", "toeplitz:3", "full:2"):
        s = named_system(name)
        for k in range(6):
            f = (random_positive_functional if k % 2 == 0 else random_hermitian_functional)(s, rng)
            direct = cp_verdict(f)
            wrapped = cp_verdict(MatrixFunctional.from_grid([[f]]))
            assert direct.status == wrapped.status
            for a, b in ((direct.witness, wrapped.witness),
                         (direct.certificate, wrapped.certificate)):
                assert (a is None and b is None) or np.array_equal(a, b)


def test_cp_cross_validates_positivity_level1():
    # two independent solvers must agree on the level-1 Choi problem:
    # Dykstra on the explicit problem against the interior-point kernel
    # behind is_cp and is_positive_functional
    rng = np.random.default_rng(5)
    s = named_system("pauli-span")
    for k in range(50):
        if k % 2 == 0:
            f = random_positive_functional(s, rng)
        else:
            f = random_hermitian_functional(s, rng)
        mf = MatrixFunctional.from_grid([[f]])
        oracle = dykstra_solve(cp_choi_problem(mf))
        assert oracle.status != "undecided"
        assert is_cp(mf) is (oracle.status == "feasible")
        assert is_positive_functional(f, 1e-7) is (oracle.status == "feasible")


def test_choi_solver_agreement_on_full_algebra():
    # on M_d the CP question is the eigenvalue sign of the Choi matrix; the
    # Dykstra route (fed the fully pinned problem directly) must agree
    rng = np.random.default_rng(6)
    s = named_system("full:2")
    disagreements = 0
    for _ in range(100):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        choi = la.hermitian_part(g) if rng.random() < 0.5 else g @ g.conj().T / 4
        lam = la.lambda_min(choi)
        if -1e-6 < lam < -1e-8:
            continue
        mf = MatrixFunctional.from_choi(s, choi)
        kbasis = level_hermitian_basis(s, 2)
        rhs = np.real(np.einsum("aij,ji->a", kbasis, choi))
        problem = FeasibilityProblem(4, list(zip(kbasis, rhs)))
        verdict = dykstra_solve(problem)
        eigen_cp = is_cp(mf)
        solver_cp = verdict.status == "feasible"
        if eigen_cp != solver_cp or verdict.status == "undecided":
            disagreements += 1
    assert disagreements == 0


def test_cp_verdict_on_full_algebra():
    s = named_system("full:2")
    verdict = cp_verdict(identity_grid(s))
    assert verdict.status == "feasible" and verdict.iterations == 0
    assert np.allclose(verdict.witness, identity_grid(s).riesz)
    assert verdict.certificate is None
    choi = transpose_grid(s).riesz
    verdict = cp_verdict(transpose_grid(s))
    assert verdict.status == "infeasible" and verdict.iterations == 0
    p = verdict.certificate
    # oracle: a rank-one projector with <P, C> = lambda_min(C) = -1
    assert np.allclose(p @ p, p) and np.trace(p).real == pytest.approx(1.0)
    assert np.trace(p @ choi).real == pytest.approx(-1.0, abs=1e-12)
    assert verdict.gap == pytest.approx(1.0, abs=1e-12)


def test_cp_verdict_reports_solver_evidence(monkeypatch):
    # proper subsystems are decided by the section kernel, not by Dykstra;
    # its witness and certificate are re-checked here by hand
    import opsys.feasibility as feasibility_module

    def dykstra(problem):
        raise AssertionError("Dykstra called on a CP verdict")

    monkeypatch.setattr(feasibility_module, "dykstra_solve", dykstra)
    tol = 1e-7
    s = named_system("pauli-span")
    kbasis = level_hermitian_basis(s, 2)
    grid = MatrixFunctional.from_grid([[Functional(s, la.basis_matrix(2, i, j))
                                        for j in range(2)] for i in range(2)])
    choi = la.hermitian_part(grid.riesz)
    verdict = cp_verdict(grid, tol)
    assert verdict.status == "feasible" and verdict.certificate is None
    assert 0 <= verdict.iterations <= 50
    w = verdict.witness
    pairing = np.einsum("aij,ji->a", kbasis, w - choi).real
    assert np.abs(pairing).max() <= 1e-10
    assert la.lambda_min(w) >= -tol
    assert is_cp(grid) is True
    # the identity map restricted to pauli-span, scaled by -1, is refuted by
    # a PSD Z in M_2(S) whose pairing with the Choi data is below
    # -10 tol ||Z||_F
    negated = identity_grid(s) * -1.0
    choi = la.hermitian_part(negated.riesz)
    verdict = cp_verdict(negated, tol)
    assert verdict.status == "infeasible" and verdict.witness is None
    z = verdict.certificate
    assert subspace_member(s, z, 1e-10) and la.is_hermitian(z, 1e-12)
    assert la.lambda_min(z) >= -1e-12
    assert np.trace(choi @ z).real < -10 * tol * la.frobenius(z)
    assert is_cp(negated) is False


def test_margin_grid_undecided_by_dykstra_is_certified():
    # system-05 of `opsys suite choi-effros --seed 3` (d = 4, dim = 3): the
    # level-2 grid (r + margin) delta - g of its first sampled functional
    # left Dykstra undecided at 20000 steps (gap 5.8e-7, tol 1e-7); the
    # kernel certifies it with a strictly positive witness
    from opsys.suites import _sample_systems

    tol = 1e-7
    rng = np.random.default_rng(3)
    systems = _sample_systems(rng, 20, 4)
    for s in systems[:5]:
        for _ in range(20):
            random_hermitian_functional(s, rng)
    s = systems[5]
    assert (s.d, s.dim) == (4, 3)
    delta = faithful_state(s)
    g = random_hermitian_functional(s, rng)
    r = max(dual_order_unit_radius(delta, g, 1), dual_order_unit_radius(delta, -1.0 * g, 1))
    grid = MatrixFunctional.diag((r + 1e-2 * max(1.0, r)) * delta - g, 2)
    verdict = cp_verdict(grid, tol)
    assert verdict.status == "feasible"
    choi = la.hermitian_part(grid.riesz)
    pairing = np.einsum("aij,ji->a", level_hermitian_basis(s, 2), verdict.witness - choi).real
    assert np.abs(pairing).max() <= 1e-10
    assert la.lambda_min(verdict.witness) >= -tol


def test_cp_problem_exposed_on_every_system():
    s = named_system("pauli-span")
    f = random_positive_functional(s, np.random.default_rng(7))
    assert len(cp_choi_problem(MatrixFunctional.from_grid([[f]])).constraints) == s.dim
    # on full:2 the problem pins every Hermitian-basis pairing of the Choi
    # matrix, and Dykstra reaches cp_verdict's eigenvalue verdict
    full = named_system("full:2")
    g = random_positive_functional(full, np.random.default_rng(8))
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)  # Choi matrix of the transpose
    grids = (MatrixFunctional.from_grid([[g]]), MatrixFunctional.diag(g, 2),
             MatrixFunctional.from_choi(full, swap))
    for mf, status in zip(grids, ("feasible", "feasible", "infeasible")):
        problem = cp_choi_problem(mf)
        basis = level_hermitian_basis(full, mf.n)
        assert problem.dim == 2 * mf.n and len(problem.constraints) == len(basis)
        for (a, b), k in zip(problem.constraints, basis):
            assert np.allclose(a, k, atol=1e-15)
            assert b == pytest.approx(np.trace(k @ mf.riesz).real, abs=1e-12)
        assert dykstra_solve(problem).status == cp_verdict(mf).status == status


# -- faithful states -----------------------------------------------------------------

def test_trace_state_values():
    s = named_system("full:2")
    delta = faithful_state(s)
    assert delta(la.basis_matrix(2, 0, 0)) == pytest.approx(0.5)


def test_trace_state_faithful_on_cone():
    rng = np.random.default_rng(9)
    s = random_system(rng)
    delta = faithful_state(s)
    for _ in range(20):
        x = random_positive_element(s, rng)
        if abs(delta(x)) <= 1e-12:
            assert la.op_norm(x) <= 1e-10


def test_series_state_faithful_brute_force():
    # dense states on diag:2 are convex combinations (t, 1-t); a weighted
    # series of a dense sample must be strictly positive on the nonzero
    # diagonal PSD matrices of the 1-simplex
    s = named_system("diag:2")
    states = [
        Functional(s, np.diag([t, 1 - t]).astype(complex))
        for t in np.linspace(0.05, 0.95, 7)
    ]
    delta = series_state(states)
    assert delta(np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    for t in np.linspace(0, 1, 101):
        x = np.diag([t, 1 - t]).astype(complex)
        assert delta(x).real > 0.04


# -- dual order-unit radii -------------------------------------------------------------

def test_radius_matches_eigen_oracle_on_full():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        s = named_system(f"full:{d}")
        delta = faithful_state(s)
        g = random_hermitian_functional(s, rng)
        r = dual_order_unit_radius(delta, g, 1)
        oracle = max(0.0, d * la.lambda_max(g.riesz))
        assert r == pytest.approx(oracle, abs=1e-5)


def test_radius_boundary_case_delta_itself():
    s = named_system("full:2")
    delta = faithful_state(s)
    r = dual_order_unit_radius(delta, delta, 1)
    assert r == pytest.approx(1.0, abs=1e-5)


def test_radius_none_for_non_faithful():
    s = named_system("diag:2")
    vec_state = Functional(s, np.diag([1.0, 0.0]).astype(complex))
    complement = Functional(s, np.diag([0.0, 1.0]).astype(complex))
    r = dual_order_unit_radius(vec_state, complement, 1, r_max=1e4)
    assert r is None


@pytest.mark.parametrize("name", ["toeplitz:3", "full:3"])
def test_non_finite_element_is_not_evaluated(name):
    # a NaN residual fails no `res > tol`: f(x) used to return nan+nanj
    with pytest.raises(MembershipError):
        faithful_state(named_system(name))(np.full((3, 3), np.nan))


def test_non_finite_riesz_matrix_rejected():
    # a NaN grid used to be projected, read "infeasible" with no certificate
    # by cp_verdict and not positive by is_positive_functional
    s = named_system("toeplitz:3")
    with pytest.raises(ValidationError, match="non-finite"):
        MatrixFunctional(s, np.full((6, 6), np.nan))
    with pytest.raises(ValidationError, match="non-finite"):
        Functional(s, np.diag([1.0, np.inf, 1.0]))


def _trace_and_series_states(s, rng):
    raw = []
    for _ in range(3):
        g = rng.standard_normal((s.d, s.d)) + 1j * rng.standard_normal((s.d, s.d))
        p = g @ g.conj().T + 0.1 * np.eye(s.d)
        raw.append(Functional(s, p / np.trace(p).real))
    return faithful_state(s), series_state(raw)


@pytest.mark.parametrize("name", ["pauli-span", "toeplitz:3", "random"])
def test_kernel_radius_evidence_rechecks_by_hand(name):
    # the Charnes-Cooper solve behind each radius at levels 1-3, re-checked
    # by hand: W = r D - G - K (D = I_n (x) delta, G = I_n (x) g) is PSD and
    # pairs like r D - G with M_n(S), and the lifted primal point lies in
    # M_n(S)+ and closes the bracket to precision.  The levels run inside
    # one test so the test ids stay those of the level-1 version.
    import opsys.dual as dual_module

    tol, precision = 1e-8, 1e-6
    rng = np.random.default_rng(21)
    s = random_system(rng, d=4, generators=2) if name == "random" else named_system(name)
    for level in (1, 2, 3):
        hb = level_hermitian_basis(s, level)
        eye = np.eye(level)
        for delta in _trace_and_series_states(s, rng):
            for _ in range(4):
                g = random_hermitian_functional(s, rng)
                dm = np.kron(eye, la.hermitian_part(delta.riesz))
                gm = np.kron(eye, la.hermitian_part(g.riesz))
                solve = dual_module._section_sdp(s, -gm, dm)
                assert solve.stop == "converged"
                assert 0 < solve.iterations <= dual_module._SDP_ITERS
                lower, upper = solve.t, np.vdot(-gm, solve.x).real
                assert abs(upper - lower) <= 1e-8 * max(1.0, abs(upper))
                r = max(0.0, -solve.t)
                w = r * dm - gm - solve.k
                assert la.lambda_min(w) >= -tol
                pairing = np.einsum("aij,ji->a", hb, w - (r * dm - gm)).real
                assert np.abs(pairing).max() <= 1e-10
                coords = np.einsum("aij,ji->a", hb, la.hermitian_part(solve.x)).real
                x = np.einsum("a,aij->ij", coords, hb)
                x = la.hermitian_part(x) + max(0.0, -la.lambda_min(x)) * np.eye(len(x))
                x = x / np.trace(x).real
                assert cone_member(s, x, tol)
                # r >= 0 always, so the bracket's lower end is
                # max(0, <G, x>/<D, x>)
                ratio = np.trace(gm @ x).real / np.trace(dm @ x).real
                assert max(0.0, ratio) >= r - precision
                radius = dual_order_unit_radius(delta, g, level)
                assert radius == pytest.approx(r, abs=1e-12)


def test_radius_fallback_probes_stop_at_certificates():
    # the one radius of a 160-radius sweep (pauli-span, toeplitz:3/4,
    # diag:3, seeds 31-40, trace and series states, levels 2-3) whose kernel
    # evidence does not re-check, so it bisects.  Each probe is the CP
    # verdict of r (I_n (x) delta) - g, which stops at the first witness or
    # certificate that checks; it used to run every solve to convergence
    # (453 Newton steps, 3 cap stops, no certificate stop).
    import opsys.dual as dual_module

    s = named_system("toeplitz:4")
    rng = np.random.default_rng(37)
    cases = []
    for delta in _trace_and_series_states(s, rng):
        for n in (2, 3):
            g = la.hermitian_part(rng.standard_normal((n * s.d, n * s.d)))
            cases.append((delta, MatrixFunctional(s, g)))
    delta, g = cases[-1]  # the series state at level 3
    before = dual_module.kernel_counts()
    r = dual_order_unit_radius(delta, g)
    counts = dual_module.kernel_counts(since=before)
    assert counts["bisection_fallbacks"] == 1
    assert r == pytest.approx(11.758309364318848, abs=1e-9)
    assert counts["certified"] >= 25


def test_kernel_converges_within_twenty_steps():
    # 100 radius solves on random M_4 subsystems (trace and series states):
    # every one converges, in at most 11-13 steps on this pool.  Without the
    # centering safeguard on Mehrotra's sigma some primal steps jam near the
    # boundary and solves end at a breakdown or the cap.
    import opsys.dual as dual_module

    rng = np.random.default_rng(30)
    for _ in range(5):
        s = random_system(rng, d=4, generators=2)
        for delta in _trace_and_series_states(s, rng):
            dm = la.hermitian_part(delta.riesz)
            for _ in range(10):
                g = random_hermitian_functional(s, rng)
                solve = dual_module._section_sdp(s, -la.hermitian_part(g.riesz), dm)
                assert solve.stop == "converged" and solve.iterations <= 20


def _barrier_section_minimum(f):
    """Independent oracle for min Re f(x) over x in S+ with trace x = 1: a
    log-barrier path over Hermitian coordinates.  Every iterate is strictly
    inside S+, so the returned point is an explicit refutation whenever its
    value is below -tol."""
    s = f.system
    hb = s.hermitian_basis
    gamma = np.einsum("ij,aji->a", la.hermitian_part(f.riesz), hb).real
    unit = np.einsum("aii->a", hb).real  # coordinates of I
    p = np.linalg.svd(unit[None])[2][1:].T  # moves that keep the trace
    c = unit / (unit @ unit)  # I / d

    def barrier(c, t):
        x = np.einsum("a,aij->ij", c, hb)
        try:
            logdet = 2 * np.log(np.diag(np.linalg.cholesky(x)).real).sum()
        except np.linalg.LinAlgError:
            return np.inf, None
        return t * gamma @ c - logdet, x

    for t in 10.0 ** np.arange(0, 13, 2):
        for _ in range(50):
            val, x = barrier(c, t)
            xh = np.einsum("ij,ajk->aik", np.linalg.inv(x), hb)
            grad = p.T @ (t * gamma - np.einsum("aii->a", xh).real)
            hess = p.T @ np.einsum("aij,bji->ab", xh, xh).real @ p
            step = -np.linalg.solve(hess, grad)
            if -grad @ step < 1e-6:
                break
            a = 1.0
            while barrier(c + a * p @ step, t)[0] > val + 0.25 * a * grad @ step:
                a /= 2
            c = c + a * p @ step
    x = la.hermitian_part(np.einsum("a,aij->ij", c, hb))
    return f.pair(x).real, x


def test_trace_state_radii_are_not_refuted():
    # 84 trace-state radii on proper subsystems; each must dominate: no x in
    # S+ with trace 1 where (r delta - g)(x) < -tol.  The section search
    # this kernel replaced left 14 of them refuted, by up to 1.7e-5.
    tol = 1e-8
    rng = np.random.default_rng(3)
    pool = [named_system(n) for n in ("pauli-span", "diag:3", "toeplitz:3", "toeplitz:4")]
    pool += [random_system(rng, d=3, generators=1) for _ in range(5)]
    pool += [random_system(rng, d=4, generators=2) for _ in range(5)]
    frng = np.random.default_rng(99)
    refuted = []
    for s in pool:
        delta = faithful_state(s)
        for _ in range(6):
            g = random_hermitian_functional(s, frng)
            r = dual_order_unit_radius(delta, g, 1)
            val, x = _barrier_section_minimum(r * delta - g)
            assert cone_member(s, x, tol)
            assert np.trace(x).real == pytest.approx(1.0, abs=1e-12)
            if val < -tol:
                refuted.append(val)
    assert refuted == []


@pytest.mark.parametrize("fault_after", [0, 1, 6])
def test_kernel_breakdown_never_raises(monkeypatch, fault_after):
    # a factorization that fails near a rank-deficient optimum ends the
    # solve as "breakdown"; the evidence check, not an exception, decides.
    # Here the failure is injected after a fixed number of step-length
    # calls (two per Newton step: predictor and corrector) on toeplitz:3
    # boundary functionals (PSD Riesz matrix of rank d - 1, so the
    # minimizer is rank-deficient): in the first step's predictor, its
    # corrector, and the fourth step's predictor.
    import opsys.dual as dual_module

    rng = np.random.default_rng(23)
    s = named_system("toeplitz:3")
    delta = faithful_state(s)
    cases = []
    for _ in range(3):
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        f = Functional(s, g @ g.conj().T)
        cases.append((f, positivity_minimum(f)[0], dual_order_unit_radius(delta, f, 1)))
    real_step = dual_module._step
    calls = []

    def failing_step(m, dm):
        calls.append(1)
        if len(calls) > fault_after:
            raise np.linalg.LinAlgError("injected")
        return real_step(m, dm)

    monkeypatch.setattr(dual_module, "_step", failing_step)
    for f, minimum, radius in cases:
        calls.clear()
        before = dual_module.kernel_counts()
        val, x = positivity_minimum(f)
        assert cone_member(s, x, 1e-8) and val >= minimum - 1e-12
        counts = dual_module.kernel_counts(since=before)
        assert counts["breakdowns"] == counts["solves"] == 1
        calls.clear()
        before = dual_module.kernel_counts()
        r = dual_order_unit_radius(delta, f, 1)
        counts = dual_module.kernel_counts(since=before)
        assert counts["breakdowns"] >= 1
        # a broken solve cannot close the bracket, so the bisection decides;
        # its probes pass only on a certified lower bound, so the radius
        # may come out loose (up to the ambient d lambda_max) but dominates
        assert counts["bisection_fallbacks"] == 1
        assert radius - 1e-6 <= r <= 3 * la.lambda_max(f.riesz) + 1e-3
        assert _barrier_section_minimum(r * delta - f)[0] >= -1e-8
    monkeypatch.setattr(dual_module, "_step", real_step)
    for f, _, _ in cases:
        before = dual_module.kernel_counts()
        positivity_minimum(f)
        dual_order_unit_radius(delta, f, 1)
        assert dual_module.kernel_counts(since=before)["solves"] == 2


def test_step_lengths_match_the_per_matrix_rule():
    # the batched step of the Newton loop against the rule applied to one
    # matrix at a time: factor m, whiten dm, and step _SDP_STEP of the way
    # to the PSD boundary, at most 1
    import opsys.dual as dual_module

    rng = np.random.default_rng(41)

    def hermitian(size):
        return la.hermitian_part(rng.standard_normal((size, size))
                                 + 1j * rng.standard_normal((size, size)))

    seen = set()
    for scale in (1e-2, 0.3, 1.0, 10.0, 1e3):
        for size in (2, 3, 6):
            m = np.stack([h @ h + 1e-3 * np.eye(size) for h in (hermitian(size), hermitian(size))])
            h = scale * hermitian(size)
            dm = np.stack([h, h @ h])  # a PSD direction never leaves the cone
            expected = []
            for mi, di in zip(m, dm):
                li = np.linalg.inv(np.linalg.cholesky(mi))
                lam = np.linalg.eigvalsh(li @ di @ li.conj().T)[0]
                expected.append(1.0 if lam >= 0 else min(1.0, dual_module._SDP_STEP / -lam))
            li = np.linalg.inv(np.linalg.cholesky(m))
            steps = dual_module._step(li, dm)
            assert steps.shape == (2,)
            assert steps.tolist() == expected
            seen.update("full" if a == 1.0 else "short" for a in expected)
    assert seen == {"full", "short"}


def test_cp_start_point_decides_in_zero_steps():
    # at the start point K = 0, so the witness tried first is the Choi
    # matrix C itself: a grid with lambda_min(C) > tol is CP at 0 steps, and
    # one with trace C < 0 is refuted at 0 steps by the unit, Z = I / nd
    import opsys.dual as dual_module

    tol = 1e-7
    rng = np.random.default_rng(43)
    s = named_system("diag:3")
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    grid = MatrixFunctional.from_choi(s, a @ a.conj().T + np.eye(6))
    choi = la.hermitian_part(grid.riesz)
    assert grid.n == 2 and la.lambda_min(choi) > tol
    before = dual_module.kernel_counts()
    verdict = cp_verdict(grid, tol)
    assert verdict.status == "feasible" and verdict.iterations == 0
    assert np.array_equal(verdict.witness, choi)
    assert verdict.gap == 0.0 and verdict.certificate is None
    counts = dual_module.kernel_counts(since=before)
    assert counts["solves"] == counts["certified"] == 1 and counts["iterations"] == 0
    negated = grid * -1.0
    choi = la.hermitian_part(negated.riesz)
    assert np.trace(choi).real < 0
    verdict = cp_verdict(negated, tol)
    assert verdict.status == "infeasible" and verdict.iterations == 0
    z = verdict.certificate
    assert verdict.witness is None and cone_member(s, z, tol)
    assert np.vdot(z, choi).real < -10 * tol * la.frobenius(z)
    assert is_cp(negated) is False


def test_positive_functional_certified_at_the_start_point():
    # a functional with a positive definite Riesz matrix is its own witness:
    # one solve, certified, no Newton step
    import opsys.dual as dual_module

    s = named_system("toeplitz:3")
    f = Functional(s, np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert la.lambda_min(f.riesz) > 0
    before = dual_module.kernel_counts()
    assert is_positive_functional(f) is True
    counts = dual_module.kernel_counts(since=before)
    assert counts["solves"] == counts["certified"] == 1
    assert counts["iterations"] == 0


@pytest.mark.parametrize("fault", ["dual", "primal"])
def test_kernel_radius_needs_its_evidence(monkeypatch, fault):
    # a kernel answer is returned only when it re-checks: a dual value moved
    # past the radius fails the certificate, a primal point off the
    # optimum leaves the bracket open, and either way the certified
    # bisection decides
    import opsys.dual as dual_module

    rng = np.random.default_rng(28)
    s = named_system("toeplitz:3")
    delta = faithful_state(s)
    g = random_hermitian_functional(s, rng)
    radius = dual_order_unit_radius(delta, g, 1)
    real_sdp = dual_module._section_sdp

    def skewed(system, c, n, **kw):
        solve = real_sdp(system, c, n, **kw)
        if fault == "dual":
            return solve._replace(t=solve.t + 1e-3)
        return solve._replace(x=np.eye(system.d) / system.d)

    monkeypatch.setattr(dual_module, "_section_sdp", skewed)
    before = dual_module.kernel_counts()
    r = dual_order_unit_radius(delta, g, 1)
    assert dual_module.kernel_counts(since=before)["bisection_fallbacks"] == 1
    assert r == pytest.approx(radius, abs=2e-6)


def test_radius_none_for_non_faithful_proper_subsystem():
    # delta = (I + X)/2 on span{I, X} vanishes on (I - X)/2 in S+, which g
    # sees: no radius exists, the kernel cannot certify one, and the
    # bisection runs out at r_max
    import opsys.dual as dual_module

    s = make_operator_system([PAULI_X], 2)
    delta = Functional(s, (np.eye(2) + PAULI_X) / 2)
    g = Functional(s, (np.eye(2) - PAULI_X) / 2)
    before = dual_module.kernel_counts()
    assert dual_order_unit_radius(delta, g, 1, r_max=1e3) is None
    assert dual_module.kernel_counts(since=before)["bisection_fallbacks"] == 1


def test_radius_beyond_r_max_is_none():
    rng = np.random.default_rng(24)
    for name in ("full:3", "toeplitz:3"):
        s = named_system(name)
        delta = faithful_state(s)
        g = random_positive_functional(s, rng)
        r = dual_order_unit_radius(delta, g, 1)
        assert r > 0.5
        assert dual_order_unit_radius(delta, g, 1, r_max=0.5 * r) is None
        assert dual_order_unit_radius(delta, g, 1, r_max=2 * r) == r


def test_full_algebra_radii_skip_the_kernel(monkeypatch):
    # on M_d the radius is a closed form (one Cholesky, one eigvalsh), for
    # the trace state and for any positive definite Riesz matrix
    import opsys.dual as dual_module

    def kernel(*args):
        raise AssertionError("section kernel called on the full algebra")

    monkeypatch.setattr(dual_module, "_section_sdp", kernel)
    rng = np.random.default_rng(25)
    s = named_system("full:3")
    for delta in _trace_and_series_states(s, rng):
        dm = la.hermitian_part(delta.riesz)
        g = random_hermitian_functional(s, rng)
        li = np.linalg.inv(np.linalg.cholesky(dm))
        oracle = max(0.0, la.lambda_max(li @ g.riesz @ li.conj().T))
        assert dual_order_unit_radius(delta, g, 1) == pytest.approx(oracle, abs=1e-12)
        assert la.lambda_min(oracle * dm - g.riesz) >= -1e-10
        positivity_minimum(g)


def test_full_algebra_radius_of_a_singular_delta():
    # delta = diag(1, 0) has no Cholesky factor, so the shared radius
    # routine bisects: r delta - g = diag(r - 0.5, 1) is positive from
    # r = 0.5 on, and diag(r, -1) never is
    s = named_system("full:2")
    delta = Functional(s, np.diag([1.0, 0.0]).astype(complex))
    g = Functional(s, np.diag([0.5, -1.0]).astype(complex))
    assert dual_order_unit_radius(delta, g, 1) == pytest.approx(0.5, abs=1e-6)
    complement = Functional(s, np.diag([0.0, 1.0]).astype(complex))
    assert dual_order_unit_radius(delta, complement, 1) is None


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_radius_rejects_bad_precision_and_r_max(bad):
    # the precision is a module constant; the shared bound check that
    # dual_order_unit_radius runs rejects a bad one as it does a bad r_max
    s = named_system("toeplitz:3")
    delta = faithful_state(s)
    g = random_hermitian_functional(s, np.random.default_rng(26))
    with pytest.raises(ValidationError):
        check_search_bounds(1e6, bad)
    for level in (1, 2):
        with pytest.raises(ValidationError):
            dual_order_unit_radius(delta, g, level, r_max=bad)


def test_radius_above_r_max_is_none_when_the_first_probe_passes():
    # delta = diag(1, 0) has no Cholesky factor, so the radius bisects from
    # r_start = 1; that first probe passes for g = diag(0.7, 0), and the
    # search used to return 0.7 for an r_max of 0.5
    s = named_system("full:2")
    delta = Functional(s, np.diag([1.0, 0.0]).astype(complex))
    g = Functional(s, np.diag([0.7, 0.0]).astype(complex))
    assert dual_order_unit_radius(delta, g, 1, r_max=0.5) is None
    r = dual_order_unit_radius(delta, g, 1, r_max=0.8)
    assert r == pytest.approx(0.7, abs=1e-6) and r <= 0.8
    assert dual_order_unit_radius(delta, g, 1) == dual_order_unit_radius(delta, g, 1, r_max=2.0)


def test_radius_bracket_search_reaches_r_max():
    # delta = diag(1, 0) bisects from r_start = 1, which fails for
    # g = diag(1.2, 0); the doubled probe 2 lies past r_max = 1.5, and the
    # search used to return None there without probing r_max itself
    s = named_system("full:2")
    delta = Functional(s, np.diag([1.0, 0.0]).astype(complex))
    g = Functional(s, np.diag([1.2, 0.0]).astype(complex))
    r = dual_order_unit_radius(delta, g, 1, r_max=1.5)
    assert r == pytest.approx(1.2, abs=1e-6) and r <= 1.5
    assert dual_order_unit_radius(delta, g, 1, r_max=1.1) is None


def test_radius_level_2_agrees_with_level_1():
    # the diagonal lift of a level-1 dominated difference stays CP, so the
    # level-2 and level-3 radii land on the level-1 one
    rng = np.random.default_rng(11)
    for name in ("full:2", "pauli-span", "toeplitz:3"):
        s = named_system(name)
        delta = faithful_state(s)
        g = random_hermitian_functional(s, rng)
        r1 = dual_order_unit_radius(delta, g, 1)
        for n in (2, 3):
            assert dual_order_unit_radius(delta, g, n) == pytest.approx(r1, abs=1e-5)


@pytest.mark.parametrize("name", ["pauli-span", "toeplitz:3", "diag:3"])
def test_level_n_radius_is_one_kernel_solve(name):
    # every level-n radius of a diagonal lift on a proper subsystem is one
    # Charnes-Cooper solve whose evidence re-checks: no bisection fallback.
    # A general Hermitian grid can still end the solve at the cap (here the
    # series state at level 3 on toeplitz:3) and bisect; either way the
    # radius dominates.
    import opsys.dual as dual_module

    rng = np.random.default_rng(31)
    s = named_system(name)
    for delta in _trace_and_series_states(s, rng):
        for n in (2, 3):
            g = random_hermitian_functional(s, rng)
            raw = rng.standard_normal((n * s.d, n * s.d))
            grid = MatrixFunctional.from_choi(s, la.hermitian_part(raw))
            before = dual_module.kernel_counts()
            r = dual_order_unit_radius(delta, g, n)
            counts = dual_module.kernel_counts(since=before)
            assert counts["solves"] == 1 and counts["bisection_fallbacks"] == 0
            lifted = MatrixFunctional.diag(delta, n)
            assert is_cp((r + 1e-2 * max(1.0, r)) * lifted - MatrixFunctional.diag(g, n)) is True
            r = dual_order_unit_radius(delta, grid, n)
            assert is_cp((r + 1e-2 * max(1.0, r)) * lifted - grid) is True


@pytest.mark.parametrize("level", [1, 2])
def test_radius_of_non_hermitian_delta(level):
    # r delta - g is not Hermitian for r > 0, so only r = 0 can pass: the
    # radius is 0.0 when -g is positive and None otherwise, each decided by
    # the one kernel solve at r = 0, with no search above it
    import opsys.dual as dual_module

    s = named_system("pauli-span")
    delta = Functional(s, np.eye(2) + 1j * PAULI_X)
    assert not delta.is_hermitian()
    negative = Functional(s, -(np.eye(2) + 0.5 * PAULI_X))
    for g, radius in ((negative, 0.0), (-1.0 * negative, None)):
        before = dual_module.kernel_counts()
        assert dual_order_unit_radius(delta, g, level, r_max=1e3) == radius
        counts = dual_module.kernel_counts(since=before)
        assert counts["solves"] == 1 and counts["bisection_fallbacks"] == 0


def test_radius_rejects_g_on_another_system():
    # a g over another system used to give 0.0 (same d) or a raw numpy
    # error (another d)
    g = random_hermitian_functional(named_system("diag:3"), np.random.default_rng(41))
    for name in ("toeplitz:3", "full:2"):
        with pytest.raises(ValidationError, match="different systems"):
            dual_order_unit_radius(faithful_state(named_system(name)), g, 1)


def test_radius_rejects_non_hermitian_g():
    s = named_system("pauli-span")
    g = Functional(s, 1j * np.eye(2))
    with pytest.raises(ValidationError, match="Hermitian"):
        dual_order_unit_radius(faithful_state(s), g)


def test_radius_reads_the_level_off_a_grid():
    # a level-2 grid used to give its level-2 radius for level 1, 2 and 3
    # alike; it now takes level 2 or none, and a functional any level >= 1
    s = named_system("toeplitz:3")
    delta = faithful_state(s)
    f = random_hermitian_functional(s, np.random.default_rng(1))
    g = MatrixFunctional.diag(f, 2)
    r = dual_order_unit_radius(delta, g)
    assert r == pytest.approx(0.8815560183118218, abs=1e-12)
    assert dual_order_unit_radius(delta, g, 2) == r
    assert dual_order_unit_radius(delta, f) == dual_order_unit_radius(delta, f, 1)
    for level in (0, 1, 3):
        with pytest.raises(ValidationError, match=f"level {level} for a g of level 2"):
            dual_order_unit_radius(delta, g, level)
    for level in (0, -1):
        with pytest.raises(ValidationError, match=f"level {level} for a g of level 1"):
            dual_order_unit_radius(delta, f, level)


def test_series_state_needs_a_state():
    with pytest.raises(ValueError, match="at least one state"):
        series_state([])


def test_series_state_rejects_mixed_systems():
    states = [faithful_state(named_system("toeplitz:3")), faithful_state(named_system("diag:3"))]
    with pytest.raises(ValidationError, match="mixed systems"):
        series_state(states)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["full:3", "toeplitz:3"])
def test_verdicts_reject_bad_tolerances(name, bad):
    # at tol = nan the trace state on full:3 used to get an infeasible CP
    # verdict and fail positivity on both systems
    f = faithful_state(named_system(name))
    with pytest.raises(ValidationError, match="positive and finite"):
        cp_verdict(f, bad)
    with pytest.raises(ValidationError, match="positive and finite"):
        is_positive_functional(f, bad)


def test_wittstock_decomposition():
    # every Hermitian matrix functional splits as p - q with p, q CP, via
    # the dual order-unit radius of the lifted trace state
    rng = np.random.default_rng(12)
    s = named_system("pauli-span")
    delta = faithful_state(s)
    for _ in range(3):
        grid = [[None, None], [None, None]]
        for i in range(2):
            grid[i][i] = random_hermitian_functional(s, rng)
        off = Functional(s, rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))
        grid[0][1] = off
        grid[1][0] = Functional(s, off.riesz.conj().T)
        h = MatrixFunctional.from_grid(grid)
        assert h.is_hermitian()
        r = dual_order_unit_radius(delta, h)
        lifted = MatrixFunctional.diag(delta, 2)
        q = (r + 0.05) * lifted
        p = h + q
        assert is_cp(p) is True
        assert is_cp(q) is True


# -- the dual order-unit checks ------------------------------------------------------

def test_equivalences_full_m2():
    s = named_system("full:2")
    rng = np.random.default_rng(13)
    unit = _order_unit_check(s, "unit", 6, 3, rng)
    arch = _archimedean_check(s, "arch", 6, rng)
    assert unit.status == "pass" and unit.evidence["oracle_gap"] <= 1e-5
    assert arch.status == "pass"
    assert arch.evidence["checked"] == 6 and arch.evidence["violations"] == 0


def test_equivalences_report_kernel_counts():
    # each check counts its section-kernel work; counts are deterministic
    s = named_system("pauli-span")

    def checks(system):
        rng = np.random.default_rng(27)
        return (_order_unit_check(system, "unit", 3, 2, rng),
                _archimedean_check(system, "arch", 3, rng))

    first, second = checks(s), checks(s)
    for a, b in zip(first, second):
        assert a.status == "pass" and a.to_json() == b.to_json()
    counts = first[0].evidence["kernel"]
    assert set(counts) == {"solves", "iterations", "certified", "breakdowns",
                           "cap_hits", "bisection_fallbacks"}
    # one solve per radius, of g and of -g, for each sampled functional
    assert counts["solves"] >= 6
    assert counts["iterations"] >= counts["solves"]
    # on the full algebra radii and verdicts are eigenvalue closed forms
    for check in checks(named_system("full:2")):
        assert check.evidence["kernel"]["solves"] == 0


# -- the block system -------------------------------------------------------------------

def test_paulsen_trace_unit_is_archimedean_matrix_order_unit():
    # the 2x2-block system {[[a I, X], [Y*, b I]] : X, Y in span{E12}} in
    # M_4: its trace state passes the suites' per-system checks
    top, bottom, corner = np.zeros((3, 4, 4), dtype=complex)
    top[:2, :2] = np.eye(2)
    bottom[2:, 2:] = np.eye(2)
    corner[:2, 2:] = E12
    s = make_operator_system([top, bottom, corner], 4)
    assert s.dim == 4
    rng = np.random.default_rng(15)
    unit = _order_unit_check(s, "unit", 4, 2, rng)
    arch = _archimedean_check(s, "arch", 4, rng)
    assert unit.status == "pass", unit
    assert arch.status == "pass", arch


# -- density transfer ---------------------------------------------------------------------

def test_dense_subsystem_functional_transfer():
    # a spanning perturbed basis generates the same subspace; restriction
    # followed by extension of canonical functionals is the identity
    rng = np.random.default_rng(16)
    s = named_system("pauli-span")
    perturbed = [
        b + 1e-3 * random_element(s, rng) for b in s.basis
    ]
    t = make_operator_system(perturbed, s.d)
    assert t.dim == s.dim
    for _ in range(10):
        f = random_hermitian_functional(s, rng)
        restricted = Functional(t, f.riesz)
        extended = Functional(s, restricted.riesz)
        assert la.frobenius(extended.riesz - f.riesz) <= 1e-8
    # matrix levels inherit the density (here: equality of spans)
    from opsys.systems import subspace_member
    x = random_element(s, rng, level=2)
    assert subspace_member(t, x, 1e-8)
