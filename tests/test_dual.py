import numpy as np
import pytest

from opsys import linalg as la
from opsys import _search
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
from opsys.errors import DimensionError, MembershipError, UndecidedError, ValidationError
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
        blocks = to_blocks(mf.riesz, s.d).reshape(-1, s.d, s.d)
        assert np.abs(np.einsum("apq,kqp->ak", blocks, s.basis) - vals).max() <= 1e-12
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


def test_radius_hermitian_test_is_relative():
    # g is tested for Hermitian symmetry relative to its own scale: at norm
    # 1e-9 a non-Hermitian g is refused and an exactly Hermitian one keeps
    # its radius, d lambda_max(g) against the trace state
    s = named_system("full:2")
    delta = faithful_state(s)
    with pytest.raises(ValidationError, match="Hermitian"):
        dual_order_unit_radius(delta, Functional(s, 1e-9 * E12), 1)
    r = dual_order_unit_radius(delta, Functional(s, 1e-9 * PAULI_X), 1)
    assert r == pytest.approx(2e-9, rel=1e-12)


def test_radius_boundary_case_delta_itself():
    s = named_system("full:2")
    delta = faithful_state(s)
    r = dual_order_unit_radius(delta, delta, 1)
    assert r == pytest.approx(1.0, abs=1e-5)


def test_radius_none_for_non_faithful():
    s = named_system("diag:2")
    vec_state = Functional(s, np.diag([1.0, 0.0]).astype(complex))
    complement = Functional(s, np.diag([0.0, 1.0]).astype(complex))
    r = dual_order_unit_radius(vec_state, complement, 1)
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
    # the Charnes-Cooper solve behind each radius at levels 1-3, run to
    # convergence and re-checked by hand: W = r D - G - K (D = I_n (x)
    # delta, G = I_n (x) g) is PSD and pairs like r D - G with M_n(S), and
    # the lifted primal point lies in M_n(S)+ and closes the bracket to
    # precision.  The radius itself stops at the first point that
    # certifies, so it lies within the precision above the converged r, and
    # no further below it than that solve's own duality gap: the ambient
    # radius that the start point tries is exact where it certifies.
    # The levels run inside one test so the test ids stay those of the
    # level-1 version.
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
                assert r - abs(upper - lower) <= radius <= r + precision


def test_series_radius_at_level_3_certifies_in_one_solve():
    # the series-state level-3 radius of toeplitz:4 at seed 37 (the one
    # radius of a 160-radius sweep over pauli-span, toeplitz:3/4 and diag:3,
    # seeds 31-40, whose kernel evidence did not re-check before the kernel
    # started dual feasible) is certified by its one solve, within the
    # precision of the value that a CP-verdict bisection found for it
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
    assert counts["solves"] == counts["certified"] == 1
    assert abs(r - 11.758309364318848) <= dual_module._DUAL_RADIUS_PRECISION


def test_radius_sweep_stops_at_its_first_certificate():
    # 64 radii (pauli-span, toeplitz:3/4, diag:3, seeds 31-34, trace and
    # series states, levels 2-3), each one solve stopped at its first
    # point that certifies r within the precision: no cap and no
    # breakdown, each radius within [r_conv - gap, r_conv + precision] of
    # its solve run to convergence (gap that solve's own duality gap), and
    # fewer Newton steps than those converged solves take.  Run to
    # convergence with Z^-1 from a separate inverse, 3 of these solves used
    # to break down.
    import opsys.dual as dual_module

    precision = dual_module._DUAL_RADIUS_PRECISION
    totals = dict.fromkeys(dual_module.kernel_counts(), 0)
    converged_steps, radii = 0, 0
    for name in ("pauli-span", "toeplitz:3", "toeplitz:4", "diag:3"):
        s = named_system(name)
        for seed in (31, 32, 33, 34):
            rng = np.random.default_rng(seed)
            for delta in _trace_and_series_states(s, rng):
                for n in (2, 3):
                    raw = la.hermitian_part(rng.standard_normal((n * s.d, n * s.d)))
                    g = MatrixFunctional(s, raw)
                    gm = la.hermitian_part(g.riesz)
                    dm = np.kron(np.eye(n), la.hermitian_part(delta.riesz))
                    solve = dual_module._section_sdp(s, -gm, dm)
                    assert solve.stop == "converged"
                    converged_steps += solve.iterations
                    r_conv = max(0.0, -solve.t)
                    gap = abs(np.vdot(-gm, solve.x).real - solve.t)
                    assert gap <= 1e-8 * max(1.0, r_conv)
                    before = dual_module.kernel_counts()
                    r = dual_order_unit_radius(delta, g)
                    for key, value in dual_module.kernel_counts(since=before).items():
                        totals[key] += value
                    assert r_conv - gap <= r <= r_conv + precision
                    radii += 1
    assert radii == totals["solves"] == totals["certified"] == 64
    assert totals["cap_hits"] == totals["breakdowns"] == 0
    assert totals["iterations"] < converged_steps


def _ambient_radius(dm, gm):
    """max(0, lambda_max of D^-1 G): the radius on the full algebra, read off
    the eigenvalues of D^-1 G instead of a Cholesky congruence."""
    return max(0.0, float(np.linalg.eigvals(np.linalg.solve(dm, gm)).real.max()))


def _radius_cases(s, seed, levels):
    """(delta, g, D, G) for trace and series states and random Hermitian g
    at each level, two per state and level."""
    rng = np.random.default_rng(seed)
    for delta in _trace_and_series_states(s, rng):
        for n in levels:
            for _ in range(2):
                g = MatrixFunctional(s, la.hermitian_part(rng.standard_normal((n * s.d,) * 2)))
                dm = np.kron(np.eye(n), la.hermitian_part(delta.riesz))
                yield delta, g, dm, la.hermitian_part(g.riesz)


@pytest.mark.parametrize("name", ["diag:3", "pauli-span"])
def test_ambient_radius_is_certified_at_the_start(name):
    # the top generalized eigenprojector of (G, D) lies in M_n(S) here (at
    # every level on diag:3, at level 1 on pauli-span), so the ambient
    # radius is the radius: the start point certifies it with no Newton
    # step, and it is the exact ambient value
    import opsys.dual as dual_module

    s = named_system(name)
    for delta, g, dm, gm in _radius_cases(s, 41, (1, 2, 3) if name == "diag:3" else (1,)):
        before = dual_module.kernel_counts()
        r = dual_order_unit_radius(delta, g)
        counts = dual_module.kernel_counts(since=before)
        assert counts["solves"] == counts["certified"] == 1
        assert counts["iterations"] == 0
        assert r == pytest.approx(_ambient_radius(dm, gm), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["toeplitz:3", "toeplitz:4", "random"])
def test_radius_falls_through_to_the_solve(name):
    # here the ambient eigenprojector leaves M_n(S): the ambient radius lies
    # above the radius, its lifted point does not close the bracket, and
    # each radius iterates to a point that certifies, inside the bracket of
    # its solve run to convergence
    import opsys.dual as dual_module

    precision = dual_module._DUAL_RADIUS_PRECISION
    rng = np.random.default_rng(42)
    s = random_system(rng, d=4, generators=2) if name == "random" else named_system(name)
    for delta, g, dm, gm in _radius_cases(s, 43, (1, 2)):
        solve = dual_module._section_sdp(s, -gm, dm)
        assert solve.stop == "converged"
        r_conv = max(0.0, -solve.t)
        gap = abs(np.vdot(-gm, solve.x).real - solve.t)
        if r_conv == 0.0:  # G <= 0: the start point's r = 0 decides
            continue
        assert _ambient_radius(dm, gm) > r_conv + precision
        before = dual_module.kernel_counts()
        r = dual_order_unit_radius(delta, g)
        counts = dual_module.kernel_counts(since=before)
        assert counts["solves"] == counts["certified"] == 1
        assert counts["iterations"] > 0
        assert r_conv - gap <= r <= r_conv + precision


def test_understated_ambient_radius_is_never_accepted(monkeypatch):
    # an ambient radius scaled by 1 - 1e-5 still closes the bracket at its
    # own eigenprojector, but r D - G is then not PSD: the lower bound
    # refuses it, the solve iterates, and the radius stays the exact one
    import opsys.dual as dual_module

    real = dual_module._unit_congruence

    def understated(e):
        congruence = real(e)

        def scaled(xs, adjoint=False):
            return congruence(xs, adjoint) * (1.0 if adjoint else 1.0 - 1e-5)

        return scaled

    monkeypatch.setattr(dual_module, "_unit_congruence", understated)
    for name, levels in (("diag:3", (1, 2, 3)), ("pauli-span", (1,))):
        s = named_system(name)
        for delta, g, dm, gm in _radius_cases(s, 41, levels):
            exact = _ambient_radius(dm, gm)
            if exact < 0.5:  # 1e-5 of it must exceed the precision
                continue
            before = dual_module.kernel_counts()
            r = dual_order_unit_radius(delta, g)
            counts = dual_module.kernel_counts(since=before)
            assert counts["iterations"] > 0
            assert exact - 1e-8 <= r <= exact + dual_module._DUAL_RADIUS_PRECISION


def test_singular_delta_skips_the_ambient_radius():
    # (I + X)/2 on span{I, X} has no Cholesky factor, so the start point has
    # no ambient candidate; diag(1, 0) on diag:2 projects to diag(1, 2e-16),
    # whose ambient radius of about 5e15 fails its lower bound.  Either way
    # none exists for the complementary state, and the one solve's last
    # iterate is the witness of that
    import opsys.dual as dual_module
    from opsys.systems import _unit_congruence

    span = make_operator_system([PAULI_X], 2)
    diag = named_system("diag:2")
    cases = [(Functional(span, (np.eye(2) + PAULI_X) / 2), Functional(span, (np.eye(2) - PAULI_X) / 2)),
             (Functional(diag, np.diag([1.0, 0.0])), Functional(diag, np.diag([0.0, 1.0])))]
    assert _unit_congruence(la.hermitian_part(cases[0][0].riesz)) is None
    for delta, g in cases:
        before = dual_module.kernel_counts()
        assert dual_order_unit_radius(delta, g) is None
        assert dual_module.kernel_counts(since=before)["solves"] == 1


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


@pytest.mark.parametrize("name", ["toeplitz:3", "random"])
def test_kernel_iterates_are_dual_feasible(name):
    # the iteration starts from Z = C - t0 N, so every iterate that certify
    # sees after the start point has C - K - t N PSD to rounding: radius
    # solves (C = -G, N = I_n (x) delta for a series state) and CP solves
    # (C the Choi matrix, N = I) at levels 1-3, run until they stop (on the
    # random system a level-3 solve run past its certificates may end at a
    # breakdown, as before)
    import opsys.dual as dual_module

    rng = np.random.default_rng(36)
    s = random_system(rng, d=4, generators=2) if name == "random" else named_system(name)
    delta = _trace_and_series_states(s, rng)[1]
    for level in (1, 2, 3):
        eye = np.eye(level)
        g = la.hermitian_part(rng.standard_normal((level * s.d, level * s.d)))
        gm = la.hermitian_part(MatrixFunctional(s, g).riesz)
        problems = [(-gm, np.kron(eye, la.hermitian_part(delta.riesz))),
                    (gm, np.eye(level * s.d))]
        for c, n in problems:
            points = []
            solve = dual_module._section_sdp(
                s, c, n, certify=lambda x, k, t: points.append((k, t)))
            assert solve.iterations > 0 and len(points) == solve.iterations + 1
            bound = 1e-10 * max(1.0, la.frobenius(c))
            for k, t in points[1:]:
                assert la.lambda_min(c - k - t * n) >= -bound


def test_singular_unit_takes_the_fallback_start():
    # a unit N with no Cholesky factor has no dual start t0, and the solve
    # starts from y = 0, Z = ||C||_F I as before (the exactly singular
    # (I + X)/2 on span{I, X} runs this way end to end in
    # test_singular_delta_skips_the_ambient_radius).  diag(1, 0) and
    # diag(1, 1e-12) on diag:2 project to diag(1, 2e-16) and diag(1, 1e-12),
    # which factor, so their radius solves start from a t0 of order -1e12
    # or below; either way no LinAlgError escapes, and the radii are those
    # of the solver that always took the fallback start: none at level 1
    # (g(e_22) > 0, so no r <= 1e6 works), from one solve, and at level 2
    # a radius certified at the start point
    import opsys.dual as dual_module

    s = named_system("diag:2")
    assert np.isnan(dual_module._dual_start(-np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), 1.0))
    for eps in (0.0, 1e-12):
        delta = Functional(s, np.diag([1.0, eps]))
        rng = np.random.default_rng(5)
        g1, g2 = (random_hermitian_functional(s, rng) for _ in range(2))
        before = dual_module.kernel_counts()
        assert dual_order_unit_radius(delta, g1, 1) is None
        assert dual_module.kernel_counts(since=before)["solves"] == 1
        assert dual_order_unit_radius(delta, g2, 2) == pytest.approx(0.37437288536729546, abs=1e-12)


def _count_lifts(monkeypatch):
    import opsys.dual as dual_module

    calls = []
    real_lift = dual_module._lift

    def lift(system, x):
        calls.append(x)
        return real_lift(system, x)

    monkeypatch.setattr(dual_module, "_lift", lift)
    return calls


def test_cp_solve_lifts_only_when_it_can_refute(monkeypatch):
    # a CP grid whose Choi matrix C is not PSD iterates, and each iterate x
    # (PSD, in M_n(S) to rounding) has <C, x> >= 0, as has tr C: lift(x)
    # then pairs with C as a convex combination of the two, so no iterate
    # can refute, and none is lifted
    import opsys.dual as dual_module

    lifts = _count_lifts(monkeypatch)
    real_sdp = dual_module._section_sdp
    seen = []

    def recording(system, c, n, *, certify):
        return real_sdp(system, c, n,
                        certify=lambda x, k, t: seen.append(np.vdot(x, c).real) or certify(x, k, t))

    monkeypatch.setattr(dual_module, "_section_sdp", recording)
    rng = np.random.default_rng(35)
    stepped = 0
    for name in ("pauli-span", "diag:3", "toeplitz:3"):
        s = named_system(name)
        for n in (2, 3):
            side = n * s.d
            a = rng.standard_normal((side, side // 2)) + 1j * rng.standard_normal((side, side // 2))
            grid = MatrixFunctional.from_choi(s, a @ a.conj().T)
            seen.clear()
            verdict = cp_verdict(grid)
            assert verdict.status == "feasible"
            assert np.trace(grid.riesz).real >= 0 and min(seen) >= 0
            stepped += verdict.iterations > 0
    assert stepped == 3
    assert lifts == []


def test_refuted_grids_carry_certificates_that_recheck(monkeypatch):
    # a grid pushed below zero at an explicit x in M_n(S)+ is refuted, and
    # its certificate Z, the lifted primal point, re-checks: PSD, in M_n(S),
    # <C, Z> < -10 tol ||Z||_F
    tol = 1e-7
    lifts = _count_lifts(monkeypatch)
    rng = np.random.default_rng(38)
    for name in ("pauli-span", "diag:3", "toeplitz:3"):
        s = named_system(name)
        for n in (2, 3):
            side = n * s.d
            a = rng.standard_normal((side, side // 2)) + 1j * rng.standard_normal((side, side // 2))
            w = a @ a.conj().T + 0.02 * np.eye(side)
            x = random_positive_element(s, rng, level=n)
            t = (np.trace(x @ w).real + 2.0 * la.frobenius(x)) / np.trace(x @ x).real
            grid = MatrixFunctional.from_choi(s, w - t * x)
            choi = la.hermitian_part(grid.riesz)
            verdict = cp_verdict(grid, tol)
            assert verdict.status == "infeasible" and verdict.witness is None
            z = verdict.certificate
            assert subspace_member(s, z, 1e-10) and la.lambda_min(z) >= -1e-12
            assert np.vdot(z, choi).real < -10 * tol * la.frobenius(z)
    assert lifts


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
    for f, minimum, _ in cases:
        calls.clear()
        before = dual_module.kernel_counts()
        val, x = positivity_minimum(f)
        assert cone_member(s, x, 1e-8) and val >= minimum - 1e-12
        counts = dual_module.kernel_counts(since=before)
        assert counts["breakdowns"] == counts["solves"] == 1
        calls.clear()
        before = dual_module.kernel_counts()
        # a broken solve closes no bracket, and its last iterate is no
        # witness that no radius exists: undecided, never a wrong radius
        with pytest.raises(UndecidedError):
            dual_order_unit_radius(delta, f, 1)
        counts = dual_module.kernel_counts(since=before)
        assert counts["breakdowns"] == counts["solves"] == 1
    monkeypatch.setattr(dual_module, "_step", real_step)
    for f, _, radius in cases:
        before = dual_module.kernel_counts()
        positivity_minimum(f)
        assert dual_order_unit_radius(delta, f, 1) == radius
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
    # optimum leaves the bracket open and is no witness that no radius
    # exists, and either way the radius is undecided.  The fault reaches
    # every iterate that the radius's certificate check sees, the last one
    # included.  Without it the radius is certified.
    import opsys.dual as dual_module

    rng = np.random.default_rng(28)
    s = named_system("toeplitz:3")
    delta = faithful_state(s)
    g = random_hermitian_functional(s, rng)
    radius = dual_order_unit_radius(delta, g, 1)
    real_sdp = dual_module._section_sdp

    def skew(x, k, t):
        if fault == "dual":
            return x, k, t + 1e-3
        return np.eye(len(x)) / len(x), k, t

    def skewed(system, c, n, *, certify):
        solve = real_sdp(system, c, n, certify=lambda *point: certify(*skew(*point)))
        x, k, t = skew(solve.x, solve.k, solve.t)
        return solve._replace(x=x, k=k, t=t)

    monkeypatch.setattr(dual_module, "_section_sdp", skewed)
    before = dual_module.kernel_counts()
    with pytest.raises(UndecidedError):
        dual_order_unit_radius(delta, g, 1)
    assert dual_module.kernel_counts(since=before)["solves"] == 1
    monkeypatch.undo()
    before = dual_module.kernel_counts()
    assert dual_order_unit_radius(delta, g, 1) == radius
    assert dual_module.kernel_counts(since=before)["certified"] == 1


def test_radius_none_for_non_faithful_proper_subsystem():
    # delta = (I + X)/2 on span{I, X} vanishes on (I - X)/2 in S+, which g
    # sees: no radius exists, the kernel cannot certify one, and its one
    # solve's last iterate witnesses that none up to the search cap works
    import opsys.dual as dual_module

    s = make_operator_system([PAULI_X], 2)
    delta = Functional(s, (np.eye(2) + PAULI_X) / 2)
    g = Functional(s, (np.eye(2) - PAULI_X) / 2)
    before = dual_module.kernel_counts()
    assert dual_order_unit_radius(delta, g, 1) is None
    assert dual_module.kernel_counts(since=before)["solves"] == 1


def _witness_cases():
    """(delta, g, level) with no radius up to the search cap: two
    non-faithful states, a faithful one whose radius is about 2.1e11, and
    the non-faithful one at level 2."""
    diag = named_system("diag:2")
    span = make_operator_system([PAULI_X], 2)
    g1 = random_hermitian_functional(diag, np.random.default_rng(5))
    return [
        (Functional(diag, np.diag([1.0, 0.0])), Functional(diag, np.diag([0.0, 1.0])), 1),
        (Functional(span, (np.eye(2) + PAULI_X) / 2), Functional(span, (np.eye(2) - PAULI_X) / 2), 1),
        (Functional(diag, np.diag([1.0, 1e-12])), g1, 1),
        (Functional(diag, np.diag([1.0, 0.0])), Functional(diag, np.diag([0.0, 1.0])), 2),
    ]


@pytest.mark.parametrize("case", range(4), ids=["diag", "span", "past-cap", "level-2"])
def test_radius_none_carries_a_witness_that_rechecks(case):
    # every None is one kernel solve and the point x that it returns beside
    # it, re-checked here without the module's cone test: x is PSD, lies in
    # M_n(S) (it is its own expansion in a Hermitian basis of M_n(S)),
    # <D, x> >= 0, and <r D - G, x> < -tol tr x at r = cap, so at every
    # r <= cap: no such r makes r delta - g positive
    import opsys.dual as dual_module
    from opsys.systems import DEFAULT_TOL, _unit_congruence

    delta, g, level = _witness_cases()[case]
    s, tol, cap = delta.system, DEFAULT_TOL, _search._RADIUS_MAX
    if case == 2:
        # faithful: the radius on diag:2 is max_i g_ii / delta_ii, past the cap
        assert la.lambda_min(delta.riesz) > 0
        assert g.riesz[1, 1].real / delta.riesz[1, 1].real == pytest.approx(2.1e11, rel=0.01)
    before = dual_module.kernel_counts()
    assert dual_order_unit_radius(delta, g, level) is None
    assert dual_module.kernel_counts(since=before)["solves"] == 1
    unit = la.hermitian_part(delta.riesz)
    dm = np.kron(np.eye(level), unit)
    gm = np.kron(np.eye(level), la.hermitian_part(g.riesz))
    r, x = dual_module._radius(s, dm, gm, tol, _unit_congruence(unit))
    assert r is None
    assert np.allclose(x, x.conj().T, rtol=0, atol=1e-14)
    assert np.linalg.eigvalsh(x)[0] >= -tol
    hb = level_hermitian_basis(s, level)
    coords = np.einsum("aij,ji->a", hb, x).real
    assert np.abs(np.einsum("a,aij->ij", coords, hb) - x).max() <= 1e-12
    dx, gx, trace = np.trace(dm @ x).real, np.trace(gm @ x).real, np.trace(x).real
    assert trace > 0 and dx >= 0
    for radius in (0.0, 1.0, cap / 2, cap):
        assert radius * dx - gx < -tol * trace


def test_radius_beyond_r_max_is_none(monkeypatch):
    # the closed form (full:3) and the kernel radius (toeplitz:3) answer
    # None above the one search cap
    rng = np.random.default_rng(24)
    for name in ("full:3", "toeplitz:3"):
        s = named_system(name)
        delta = faithful_state(s)
        g = random_positive_functional(s, rng)
        r = dual_order_unit_radius(delta, g, 1)
        assert r > 0.5
        monkeypatch.setattr(_search, "_RADIUS_MAX", 0.5 * r)
        assert dual_order_unit_radius(delta, g, 1) is None
        monkeypatch.setattr(_search, "_RADIUS_MAX", 2 * r)
        assert dual_order_unit_radius(delta, g, 1) == r
        monkeypatch.undo()


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


def test_radius_above_r_max_is_none_when_the_first_probe_passes(monkeypatch):
    # delta = diag(1, 0) has no Cholesky factor, so the radius bisects from
    # r = 1; that first probe passes for g = diag(0.7, 0), and the search
    # used to return 0.7 under a cap of 0.5
    s = named_system("full:2")
    delta = Functional(s, np.diag([1.0, 0.0]).astype(complex))
    g = Functional(s, np.diag([0.7, 0.0]).astype(complex))
    r = dual_order_unit_radius(delta, g, 1)
    monkeypatch.setattr(_search, "_RADIUS_MAX", 0.5)
    assert dual_order_unit_radius(delta, g, 1) is None
    monkeypatch.setattr(_search, "_RADIUS_MAX", 0.8)
    assert dual_order_unit_radius(delta, g, 1) == pytest.approx(0.7, abs=1e-6)
    monkeypatch.setattr(_search, "_RADIUS_MAX", 2.0)
    assert dual_order_unit_radius(delta, g, 1) == r <= 2.0


def test_radius_bracket_search_reaches_r_max(monkeypatch):
    # delta = diag(1, 0) bisects from r = 1, which fails for g = diag(1.2, 0);
    # the doubled probe 2 lies past a cap of 1.5, and the search used to
    # return None there without probing the cap itself
    s = named_system("full:2")
    delta = Functional(s, np.diag([1.0, 0.0]).astype(complex))
    g = Functional(s, np.diag([1.2, 0.0]).astype(complex))
    monkeypatch.setattr(_search, "_RADIUS_MAX", 1.5)
    r = dual_order_unit_radius(delta, g, 1)
    assert r == pytest.approx(1.2, abs=1e-6) and r <= 1.5
    monkeypatch.setattr(_search, "_RADIUS_MAX", 1.1)
    assert dual_order_unit_radius(delta, g, 1) is None


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
    # every level-n radius of a diagonal lift or of a general Hermitian grid
    # on a proper subsystem is one Charnes-Cooper solve whose evidence
    # re-checks, and the radius dominates.
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
            assert counts["solves"] == counts["certified"] == 1
            lifted = MatrixFunctional.diag(delta, n)
            assert is_cp((r + 1e-2 * max(1.0, r)) * lifted - MatrixFunctional.diag(g, n)) is True
            before = dual_module.kernel_counts()
            r = dual_order_unit_radius(delta, grid, n)
            counts = dual_module.kernel_counts(since=before)
            assert counts["solves"] == counts["certified"] == 1
            assert is_cp((r + 1e-2 * max(1.0, r)) * lifted - grid) is True


@pytest.mark.parametrize("level", [1, 2])
def test_radius_of_non_hermitian_delta(level):
    # r delta - g is not Hermitian for r > 0, so only r = 0 can pass: the
    # radius is 0.0 when -g is positive and None otherwise, each decided by
    # the one kernel solve at r = 0, with no search above it
    import opsys.dual as dual_module

    s = named_system("pauli-span")
    delta = Functional(s, np.eye(2) + 1j * PAULI_X)
    assert not la.is_hermitian(delta.riesz, 1e-8)
    negative = Functional(s, -(np.eye(2) + 0.5 * PAULI_X))
    for g, radius in ((negative, 0.0), (-1.0 * negative, None)):
        before = dual_module.kernel_counts()
        assert dual_order_unit_radius(delta, g, level) == radius
        counts = dual_module.kernel_counts(since=before)
        assert counts["solves"] == 1


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
    assert r == pytest.approx(0.8815560345116684, abs=1e-12)
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
        assert la.is_hermitian(h.riesz, 1e-8)
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
    def checks(system):
        rng = np.random.default_rng(27)
        return (_order_unit_check(system, "unit", 3, 2, rng),
                _archimedean_check(system, "arch", 3, rng))

    for name in ("pauli-span", "toeplitz:3"):
        s = named_system(name)
        first, second = checks(s), checks(s)
        for a, b in zip(first, second):
            assert a.status == "pass" and a.to_json() == b.to_json()
        counts = first[0].evidence["kernel"]
        assert set(counts) == {"solves", "iterations", "certified", "breakdowns",
                               "cap_hits"}
        # one solve per radius, of g and of -g, for each sampled functional
        assert counts["solves"] >= 6
        if name == "pauli-span":
            # every level-1 radius is the ambient one, certified at the start
            assert counts["iterations"] == 0
            assert counts["certified"] == counts["solves"]
        else:
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


# -- setup built once: level stacks per system and level -----------------------------------

def _setup_system(name):
    if name == "random":
        return random_system(np.random.default_rng(36), d=3, generators=1)
    return named_system(name)


def _verdict_bits(v):
    return (v.status, v.iterations, np.float64(v.gap).tobytes(),
            None if v.witness is None else v.witness.tobytes(),
            None if v.certificate is None else v.certificate.tobytes())


def _undecided_at_start(s, level, rng):
    """A level grid with lambda_min(C) = -0.05 and trace C > 0: the start
    point decides nothing, so its CP solve steps."""
    side = level * s.d
    c = s.project_level(la.hermitian_part(rng.standard_normal((side, side))
                                          + 1j * rng.standard_normal((side, side))))
    return MatrixFunctional.from_choi(s, c - (0.05 + la.lambda_min(c)) * np.eye(side))


def _setup_answers(s, level):
    """The CP verdicts of :func:`_choi_grids` and of a grid that the start
    point leaves open, and two trace-state radii, at one level from draws
    fixed by the level, as bytes."""
    from opsys.suites import _choi_grids

    rng = np.random.default_rng(level)
    grids = [grid for grid, _ in _choi_grids(s, level, rng)] + [_undecided_at_start(s, level, rng)]
    answers = [_verdict_bits(cp_verdict(grid)) for grid in grids]
    delta = faithful_state(s)
    for _ in range(2):
        g = MatrixFunctional(s, la.hermitian_part(rng.standard_normal((level * s.d,) * 2)))
        answers.append(np.float64(dual_order_unit_radius(delta, g)).tobytes())
    return answers


@pytest.mark.parametrize("name", ["pauli-span", "diag:3", "toeplitz:3", "random"])
def test_cached_level_stacks_give_bit_identical_answers(name, monkeypatch):
    # the same verdicts (status, steps, gap, witness or certificate) and
    # radii, to the bit, on a fresh system, on it again with its stacks
    # kept, on a second fresh copy, and with nothing kept at all
    import opsys.systems as systems_module

    s = _setup_system(name)
    fresh = {level: _setup_answers(s, level) for level in (1, 2, 3)}
    # the open grids step at levels 2 and 3, so their stacks are kept
    assert {("complement", 2), ("complement", 3)} <= set(s._level_stacks)
    copy = _setup_system(name)
    for level in (1, 2, 3):
        assert _setup_answers(s, level) == fresh[level]
        assert _setup_answers(copy, level) == fresh[level]
    monkeypatch.setattr(systems_module, "_LEVEL_STACK_BYTES", 0)
    uncached = _setup_system(name)
    for level in (1, 2, 3):
        assert _setup_answers(uncached, level) == fresh[level]
    assert uncached._level_stacks == {}


@pytest.mark.parametrize("name", ["pauli-span", "diag:3", "toeplitz:3", "random"])
def test_level_stacks_are_kept_read_only_and_reused(name):
    from opsys.systems import _level_basis

    s = _setup_system(name)
    for kind, basis in (("hermitian", s.hermitian_basis), ("complement", s.complement_basis)):
        assert s._level_stack(kind, 1) is basis
        for n in (2, 3):
            stack = s._level_stack(kind, n)
            assert not stack.flags.writeable
            assert s._level_stack(kind, n) is stack
            assert np.array_equal(stack, _level_basis(basis, n))
            assert _setup_system(name)._level_stack(kind, n) is not stack
    assert level_hermitian_basis(s, 3) is s._level_stack("hermitian", 3)


@pytest.mark.parametrize("name", ["pauli-span", "diag:3", "toeplitz:3", "random"])
def test_identity_unit_start_equals_the_factored_start(name):
    # an identity N is its own Cholesky factor, so the start eigenvalues are
    # C's own, to the bit, for the real and the complex identity alike
    import opsys.dual as dual_module
    from opsys.suites import _choi_grids

    def factored(c, n, scale):
        li = np.linalg.inv(np.linalg.cholesky(n))
        lam = np.linalg.eigvalsh(li @ c @ li.conj().T)
        return lam[0] - dual_module._START_MARGIN * max(lam[-1] - lam[0], 1e-3 * scale)

    s = _setup_system(name)
    for level in (1, 2, 3):
        for grid, _ in _choi_grids(s, level, np.random.default_rng(level)):
            c = la.hermitian_part(grid.riesz)
            scale = max(1.0, la.frobenius(c))
            for eye in (np.eye(len(c)), la.identity(len(c))):
                start = dual_module._dual_start(c, eye, scale)
                assert np.float64(start).tobytes() == np.float64(factored(c, eye, scale)).tobytes()


def test_a_level_stack_over_the_budget_is_built_per_solve(monkeypatch):
    # the budget is 1 MiB, and a level stack of n^2 m matrices of side n d
    # takes 16 n^4 d^2 m bytes; over the named systems the smallest that
    # exceeds it is diag:3's complement (m = 6) at level 6, 1 119 744 bytes
    import opsys.systems as systems_module

    budget = systems_module._LEVEL_STACK_BYTES
    assert budget == 1 << 20
    sizes = {}
    names = (["pauli-span"] + [f"{kind}:{d}" for kind in ("full", "diag", "toeplitz")
                               for d in range(2, 9)])
    for name in names:
        t = named_system(name)
        for kind, m in (("hermitian", t.dim), ("complement", t.d ** 2 - t.dim)):
            for n in range(2, 16):
                if 16 * n ** 4 * t.d ** 2 * m > budget:
                    sizes[name, kind, n] = 16 * n ** 4 * t.d ** 2 * m
                    break
    assert min(sizes, key=sizes.get) == ("diag:3", "complement", 6)

    builds = []
    real_build = systems_module._level_basis

    def counted(hb, n):
        builds.append(n)
        return real_build(hb, n)

    monkeypatch.setattr(systems_module, "_level_basis", counted)
    s = named_system("diag:3")
    # the kernel steps from the start point to a refuting point
    grid = _undecided_at_start(s, 6, np.random.default_rng(0))
    first, second = cp_verdict(grid), cp_verdict(grid)
    assert builds == [6, 6]
    assert s._level_stacks == {}
    assert s._level_stack("complement", 6).nbytes == 1_119_744
    assert _verdict_bits(second) == _verdict_bits(first)
    # the verdict of the solver that built its stack on every solve
    assert (first.status, first.iterations) == ("infeasible", 5)
    assert first.gap == pytest.approx(0.04999999999999916, abs=1e-12)
    # one level down the stack fits, and it is kept
    assert s._level_stack("complement", 5).nbytes <= budget
    assert ("complement", 5) in s._level_stacks
