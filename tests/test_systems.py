import numpy as np
import pytest

from opsys import linalg as la
from opsys._search import smallest_passing
from opsys.errors import DimensionError, HermitianError, ValidationError
from opsys.norms import max_order_norm
from opsys.systems import (
    _domination_radii,
    OperatorSystem,
    cone_member,
    from_blocks,
    is_matrix_order_unit,
    make_operator_system,
    named_system,
    order_unit_radius_level,
    random_element,
    random_hermitian_element,
    random_positive_element,
    random_system,
    subspace_member,
    system_from_json,
    to_blocks,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


# -- construction -------------------------------------------------------------

def test_generated_by_pauli_x():
    s = make_operator_system([PAULI_X], 2)
    assert s.dim == 2
    assert subspace_member(s, np.eye(2)) and subspace_member(s, PAULI_X)


def test_adjoint_closure_forced():
    s = make_operator_system([E12], 2)
    assert s.dim == 3
    for m in (np.eye(2), E12, E12.conj().T):
        assert subspace_member(s, m)


def test_empty_generators_scalar_system():
    s = make_operator_system([], 3)
    assert s.dim == 1
    assert subspace_member(s, np.eye(3))


def test_generator_dimension_mismatch():
    with pytest.raises(DimensionError):
        make_operator_system([np.eye(3)], 2)


def _assert_structural_invariants(s):
    # an orthonormal basis of a unital, adjoint-closed span, to 1e-10
    gram = np.einsum("aij,bij->ab", s.basis.conj(), s.basis)
    assert np.abs(gram - np.eye(s.dim)).max() <= 1e-10
    assert s.residual(s.unit) <= 1e-10
    assert s.residuals(s.basis.conj().swapaxes(1, 2)).max() <= 1e-10


def test_structural_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_system(rng)
        _assert_structural_invariants(s)
        # Hermitian basis spans S_h with real orthonormality
        hb = s.hermitian_basis
        gram = np.einsum("aij,bji->ab", hb, hb).real
        assert np.allclose(gram, np.eye(s.dim), atol=1e-9)


def mgs2_reference(vectors, rank_tol):
    """Modified Gram-Schmidt with reorthogonalization, one basis vector at a
    time: the reference the classical (CGS2) orthonormalizer must reproduce."""
    basis = []
    for v in vectors:
        nrm = np.linalg.norm(v)
        if nrm <= rank_tol:
            continue
        w = v / nrm
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        res = np.linalg.norm(w)
        if res > rank_tol:
            basis.append(w / res)
    return np.stack(basis)


def shift(d, k):
    return np.eye(d, k=k, dtype=complex)


def unit(d, i, j):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def reference_generators():
    rng = np.random.default_rng(20)
    cases = {
        "full:8": (8, [unit(8, i, j) for i in range(8) for j in range(8)]),
        # 163 candidates: more than any benchmark op orthonormalizes
        "full:9": (9, [unit(9, i, j) for i in range(9) for j in range(9)]),
        "toeplitz:5": (5, [shift(5, k) for k in range(1, 5)]),
        "pauli-span": (2, [E12]),
    }
    for t in range(4):
        d = int(rng.integers(2, 6))
        gens = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for _ in range(int(rng.integers(1, 4)))]
        cases[f"random-{t}"] = (d, gens)
    return cases


@pytest.mark.parametrize("name", list(reference_generators()))
def test_orthonormalize_matches_mgs2_reference(name):
    # sampling draws basis coordinates, so a drifting basis would silently
    # change every sampled test input; pin it to the sequential reference
    d, gens = reference_generators()[name]
    cands = [np.eye(d, dtype=complex)]
    for g in gens:
        cands += [g, g.conj().T]
    ref = mgs2_reference(cands, 1e-9)
    out = la.orthonormalize(cands, 1e-9)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-13
    s = named_system(name) if name[0] != "r" else make_operator_system(gens, d)
    assert np.abs(np.stack(s.basis) - ref).max() <= 1e-13
    herm_cands = []
    for b in ref:
        herm_cands += [la.hermitian_part(b), la.antihermitian_part(b)]
    href = np.stack([la.hermitian_part(h) for h in mgs2_reference(herm_cands, 1e-9)])
    assert np.abs(s.hermitian_basis - href).max() <= 1e-13


def test_orthonormalize_dependences_across_block_boundaries():
    # 140 candidates, dependent ones among them near positions 64 and 128:
    # some on candidates far back, some on their close predecessors, some
    # mixing both
    rng = np.random.default_rng(5)
    cands = [rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
             for _ in range(140)]
    combos = {
        62: [3, 40], 63: [0],  # on candidates far back
        64: [10, 20, 30], 65: [63],  # far back, and on a dependent one
        67: [66], 70: [66, 68, 69],  # on close predecessors
        128: [5, 100], 130: [129, 2, 90],  # far back, and on both
    }
    for i, deps in combos.items():
        cands[i] = sum(complex(*rng.standard_normal(2)) * cands[j] for j in deps)
    ref = mgs2_reference(cands, 1e-9)
    out = la.orthonormalize(cands, 1e-9)
    assert out.shape == ref.shape == (140 - len(combos), 12, 12)
    assert np.abs(out - ref).max() <= 1e-13


def test_orthonormalize_stays_orthonormal_under_cancellation():
    # candidates within 1e-7 of the span of earlier ones: 66 of candidates
    # far back, 131 and 134 also of close predecessors, so that projection
    # cancels nearly all of them; the kept residuals, normalized up by
    # about 1e7, must still be orthonormal
    rng = np.random.default_rng(7)
    cands = [rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
             for _ in range(140)]
    for i, deps in {66: [1, 2], 131: [129, 7], 134: [131, 132, 133]}.items():
        noise = 1e-7 * rng.standard_normal((12, 12))
        cands[i] = sum(complex(*rng.standard_normal(2)) * cands[j] for j in deps) + noise
    out = la.orthonormalize(cands, 1e-9)
    gram = np.einsum("aij,bij->ab", out.conj(), out)
    assert len(out) == 140
    assert np.abs(gram - np.eye(140)).max() <= 1e-14


def test_orthonormalize_drops_dependent_vectors():
    v = np.arange(4.0).reshape(2, 2)
    out = la.orthonormalize([v, 2 * v, np.zeros((2, 2)), np.eye(2)], 1e-12)
    assert out.shape == (2, 2, 2)
    gram = np.einsum("aij,bij->ab", out.conj(), out)
    assert np.abs(gram - np.eye(2)).max() <= 1e-14


def test_named_systems():
    assert named_system("full:3").dim == 9
    assert named_system("diag:4").dim == 4
    assert named_system("toeplitz:4").dim == 7
    assert named_system("pauli-span").dim == 3


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 16])
def test_full_basis_is_the_gram_schmidt_basis(d):
    # the closed form stands in for Gram-Schmidt over the matrix units, so
    # random draws through from_coords stay the same to rounding
    s = named_system(f"full:{d}")
    units = [la.basis_matrix(d, i, j) for i in range(d) for j in range(d)]
    gs = make_operator_system(units, d)
    assert s.basis.shape == gs.basis.shape == (d * d, d, d)
    assert np.abs(s.basis - gs.basis).max() <= 1e-14
    assert not s.basis.flags.writeable
    _assert_structural_invariants(s)
    if d == 1:
        assert np.array_equal(s.basis, np.ones((1, 1, 1)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 16])
def test_full_coordinates_match_the_basis_products(d):
    # the closed form (Helmert diagonal, permuted off-diagonal entries)
    # against the products with the stored basis that every other system
    # uses; the basis is built only on demand, bit for bit _full_basis
    from opsys.systems import _full_basis

    s = named_system(f"full:{d}")
    ref = OperatorSystem(d, _full_basis(d))
    rng = np.random.default_rng(d)
    xs = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    tol = 1e-13 * d
    assert np.abs(s.stack_coords(xs) - ref.stack_coords(xs)).max() <= tol
    c = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    assert np.abs(s.from_coords(c) - ref.from_coords(c)).max() <= tol
    for n in (1, 2, 3):
        x = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal((n * d, n * d))
        assert np.abs(s.level_values(x) - ref.level_values(x)).max() <= tol
        assert np.abs(s.level_coords(x) - ref.level_coords(x)).max() <= tol
        v = rng.standard_normal((n * n, d * d)) + 1j * rng.standard_normal((n * n, d * d))
        assert np.abs(s.riesz_of_values(v) - ref.riesz_of_values(v)).max() <= tol
    assert s.dim == d * d and s._basis is None
    assert np.array_equal(s.basis, _full_basis(d)) and not s.basis.flags.writeable


def test_json_roundtrip():
    # the {"d", "generators"} format that the CLI and tower specs read
    s = named_system("toeplitz:3")
    s2 = system_from_json({"d": s.d, "generators": [la.encode_matrix(b) for b in s.basis]})
    assert s2.d == s.d and s2.dim == s.dim
    for b in s.basis:
        assert subspace_member(s2, b)


# -- level elements -----------------------------------------------------------

def test_block_roundtrip_bijection():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.array_equal(from_blocks(to_blocks(x, 2)), x)
    assert np.array_equal(from_blocks(to_blocks(x, 3)), x)


def test_residuals_match_per_matrix_projection():
    rng = np.random.default_rng(6)
    for s in (named_system("toeplitz:4"), named_system("full:3"), random_system(rng)):
        xs = np.stack([random_element(s, rng) for _ in range(3)]
                      + [rng.standard_normal((s.d, s.d)) for _ in range(3)])
        coords = [s.stack_coords([x])[0] for x in xs]
        want = [la.frobenius(x - s.from_coords(c)) for x, c in zip(xs, coords)]
        assert np.abs(s.residuals(xs) - want).max() <= 1e-13
        assert np.abs(s.stack_coords(xs) - coords).max() <= 1e-13


@pytest.mark.parametrize("name", ["full:8", "toeplitz:5", "random"])
def test_coordinate_maps_match_einsum_formulas(name):
    rng = np.random.default_rng(12)
    systems = [random_system(rng) for _ in range(3)] if name == "random" else [named_system(name)]
    for s in systems:
        b, hb = s.basis, s.hermitian_basis
        for _ in range(3):
            x = rng.standard_normal((s.d, s.d)) + 1j * rng.standard_normal((s.d, s.d))
            h = la.hermitian_part(x)
            c = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
            r = rng.standard_normal(s.dim)
            want_c = np.einsum("kij,ij->k", b.conj(), x)
            assert np.abs(s.stack_coords([x])[0] - want_c).max() <= 1e-13
            assert np.abs(s.from_coords(c) - np.einsum("k,kij->ij", c, b)).max() <= 1e-13
            assert np.abs(s.project_level(x) - np.einsum("k,kij->ij", want_c, b)).max() <= 1e-13
            want_h = np.real(np.einsum("kij,ij->k", hb.conj(), h))
            assert np.abs(s.hermitian_coords(h) - want_h).max() <= 1e-13
            # hermitian_coords inverts the real combination of the Hermitian basis
            assert np.abs(s.hermitian_coords(np.einsum("k,kij->ij", r, hb)) - r).max() <= 1e-13


def test_full_algebra_skips_the_basis_products(monkeypatch):
    # a full algebra projects by the identity: its memberships answer
    # without one coordinate product
    s = named_system("full:8")
    rng = np.random.default_rng(21)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))

    def no_product(self, xs):
        raise AssertionError("basis product on a full algebra")

    monkeypatch.setattr(OperatorSystem, "stack_coords", no_product)
    assert np.array_equal(s.residuals(np.stack([x, x.T])), np.zeros(2))
    assert subspace_member(s, np.kron(np.eye(3), x))
    h = la.hermitian_part(x)
    shift = abs(la.lambda_min(h)) + 0.5
    assert cone_member(s, h + shift * np.eye(8))
    assert not cone_member(s, np.kron(np.eye(2), h - shift * np.eye(8)))
    with pytest.raises(DimensionError):
        s.residuals(np.zeros((2, 4, 4)))


def test_subspace_member():
    s = make_operator_system([PAULI_X], 2)
    assert subspace_member(s, np.eye(2))
    assert not subspace_member(s, E12)
    for b in s.basis:
        assert subspace_member(s, b)


def test_cone_member_level1():
    s = make_operator_system([PAULI_X], 2)
    assert cone_member(s, np.eye(2))
    assert not cone_member(s, PAULI_X)  # eigenvalues +-1


def test_cone_member_level2_oracle():
    # [[I, X], [X, I]] flattens to I_4 + X(x)X whose eigenvalues are
    # 1 +- eig(X(x)X) = {0, 0, 2, 2}: PSD boundary element
    s = make_operator_system([PAULI_X], 2)
    x = from_blocks(np.array([[np.eye(2), PAULI_X], [PAULI_X, np.eye(2)]]))
    w = np.linalg.eigvalsh(x)
    assert np.allclose(sorted(w), [0, 0, 2, 2], atol=1e-12)
    assert cone_member(s, x)


def test_cone_rejects_outside_subspace():
    s = make_operator_system([PAULI_X], 2)
    psd_but_outside = np.array([[1.5, 0.5j], [-0.5j, 0.5]])
    assert la.lambda_min(psd_but_outside) > 0
    assert not cone_member(s, psd_but_outside)


# -- order unit radii ---------------------------------------------------------

def test_radius_identity():
    s = named_system("full:2")
    r = order_unit_radius_level(s, np.eye(2), np.eye(2))
    assert r == pytest.approx(1.0, abs=1e-6)


def test_radius_spectral():
    s = named_system("full:2")
    r = order_unit_radius_level(s, np.eye(2), np.diag([1.0, -2.0]))
    assert r == pytest.approx(1.0, abs=1e-6)


def test_radius_not_dominated():
    s = named_system("diag:2")
    e = np.diag([1.0, 0.0]).astype(complex)
    x = np.diag([0.0, 1.0]).astype(complex)
    assert order_unit_radius_level(s, e, x) is None


def test_radius_requires_hermitian():
    s = named_system("full:2")
    with pytest.raises(HermitianError):
        order_unit_radius_level(s, np.eye(2), E12)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_radius_rejects_bad_precision_and_r_max(bad):
    # a NaN bound used to return 1.0 instead of 0.7; both bounds are module
    # constants of order_unit_radius_level, checked by the shared routine
    s = named_system("full:2")
    x = np.diag([0.3, 0.7]).astype(complex)
    for r_max, precision in ((bad, 1e-8), (1e6, bad)):
        with pytest.raises(ValidationError):
            _domination_radii(np.eye(2), 1e-8, r_max, precision)(x)
    assert order_unit_radius_level(s, np.eye(2), x) == pytest.approx(0.7, abs=1e-8)


def test_radius_above_r_max_is_none_when_the_first_probe_passes():
    # a singular unit bisects from r = 1, which already dominates
    # diag(0.7, 0); the search used to return 0.7 for an r_max of 0.5
    e = np.diag([1.0, 0.0]).astype(complex)
    x = np.diag([0.7, 0.0]).astype(complex)
    assert _domination_radii(e, 1e-8, 0.5, 1e-8)(x) is None
    assert _domination_radii(e, 1e-8, 0.8, 1e-8)(x) == pytest.approx(0.7, abs=1e-8)
    assert smallest_passing(lambda r: r >= 0.7, 0.5, 1e-8, r_start=2.0) is None
    r = smallest_passing(lambda r: r >= 0.7, 0.8, 1e-8, r_start=2.0)
    assert 0.7 <= r <= 0.7 + 1e-8
    # from an r_start <= r_max the probes, and so the result, are unchanged
    assert smallest_passing(lambda r: r >= 0.7, 1e6, 1e-8) == smallest_passing(
        lambda r: r >= 0.7, 8.0, 1e-8)


def test_bracket_search_probes_r_max_once_before_giving_up():
    probes = []

    def passes(r):
        probes.append(r)
        return r >= 1.2

    # the doubled probe 2 overshoots r_max = 1.5 and is clamped to it
    r = smallest_passing(passes, 1.5, 1e-8)
    assert probes[:3] == [0.0, 1.0, 1.5] and 1.2 <= r <= 1.2 + 1e-8
    probes.clear()
    assert smallest_passing(passes, 1.1, 1e-8) is None
    assert probes == [0.0, 1.0, 1.1]


@pytest.mark.parametrize("max_level, samples", [(0, 4), (2, 0), (-1, 4)])
def test_matrix_order_unit_sweep_rejects_empty_counts(max_level, samples):
    # a sweep over no level or no sample used to pass with no radius checked
    s = named_system("full:2")
    with pytest.raises(ValidationError):
        is_matrix_order_unit(s, np.eye(2), max_level, samples_per_level=samples,
                             rng=np.random.default_rng(0))


def test_radius_level2_matches_eigen_oracle():
    rng = np.random.default_rng(2)
    s = named_system("full:2")
    x = random_hermitian_element(s, rng, level=2)
    r = order_unit_radius_level(s, np.eye(2), x)
    assert r == pytest.approx(max(la.lambda_max(x), 0.0), abs=1e-6)


@pytest.mark.parametrize("name", ["full:3", "pauli-span", "toeplitz:3", "random"])
def test_positive_definite_unit_radius_is_the_cholesky_closed_form(monkeypatch, name):
    # a positive definite e takes one congruence, never a bisection: the
    # radius is lambda_max(L^-1 x L^-*) with L = chol(I_n (x) e), and it is
    # minimal, since backing off by 1e-6 leaves r (I_n (x) e) - x indefinite
    import opsys.systems as systems_module

    def no_bisection(*args, **kwargs):
        raise AssertionError("smallest_passing called on a positive definite unit")

    monkeypatch.setattr(systems_module, "smallest_passing", no_bisection)
    rng = np.random.default_rng(40)
    s = random_system(rng, d=3) if name == "random" else named_system(name)
    h = random_hermitian_element(s, rng, scale=0.4)
    e = h + (max(0.0, -la.lambda_min(h)) + 0.25) * s.unit
    for n in (1, 2, 3):
        lifted = np.kron(np.eye(n), e)
        x = random_hermitian_element(s, rng, level=n)
        li = np.linalg.inv(np.linalg.cholesky(lifted))
        oracle = max(0.0, la.lambda_max(li @ x @ li.conj().T))
        r = order_unit_radius_level(s, e, x)
        assert r == pytest.approx(oracle, abs=1e-12)
        assert la.lambda_min(r * lifted - x) >= -1e-10
        if r > 1e-6:
            assert la.lambda_min((r - 1e-6) * lifted - x) < 0


def test_singular_unit_radius_bisects_to_a_finite_value():
    # e = diag(1, 0) has no Cholesky factor; x = diag(0.5, -1) is dominated
    # from r = 0.5 on, since the kernel direction of e sees -1 <= 0
    s = named_system("diag:2")
    e = np.diag([1.0, 0.0]).astype(complex)
    x = np.diag([0.5, -1.0]).astype(complex)
    assert order_unit_radius_level(s, e, x) == pytest.approx(0.5, abs=1e-8)


# -- matrix order units (order unit iff matrix order unit) ---------------------

def test_identity_is_matrix_order_unit():
    for s in (named_system("full:2"), named_system("pauli-span"), named_system("diag:3")):
        report = is_matrix_order_unit(s, s.unit, 3, samples_per_level=8)
        assert report.ok


def test_matrix_order_unit_sweep_factors_the_unit_once_per_level(monkeypatch):
    # I_n (x) e is the same matrix for every sample of level n: one Cholesky
    # factor serves them all, and each radius is the closed form at it
    calls = []
    original = np.linalg.cholesky

    def spy(a, *args, **kwargs):
        calls.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    s = named_system("toeplitz:3")
    e = s.unit + 0.3 * la.hermitian_part(s.basis[1])
    report = is_matrix_order_unit(s, e, 3, samples_per_level=8, rng=np.random.default_rng(5))
    assert report.ok and calls == [3, 6, 9]
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        li = np.linalg.inv(original(np.kron(np.eye(n), e)))
        for r in report.radii[n]:
            x = random_hermitian_element(s, rng, level=n)
            assert r == max(0.0, la.lambda_max(li @ x @ li.conj().T))


def test_diag_unit_counterexample():
    s = named_system("diag:2")
    report = is_matrix_order_unit(s, np.diag([1.0, 0.0]).astype(complex), 1)
    assert not report.ok
    assert report.counterexample_level == 1
    h = report.counterexample
    # the witness is a Hermitian element of S that no multiple of e dominates
    assert subspace_member(s, h)
    assert order_unit_radius_level(s, np.diag([1.0, 0.0]).astype(complex), h) is None


@pytest.mark.parametrize("name", ["toeplitz:3", "full:3"])
def test_non_finite_element_is_not_in_the_system(name):
    # `res > tol` is False for a NaN residual: this used to be a member
    x = np.eye(3)
    x[0, 1] = np.nan
    assert subspace_member(named_system(name), x) is False


def test_non_finite_generator_rejected():
    # Gram-Schmidt kept no NaN direction: the generator was dropped and the
    # system came back as span{I}
    with pytest.raises(ValidationError, match="non-finite"):
        make_operator_system([np.full((3, 3), np.nan)], 3)


def test_non_finite_basis_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        OperatorSystem(2, [np.eye(2) / np.sqrt(2), np.diag([np.inf, 0.0])])


def test_matrix_order_unit_rejects_a_unit_outside_the_system():
    # none of these is in pauli-span: the unit check raises before any
    # search.  diag(2, 1) is positive definite; the singular diag(1, 0) and
    # the non-Hermitian [[1, 2], [0, 0]] used to reach the kernel
    # counterexample search first and come back ok=False
    for e in (np.diag([2.0, 1.0]), np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [0.0, 0.0]])):
        with pytest.raises(ValidationError, match="not in S"):
            is_matrix_order_unit(named_system("pauli-span"), e)


def test_positive_definite_unit_dominates():
    # e = I + 0.5 X is positive definite, so it dominates at every level
    # with a finite radius
    s = make_operator_system([PAULI_X], 2)
    e = np.eye(2) + 0.5 * PAULI_X
    assert la.lambda_min(e) > 0
    report = is_matrix_order_unit(s, e, 3, samples_per_level=8)
    assert report.ok
    assert all(r is not None for level in report.radii.values() for r in level)


# -- cone invariants ----------------------------------------------------------

def test_cone_compatibility_under_scalar_compression():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_system(rng, d=3)
        n, m = 3, 2
        x = random_positive_element(s, rng, level=n)
        alpha = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        lifted = np.kron(alpha, np.eye(3))
        y = lifted.conj().T @ x @ lifted
        assert cone_member(s, y, 1e-7)


def test_cone_properness():
    rng = np.random.default_rng(4)
    s = random_system(rng, d=3)
    x = 1e-10 * random_hermitian_element(s, rng)
    if cone_member(s, x, 1e-9) and cone_member(s, -x, 1e-9):
        assert la.op_norm(x) <= 1e-7


def test_archimedean_property_of_identity():
    rng = np.random.default_rng(5)
    s = random_system(rng, d=3)
    # boundary element: positive semidefinite member of S with lambda_min 0
    h = random_hermitian_element(s, rng)
    x = h - la.lambda_min(h) * np.eye(3)
    assert all(
        cone_member(s, 2.0 ** -k * np.eye(3) + x) for k in range(1, 21)
    )
    assert cone_member(s, x, 1e-6)


def test_operator_norm_block_estimate():
    # || [T_ij] ||_op <= n * max_ij ||T_ij||_M, with the certified upper
    # bound standing in for the max norm
    rng = np.random.default_rng(6)
    s = random_system(rng, d=3)
    n = 2
    blocks = np.empty((n, n, 3, 3), dtype=complex)
    bound = 0.0
    from opsys.systems import random_element

    for i in range(n):
        for j in range(n):
            blocks[i, j] = random_element(s, rng)
            _, upper = max_order_norm(s, blocks[i, j])
            bound = max(bound, upper)
    flat = from_blocks(blocks)
    assert la.op_norm(flat) <= n * bound + 1e-6
