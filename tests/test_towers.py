import numpy as np
import pytest

from opsys import linalg as la
from opsys.dual import Functional, MatrixFunctional, faithful_state, is_cp
from opsys.errors import (
    DimensionError,
    HermitianError,
    InconsistentThreadError,
    ParseError,
    ValidationError,
)
from opsys.norms import _spectral_radius, max_order_norm, min_order_norm, numerical_radius
from opsys.systems import (
    from_blocks,
    make_operator_system,
    named_system,
    random_element,
    random_hermitian_element,
    to_blocks,
)
from opsys.towers import (
    Embedding,
    FunctionalThread,
    Tower,
    inductive_positive,
    make_tower,
    pairing,
    pullback_thread,
    trace_state_thread,
    verify_dual_cones,
    verify_gamma,
)


@pytest.fixture(scope="module")
def doubling3():
    return make_tower("matrix-doubling:3")


@pytest.fixture(scope="module")
def corner4():
    return make_tower("corner:4")


@pytest.fixture(scope="module")
def pauli_inclusion():
    # the proper source pauli-span included in full:2
    p, full = named_system("pauli-span"), named_system("full:2")
    return Tower([p, full], [Embedding(p, full, list(p.basis))])


def _pauli_chain():
    # S_1 = M_2 -> S_2 = span{I, sigma_a (x) I, I (x) sigma_a} in M_4 along
    # x -> x (x) I_2: the top stage is a proper subsystem of dimension 7
    sigmas = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    s1 = named_system("full:2")
    s2 = make_operator_system([np.kron(a, np.eye(2)) for a in sigmas]
                              + [np.kron(np.eye(2), a) for a in sigmas], 4)
    return Tower([s1, s2], [Embedding(s1, s2, [np.kron(b, np.eye(2)) for b in s1.basis])])


# -- construction and validation -----------------------------------------------

def test_doubling_stage_sizes(doubling3):
    assert [s.d for s in doubling3.systems] == [2, 4, 8]
    assert doubling3.depth == 3


def test_corner_stage_sizes(corner4):
    assert [s.d for s in corner4.systems] == [1, 2, 3, 4]


def test_doubling_embedding_isometric(doubling3):
    # x -> x (x) I is a *-homomorphism, so operator norms are preserved
    emb = doubling3.embeddings[0]
    for b in doubling3.stage(1).basis:
        assert la.op_norm(emb.apply(b)) == pytest.approx(la.op_norm(b), abs=1e-12)


@pytest.mark.parametrize("name", ["doubling3", "corner4"])
def test_apply_level_matches_blockwise_apply(name, request):
    # the reference is the coordinates of each block against images written
    # out without Kraus operators
    tower = request.getfixturevalue(name)
    rng = np.random.default_rng(4)
    for emb in tower.embeddings:
        images = _reference_images(tower.name, emb.source)
        for n in (1, 2, 3):
            x = random_element(emb.source, rng, level=n)
            blocks = to_blocks(x, emb.source.d)
            want = from_blocks([[np.einsum("k,kij->ij", c, images)
                                 for c in emb.source.stack_coords(row)] for row in blocks])
            assert np.abs(emb.apply_level(x) - want).max() <= 1e-13
            dt = emb.target.d
            assert np.abs(emb.apply(blocks[0, 0]) - want[:dt, :dt]).max() <= 1e-13


def test_non_unital_map_rejected():
    s1, s2 = named_system("full:2"), named_system("full:4")
    images = [np.kron(b, np.diag([1.0, 0.0])) for b in s1.basis]  # x -> x (+) 0
    with pytest.raises(ValidationError, match="unital"):
        Tower([s1, s2], [Embedding(s1, s2, images)])


def test_non_cp_map_rejected():
    # the transpose is unital, positive and order reflecting, but not CP
    s = named_system("full:2")
    with pytest.raises(ValidationError, match="not completely positive"):
        Tower([s, s], [Embedding(s, s, [b.T for b in s.basis])])


def test_cp_certified_on_a_proper_source():
    # on span{I, E_12, E_21} the transpose is conjugation by sigma_x, so it
    # is CP like the inclusion; the section kernel certifies both
    p, full = named_system("pauli-span"), named_system("full:2")
    for images in (list(p.basis), [b.T for b in p.basis]):
        assert Tower([p, full], [Embedding(p, full, images)]).depth == 2


@pytest.mark.parametrize("spec", [f"matrix-doubling:{k}" for k in range(1, 5)]
                         + [f"corner:{k}" for k in range(2, 7)])
def test_builtin_towers_certified_cp(spec):
    assert make_tower(spec).depth == int(spec.split(":")[1])


def _choi_oracle(source, images):
    # the map's grid entry by entry: f_ij has values images[:, i, j]
    n = images.shape[1]
    return MatrixFunctional.from_grid(
        [[Functional(source, source.riesz_of_values(images[None, :, i, j])) for j in range(n)]
         for i in range(n)]
    ).riesz


def _reference_images(spec, source):
    # the built-in maps written out on the source basis: x (x) I_2 and
    # diag(x, trace(x)/d)
    basis = source.basis
    if spec.startswith("matrix-doubling"):
        return np.stack([np.kron(b, np.eye(2)) for b in basis])
    d = source.d
    images = np.zeros((source.dim, d + 1, d + 1), dtype=complex)
    images[:, :d, :d] = basis
    images[:, d, d] = np.trace(basis, axis1=1, axis2=2) / d
    return images


def _spy_cp_verdict(monkeypatch):
    # every (grid, verdict) pair the tower checks decide
    import opsys.towers as towers_module

    seen = []
    real_verdict = towers_module.cp_verdict

    def spy(mf, *args):
        seen.append((mf, real_verdict(mf, *args)))
        return seen[-1][1]

    monkeypatch.setattr(towers_module, "cp_verdict", spy)
    return seen


def test_check_cp_choi_matrix_matches_entrywise_grid(monkeypatch):
    # a coefficient embedding goes through cp_verdict on its source with its
    # Choi matrix, formed by one product, which must be the grid's built
    # entry by entry (its order reflection is decided on the image system);
    # a Kraus embedding whose V_0 is a left inverse skips cp_verdict, and
    # the images and the Choi matrix sum_r w_r w_r^* (w_r = conj(V_r)
    # flattened) of its Kraus operators must be those of the map it stands
    # for
    seen = _spy_cp_verdict(monkeypatch)
    p, full = named_system("pauli-span"), named_system("full:2")
    coefficient = [Tower([p, full], [Embedding(p, full, images)]).embeddings[0]
                   for images in (list(p.basis), [b.T for b in p.basis])]
    on_source = [mf for mf, _ in seen if mf.system is p]
    assert len(on_source) == 2
    for mf, emb in zip(on_source, coefficient):
        assert emb.kraus is None
        assert mf.n == 2
        assert np.abs(mf.riesz - _choi_oracle(p, emb.images)).max() <= 1e-12
    calls = len(seen)
    specs = [f"matrix-doubling:{k}" for k in range(1, 5)] + [f"corner:{k}" for k in range(2, 7)]
    pairs = [(spec, emb) for spec in specs for emb in make_tower(spec).embeddings]
    assert len(pairs) == 6 + 15 and len(seen) == calls
    for spec, emb in pairs:
        images = _reference_images(spec, emb.source)
        assert np.abs(emb.images - images).max() <= 1e-12
        w = emb.kraus.conj().reshape(len(emb.kraus), -1)
        assert np.abs(w.T @ w.conj() - _choi_oracle(emb.source, images)).max() <= 1e-12


def _depolarizing(eps):
    # x -> (1 - eps) x + eps tr(x)/2 I on M_2: unital, CP and injective,
    # but its inverse is not positive
    return lambda x: (1 - eps) * x + eps * np.trace(x) / 2 * np.eye(2)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_depolarizing_map_refuted_by_a_farkas_certificate(monkeypatch, eps):
    seen = _spy_cp_verdict(monkeypatch)
    s = named_system("full:2")
    with pytest.raises(ValidationError, match="embedding 1 is not order reflecting"):
        Tower([s, s], [Embedding(s, s, [_depolarizing(eps)(b) for b in s.basis])])
    (cp_grid, cp), (inv_grid, inv) = seen
    assert cp_grid.system is s and cp.status == "feasible"
    # the inverse grid rebuilt entry by entry from the closed-form inverse
    # (y - eps tr(y)/2 I) / (1 - eps) on the basis of the image system
    image = inv_grid.system
    assert image.dim == 4 and image.d == 2
    preimages = np.stack([(c - eps * np.trace(c) / 2 * np.eye(2)) / (1 - eps)
                          for c in image.basis])
    choi = _choi_oracle(image, preimages)
    assert np.abs(inv_grid.riesz - choi).max() <= 1e-12
    # Z is PSD, lies in M_2(phi(S)) and pairs negatively with the Choi matrix
    assert inv.status == "infeasible"
    z = inv.certificate
    assert la.lambda_min(z) >= -1e-12
    assert np.abs(image.project_level(z) - z).max() <= 1e-12
    assert np.vdot(z, choi).real < -1e-3


def test_non_finite_embedding_is_not_unital():
    # a NaN unit image passed `distance > tol`; the tower was refused only
    # later, as not completely positive
    s = named_system("full:2")
    with pytest.raises(ValidationError, match="embedding 1 is not unital"):
        Tower([s, s], [Embedding(s, s, np.full((4, 2, 2), np.nan))])


def test_kraus_list_without_a_left_inverse_falls_back(monkeypatch):
    # corner:5's Kraus operators reversed: from M_2 on, V_0 = e_{d+1} e_d^T
    # / sqrt(d) is not a left inverse, so those stages are certified through
    # cp_verdict of the inverse on the image system, a proper subsystem (on
    # M_1 the reversed V_0 = e_2 is still an isometry and a left inverse)
    seen = _spy_cp_verdict(monkeypatch)
    corner = make_tower("corner:5")
    reversed_ = [Embedding.from_kraus(e.source, e.target, e.kraus[::-1])
                 for e in corner.embeddings]
    tower = Tower(corner.systems, reversed_)
    assert tower.depth == 5 and len(seen) == 3
    for (mf, verdict), emb in zip(seen, reversed_[1:]):
        assert mf.system.d == emb.target.d and mf.system.dim == emb.source.dim
        assert mf.n == emb.source.d and verdict.status == "feasible"
    # the depolarizing map in Pauli-Kraus form fails the same test and is
    # refused on the same route
    s = named_system("full:2")
    eps = 0.1
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    kraus = [np.sqrt(1 - 3 * eps / 4) * paulis[0]] + [np.sqrt(eps / 4) * np.array(m)
                                                      for m in paulis[1:]]
    depolarizing = Embedding.from_kraus(s, s, kraus)
    x = random_hermitian_element(s, np.random.default_rng(22))
    assert np.abs(depolarizing.apply(x) - _depolarizing(eps)(x)).max() <= 1e-12
    with pytest.raises(ValidationError, match="embedding 1 is not order reflecting"):
        Tower([s, s], [depolarizing])
    assert len(seen) == 4 and seen[-1][1].status == "infeasible"


@pytest.mark.parametrize("spec", ["matrix-doubling:4", "corner:5"])
def test_kraus_form_matches_the_images_path(spec):
    # the same map in coefficient form, from images written out without
    # Kraus operators: apply_level and the adjoint agree at levels 1-3 on
    # every stage
    rng = np.random.default_rng(20)
    for emb in make_tower(spec).embeddings:
        coeffs = emb.target.stack_coords(_reference_images(spec, emb.source)).T
        ref = Embedding.from_coefficients(emb.source, emb.target, coeffs)
        assert emb.kraus is not None and ref.kraus is None
        for n in (1, 2, 3):
            x = random_element(emb.source, rng, level=n)
            assert np.abs(emb.apply_level(x) - ref.apply_level(x)).max() <= 1e-12
            side = n * emb.target.d
            g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            mf = MatrixFunctional.from_choi(emb.target, g)
            got, want = emb.pullback(mf), ref.pullback(mf)
            assert got.n == want.n == n
            assert np.abs(got.riesz - want.riesz).max() <= 1e-12


def test_non_unital_kraus_list_rejected():
    # one doubling Kraus operator alone is x -> x (+) 0 up to a permutation
    s1, s2 = named_system("full:2"), named_system("full:4")
    half = Embedding.from_kraus(s1, s2, [np.kron(np.eye(2), [[1.0], [0.0]])])
    with pytest.raises(ValidationError, match="unital"):
        Tower([s1, s2], [half])
    scaled = Embedding.from_kraus(s1, s2, 1.001 * np.stack(
        [np.kron(np.eye(2), e) for e in np.eye(2)[:, :, None]]))
    with pytest.raises(ValidationError, match="unital"):
        Tower([s1, s2], [scaled])


def test_doubling_tower_path_builds_no_basis(monkeypatch):
    # Kraus embeddings and closed-form coordinates: building and checking
    # matrix-doubling:6 (top stage M_64) never writes out a basis array
    import opsys.systems as systems_module

    def refuse(d):
        raise AssertionError(f"basis of full:{d} built")

    monkeypatch.setattr(systems_module, "_full_basis", refuse)
    tower = make_tower("matrix-doubling:6")
    report = verify_gamma(tower, samples=2, max_level=2, rng=np.random.default_rng(21))
    assert report["passed"], report
    assert all(s._basis is None for s in tower.systems)


def test_non_embedding_rejected():
    # x -> trace-state(x) * I is unital and CP but collapses the order
    s1, s2 = named_system("full:2"), named_system("full:2")
    images = [np.trace(b) / 2 * np.eye(2) for b in s1.basis]
    with pytest.raises(ValidationError, match="order reflecting"):
        Tower([s1, s2], [Embedding(s1, s2, images)])


def test_embedding_rejects_bad_shapes_and_counts():
    p, full = named_system("pauli-span"), named_system("full:2")
    with pytest.raises(DimensionError, match="ambient M_2"):
        Embedding(p, full, [np.eye(3)] * p.dim)
    with pytest.raises(DimensionError, match="2 images for a source of dimension 3"):
        Embedding(p, full, list(p.basis[:2]))
    for kraus in (np.eye(2), np.zeros((0, 2, 2)), np.zeros((1, 3, 2))):
        with pytest.raises(DimensionError, match="Kraus operators of shape"):
            Embedding.from_kraus(p, full, kraus)


def test_tower_needs_one_embedding_per_step():
    s1, s2 = named_system("full:1"), named_system("full:2")
    with pytest.raises(ValidationError, match="2 systems need 1 embeddings, got 0"):
        Tower([s1, s2], [])


def test_tower_from_json_spec():
    s1 = named_system("full:2")
    s2 = named_system("full:4")
    images = [np.kron(b, np.eye(2)) for b in s1.basis]
    coeffs = s2.stack_coords(images).T
    spec = {
        "systems": [{"d": 2, "generators": [la.encode_matrix(b) for b in s1.basis]},
                    {"d": 4, "generators": [la.encode_matrix(b) for b in s2.basis]}],
        "embeddings": [{"matrix_on_basis": la.encode_matrix(coeffs)}],
    }
    tower = make_tower(spec)
    assert tower.depth == 2
    assert [s.d for s in tower.systems] == [2, 4]


def test_bad_tower_specs():
    with pytest.raises(ParseError):
        make_tower("matrix-doubling:x")
    with pytest.raises(ParseError):
        make_tower("unknown:3")
    with pytest.raises(ParseError):
        make_tower({"systems": ["full:2"]})


# -- threads ---------------------------------------------------------------------

def test_element_thread_compatibility(doubling3):
    rng = np.random.default_rng(0)
    x = random_element(doubling3.stage(1), rng)
    e = doubling3.thread(1, x)
    # each image is the embedding of the one before
    for emb, cur, nxt in zip(doubling3.embeddings, e.images, e.images[1:]):
        assert la.frobenius(emb.apply_level(cur) - nxt) <= 1e-9
    assert e.image_at(3).shape == (8, 8)
    # oracle: the deepest image is x (x) I_4 directly
    assert np.allclose(e.image_at(3), np.kron(x, np.eye(4)), atol=1e-12)


def test_functional_thread_pullback_compatibility(doubling3):
    rng = np.random.default_rng(1)
    top = doubling3.stage(3)
    f = Functional(top, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    thread = pullback_thread(doubling3, f)
    thread.check_compatibility()


def test_pullback_is_partial_trace(doubling3):
    # stage k of the thread is the partial trace of F over C^(2^(3-k))
    rng = np.random.default_rng(8)
    riesz = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    thread = pullback_thread(doubling3, Functional(doubling3.stage(3), riesz))
    for k in (1, 2, 3):
        m = 2 ** (3 - k)
        want = np.einsum("acbc->ab", riesz.reshape(8 // m, m, 8 // m, m))
        assert np.abs(thread.entry(k).riesz - want).max() <= 1e-13


def test_broken_level_two_thread_detected(doubling3):
    # compatibility is checked entrywise at the thread's level
    rng = np.random.default_rng(17)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    thread = pullback_thread(doubling3, MatrixFunctional.from_choi(doubling3.stage(3), g))
    assert [f.n for f in thread.entries] == [2, 2, 2]
    FunctionalThread(doubling3, thread.entries).check_compatibility()
    entries = list(thread.entries)
    bumped = entries[1].riesz.copy()
    bumped[0, 0] += 1e-6
    entries[1] = MatrixFunctional(doubling3.stage(2), bumped)
    with pytest.raises(InconsistentThreadError):
        FunctionalThread(doubling3, tuple(entries)).check_compatibility()


def test_broken_thread_detected(doubling3):
    top = doubling3.stage(3)
    f = Functional(top, np.eye(8) / 8)
    thread = pullback_thread(doubling3, f)
    entries = list(thread.entries)
    entries[0] = entries[0] + Functional(doubling3.stage(1), np.diag([1.0, -1.0]))
    with pytest.raises(InconsistentThreadError):
        FunctionalThread(doubling3, tuple(entries)).check_compatibility()


def test_thread_norm_sup_of_a_directly_built_thread(doubling3):
    # the sup of the stage norms is read off the entries, however the
    # thread was built
    entries = trace_state_thread(doubling3).entries
    thread = FunctionalThread(doubling3, entries)
    assert thread.norm_sup == max(f.norm for f in entries)
    assert thread.norm_sup == pytest.approx(1.0, abs=1e-12)


def test_zero_functional_thread(doubling3):
    thread = pullback_thread(doubling3, Functional.zero(doubling3.stage(3)))
    assert thread.norm_sup == 0.0
    e = doubling3.thread(1, doubling3.stage(1).unit)
    assert pairing(e, thread) == 0


# -- dual tower ----------------------------------------------------------------

def test_adjoint_trace_state_partial_trace_oracle(doubling3):
    # oracle: trace((I/2d)(x (x) I_2)) = trace(x)/d, the partial-trace identity
    for k in (1, 2):
        tgt = faithful_state(doubling3.stage(k + 1))
        projected = doubling3.embeddings[k - 1].pullback(tgt)
        expected = faithful_state(doubling3.stage(k))
        assert la.frobenius(projected.riesz - expected.riesz) <= 1e-12


def test_adjoint_linear(doubling3):
    rng = np.random.default_rng(2)
    emb = doubling3.embeddings[0]
    top = doubling3.stage(2)
    f = Functional(top, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    g = Functional(top, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    z = complex(rng.standard_normal(), rng.standard_normal())
    lhs = emb.pullback(f + z * g)
    rhs = emb.pullback(f) + z * emb.pullback(g)
    assert la.frobenius(lhs.riesz - rhs.riesz) <= 1e-10


def test_adjoint_surjective_onto_canonical(doubling3):
    # phi injective makes phi' surjective: every canonical functional at
    # stage k is hit; verified by solving the small linear system
    rng = np.random.default_rng(3)
    s1, s2 = doubling3.stage(1), doubling3.stage(2)
    target = Functional(s1, rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    # matrix of phi' in value coordinates
    m = np.zeros((s1.dim, s2.dim), dtype=complex)
    for j, b2 in enumerate(s2.basis):
        vals = np.zeros(s2.dim, dtype=complex)
        vals[j] = 1.0
        f2 = Functional(s2, s2.riesz_of_values(vals[None]))
        f1 = doubling3.embeddings[0].pullback(f2)
        m[:, j] = [f1.pair(b) for b in s1.basis]
    want = np.array([target.pair(b) for b in s1.basis])
    sol, *_ = np.linalg.lstsq(m, want, rcond=None)
    residual = np.linalg.norm(m @ sol - want)
    assert residual <= 1e-9


def test_identity_stage_adjoint_is_identity():
    s = named_system("full:2")
    tower = Tower([s, s], [Embedding(s, s, list(s.basis))])
    f = Functional(s, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert la.frobenius(tower.embeddings[0].pullback(f).riesz - f.riesz) <= 1e-12


@pytest.mark.parametrize("name", ["doubling3", "corner4", "pauli_inclusion"])
def test_level_pullback_matches_entrywise_oracle(name, request):
    # (id_n (x) phi)' in one product equals the grid of level-1 pullbacks
    tower = request.getfixturevalue(name)
    rng = np.random.default_rng(18)
    for emb in tower.embeddings:
        for n in (1, 2, 3):
            side = n * emb.target.d
            g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            mf = MatrixFunctional.from_choi(emb.target, g)
            # f_ij is block (j, i) of the Riesz matrix
            grid = to_blocks(mf.riesz, emb.target.d).swapaxes(0, 1)
            want = MatrixFunctional.from_grid([[emb.pullback(Functional(emb.target, b))
                                                for b in row] for row in grid])
            got = emb.pullback(mf)
            assert got.system is emb.source and got.n == n
            assert np.abs(got.riesz - want.riesz).max() <= 1e-13


def test_pullback_rejects_functional_off_the_target(doubling3):
    emb = doubling3.embeddings[0]
    for wrong in (doubling3.stage(1), doubling3.stage(3), named_system("full:4")):
        with pytest.raises(ValidationError, match="target"):
            emb.pullback(faithful_state(wrong))


def test_thread_constructors_reject_the_wrong_stage_or_length(doubling3):
    with pytest.raises(ValidationError, match="deepest stage"):
        pullback_thread(doubling3, faithful_state(doubling3.stage(2)))


# -- thread norms ----------------------------------------------------------------

def test_norm_sequence_doubling_constant(doubling3):
    # oracle: x -> x (x) I preserves both the spectrum and the numerical
    # radius, so the per-stage norms of a thread are constant
    rng = np.random.default_rng(4)
    h = random_hermitian_element(doubling3.stage(1), rng)
    values = [_spectral_radius(img) for img in doubling3.thread(1, h).images]
    assert np.allclose(values, values[0], atol=1e-10)
    x = random_element(doubling3.stage(1), rng)
    values = [numerical_radius(img) for img in doubling3.thread(1, x).images]
    assert np.allclose(values, values[0], atol=1e-8)


def test_norm_sequence_non_increasing(corner4):
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = random_element(corner4.stage(2), rng)
        # unital positive maps contract the minimal order norm, the
        # numerical radius of each image
        values = [numerical_radius(img) for img in corner4.thread(2, x).images]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9


def test_thread_norm_sandwich(corner4):
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = random_element(corner4.stage(2), rng)
        e = corner4.thread(2, x)
        mins, maxs = [], []
        for m in range(2, corner4.depth + 1):
            img = e.image_at(m)
            s = corner4.stage(m)
            mins.append(min_order_norm(s, img))
            maxs.append(max_order_norm(s, img)[1])
        sup_min, sup_max = max(mins), max(maxs)
        assert sup_min <= sup_max + 1e-9
        assert sup_max <= 2 * sup_min + 1e-6


# -- inductive positivity -----------------------------------------------------------

def test_inductive_positive_cases(doubling3):
    rng = np.random.default_rng(7)
    s1 = doubling3.stage(1)
    from opsys.systems import random_positive_element

    pos = doubling3.thread(1, random_positive_element(s1, rng))
    assert inductive_positive(doubling3, pos)
    neg = doubling3.thread(1, np.diag([1.0, -1e-3]).astype(complex))
    assert not inductive_positive(doubling3, neg)
    h = random_hermitian_element(s1, rng)
    boundary = doubling3.thread(1, h - la.lambda_min(h) * np.eye(2))
    assert inductive_positive(doubling3, boundary)


def test_inductive_positive_needs_a_hermitian_thread(doubling3):
    e12 = doubling3.thread(1, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(HermitianError):
        inductive_positive(doubling3, e12)


# -- pairing ------------------------------------------------------------------------

def test_pairing_unit_state(doubling3):
    e = doubling3.thread(1, doubling3.stage(1).unit)
    f = trace_state_thread(doubling3)
    assert pairing(e, f) == pytest.approx(1.0, abs=1e-12)


def test_pairing_matches_deepest_stage(doubling3):
    rng = np.random.default_rng(8)
    k = 2
    x = random_element(doubling3.stage(k), rng)
    top = doubling3.stage(3)
    f_top = Functional(top, rng.standard_normal((8, 8))
                       + 1j * rng.standard_normal((8, 8)))
    f = pullback_thread(doubling3, f_top)
    e = doubling3.thread(k, x)
    # oracle: evaluate the deepest functional on the deepest image
    deep = f_top.pair(e.image_at(3))
    assert abs(pairing(e, f) - deep) <= 1e-9 * max(1.0, abs(deep))


def test_pairing_detects_inconsistent_thread(doubling3):
    e = doubling3.thread(1, doubling3.stage(1).unit)
    entries = list(trace_state_thread(doubling3).entries)
    entries[1] = 2.0 * entries[1]
    broken = FunctionalThread(doubling3, tuple(entries))
    with pytest.raises(InconsistentThreadError):
        pairing(e, broken)


def test_pairing_needs_one_tower_and_level_one(doubling3, corner4):
    e = doubling3.thread(1, doubling3.stage(1).unit)
    with pytest.raises(ValidationError, match="different towers"):
        pairing(e, trace_state_thread(corner4))
    state = trace_state_thread(doubling3)
    level2 = doubling3.thread(1, np.eye(4))
    with pytest.raises(DimensionError, match="level-1"):
        pairing(level2, state)
    top = MatrixFunctional.diag(faithful_state(doubling3.stage(3)), 2)
    with pytest.raises(DimensionError, match="level-1"):
        pairing(e, pullback_thread(doubling3, top))


# -- functor square -------------------------------------------------------------------

def test_stagewise_conjugation_commutes(doubling3):
    # theta_k = conjugation by U_k with U_{k+1} = U_k (x) I intertwines the
    # doubling embeddings; the dual family then maps compatible functional
    # threads to compatible functional threads, stage by stage
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    us = [q]
    for k in range(1, 3):
        us.append(np.kron(us[-1], np.eye(2)))
    # intertwining check: theta_{k+1}(phi_k(x)) = phi_k(theta_k(x))
    for k in range(2):
        emb = doubling3.embeddings[k]
        x = random_element(doubling3.stage(k + 1), rng)
        lhs = us[k + 1].conj().T @ emb.apply(x) @ us[k + 1]
        rhs = emb.apply(us[k].conj().T @ x @ us[k])
        assert la.frobenius(lhs - rhs) <= 1e-10
    # induced map on functional threads preserves compatibility
    top = doubling3.stage(3)
    f_top = Functional(top, rng.standard_normal((8, 8))
                       + 1j * rng.standard_normal((8, 8)))
    thread = pullback_thread(doubling3, f_top)
    mapped = [
        Functional(doubling3.stage(k + 1), us[k] @ thread.entries[k].riesz @ us[k].conj().T)
        for k in range(3)
    ]
    FunctionalThread(doubling3, tuple(mapped)).check_compatibility()


# -- verification sweeps ----------------------------------------------------------------

def test_verify_dual_cones(doubling3):
    report = verify_dual_cones(doubling3, samples=20, rng=np.random.default_rng(10))
    assert report["passed"], report


def test_negative_witnesses_on_a_proper_top_stage():
    # a non-PSD Riesz matrix can give a positive functional on a proper
    # stage; such a draw is no negative witness and must be redrawn
    tower = _pauli_chain()
    assert not tower.stage(2).is_full and tower.stage(2).dim == 7
    for seed in range(12):
        report = verify_dual_cones(tower, 50, rng=np.random.default_rng(seed))
        assert report["passed"], (seed, report)


def test_verify_dual_cones_reports_a_positive_nonpositive_sample(doubling3, monkeypatch):
    # a non-positive sample judged inductively positive is a separating
    # failure in the report, not an exception
    import opsys.towers as towers_module

    monkeypatch.setattr(towers_module, "inductive_positive", lambda t, e: True)
    report = verify_dual_cones(doubling3, samples=10, rng=np.random.default_rng(19))
    assert report["passed"] is False
    assert report["separating_states"]["failures"] >= 1


@pytest.mark.parametrize("sweep, counts", [
    ("dual-cones", {"samples": 0}),
    ("gamma", {"samples": 0, "max_level": 2}),
    ("gamma", {"samples": 3, "max_level": 0}),
])
def test_verify_sweeps_reject_empty_counts(doubling3, sweep, counts):
    # a sweep over no sample or no level used to pass with nothing checked
    verify = verify_dual_cones if sweep == "dual-cones" else verify_gamma
    with pytest.raises(ValidationError):
        verify(doubling3, **counts, rng=np.random.default_rng(0))


def test_verify_gamma(doubling3):
    report = verify_gamma(doubling3, samples=10, max_level=2,
                          rng=np.random.default_rng(11))
    assert report["passed"], report


def test_verify_gamma_detects_pairing_drift(monkeypatch):
    # a pullback off by 1e-6 breaks every pulled-back thread; the
    # compatibility check of verify_gamma must see the drift, as pairing does
    tower = make_tower("matrix-doubling:3")
    exact = Embedding.pullback

    def perturbed(self, f):
        g = exact(self, f)
        return Functional(g.system, g.riesz + 1e-6 * np.ones_like(g.riesz))

    monkeypatch.setattr(Embedding, "pullback", perturbed)
    # the compatibility check fires first, before any per-thread pairing
    with pytest.raises(InconsistentThreadError, match="adjoint compatibility"):
        verify_gamma(tower, samples=2, max_level=2, rng=np.random.default_rng(11))


def test_verify_gamma_on_a_proper_top_stage():
    # non-PSD level-2 data on the Pauli chain's proper top stage is
    # certified not CP (redrawn while its projection is CP)
    tower = _pauli_chain()
    for seed in range(3):
        report = verify_gamma(tower, samples=10, max_level=2, rng=np.random.default_rng(seed))
        assert report["passed"], (seed, report)


def test_verify_gamma_refutes_non_cp_data_on_a_proper_top_stage(monkeypatch):
    # a top-stage verdict that is not a certified "infeasible" is a failure,
    # on a proper stage as on a full one
    import opsys.towers as towers_module
    from opsys.feasibility import FeasibilityVerdict

    tower = _pauli_chain()
    top = tower.stage(tower.depth)
    exact = towers_module.cp_verdict

    def undecided_on_top(mf, *args, **kwargs):
        if mf.system is top:
            return FeasibilityVerdict("undecided", None, 0.0)
        return exact(mf, *args, **kwargs)

    monkeypatch.setattr(towers_module, "cp_verdict", undecided_on_top)
    report = verify_gamma(tower, samples=4, max_level=2, rng=np.random.default_rng(0))
    assert report["passed"] is False
    assert any("matrix-level CP failures" in f for f in report["failures"])


def test_verify_gamma_redraws_non_psd_data_found_cp(monkeypatch):
    # projected onto a proper top stage, non-PSD data can be CP; such a draw
    # is no refutation and is redrawn, not counted as a failure
    import opsys.towers as towers_module
    from opsys.feasibility import FeasibilityVerdict

    tower = _pauli_chain()
    top = tower.stage(tower.depth)
    exact = towers_module.cp_verdict
    top_calls = []

    def feasible_once_on_top(mf, *args, **kwargs):
        if mf.system is top:
            top_calls.append(mf)
            if len(top_calls) == 1:
                return FeasibilityVerdict("feasible", mf.riesz, 0.0)
        return exact(mf, *args, **kwargs)

    monkeypatch.setattr(towers_module, "cp_verdict", feasible_once_on_top)
    report = verify_gamma(tower, samples=4, max_level=2, rng=np.random.default_rng(0))
    assert report["passed"], report
    assert len(top_calls) == 3  # two non-PSD samples, the first one redrawn


def test_gamma_on_corner_tower(corner4):
    report = verify_gamma(corner4, samples=6, max_level=2,
                          rng=np.random.default_rng(12))
    assert report["passed"], report


def test_stage1_pairings_do_not_separate(doubling3):
    # a functional on the deepest stage vanishing on the image of stage 1
    # has zero pairings against every stage-1 thread yet nonzero norm:
    # injectivity genuinely needs the basis threads of every stage
    top = doubling3.stage(3)
    g = np.kron(la.basis_matrix(2, 0, 0), np.diag([1.0, -1.0, 0, 0]))
    f_top = Functional(top, g)
    # vanishes on x (x) I_4 for every x
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = random_element(doubling3.stage(1), rng)
        assert abs(f_top.pair(np.kron(x, np.eye(4)))) <= 1e-12
    thread = pullback_thread(doubling3, f_top)
    e1 = [doubling3.thread(1, b) for b in doubling3.stage(1).basis]
    assert max(abs(pairing(e, thread)) for e in e1) <= 1e-12
    assert thread.norm_sup > 0.5  # nonzero thread
    # while the stage-3 basis threads do separate it
    e3 = [doubling3.thread(3, b) for b in top.basis]
    assert max(abs(pairing(e, thread)) for e in e3) > 0.5


def test_projective_cone_stagewise(doubling3):
    # matrix functional thread positive iff CP at every stage: pullbacks of
    # CP data stay CP; non-CP data fails at the deepest stage
    rng = np.random.default_rng(14)
    top = doubling3.stage(3)
    side = top.d * 2
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    mf_cp = MatrixFunctional.from_choi(top, g @ g.conj().T / side)
    stages = pullback_thread(doubling3, mf_cp).entries
    assert all(is_cp(mf) is True for mf in stages)
    bad = la.hermitian_part(g) - 1.0 * np.eye(side)
    if la.lambda_min(bad) > -1e-3:
        bad = bad - np.eye(side)
    mf_bad = MatrixFunctional.from_choi(top, bad)
    assert is_cp(mf_bad) is False
