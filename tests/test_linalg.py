import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsys import linalg as la
from opsys.errors import DimensionError, ParseError


def rand_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def test_spectral_diagonal():
    w, _ = la.spectral_decompose(np.diag([1.0, 2.0]))
    assert np.allclose(w, [2.0, 1.0])


def test_spectral_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    w, u = la.spectral_decompose(x)
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(u @ np.diag(w) @ u.conj().T, x)


def test_spectral_reconstruction_random():
    # oracle: rebuild U diag(w) U* and compare against the input
    rng = np.random.default_rng(5)
    h = rand_hermitian(rng, 5)
    w, u = la.spectral_decompose(h)
    assert np.linalg.norm(u @ np.diag(w) @ u.conj().T - h) <= 5e-10
    assert np.all(np.diff(w) <= 1e-12)  # descending


def test_spectral_eigenvectors_unitary():
    rng = np.random.default_rng(6)
    for d in (2, 3, 7):
        _, u = la.spectral_decompose(rand_hermitian(rng, d))
        assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-9


def test_spectral_nonsquare_rejected():
    with pytest.raises(DimensionError):
        la.spectral_decompose(np.ones((2, 3)))


def test_project_psd_fixed_point():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = g @ g.conj().T
    assert np.linalg.norm(la.project_psd(p) - p) <= 1e-10


def test_project_psd_clips():
    assert np.allclose(la.project_psd(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))
    assert np.allclose(la.project_psd(-np.eye(3)), np.zeros((3, 3)))


def test_project_psd_idempotent_and_floor():
    rng = np.random.default_rng(8)
    h = rand_hermitian(rng, 6)
    p = la.project_psd(h)
    assert np.linalg.norm(la.project_psd(p) - p) <= 1e-10
    assert la.lambda_min(p) >= -1e-10


def test_project_psd_stack_matches_per_matrix():
    rng = np.random.default_rng(12)
    stack = np.stack([[rand_hermitian(rng, 4) for _ in range(3)] for _ in range(2)])
    out = la.project_psd(stack)
    assert out.shape == stack.shape
    for idx in np.ndindex(*stack.shape[:2]):
        assert np.linalg.norm(out[idx] - la.project_psd(stack[idx])) <= 1e-12


@pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3), (5,)])
def test_project_psd_nonsquare_rejected(shape):
    with pytest.raises(DimensionError):
        la.project_psd(np.ones(shape))


def test_op_norm_examples():
    assert la.op_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    e12 = np.zeros((2, 2)); e12[0, 1] = 1
    assert la.op_norm(e12) == pytest.approx(1.0, abs=1e-12)
    assert la.op_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-12)


def test_op_norm_neither_underflows_nor_overflows():
    # A*A of these matrices is 1e-340 (below the smallest double) and 1e400
    e12 = np.zeros((2, 2)); e12[0, 1] = 1
    assert la.op_norm(1e-170 * e12) == pytest.approx(1e-170, rel=1e-12, abs=0.0)
    assert la.op_norm(1e200 * np.diag([1.0, -3.0])) == pytest.approx(3e200, rel=1e-12)
    assert la.op_norm(np.zeros((3, 3))) == 0.0


def test_op_norm_matches_extreme_eigenvalue():
    rng = np.random.default_rng(9)
    for _ in range(20):
        h = rand_hermitian(rng, 5)
        assert abs(la.op_norm(h) - np.abs(np.linalg.eigvalsh(h)).max()) <= 1e-10


def test_hermitian_part_symmetrizes():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = la.hermitian_part(a)
    assert np.array_equal(h, h.conj().T.conj().T)
    assert la.is_hermitian(h)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_json_roundtrip(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert np.array_equal(la.decode_matrix(la.encode_matrix(a)), a)


def test_json_identity_format():
    assert la.encode_matrix(np.eye(2)) == [[[1.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("bad", [
    [],
    [[1, 2]],
    [[[1, 0], [0]]],
    [[[1, 0]], [[0, 0], [1, 0]]],
    "nope",
    [[[float("inf"), 0]]],
    [[[0, float("nan")]]],
    [[[True, 0]]],
    [[[10**400, 0]]],
])
def test_json_malformed_rejected(bad):
    with pytest.raises(ParseError):
        la.decode_matrix(bad)
