import numpy as np
import pytest

from opsys import linalg as la
from opsys.errors import DimensionError, HermitianError, MembershipError, ValidationError
from opsys.norms import (
    _GAUGE_PHASES,
    _NEWTON_STEPS,
    _gauge_upper,
    _phase_curve,
    max_order_norm,
    min_order_norm,
    norm_report,
    numerical_radius,
    order_norm_h,
)
from opsys.systems import (
    make_operator_system,
    named_system,
    random_element,
    random_hermitian_element,
    random_system,
)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def brute_numerical_radius(a, rng, trials=20000):
    """Independent oracle: max |psi* a psi| over random unit vectors."""
    d = a.shape[0]
    best = 0.0
    for _ in range(trials):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        best = max(best, abs(psi.conj() @ a @ psi))
    return best


# -- Hermitian order norm ------------------------------------------------------

def test_order_norm_h_examples():
    s = named_system("full:2")
    assert order_norm_h(s, np.eye(2)) == pytest.approx(1.0)
    assert order_norm_h(s, np.diag([1.0, -2.0])) == pytest.approx(2.0)


def test_order_norm_h_equals_op_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_system(rng)
        h = random_hermitian_element(s, rng)
        assert abs(order_norm_h(s, h) - la.op_norm(h)) <= 1e-9


def test_order_norm_h_rejects_non_hermitian():
    s = named_system("full:2")
    with pytest.raises(HermitianError):
        order_norm_h(s, E12)


def test_membership_enforced():
    s = make_operator_system([PAULI_X], 2)
    with pytest.raises(MembershipError):
        min_order_norm(s, E12)


# -- minimal order norm --------------------------------------------------------

def test_min_norm_nilpotent_block():
    # the numerical range of E_12 is the disk of radius 1/2: w(E_12) = 1/2,
    # confirmed by the analytic value max |conj(p1) p2| on the unit sphere
    s = named_system("pauli-span")
    assert min_order_norm(s, E12) == pytest.approx(0.5, abs=1e-9)


def test_min_norm_identity():
    s = named_system("full:3")
    assert min_order_norm(s, np.eye(3)) == pytest.approx(1.0, abs=1e-10)


def test_min_norm_matches_h_on_hermitians():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_system(rng)
        h = random_hermitian_element(s, rng)
        assert abs(min_order_norm(s, h) - order_norm_h(s, h)) <= 1e-8


def test_numerical_radius_against_sampling_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = numerical_radius(a)
    sampled = brute_numerical_radius(a, rng)
    assert sampled <= w + 1e-9  # sampling never exceeds the radius
    assert w - sampled <= 2e-2  # and gets close at this trial count


def test_numerical_radius_refinement_only_helps():
    # an independent dense scan of lambda_max(Re(e^{i theta} a)) over 4096
    # angles: the refined radius is never below its maximum and within 1e-6
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    thetas = 2.0 * np.pi * np.arange(4096) / 4096
    rotated = np.exp(1j * thetas)[:, None, None] * a
    dense = np.linalg.eigvalsh((rotated + rotated.conj().transpose(0, 2, 1)) / 2)[:, -1].max()
    refined = numerical_radius(a)
    assert refined >= dense - 1e-12
    assert abs(refined - dense) <= 1e-6


def test_numerical_radius_closed_forms_off_the_grid():
    # w([[a, b], [0, a]]) = |a| + |b| / 2, here at the phase -0.3, which is
    # no grid angle; the kron with I_2 and I_3 has the same numerical radius
    # and a top eigenvalue of multiplicity 2 and 3 at every angle
    a = np.exp(0.3j) * np.array([[1, 2], [0, 1]], dtype=complex)
    for k in (1, 2, 3):
        assert numerical_radius(np.kron(a, np.eye(k))) == pytest.approx(2.0, abs=1e-12)


def test_numerical_radius_flat_and_on_grid_curves():
    # E_12 has the flat curve c = 1/2; a Hermitian h peaks at the grid
    # angle 0 or pi; a 1 x 1 matrix z has c(theta) = Re(e^{i theta} z)
    assert numerical_radius(E12) == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        w = np.linalg.eigvalsh(h)
        assert numerical_radius(h) == pytest.approx(max(w[-1], -w[0]), rel=1e-14)
    assert numerical_radius([[2.0 - 1.5j]]) == pytest.approx(2.5, rel=1e-15)


def test_newton_refinement_never_reaches_its_step_cap(monkeypatch):
    # one eigh per Newton step: random, Hermitian and normal matrices in
    # M_2..M_8 all converge (or stop on c'' >= 0) before _NEWTON_STEPS
    calls = []
    original = np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rng = np.random.default_rng(20)
    most = 0
    for i in range(300):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if i % 3 == 1:
            a = (a + a.conj().T) / 2
        elif i % 3 == 2:
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            a = (q * (rng.standard_normal(d) + 1j * rng.standard_normal(d))) @ q.conj().T
        calls.clear()
        numerical_radius(a)
        most = max(most, len(calls))
    assert 0 < most < _NEWTON_STEPS


@pytest.mark.parametrize("a, error", [
    ([[np.nan, 1.0], [0.0, 1.0]], ValidationError),
    (np.diag([np.inf, 1.0]), ValidationError),
    (np.ones((2, 3)), DimensionError),
], ids=["nan", "inf", "non-square"])
def test_numerical_radius_rejects_malformed_input(a, error):
    with pytest.raises(error):
        numerical_radius(a)


# -- maximal order norm ----------------------------------------------------

def test_max_norm_hermitian_collapses():
    rng = np.random.default_rng(4)
    s = random_system(rng)
    h = random_hermitian_element(s, rng)
    lower, upper = max_order_norm(s, h)
    hn = order_norm_h(s, h)
    assert lower == pytest.approx(hn, abs=1e-9)
    assert upper - hn <= 1e-6 and upper >= hn - 1e-9


def test_max_norm_nilpotent_sandwich():
    # op norm 1 from below meets the Re/Im split (1/2 + 1/2) from above
    s = named_system("pauli-span")
    lower, upper = max_order_norm(s, E12)
    assert lower == pytest.approx(1.0, abs=1e-10)
    assert upper == pytest.approx(1.0, abs=1e-9)


def test_zero_element_short_circuit():
    s = named_system("full:2")
    rep = norm_report(s, np.zeros((2, 2)))
    assert rep.h == rep.min == rep.max_lower == rep.max_upper == rep.op == 0.0


def test_tiny_element_is_not_zero():
    # a Frobenius norm of 1e-170 * X underflows to 0.0; the element is not zero
    s = named_system("full:2")
    rep = norm_report(s, 1e-170 * PAULI_X)
    for value in (rep.h, rep.min, rep.max_lower, rep.max_upper, rep.op):
        assert value == pytest.approx(1e-170, rel=1e-12, abs=0.0)
    assert min_order_norm(s, 1e-170 * E12) == pytest.approx(5e-171, rel=1e-12, abs=0.0)


def test_norm_chain_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        s = random_system(rng)
        v = random_element(s, rng)
        rep = norm_report(s, v)
        assert rep.min <= rep.op + 1e-6
        assert rep.op <= rep.max_upper + 1e-6
        assert rep.max_lower <= rep.max_upper
        assert rep.max_upper <= 2 * rep.min + 1e-6


def test_star_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = random_system(rng)
        v = random_element(s, rng)
        va = v.conj().T
        assert abs(min_order_norm(s, v) - min_order_norm(s, va)) <= 1e-8
        lo_v, up_v = max_order_norm(s, v)
        lo_a, up_a = max_order_norm(s, va)
        assert abs(lo_v - lo_a) <= 1e-8
        assert abs(up_v - up_a) <= 1e-8


def test_max_norm_star_symmetry_is_exact():
    # the phase curve of v* is that of v read backwards, and the one
    # subgradient run goes on the canonical one of v and v*, the same matrix
    # for either: the upper bound is the same double for v and v*; so is the
    # lower, the operator norm, which takes the larger of lambda_max(v*v)
    # and lambda_max(vv*)
    rng = np.random.default_rng(16)
    for _ in range(50):
        s = random_system(rng)
        v = random_element(s, rng)
        assert not la.is_hermitian(v, 1e-12)
        assert max_order_norm(s, v) == max_order_norm(s, v.conj().T)
        rep_v = norm_report(s, v, subgrad_iters=20)
        rep_a = norm_report(s, v.conj().T, subgrad_iters=20)
        assert rep_v.max_upper == rep_a.max_upper
        assert rep_v.max_lower == rep_a.max_lower


def test_norm_report_matches_standalone_calls_exactly():
    # norm_report reads both order norms off one phase curve; its fields are
    # the standalone values bit for bit, and its descent starts from the
    # same K = 64 curve as max_order_norm's scan
    rng = np.random.default_rng(17)
    for i in range(20):
        s = random_system(rng)
        v = random_element(s, rng) if i % 3 else random_hermitian_element(s, rng)
        rep = norm_report(s, v)
        assert rep.min == min_order_norm(s, v)
        assert (rep.max_lower, rep.max_upper) == max_order_norm(s, v)
        curve = _phase_curve(v, _GAUGE_PHASES)
        refined = norm_report(s, v, subgrad_iters=20).max_upper
        assert refined == _gauge_upper(s, v, curve, 20, rep.max_lower)


def test_norm_report_eigensolve_count(monkeypatch):
    # one phase curve serves both order norms: a non-Hermitian element of
    # M_4 costs one curve, the Newton steps and the operator norm
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def spy(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    s = named_system("full:4")
    rng = np.random.default_rng(18)
    v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    norm_report(s, v)
    assert 0 < len(calls) <= 2 + _NEWTON_STEPS


@pytest.mark.parametrize("iters", [1, 5, 20])
def test_gauge_descent_eigensolves_each_iterate_once(monkeypatch, iters):
    # one descent, one batched eigh of the 64 phase slots per iterate (the
    # start and each step), and no eigvalsh of them: the only batched
    # eigvalsh of 64 matrices or more is the phase curve's, of the 128
    # phases of norm_report
    calls = {"eigh": [], "eigvalsh": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def spy(a, *args, _name=name, _original=original, **kwargs):
            if np.ndim(a) == 3 and len(a) >= 64:
                calls[_name].append(len(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    rng = np.random.default_rng(19)
    s = random_system(rng, d=3)
    v = random_element(s, rng)
    assert not la.is_hermitian(v, 1e-8)
    norm_report(s, v, subgrad_iters=iters)
    assert calls == {"eigh": [64] * (iters + 1), "eigvalsh": [128]}


def test_v_and_v_star_run_one_descent_on_the_same_matrix(monkeypatch):
    import opsys.norms as norms_module

    runs = []
    original = norms_module._gauge_descent

    def spy(system, m, a_idx, iters):
        runs.append((m.tobytes(), a_idx))
        return original(system, m, a_idx, iters)

    monkeypatch.setattr(norms_module, "_gauge_descent", spy)
    rng = np.random.default_rng(20)
    for _ in range(10):
        s = random_system(rng)
        v = random_element(s, rng)
        runs.clear()
        norm_report(s, v, subgrad_iters=3)
        norm_report(s, v.conj().T, subgrad_iters=3)
        assert len(runs) == 2 and runs[0] == runs[1]


def test_star_symmetry_is_exact_near_hermitian():
    # 1e-14 v is within 1e-13 of Hermitian but not bitwise Hermitian; the
    # descent still runs on the same canonical one of v and v*
    rng = np.random.default_rng(27)
    for _ in range(20):
        s = random_system(rng)
        v = 1e-14 * random_element(s, rng)
        assert la.is_hermitian(v, 1e-13) and not np.array_equal(v, v.conj().T)
        up_v = norm_report(s, v, subgrad_iters=20).max_upper
        up_a = norm_report(s, v.conj().T, subgrad_iters=20).max_upper
        assert up_v == up_a


def test_hermitian_test_is_relative_below_norm_one():
    # ||m - m*|| <= 1e-8 ||m|| at every scale: 1e-9 E12 is not Hermitian,
    # and an exactly Hermitian 1e-9 X keeps its h
    s = named_system("full:2")
    assert norm_report(s, 1e-9 * E12).h is None
    with pytest.raises(HermitianError):
        order_norm_h(s, 1e-9 * E12)
    assert norm_report(s, 1e-9 * PAULI_X).h == pytest.approx(1e-9, rel=1e-12, abs=0.0)
    assert order_norm_h(s, 1e-9 * PAULI_X) == pytest.approx(1e-9, rel=1e-12, abs=0.0)


def test_triangle_and_homogeneity_min():
    rng = np.random.default_rng(7)
    s = random_system(rng, d=3)
    for _ in range(10):
        v, w = random_element(s, rng), random_element(s, rng)
        assert (
            min_order_norm(s, v + w)
            <= min_order_norm(s, v) + min_order_norm(s, w) + 1e-8
        )
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(min_order_norm(s, z * v) - abs(z) * min_order_norm(s, v)) <= 1e-8


def test_triangle_and_homogeneity_max_upper():
    rng = np.random.default_rng(8)
    s = random_system(rng, d=3)
    for _ in range(6):
        v, w = random_element(s, rng), random_element(s, rng)
        _, uv = max_order_norm(s, v)
        _, uw = max_order_norm(s, w)
        _, uvw = max_order_norm(s, v + w)
        # joining the two best decompositions is feasible for the sum, and
        # the solver result is never worse than any feasible point by more
        # than its own search gap; allow that slack
        assert uvw <= uv + uw + 1e-6
        c = float(rng.uniform(0.2, 2.0))
        _, ucv = max_order_norm(s, c * v)
        assert abs(ucv - c * uv) <= 1e-6 * max(1.0, c * uv)


def test_unital_compression_contracts_min_and_max():
    rng = np.random.default_rng(9)
    for _ in range(10):
        s = random_system(rng, d=4)
        d_small = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        p = q[:, :d_small]
        t = make_operator_system([p.conj().T @ b @ p for b in s.basis], d_small)
        v = random_element(s, rng)
        w = p.conj().T @ v @ p
        assert min_order_norm(t, w) <= min_order_norm(s, v) + 1e-7
        _, uv = max_order_norm(s, v)
        _, uw = max_order_norm(t, w)
        assert uw <= uv + 1e-7


def test_subgradient_refinement_valid_and_no_worse():
    # the opt-in refinement explores richer decompositions: every iterate is
    # feasible, so the value stays a true upper bound (>= op norm) and never
    # exceeds the canonical-scan value it starts from
    rng = np.random.default_rng(10)
    for _ in range(8):
        s = random_system(rng, d=3)
        v = random_element(s, rng)
        lo, scan_only = max_order_norm(s, v)
        refined = norm_report(s, v, subgrad_iters=150).max_upper
        assert refined <= scan_only + 1e-12
        assert refined >= lo - 1e-9


def test_subgradient_refinement_finds_richer_decomposition():
    # three-phase element: canonical two-term splits are strictly beatable
    s = named_system("full:2")
    v = (np.diag([1.0, -1.0]) + np.exp(1j * np.pi / 3) * PAULI_X).astype(complex)
    _, scan_only = max_order_norm(s, v)
    refined = norm_report(s, v, subgrad_iters=400).max_upper
    assert refined <= scan_only + 1e-12
