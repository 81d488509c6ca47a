"""Order norms on a concrete operator system.

Three quantities are computed for an element v of S:

* the order seminorm of a Hermitian element, inf{r : -r e <= v <= r e},
  which for a concrete system with unit e = I is max |eigenvalue|;
* the minimal order norm, the supremum of |f(v)| over states f.  Every state
  of S extends to a state of the ambient M_d, so this equals the numerical
  radius max |trace(rho v)| over density matrices;
* the maximal order norm, an infimum over decompositions v = sum_j c_j h_j
  into Hermitian h_j in S of sum_j |c_j| * ||h_j||_h.  The infimum has no
  closed form, so a certified sandwich is reported instead: the operator
  norm from below (the operator norm is itself an order norm) and the best
  decomposition found by a phase-grid gauge program from above.

Both norms are read off one phase curve c(theta) = lambda_max(Re(e^{i theta}
v)), one batched eigensolve per pair of opposite phases, since
c(theta + pi) = -lambda_min(Re(e^{i theta} v)): the numerical radius is its
maximum, refined by Newton steps on c'(theta) = 0, and the canonical splits
v = e^{-ia}(Re(e^{ia} v) + i Im(e^{ia} v)) cost max(c(a), c(a + pi)) +
max(c(a - pi/2), c(a + pi/2)).  The gauge program restricts phases to a
uniform grid on [0, pi) and takes the best split, optionally improved by
one run of projected subgradient descent, which eigensolves each iterate
once.  Any feasible decomposition certifies an upper bound, so solver
quality affects tightness, never validity.  The curve of v* is the curve of
v read backwards, bit for bit, because the phase table is exactly symmetric
and eigvalsh(-A) = -reverse(eigvalsh(A)); the exact star-symmetry test
checks the latter on this platform's LAPACK.  The descent runs on a
canonical one of v and v*, the same matrix for either, so its bound is
exactly *-symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import linalg as la
from .errors import HermitianError, ValidationError
from .systems import DEFAULT_TOL, OperatorSystem, _require_member

__all__ = [
    "NormReport",
    "numerical_radius",
    "order_norm_h",
    "min_order_norm",
    "max_order_norm",
    "norm_report",
]

#: Phase curves c(pi k / K), k = 0..2K-1, each from one eigensolve of the K
#: phases on [0, pi): the numerical radius scans K = 128 and refines its
#: best angle by at most ``_NEWTON_STEPS`` Newton steps; the gauge
#: program's phases are the K = 64 angles on [0, pi) (even, so that the slot
#: pi/2 - a of a canonical split is on the grid), whose curve is the even
#: entries of the K = 128 one, the same doubles, since the phase table of
#: K = 64 is every other entry of that of K = 128.  The curve of v* is that
#: of v read backwards because eigvalsh(-A) = -reverse(eigvalsh(A)).
_RADIUS_HALF = 128
_NEWTON_STEPS = 8
#: eigenvalues within this gap of lambda_max, relative to the spectral
#: scale, are copies of it and do not enter c''(theta)
_COPY_GAP = 1e-12
_GAUGE_PHASES = 64


@dataclass
class NormReport:
    """Certified norm bounds for one element.

    ``h`` is None for non-Hermitian input.  Invariants (up to solver slack):
    min <= op <= max_upper, max_lower <= max_upper, max_upper <= 2 * min.
    """

    h: float | None
    min: float
    max_lower: float
    max_upper: float
    op: float

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "min": self.min,
            "max_lower": self.max_lower,
            "max_upper": self.max_upper,
            "op": self.op,
        }


def order_norm_h(system: OperatorSystem, v) -> float:
    """Order seminorm of a Hermitian element: max |eigenvalue|."""
    m = _require_member(system, v)
    if not _is_hermitian(m):
        raise HermitianError("order_norm_h is defined on Hermitian elements only")
    return _spectral_radius(m)


def _is_hermitian(m: np.ndarray) -> bool:
    """||m - m*|| <= 1e-8 ||m|| in the largest-entry norm: relative at every
    scale (``la.is_hermitian`` is absolute below norm 1), and with no sum
    of squares to underflow (1e-170 E12)."""
    return bool(np.abs(m - m.conj().T).max() <= 1e-8 * np.abs(m).max())


def _spectral_radius(m: np.ndarray) -> float:
    """max |eigenvalue| of a checked Hermitian element."""
    w = la.eigenvalues_desc(m)
    return float(max(w[0], -w[-1], 0.0))


@cache
def _phase_table(half: int) -> np.ndarray:
    """e^{i pi k / K} for k = 0..K-1, K = ``half`` (even), made exactly
    symmetric: entry K - k is minus the conjugate of entry k, and entry K/2
    is 1j.  The table for K is every other entry of the table for 2K.
    Read-only, since it is cached."""
    phases = np.exp(1j * np.pi * np.arange(half) / half)
    phases[half // 2] = 1j
    phases[half // 2 + 1:] = -phases[half // 2 - 1:0:-1].conj()
    phases.flags.writeable = False
    return phases


def _phase_curve(m: np.ndarray, half: int) -> np.ndarray:
    """c(pi k / K) = lambda_max(Re(e^{i pi k / K} m)) for k = 0..2K-1, K =
    ``half``, from one batched eigensolve of the K phases on [0, pi): the
    other half is c(theta + pi) = -lambda_min(Re(e^{i theta} m)).  Re of the
    phase K - k times m is minus Re of phase k times m*, bit for bit, so the
    curve of m* is this curve read backwards as long as
    eigvalsh(-A) = -reverse(eigvalsh(A)), which the exact star-symmetry test
    checks."""
    rotated = _phase_table(half)[:, None, None] * m[None, :, :]
    w = np.linalg.eigvalsh((rotated + rotated.conj().transpose(0, 2, 1)) / 2.0)
    return np.concatenate([w[:, -1], -w[:, 0]])


def _curve_maximum(m: np.ndarray, curve: np.ndarray) -> float:
    """max of c(theta) = lambda_max(Re(e^{i theta} m)) from its phase curve,
    refined from the best grid angle by safeguarded Newton steps on
    c'(theta) = 0, one eigh per step.  With H = Re(e^{i theta} m), top
    eigenpair (lambda_max, u) and H' = Re(i e^{i theta} m):
    c' = u* H' u and c'' = -lambda_max + 2 sum_j |u_j* H' u|^2 /
    (lambda_max - lambda_j), where eigenvalues within ``_COPY_GAP`` (relative
    to the spectral scale) of lambda_max are copies of it (as in x (x) I)
    and left out.  A step is clipped to one grid step; the loop stops at a
    step of at most 1e-9, at c'' >= 0 or after ``_NEWTON_STEPS`` steps.
    Every lambda_max evaluated is attained by a state, so the largest one is
    returned, never below the grid maximum."""
    half = len(curve) // 2
    best = int(np.argmax(curve))
    result, bound = float(curve[best]), np.pi / half
    phase = _phase_table(half)[best % half] * (1.0 if best < half else -1.0)
    theta = 0.0  # offset from the grid angle
    for _ in range(_NEWTON_STEPS):
        rotated = phase * np.exp(1j * theta) * m
        w, u = np.linalg.eigh((rotated + rotated.conj().T) / 2.0)
        result = max(result, float(w[-1]))
        turned = 1j * rotated
        couplings = u.conj().T @ (((turned + turned.conj().T) / 2.0) @ u[:, -1])
        gaps = w[-1] - w[:-1]
        far = gaps > _COPY_GAP * max(w[-1], -w[0])
        curvature = -w[-1] + 2.0 * float(np.sum(np.abs(couplings[:-1][far]) ** 2 / gaps[far]))
        if curvature >= 0.0:
            break
        step = min(max(-couplings[-1].real / curvature, -bound), bound)
        theta += step
        if abs(step) <= 1e-9:
            break
    return result


def numerical_radius(a) -> float:
    """max over density matrices of |trace(rho a)| = max over theta of
    lambda_max(Re(e^{i theta} a)).

    The phase curve's maximum undershoots by at most w (1 - cos(pi / 256));
    Newton steps from its best angle remove that gap, which matters when
    downstream bounds carry 1e-6 slack.  Raises ``DimensionError`` for a
    non-square input and ``ValidationError`` for a non-finite entry.
    """
    m = la._require_square(a, "numerical_radius")
    if not np.isfinite(m).all():
        raise ValidationError("matrix with a non-finite entry")
    if not m.any():
        return 0.0
    return _curve_maximum(m, _phase_curve(m, _RADIUS_HALF))


def min_order_norm(system: OperatorSystem, v) -> float:
    """Minimal order norm = numerical radius of v inside M_d."""
    m = _require_member(system, v)
    return numerical_radius(m)


def _project_gauge_constraints(coeffs, cosv, sinv, target_re, target_im):
    half = len(cosv) / 2.0
    c = coeffs + np.outer(cosv, (target_re - cosv @ coeffs) / half)
    c = c + np.outer(sinv, (target_im - sinv @ c) / half)
    return c


def max_order_norm(system: OperatorSystem, v) -> tuple[float, float]:
    """Sandwich bounds (lower, upper) for the maximal order norm.

    lower: operator norm of v.  upper: the best canonical two-term split
    over a grid of ``_GAUGE_PHASES`` phases, read off the phase curve of v,
    so upper <= ||Re w|| + ||Im w|| <= 2 * min_order_norm.  It is a
    feasible decomposition, so the bound is exactly monotone under unital
    compressions and stable under scaling, which the downstream
    contractivity checks rely on at 1e-7 slack.  The curve of v* is that of
    v read backwards (as long as eigvalsh(-A) = -reverse(eigvalsh(A)), see
    :func:`_phase_curve`), so the bound is exactly *-symmetric.  The opt-in
    subgradient descent that may tighten it is
    ``norm_report(subgrad_iters=...)``.
    """
    m = _require_member(system, v)
    lower = la.op_norm(m)
    if not m.any():
        return 0.0, 0.0
    return lower, _gauge_upper(system, m, _phase_curve(m, _GAUGE_PHASES), 0, lower)


def _gauge_upper(system: OperatorSystem, m: np.ndarray, curve: np.ndarray,
                 subgrad_iters: int, lower: float) -> float:
    """The best canonical split on the phase curve of m, refined by one
    subgradient run on the one of m and m* whose bytes come first, from its
    own best split (the scan of m* is that of m mirrored): the same run for
    v and v*, so upper(v) = upper(v*) by construction.  Clamped at
    ``lower``, which the true max norm dominates, so rounding below it
    costs no validity."""
    half = len(curve) // 2
    norms = np.maximum(curve[:half], curve[half:])  # ||Re(e^{i pi j / K} m)||
    scan = norms + np.roll(norms, half // 2)  # + ||Im(e^{ia} m)|| = ||Re(e^{i(a - pi/2)} m)||
    upper = float(scan.min())
    if subgrad_iters > 0:
        m_star = m.conj().T
        if m_star.tobytes() < m.tobytes():
            m, scan = m_star, scan[-np.arange(half) % half]  # the scan of m*
        upper = min(upper, _gauge_descent(system, m, int(np.argmin(scan)), subgrad_iters))
    return float(max(upper, lower))


def _gauge_descent(system: OperatorSystem, m: np.ndarray, a_idx: int, iters: int) -> float:
    """Least cost sum_j ||h_j|| seen over ``iters`` projected subgradient
    steps on the decompositions m = sum_j e^{i pi j / K} h_j, from the
    canonical split at angle pi a_idx / K.  One batched eigh of the K phase
    slots per iterate gives both its cost and its subgradient."""
    phases = _GAUGE_PHASES
    hbasis = system.hermitian_basis
    dim, d = hbasis.shape[:2]
    hflat = hbasis.reshape(dim, -1)
    thetas = np.pi * np.arange(phases) / phases
    cosv, sinv = np.cos(thetas), np.sin(thetas)
    target_re = system.hermitian_coords(la.hermitian_part(m))
    target_im = system.hermitian_coords(la.antihermitian_part(m))
    # Start from the rotated canonical split at angle a: phase slots -a and
    # pi/2 - a (mod pi, signs folded into the Hermitian pieces).
    coeffs = np.zeros((phases, dim))
    rotated = np.exp(1j * np.pi * a_idx / phases) * m
    for part, slot in ((la.hermitian_part(rotated), -a_idx),
                       (la.antihermitian_part(rotated), phases // 2 - a_idx)):
        coeffs[slot % phases] += (-1.0) ** (slot // phases) * system.hermitian_coords(part)
    coeffs = _project_gauge_constraints(coeffs, cosv, sinv, target_re, target_im)
    upper = np.inf
    for k in range(iters + 1):
        # h_j = sum_a c_{ja} H_a for every phase slot j; ||h_j|| = max(top, -bot)
        w, u = np.linalg.eigh((coeffs @ hflat).reshape(-1, d, d))
        top, bot = w[:, -1], w[:, 0]
        slot_norms = np.maximum(top, -bot)
        cost = float(slot_norms.sum())
        upper = min(upper, cost)
        if k == iters:
            break
        if k == 0:
            # diminishing normalized steps: the path depends only on the
            # input bits and the start cost
            scale = 0.15 * max(cost, 1e-30)
        use_top = top >= -bot
        psis = np.where(use_top[:, None], u[:, :, -1], u[:, :, 0])
        # <psi_j, H_a psi_j>: every H_a psi_j by one product, then weighted by psi_j*
        hpsi = (hbasis.reshape(-1, d) @ psis.T).reshape(dim, d, -1)
        grads = np.where(use_top, 1.0, -1.0)[:, None] * np.real(
            (psis.T.conj()[None] * hpsi).sum(axis=1)).T
        g = grads * (slot_norms > 0.0)[:, None]
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-30:
            break
        step = scale / (gnorm * np.sqrt(k + 1.0))
        coeffs = _project_gauge_constraints(coeffs - step * g, cosv, sinv, target_re, target_im)
    return upper


def norm_report(
    system: OperatorSystem,
    v,
    *,
    subgrad_iters: int = 0,
    tol: float = DEFAULT_TOL,
) -> NormReport:
    """All norm quantities for one element; ``h`` only when v is Hermitian.
    Both order norms come from one phase curve: its even entries are the
    curve of :func:`max_order_norm` bit for bit.

    ``subgrad_iters > 0`` additionally runs one descent of
    ``subgrad_iters`` projected subgradient steps, one batched eigensolve
    of the phase slots per iterate, from the best split of a canonical one
    of v and v* (the same matrix for either), so ``max_upper`` stays exactly
    *-symmetric.  Any iterate is feasible, so the refinement only ever
    tightens the bound, but its path (not its validity) is sensitive to
    last-bit input changes, which is why it is opt-in."""
    m = _require_member(system, v, tol)
    if not m.any():
        return NormReport(h=0.0, min=0.0, max_lower=0.0, max_upper=0.0, op=0.0)
    hval = _spectral_radius(m) if _is_hermitian(m) else None
    curve = _phase_curve(m, _RADIUS_HALF)
    op = la.op_norm(m)
    upper = _gauge_upper(system, m, curve[::2], subgrad_iters, op)
    return NormReport(h=hval, min=_curve_maximum(m, curve), max_lower=op, max_upper=upper, op=op)
