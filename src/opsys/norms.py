"""Order norms on a concrete operator system.

Three quantities are computed for an element v of S:

* the order seminorm of a Hermitian element, inf{r : -r e <= v <= r e},
  which for a concrete system with unit e = I is max |eigenvalue|;
* the minimal order norm, the supremum of |f(v)| over states f.  Every state
  of S extends to a state of the ambient M_d, so this equals the numerical
  radius max |trace(rho v)| over density matrices, computed on a phase grid
  with local refinement around the best grid point;
* the maximal order norm, an infimum over decompositions v = sum_j c_j h_j
  into Hermitian h_j in S of sum_j |c_j| * ||h_j||_h.  The infimum has no
  closed form, so a certified sandwich is reported instead: the operator
  norm from below (the operator norm is itself an order norm) and the best
  decomposition found by a phase-grid gauge program from above.

The gauge program restricts phases to a uniform grid on [0, pi) and
minimizes the decomposition cost by projected subgradient descent, seeded
with the canonical splits v = e^{-ia}(Re(e^{ia} v) + i Im(e^{ia} v)) for
every grid angle a.  Any feasible decomposition certifies an upper bound,
so solver quality affects tightness, never validity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import HermitianError, MembershipError
from .systems import DEFAULT_TOL, OperatorSystem

__all__ = [
    "NormReport",
    "numerical_radius",
    "order_norm_h",
    "min_order_norm",
    "max_order_norm",
    "norm_report",
]

#: Size of the gauge program's phase grid on [0, pi); even, so that the
#: slot pi/2 - a of a canonical split is on the grid.
_GAUGE_PHASES = 64


def _require_member(system: OperatorSystem, v, tol: float) -> np.ndarray:
    m = la.as_matrix(v)
    if m.shape != (system.d, system.d):
        raise MembershipError(
            f"element of shape {m.shape} for a system in M_{system.d}"
        )
    res = system.residual(m)
    if res > tol:
        raise MembershipError(f"element is not in the system (residual {res:.3e})")
    return m


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


def order_norm_h(system: OperatorSystem, v, *, tol: float = DEFAULT_TOL) -> float:
    """Order seminorm of a Hermitian element: max |eigenvalue|."""
    m = _require_member(system, v, tol)
    if not la.is_hermitian(m, 1e-8):
        raise HermitianError("order_norm_h is defined on Hermitian elements only")
    w = la.eigenvalues_desc(m)
    return float(max(w[0], -w[-1], 0.0))


def _radius_curve(a: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max of the Hermitian part of e^{i theta} a, vectorized."""
    phases = np.exp(1j * thetas)
    rotated = phases[:, None, None] * a[None, :, :]
    herm = (rotated + rotated.conj().transpose(0, 2, 1)) / 2.0
    return np.linalg.eigvalsh(herm)[:, -1]


def numerical_radius(a, *, grid: int = 256, refine: bool = True) -> float:
    """max over density matrices of |trace(rho a)|.

    Scans lambda_max(Re(e^{i theta} a)) over a uniform theta grid; the grid
    maximum undershoots by at most w * (1 - cos(pi/grid)).  With ``refine``
    a golden-section pass around the best grid point removes that gap, which
    matters when downstream bounds carry 1e-6 slack.
    """
    m = la.as_matrix(a)
    if la.frobenius(m) == 0.0:
        return 0.0
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    vals = _radius_curve(m, thetas)
    best = int(np.argmax(vals))
    result = float(vals[best])
    if not refine:
        return result
    span = 2.0 * np.pi / grid
    lo = thetas[best] - span
    hi = thetas[best] + span
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = float(_radius_curve(m, np.array([x1]))[0])
    f2 = float(_radius_curve(m, np.array([x2]))[0])
    for _ in range(60):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = float(_radius_curve(m, np.array([x2]))[0])
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = float(_radius_curve(m, np.array([x1]))[0])
        result = max(result, f1, f2)
    return result


def min_order_norm(system: OperatorSystem, v, *, tol: float = DEFAULT_TOL) -> float:
    """Minimal order norm = numerical radius of v inside M_d, on its default
    refined grid."""
    m = _require_member(system, v, tol)
    return numerical_radius(m)


def _gauge_phase_vectors(phases: int) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.pi * np.arange(phases) / phases
    return np.cos(thetas), np.sin(thetas)


def _gauge_cost(coeffs: np.ndarray, hbasis: np.ndarray) -> float:
    # h_j = sum_a c_{ja} H_a for every phase slot j
    mats = np.einsum("ja,axy->jxy", coeffs, hbasis, optimize=True)
    w = np.linalg.eigvalsh(mats)
    return float(np.abs(w).max(axis=1).sum())


def _gauge_subgradient(coeffs: np.ndarray, hbasis: np.ndarray) -> np.ndarray:
    mats = np.einsum("ja,axy->jxy", coeffs, hbasis, optimize=True)
    w, u = np.linalg.eigh(mats)
    top, bot = w[:, -1], w[:, 0]
    use_top = top >= -bot
    signs = np.where(use_top, 1.0, -1.0)
    psis = np.where(use_top[:, None], u[:, :, -1], u[:, :, 0])
    grads = signs[:, None] * np.real(
        np.einsum("ji,aik,jk->ja", psis.conj(), hbasis, psis, optimize=True)
    )
    active = np.maximum.reduce([top, -bot, np.zeros_like(top)]) > 0.0
    return grads * active[:, None]


def _project_gauge_constraints(coeffs, cosv, sinv, target_re, target_im):
    half = len(cosv) / 2.0
    c = coeffs + np.outer(cosv, (target_re - cosv @ coeffs) / half)
    c = c + np.outer(sinv, (target_im - sinv @ c) / half)
    return c


def max_order_norm(
    system: OperatorSystem,
    v,
    *,
    subgrad_iters: int = 0,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float]:
    """Sandwich bounds (lower, upper) for the maximal order norm.

    lower: operator norm of v.  upper: best decomposition cost over the
    gauge program on a grid of ``_GAUGE_PHASES`` phases.  The canonical
    two-term splits at every grid angle already give
    upper <= ||Re w|| + ||Im w|| <= 2 * min_order_norm.

    By default the reported upper is the best of those canonical splits: a
    feasible decomposition evaluated through two eigensolves per angle, so
    the bound is exactly monotone under unital compressions and stable
    under scaling, which the downstream contractivity checks rely on at
    1e-7 slack.  ``subgrad_iters > 0`` additionally runs projected
    subgradient descent from the best split; any iterate is feasible, so
    the refinement only ever tightens the bound, but its path (not its
    validity) is sensitive to last-bit input changes, which is why it is
    opt-in.

    Decompositions of v and of v* mirror into each other at equal cost, so
    the program is solved for both and the smaller value reported; that
    keeps the bound *-symmetric, which one solver path alone is not.
    """
    m = _require_member(system, v, tol)
    lower = la.op_norm(m)
    if la.frobenius(m) == 0.0:
        return 0.0, 0.0
    upper = _gauge_upper(system, m, subgrad_iters)
    if not la.is_hermitian(m, 1e-12):
        upper = min(upper, _gauge_upper(system, m.conj().T, subgrad_iters))
    # the true max norm dominates the operator norm, so rounding that puts
    # the found upper below `lower` can be clamped without losing validity
    return lower, float(max(upper, lower))


def _gauge_upper(system: OperatorSystem, m: np.ndarray, subgrad_iters: int) -> float:
    phases = _GAUGE_PHASES
    # Rotation scan: the split of e^{ia} v into Hermitian and anti-Hermitian
    # parts is a feasible two-term decomposition with both phases on the grid.
    thetas = np.pi * np.arange(phases) / phases
    rotated = np.exp(1j * thetas)[:, None, None] * m[None, :, :]
    re_part = (rotated + rotated.conj().transpose(0, 2, 1)) / 2.0
    im_part = (rotated - rotated.conj().transpose(0, 2, 1)) / 2.0j
    re_top = np.abs(np.linalg.eigvalsh(re_part)).max(axis=1)
    im_top = np.abs(np.linalg.eigvalsh(im_part)).max(axis=1)
    scan = re_top + im_top
    best_angle = int(np.argmin(scan))
    upper = float(scan[best_angle])

    if subgrad_iters > 0:
        hbasis = system.hermitian_basis
        cosv, sinv = _gauge_phase_vectors(phases)
        target_re = system.hermitian_coords(la.hermitian_part(m))
        target_im = system.hermitian_coords(la.antihermitian_part(m))
        # Start from the best rotated canonical split: phase slots -a and
        # pi/2 - a (mod pi, signs folded into the Hermitian pieces).
        coeffs = np.zeros((phases, system.dim))
        a_idx = best_angle
        re_rot = la.hermitian_part(rotated[a_idx])
        im_rot = la.antihermitian_part(rotated[a_idx])
        slot_re = (-a_idx) % phases
        sign_re = 1.0 if ((-a_idx) // phases) % 2 == 0 else -1.0
        slot_im = (phases // 2 - a_idx) % phases
        sign_im = 1.0 if ((phases // 2 - a_idx) // phases) % 2 == 0 else -1.0
        coeffs[slot_re] += sign_re * system.hermitian_coords(re_rot)
        coeffs[slot_im] += sign_im * system.hermitian_coords(im_rot)
        coeffs = _project_gauge_constraints(coeffs, cosv, sinv, target_re, target_im)
        cost0 = _gauge_cost(coeffs, hbasis)
        upper = min(upper, cost0)
        # diminishing normalized steps: the path depends only on the input
        # bits, which keeps upper(v*) = upper(v) exact via the mirrored run
        scale = 0.15 * max(cost0, 1e-30)
        for k in range(subgrad_iters):
            g = _gauge_subgradient(coeffs, hbasis)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= 1e-30:
                break
            step = scale / (gnorm * np.sqrt(k + 1.0))
            coeffs = _project_gauge_constraints(
                coeffs - step * g, cosv, sinv, target_re, target_im
            )
            upper = min(upper, _gauge_cost(coeffs, hbasis))
    return float(upper)


def norm_report(
    system: OperatorSystem,
    v,
    *,
    subgrad_iters: int = 0,
    tol: float = DEFAULT_TOL,
) -> NormReport:
    """All norm quantities for one element; ``h`` only when v is Hermitian."""
    m = _require_member(system, v, tol)
    if la.frobenius(m) == 0.0:
        return NormReport(h=0.0, min=0.0, max_lower=0.0, max_upper=0.0, op=0.0)
    hval = None
    if la.is_hermitian(m, 1e-8):
        hval = order_norm_h(system, m, tol=tol)
    mn = min_order_norm(system, m, tol=tol)
    lower, upper = max_order_norm(system, m, subgrad_iters=subgrad_iters, tol=tol)
    return NormReport(h=hval, min=mn, max_lower=lower, max_upper=upper, op=la.op_norm(m))
