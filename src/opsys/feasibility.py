"""PSD-cone / affine-subspace feasibility via Dykstra's algorithm.

A problem asks for a Hermitian W with trace(A_k W) = b_k for all k and
W >= 0.  Dykstra's corrected alternating projections are used instead of
plain alternating projections because the affine set is not a cone through
the origin: with the corrections, the iterates converge to a point of the
intersection whenever one exists, and the gap between the cone-side and
affine-side iterates converges to the distance between the sets otherwise.

One batched kernel, :func:`dykstra_iterates`, runs the iteration both for
CP certification (:func:`dykstra_solve`) and for the section projection of
the dual module; each caller owns its stopping rule.

Verdicts are three-valued.  Infeasibility is detected heuristically (the
gap stalls at a value well above tolerance); budget exhaustion yields
"undecided", which callers surface rather than coerce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import DimensionError, InfeasibleAffineError, ParseError, ValidationError

__all__ = [
    "FeasibilityProblem",
    "FeasibilityVerdict",
    "project_affine",
    "dykstra_iterates",
    "dykstra_solve",
]

_STALL_WINDOW = 50


@dataclass
class FeasibilityProblem:
    """trace(A_k W) = b_k for Hermitian A_k, real b_k, with W >= 0 sought."""

    dim: int
    constraints: list  # of (Hermitian ndarray, float)
    tol: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"problem dimension must be positive, got {self.dim}")
        if not self.constraints:
            raise ValueError("constraint list must be nonempty")
        if not 0.0 < self.tol < np.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be positive, got {self.max_iter}")
        checked = []
        for a, b in self.constraints:
            m = la.as_matrix(a)
            if m.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"constraint matrix of shape {m.shape}, expected {(self.dim,) * 2}"
                )
            checked.append((la.hermitian_part(m), float(b)))
        self.constraints = checked

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "constraints": [
                {"a": la.encode_matrix(a), "b": b} for a, b in self.constraints
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "FeasibilityProblem":
        try:
            cons = [(la.decode_matrix(c["a"]), float(c["b"])) for c in obj["constraints"]]
            return cls(
                dim=int(obj["dim"]),
                constraints=cons,
                tol=float(obj.get("tol", 1e-7)),
                max_iter=int(obj.get("max_iter", 20000)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed feasibility problem JSON: {exc}") from exc


@dataclass
class FeasibilityVerdict:
    status: str  # "feasible" | "infeasible" | "undecided"
    witness: np.ndarray | None
    gap: float
    iterations: int = 0

    def __bool__(self) -> bool:
        return self.status == "feasible"


@dataclass
class _AffineSpan:
    """Orthonormalized constraint system; dependent constraints are pruned
    after a consistency check on their right-hand sides."""

    basis: np.ndarray  # (m, 2 dim^2): orthonormal matrices as flat (re, im) views
    rhs: np.ndarray  # (m,)

    @classmethod
    def build(cls, problem: FeasibilityProblem) -> "_AffineSpan":
        flat = np.stack([a.reshape(-1) for a, _ in problem.constraints])
        b = np.array([b for _, b in problem.constraints])
        basis = la.orthonormalize(flat, 1e-12)
        # constraint k is sum_j coef[k, j] <B_j, W> = b_k: the right-hand
        # sides over the kept basis solve that system in least squares
        coef = np.real(flat @ basis.conj().T)
        rhs = np.linalg.lstsq(coef, b, rcond=None)[0]
        residual = float(np.abs(coef @ rhs - b).max())
        if residual > problem.tol:
            raise InfeasibleAffineError(f"dependent constraint residual {residual:.3e}")
        return cls(basis=basis.view(float), rhs=rhs)

    def project(self, w: np.ndarray) -> np.ndarray:
        # Re trace(B* W) is the real dot product of the (re, im) views
        vals = self.basis @ np.ascontiguousarray(w).reshape(-1).view(float)
        return w + ((self.rhs - vals) @ self.basis).view(complex).reshape(w.shape)


def project_affine(problem: FeasibilityProblem, w) -> np.ndarray:
    """Frobenius-nearest Hermitian W' satisfying every constraint exactly."""
    span = _AffineSpan.build(problem)
    return la.hermitian_part(span.project(la.hermitian_part(w)))


def dykstra_iterates(x, affine):
    """Dykstra's corrected alternating projections between the PSD cone and
    the affine set that ``affine`` projects onto, batched over leading axes.
    Yields ``(y, x_prev, x_next)`` forever (cone iterate, affine iterates
    before and after the step); the caller decides when to stop."""
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    while True:
        y = la.project_psd(x + p)
        p = x + p - y
        x_next = affine(y + q)
        q = y + q - x_next
        yield y, x, x_next
        x = x_next


def dykstra_solve(problem: FeasibilityProblem) -> FeasibilityVerdict:
    """Run Dykstra's alternating projections between PSD cone and affine set.

    feasible:   cone and affine iterates meet within tol; witness is the
                affine-side iterate (constraints exact, lambda_min >= -gap).
    infeasible: the gap stalls (relative change < tol/10 over a 50-iteration
                window) at a value above 10 * tol.
    undecided:  iteration budget exhausted before either test fires.
    """
    span = _AffineSpan.build(problem)
    x0 = span.project(np.zeros((problem.dim,) * 2, dtype=complex))
    steps = dykstra_iterates(x0, lambda w: la.hermitian_part(span.project(w)))
    gaps: list[float] = []
    for it, (y, _, x) in enumerate(steps, start=1):
        gap = la.frobenius(y - x)
        gaps.append(gap)
        if gap < problem.tol:
            return FeasibilityVerdict("feasible", x, gap, it)
        if it > _STALL_WINDOW and gap > 10 * problem.tol:
            prev = gaps[-1 - _STALL_WINDOW]
            if abs(gap - prev) < (problem.tol / 10.0) * max(1.0, gap):
                return FeasibilityVerdict("infeasible", None, gap, it)
        if it == problem.max_iter:
            return FeasibilityVerdict("undecided", None, gap, it)
