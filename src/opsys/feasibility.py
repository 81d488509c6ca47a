"""PSD-cone / affine-subspace feasibility via Dykstra's algorithm.

A problem asks for a Hermitian W with trace(A_k W) = b_k for all k and
W >= 0.  Dykstra's corrected alternating projections are used instead of
plain alternating projections because the affine set is not a cone through
the origin: with the corrections, the iterates converge to a point of the
intersection whenever one exists, and the gap between the cone-side and
affine-side iterates converges to the distance between the sets otherwise.
The constraints must be real-orthonormal, Re trace(A_j A_k) = delta_jk,
and the constructor refuses any other set: they are then the basis of
span{A_k} that the affine projection runs over, with the b_k as their
coordinates, and no Gram-Schmidt or least squares is needed.

The solver serves explicit problems: the Choi problems of
:func:`opsys.dual.cp_choi_problem`, which ``opsys dual check-cp
--dump-problem`` exports and from which the acceptance tests and the
feasibility-oracle suite build their fully pinned instances.  CP and
positivity verdicts of the dual module come from its own interior-point
kernel, which decides the same Choi problems, not from here.

Verdicts are three-valued, and each definite one is checked.  "feasible"
is the affine-side iterate, which meets every constraint exactly, once it
lies within tol of the cone.  "infeasible" needs a Farkas certificate,
which can be formed only when the identity lies in span{A_k} (every Choi
problem and every fully pinned one): the displacement y - x between the
cone-side and affine-side iterates, projected onto span{A_k} and shifted by
a multiple of I until it is PSD, is a matrix Z with <Z, W> >= 0 on the cone
and <Z, W> = sum c_k b_k on the affine set (Bauschke & Borwein, J. Approx.
Theory 1994).  The solver accepts it only when sum c_k b_k < -10 tol
||Z||_F, which proves that the sets lie more than 10 tol apart, so the
"feasible" test could never fire.  Everything else, a problem without I in
its constraint span included, ends "undecided" when the budget runs out,
which callers surface rather than coerce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import DimensionError, ValidationError

__all__ = [
    "FeasibilityProblem",
    "FeasibilityVerdict",
    "dykstra_solve",
]

#: The identity counts as in span{A_k} when its residual off the span is
#: below this, relative to ||I||_F.
_UNIT_RTOL = 1e-10
#: The real Gram matrix Re trace(A_j A_k) of the constraints must be within
#: this of I entrywise.  Every problem the program builds is a Choi problem
#: over a real-orthonormal basis of M_n(S)_h, or pins every coordinate of
#: the Hermitian basis of M_d, and meets it with room to spare (its Gram
#: matrix is I to about 1e-15).
_ORTHONORMAL_ATOL = 1e-12


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not positive and finite: no verdict at it means anything."""
    if not 0.0 < tol < np.inf:  # NaN fails both comparisons
        raise ValidationError(f"tol must be positive and finite, got {tol}")


@dataclass
class FeasibilityProblem:
    """trace(A_k W) = b_k for real-orthonormal Hermitian A_k, real b_k,
    with W >= 0 sought."""

    dim: int
    constraints: list  # of (Hermitian ndarray, float)
    tol: float = 1e-7
    max_iter: int = 20000

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"problem dimension must be positive, got {self.dim}")
        if not self.constraints:
            raise ValueError("constraint list must be nonempty")
        _check_tol(self.tol)
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be positive, got {self.max_iter}")
        checked = []
        for a, b in self.constraints:
            m = la.as_matrix(a)
            if m.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"constraint matrix of shape {m.shape}, expected {(self.dim,) * 2}"
                )
            b = float(b)
            if not (np.isfinite(m).all() and np.isfinite(b)):
                raise ValidationError("constraint with a non-finite entry")
            checked.append((la.hermitian_part(m), b))
        self.constraints = checked
        real = np.stack([a.reshape(-1) for a, _ in checked]).view(float)
        off = float(np.abs(real @ real.T - np.eye(len(checked))).max())
        if not off <= _ORTHONORMAL_ATOL:
            raise ValidationError(
                f"constraints are not real-orthonormal: max |Gram - I| = {off:.1e}"
            )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "constraints": [
                {"a": la.encode_matrix(a), "b": b} for a, b in self.constraints
            ],
        }


@dataclass
class FeasibilityVerdict:
    status: str  # "feasible" | "infeasible" | "undecided"
    witness: np.ndarray | None
    gap: float
    iterations: int = 0
    # infeasible only: PSD Z in span{A_k} with <Z, W> < -10 tol ||Z||_F on
    # the affine set; every infeasible Dykstra verdict carries one (the CP
    # verdict of a non-Hermitian grid has none)
    certificate: np.ndarray | None = None

    def __bool__(self) -> bool:
        # "undecided" is neither True nor False
        raise TypeError("a verdict has no truth value; read its .status")


@dataclass
class _AffineSpan:
    """The affine set of a problem: its real-orthonormal constraints are
    the basis of span{A_k} as given, and their right-hand sides the
    coordinates of the set's point nearest the origin."""

    basis: np.ndarray  # (m, 2 dim^2): orthonormal matrices as flat (re, im) views
    rhs: np.ndarray  # (m,)
    has_unit: bool  # the identity lies in the span

    @classmethod
    def build(cls, problem: FeasibilityProblem) -> "_AffineSpan":
        basis = np.stack([a.reshape(-1) for a, _ in problem.constraints]).view(float)
        rhs = np.array([b for _, b in problem.constraints])
        span = cls(basis=basis, rhs=rhs, has_unit=False)
        eye = np.eye(problem.dim, dtype=complex)
        off = la.frobenius(eye - span.linear_part(eye))
        span.has_unit = off <= _UNIT_RTOL * np.sqrt(problem.dim)
        return span

    def project(self, w: np.ndarray) -> np.ndarray:
        # Re trace(B* W) is the real dot product of the (re, im) views
        vals = self.basis @ np.ascontiguousarray(w).reshape(-1).view(float)
        return w + ((self.rhs - vals) @ self.basis).view(complex).reshape(w.shape)

    def linear_part(self, w: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto span{A_k} itself."""
        vals = self.basis @ np.ascontiguousarray(w).reshape(-1).view(float)
        return (vals @ self.basis).view(complex).reshape(w.shape)


def _farkas_certificate(span: _AffineSpan, y, x, tol: float):
    """The displacement y - x made into a certificate of infeasibility:
    projected onto span{A_k} and shifted by mu I to be PSD.  Returned only
    if its value on the affine set (where x lies) is below -10 tol ||Z||_F,
    else ``None``."""
    # both Dykstra corrections keep y - x in span{A_k} in exact arithmetic;
    # projecting again removes the rounding drift off the span
    z = la.hermitian_part(span.linear_part(y - x))
    z += max(0.0, -la.lambda_min(z)) * np.eye(len(z))
    if np.vdot(z, x).real < -10 * tol * la.frobenius(z):
        return z
    return None


def dykstra_solve(problem: FeasibilityProblem) -> FeasibilityVerdict:
    """Run Dykstra's alternating projections between PSD cone and affine set.

    feasible:   cone and affine iterates meet within tol; witness is the
                affine-side iterate (constraints exact, lambda_min >= -gap).
    infeasible: with I in span{A_k}, a Farkas certificate (see the module
                docstring) is tried at iterations 1, 2, 4, 8, ... while the
                gap exceeds 10 * tol, and the solve stops at the first that
                verifies; it proves the sets are more than 10 * tol apart.
    undecided:  iteration budget exhausted before either test fires, e.g.
                when the distance between the sets is in (tol, 10 * tol) or
                I is not in span{A_k}.
    """
    span = _AffineSpan.build(problem)
    x = span.project(np.zeros((problem.dim,) * 2, dtype=complex))
    # Dykstra corrections of the cone and affine steps
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    margin = 10 * problem.tol
    for it in range(1, problem.max_iter + 1):
        y = la.project_psd(x + p)
        p = x + p - y
        x = la.hermitian_part(span.project(y + q))
        q = y + q - x
        gap = la.frobenius(y - x)
        if gap < problem.tol:
            return FeasibilityVerdict("feasible", x, gap, it)
        if span.has_unit and gap > margin and it & (it - 1) == 0:
            certificate = _farkas_certificate(span, y, x, problem.tol)
            if certificate is not None:
                return FeasibilityVerdict("infeasible", None, gap, it, certificate)
    return FeasibilityVerdict("undecided", None, gap, problem.max_iter)
