"""The matrix-ordered dual of an operator system, computationally.

A dual element at any level is one Riesz matrix.  M_n(S') is the
matrix-ordered dual of M_n(S) (Choi-Effros) under sum_ij f_ij(x_ij) =
trace(F x), where block (i, j) of the (n d) x (n d) matrix F, the Choi
matrix of [f_ij], is the Riesz matrix of f_ji; a functional on S <= M_d is
the level-1 case.  F is determined only up to M_n(S)^perp, so it is
canonicalized by the blockwise projection onto M_n(S) (the span is
adjoint-closed, which makes the projection of any valid representative
land on the same matrix).  Equality of dual elements is then equality of
canonical matrices.  The projection and the adjoint that reads off F are
:class:`OperatorSystem`'s; this module owns the block convention.

Positivity of f over a proper subsystem has no closed form.  By Krein
extension (Choi-Effros) f >= 0 on S exactly when some PSD W on C^d agrees
with F modulo the orthogonal complement of S, which is the level-1 case of
the CP test below.  Section minima take one interior-point solve of
min <C, X> over X in S+ with <N, X> = 1, whose dual point certifies a lower
bound through one eigenvalue and whose primal point, lifted into S+,
attains an upper bound.  On the full algebra they have eigenvalue closed
forms, which double as test oracles.

A matrix functional [f_ij] is positive at level n exactly when the induced
map x -> [f_ij(x)] into M_n is completely positive.  CP-extendability to
the ambient algebra is equivalent to the existence of a PSD matrix W on
C^n (x) C^d whose pairing with M_n(S) reproduces F, that is, to
min <C, X> >= 0 over X in M_n(S)+ with trace X = 1 for C = Re F.
Since M_n(S) = M_n (x) S, the same interior-point kernel answers it at
every level, with the complement of M_n(S)_h built blockwise; the solve
stops at the first witness or Farkas certificate that re-checks.  On the
full algebra the Choi matrix decides directly.

Dual order-unit radii, the smallest r with r (I_n (x) delta) - g CP, take
the same solve at every level n (Charnes-Cooper: r = max <G, X> over X in
M_n(S)+ with <I_n (x) delta, X> = 1), or a generalized eigenvalue on the
full algebra; a bisection over certified lower bounds is only the fallback
when that evidence does not re-check.  Either way the radius closes to
one module precision, 1e-6.  The sweeps that check the trace state to be
an Archimedean matrix order unit of S' with these radii and verdicts live
in :mod:`opsys.suites`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg as la
from ._search import check_search_bounds, smallest_passing
from .errors import DimensionError, ValidationError
from .feasibility import FeasibilityProblem, FeasibilityVerdict, _check_tol
from .systems import (
    DEFAULT_TOL,
    OperatorSystem,
    _domination_radii,
    _require_member,
    cone_member,
    from_blocks,
    level_of,
)

__all__ = [
    "Functional",
    "MatrixFunctional",
    "positivity_minimum",
    "is_positive_functional",
    "kernel_counts",
    "level_hermitian_basis",
    "cp_choi_problem",
    "cp_verdict",
    "is_cp",
    "faithful_state",
    "series_state",
    "dual_order_unit_radius",
    "random_functional",
    "random_hermitian_functional",
    "random_positive_functional",
]


class MatrixFunctional:
    """An element [f_ij] of M_n(S') held by its canonical Riesz (Choi)
    matrix F: block (i, j) is the Riesz matrix of f_ji, and the pairing with
    x in M_n(S) is trace(F x).  A functional is the level-1 case."""

    def __init__(self, system: OperatorSystem, riesz, *, _canonical: bool = False):
        self.system = system
        m = la.as_matrix(riesz)
        self.n = level_of(system, m)
        if not _canonical:
            if not np.isfinite(m).all():
                raise ValidationError("Riesz matrix with a non-finite entry")
            m = system.project_level(m)
        m = m.copy()
        m.flags.writeable = False
        self.riesz = m

    @classmethod
    def from_choi(cls, system: OperatorSystem, w) -> "MatrixFunctional":
        """The element with Riesz (Choi) matrix w: block (i, j) carries f_ji."""
        return cls(system, w)

    @classmethod
    def from_grid(cls, grid) -> "MatrixFunctional":
        """The element [f_ij] of a square grid of functionals over one system."""
        rows = [list(r) for r in grid]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionError("matrix functional grid must be square")
        system = rows[0][0].system
        if any(f.system is not system for r in rows for f in r):
            raise ValidationError("grid functionals over mixed systems")
        blocks = [[rows[j][i].riesz for j in range(n)] for i in range(n)]
        return cls(system, from_blocks(blocks), _canonical=True)

    @classmethod
    def diag(cls, f: "MatrixFunctional", n: int) -> "MatrixFunctional":
        """The diagonal element diag(f, ..., f) at n times the level of f."""
        return MatrixFunctional(f.system, np.kron(np.eye(n), f.riesz), _canonical=True)

    @classmethod
    def of_map(cls, system: OperatorSystem, images) -> "MatrixFunctional":
        """The grid f_ij(x) = phi(x)_ij of phi: S -> M_n with phi(B_k) =
        ``images[k]``, whose Riesz matrix is the Choi matrix of phi: block
        (i, j) carries f_ji, with the basis values images[k][j, i]."""
        values = np.asarray(images).T.reshape(-1, system.dim)
        return cls(system, system.riesz_of_values(values), _canonical=True)

    def pair(self, x) -> complex:
        """trace(F x) without a membership check (internal fast path)."""
        return complex(np.einsum("ij,ji->", self.riesz, la.as_matrix(x)))

    def values(self, xs) -> np.ndarray:
        """trace(F_ij x), the values of f_ji, for every block F_ij of F (row
        i n + j) and every x of a (k, d, d) stack, by one product."""
        n, d = self.n, self.system.d
        blocks = self.riesz.reshape(n, d, n, d).transpose(0, 2, 3, 1).reshape(n * n, d * d)
        return blocks @ np.asarray(xs).reshape(len(xs), -1).T

    # -- involution and arithmetic --------------------------------------------

    def _like(self, riesz: np.ndarray):
        return type(self)(self.system, riesz, _canonical=True)

    def is_hermitian(self, tol: float = 1e-8) -> bool:
        return la.is_hermitian(self.riesz, tol)

    def __add__(self, other: "MatrixFunctional"):
        self._compatible(other)
        return self._like(self.riesz + other.riesz)

    def __sub__(self, other: "MatrixFunctional"):
        self._compatible(other)
        return self._like(self.riesz - other.riesz)

    def __neg__(self):
        return self._like(-self.riesz)

    def __mul__(self, scalar):
        return self._like(complex(scalar) * self.riesz)

    __rmul__ = __mul__

    def _compatible(self, other: "MatrixFunctional") -> None:
        if other.system is not self.system or other.n != self.n:
            raise ValidationError("dual elements over different systems or levels")


class Functional(MatrixFunctional):
    """An element of S': the level-1 case, with f(x) = trace(F x)."""

    def __init__(self, system: OperatorSystem, riesz, *, _canonical: bool = False):
        m = la.as_matrix(riesz)
        if m.shape != (system.d, system.d):
            raise DimensionError(
                f"riesz matrix of shape {m.shape} for a system in M_{system.d}"
            )
        super().__init__(system, m, _canonical=_canonical)

    @classmethod
    def zero(cls, system: OperatorSystem) -> "Functional":
        return cls(system, np.zeros((system.d, system.d)), _canonical=True)

    def __call__(self, x) -> complex:
        """trace(F x) for x in S; raises MembershipError otherwise."""
        return self.pair(_require_member(self.system, x))

    @property
    def norm(self) -> float:
        """Trace norm of the canonical matrix: an upper bound for the dual
        norm, exact on the full algebra."""
        return la.trace_norm(self.riesz)


# ----------------------------------------------------------------------------
# The section kernel: min <C, X> over X in M_n(S)+ with <N, X> = 1
# ----------------------------------------------------------------------------

#: Newton-step cap, relative stopping tolerance (duality gap and residuals)
#: and fraction of the step to the PSD boundary of the section kernel.
_SDP_ITERS, _SDP_TOL, _SDP_STEP = 50, 1e-10, 0.98

#: Running totals of the section kernel: counts only, so reports stay stable.
_SDP_COUNTS = dict.fromkeys(
    ("solves", "iterations", "certified", "breakdowns", "cap_hits",
     "bisection_fallbacks"), 0
)


class _SectionSolve(NamedTuple):
    x: np.ndarray  # primal: PSD, in M_n(S)_h with <N, x> = 1 up to residuals
    k: np.ndarray  # dual: K in M_n(S)_h^perp with C - K - t N about PSD
    t: float
    iterations: int
    stop: str  # "converged", "certified", "breakdown" or "cap"
    evidence: object = None  # what ``certify`` returned when it ended the solve


def kernel_counts(since: dict | None = None) -> dict:
    """Running totals of the section kernel (solves, Newton steps, solves
    ended by a certificate, breakdowns, cap stops, radius bisection
    fallbacks), or those added ``since``.  A solve that is neither
    certified, broken down nor capped converged."""
    since = since or dict.fromkeys(_SDP_COUNTS, 0)
    return {key: value - since[key] for key, value in _SDP_COUNTS.items()}


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron over the last two axes, broadcast over the leading ones."""
    n, d = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * d, n * d))


def _level_basis(hb: np.ndarray, n: int) -> np.ndarray:
    """kron(E, h) for E in the real-orthonormal basis of (M_n)_h and h in the
    real-orthonormal Hermitian stack hb: a real-orthonormal basis of
    (M_n)_h (x) span(hb), shape (n^2 len(hb), n d, n d).  Order: E_ii (x) h,
    then for each i < j and each h, (E_ij + E_ji)/sqrt2 (x) h followed by
    i (E_ij - E_ji)/sqrt2 (x) h.  At n = 1 that is hb itself."""
    if n == 1:
        return hb
    eye = np.eye(n)
    diag = _kron((eye[:, :, None] * eye[:, None, :])[:, None], hb[None])
    i, j = np.triu_indices(n, 1)
    e_ij = eye[i][:, :, None] * eye[j][:, None, :]
    e_ji = e_ij.swapaxes(1, 2)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    pairs = np.stack([(e_ij + e_ji) * inv_sqrt2, (e_ij - e_ji) * 1j * inv_sqrt2], 1)
    mixed = _kron(pairs[:, None], hb[None, :, None])
    size = n * hb.shape[-1]
    return np.concatenate([diag.reshape(-1, size, size), mixed.reshape(-1, size, size)])


def _step(li: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """``_SDP_STEP`` of each step from a positive definite m along dm to the
    boundary of the PSD cone, at most 1, over the leading axis, given
    li = inv(cholesky(m)): min(1, _SDP_STEP / -lam) for the least
    eigenvalue lam of li dm li^*, and 1 when lam >= 0."""
    lam = np.linalg.eigvalsh(li @ dm @ li.conj().swapaxes(-1, -2))[..., 0]
    return _SDP_STEP / np.maximum(-lam, _SDP_STEP)


def _tally(solve: _SectionSolve) -> _SectionSolve:
    """Add one solve to the running totals of :func:`kernel_counts`."""
    _SDP_COUNTS["solves"] += 1
    _SDP_COUNTS["iterations"] += solve.iterations
    _SDP_COUNTS["certified"] += solve.stop == "certified"
    _SDP_COUNTS["breakdowns"] += solve.stop == "breakdown"
    _SDP_COUNTS["cap_hits"] += solve.stop == "cap"
    return solve


def _section_sdp(
    system: OperatorSystem, c: np.ndarray, n: np.ndarray, *, certify=None
) -> _SectionSolve:
    """min <C, X> over X in M_n(S)+ with <N, X> = 1 (Hermitian C, N of size
    n d, n read off the size of C) and its Krein dual max t over
    C - K - t N >= 0, K in M_n(S)_h^perp = (M_n)_h (x) S_h^perp: infeasible
    primal-dual path following, HKM direction, Mehrotra predictor-corrector
    (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996), with
    sigma raised to 1 - min(step lengths) so a predictor blocked at the
    boundary re-centers.
    ``certify(x, k)``, when given, sees the start point and then the
    iterate after every Newton step; the first result that is not ``None``
    ends the solve as "certified" and is returned as ``evidence``.  The
    start point is X = I / <N, I> with K = 0, so the first witness tried is
    C itself, and a solve it decides takes 0 steps and builds no
    constraints.
    The optimum is often rank-deficient: a failed factorization ends the
    solve as "breakdown" with the last iterate, ``_SDP_ITERS`` steps as
    "cap"; neither raises, and callers re-check every point they use."""
    d = len(c)
    # I lies in M_n(S), so X = I / <N, I> starts primal feasible when <N, I> > 0
    x = np.eye(d, dtype=complex) / max(np.trace(n).real, 1e-6)
    if certify is not None:
        k0 = np.zeros((d, d), dtype=complex)
        evidence = certify(x, k0)
        if evidence is not None:
            return _tally(_SectionSolve(x, k0, 0.0, 0, "certified", evidence))
    a = np.concatenate([_level_basis(system.complement_basis, d // system.d), n[None]])
    k = len(a)
    flat = a.reshape(k, -1)
    b = np.zeros(k)
    b[-1] = 1.0

    def pairings(x):
        return (flat.conj() @ x.reshape(-1)).real

    def combine(y):
        return (y @ flat).reshape(d, d)

    scale = max(1.0, la.frobenius(c))
    z = scale * np.eye(d, dtype=complex)
    y = np.zeros(k)
    stop, it, evidence = "cap", 0, None
    try:
        for it in range(_SDP_ITERS + 1):
            if it and certify is not None:
                evidence = certify(x, combine(np.append(y[:-1], 0.0)))
                if evidence is not None:
                    stop = "certified"
                    break
            rp, rd = b - pairings(x), c - combine(y) - z
            primal = np.vdot(c, x).real
            if (abs(primal - y[-1]) <= _SDP_TOL * max(1.0, abs(primal))
                    and np.linalg.norm(rp) <= _SDP_TOL
                    and la.frobenius(rd) <= _SDP_TOL * scale):
                stop = "converged"
                break
            if it == _SDP_ITERS:
                break
            # x and z stay fixed through the predictor and the corrector:
            # one factorization of each serves both step lengths
            li = np.linalg.inv(np.linalg.cholesky(np.stack([x, z])))
            zi = np.linalg.inv(z)
            mu = np.vdot(x, z).real / d
            ax, azi = a @ x, a @ zi
            # schur[i, j] = Re tr(A_i X A_j Z^-1)
            schur = (ax.reshape(k, -1) @ azi.swapaxes(1, 2).reshape(k, -1).T).real
            xrz = x @ rd @ zi

            def direction(g):
                # dZ = R_d - A*(dy); dX = G - X + X A*(dy) Z^-1 with A(dX) = r_p
                dy = np.linalg.solve(schur, b - pairings(g))
                dz = rd - combine(dy)
                dx = la.hermitian_part(g - x + x @ combine(dy) @ zi)
                if not (np.isfinite(dx).all() and np.isfinite(dz).all()):
                    raise np.linalg.LinAlgError("non-finite Newton direction")
                return dx, dy, dz

            dx, dy, dz = direction(-xrz)
            ap, ad = _step(li, np.stack([dx, dz]))
            sigma = (np.vdot(x + ap * dx, z + ad * dz).real / d / mu) ** 3
            sigma = max(sigma, 1.0 - min(ap, ad))
            dx, dy, dz = direction(sigma * mu * zi - xrz - dx @ dz @ zi)
            ap, ad = _step(li, np.stack([dx, dz]))
            x, y, z = x + ap * dx, y + ad * dy, z + ad * dz
    except np.linalg.LinAlgError:
        stop = "breakdown"
    return _tally(
        _SectionSolve(x, combine(np.append(y[:-1], 0.0)), float(y[-1]), it, stop, evidence)
    )


def _lift(system: OperatorSystem, x: np.ndarray) -> np.ndarray:
    """x projected onto M_n(S)_h, shifted by the unit into M_n(S)+, at trace
    one."""
    x = la.hermitian_part(system.project_level(x))
    x = x + max(0.0, -la.lambda_min(x)) * np.eye(len(x))
    return x / np.trace(x).real


def positivity_minimum(f: Functional) -> tuple[float, np.ndarray]:
    """min of Re f(x) over the section S ∩ PSD ∩ {trace = 1}, with the
    attaining element: exact on the full algebra, else one kernel solve
    with C = Re F, N = I whose primal point, lifted into S+, attains the
    value (an upper bound of the minimum)."""
    system = f.system
    fr = la.hermitian_part(f.riesz)
    if system.is_full:
        w, u = la.spectral_decompose(fr)
        return float(w[-1]), np.outer(u[:, -1], u[:, -1].conj())
    x = _lift(system, _section_sdp(system, fr, system.unit).x)
    return float(f.pair(x).real), x


def _lower_bound(system: OperatorSystem, c: np.ndarray, w: np.ndarray) -> float:
    """A lower bound for min{<C, X> : X in M_n(S)+, trace X = 1} from a
    Hermitian W: lambda_min(W) minus the norm of P(W - C), with P the
    blockwise projection onto M_n(S).  For X in the section,
    <C, X> = <W, X> - <P(W - C), X> >= lambda_min(W) - ||P(W - C)|| ||X||_F,
    and ||X||_F <= trace X = 1."""
    return la.lambda_min(w) - float(np.linalg.norm(system.level_coords(w - c)))


def _refutes(f: Functional, z: np.ndarray, tol: float) -> bool:
    """True iff x = Z / trace Z lies in S+ and Re f(x) < -tol."""
    x = la.hermitian_part(z) / np.trace(z).real
    return cone_member(f.system, x, tol) and f.pair(x).real < -tol


def is_positive_functional(f: Functional, tol: float = DEFAULT_TOL) -> bool | None:
    """True iff min{Re f(x) : x in S+, trace x = 1} >= -tol and f is
    Hermitian as a functional (a positive functional must be real on the
    cone, which spans the Hermitian part); ``None`` when that cannot be
    certified either way.

    The level-1 case of :func:`cp_verdict` (Krein extension: f >= 0 on S iff
    some PSD W on C^d pairs like F with S), and each answer is re-checked.
    True is the kernel's witness W, whose lower bound
    (:func:`_lower_bound`) the solve accepts only at -tol or above.  False
    needs a point of
    S+ where Re f < -tol: the Farkas certificate normalized, or else the
    kernel's last primal point lifted into S+, which decides the gray band
    that the certificate's 10 tol margin leaves open (a minimum between
    -10 tol and -tol).  A solve that ends with neither (a breakdown or the
    cap) is ``None``, never an uncertified True.  On the full algebra the
    verdict is lambda_min(F) >= -tol.  A tolerance that is not positive and
    finite raises ValidationError.
    """
    _check_tol(tol)
    if not f.is_hermitian(max(tol, 1e-9)):
        return False
    system = f.system
    if system.is_full:
        return cp_verdict(f, tol).status == "feasible"
    verdict, solve = _choi_verdict(system, la.hermitian_part(f.riesz), tol)
    if verdict.status == "feasible":
        return True
    z = verdict.certificate
    if _refutes(f, _lift(system, solve.x) if z is None else z, tol):
        return False
    return None


# ----------------------------------------------------------------------------
# Complete positivity: the Choi problem on M_n(S)
# ----------------------------------------------------------------------------

def level_hermitian_basis(system: OperatorSystem, n: int) -> np.ndarray:
    """Hermitian real-orthonormal basis of M_n(S)_h as flattened matrices,
    shape (n^2 * dim, n*d, n*d)."""
    return _level_basis(system.hermitian_basis, n)


def cp_choi_problem(mf: MatrixFunctional, tol: float = 1e-7) -> FeasibilityProblem:
    """The PSD/affine feasibility problem deciding CP-extendability of the
    grid: find W >= 0 on C^n (x) C^d whose pairings against a Hermitian
    basis of M_n(S) match the Choi data.  This is what :func:`cp_verdict`
    decides, through the section kernel on a proper subsystem and by the
    Choi eigenvalues on the full algebra, where the pairings pin W to the
    Choi matrix; the explicit problem is for export and for the Dykstra
    solver."""
    system = mf.system
    choi = la.hermitian_part(mf.riesz)
    kbasis = level_hermitian_basis(system, mf.n)
    rhs = np.real(np.einsum("aij,ji->a", kbasis, choi))
    return FeasibilityProblem(
        dim=mf.n * system.d,
        constraints=[(k, float(b)) for k, b in zip(kbasis, rhs)],
        tol=tol,
    )


def _choi_verdict(
    system: OperatorSystem, choi: np.ndarray, tol: float
) -> tuple[FeasibilityVerdict, _SectionSolve]:
    """The CP verdict on the Hermitian Choi matrix C of a level-n grid over a
    proper subsystem, with the kernel solve of min <C, X> over X in
    M_n(S)+, trace X = 1, behind it.  The solve stops at the first point,
    the start point X = I / nd, K = 0 included, that gives one of:

    * feasible: W = C - K for the dual point K has :func:`_lower_bound`
      lambda_min(W) - ||P(W - C)|| >= -tol, with P the blockwise projection
      onto M_n(S);
    * infeasible: the primal point lifted into M_n(S)+, Z, has
      <C, Z> < -10 tol ||Z||_F.  Z is PSD and lies in M_n(S)_h, the span of
      the Choi problem's constraints, so it is a Farkas certificate in the
      sense of :class:`FeasibilityVerdict`.

    At the start point the witness is C itself, so a Choi matrix with
    lambda_min(C) >= -tol is feasible with ``iterations`` 0, as on a full
    algebra, and one with trace C < -10 tol sqrt(nd) is refuted by
    Z = I / nd at 0 steps.  A solve that converges, breaks down or reaches
    its cap with neither is "undecided".  ``gap`` is max(0, -lower bound)
    at the last dual point and ``iterations`` counts Newton steps."""

    def certify(x, k):
        w = choi - k
        lower = _lower_bound(system, choi, w)
        if lower >= -tol:
            return FeasibilityVerdict("feasible", w, max(0.0, -lower))
        z = _lift(system, x)
        if np.vdot(z, choi).real < -10 * tol * la.frobenius(z):
            return FeasibilityVerdict("infeasible", None, -lower, certificate=z)
        return None

    solve = _section_sdp(system, choi, np.eye(len(choi)), certify=certify)
    verdict = solve.evidence
    if verdict is None:
        lower = _lower_bound(system, choi, choi - solve.k)
        verdict = FeasibilityVerdict("undecided", None, max(0.0, -lower))
    verdict.iterations = solve.iterations
    return verdict, solve


def cp_verdict(mf: MatrixFunctional, tol: float = 1e-7) -> FeasibilityVerdict:
    """Complete positivity of the induced map S -> M_n, with its evidence.

    Full algebra: decided by lambda_min of the Choi matrix C, with
    ``iterations == 0`` and ``gap == max(0, -lambda_min)``; the witness of a
    CP map is C itself, and the certificate of a non-CP one is the
    eigenprojector P of the most negative eigenvalue (PSD, <P, C> < -tol).
    Proper subsystem: the map extends completely positively iff a PSD W
    with the prescribed pairings against M_n(S) exists, which one section
    kernel solve decides (:func:`_choi_verdict`): a witness W with
    lambda_min(W) at least -tol up to its pairing residual, a Farkas
    certificate, or "undecided".  A non-Hermitian grid is infeasible with
    ``gap`` the Frobenius norm of the anti-Hermitian part of C and no
    certificate.  A tolerance that is not positive and finite raises
    ValidationError.
    """
    _check_tol(tol)
    choi = mf.riesz
    if not la.is_hermitian(choi, max(tol, 1e-8)):
        return FeasibilityVerdict("infeasible", None, la.frobenius(la.antihermitian_part(choi)))
    choi = la.hermitian_part(choi)
    if not mf.system.is_full:
        return _choi_verdict(mf.system, choi, tol)[0]
    lam = la.lambda_min(choi)
    gap = max(0.0, -lam)
    if lam >= -tol:
        return FeasibilityVerdict("feasible", choi, gap)
    v = la.spectral_decompose(choi)[1][:, -1]
    return FeasibilityVerdict("infeasible", None, gap, certificate=np.outer(v, v.conj()))


def is_cp(mf: MatrixFunctional) -> bool | None:
    """Complete positivity of the induced map S -> M_n as a bool, at
    :func:`cp_verdict`'s default tolerance; its "undecided" verdict is
    returned as ``None``, never coerced."""
    verdict = cp_verdict(mf)
    if verdict.status == "undecided":
        return None
    return verdict.status == "feasible"


# ----------------------------------------------------------------------------
# Faithful states
# ----------------------------------------------------------------------------

def faithful_state(system: OperatorSystem) -> Functional:
    """The normalized trace x -> trace(x)/d: a faithful state on any
    subsystem of M_d."""
    return Functional(system, system.unit / system.d, _canonical=True)


def series_state(states) -> Functional:
    """The series sum_n w_n f_n of states over one system, with the weights
    2^-n renormalized to total mass one; faithful as soon as the family
    separates the cone."""
    states = list(states)
    if not states:
        raise ValueError("series_state needs at least one state")
    system = states[0].system
    if any(f.system is not system for f in states):
        raise ValidationError("series of states over mixed systems")
    weights = np.asarray([2.0 ** -(n + 1) for n in range(len(states))])
    weights = weights / weights.sum()
    riesz = sum(w * f.riesz for w, f in zip(weights, states))
    return Functional(system, riesz, _canonical=True)


# ----------------------------------------------------------------------------
# Dual order-unit radii
# ----------------------------------------------------------------------------

#: Precision of a dual order-unit radius: the kernel's bracket must close to
#: it, and a bisection stops at it.
_DUAL_RADIUS_PRECISION = 1e-6


def _radius(system: OperatorSystem, dm: np.ndarray, gm: np.ndarray, tol: float) -> float | None:
    """Smallest r >= 0 with r D - G positive on M_n(S)+ (D = I_n (x) Re
    delta, G the Choi matrix of g) over a proper subsystem, or ``None`` when
    its evidence does not re-check: one kernel solve with C = -G and N = D;
    r = -t stands only when r D - G - K certifies r D - G >= -tol and the
    lifted primal point x lies in M_n(S)+ with <G, x>/<D, x> >= r -
    ``_DUAL_RADIUS_PRECISION``."""
    solve = _section_sdp(system, -gm, dm)
    r = max(0.0, -solve.t)
    x = _lift(system, solve.x)
    dx = np.vdot(dm, x).real
    c = r * dm - gm
    if not (_lower_bound(system, c, c - solve.k) >= -tol
            and cone_member(system, x, tol) and dx > 0):
        return None
    closes = max(0.0, np.vdot(gm, x).real / dx) >= r - _DUAL_RADIUS_PRECISION
    return r if closes else None


def dual_order_unit_radius(
    delta: Functional,
    g,
    level: int | None = None,
    *,
    r_max: float = 1e6,
) -> float | None:
    """Smallest r >= 0 such that r * (I_n (x) delta) - g is positive, at
    positivity tolerance ``DEFAULT_TOL``.

    ``g`` is a Hermitian :class:`MatrixFunctional` over the system of delta.
    ``level`` defaults to the level of g; a level-1 g (a functional) is
    lifted diagonally to any requested level, and a g of level n > 1 takes
    no level but n.  Another level, or one below 1, raises ValidationError.
    For a Hermitian delta,
    D = I_n (x) Re delta and the Riesz matrix G of g go to the primal radius
    routine on the full algebra and to one kernel solve (:func:`_radius`) on
    M_n(S).  Kernel evidence that fails (a non-faithful delta, a breakdown)
    bisects: each probe is the :func:`cp_verdict` of r (I_n (x) delta) - g,
    which passes only on a witness that re-checks, so a breakdown costs
    tightness, never soundness.  For a non-Hermitian delta, r delta - g is
    not Hermitian at any r > 0, so one such check at r = 0 decides.
    Radii are exact or bisected to ``_DUAL_RADIUS_PRECISION``.  Returns
    ``None`` when no r <= r_max works.
    """
    check_search_bounds(r_max, _DUAL_RADIUS_PRECISION)
    if not g.is_hermitian(1e-8):
        raise ValidationError("g must be a Hermitian functional or matrix functional")
    system, tol = delta.system, DEFAULT_TOL
    if g.system is not system:
        raise ValidationError("delta and g live on different systems")
    n = g.n if level is None else level
    if n < 1 or g.n not in (1, n):
        raise ValidationError(f"level {level} for a g of level {g.n}")
    if g.n == 1:
        g = MatrixFunctional.diag(g, n)
    gm = la.hermitian_part(g.riesz)
    dm = np.kron(np.eye(g.n), la.hermitian_part(delta.riesz))

    def dominated(r: float) -> bool:
        g_r = MatrixFunctional(system, r * dm - gm, _canonical=True)
        return cp_verdict(g_r, tol).status == "feasible"

    if not delta.is_hermitian(1e-8):
        return 0.0 if dominated(0.0) else None
    if system.is_full:
        return _domination_radii(dm, tol, r_max, _DUAL_RADIUS_PRECISION)(gm)
    r = _radius(system, dm, gm, tol)
    if r is not None:
        return r if r <= r_max else None
    _SDP_COUNTS["bisection_fallbacks"] += 1
    r_start = max(1.0, la.trace_norm(delta.riesz))
    return smallest_passing(dominated, r_max, _DUAL_RADIUS_PRECISION, r_start=r_start)


# ----------------------------------------------------------------------------
# Sampling helpers
# ----------------------------------------------------------------------------

def random_functional(system: OperatorSystem, rng: np.random.Generator) -> Functional:
    raw = rng.standard_normal((system.d, system.d)) + 1j * rng.standard_normal(
        (system.d, system.d)
    )
    return Functional(system, raw / np.sqrt(2 * system.d))


def random_hermitian_functional(
    system: OperatorSystem, rng: np.random.Generator
) -> Functional:
    f = random_functional(system, rng)
    return Functional(system, la.hermitian_part(f.riesz), _canonical=True)


def random_positive_functional(
    system: OperatorSystem, rng: np.random.Generator
) -> Functional:
    g = rng.standard_normal((system.d, system.d)) + 1j * rng.standard_normal(
        (system.d, system.d)
    )
    return Functional(system, (g @ g.conj().T) / system.d)
