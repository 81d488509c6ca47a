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
attains an upper bound.  Its start point is one generalized
eigendecomposition of (C, N): K = 0 with t = lambda_min(C, N), tried at
X = I / <N, I> and at the bottom generalized eigenprojector, and the same
eigenvalues place the dual start, Z = C - t0 N with t0 below
lambda_min(C, N), from which the Newton steps stay dual feasible.  On the
full algebra section minima have eigenvalue closed forms, which double as
test oracles.

A matrix functional [f_ij] is positive at level n exactly when the induced
map x -> [f_ij(x)] into M_n is completely positive.  CP-extendability to
the ambient algebra is equivalent to the existence of a PSD matrix W on
C^n (x) C^d whose pairing with M_n(S) reproduces F, that is, to
min <C, X> >= 0 over X in M_n(S)+ with trace X = 1 for C = Re F.
Since M_n(S) = M_n (x) S, the same interior-point kernel answers it at
every level, with the complement of M_n(S)_h built blockwise; the solve
stops at the first witness or Farkas certificate that re-checks, and lifts
a primal point into M_n(S)+ only when that point could refute.  On the
full algebra the Choi matrix decides directly, and the certificate of a
non-CP map is the bottom eigenprojector of C; on a proper subsystem the
solve's second start point is that projector lifted into M_n(S)+, so a
functional or grid it refutes takes no Newton step.

Dual order-unit radii, the smallest r with r (I_n (x) delta) - g CP, take
the same solve at every level n (Charnes-Cooper: r = max <G, X> over X in
M_n(S)+ with <I_n (x) delta, X> = 1), or a generalized eigenvalue on the
full algebra.  That ambient eigenvalue, from one Cholesky factor of delta
applied block by block, bounds the radius on M_n(S) from above and is the
radius when its top eigenprojector lies in M_n(S); it is the solve's own
start point with C = -G (r = -t), so such a radius takes no Newton step.
Like a CP verdict, the solve stops at its first point whose evidence
re-checks, here a radius certified within one module precision, 1e-6;
failing that, the lifted last iterate must witness that no radius up to
the search cap exists, or the radius is undecided.  The sweeps that check
the trace state to be an Archimedean matrix order unit of S' with these
radii and verdicts live in :mod:`opsys.suites`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg as la
from . import _search
from .errors import DimensionError, UndecidedError, ValidationError
from .feasibility import FeasibilityProblem, FeasibilityVerdict, _check_tol
from .systems import (
    DEFAULT_TOL,
    OperatorSystem,
    _domination_radii,
    _require_member,
    _unit_congruence,
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
        self.n = self._level_of(m)
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

    def _level_of(self, m: np.ndarray) -> int:
        return level_of(self.system, m)

    def pair(self, x) -> complex:
        """trace(F x) without a membership check (internal fast path)."""
        return complex(np.einsum("ij,ji->", self.riesz, la.as_matrix(x)))

    # -- involution and arithmetic --------------------------------------------

    def _like(self, riesz: np.ndarray):
        return type(self)(self.system, riesz, _canonical=True)

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

    def _level_of(self, m: np.ndarray) -> int:
        if m.shape != (self.system.d, self.system.d):
            raise DimensionError(
                f"riesz matrix of shape {m.shape} for a system in M_{self.system.d}"
            )
        return 1

    @classmethod
    def zero(cls, system: OperatorSystem) -> "Functional":
        return cls(system, np.zeros((system.d, system.d)), _canonical=True)

    def __call__(self, x) -> complex:
        """trace(F x) for x in S; raises MembershipError otherwise."""
        return self.pair(_require_member(self.system, x))


# ----------------------------------------------------------------------------
# The section kernel: min <C, X> over X in M_n(S)+ with <N, X> = 1
# ----------------------------------------------------------------------------

#: Newton-step cap, relative stopping tolerance (duality gap and residuals)
#: and fraction of the step to the PSD boundary of the section kernel.
_SDP_ITERS, _SDP_TOL, _SDP_STEP = 50, 1e-10, 0.98

#: How far below the least generalized eigenvalue of (C, N) the dual start
#: t0 lies, in units of their spread.
_START_MARGIN = 0.3

#: Running totals of the section kernel: counts only, so reports stay stable.
_SDP_COUNTS = dict.fromkeys(
    ("solves", "iterations", "certified", "breakdowns", "cap_hits"), 0
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
    ended by a certificate, breakdowns, cap stops), or those added
    ``since``.  A solve that is neither certified, broken down nor capped
    converged."""
    since = since or dict.fromkeys(_SDP_COUNTS, 0)
    return {key: value - since[key] for key, value in _SDP_COUNTS.items()}


def _step(li: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """``_SDP_STEP`` of each step from a positive definite m along dm to the
    boundary of the PSD cone, at most 1, over the leading axis, given
    li = inv(cholesky(m)): min(1, _SDP_STEP / -lam) for the least
    eigenvalue lam of li dm li^*, and 1 when lam >= 0."""
    lam = np.linalg.eigvalsh(li @ dm @ li.conj().swapaxes(-1, -2))[..., 0]
    return _SDP_STEP / np.maximum(-lam, _SDP_STEP)


def _start_pencil(system: OperatorSystem, c: np.ndarray, n: np.ndarray | None):
    """The one generalized eigendecomposition of (C, N) at the kernel's
    start point: its eigenvalues, ascending, and a function that forms the
    bottom generalized eigenprojector w w^* (C w = lambda_min N w,
    w^* N w = 1) when it is needed; ``None`` when N has no Cholesky factor.
    N = I (``n`` None: every CP and positivity solve) takes one eigh of C.
    Any other N is I_m (x) N1 for its level-1 block N1 (a radius's
    I_m (x) Re delta): N1 = L L^* is factored once by
    :func:`_unit_congruence`, which applies L^-1 block by block, and one
    eigh of L^-1 C L^-* gives the eigenvalues, whose bottom eigenvector v
    maps back to w = L^-* v."""
    if n is None:
        lam, v = np.linalg.eigh(c)
        return lam, lambda: np.outer(v[:, 0], v[:, 0].conj())
    congruence = _unit_congruence(n[:system.d, :system.d])
    if congruence is None:
        return None
    try:
        lam, v = np.linalg.eigh(congruence(c))
    except np.linalg.LinAlgError:  # an overflowing congruence
        return None
    if not np.isfinite(lam).all():
        return None
    return lam, lambda: congruence(np.outer(v[:, 0], v[:, 0].conj()), adjoint=True)


def _tally(solve: _SectionSolve) -> _SectionSolve:
    """Add one solve to the running totals of :func:`kernel_counts`."""
    _SDP_COUNTS["solves"] += 1
    _SDP_COUNTS["iterations"] += solve.iterations
    _SDP_COUNTS["certified"] += solve.stop == "certified"
    _SDP_COUNTS["breakdowns"] += solve.stop == "breakdown"
    _SDP_COUNTS["cap_hits"] += solve.stop == "cap"
    return solve


def _section_sdp(
    system: OperatorSystem, c: np.ndarray, n: np.ndarray | None, *, certify=None
) -> _SectionSolve:
    """min <C, X> over X in M_n(S)+ with <N, X> = 1 (Hermitian C of size
    n d, n read off the size of C; N = I_m (x) N1 for a level-1 N1, or
    ``None`` for the identity) and its Krein dual max t over
    C - K - t N >= 0, K in M_n(S)_h^perp = (M_n)_h (x) S_h^perp: infeasible
    primal-dual path following, HKM direction, Mehrotra predictor-corrector
    (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996), with
    sigma raised to 1 - min(step lengths) so a predictor blocked at the
    boundary re-centers.
    The start point is one generalized eigendecomposition of (C, N)
    (:func:`_start_pencil`).  ``certify(x, k, t)``, when given, sees its
    two points, then the iterate after every Newton step; the first result
    that is not ``None`` ends the solve as "certified" and is returned as
    ``evidence``.  Both start points have K = 0, passed as ``k`` None, and
    t = lambda_min(C, N), the exact dual value there (for N = I the least
    eigenvalue of C): X = I / <N, I>, then the bottom generalized
    eigenprojector, where <C, X> = t.  With no eigendecomposition (N
    without a Cholesky factor) X = I / <N, I> alone is tried, with K = 0
    as a zero matrix and t = 0.  A solve decided there takes 0 steps and
    reads no constraints.  Any other solve reads the level-n complement
    stack, which the system builds once per level and keeps
    (:meth:`OperatorSystem._level_stack`; one over its byte budget is built
    for the solve).  The Newton steps then start dual feasible, from
    t0 = lambda_min - ``_START_MARGIN`` times the spread of the same
    eigenvalues (at least 1e-3 max(1, ||C||_F)) and Z = C - t0 N, and keep
    C - K - t N = Z to rounding; with no eigendecomposition they start from
    y = 0 and Z = ||C||_F I instead.  The constraints are one real matrix,
    so the pairings, A*(y) and the Schur matrix are real products.
    The optimum is often rank-deficient: a failed factorization ends the
    solve as "breakdown" with the last iterate, ``_SDP_ITERS`` steps as
    "cap"; neither raises, and callers re-check every point they use."""
    d = len(c)
    pencil = _start_pencil(system, c, n)
    # I lies in M_n(S), so X = I / <N, I> starts primal feasible when <N, I> > 0
    x = np.eye(d, dtype=complex) / (d if n is None else max(np.trace(n).real, 1e-6))
    if certify is not None:
        # the start points, the eigenprojector formed only when X = I / <N, I>
        # does not decide
        if pencil is None:
            points, k0, t0 = (lambda: x,), np.zeros((d, d), dtype=complex), 0.0
        else:
            points, k0, t0 = (lambda: x, pencil[1]), None, float(pencil[0][0])
        for point in points:
            point = point()
            evidence = certify(point, k0, t0)
            if evidence is not None:
                return _tally(_SectionSolve(point, np.zeros((d, d), dtype=complex),
                                            t0, 0, "certified", evidence))
    if n is None:
        n = la.identity(d)
    a = np.concatenate([system._level_stack("complement", d // system.d), n[None]],
                       dtype=complex)
    k = len(a)
    # the constraints as one real matrix: Re <A_i, X> is a real dot product
    # of the (re, im) views, and one product over the rows of a_rows applies
    # every A_i to a matrix
    flat, a_rows = a.reshape(k, -1).view(float), a.reshape(k * d, d)
    b = np.zeros(k)
    b[-1] = 1.0

    def pairings(x):
        return flat @ x.reshape(-1).view(float)

    def combine(y):
        return (y @ flat).view(complex).reshape(d, d)

    scale = max(1.0, la.frobenius(c))
    y = np.zeros(k)
    if pencil is not None:
        # dual feasible from the start: Z = C - A*(y) for y = (0, ..., 0, t0)
        lam = pencil[0]
        y[-1] = lam[0] - _START_MARGIN * max(lam[-1] - lam[0], 1e-3 * scale)
        z = c - y[-1] * n
        z = (z + z.conj().T) / 2.0
    else:
        z = scale * np.eye(d, dtype=complex)
    # y without t, whose A*(yk) is K, and the (X, Z) and (dX, dZ) stacks of
    # the step lengths, allocated once
    yk = np.zeros(k)
    xz, dxz = np.empty((2, 2, d, d), dtype=complex)
    stop, it, evidence = "cap", 0, None
    try:
        for it in range(_SDP_ITERS + 1):
            if it and certify is not None:
                yk[:-1] = y[:-1]
                evidence = certify(x, combine(yk), float(y[-1]))
                if evidence is not None:
                    stop = "certified"
                    break
            rp, rd = b - pairings(x), c - combine(y) - z
            primal = np.vdot(c, x).real
            if (abs(primal - y[-1]) <= _SDP_TOL * max(1.0, abs(primal))
                    and np.linalg.norm(rp) <= _SDP_TOL
                    and np.linalg.norm(rd) <= _SDP_TOL * scale):
                stop = "converged"
                break
            if it == _SDP_ITERS:
                break
            # x and z stay fixed through the predictor and the corrector:
            # one factorization of each serves both step lengths, and
            # Z^-1 = L^-* L^-1 for Z = L L^*
            xz[0], xz[1] = x, z
            li = np.linalg.inv(np.linalg.cholesky(xz))
            zi = li[1].conj().T @ li[1]
            mu = np.vdot(x, z).real / d
            # schur[i, j] = Re tr(A_i X A_j Z^-1) = Re <(A_j Z^-1)^*, A_i X>
            ax = (a_rows @ x).reshape(k, -1).view(float)
            azi = (a_rows @ zi).reshape(k, d, d)
            ziah = np.conjugate(azi.swapaxes(1, 2), order="C")
            schur = ax @ ziah.reshape(k, -1).view(float).T
            xrz = x @ rd @ zi

            def direction(g):
                # dZ = R_d - A*(dy); dX = G - X + X A*(dy) Z^-1 with A(dX) = r_p,
                # written into the (dX, dZ) stack for the step lengths
                dy = np.linalg.solve(schur, b - pairings(g))
                ady = combine(dy)
                dx = g - x + x @ ady @ zi
                np.add(dx, dx.conj().T, out=dxz[0])
                dxz[0] /= 2.0
                np.subtract(rd, ady, out=dxz[1])
                if not np.isfinite(dxz).all():
                    raise np.linalg.LinAlgError("non-finite Newton direction")
                return dy

            dy = direction(-xrz)
            ap, ad = _step(li, dxz)
            dx, dz = dxz
            sigma = (np.vdot(x + ap * dx, z + ad * dz).real / d / mu) ** 3
            sigma = max(sigma, 1.0 - min(ap, ad))
            dy = direction(sigma * mu * zi - xrz - dx @ dz @ zi)
            ap, ad = _step(li, dxz)
            x, y, z = x + ap * dxz[0], y + ad * dy, z + ad * dxz[1]
    except np.linalg.LinAlgError:
        stop = "breakdown"
    yk[:-1] = y[:-1]
    return _tally(_SectionSolve(x, combine(yk), float(y[-1]), it, stop, evidence))


def _shift_reaches(system: OperatorSystem, x: np.ndarray, s: float) -> bool:
    """True iff :func:`_lift` shifts x by at least s > 0, that is, iff
    P x + s I is not positive definite for the blockwise projection P onto
    M_n(S): one projection and one Cholesky attempt, no eigensolve."""
    px = system.project_level(x)
    try:
        np.linalg.cholesky(px + s * np.eye(len(px)))
    except np.linalg.LinAlgError:
        return True
    return False


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
    x = _lift(system, _section_sdp(system, fr, None).x)
    return float(f.pair(x).real), x


def _lower_bound(system: OperatorSystem, c: np.ndarray, w: np.ndarray) -> float:
    """A lower bound for min{<C, X> : X in M_n(S)+, trace X = 1} from a
    Hermitian W: lambda_min(W) minus the norm of P(W - C), with P the
    blockwise projection onto M_n(S).  For X in the section,
    <C, X> = <W, X> - <P(W - C), X> >= lambda_min(W) - ||P(W - C)|| ||X||_F,
    and ||X||_F <= trace X = 1.  W = C (K = 0, as at a radius's start
    points) has nothing to project."""
    off = w - c
    if not off.any():
        return la.lambda_min(w)
    return la.lambda_min(w) - float(np.linalg.norm(system.level_coords(off)))


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
    needs a point of S+ where Re f < -tol: the Farkas certificate
    normalized, or else the kernel's last primal point lifted into S+,
    which decides the gray band that the certificate's 10 tol margin
    leaves open (a minimum between -10 tol and -tol).  Both come before
    any Newton step when the solve's start points decide: F itself as the
    witness (lambda_min(F) >= -tol), or as the certificate the unit
    (trace F < 0) or the bottom eigenprojector of F lifted into S+, the
    full-algebra certificate carried over.  A solve that ends with
    neither (a breakdown or the cap) is ``None``, never an uncertified
    True.  On the full algebra the verdict is lambda_min(F) >= -tol.  A
    tolerance that is not positive and finite raises ValidationError.
    """
    _check_tol(tol)
    if not la.is_hermitian(f.riesz, max(tol, 1e-9)):
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
    """Hermitian real-orthonormal basis of M_n(S)_h, shape
    (n^2 * dim, n*d, n*d): read-only, and kept on the system per level
    unless it exceeds the system's byte budget."""
    return system._level_stack("hermitian", n)


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
    its two start points included, that gives one of:

    * feasible: W = C - K for the dual point K has :func:`_lower_bound`
      lambda_min(W) - ||P(W - C)|| >= -tol, with P the blockwise projection
      onto M_n(S);
    * infeasible: the primal point lifted into M_n(S)+, Z, has
      <C, Z> < -10 tol ||Z||_F.  Z is PSD and lies in M_n(S)_h, the span of
      the Choi problem's constraints, so it is a Farkas certificate in the
      sense of :class:`FeasibilityVerdict`.

    Both start points have K = 0, so the witness there is C itself and its
    bound is lambda_min(C), the kernel's t: a Choi matrix with
    lambda_min(C) >= -tol is feasible with ``iterations`` 0, as on a full
    algebra.  The first start point, X = I / nd, refutes one with
    trace C < -10 tol sqrt(nd); the second, the bottom eigenprojector of C
    lifted into M_n(S)+, is the proper-subsystem form of the full-algebra
    certificate of :func:`cp_verdict`.  C lies in M_n(S), so a PSD point x
    lifts to Z with <C, Z> a positive multiple of <C, x> + s trace C for
    the shift s = max(0, -lambda_min(P x)) of :func:`_lift`.  With
    trace C >= 0, Z cannot refute when <C, x> >= 0, nor when s reaches
    -<C, x> / trace C (:func:`_shift_reaches`, one Cholesky attempt), and
    x is then not lifted: no eigensolve is spent on the eigenprojector of
    a CP grid, whose lift the shift swamps.  A solve that converges,
    breaks down or reaches its cap with neither is "undecided".  ``gap``
    is max(0, -lower bound) at the last dual point and ``iterations``
    counts Newton steps."""

    def certify(x, k, t):
        if k is None:  # a start point: K = 0, and t = lambda_min(C) (N = I)
            w, lower = choi, t
        else:
            w = choi - k
            lower = _lower_bound(system, choi, w)
        if lower >= -tol:
            return FeasibilityVerdict("feasible", w, max(0.0, -lower))
        cx, trace = np.vdot(x, choi).real, np.trace(choi).real
        if (trace >= 0 and cx >= 0) or (trace > 0 and _shift_reaches(system, x, -cx / trace)):
            return None
        z = _lift(system, x)
        if np.vdot(z, choi).real < -10 * tol * la.frobenius(z):
            return FeasibilityVerdict("infeasible", None, -lower, certificate=z)
        return None

    solve = _section_sdp(system, choi, None, certify=certify)
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
#: it before a radius is certified.
_DUAL_RADIUS_PRECISION = 1e-6


def _radius(
    system: OperatorSystem, dm: np.ndarray, gm: np.ndarray, tol: float
) -> tuple[float | None, np.ndarray | None]:
    """The smallest r >= 0 with r D - G positive on M_n(S)+ (D = I_n (x) Re
    delta, G the Choi matrix of g) over a proper subsystem, from one kernel
    solve with C = -G and N = D: (r, None) for an r up to the search cap
    (``_search._RADIUS_MAX``) at the first point where r D - G - K
    certifies r D - G >= -tol and the lifted primal point x lies in M_n(S)+
    with <G, x>/<D, x> >= r - ``_DUAL_RADIUS_PRECISION``.  Else (None, x)
    for a witness x in M_n(S)+ (the lifted point of a radius above the cap,
    or of the last iterate) with <D, x> >= 0 and cap <D, x> - <G, x> <
    -tol tr x, so <r D - G, x> < -tol tr x at every r <= cap; else
    UndecidedError.

    Each point tries r = max(0, -t).  At the kernel's start points t is
    lambda_min(-G, D), so r is the ambient radius r0 = lambda_max(L^-1 G
    L^-*) for D = L L^*, and the second start point is the top generalized
    eigenprojector of (G, D) with K = 0: r0 bounds the radius on M_n(S)
    from above and is certified there when that projector lies in M_n(S),
    with no Newton step; otherwise its lifted point leaves the bracket
    open.  A singular delta has no such eigendecomposition, and its one
    start point tries r = 0.  A point is passed over without the
    eigensolve of the lower bound when its raw primal point does not close
    the bracket yet, or when <W, x> < -tol tr x for W = r D - G - K, which
    forces lambda_min(W) < -tol since x is PSD; the last iterate
    (converged, capped or broken down) is checked in full."""

    def closes(x, r):
        dx = np.vdot(dm, x).real
        return dx > 0 and max(0.0, np.vdot(gm, x).real / dx) >= r - _DUAL_RADIUS_PRECISION

    def certify(x, k, t, gate=True):
        r = max(0.0, -t)
        if gate and not closes(x, r):
            return None
        c = r * dm - gm
        w = c if k is None else c - k
        # lambda_min(W) <= <W, x> / tr x for a PSD x, so the lower bound fails too
        if gate and np.vdot(w, x).real < -tol * np.trace(x).real:
            return None
        if not _lower_bound(system, c, w) >= -tol:  # a NaN bound fails too
            return None
        x = _lift(system, x)
        return (r, x) if closes(x, r) and cone_member(system, x, tol) else None

    solve = _section_sdp(system, -gm, dm, certify=certify)
    found = solve.evidence if solve.stop == "certified" else certify(
        solve.x, solve.k, solve.t, gate=False)
    r, x = found or (None, _lift(system, solve.x))
    cap = _search._RADIUS_MAX
    if r is not None and r <= cap:
        return r, None
    dx = np.vdot(dm, x).real
    if (cone_member(system, x, tol) and dx >= 0
            and cap * dx - np.vdot(gm, x).real < -tol * np.trace(x).real):
        return None, x
    raise UndecidedError(f"radius solve ended ({solve.stop}) with no certificate or witness")


def dual_order_unit_radius(
    delta: Functional,
    g,
    level: int | None = None,
) -> float | None:
    """Smallest r >= 0 such that r * (I_n (x) delta) - g is positive, at
    positivity tolerance ``DEFAULT_TOL``.

    ``g`` is a Hermitian :class:`MatrixFunctional` over the system of delta.
    ``level`` defaults to the level of g; a level-1 g (a functional) is
    lifted diagonally to any requested level, and a g of level n > 1 takes
    no level but n.  Another level, or one below 1, raises ValidationError.
    For a Hermitian delta, the Riesz matrix G of g goes to the primal
    radius routine on the full algebra, which factors Re delta once and
    builds no Kronecker product at any level, and with D = I_n (x) Re delta
    to one kernel solve (:func:`_radius`) on M_n(S), whose start point is
    one generalized eigendecomposition of (-G, D) through the same level-1
    factor: the ambient radius and its top generalized eigenprojector.  A
    radius whose projector lies in M_n(S) is certified there, at 0 Newton
    steps, and a singular Re delta has no such start and tries r = 0.  Radii are closed forms
    on the full algebra and, on a proper subsystem, certified within
    ``_DUAL_RADIUS_PRECISION`` (1e-6) at the first closing iterate.
    ``None`` means no r up to the search cap (``_search._RADIUS_MAX``, 1e6)
    works, on a proper subsystem by a checked witness in M_n(S)+.  For a
    non-Hermitian delta, r delta - g is not Hermitian at any r > 0, so the
    :func:`cp_verdict` of -g decides: 0.0 or ``None``.  A solve or verdict
    that decides neither (a breakdown, the step cap) raises UndecidedError.
    """
    if not la._is_hermitian(g.riesz):
        raise ValidationError("g must be a Hermitian functional or matrix functional")
    system, tol = delta.system, DEFAULT_TOL
    if g.system is not system:
        raise ValidationError("delta and g live on different systems")
    n = g.n if level is None else level
    if n < 1 or g.n not in (1, n):
        raise ValidationError(f"level {level} for a g of level {g.n}")
    if g.n == 1 and n > 1:
        g = MatrixFunctional.diag(g, n)
    gm = la.hermitian_part(g.riesz)
    if not la._is_hermitian(delta.riesz):
        status = cp_verdict(MatrixFunctional(system, -gm, _canonical=True), tol).status
        if status == "undecided":
            raise UndecidedError("the CP verdict of -g at r = 0 is undecided")
        return 0.0 if status == "feasible" else None
    unit = la.hermitian_part(delta.riesz)
    if system.is_full:
        return _domination_radii(unit, tol, _DUAL_RADIUS_PRECISION)(gm)
    dm = np.kron(np.eye(n), unit) if n > 1 else unit
    return _radius(system, dm, gm, tol)[0]


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
