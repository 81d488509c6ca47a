"""Concrete operator systems S inside M_d and their matrix-level cones.

A system is stored through an orthonormal basis (trace inner product) of an
adjoint-closed unital subspace of M_d.  Elements of the matrix level M_n(S)
are handled as flattened (n*d) x (n*d) arrays; block (i, j) of a level
element occupies rows [i*d, (i+1)*d) and columns [j*d, (j+1)*d), i.e. the
flattened form of a grid ``g`` is ``sum_ij E_ij (x) g[i][j]``.  The same
block convention is used for Choi matrices in the dual module.

:class:`OperatorSystem` owns every map between M_n(S) and basis coordinates:
blockwise coordinates and projection, and the adjoint to Riesz matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from ._search import check_search_bounds, smallest_passing
from .errors import DimensionError, HermitianError, MembershipError, ParseError, ValidationError

__all__ = [
    "OperatorSystem",
    "make_operator_system",
    "named_system",
    "system_from_json",
    "level_of",
    "to_blocks",
    "from_blocks",
    "subspace_member",
    "cone_member",
    "order_unit_radius_level",
    "is_matrix_order_unit",
    "MatrixOrderUnitReport",
    "random_element",
    "random_hermitian_element",
    "random_positive_element",
    "random_system",
]

#: Default tolerance for subspace residuals and eigenvalue floors: one order
#: above eigensolver error, far below the O(1) scale of test matrices.
DEFAULT_TOL = 1e-8

_GS_RANK_TOL = 1e-9

#: Bisection precision of an order-unit radius over a singular unit.
_RADIUS_PRECISION = 1e-8

#: Largest order-unit radius searched for; above it x is not dominated.
_RADIUS_MAX = 1e6

#: Fixed seed for the deterministic Hermitian sampling in
#: :func:`is_matrix_order_unit` when the caller does not inject a generator.
_MOU_SAMPLE_SEED = 20240917


class OperatorSystem:
    """An adjoint-closed unital subspace of M_d with an orthonormal basis.

    ``basis`` is a read-only array of shape (dim, d, d); a complex array
    passed in is kept, not copied, and made read-only (``full:d`` builds
    its basis only on demand, see :func:`named_system`).  Immutable after
    construction; all operations on it are pure functions, so instances are
    safe to share across threads.
    """

    def __init__(self, d: int, basis, name: str | None = None):
        if d < 1:
            raise DimensionError(f"ambient dimension must be positive, got {d}")
        b = np.asarray(basis, dtype=complex)
        if b.ndim != 3 or b.shape[1:] != (d, d):
            raise DimensionError(f"basis of shape {b.shape} in ambient M_{d}")
        if not len(b):
            raise ValidationError("a system needs at least one basis element")
        if not np.isfinite(b).all():
            raise ValidationError("basis with a non-finite entry")
        b.flags.writeable = False
        self._init_fields(d, len(b), name, b)

    def _init_fields(self, d: int, dim: int, name: str | None, basis) -> None:
        """The fields of every system; a subclass that builds its basis on
        demand passes None."""
        self.d = int(d)
        self.dim = dim
        self.name = name
        self._basis: np.ndarray | None = basis
        self._hermitian_basis: np.ndarray | None = None
        self._complement_basis: np.ndarray | None = None

    # -- structure -----------------------------------------------------------

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def unit(self) -> np.ndarray:
        return la.identity(self.d)

    @property
    def is_full(self) -> bool:
        """True on the full algebra M_d, whose projection is the identity at
        every level: :meth:`residuals` and :meth:`project_level` skip it."""
        return self.dim == self.d * self.d

    def __repr__(self):  # pragma: no cover - debugging aid
        tag = self.name or "system"
        return f"OperatorSystem({tag}, d={self.d}, dim={self.dim})"

    # -- coordinates ---------------------------------------------------------

    def from_coords(self, c) -> np.ndarray:
        return self._combine(np.asarray(c, dtype=complex)[None])[0]

    def _combine(self, coords: np.ndarray) -> np.ndarray:
        """sum_k c_k B_k for every row c of a (k, dim) array, shape (k, d, d),
        by one matrix product."""
        return (coords @ self.basis.reshape(self.dim, -1)).reshape(-1, self.d, self.d)

    def _stack(self, xs) -> np.ndarray:
        m = np.asarray(xs, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (self.d, self.d):
            raise DimensionError(f"expected a stack of {self.d}x{self.d} matrices, got {m.shape}")
        return m

    def stack_coords(self, xs) -> np.ndarray:
        """Coordinates of every matrix of a (k, d, d) stack, shape (k, dim),
        by one matrix product."""
        m = self._stack(xs)
        flat = m.reshape(len(m), -1)
        # X B^H is formed as the conjugate of B X^H, so the basis is not copied
        return (self.basis.reshape(self.dim, -1) @ flat.conj().T).conj().T

    def residual(self, x) -> float:
        """Frobenius distance from a d x d matrix to the system."""
        return float(self.residuals(la.as_matrix(x)[None])[0])

    def residuals(self, xs) -> np.ndarray:
        """Frobenius distances to the system of every matrix of a (k, d, d)
        stack, shape (k,), by two matrix products (on a full algebra zero, or
        NaN for a matrix with a non-finite entry)."""
        m = self._stack(xs)
        if self.is_full:
            return np.where(np.isfinite(m).all(axis=(1, 2)), 0.0, np.nan)
        off = m - self._combine(self.stack_coords(m))
        return np.linalg.norm(off.reshape(len(m), -1), axis=1)

    def level_coords(self, x) -> np.ndarray:
        """Coordinates of the blocks of an (n d) x (n d) matrix, row i n + j:
        their norm is that of its orthogonal projection onto M_n(S)."""
        return self.stack_coords(to_blocks(x, self.d).reshape(-1, self.d, self.d))

    def project_level(self, x) -> np.ndarray:
        """The blockwise orthogonal projection of an (n d) x (n d) matrix onto
        M_n(S) (n is read off the size of x): x itself on a full algebra."""
        if self.is_full:
            return x
        d, n = self.d, len(x) // self.d
        return from_blocks(self._combine(self.level_coords(x)).reshape(n, n, d, d))

    def riesz_of_values(self, values) -> np.ndarray:
        """The adjoint of the coordinate map: R in M_n(S) with trace(R_ij B_k) =
        ``values[i n + j, k]``, blockwise sum_k values[i n + j, k] B_k^*."""
        n, d = math.isqrt(len(values)), self.d
        # sum_k v_k conj(B_k) is the conjugate of sum_k conj(v_k) B_k, so the
        # basis is not copied; entry (p, q) of B_k^* is conj(B_k)[q, p]
        flat = self._combine(np.conj(values)).conj()
        return flat.reshape(n, n, d, d).transpose(0, 3, 1, 2).reshape(n * d, n * d)

    def level_values(self, x) -> np.ndarray:
        """trace(x_ij B_k), the conjugate coordinates of x_ij^*, for every block
        x_ij (row i n + j); :meth:`riesz_of_values` inverts them on M_n(S)."""
        blocks = to_blocks(x, self.d).reshape(-1, self.d, self.d)
        return self.stack_coords(blocks.conj().swapaxes(1, 2)).conj()

    @property
    def hermitian_basis(self) -> np.ndarray:
        """Real-orthonormal Hermitian basis of the real subspace S_h,
        stacked as an array of shape (dim, d, d)."""
        if self._hermitian_basis is None:
            cands = []
            for b in self.basis:
                cands.append(la.hermitian_part(b))
                cands.append(la.antihermitian_part(b))
            ortho = la.orthonormalize(cands, _GS_RANK_TOL)
            if len(ortho) != self.dim:
                raise ValidationError(
                    f"Hermitian basis has rank {len(ortho)}, expected {self.dim};"
                    " span is not adjoint-closed"
                )
            hb = np.stack([la.hermitian_part(h) for h in ortho])
            hb.flags.writeable = False
            self._hermitian_basis = hb
        return self._hermitian_basis

    @property
    def complement_basis(self) -> np.ndarray:
        """Real-orthonormal Hermitian basis of S_h^perp, the Hermitian
        matrices orthogonal to S, stacked as an array of shape
        (d^2 - dim, d, d): a spanning set of the Hermitian matrices is
        projected off S_h, then the leading right singular vectors of its
        real view are kept (so they stay Hermitian)."""
        if self._complement_basis is None:
            d, m = self.d, self.dim
            units = np.eye(d * d).reshape(-1, d, d)
            units_t = units.swapaxes(1, 2)
            cands = np.concatenate([units + units_t, 1j * (units - units_t)])
            cands = cands.reshape(2 * d * d, -1)
            hb = self.hermitian_basis.reshape(m, -1)
            vh = np.linalg.svd((cands - (cands @ hb.conj().T).real @ hb).view(float))[2]
            cb = vh[:d * d - m].copy().view(complex).reshape(-1, d, d)
            cb.flags.writeable = False
            self._complement_basis = cb
        return self._complement_basis

    def hermitian_coords(self, x) -> np.ndarray:
        """Real coordinates of a Hermitian element over the Hermitian basis."""
        m = la.as_matrix(x)
        return np.real(self.hermitian_basis.reshape(self.dim, -1) @ m.reshape(-1).conj())


def make_operator_system(generators, d: int, *, name: str | None = None) -> OperatorSystem:
    """Smallest operator system containing the generators.

    Spans generators, their adjoints and the identity, then orthonormalizes
    by Gram-Schmidt with rank tolerance ``_GS_RANK_TOL``.
    """
    cands = [la.identity(d)]
    for g in generators:
        m = la.as_matrix(g)
        if m.shape != (d, d):
            raise DimensionError(f"generator of shape {m.shape} in ambient M_{d}")
        if not np.isfinite(m).all():
            raise ValidationError("generator with a non-finite entry")
        cands.append(m)
        cands.append(m.conj().T)
    return OperatorSystem(d, la.orthonormalize(cands, _GS_RANK_TOL), name=name)


# ----------------------------------------------------------------------------
# Named systems and the JSON wire format
# ----------------------------------------------------------------------------

def _full_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the basis Gram-Schmidt gives M_d from the matrix units puts
    each entry of a matrix, in closed form.

    Gram-Schmidt over I and the units E_ij, E_ji in row-major order keeps
    I/sqrt(d), then for each row i: the diagonal unit E_ii projected off I
    and the earlier diagonal units, which is the normalized Helmert vector
    e_i - (1/m) sum_{k>=i} e_k with m = d - i (none for the last row), and
    the pairs E_ij, E_ji for j > i.  Every other candidate is a repeat.

    Returns the orthogonal d x d Helmert matrix H (row r is the diagonal of
    the r-th diagonal basis element), the basis indices ``slots`` of those d
    elements, and for every basis index the flat index ``perm`` of its unit
    (at ``slots[r]``, of the diagonal entry r)."""
    rows = np.arange(d - 1)
    m = d - rows
    # row i starts at slot 1 + sum_{t<i} (2(d - t) - 1) = 1 + i(2d - i)
    slots = np.concatenate([[0], 1 + rows * (2 * d - rows)])
    helmert = np.zeros((d, d))
    helmert[0] = 1.0 / np.sqrt(d)
    helmert[rows + 1, rows] = np.sqrt((m - 1) / m)
    i, j = np.triu_indices(d, 1)
    helmert[i + 1, j] = -1.0 / np.sqrt(m[i] * (m[i] - 1))
    # E_ij, E_ji sit at slots 2(j - i) - 1 and 2(j - i) past row i's start
    perm = np.empty(d * d, dtype=np.intp)
    perm[slots[i + 1] + 2 * (j - i) - 1] = i * d + j
    perm[slots[i + 1] + 2 * (j - i)] = j * d + i
    perm[slots] = np.arange(d) * (d + 1)
    return helmert, slots, perm


def _full_basis(d: int) -> np.ndarray:
    """The (d^2, d, d) basis of :func:`_full_layout` written out."""
    helmert, slots, perm = _full_layout(d)
    basis = np.zeros((d * d, d * d), dtype=complex)
    basis[np.arange(d * d), perm] = 1.0
    basis[slots[:, None], np.arange(d) * (d + 1)] = helmert
    return basis.reshape(d * d, d, d)


class _FullAlgebra(OperatorSystem):
    """M_d over the basis of :func:`_full_basis`, with closed-form
    coordinates: the Helmert transform of the diagonal plus a fixed
    permutation of the off-diagonal entries, and back.  Every other
    coordinate map of :class:`OperatorSystem` runs through these two; the
    (d^2, d, d) basis array is built only when something asks for it."""

    def __init__(self, d: int, name: str | None = None):
        self._init_fields(d, d * d, name, None)
        self._helmert, self._slots, self._perm = _full_layout(d)

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            b = _full_basis(self.d)
            b.flags.writeable = False
            self._basis = b
        return self._basis

    def stack_coords(self, xs) -> np.ndarray:
        flat = self._stack(xs).reshape(-1, self.dim)
        out = flat[:, self._perm]
        out[:, self._slots] = flat[:, ::self.d + 1] @ self._helmert.T
        return out

    def _combine(self, coords: np.ndarray) -> np.ndarray:
        flat = np.empty((len(coords), self.dim), dtype=complex)
        flat[:, self._perm] = coords
        flat[:, ::self.d + 1] = coords[:, self._slots] @ self._helmert
        return flat.reshape(-1, self.d, self.d)


def named_system(name: str) -> OperatorSystem:
    """Built-in systems: ``full:d``, ``pauli-span``, ``diag:d``, ``toeplitz:d``.

    ``full:d`` gets its orthonormal basis in closed form (:func:`_full_basis`),
    equal to rounding and in the same order to what
    :func:`make_operator_system` gives from the matrix units, and its
    coordinates in closed form (:class:`_FullAlgebra`); the others are
    built by Gram-Schmidt from their generators.  ``pauli-span`` is the
    system generated by E_12 inside M_2, i.e. the span of {I, sigma_x,
    sigma_y}.
    """
    kind, _, arg = name.partition(":")
    if kind == "pauli-span":
        return make_operator_system([la.basis_matrix(2, 0, 1)], 2, name=name)
    try:
        d = int(arg)
    except ValueError:
        raise ParseError(f"unknown system name {name!r}") from None
    if d < 1:
        raise ParseError(f"system size must be positive in {name!r}")
    if kind == "full":
        return _FullAlgebra(d, name=name)
    if kind == "diag":
        gens = [la.basis_matrix(d, i, i) for i in range(d)]
    elif kind == "toeplitz":
        gens = []
        for k in range(1, d):
            t = np.zeros((d, d), dtype=complex)
            for i in range(d - k):
                t[i, i + k] = 1.0
            gens.append(t)
    else:
        raise ParseError(f"unknown system name {name!r}")
    return make_operator_system(gens, d, name=name)


def system_from_json(obj) -> OperatorSystem:
    """Build a system from ``{"d": int, "generators": [matrix...]}``."""
    if not isinstance(obj, dict) or "d" not in obj:
        raise ParseError('system JSON must be an object with "d"')
    d = obj["d"]
    if not isinstance(d, int) or d < 1:
        raise ParseError('"d" must be a positive integer')
    gens = obj.get("generators", [])
    if not isinstance(gens, list):
        raise ParseError('"generators" must be an array of matrices')
    gens = [la.decode_matrix(g) for g in gens]
    for g in gens:
        if g.shape != (d, d):
            raise ParseError(f"generator of shape {g.shape} in ambient M_{d}")
    return make_operator_system(gens, d)


# ----------------------------------------------------------------------------
# Matrix levels: flattened elements of M_n(S)
# ----------------------------------------------------------------------------

def level_of(system: OperatorSystem, x) -> int:
    """Matrix level n of a flattened element of M_n(S)."""
    m = la.as_matrix(x)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"level element must be square, got {m.shape}")
    n, rem = divmod(m.shape[0], system.d)
    if rem or n < 1:
        raise DimensionError(
            f"size {m.shape[0]} is not a multiple of ambient dimension {system.d}"
        )
    return n


def to_blocks(x, d: int) -> np.ndarray:
    """Grid view of a flattened level element, shape (n, n, d, d)."""
    m = la.as_matrix(x)
    n, rem = divmod(m.shape[0], d)
    if rem or m.shape[0] != m.shape[1]:
        raise DimensionError(f"cannot split shape {m.shape} into {d}-blocks")
    return m.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def from_blocks(blocks) -> np.ndarray:
    """Inverse of :func:`to_blocks`; the flattening is a linear bijection."""
    b = np.asarray(blocks, dtype=complex)
    if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
        raise DimensionError(f"expected grid of shape (n, n, d, d), got {b.shape}")
    n, d = b.shape[0], b.shape[2]
    return b.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def _require_member(system: OperatorSystem, x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """x as a d x d matrix, once it is checked to lie in the system; raises
    MembershipError otherwise."""
    m = la.as_matrix(x)
    if m.shape != (system.d, system.d):
        raise MembershipError(f"element of shape {m.shape} for a system in M_{system.d}")
    res = system.residual(m)
    if not res <= tol:  # a NaN residual fails too
        raise MembershipError(f"element is not in the system (residual {res:.3e})")
    return m


def subspace_member(system: OperatorSystem, x, tol: float = DEFAULT_TOL) -> bool:
    """True iff every grid entry of ``x`` projects onto the system within ``tol``."""
    blocks = to_blocks(x, system.d).reshape(-1, system.d, system.d)
    return bool(np.all(system.residuals(blocks) <= tol))  # NaN fails


def cone_member(system: OperatorSystem, x, tol: float = DEFAULT_TOL) -> bool:
    """Membership in M_n(S)+ = PSD intersect M_n(S).

    Requires subspace membership blockwise, Hermitian symmetry of the
    flattened matrix, and smallest eigenvalue >= -tol.
    """
    m = la.as_matrix(x)
    if not subspace_member(system, m, tol):
        return False
    # the skew part's norm, as the largest |eigenvalue| of i(m - m*)/2
    skew = np.linalg.eigvalsh(0.5j * (m - m.conj().T))
    if max(skew[-1], -skew[0]) > tol:
        return False
    return la.lambda_min(m) >= -tol


def _domination_radii(d, tol: float, r_max: float, precision: float):
    """The map X -> smallest r >= 0 with r D - X PSD (D PSD, X Hermitian), or
    ``None`` above r_max, with D factored once for all X: exact as
    max(0, lambda_max(L^-1 X L^-*)), L = chol(D), and bisected to
    ``precision`` on lambda_min(r D - X) >= -tol for a singular D."""
    check_search_bounds(r_max, precision)
    try:
        li = np.linalg.inv(np.linalg.cholesky(d))
    except np.linalg.LinAlgError:
        return lambda x: smallest_passing(lambda r: la.lambda_min(r * d - x) >= -tol,
                                          r_max, precision)

    def radius(x) -> float | None:
        r = max(0.0, la.lambda_max(li @ x @ li.conj().T))
        return r if r <= r_max else None

    return radius


def _checked_unit(system: OperatorSystem, e, tol: float) -> np.ndarray:
    """e as a matrix, once it is checked to be a level-1 element of S+."""
    em = la.as_matrix(e)
    if em.shape != (system.d, system.d):
        raise DimensionError("order unit e must be a level-1 element")
    if not cone_member(system, em, tol):
        raise ValidationError("order unit candidate e is not in S+")
    return em


def order_unit_radius_level(system: OperatorSystem, e, x) -> float | None:
    """Smallest r >= 0 with ``r*(I_n (x) e) - x`` in M_n(S)+, or ``None``.

    :func:`_domination_radii` of I_n (x) e, at x, at tolerance
    ``DEFAULT_TOL``, exact for a positive definite e; ``None`` means no
    r <= ``_RADIUS_MAX`` dominates x.
    """
    tol = DEFAULT_TOL
    em = _checked_unit(system, e, tol)
    xm = la.as_matrix(x)
    n = level_of(system, xm)
    if not la.is_hermitian(xm, 1e-8):
        raise HermitianError("order_unit_radius_level requires Hermitian x")
    if not subspace_member(system, xm, tol):
        return None
    lifted = np.kron(np.eye(n), em)
    return _domination_radii(lifted, tol, _RADIUS_MAX, _RADIUS_PRECISION)(la.hermitian_part(xm))


@dataclass
class MatrixOrderUnitReport:
    """Outcome of the matrix-order-unit sweep: per-level radii for sampled
    Hermitian elements, plus an explicit counterexample when one exists."""

    ok: bool
    radii: dict  # level -> list of radii (None where not dominated)
    counterexample: np.ndarray | None = None
    counterexample_level: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _kernel_counterexample(system: OperatorSystem, em: np.ndarray):
    """Deterministic order-unit failure on a checked unit e: for a
    (near-)kernel unit vector psi of e, the projection P(psi psi*) onto S
    has mass at psi, so no multiple of e dominates it; ``None`` when e is
    positive definite."""
    w, u = la.spectral_decompose(la.hermitian_part(em))
    if w[-1] > 1e-7:
        return None
    psi = u[:, -1]
    # <psi, P(psi psi*) psi> = ||P(psi psi*)||_F^2 >= <I/sqrt(d), psi psi*>^2 = 1/d,
    # since I lies in S
    return la.hermitian_part(system.project_level(np.outer(psi, psi.conj())))


def _check_counts(**counts: int) -> None:
    """Reject a sweep count below 1: a sweep over no samples or no levels
    checks nothing, and would pass vacuously."""
    for name, value in counts.items():
        if value < 1:
            raise ValidationError(f"{name} must be at least 1, got {value}")


def is_matrix_order_unit(
    system: OperatorSystem,
    e,
    max_level: int = 3,
    *,
    samples_per_level: int = 32,
    rng: np.random.Generator | None = None,
) -> MatrixOrderUnitReport:
    """Check whether e dominates sampled Hermitian elements at levels 1..max_level.

    e must lie in S+, and ``max_level`` and ``samples_per_level`` must be
    at least 1 (ValidationError otherwise).  A level-1 order unit must
    pass at every level, so a single failed radius (none up to 1e6, at
    tolerance ``DEFAULT_TOL``) refutes matrix-order-unit-hood.  Sampling is
    deterministic by default (fixed internal seed) for reproducible runs;
    pass ``rng`` to override.  A deterministic counterexample search along
    near-kernel directions of e supplements the random sampling at level 1.
    """
    _check_counts(max_level=max_level, samples_per_level=samples_per_level)
    if rng is None:
        rng = np.random.default_rng(_MOU_SAMPLE_SEED)
    tol = DEFAULT_TOL
    em = _checked_unit(system, e, tol)
    ce = _kernel_counterexample(system, em)
    if ce is not None:
        return MatrixOrderUnitReport(
            ok=False,
            radii={1: [None]},
            counterexample=ce,
            counterexample_level=1,
        )
    radii: dict[int, list] = {}
    ok = True
    for n in range(1, max_level + 1):
        radius = _domination_radii(np.kron(np.eye(n), em), tol, _RADIUS_MAX, _RADIUS_PRECISION)
        level_radii = []
        for _ in range(samples_per_level):
            # drawn in M_n(S)_h, so x needs neither check of order_unit_radius_level
            r = radius(random_hermitian_element(system, rng, level=n))
            level_radii.append(r)
            if r is None:
                ok = False
        radii[n] = level_radii
        if not ok:
            return MatrixOrderUnitReport(ok=False, radii=radii)
    return MatrixOrderUnitReport(ok=True, radii=radii)


# ----------------------------------------------------------------------------
# Random sampling helpers (tests, suites, verification sweeps)
# ----------------------------------------------------------------------------

def random_element(
    system: OperatorSystem, rng: np.random.Generator, *, level: int = 1, scale: float = 1.0
) -> np.ndarray:
    """Random element of M_n(S) with independent complex Gaussian coordinates."""
    n, d, dim = level, system.d, system.dim
    # block by block, the real then the imaginary parts: one draw of them all
    z = rng.standard_normal((n * n, 2, dim))
    c = z[:, 0] + 1j * z[:, 1]
    blocks = system._combine(scale * c / np.sqrt(2 * dim)).reshape(n, n, d, d)
    return from_blocks(blocks) if n > 1 else blocks[0, 0]


def random_hermitian_element(
    system: OperatorSystem, rng: np.random.Generator, *, level: int = 1, scale: float = 1.0
) -> np.ndarray:
    """Random Hermitian element of M_n(S); stays in the level since the
    span is adjoint-closed."""
    return la.hermitian_part(random_element(system, rng, level=level, scale=scale))


def random_positive_element(
    system: OperatorSystem, rng: np.random.Generator, *, level: int = 1
) -> np.ndarray:
    """Random element of M_n(S)+, built as h + (|lambda_min| + u) * identity."""
    h = random_hermitian_element(system, rng, level=level)
    lift = max(0.0, -la.lambda_min(h)) + float(rng.uniform(0.05, 0.5))
    return h + lift * np.eye(h.shape[0])


def random_system(
    rng: np.random.Generator, *, d: int | None = None, generators: int | None = None
) -> OperatorSystem:
    """Random operator system: the system generated by a few Gaussian matrices."""
    if d is None:
        d = int(rng.integers(2, 6))
    if generators is None:
        generators = int(rng.integers(1, 4))
    gens = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(generators)
    ]
    return make_operator_system(gens, d)
