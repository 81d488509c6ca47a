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
from . import _search
from ._search import smallest_passing
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

#: Fixed seed for the deterministic Hermitian sampling in
#: :func:`is_matrix_order_unit` when the caller does not inject a generator.
_MOU_SAMPLE_SEED = 20240917

#: A level stack (:meth:`OperatorSystem._level_stack`) of at most this many
#: bytes is kept on its system; a larger one is built on every call.  Past
#: 1 MiB a build is about 1% of a converged solve over it (0.3 of 28 ms on
#: diag:3 at level 6), and since a stack grows as n^4 the stacks a system
#: keeps stay within a few MiB.
_LEVEL_STACK_BYTES = 1 << 20


class OperatorSystem:
    """An adjoint-closed unital subspace of M_d with an orthonormal basis.

    ``basis`` is a read-only array of shape (dim, d, d); a complex array
    passed in is kept, not copied, and made read-only (``full:d`` builds
    its basis only on demand, see :func:`named_system`).  Immutable after
    construction; all operations on it are pure functions, so instances are
    safe to share across threads.  The bases it derives (Hermitian,
    complement, and their level stacks) are built on first use and kept
    read-only.
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
        self._level_stacks: dict = {}

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
        """The blockwise orthogonal projection of an (n d) x (n d) matrix, or
        of each matrix of an (s, n d, n d) stack, onto M_n(S) (n is read off
        the size of x): x itself on a full algebra."""
        if self.is_full:
            return x
        blocks = to_blocks(x, self.d)
        flat = self._combine(self.stack_coords(blocks.reshape(-1, self.d, self.d)))
        return from_blocks(flat.reshape(blocks.shape))

    def riesz_of_values(self, values) -> np.ndarray:
        """The adjoint of the coordinate map: R in M_n(S) with trace(R_ij B_k) =
        ``values[i n + j, k]``, blockwise sum_k values[i n + j, k] B_k^*; an
        (s, n^2, dim) stack of values maps to an (s, n d, n d) stack."""
        values = np.asarray(values)
        lead, n, d = values.shape[:-2], math.isqrt(values.shape[-2]), self.d
        # sum_k v_k conj(B_k) is the conjugate of sum_k conj(v_k) B_k, so the
        # basis is not copied; entry (p, q) of B_k^* is conj(B_k)[q, p]
        flat = self._combine(np.conj(values).reshape(-1, self.dim)).conj()
        return np.moveaxis(flat.reshape(lead + (n, n, d, d)), -1, -3).reshape(
            lead + (n * d, n * d))

    def level_values(self, x) -> np.ndarray:
        """trace(x_ij B_k), the conjugate coordinates of x_ij^*, for every block
        x_ij (row i n + j), shape (n^2, dim), or (s, n^2, dim) for each
        matrix of a stack; :meth:`riesz_of_values` inverts them on M_n(S)."""
        blocks = to_blocks(x, self.d)
        flat = blocks.reshape(-1, self.d, self.d).conj().swapaxes(1, 2)
        return self.stack_coords(flat).conj().reshape(blocks.shape[:-4] + (-1, self.dim))

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

    def _level_stack(self, kind: str, n: int) -> np.ndarray:
        """:func:`_level_basis` of :attr:`hermitian_basis` (``kind``
        "hermitian") or of :attr:`complement_basis` ("complement") at level
        n, a real-orthonormal basis of M_n(S)_h or of its complement.  Built
        once per level and kept read-only, like those bases, when it fits in
        ``_LEVEL_STACK_BYTES``; a larger one is built on every call and not
        kept."""
        stack = self._level_stacks.get((kind, n))
        if stack is None:
            hb = self.hermitian_basis if kind == "hermitian" else self.complement_basis
            stack = _level_basis(hb, n)
            if stack.nbytes <= _LEVEL_STACK_BYTES:
                stack.flags.writeable = False
                self._level_stacks[kind, n] = stack
        return stack

    def hermitian_coords(self, x) -> np.ndarray:
        """Real coordinates of a Hermitian element over the Hermitian basis."""
        m = la.as_matrix(x)
        return np.real(self.hermitian_basis.reshape(self.dim, -1) @ m.reshape(-1).conj())


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
    """Matrix level n of a flattened element of M_n(S), read off its shape."""
    shape = np.shape(x)
    if len(shape) != 2:
        raise DimensionError(f"expected a matrix, got ndim={len(shape)}")
    if shape[0] != shape[1]:
        raise DimensionError(f"level element must be square, got {shape}")
    n, rem = divmod(shape[0], system.d)
    if rem or n < 1:
        raise DimensionError(
            f"size {shape[0]} is not a multiple of ambient dimension {system.d}"
        )
    return n


def to_blocks(x, d: int) -> np.ndarray:
    """Grid view of a flattened level element, shape (n, n, d, d), or of
    each element of an (s, n d, n d) stack, shape (s, n, n, d, d)."""
    m = np.asarray(x, dtype=complex)
    if m.ndim not in (2, 3):
        raise DimensionError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    n, rem = divmod(m.shape[-1], d)
    if rem or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"cannot split shape {m.shape} into {d}-blocks")
    return m.reshape(m.shape[:-2] + (n, d, n, d)).swapaxes(-3, -2)


def from_blocks(blocks) -> np.ndarray:
    """Inverse of :func:`to_blocks`; the flattening is a linear bijection."""
    b = np.asarray(blocks, dtype=complex)
    if b.ndim not in (4, 5) or b.shape[-4] != b.shape[-3] or b.shape[-2] != b.shape[-1]:
        raise DimensionError(f"expected grid of shape (n, n, d, d), got {b.shape}")
    side = b.shape[-4] * b.shape[-1]
    return b.swapaxes(-3, -2).reshape(b.shape[:-4] + (side, side))


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


def _kraus_sum(left: np.ndarray, right: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """sum_r (I_n (x) left_r) x_t (I_n (x) right_r) for every x_t of a stack
    x of shape (s, n q, n q), left of shape (r, p, q) and right of shape
    (r, q, p), shape (s, n p, n p): every block row of every x_t times every
    left_r by one batched product, then every result times its own right_r
    by another.  The Kraus index is a batch axis of both products, so no
    cross term left_r x right_u is ever formed.  A tower's maps, their
    amplifications, adjoints and basis images, and the congruence of
    :func:`_unit_congruence` (one Kraus operator) all run through here; one
    element is a stack of one."""
    r, p, q = left.shape
    rows = left[:, None] @ x.reshape(1, -1, q, n * q)
    return (rows.reshape(r, -1, q) @ right).sum(0).reshape(-1, n * p, n * p)


def _unit_congruence(e):
    """The congruence by the inverse Cholesky factor of a level-1 unit
    E = L L^*, at every level n: a (..., n d, n d) stack of Hermitian X maps
    to (I_n (x) L^-1) X (I_n (x) L^-*), or with ``adjoint=True`` to
    (I_n (x) L^-*) X (I_n (x) L^-1), by :func:`_kraus_sum` with the one
    Kraus operator L^-1 (or L^-*), so no I_n (x) E is built (Hermitian
    parts).  E is factored once for every X and level; ``None`` when E is
    not positive definite."""
    d = len(e)
    try:
        li = np.linalg.inv(np.linalg.cholesky(e))
    except np.linalg.LinAlgError:
        return None

    def congruence(xs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        a = li.conj().T if adjoint else li
        y = _kraus_sum(a[None], a.conj().T[None], xs, xs.shape[-1] // d).reshape(xs.shape)
        return (y + y.conj().swapaxes(-1, -2)) / 2.0

    return congruence


def _domination_radii(e, tol: float, precision: float):
    """The map X -> smallest r >= 0 with r (I_n (x) E) - X PSD (E a PSD
    level-1 unit, X Hermitian at any level n), or ``None`` above the search
    cap ``_search._RADIUS_MAX``, closed form or bisected alike; a
    (k, n d, n d) stack of X maps to the list of their k radii.  For a
    positive definite E the radius is max(0, lambda_max(Y)) with Y the
    :func:`_unit_congruence` of X, one batched eigensolve per stack; a
    singular E bisects to ``precision`` on
    lambda_min(r (I_n (x) E) - X) >= -tol."""
    congruence = _unit_congruence(e)

    def radii(xs: np.ndarray) -> list:
        if congruence is None:
            lifted = np.kron(np.eye(xs.shape[-1] // len(e)), e)
            return [smallest_passing(lambda r, x=x: la.lambda_min(r * lifted - x) >= -tol,
                                     precision) for x in xs]
        top = np.linalg.eigvalsh(congruence(xs))[:, -1]
        cap = _search._RADIUS_MAX
        return [r if r <= cap else None for r in (max(0.0, t) for t in top.tolist())]

    def radius(x):
        x = np.asarray(x)
        return radii(x[None])[0] if x.ndim == 2 else radii(x)

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

    :func:`_domination_radii` of e, at x, at tolerance ``DEFAULT_TOL``:
    exact for a positive definite e, from its Cholesky factor applied block
    by block, with no I_n (x) e built; ``None`` means no r up to the search
    cap (``_search._RADIUS_MAX``, 1e6) dominates x.
    """
    tol = DEFAULT_TOL
    em = _checked_unit(system, e, tol)
    xm = la.as_matrix(x)
    level_of(system, xm)  # DimensionError unless x lies at some level
    if not la._is_hermitian(xm):
        raise HermitianError("order_unit_radius_level requires Hermitian x")
    if not subspace_member(system, xm, tol):
        return None
    return _domination_radii(em, tol, _RADIUS_PRECISION)(la.hermitian_part(xm))


@dataclass
class MatrixOrderUnitReport:
    """Outcome of the matrix-order-unit check: the verdict, per-level radii
    of sampled Hermitian elements, and the counterexample of a failed unit."""

    ok: bool
    radii: dict  # level -> list of radii (None above the search cap)
    counterexample: np.ndarray | None = None
    counterexample_level: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _kernel_counterexample(system: OperatorSystem, em: np.ndarray):
    """Deterministic order-unit failure on a checked unit e: for a
    (near-)kernel unit vector psi of e, the projection P(psi psi*) onto S
    has mass 1/d or more at psi, so no r much below 1/(d lambda_min(e))
    dominates it; ``None`` when lambda_min(e) exceeds 1e-7."""
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
    """Whether e is a matrix order unit of S, with sampled radii as evidence.

    e must lie in S+, and ``max_level`` and ``samples_per_level`` must be
    at least 1 (ValidationError otherwise).  The verdict is e's spectrum,
    not the samples': e with lambda_min(e) > 1e-7 dominates every Hermitian
    X in M_n(S) at ||X|| / lambda_min(e), since I lies in S; else a
    near-kernel counterexample at level 1 refutes it, and no sample is
    drawn.  The radii (``DEFAULT_TOL``, ``None`` above the search cap) are
    of samples at levels 1..max_level, drawn by a fixed internal seed
    unless ``rng`` is given; each level's samples come from one draw, which
    uses up ``rng`` as that many :func:`random_hermitian_element` calls do,
    and their radii from e's one Cholesky factor and one batched eigensolve
    (:func:`_domination_radii`).
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
    radius = _domination_radii(em, tol, _RADIUS_PRECISION)
    radii: dict[int, list] = {}
    for n in range(1, max_level + 1):
        # drawn in M_n(S)_h, so no sample needs the checks of order_unit_radius_level
        xs = _random_elements(system, rng, samples_per_level, level=n)
        radii[n] = radius((xs + xs.conj().swapaxes(1, 2)) / 2.0)
    return MatrixOrderUnitReport(ok=True, radii=radii)


# ----------------------------------------------------------------------------
# Random sampling helpers (tests, suites, verification sweeps)
# ----------------------------------------------------------------------------

def _random_elements(
    system: OperatorSystem, rng: np.random.Generator, count: int, *, level: int = 1,
    scale: float = 1.0
) -> np.ndarray:
    """``count`` random elements of M_n(S), shape (count, n d, n d), with
    independent complex Gaussian coordinates, from one draw that uses up
    rng as ``count`` calls of :func:`random_element` do."""
    n, d, dim = level, system.d, system.dim
    # element by element and block by block, the real then the imaginary parts
    z = rng.standard_normal((count * n * n, 2, dim))
    c = z[:, 0] + 1j * z[:, 1]
    blocks = system._combine(scale * c / np.sqrt(2 * dim)).reshape(count, n, n, d, d)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(count, n * d, n * d)


def random_element(
    system: OperatorSystem, rng: np.random.Generator, *, level: int = 1, scale: float = 1.0
) -> np.ndarray:
    """Random element of M_n(S) with independent complex Gaussian coordinates."""
    return _random_elements(system, rng, 1, level=level, scale=scale)[0]


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
