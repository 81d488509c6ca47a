"""Dense complex matrix arithmetic: the numerical substrate for the package.

Matrices are plain ``numpy.ndarray`` objects with complex dtype.  This module
fixes the conventions everything else relies on: Hermitian symmetrization at
construction, descending eigenvalue order, PSD projection by eigenvalue
clipping (batched over stacks), and the JSON wire format for complex
matrices: an entry is ``[re, im]``, a matrix is an array of rows.

All functions are pure; none mutate their arguments.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DimensionError, NumericalError, ParseError

__all__ = [
    "as_matrix",
    "hermitian_part",
    "antihermitian_part",
    "is_hermitian",
    "spectral_decompose",
    "eigenvalues_desc",
    "lambda_min",
    "lambda_max",
    "project_psd",
    "op_norm",
    "frobenius",
    "orthonormalize",
    "identity",
    "basis_matrix",
    "encode_matrix",
    "decode_matrix",
]


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return m


def _require_square(a: np.ndarray, what: str) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} requires a square matrix, got {m.shape}")
    return m


def hermitian_part(a) -> np.ndarray:
    """(A + A*)/2.  Symmetrizes rather than rejects near-Hermitian input,
    since downstream projections accumulate asymmetry at machine precision."""
    m = _require_square(a, "hermitian_part")
    return (m + m.conj().T) / 2.0


def antihermitian_part(a) -> np.ndarray:
    """(A - A*)/(2i), the Hermitian matrix Im(A)."""
    m = _require_square(a, "antihermitian_part")
    return (m - m.conj().T) / 2.0j


def is_hermitian(a, tol: float = 1e-10) -> bool:
    """True when the anti-Hermitian part is below ``tol`` (relative to scale)."""
    m = _require_square(a, "is_hermitian")
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - m.conj().T)) <= tol * scale


def _is_hermitian(m: np.ndarray) -> bool:
    """||m - m*|| <= 1e-8 ||m|| in the largest-entry norm: relative at every
    scale (:func:`is_hermitian` is absolute below norm 1), and with no sum
    of squares to underflow (1e-170 E12)."""
    return bool(np.abs(m - m.conj().T).max() <= 1e-8 * np.abs(m).max())


def spectral_decompose(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` real and sorted descending and
    ``u`` unitary with columns the matching eigenvectors, so that
    ``u @ diag(w) @ u.conj().T`` reconstructs the input to backend precision.
    """
    m = hermitian_part(h)
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    return w[::-1].copy(), u[:, ::-1].copy()


def eigenvalues_desc(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending."""
    m = hermitian_part(h)
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    return w[::-1].copy()


def lambda_min(h) -> float:
    return float(eigenvalues_desc(h)[-1])


def lambda_max(h) -> float:
    return float(eigenvalues_desc(h)[0])


def project_psd(h) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip the spectrum of the Hermitian part
    at 0, matrix by matrix over a ``(..., n, n)`` stack.

    Idempotent, and a fixed point on PSD input.
    """
    m = np.asarray(h, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"project_psd requires square matrices, got {m.shape}")
    try:
        w, u = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc
    clipped = np.clip(w, 0.0, None)[..., None, :]
    return (u * clipped) @ u.conj().swapaxes(-1, -2)


def op_norm(a) -> float:
    """Operator norm of a square matrix: sqrt of the larger of lambda_max(A*A)
    and lambda_max(AA*), in one eigensolve, so op_norm(A*) = op_norm(A) exactly.
    A is first scaled by the power of two 2^-e that brings its largest entry
    into [1/2, 1), which is exact, so that A*A neither underflows (1e-170 A)
    nor overflows; the result is scaled back by 2^e."""
    m = _require_square(a, "op_norm")
    e = int(np.frexp(np.abs(m).max(initial=0.0))[1])
    m = m * np.ldexp(1.0, -e)
    grams = np.stack([hermitian_part(m.conj().T @ m), hermitian_part(m @ m.conj().T)])
    top = np.linalg.eigvalsh(grams)[:, -1].max()
    return float(np.ldexp(np.sqrt(max(top, 0.0)), e))


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def orthonormalize(vectors, rank_tol: float) -> np.ndarray:
    """Orthonormal basis (trace inner product) of the span of equally shaped
    arrays, shaped ``(k, *vector shape)``, by classical Gram-Schmidt with one
    reorthogonalization (CGS2) in input order: a vector is normalized,
    projected off the basis kept so far twice, and kept if its residual
    exceeds rank_tol; one of norm at most rank_tol is dropped at once.  Two
    passes are enough (Giraud, Langou, Rozloznik, van den Eshof, 2005)."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    n = vecs[0].size
    basis = np.empty((min(len(vecs), n), n), dtype=complex)
    basis_conj = np.empty_like(basis)  # so that no projection copies it
    k = 0
    for v in vecs:
        w = v.reshape(n)
        nrm = frobenius(w)
        if nrm <= rank_tol:
            continue
        w = w / nrm
        for _ in range(2):  # second pass kills rounding drift
            w = w - (basis_conj[:k] @ w) @ basis[:k]
        res = frobenius(w)
        if res > rank_tol:
            basis[k] = w / res
            basis_conj[k] = basis[k].conj()
            k += 1
    return basis[:k].reshape((k,) + vecs[0].shape)


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def basis_matrix(d: int, i: int, j: int) -> np.ndarray:
    """Matrix unit E_ij in M_d."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


# ----------------------------------------------------------------------------
# JSON wire format, used repo-wide: entry [re, im], matrix = array of rows.
# Example: I_2 = [[[1,0],[0,0]],[[0,0],[1,0]]]
# ----------------------------------------------------------------------------

def encode_matrix(a) -> list:
    m = as_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError("matrix JSON must be a nonempty array of rows")
    ncols = None
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ParseError(f"row {r} is not a nonempty array")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ParseError(f"row {r} has {len(row)} entries, expected {ncols}")
        out = []
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                # finite JSON numbers only: no booleans, NaN or inf (1e999)
                or not all(type(x) in (int, float) and abs(x) <= sys.float_info.max
                           for x in entry)
            ):
                raise ParseError(
                    f"entry ({r},{c}) must be a two-element [re, im] array"
                    " of finite numbers"
                )
            out.append(complex(entry[0], entry[1]))
        rows.append(out)
    return np.asarray(rows, dtype=complex)
