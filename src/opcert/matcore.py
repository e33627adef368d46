"""Dense complex matrix primitives: spectral norms, block assembly, hermitian calculus.

All matrices are numpy complex128 arrays. Shapes are never implicit: every
public function validates and raises InvalidInputError on mismatch.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

HERMITICITY_TOL = 1e-9
EIG_CLAMP = 1e-9
RANK_TOL = 1e-9


def as_cmat(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array without copying when possible."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def spectral_norm(m) -> float:
    """Largest singular value of a nonempty complex matrix."""
    a = as_cmat(m)
    if a.size == 0:
        raise InvalidInputError("spectral_norm of a dimension-zero matrix")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def batched_spectral_norm(a: np.ndarray) -> np.ndarray:
    """Largest singular value along the last two axes of a (..., r, c) stack.

    Rows/columns of length one and 2-row/2-column stacks use closed forms
    so that large batches of small matrices do not pay a per-matrix LAPACK
    call. For two rows (after transposing a 2-column stack), the Gram
    entries g00, g11, g01 are dot products over the long axis and the top
    eigenvalue is (g00 + g11 + sqrt((g00 - g11)^2 + 4|g01|^2)) / 2: every
    term is nonnegative, so it keeps full relative accuracy even when the
    two singular values nearly coincide, unlike the tr^2 - 4 det form.
    """
    a = np.asarray(a, dtype=np.complex128)
    r, c = a.shape[-2:]
    if r == 1 or c == 1:
        return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
    if min(r, c) == 2:
        # the float64 view needs a contiguous last axis
        a = np.ascontiguousarray(a if r == 2 else a.swapaxes(-1, -2))
        f = a.view(np.float64)
        g00 = np.einsum("...k,...k->...", f[..., 0, :], f[..., 0, :])
        g11 = np.einsum("...k,...k->...", f[..., 1, :], f[..., 1, :])
        g01 = np.einsum("...k,...k->...", a[..., 0, :], np.conj(a[..., 1, :]))
        diff = g00 - g11
        top = 0.5 * (g00 + g11 + np.sqrt(diff * diff + 4.0 * np.abs(g01) ** 2))
        return np.sqrt(top)
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def block_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each block of a (..., w, r, c) stack, shape (..., w);
    their max is the norm of the stack's block-diagonal matrix.

    The kernel follows the block count: one block goes to LAPACK, several
    to `batched_spectral_norm`, whose closed forms beat a LAPACK call per
    block on many small blocks but lose to one LAPACK call on a single
    block.
    """
    if stack.shape[-3] == 1:
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    return batched_spectral_norm(stack)


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """The (w p) x (w q) block-diagonal matrix of a (w, p, q) block stack."""
    w, p, q = blocks.shape
    out = np.zeros((w, p, w, q), dtype=np.complex128)
    idx = np.arange(w)
    out[idx, :, idx, :] = blocks
    return out.reshape(w * p, w * q)


def row_span(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the row space of an (N, M) array, cut at
    singular values above RANK_TOL times the largest (real input, real rows)."""
    if rows.shape[0] == 0:
        return rows
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[:int(np.sum(s > RANK_TOL * s[0]))]


def top_singular_triple(m: np.ndarray):
    """(sigma_1, left vector, right vector, gap) for a single matrix, or
    arrays of them over the leading axes of an (..., r, c) stack.

    gap is sigma_1 - sigma_2 (sigma_1 itself for rank-one shapes), which
    tells whether the norm is differentiable where this pair was taken.
    LAPACK takes each matrix of a stack on its own, so a matrix's triple
    does not depend on what is stacked with it.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise InvalidInputError(f"expected a matrix or a stack, got ndim={a.ndim}")
    u, s, vh = np.linalg.svd(a)
    sigma = s[..., 0]
    gap = sigma if s.shape[-1] == 1 else sigma - s[..., 1]
    left, right = u[..., :, 0], np.conj(vh[..., 0, :])
    if a.ndim == 2:
        return float(sigma), left, right, float(gap)
    return sigma, left, right, gap


def _hermitian_stack(m, name: str) -> tuple[np.ndarray, float]:
    """A square matrix or (..., n, n) stack checked hermitian, with the
    largest norm in it (at least 1) as the scale for relative tolerances."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise InvalidInputError(f"{name} needs a square matrix or a stack of them")
    scale = max(float(np.max(batched_spectral_norm(a))), 1.0)
    if np.max(batched_spectral_norm(a - adjoint(a))) > HERMITICITY_TOL * scale:
        raise InvalidInputError("matrix is not hermitian within tolerance")
    return a, scale


def herm_eigen(m) -> np.ndarray:
    """Ascending real eigenvalues of a hermitian matrix, or of each matrix
    in a (..., n, n) stack; rejects matrices that are not hermitian."""
    a, _ = _hermitian_stack(m, "herm_eigen")
    return np.linalg.eigvalsh(a)


def psd_sqrt(m) -> np.ndarray:
    """Hermitian square root of a matrix, or of each matrix in a
    (..., n, n) stack; eigenvalues in [-tol, 0) are clamped to 0, with tol
    relative to the largest norm in the stack."""
    a, scale = _hermitian_stack(m, "psd_sqrt")
    w, v = np.linalg.eigh(a)
    if np.min(w[..., 0]) < -EIG_CLAMP * scale:
        raise InvalidInputError(f"matrix has a negative eigenvalue {np.min(w[..., 0]):g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ adjoint(v)


def real_kernel(columns: np.ndarray) -> np.ndarray:
    """Real kernel of a complex-valued real-linear map.

    columns has shape (N, M): column j is the complex constraint vector
    multiplied by the j-th real parameter. Returns a (k, N) orthonormal real
    basis of the parameter vectors r with sum_j r[j]*columns[j] = 0, using
    singular values below RANK_TOL * sigma_max as the rank cut.
    """
    cols = np.asarray(columns, dtype=np.complex128)
    if cols.ndim != 2:
        raise InvalidInputError("columns must be a (N, M) array")
    stacked = np.vstack([np.real(cols.T), np.imag(cols.T)])
    n = cols.shape[0]
    # a tall matrix has all n right singular vectors in its thin SVD; only a
    # wide one needs the full vt for its kernel rows
    _, s, vt = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < n)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return vt[rank:]
