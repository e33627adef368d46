"""Dense complex matrix primitives: spectral norms, block assembly, hermitian calculus.

All matrices are numpy complex128 arrays. Shapes are never implicit: every
public function validates and raises InvalidInputError on mismatch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

HERMITICITY_TOL = 1e-9
EIG_CLAMP = 1e-9
RANK_TOL = 1e-9
# row_span sketches an input with more rows and more columns than this
SKETCH_WIDTH = 64
# a column entering nnls whose part outside the span of the passive ones
# is this small (its largest entry is 1) lies in that span
NNLS_INDEPENDENT = 1e-14
# the rounding unit of an nnls dual coefficient, per m |b| |a_j|
NNLS_ROUNDING = 10.0 * float(np.finfo(float).eps)


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


def vector_norms(x: np.ndarray):
    """Euclidean norm of a complex vector, or of each row of an (..., n)
    stack of them: bitwise np.linalg.norm of each row, which sums the
    squares of the real and of the imaginary parts with one BLAS dot
    product each (a one-row matmul gives a dot product's bits)."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


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


def row_span(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the row space of an (N, M) array and their
    singular values, descending, cut at singular values above RANK_TOL
    times the largest (real input, real rows).

    An input with both dimensions above SKETCH_WIDTH is sketched first
    (Halko, Martinsson and Tropp, SIAM Review 53, 2011): k fixed-seed
    Gaussian combinations of the rows, k = SKETCH_WIDTH at first, have an
    orthonormal row span V, and the exact SVD of the small (N, k) matrix
    rows V* gives the singular values and, rotated by V, the rows. That
    answer stands once the rows lie in V, |rows - (rows V*) V| at most
    RANK_TOL times the largest singular value (Frobenius), with fewer
    than k singular values above the cut; otherwise k doubles. The span
    is then exact for rows moved by no more than the cut already
    neglects; on rows whose neglected singular values are rounding, it
    matches the single SVD's span to rounding. A k that reaches the
    smaller dimension takes the single SVD of the rows, as every smaller
    input does, so the branch follows the shape alone.
    """
    n, m = rows.shape
    if n == 0:
        return rows, np.zeros(0)
    k = SKETCH_WIDTH
    while min(n, m) > k:
        gauss = np.random.default_rng(k).standard_normal((k, n))
        # rows of q.T span the rows of the sketch: sketch.T = q r
        q, _ = np.linalg.qr((gauss @ rows).T)
        small = rows @ np.conj(q)
        _, s, wh = np.linalg.svd(small, full_matrices=False)
        rank = _rank(s)
        missed = small @ q.T
        missed -= rows
        if rank < k and np.linalg.norm(missed) <= RANK_TOL * s[0]:
            return wh[:rank] @ q.T, s[:rank]
        k *= 2
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    rank = _rank(s)
    return vh[:rank], s[:rank]


def _rank(s: np.ndarray) -> int:
    """How many of the descending singular values s pass the RANK_TOL cut."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


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
    return vt[_rank(s):]


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """The x >= 0 minimizing |a x - b| for a real (m, n) matrix a and an
    (m,) vector b, and that least residual: the active-set method of
    Lawson and Hanson (Solving Least Squares Problems, 1974, ch. 23), in
    their Householder form.

    Each column is first scaled to largest entry 1. The passive columns
    enter one at a time, largest dual coefficient w_j = a_j . (b - a x)
    first; the k-th to enter is reflected onto the first k rows, so that
    on the passive columns Q^T a is upper triangular, x is the inverse of
    that triangle (grown by a row and a column as each column enters)
    times Q^T b, and w reads the rows below it, without the cancellation
    of b - a x. A w_j at the rounding of those rows
    (NNLS_ROUNDING) counts as 0. A coefficient <= 0 steps x back to the
    boundary of x >= 0, and the rest is factored again. An entering
    column that lies in the span of the passive ones, or whose
    coefficient would come out <= 0, entered on rounding: it sits out
    until the next exchange (LH's w_j = 0), or it would enter forever.
    Raises RuntimeError after 3 n entering steps, and InvalidInputError
    on input that is not finite.
    """
    m, n = a.shape
    size = np.abs(a).max(axis=0, initial=0.0)
    if not (math.isfinite(size.max(initial=0.0)) and np.isfinite(b).all()):
        raise InvalidInputError("nnls needs finite input")
    size[size == 0.0] = 1.0
    ab = np.empty((m, n + 1))
    np.divide(a, size, out=ab[:, :n])
    ab[:, n] = b
    # w_j read below the triangle carries rounding of about
    # m eps (|b| |a_j's rows there| + |b's rows there| |a_j|)
    rounding = NNLS_ROUNDING * m * np.sqrt(np.einsum("ij,ij->j", ab, ab))
    qab = ab.copy()                   # Q^T [a b]
    x, order = np.zeros(n), []        # the passive columns, in entering order
    inv = np.zeros((0, 0))            # the inverse of the passive triangle
    w = _dual(qab, rounding)          # 0 on the passive columns
    for _ in range(3 * n):
        j = int(w.argmax())
        k, cols = len(order), order + [j]
        if not w[j] > 0.0:
            return x / size, float(np.linalg.norm(qab[k:, n]))
        v = qab[k:, j].copy()
        out = math.sqrt(v @ v)          # a_j's part outside the passive span
        if out > NNLS_INDEPENDENT:
            # the reflection I - v v^T that takes a_j's rows k.. to row k;
            # the last row of the triangle gives x_j
            alpha = -out if v[0] >= 0.0 else out
            v[0] -= alpha
            v /= math.sqrt(out * abs(v[0]))     # |v|^2 was 2 out |v_0|
            x_j = (qab[k, n] - v[0] * (v @ qab[k:, n])) / alpha
        if not (out > NNLS_INDEPENDENT and x_j > 0.0):
            w[j] = 0.0
            continue
        grown = np.zeros((k + 1, k + 1))
        grown[:k, :k] = inv
        grown[:k, k] = (inv @ qab[:k, j]) / -alpha
        grown[k, k] = 1.0 / alpha
        inv = grown
        qab[k:] -= np.outer(v, v @ qab[k:])
        qab[k, j], qab[k + 1:, j] = alpha, 0.0
        z = inv @ qab[:k + 1, n]
        while z.size and z.min() <= 0.0:
            xp, neg = x[cols], np.flatnonzero(z <= 0.0)
            ratio = xp[neg] / (xp[neg] - z[neg])
            xp = np.maximum(xp + ratio.min() * (z - xp), 0.0)
            xp[neg[ratio.argmin()]] = 0.0
            x[cols] = xp
            cols = [c for c, t in zip(cols, xp.tolist()) if t > 0.0]
            q, r = np.linalg.qr(ab[:, cols], mode="complete")
            qab = q.T @ ab
            qab[:, cols] = r
            inv = np.linalg.inv(r[:len(cols)])
            z = inv @ qab[:len(cols), n]
        x[cols] = z
        order = cols
        w = _dual(qab[len(cols):], rounding)
    raise RuntimeError("nnls: iteration limit reached")


def _dual(rows: np.ndarray, rounding: np.ndarray) -> np.ndarray:
    """nnls's w from the rows of Q^T [a b] below the passive triangle,
    with the entries at rounding level set to 0."""
    w = rows[:, :-1].T @ rows[:, -1]
    norms = np.sqrt(np.einsum("ij,ij->j", rows, rows))
    w[w <= rounding[-1] * norms[:-1] + norms[-1] * rounding[:-1]] = 0.0
    return w
