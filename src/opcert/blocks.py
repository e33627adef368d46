"""Spectral norms of block grids of space elements, with gradients.

A grid of shape (n1, n2, d) stands for the concrete (n1*p) x (n2*q) matrix
whose (i, j) block is the embedding of the coefficient vector grid[i, j].
The gradient returned is the Wirtinger ascent direction G for the real
objective sigma_max: writing a coefficient as a + ib, G = df/da + i df/db,
so C + s*G increases the norm and C - s*G decreases it. G is only valid
when the top singular value is simple; the `smooth` flag reports that, and
callers fall back to finite differences when it is False.
"""

from __future__ import annotations

import numpy as np

from .matcore import batched_spectral_norm, top_singular_triple
from .opspace import ConcreteOpSpace

GAP_TOL = 1e-8


def grid_value(space: ConcreteOpSpace, grid: np.ndarray) -> float:
    return space.grid_norm(grid)


def grid_value_and_grad(space: ConcreteOpSpace, grid: np.ndarray):
    """Norm of the concrete matrix of a grid, its gradient, and a smoothness
    flag (False near a degenerate top singular value)."""
    grid = np.asarray(grid, dtype=np.complex128)
    n1, n2, d = grid.shape
    if space.diagonal:
        vals = np.einsum("ijk,kw->wij", grid, space.point_basis)
        norms = batched_spectral_norm(vals)
        w_star = int(np.argmax(norms))
        u, s, vh = np.linalg.svd(vals[w_star])
        sigma = float(s[0])
        runner = s[1] if s.size > 1 else 0.0
        if norms.size > 1:
            others = np.delete(norms, w_star)
            runner = max(float(runner), float(others.max()))
        gap = sigma - float(runner)
        wvec = u[:, 0]
        vvec = np.conj(vh[0, :])
        pb = space.point_basis[:, w_star]
        grad = np.einsum("i,j,k->ijk", wvec, np.conj(vvec), np.conj(pb))
        smooth = gap > GAP_TOL * max(1.0, sigma)
        return sigma, grad, smooth
    p, q = space.ambient_shape
    mat = np.einsum("ijk,kpq->ipjq", grid, space.basis).reshape(n1 * p, n2 * q)
    sigma, w, v, gap = top_singular_triple(mat)
    wb = w.reshape(n1, p)
    vb = v.reshape(n2, q)
    t = np.einsum("ip,kpq,jq->ijk", np.conj(wb), space.basis, vb)
    grad = np.conj(t)
    smooth = gap > GAP_TOL * max(1.0, sigma)
    return sigma, grad, smooth


def row_with_unit(space: ConcreteOpSpace, u_coeffs: np.ndarray,
                  x_grid: np.ndarray) -> np.ndarray:
    """Grid of the row block [u_n  x] for x at level n: shape (..., n, 2n, d)
    for a (..., n, n, d) stack."""
    *lead, n, _, d = x_grid.shape
    full = np.zeros((*lead, n, 2 * n, d), dtype=np.complex128)
    full[..., np.arange(n), np.arange(n), :] = u_coeffs
    full[..., n:, :] = x_grid
    return full


def column_with_unit(space: ConcreteOpSpace, u_coeffs: np.ndarray,
                     x_grid: np.ndarray) -> np.ndarray:
    """Grid of the column block [u_n over x] for x at level n: shape
    (..., 2n, n, d) for a (..., n, n, d) stack."""
    *lead, n, _, d = x_grid.shape
    full = np.zeros((*lead, 2 * n, n, d), dtype=np.complex128)
    full[..., np.arange(n), np.arange(n), :] = u_coeffs
    full[..., n:, :, :] = x_grid
    return full


def two_by_two(space: ConcreteOpSpace, b11, b12, b21, b22) -> np.ndarray:
    """Level-2 grid from four coefficient vectors (None means a zero block)."""
    d = space.dim
    grid = np.zeros((2, 2, d), dtype=np.complex128)
    for (i, j), b in (((0, 0), b11), ((0, 1), b12), ((1, 0), b21), ((1, 1), b22)):
        if b is not None:
            grid[i, j] = space.as_coeffs(b)
    return grid
