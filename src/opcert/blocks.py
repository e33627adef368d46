"""Spectral norms of block grids of space elements, with gradients.

A grid of shape (n1, n2, d) stands for the concrete matrix whose (i, j)
block is the embedding of the coefficient vector grid[i, j]; up to a
permutation it is the direct sum of one n1 x n2 grid per block of the
space.
The gradient returned is the Wirtinger ascent direction G for the real
objective sigma_max: writing a coefficient as a + ib, G = df/da + i df/db,
so C + s*G increases the norm and C - s*G decreases it. sigma_max is
convex, and G, from a top singular pair of a top block, is a subgradient
of it even at a kink (a tied top); `smooth` is a diagnostic of the kink.
"""

from __future__ import annotations

import numpy as np

from .matcore import block_norms, top_singular_triple
from .opspace import ConcreteOpSpace

GAP_TOL = 1e-8


def grid_value_and_grad(space: ConcreteOpSpace, grid: np.ndarray):
    """Norm of the concrete matrix of a grid, its gradient, and a smoothness
    flag (False near a degenerate top singular value)."""
    return stack_value_and_grad(space, space.grid_blocks(grid))


def stack_value_and_grad(space: ConcreteOpSpace, stack: np.ndarray,
                         norms: np.ndarray | None = None):
    """`grid_value_and_grad` of one grid, from its (w, n1 p, n2 q) block
    stack and, when w > 1, its per-block norms (computed when not given).

    The gradient comes from the top singular pair of the top block. The
    gap is taken against the block's second singular value and against
    the runner-up block, since either can take over the norm.
    """
    _, w, p, q = space.basis.shape
    top, runner = 0, 0.0
    if w > 1:
        norms = block_norms(stack) if norms is None else norms
        top = int(np.argmax(norms))
        runner = float(np.partition(norms, w - 2)[w - 2])
    sigma, u, v, gap = top_singular_triple(stack[top])
    gap = min(gap, sigma - runner)
    t = np.einsum("ip,kpq,jq->ijk", np.conj(u.reshape(-1, p)),
                  space.basis[:, top], v.reshape(-1, q))
    smooth = gap > GAP_TOL * max(1.0, sigma)
    return sigma, np.conj(t), smooth


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
