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

The partner and product searches share one objective, `SlotProblem`: the
worst excess max_t (|[[t u, b12], [b21, t v]]| - offset_t)+ over a stack
of `t_frames`, as a function of the one off-diagonal slot left free.
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


def t_frames(space: ConcreteOpSpace, ts, u, b12, b21, v=None) -> np.ndarray:
    """(T, 2, 2, d) stack of the grids [[t u, b12], [b21, t v]] over ts,
    with v = u when not given; None is a zero off-diagonal block."""
    ts = np.asarray(ts, dtype=float)
    frames = np.zeros((ts.size, 2, 2, space.dim), dtype=np.complex128)
    frames[:, 0, 0] = ts[:, None] * u
    frames[:, 1, 1] = ts[:, None] * (u if v is None else v)
    if b12 is not None:
        frames[:, 0, 1] = b12
    if b21 is not None:
        frames[:, 1, 0] = b21
    return frames


class SlotProblem:
    """Worst excess max_T (|grid_T| - offset_T)+ as a function of one slot
    of a (T, 2, 2, d) stack of frames; convex in the slot."""

    def __init__(self, space: ConcreteOpSpace, frames, slot, offsets):
        self.space = space
        self.frames = np.asarray(frames, dtype=np.complex128)
        self.slot = slot
        self.offsets = np.broadcast_to(np.asarray(offsets, dtype=float),
                                       self.frames.shape[:1])
        self.dim = space.dim

    def norm(self, c: np.ndarray) -> float:
        return self.space.norm(c)

    def _grids(self, c: np.ndarray) -> np.ndarray:
        """(..., T, 2, 2, d) grids for a (..., d) stack of slot values."""
        c = np.asarray(c, dtype=np.complex128)
        grids = np.broadcast_to(self.frames, c.shape[:-1] + self.frames.shape).copy()
        grids[..., self.slot[0], self.slot[1], :] = c[..., None, :]
        return grids

    def _hinges(self, grids: np.ndarray) -> np.ndarray:
        return np.maximum(self.space.grid_norm(grids) - self.offsets, 0.0)

    def value(self, c: np.ndarray):
        """Worst excess of a slot value, or of each row of a (..., d) stack."""
        return self._hinges(self._grids(c)).max(axis=-1)

    def value_and_grad(self, c: np.ndarray):
        # one stack for excesses and gradient; one frame of one block needs
        # no norm
        stacks = self.space.grid_blocks(self._grids(c))
        i, norms = 0, None
        if stacks.shape[:2] != (1, 1):
            norms = block_norms(stacks)
            i = int(np.argmax(norms.max(axis=-1) - self.offsets))
            norms = norms[i]
        sigma, grad, _ = stack_value_and_grad(self.space, stacks[i], norms)
        if sigma <= self.offsets[i]:
            return 0.0, np.zeros(self.dim, dtype=np.complex128)
        return float(sigma - self.offsets[i]), grad[self.slot[0], self.slot[1], :]
