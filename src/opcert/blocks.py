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

from .matcore import adjoint, block_norms, top_singular_triple
from .opspace import ConcreteOpSpace

GAP_TOL = 1e-8


def grid_value_and_grad(space: ConcreteOpSpace, grid: np.ndarray):
    """Norm of the concrete matrix of a grid, its gradient, and a smoothness
    flag (False near a degenerate top singular value). For an
    (..., n1, n2, d) stack of grids: arrays of norms and gradients over the
    leading axes, and whether every grid of the stack is smooth.

    The gap is taken against the top block's second singular value and
    against the runner-up block, since either can take over the norm.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    lead = grid.shape[:-3]
    stack = space.grid_blocks(grid.reshape(-1, *grid.shape[-3:]))
    w = stack.shape[1]
    norms = block_norms(stack) if w > 1 else None
    sigma, grad, gap = stack_value_and_grad(space, stack, norms)
    if w > 1:
        gap = np.minimum(gap, sigma - np.partition(norms, w - 2, axis=-1)[:, w - 2])
    smooth = bool((gap > GAP_TOL * np.maximum(sigma, 1.0)).all())
    sigma = sigma.reshape(lead) if lead else float(sigma[0])
    return sigma, grad.reshape(grid.shape), smooth


def stack_value_and_grad(space: ConcreteOpSpace, stack: np.ndarray,
                         norms: np.ndarray | None = None):
    """Norms (S,), gradients (S, n1, n2, d) and top-block gaps (S,) of S
    grids, from their (S, w, n1 p, n2 q) block stack and, when w > 1, their
    (S, w) block norms.

    Each row's gradient comes from the top singular pair of its top block,
    one batched SVD over the S chosen blocks; its gap is the block's
    sigma_1 - sigma_2.
    """
    _, w, p, q = space.basis.shape
    rows = stack.shape[0]
    if w > 1:
        top = norms.argmax(axis=-1)
        chosen = stack[np.arange(rows), top]
        basis, spec = space.basis[:, top].swapaxes(0, 1), "sip,skpq,sjq->sijk"
    else:
        chosen = stack[:, 0]
        basis, spec = space.basis[:, 0], "sip,kpq,sjq->sijk"
    sigma, u, v, gap = top_singular_triple(chosen)
    t = np.einsum(spec, np.conj(u.reshape(rows, -1, p)), basis,
                  v.reshape(rows, -1, q))
    return sigma, np.conj(t), gap


def ambient_product(space: ConcreteOpSpace, a, b, c) -> np.ndarray:
    """Block stack of the ambient ternary product a adjoint(b) c of three
    coefficient vectors."""
    return space.blocks(a) @ adjoint(space.blocks(b)) @ space.blocks(c)


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

    def norm(self, c: np.ndarray):
        """Norm of a slot value, or of each row of a (..., d) stack."""
        c = np.asarray(c, dtype=np.complex128)
        return self.space.grid_norm(c[..., None, None, :])

    def _grids(self, c: np.ndarray) -> np.ndarray:
        """(..., T, 2, 2, d) grids for a (..., d) stack of slot values."""
        c = np.asarray(c, dtype=np.complex128)
        grids = np.empty(c.shape[:-1] + self.frames.shape, dtype=np.complex128)
        grids[...] = self.frames
        grids[..., self.slot[0], self.slot[1], :] = c[..., None, :]
        return grids

    def _hinges(self, grids: np.ndarray) -> np.ndarray:
        return np.maximum(self.space.grid_norm(grids) - self.offsets, 0.0)

    def value_and_grad(self, c: np.ndarray):
        """Worst excess and its subgradient in the slot, for a slot value or
        for each row of an (S, d) stack."""
        grids = self._grids(c)
        lead = grids.shape[:-4]
        # one stack for excesses and gradients; one frame needs no argmax
        # and one block no norm
        stacks = self.space.grid_blocks(grids.reshape(-1, *self.frames.shape))
        rows, frames, w = stacks.shape[:3]
        if frames == 1:
            chosen, offset = stacks[:, 0], self.offsets[0]
            norms = block_norms(chosen) if w > 1 else None
        else:
            norms = block_norms(stacks)
            pick = (np.arange(rows),
                    (norms.max(axis=-1) - self.offsets).argmax(axis=-1))
            chosen, offset, norms = stacks[pick], self.offsets[pick[1]], norms[pick]
        sigma, grad, _ = stack_value_and_grad(self.space, chosen, norms)
        excess = sigma - offset
        grad = grad[:, self.slot[0], self.slot[1], :]
        if min(excess.tolist()) <= 0.0:
            # inside the feasible set the hinge is flat at zero
            inside = excess <= 0.0
            excess[inside] = 0.0
            grad[inside] = 0.0
        if not lead:
            return float(excess[0]), grad[0]
        return excess.reshape(lead), grad.reshape(*lead, self.dim)
