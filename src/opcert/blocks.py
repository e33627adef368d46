"""Spectral norms of block grids of space elements, with gradients.

A grid of shape (n1, n2, d) stands for the concrete matrix whose (i, j)
block is the embedding of the coefficient vector grid[i, j]; up to a
permutation it is the direct sum of one n1 x n2 grid per block of the
space. Every objective reads its value and gradient from the top
(frame, block) piece of a stack of grids, `top_value_and_grad`, whether
the space is dense or point-backed.
The gradient returned is the Wirtinger ascent direction G for the real
objective sigma_max: writing a coefficient as a + ib, G = df/da + i df/db,
so C + s*G increases the norm and C - s*G decreases it. sigma_max is
convex, and G, from a top singular pair of a top block, is a subgradient
of it even at a kink (a tied top); `smooth` is a diagnostic of the kink.

The partner and product searches share one objective, `SlotProblem`: the
worst excess max_t (|[[t u, b12], [b21, t v]]| - offset_t)+ over a stack
of `t_frames`, as a function of the one off-diagonal slot left free. A
`SlotProblem` is a stack of R such problems, and row r of a stack of slot
values is evaluated against problem r, so a check stage hands all its
searches to the solver at once. The `lower_bound` of a one-problem stack
certifies how low that excess can go over the ball, and its
`descent_step` takes an eps-descent step, line search included, both from
the `Pieces` of one point.
"""

from __future__ import annotations

import functools

import numpy as np

from .matcore import adjoint, block_norms, nnls, top_singular_triple
from .opspace import ConcreteOpSpace
from .solver import SolverConfig

GAP_TOL = 1e-8
# the eps of a lower bound, tried in order: the pieces of a bound are the
# (t, block) pairs whose excess is within eps of the worst
EPS_LADDER = (1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 1e-1)
# a point this close to the unit sphere takes the ball's normal cone
ON_SPHERE = 1e-9
# an eps-descent step: its eps as fractions of the worst excess f, and
# its line search, in units of f / |r|
DESCENT_EPS = (2.0, 0.5)
STEP_LADDER = 4.0 ** -np.arange(-1, 7)
# weight of the sum-to-one row against the subgradient rows in the NNLS
SIMPLEX_WEIGHT = 1e3


def top_value_and_grad(space: ConcreteOpSpace, stacks: np.ndarray,
                       offsets=None):
    """The worst excess of each row of an (S, F, w, n1 p, n2 q) stack of F
    frames (`grid_blocks` of (n1, n2, d) grids) over its (frame, block)
    pieces, block norm less frame offset (0 without offsets; (1, F)
    offsets serve every row, (S, F) ones give each row its own); its
    (S, n1, n2, d) gradient from the top block's top singular pair, one
    batched SVD; that block's sigma_1 - sigma_2; and the (S, F, w) block
    norms, or None for one block of one frame, which has nothing to choose.
    """
    rows, frames, w = stacks.shape[:3]
    _, _, p, q = space.basis.shape
    offsets = np.zeros((1, frames)) if offsets is None else offsets
    if frames * w == 1:
        norms, chosen, offset = None, stacks[:, 0, 0], offsets[:, 0]
        basis = space.basis[None, :, 0]
    else:
        norms = block_norms(stacks)
        top = (norms - offsets[..., None]).reshape(rows, -1).argmax(axis=-1)
        f, k = np.divmod(top, w)
        chosen = stacks[np.arange(rows), f, k]
        offset = offsets[np.arange(rows) if len(offsets) > 1 else 0, f]
        basis = space.basis[:, k].swapaxes(0, 1)
    sigma, u, v, gap = top_singular_triple(chosen)
    t = np.einsum("sip,skpq,sjq->sijk", np.conj(u.reshape(rows, -1, p)),
                  basis, v.reshape(rows, -1, q))
    return sigma - offset, np.conj(t), gap, norms


def grid_value_and_grad(space: ConcreteOpSpace, grid: np.ndarray):
    """Norm of the concrete matrix of a grid, its gradient, and a smoothness
    flag (False near a degenerate top singular value). For an
    (..., n1, n2, d) stack of grids: arrays of norms and gradients over the
    leading axes, and whether every grid of the stack is smooth. The gap
    is taken against the top block's second singular value and against
    the runner-up block, since either can take over the norm.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    lead = grid.shape[:-3]
    stacks = space.grid_blocks(grid.reshape(-1, 1, *grid.shape[-3:]))
    sigma, grad, gap, norms = top_value_and_grad(space, stacks)
    if norms is not None:
        gap = np.minimum(gap, sigma - np.partition(norms[:, 0], -2)[:, -2])
    smooth = bool((gap > GAP_TOL * np.maximum(sigma, 1.0)).all())
    sigma = sigma.reshape(lead) if lead else float(sigma[0])
    return sigma, grad.reshape(grid.shape), smooth


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
    with v = u when not given; None is a zero off-diagonal block. Entries
    given as (R, d) stacks of coefficient vectors, one per problem, give
    an (R, T, 2, 2, d) stack of such stacks."""
    ts = np.asarray(ts, dtype=float)[:, None]
    v = u if v is None else v
    lead = max((np.shape(b)[:-1] for b in (u, v, b12, b21) if b is not None),
               key=len)
    frames = np.zeros(lead + (len(ts), 2, 2, space.dim), dtype=np.complex128)
    frames[..., 0, 0, :] = ts * np.asarray(u)[..., None, :]
    frames[..., 1, 1, :] = ts * np.asarray(v)[..., None, :]
    if b12 is not None:
        frames[..., 0, 1, :] = np.asarray(b12)[..., None, :]
    if b21 is not None:
        frames[..., 1, 0, :] = np.asarray(b21)[..., None, :]
    return frames


class SlotProblem:
    """Worst excess max_T (|grid_T| - offset_T)+ as a function of one slot
    of a (T, 2, 2, d) stack of frames; convex in the slot. A stack of R
    such problems has (R, T, 2, 2, d) frames and offsets broadcast to
    (R, T); a (T, 2, 2, d) stack of frames is one problem."""

    def __init__(self, space: ConcreteOpSpace, frames, slot, offsets):
        self.space = space
        frames = np.asarray(frames, dtype=np.complex128)
        self.frames = frames.reshape((-1,) + frames.shape[-4:])
        self.slot = slot
        self.offsets = np.broadcast_to(np.asarray(offsets, dtype=float),
                                       self.frames.shape[:2])
        self.dim = space.dim

    def take(self, rows) -> "SlotProblem":
        """The stack of the problems ``rows``, in that order."""
        return SlotProblem(self.space, self.frames[rows], self.slot,
                           self.offsets[rows])

    def norm(self, c: np.ndarray):
        """Norm of a slot value, or of each row of a (..., d) stack."""
        c = np.asarray(c, dtype=np.complex128)
        return self.space.grid_norm(c[..., None, None, :])

    def _grids(self, c: np.ndarray) -> np.ndarray:
        """(..., T, 2, 2, d) grids for a (..., d) stack of slot values: row
        r in the frames of problem r, or every row in those of a
        one-problem stack."""
        c = np.asarray(c, dtype=np.complex128)
        grids = np.empty(c.shape[:-1] + self.frames.shape[1:],
                         dtype=np.complex128)
        grids[...] = self.frames
        grids[..., self.slot[0], self.slot[1], :] = c[..., None, :]
        return grids

    def _hinges(self, grids: np.ndarray) -> np.ndarray:
        """The (..., T) hinges of `_grids`."""
        return np.maximum(self.space.grid_norm(grids) - self.offsets, 0.0)

    def value_and_grad(self, c: np.ndarray):
        """Worst excess and its subgradient in the slot, for a slot value of
        a one-problem stack or for each row of an (S, d) stack, row r
        against problem r (or against the one problem)."""
        grids = self._grids(c)
        lead = grids.shape[:-4]
        stacks = self.space.grid_blocks(grids.reshape(-1, *grids.shape[-4:]))
        excess, grad, _, _ = top_value_and_grad(self.space, stacks,
                                                self.offsets)
        grad = grad[:, self.slot[0], self.slot[1], :]
        if min(excess.tolist()) <= 0.0:
            # inside the feasible set the hinge is flat at zero
            inside = excess <= 0.0
            excess[inside] = grad[inside] = 0.0
        if not lead:
            return float(excess[0]), grad[0]
        return excess.reshape(lead), grad.reshape(*lead, self.dim)

    def lower_bound(self, c) -> float:
        """A lower bound on the minimum of the worst excess over the ball,
        certified at the point c of the ball by its `Pieces`, or -inf.

        eps runs up EPS_LADDER and stops at the first bound that settles a
        search, one at fail_tol or within cert_tol of the excess f at c.
        An eps larger than f minus that level cannot give one, and an eps
        that adds no z-piece would give a smaller bound than the last:
        neither is tried. Returns the best bound found."""
        at = Pieces(self, c)
        stop = min(SolverConfig.fail_tol, at.f - SolverConfig.cert_tol)
        best, columns = -np.inf, 0
        for eps in EPS_LADDER:
            if eps > at.f - stop:
                break
            g = at.z_subgradients(eps)
            if g.shape[1] > columns:
                columns = g.shape[1]
                best = max(best, at.bound(eps, *_shortest(g, at.h)))
                if best >= stop:
                    break
        return best

    def descent_step(self, c):
        """The point an eps-descent step from the point c of the ball moves
        to, or None when no eps gives a direction. The trial points are
        c + s d, pulled back into the ball, for each direction d of
        `Pieces.descent` at eps = f * DESCENT_EPS and each s of STEP_LADDER
        times f / |r|, the step that would reach 0 at slope |r|; the step
        moves to the first of those with the least worst excess, read from
        block norms alone."""
        at = Pieces(self, c)
        rows = []
        for frac in DESCENT_EPS:
            d, size = at.descent(frac * at.f)
            if d is not None:
                rows.append(at.c + (at.f / size) * STEP_LADDER[:, None] * d)
        if not rows:
            return None
        rows = np.concatenate(rows)
        # pulled back into the ball; c / 1.0 is c, bit for bit
        rows /= np.maximum(self.norm(rows), 1.0)[:, None]
        return rows[self._hinges(self._grids(rows)).max(axis=-1).argmin()]


def _real(g: np.ndarray) -> np.ndarray:
    """Complex gradients (..., d) as real vectors (..., 2d): [Re, Im]."""
    return np.concatenate([g.real, g.imag], axis=-1)


class Pieces:
    """First-order data of a one-problem `SlotProblem` at a point c of the
    ball, from which `bound` certifies a lower bound on its minimum over
    the ball.

    A piece is one (t, block) pair: phi_i(y) = (norm of that block of
    frame t) - offset_t, convex in the slot y. Let f be the worst excess at
    c. Each piece with phi_i(c) >= f - eps gives z-pieces, eps-subgradients
    g_z from the near-top singular pairs of its block (`z_subgradients`),
    taken as real vectors [Re, Im], each with
    worst excess(y) >= f - eps + <g_z, y - c> on the ball. When c is on the
    sphere, the norm subgradient h at c has <h, y - c> <= 1 - norm(c) for
    every y of the ball. So for lambda >= 0 summing to 1 and mu >= 0, with
    r = sum lambda_z g_z + mu h, every y of the ball has

        worst excess(y) >= f - eps + <r, y - c> - mu (1 - norm(c))
                        >= f - eps - |r| (R + |c|) - mu (1 - norm(c)),

    where R = space.coeff_radius() bounds |y|. This is the
    eps-subdifferential optimality test of bundle methods (Lemarechal;
    Kiwiel, Methods of Descent for Nondifferentiable Optimization, 1985).
    `bound` uses it as a certificate; `descent` takes the shortest r as a
    step.
    """

    def __init__(self, problem: SlotProblem, c):
        space = problem.space
        self.problem = problem
        # the offsets of the one problem of the stack
        (self.offsets,) = problem.offsets
        self.c = np.asarray(c, dtype=np.complex128)
        self.stacks = space.grid_blocks(problem._grids(self.c))
        excess = (block_norms(self.stacks) - self.offsets[:, None]).ravel()
        # pieces by falling excess: those within eps of f are a prefix
        self.order = np.argsort(-excess, kind="stable")
        self.ranked = excess[self.order]
        self.f = float(self.ranked[0])
        self.svds = None        # (u, s, vh) of the blocks of a prefix of pieces
        self.columns = {}       # eps -> its z_subgradients, built once
        ball = space.grid_blocks(self.c.reshape(1, 1, 1, 1, -1))
        norm, g, _, _ = top_value_and_grad(space, ball)
        self.slack = max(0.0, 1.0 - float(norm[0]))
        self.h = _real(g[0, 0, 0]) if self.slack <= ON_SPHERE else None
        self.reach = space.coeff_radius() + float(np.linalg.norm(self.c))

    def z_subgradients(self, eps: float) -> np.ndarray:
        """(2d, n) real eps-subgradients, as columns, from the near-top
        singular subspaces of the pieces within eps of f, piece by piece in
        falling order of excess.

        In the block B of such a piece (t, k), take the singular pairs with
        sigma_j - offset_t >= f - eps as the columns of U and V. For a unit
        z, Re <U z, B' V z> <= |B'| for every B', with equality less
        sum |z_j|^2 (sigma_1 - sigma_j) at B' = B; so the slot gradient g_z
        of (U z)(V z)* has worst excess(y) >= f - eps + <g_z, y - c>. z runs
        over e_a and (e_a + w e_b)/sqrt(2), w in {1, -1, i, -i}, a < b: a
        polyhedral inner approximation of the spectral eps-subdifferential.
        g_z is read as `top_value_and_grad` reads a top pair's gradient,
        conj(<U z, B_slot V z>) over the basis, from the cross terms
        M_ab = <u_a, B_slot v_b>; z = e_0 gives the top pair's own.
        The columns of each eps are built once and shared, read-only.
        """
        if eps in self.columns:
            return self.columns[eps]
        space, problem = self.problem.space, self.problem
        m = int(np.count_nonzero(self.ranked >= self.f - eps))
        _, w, p, q = space.basis.shape
        t, k = np.divmod(self.order[:m], w)
        if self.svds is None or len(self.svds[1]) < m:
            self.svds = np.linalg.svd(self.stacks[t, k])
        u, s, vh = (a[:m] for a in self.svds)
        # singular values fall, so the near-top pairs are a prefix; the top
        # one is within eps by the choice of pieces, whatever the rounding
        near = np.maximum(
            np.count_nonzero(s - self.offsets[t][:, None] >= self.f - eps,
                             axis=1), 1)
        n = int(near.max())
        i, j = problem.slot
        left = u[:, :, :n].reshape(m, -1, p, n)[:, i]
        right = np.conj(vh[:, :n]).swapaxes(1, 2).reshape(m, -1, q, n)[:, j]
        cross = np.einsum("mpa,kmpq,mqb->mabk", np.conj(left),
                          space.basis[:, k], right)
        z, support = _unit_mixes(n)
        g = np.einsum("az,mabk,bz->mzk", np.conj(z), cross, z)
        g = _real(np.conj(g[support[None, :] < near[:, None]])).T
        g.flags.writeable = False
        self.columns[eps] = g
        return g

    def descent(self, eps: float):
        """(-r/|r|, |r|) for the shortest r = sum lambda_z g_z + mu h over the
        z-pieces within eps (`z_subgradients`): the eps-steepest descent
        direction as a complex (d,) vector, or None when r vanishes, which
        makes c eps-optimal up to that inner approximation."""
        g = self.z_subgradients(eps)
        lam, mu = _shortest(g, self.h)
        r = g @ lam
        if mu:
            r = r + mu * self.h
        size = float(np.linalg.norm(r))
        if not size > 0.0:
            return None, 0.0
        d = self.problem.dim
        return -(r[:d] + 1j * r[d:]) / size, size

    def bound(self, eps: float, lam, mu: float) -> float:
        """The lower bound f - eps - |r| (R + |c|) - mu (1 - norm(c)) from
        any multipliers, trusting only lambda >= 0 and mu >= 0: negative
        entries count as 0, lambda is scaled to sum 1 (and mu with it), and
        r is recomputed from them over the z-pieces within eps
        (`z_subgradients`). -inf when no entry of lambda is positive."""
        g = self.z_subgradients(eps)
        lam = np.clip(np.asarray(lam, dtype=float), 0.0, None)
        total = float(lam.sum())
        if not total > 0.0:
            return -np.inf
        r = g @ (lam / total)
        mu = max(float(mu), 0.0) / total if self.h is not None else 0.0
        if mu:
            r = r + mu * self.h
        return (self.f - eps - float(np.linalg.norm(r)) * self.reach
                - mu * self.slack)


def _shortest(g: np.ndarray, h):
    """(lambda, mu) making r = g lambda + mu h short over lambda >= 0 with
    sum(lambda) = 1 and mu >= 0, for the (2d, m) columns g and the normal h
    (None off the sphere): one NNLS of the columns [g_i, h] with the sum as
    one heavily weighted extra row. One column needs none: lambda = 1, and
    mu >= 0 minimizes |g + mu h| in closed form."""
    m = g.shape[1]
    if m == 1:
        hh = 0.0 if h is None else float(h @ h)
        mu = max(0.0, -float(g[:, 0] @ h) / hh) if hh else 0.0
        return np.ones(1), mu
    cols = g if h is None else np.column_stack([g, h])
    weight = SIMPLEX_WEIGHT * max(1.0, float(np.abs(cols).max()))
    a = np.vstack([cols, np.zeros(cols.shape[1])])
    a[-1, :m] = weight
    b = np.zeros(a.shape[0])
    b[-1] = weight
    try:
        x, _ = nnls(a, b)
    except RuntimeError:
        # the active-set iteration limit: equal weights are valid too
        return np.full(m, 1.0 / m), 0.0
    return x[:m], 0.0 if h is None else float(x[m])


@functools.cache
def _unit_mixes(n: int):
    """(n, n + 2 n (n - 1)) unit vectors z as columns, e_a and then
    (e_a + w e_b)/sqrt(2) for a < b and w in {1, -1, i, -i}, and for each
    the last index it uses: a z serves a piece with more near-top pairs
    than that index."""
    cols, last = [np.eye(n, dtype=np.complex128)], list(range(n))
    for b in range(1, n):
        for a in range(b):
            z = np.zeros((n, 4), dtype=np.complex128)
            z[a] = 1.0
            z[b] = (1.0, -1.0, 1j, -1j)
            cols.append(z / np.sqrt(2.0))
            last += [b] * 4
    z, last = np.hstack(cols), np.array(last)
    z.flags.writeable = last.flags.writeable = False    # shared by callers
    return z, last
