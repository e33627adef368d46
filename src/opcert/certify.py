"""Numerical unitarity certificates for a designated element.

The row defect of x at matrix level n is (|u_n|^2 + |x|^2) - |[u_n  x]|^2,
maximized over the unit sphere of M_n(X); the column defect uses the stacked
block instead. A designated u of norm one is certified unitary when both
defects stay at numerical zero, a coisometry when only the row defect does,
an isometry when only the column defect does.

Each direction is first bounded from the concrete blocks of u: since
|[u_n  x]|^2 = |u_n u_n* + x x*| >= lambda_min(u u*) + |x|^2 (Weyl), the
row defect at every level is at most 1 - lambda_min(u u*), which is
1 - sigma_min(u)^2 when u's blocks are p x q with p <= q and useless
(1) otherwise; the column defect is bounded by lambda_min(u* u) the same
way. A direction whose bound is within cert_tol runs no search: its PASS
is a proof at every level, not only up to max_level. Its report keeps the
bound (``row_defect_bound``, ``column_defect_bound``) and, as witness, the
level-1 point u/|u|, whose defect 1 - |u|^2 is attained.

Any other direction is searched level by level. Each level's search
warm-starts at the level-1 witness repeated down the diagonal and at the
previous level's witness in the corner, and the diagnostics hold every
level's defect (``row_defect_level_n``, ``column_defect_level_n``) and
whether every search converged. The worst defect found is attained by its
witness, so it is a certified lower bound for the true supremum: the
verdict (`report.verdict_of`) is FAIL once it reaches fail_tol, converged
or not. Only when every search of a direction converged is its worst
defect also taken as that direction's upper bound (capped by the concrete
bound), so a PASS through the search needs a worst defect within cert_tol
from converged searches; it is evidence from a multistart search, not a
proof. ``upper_route`` names what the upper side rests on: ``concrete``
when the bound settled every direction, ``search`` otherwise.

On a point-backed space (``space.diagonal``) the level-1 row search of
`funcspace.scalar_unitary_check` decides every direction and level. At
each point w the blocks of u_n and x are u(w) I and x(w), so the row and
column blocks share the squared norm max_w (|u(w)|^2 + |x(w)|^2). And if
x has norm one and xi* x(w) eta = 1 for unit xi, eta where |x(w)| peaks,
f = xi* x eta has norm one and |f| <= |x| pointwise, so the level-1
defect of f is at least the level-n defect of x.
"""

from __future__ import annotations

import numpy as np

from .blocks import column_with_unit, grid_value_and_grad, row_with_unit
from .errors import InvalidInputError, PreconditionError, SolverError
from .opspace import ConcreteOpSpace
from .report import CertificateReport, verdict_of
from .solver import SolverConfig, maximize_over_sphere

UNIT_NORM_TOL = 1e-6
# seed salt of each defect direction's sweeps
DEFECT_SALTS = {"row": 11, "column": 12}
# rounding allowance of the concrete bound, per unit of max(p, q)
BOUND_ROUNDING = 8 * float(np.finfo(float).eps)


class _DefectProblem:
    """Maximize 1 + |x|^2 - |block(u_n, x)|^2 over the unit sphere of M_n(X)."""

    def __init__(self, space: ConcreteOpSpace, u: np.ndarray, n: int, direction: str):
        self.space = space
        self.u = u
        self.n = n
        self.direction = direction
        self.dim = n * n * space.dim
        self.u_norm = space.norm(u)
        self._build = row_with_unit if direction == "row" else column_with_unit

    def _grid(self, c: np.ndarray) -> np.ndarray:
        return c.reshape(*c.shape[:-1], self.n, self.n, self.space.dim)

    def norm(self, c: np.ndarray):
        """Norm of an iterate, or of each row of a (..., dim) stack."""
        return self.space.grid_norm(self._grid(c))

    def _invariant(self, nx, bn, c: np.ndarray) -> None:
        """Raise unless every block norm lies in its [|u|^2, |u|^2 + |x|^2]
        bracket; nx and bn are matching arrays for a stack of iterates."""
        lo = self.u_norm ** 2 - 1e-6
        hi = self.u_norm ** 2 + np.square(nx) + 1e-6
        bad = np.flatnonzero((np.square(bn) < lo) | (np.square(bn) > hi))
        if bad.size:
            k = bad[0]
            raise SolverError(
                f"block norm {np.ravel(bn)[k]:.6g} escapes "
                f"[{lo:.6g}, {np.ravel(hi)[k]:.6g}] bracket",
                iterate=c.reshape(-1, self.dim)[k])

    def value_and_grad(self, c: np.ndarray):
        """Defect and gradient of an iterate, or of each row of an
        (S, dim) stack."""
        x = self._grid(c)
        nx, gx, _ = grid_value_and_grad(self.space, x)
        bn, gf, _ = grid_value_and_grad(self.space, self._build(self.space, self.u, x))
        self._invariant(nx, bn, c)
        n = self.n
        part = gf[..., :, n:, :] if self.direction == "row" else gf[..., n:, :, :]
        lead = c.shape[:-1] + (1, 1, 1)
        grad = 2.0 * np.reshape(nx, lead) * gx - 2.0 * np.reshape(bn, lead) * part
        return 1.0 + nx * nx - bn * bn, grad.reshape(c.shape)


def _diag_embed(witness: np.ndarray, n: int) -> np.ndarray:
    """Level-1 witness repeated down the diagonal of a level-n grid."""
    d = witness.shape[2]
    grid = np.zeros((n, n, d), dtype=np.complex128)
    grid[np.arange(n), np.arange(n), :] = witness[0, 0, :]
    return grid


def _pad_embed(witness: np.ndarray, n: int) -> np.ndarray:
    """Level-(n-1) witness in the upper-left corner, zero elsewhere."""
    k, _, d = witness.shape
    grid = np.zeros((n, n, d), dtype=np.complex128)
    grid[:k, :k, :] = witness
    return grid


def _resolve_unit(space: ConcreteOpSpace, u) -> np.ndarray:
    uc = space.unit_coeffs(u)
    nu = space.norm(uc)
    if nu > 1.0 + UNIT_NORM_TOL:
        raise PreconditionError(f"designated element has norm {nu:.6g} > 1")
    return uc


def _concrete_bounds(space: ConcreteOpSpace, uc: np.ndarray) -> dict:
    """Upper bound on the row and column defect of u at every level, from
    one batched SVD of u's (w, p, q) blocks: 1 - min_k sigma_min(u_k)^2 on
    the side where the blocks have no more rows (row) or columns (column)
    than the other, 1 on the other side; clipped at 0, plus a rounding
    allowance."""
    blocks = space.blocks(uc)
    _, p, q = blocks.shape
    smin = float(np.linalg.svd(blocks, compute_uv=False)[:, -1].min())
    gap = 1.0 - smin * smin
    slack = BOUND_ROUNDING * max(p, q)
    return {"row": max(0.0, gap if p <= q else 1.0) + slack,
            "column": max(0.0, gap if q <= p else 1.0) + slack}


def _search(space, uc, direction, max_level, config, detail):
    """(worst defect, its witness, whether every level converged) of one
    direction's level-by-level search; each level's defect goes into
    detail."""
    witnesses = []       # each level's worst grid, warm-starting the next
    worst, witness, converged = -1.0, None, True
    for n in range(1, max_level + 1):
        extras = []
        if witnesses:
            extras = [_diag_embed(witnesses[0], n),
                      _pad_embed(witnesses[-1], n)]
        res = maximize_over_sphere(
            _DefectProblem(space, uc, n, direction), config,
            extra_starts=[g.reshape(-1) for g in extras],
            seed_salt=(DEFECT_SALTS[direction], n))
        defect = max(0.0, res.value)
        witnesses.append(res.coeffs.reshape(n, n, space.dim))
        detail[f"{direction}_defect_level_{n}"] = defect
        converged = converged and res.converged
        if defect > worst:
            worst, witness = defect, {"level": n, "direction": direction,
                                      "coeff_grid": witnesses[-1]}
    return worst, witness, converged


def _certify(space, u, directions, max_level, config, name) -> CertificateReport:
    uc = _resolve_unit(space, u)
    config = config or SolverConfig()
    config.validate()
    if max_level < 1:
        raise InvalidInputError("max_level must be at least 1")
    if space.diagonal:
        directions, max_level = ("row",), 1
    bounds = _concrete_bounds(space, uc)
    detail = {}
    searched = []        # whether each searched direction converged
    # over the directions: the worst attained defect, the worst upper
    # bound, and the worst of what the margin reports
    lower = upper = worst = -1.0
    witness = None
    for direction in directions:
        bound = bounds[direction]
        if bound <= config.cert_tol:
            # the bound settles every level; u/|u| attains the defect
            # 1 - |u|^2 at level 1, a lower bound
            problem = _DefectProblem(space, uc, 1, direction)
            x = (uc / problem.u_norm)[None]
            attained = max(0.0, float(problem.value_and_grad(x)[0][0]))
            cap = reported = bound
            where = {"level": 1, "direction": direction,
                     "coeff_grid": x.reshape(1, 1, space.dim)}
            detail[f"{direction}_defect_bound"] = bound
        else:
            attained, where, converged = _search(space, uc, direction,
                                                 max_level, config, detail)
            searched.append(converged)
            # the worst defect found is an upper bound only once converged
            cap = min(bound, attained if converged else np.inf)
            reported = attained
        lower, upper = max(lower, attained), max(upper, cap)
        if reported > worst:
            worst, witness = reported, where
    if searched:
        detail["converged"] = all(searched)
    detail["upper_route"] = "search" if searched else "concrete"
    return CertificateReport(
        name=name, verdict=verdict_of(lower, upper),
        margin=config.cert_tol - worst, witness=witness, diagnostics=detail)


def certify_unitary(space: ConcreteOpSpace, u=None, max_level: int = 2,
                    config: SolverConfig | None = None) -> CertificateReport:
    return _certify(space, u, ("row", "column"), max_level, config, "unitary")


def certify_coisometry(space: ConcreteOpSpace, u=None, max_level: int = 2,
                       config: SolverConfig | None = None) -> CertificateReport:
    return _certify(space, u, ("row",), max_level, config, "coisometry")


def certify_isometry(space: ConcreteOpSpace, u=None, max_level: int = 2,
                     config: SolverConfig | None = None) -> CertificateReport:
    return _certify(space, u, ("column",), max_level, config, "isometry")
