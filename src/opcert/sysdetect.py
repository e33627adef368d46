"""Intrinsic operator-system detection and involution recovery.

For a unit-norm contraction x, the space is an operator system for u
exactly when some partner y in the unit ball keeps the block
[[t u, x], [y, t u]] within sqrt(t^2 + 1) for every t > 0. The search for
such a partner is a convex minimization of the worst hinge residual over
the t grid. At a single large t the minimizing partner pins down the
involution: iota(x) = -y agrees with the ambient u adjoint(x) u up to
1/t + 1/t^2, which is how the involution is recovered constructively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import stack_value_and_grad
from .certify import certify_unitary
from .errors import InvalidInputError, PreconditionError
from .matcore import adjoint, block_norms
from .opspace import ConcreteOpSpace, Element
from .report import FAIL, INCONCLUSIVE, PASS, CertificateReport
from .solver import SolverConfig, minimize_over_ball

PARTNER_STARTS = 6


def involution_error_bound(t: float) -> float:
    """Recovery error guaranteed by partner feasibility at parameter t."""
    return 1.0 / t + 1.0 / (t * t)


@dataclass
class PartnerSearchResult:
    x_coeffs: np.ndarray
    y_coeffs: np.ndarray          # partner, |y| <= 1
    residual: float               # max over t of (block norm - sqrt(t^2+1))+
    per_t_residual: np.ndarray
    t_grid: tuple
    converged: bool
    diagnostics: dict


class _PartnerProblem:
    """Hinge objective max_t (|[[tu, x],[y, tu]]| - sqrt(t^2+1))+ in y."""

    def __init__(self, space: ConcreteOpSpace, uc, xc, ts):
        self.space = space
        self.ts = np.asarray(ts, dtype=float)
        self.targets = np.sqrt(self.ts ** 2 + 1.0)
        self.dim = space.dim
        # the (T, 2, 2, d) block grids over the t grid with the y slot empty
        self.frame = np.zeros((self.ts.size, 2, 2, self.dim), dtype=np.complex128)
        self.frame[:, 0, 0] = self.frame[:, 1, 1] = self.ts[:, None] * uc
        self.frame[:, 0, 1] = xc

    def norm(self, c: np.ndarray) -> float:
        return self.space.norm(c)

    def _grids(self, c: np.ndarray) -> np.ndarray:
        """(..., T, 2, 2, d) grids for a (..., d) stack of partners."""
        c = np.asarray(c, dtype=np.complex128)
        grids = np.broadcast_to(self.frame, c.shape[:-1] + self.frame.shape).copy()
        grids[..., 1, 0, :] = c[..., None, :]
        return grids

    def _hinges(self, grids: np.ndarray) -> np.ndarray:
        return np.maximum(self.space.grid_norm(grids) - self.targets, 0.0)

    def value(self, c: np.ndarray):
        """Worst hinge of a partner, or of each row of a (..., d) stack."""
        return self._hinges(self._grids(c)).max(axis=-1)

    def value_and_grad(self, c: np.ndarray):
        # one stack for hinges and gradient; one t of one block needs no norm
        stacks = self.space.grid_blocks(self._grids(c))
        i, norms = 0, None
        if stacks.shape[:2] != (1, 1):
            norms = block_norms(stacks)
            i = int(np.argmax(norms.max(axis=-1) - self.targets))
            norms = norms[i]
        sigma, grad, _ = stack_value_and_grad(self.space, stacks[i], norms)
        if sigma <= self.targets[i]:
            return 0.0, np.zeros(self.dim, dtype=np.complex128)
        return float(sigma - self.targets[i]), grad[1, 0, :]


def find_partner(space: ConcreteOpSpace, u=None, x=None, t_grid=None,
                 config: SolverConfig | None = None,
                 starts: int | None = None,
                 warm_start: bool = True) -> PartnerSearchResult:
    """Best unit-ball partner for x across the t grid.

    The objective is convex in y, so a handful of starts suffices; the
    search stops at the first feasible partner (hinge at numerical zero).
    warm_start seeds the sweep with the adjoint's coefficients when the
    adjoint lies in the space; the hinge is still evaluated from scratch,
    so the verdict cannot be faked, but recovery callers that want the
    returned point to reflect only the t-constrained geometry disable it.
    """
    config = config or SolverConfig()
    uc = space.unit_coeffs() if u is None else space.as_coeffs(u)
    if x is None:
        raise InvalidInputError("x is required")
    xc = space.as_coeffs(x)
    if space.norm(xc) > 1.0 + 1e-9:
        raise InvalidInputError("x must lie in the unit ball")
    ts = tuple(t_grid if t_grid is not None else config.t_grid)
    problem = _PartnerProblem(space, uc, xc, ts)
    extras = [-np.conj(xc)]
    if warm_start:
        adj_coeffs, adj_res = space.membership_blocks(adjoint(space.blocks(xc)))
        if adj_res <= space.membership_tol * max(1.0, space.norm(xc)):
            extras.insert(0, -adj_coeffs)
    res = minimize_over_ball(
        problem, config, target=0.0, stop_at_target=True,
        starts=starts if starts is not None else PARTNER_STARTS,
        extra_starts=extras, seed_salt=(21,))
    per_t = problem._hinges(problem._grids(res.coeffs))
    return PartnerSearchResult(
        x_coeffs=xc, y_coeffs=res.coeffs, residual=float(res.value),
        per_t_residual=per_t, t_grid=ts, converged=res.converged,
        diagnostics={"iterations": res.iterations, "best_start": res.best_start,
                     "reached_zero": res.reached_target})


def detect_operator_system(space: ConcreteOpSpace, u=None,
                           config: SolverConfig | None = None,
                           closure=None, samples: int = 3,
                           certify_levels: int = 2) -> CertificateReport:
    """Partner-based operator system detection over basis and sampled elements."""
    config = config or SolverConfig()
    uc = space.unit_coeffs() if u is None else space.as_coeffs(u)
    unit_cert = certify_unitary(space, uc, max_level=certify_levels, config=config)
    diag = {"unit_verdict": unit_cert.verdict}
    if not unit_cert.passed:
        return CertificateReport(
            name="operator-system", verdict=unit_cert.verdict, margin=0.0,
            witness={"stage": "unit-certification"}, diagnostics=diag)
    elements = []
    for j in range(space.dim):
        e = np.zeros(space.dim, dtype=np.complex128)
        e[j] = 1.0
        elements.append(e / max(1.0, space.norm(e)))
    rng = np.random.default_rng([config.root_seed, 23])
    for _ in range(samples):
        g = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        n = space.norm(g)
        if n > 1e-12:
            elements.append(g / n)
    worst = -1.0
    worst_x = None
    worst_conv = True
    residuals = []
    for xc in elements:
        r = find_partner(space, uc, xc, config=config)
        residuals.append(r.residual)
        if r.residual > worst:
            worst, worst_x, worst_conv = r.residual, xc, r.converged
    if worst <= config.cert_tol:
        verdict = PASS
    elif worst >= config.fail_tol and worst_conv:
        verdict = FAIL
    else:
        verdict = INCONCLUSIVE
    diag["residuals"] = np.array(residuals)
    diag["worst_residual"] = worst
    if closure is not None:
        from .hermit import operator_system_check
        amb = operator_system_check(space, uc, closure=closure)
        diag["ambient_verdict"] = amb.verdict
        diag["ambient_agrees"] = amb.verdict == verdict
    return CertificateReport(
        name="operator-system", verdict=verdict,
        margin=config.cert_tol - worst, witness={"x_coeffs": worst_x},
        diagnostics=diag)


@dataclass(frozen=True)
class RecoveredInvolution(Element):
    """The recovered iota(x) with the partner residual it rests on."""

    residual: float   # hinge of the partner at t_large, below fail_tol
    bound: float      # guaranteed ambient error of this element


def recover_involution(space: ConcreteOpSpace, u=None, x=None,
                       t_large: float = 100.0,
                       config: SolverConfig | None = None) -> RecoveredInvolution:
    """The recaptured involution applied to x, as -y for the partner at t_large.

    On success the concrete matrix of the result is within ``bound`` =
    1/t_large + 1/t_large^2 + 2 residual + 2 eps_stop of u adjoint(x) u,
    where residual is the partner's hinge at t_large: the partner may miss
    the constraint by that much, as a recovered product may miss its target.
    """
    config = config or SolverConfig()
    if not 0 < t_large < np.inf:
        raise InvalidInputError("t_large must be positive and finite")
    uc = space.unit_coeffs() if u is None else space.as_coeffs(u)
    xc = space.as_coeffs(x)
    # cold starts: the returned point must come from the t_large feasible
    # set alone, so its distance to the true involution scales like 1/t
    r = find_partner(space, uc, xc, t_grid=(t_large,), config=config,
                     warm_start=False)
    if r.residual >= config.fail_tol:
        raise PreconditionError(
            f"no admissible partner at t={t_large:g} "
            f"(residual {r.residual:.3e}); not an operator system for this unit")
    bound = involution_error_bound(t_large) + 2 * r.residual + 2 * config.eps_stop
    return RecoveredInvolution(space, -r.y_coeffs, residual=r.residual,
                               bound=bound)


def t1_insufficiency_probe(space: ConcreteOpSpace, u=None, x=None,
                           config: SolverConfig | None = None) -> CertificateReport:
    """Compare partner feasibility at t = 1 alone against the full grid.

    Reports the best partner residual with the t = 1 constraint alone
    (``t1_residual``, verdict PASS when it is within ``fail_tol``) and with
    the whole t grid (``full_residual``, ``full_pass`` within ``cert_tol``);
    ``diverges`` is True when t = 1 admits a partner but the grid does not.

    ``diverges`` was False on every catalog element tried: E12,
    (I + E12)/||.|| and (0.3 I + E12)/||.|| in m2-upper, and (1 + z)/2 and
    (0.2 + z)/1.2 in circle-1z. On circle-1z with x = z the t = 1
    constraint is not satisfiable either: every partner has t-hinge at
    least (1 + sqrt(1 + 4 t^2))/2 - sqrt(1 + t^2), which is
    phi - sqrt(2) at t = 1. PAPER.md does not settle whether some space
    makes ``diverges`` True.
    """
    config = config or SolverConfig()
    uc = space.unit_coeffs() if u is None else space.as_coeffs(u)
    xc = space.as_coeffs(x)
    if abs(space.norm(xc) - 1.0) > 1e-6:
        raise InvalidInputError("probe expects a norm-one element")
    r1 = find_partner(space, uc, xc, t_grid=(1.0,), config=config)
    rf = find_partner(space, uc, xc, config=config)
    t1_ok = r1.residual <= config.fail_tol
    full_ok = rf.residual <= config.cert_tol
    return CertificateReport(
        name="t1-insufficiency", verdict=PASS if t1_ok else FAIL,
        margin=config.fail_tol - r1.residual, witness=None,
        diagnostics={"t1_residual": r1.residual,
                     "full_residual": rf.residual,
                     "t1_satisfiable": bool(t1_ok),
                     "full_pass": bool(full_ok),
                     "diverges": bool(t1_ok and not full_ok)})
