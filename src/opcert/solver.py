"""Deterministic multistart projected subgradient solver.

Two entry points: `minimize_over_ball` (constraint: element norm <= 1, the
reported value is a certified upper bound on the minimum) and
`maximize_over_sphere` (constraint: element norm = 1 via radial retraction,
the reported value is a certified lower bound on the supremum).
The objective of `minimize_over_ball` must be convex. Then a zero
subgradient certifies a global minimum (Rockafellar, Convex Analysis,
Thm 27.1): a run that stops on one ends the whole multistart sweep, and
its value is a lower bound on the minimum as well as an upper bound.

Problems expose a flat complex variable vector:

    dim             number of complex coefficients
    value(c)        objective, a float; on a (..., dim) stack of variables,
                    the array of objectives over the leading axes
    value_and_grad(c) -> (value, wirtinger_grad)
    norm(c)         constraint norm of the variable (an operator norm)

Each iteration makes one value_and_grad call and steps along its
gradient, at kinks too: there the top singular pair of the active (t,
block) gives a subgradient of the convex partner and product objectives
(Danskin 1967; Overton, SIAM J. Optim. 1992).

The step rule combines the guaranteed-safe decay schedule s0/sqrt(k) with a
Polyak-style step toward an adaptively tightened level; the effective step
length is the smaller of the two, so the decay guarantee is never violated
while sharp minima are still reached to high accuracy within the budget.
A minimization with a target never puts its level below the target, which
callers pass as a known lower bound on the objective: this is Polyak's step
with known optimal value (Polyak, USSR Comput. Math. Math. Phys. 9, 1969),
and it keeps steps from overshooting a small feasible set near the optimum.
Determinism: every random draw comes from a generator seeded by
(root_seed, salt..., start_index), and ties across starts resolve to the
lowest start index, so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SolverError

DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
# why a run stopped: within eps_stop of the target, on a zero subgradient,
# when the adaptive level collapsed, at the end of the iteration budget,
# or (maximize) pinned at numerical zero with nothing to climb
STOP_REASONS = ("target", "zero_subgradient", "level_collapse", "budget",
                "pinned_zero")


@dataclass
class SolverConfig:
    root_seed: int = 7
    starts: int = 32
    max_iters: int = 500
    step_scale: float = 0.1
    stat_tol: float = 1e-9
    stall_window: int = 40
    t_grid: tuple = DEFAULT_T_GRID
    cert_tol: float = 1e-4
    fail_ratio: float = 10.0
    eps_stop: float = 1e-7

    @property
    def fail_tol(self) -> float:
        return self.fail_ratio * self.cert_tol

    def validate(self) -> None:
        # every test is written so that NaN fails it
        if not (self.starts >= 1 and self.max_iters >= 1):
            raise InvalidInputError("starts and max_iters must be positive")
        for name in ("step_scale", "stat_tol", "stall_window", "cert_tol",
                     "eps_stop"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be positive and finite")
        if not 1 <= self.fail_ratio < math.inf:
            raise InvalidInputError("fail_ratio must be finite and at least 1")
        if not self.t_grid or not all(0 < t < math.inf for t in self.t_grid):
            raise InvalidInputError("t_grid must be positive and finite")


@dataclass
class SolveResult:
    coeffs: np.ndarray
    value: float
    converged: bool
    best_start: int
    iterations: int
    reached_target: bool
    stops: dict                   # runs per stop reason, keys STOP_REASONS
    # the value is also a lower bound on the minimum, to eps_stop or
    # stat_tol: the sweep ended at the target or on a zero subgradient
    certified_min: bool
    # always 0: no finite differences are taken; perfbench's tracer reads
    # this field to derive its solver.fd_calls and solver.fd_share metrics
    fd_calls: int = 0


def _check_finite(f: float, c: np.ndarray) -> None:
    if not np.isfinite(f):
        raise SolverError("objective is not finite", iterate=c)


def _ball_starts(problem, n_starts: int, extra, rng_key) -> list:
    # caller-provided warm starts go first so a target hit ends the sweep early
    starts = []
    for c in extra:
        c = np.asarray(c, dtype=np.complex128)
        n = problem.norm(c)
        starts.append(c if n <= 1.0 else c / n)
    starts.append(np.zeros(problem.dim, dtype=np.complex128))
    for e in np.eye(problem.dim, dtype=np.complex128):
        starts.append(e / max(1.0, problem.norm(e)))
    idx = 0
    while len(starts) < n_starts and idx < 50 * n_starts:
        rng = np.random.default_rng(list(rng_key) + [idx])
        g = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
        n = problem.norm(g)
        if n > 1e-12:
            starts.append(g * (rng.uniform(0.0, 1.0) / n))
        idx += 1
    return starts[:max(n_starts, len(extra) + 1)]


def _sphere_starts(problem, n_starts: int, extra, rng_key) -> list:
    starts = []
    for e in np.eye(problem.dim, dtype=np.complex128):
        n = problem.norm(e)
        if n > 1e-12:
            starts.append(e / n)
    for c in extra:
        c = np.asarray(c, dtype=np.complex128)
        n = problem.norm(c)
        if n > 1e-12:
            starts.append(c / n)
    idx = 0
    # cap rejection sampling so a degenerate norm cannot spin forever
    while len(starts) < n_starts and idx < 50 * n_starts:
        rng = np.random.default_rng(list(rng_key) + [idx])
        g = rng.standard_normal(problem.dim) + 1j * rng.standard_normal(problem.dim)
        n = problem.norm(g)
        if n > 1e-12:
            starts.append(g / n)
        idx += 1
    # never truncated: the basis and every warm start run even past n_starts
    return starts


def _run_start(problem, config, c0, sign, target, stop_at_target):
    """One projected subgradient run. sign=+1 minimizes, sign=-1 maximizes.

    Returns (best_value, best_c, iterations, reason), reason one of
    STOP_REASONS. The adaptive level starts a fixed fraction below the
    incumbent and halves its distance whenever a stall window passes
    without improvement; the run ends when the level collapses, the
    iteration budget runs out, the target is reached or the subgradient
    vanishes. With stop_at_target the level is max(best - delta, target):
    the target is a lower bound on the objective (Polyak's known optimal
    value), so a level below it would only lengthen the step.
    """
    def at_target(v):
        return stop_at_target and sign * (v - target) <= config.eps_stop

    c = np.asarray(c0, dtype=np.complex128).copy()
    f = problem.value(c)
    _check_finite(f, c)
    best_f, best_c = f, c.copy()
    scale = max(abs(f - target), 1.0)
    s0 = config.step_scale * scale
    delta = max(0.25 * abs(f - target), 100.0 * config.eps_stop)
    floor = 1e-12 * scale
    since_improve = 0
    it = 0
    while it < config.max_iters:
        it += 1
        if at_target(best_f):
            return best_f, best_c, it, "target"
        f, g = problem.value_and_grad(c)
        _check_finite(f, c)
        if sign * (f - best_f) < -config.stat_tol:
            best_f, best_c = f, c.copy()
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= config.stall_window:
            # a maximize run pinned at numerical zero has nothing to climb
            if sign < 0 and best_f <= 1e-8:
                return best_f, best_c, it, "pinned_zero"
            delta *= 0.5
            since_improve = 0
            if delta < floor:
                return best_f, best_c, it, "level_collapse"
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-14:
            # an objective flat at its target (a hinge inside its feasible
            # set) has a zero gradient there: that is a target hit
            if at_target(f):
                return best_f, best_c, it, "target"
            return best_f, best_c, it, "zero_subgradient"
        level = best_f - sign * delta
        if stop_at_target:
            level = max(level, target)
        len_polyak = max(sign * (f - level), 0.0) / gnorm
        len_decay = s0 / np.sqrt(it)
        step = min(len_polyak, len_decay)
        if step <= 0.0:
            step = len_decay
        c = c - sign * step * (g / gnorm)
        n = problem.norm(c)
        if sign > 0:
            if n > 1.0:
                c = c / n
        else:
            if n < 1e-12:
                c = best_c.copy()
            else:
                c = c / n
    f = problem.value(c)
    _check_finite(f, c)
    if sign * (f - best_f) < 0:
        best_f, best_c = f, c.copy()
    return best_f, best_c, it, "target" if at_target(best_f) else "budget"


def _reduce(problem, config, starts, sign, target, stop_at_target):
    best = None
    total_iters = 0
    stops = dict.fromkeys(STOP_REASONS, 0)
    settled = False
    for i, c0 in enumerate(starts):
        f, c, it, why = _run_start(
            problem, config, c0, sign, target, stop_at_target)
        total_iters += it
        stops[why] += 1
        # a target hit, or a zero subgradient of a convex minimization,
        # settles the minimum: the remaining starts cannot go lower
        settled = why == "target" or (sign > 0 and why == "zero_subgradient")
        if best is None or sign * (f - best[0]) < 0 or \
                (settled and sign * (f - best[0]) <= 0):
            best = (f, c, i, why)
        if settled:
            break
    f, c, i, why = best
    return SolveResult(coeffs=c, value=float(f),
                       converged=stops["budget"] < sum(stops.values()),
                       best_start=i, iterations=total_iters,
                       reached_target=why == "target", stops=stops,
                       certified_min=settled)


def minimize_over_ball(problem, config: SolverConfig | None = None, *,
                       target: float = 0.0, stop_at_target: bool = True,
                       starts: int | None = None, extra_starts=(),
                       seed_salt=()) -> SolveResult:
    """Minimize a convex problem.value over {c : problem.norm(c) <= 1}.

    The returned value is an upper bound on the true minimum (it is attained
    by the returned feasible point). With stop_at_target, ``target`` must be
    a known lower bound on the objective over the ball: the run ends at the
    first iterate within eps_stop of it, and the Polyak level never drops
    below it. A run that stops on a zero subgradient has found a global
    minimum, which needs the objective to be convex: the sweep ends there,
    and ``certified_min`` marks the value as a lower bound too.
    """
    config = config or SolverConfig()
    config.validate()
    n = starts if starts is not None else config.starts
    key = [config.root_seed, *seed_salt, 1]
    cands = _ball_starts(problem, n, extra_starts, key)
    return _reduce(problem, config, cands, +1, target, stop_at_target)


def maximize_over_sphere(problem, config: SolverConfig | None = None, *,
                         starts: int | None = None, extra_starts=(),
                         seed_salt=()) -> SolveResult:
    """Maximize problem.value over {c : problem.norm(c) = 1}.

    The returned value is a lower bound on the true supremum. Iterates are
    kept on the sphere by radial retraction after every step.
    """
    config = config or SolverConfig()
    config.validate()
    n = starts if starts is not None else config.starts
    key = [config.root_seed, *seed_salt, 2]
    cands = _sphere_starts(problem, n, extra_starts, key)
    if not cands:
        raise InvalidInputError("no feasible start on the unit sphere")
    return _reduce(problem, config, cands, -1, 0.0, False)

