"""Deterministic projected subgradient solver.

Two entry points: `minimize_over_ball` (constraint: element norm <= 1, the
reported value is a certified upper bound on the minimum) and
`maximize_over_sphere` (constraint: element norm = 1 via radial retraction,
the reported value is a certified lower bound on the supremum).
The objective of `minimize_over_ball` must be convex, and the result's
`lower` is a lower bound on its minimum. A minimization makes one run,
from the caller's start or from 0: convexity leaves no local minimum to
escape, and a stall is detected by the bound below and stepped past by
the eps-descent steps.
A zero subgradient certifies a global minimum (Rockafellar, Convex
Analysis, Thm 27.1), so a run that stops on one has its value as `lower`
as well as the upper bound. Where the minimum is a kink that the run does
not stop at, the problem's `lower_bound` certifies it instead: the run
bounds the minimum at its incumbent every stall_window iterations while
the incumbent exceeds the target by fail_tol or more, and once more when
it ends unsettled. A bound that reaches fail_tol above the target, or
comes within cert_tol of the incumbent, stops the run (stop reason
``certified``).

Problems expose a flat complex variable vector and take a stack of them:

    dim             number of complex coefficients
    value_and_grad(c) -> (objectives (S,), wirtinger gradients (S, dim))
                    of an (S, dim) stack of variables
    norm(c)         constraint norms (S,) of the stack (operator norms)
    lower_bound(c)  (minimize only) a lower bound on the minimum over the
                    ball, certified at the point c of the ball, or -inf
    descent_step(c) (minimize only) the point of the ball an eps-descent
                    step from the point c moves to, or None

A row's results must not depend on the other rows of its stack: the
objectives in this package compute every row with its own products and
one batched LAPACK call, so a run is bitwise the same alone and stacked.

`_run_stack` steps a stack of runs in lockstep, each with its own level,
step and stop rules: every iteration makes one value_and_grad call on the
runs still going and one norm call on the runs that stepped, by a plain
step or an eps-descent step alike. Each iterate is evaluated once: a
start's value comes with the gradient of its first step, and a run that
ends at its budget ends on the value of its last iterate, so K
iterations cost K + 1 evaluations. A maximize sweep runs every start
whatever happens, so it hands all of them over as one stack; for a
catalog unitary every start stops at iteration 1 on a zero subgradient,
and the whole sweep is one stacked call. A minimization is a stack of
one run.

Each iteration of a run steps along its gradient, at kinks too: there the
top singular pair of the active (t, block) gives a subgradient of the
convex partner and product objectives (Danskin 1967; Overton, SIAM J.
Optim. 1992). Where the minimum itself is such a kink (a cold m2-full
product has its two top singular values tied there) those steps zigzag,
so past its DESCENT_FROM-th stall checkpoint a minimize run takes
eps-descent steps instead (Kiwiel, Methods of Descent for
Nondifferentiable Optimization, 1985): the problem's descent_step runs a
line search along eps-steepest descent directions at its incumbent and
gives the one point the run moves to, which is evaluated like any other
iterate.

The step rule combines the guaranteed-safe decay schedule s0/sqrt(k) with a
Polyak-style step toward an adaptively tightened level; the effective step
length is the smaller of the two, so the decay guarantee is never violated
while sharp minima are still reached to high accuracy within the budget.
A minimization with a target never puts its level below the target, which
callers pass as a known lower bound on the objective: this is Polyak's step
with known optimal value (Polyak, USSR Comput. Math. Math. Phys. 9, 1969),
and it keeps steps from overshooting a small feasible set near the optimum.
Determinism: a minimization draws nothing at random; the random starts of
a maximize sweep come from one generator seeded by (root_seed, salt...,
sweep kind), and ties across starts resolve to the lowest start index, so
results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError, SolverError

# a minimize run takes eps-descent steps after this many stall windows:
# catalog searches settle within the first, and recoveries whose plain
# runs end within the second keep them
DESCENT_FROM = 2
DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
# why a run stopped: within eps_stop of the target, on a zero subgradient,
# when the adaptive level collapsed, at the end of the iteration budget,
# (maximize) pinned at numerical zero with nothing to climb, or (minimize)
# settled by a certified lower bound
STOP_REASONS = ("target", "zero_subgradient", "level_collapse", "budget",
                "pinned_zero", "certified")


def valid_t_grid(ts) -> tuple:
    """ts as a tuple, checked: a nonempty grid of real, positive, finite
    numbers, or InvalidInputError. Every check that takes a t grid runs it
    through here."""
    ts = tuple(ts) if np.iterable(ts) else ()
    if not ts or not all(isinstance(t, Real) and 0 < t < math.inf
                         for t in ts):
        raise InvalidInputError("t_grid must be positive and finite")
    return ts


@dataclass
class SolverConfig:
    """What a caller chooses: the seed and the start count of a sphere
    maximization (a minimization makes one run and draws nothing; the
    seed also draws detect_operator_system's sampled elements), the
    iteration budget and the t grid. The rest are constants of the solver
    and of the verdicts (class attributes, not settings)."""

    root_seed: int = 7
    starts: int = 32
    max_iters: int = 500
    t_grid: tuple = DEFAULT_T_GRID
    step_scale: ClassVar[float] = 0.1
    stat_tol: ClassVar[float] = 1e-9
    stall_window: ClassVar[int] = 40
    cert_tol: ClassVar[float] = 1e-4
    fail_tol: ClassVar[float] = 1e-3      # 10 cert_tol
    eps_stop: ClassVar[float] = 1e-7

    def validate(self) -> None:
        # every test is written so that NaN fails it, and a value of the
        # wrong type (from a space file's solver block) fails it too
        if not all(isinstance(n, Integral) and n >= 1
                   for n in (self.starts, self.max_iters)):
            raise InvalidInputError("starts and max_iters must be positive "
                                    "integers")
        if not (isinstance(self.root_seed, Integral) and self.root_seed >= 0):
            raise InvalidInputError("root_seed must be an integer >= 0")
        valid_t_grid(self.t_grid)


@dataclass
class SolveResult:
    coeffs: np.ndarray
    value: float
    converged: bool
    best_start: int               # always 0 for a minimization
    iterations: int               # the iterations of all runs
    descent_steps: int            # the eps-descent steps of those runs
    reached_target: bool
    stops: dict                   # runs per stop reason, keys STOP_REASONS
    # a lower bound on the minimum: the value itself when the run ended
    # at the target or on a zero subgradient (to eps_stop or stat_tol),
    # else the best bound of its lower_bound calls; -inf when there is
    # none, and always for a maximization
    lower: float
    # always 0: no finite differences are taken; perfbench's tracer reads
    # this field to derive its solver.fd_calls and solver.fd_share metrics
    fd_calls: int = 0

    @property
    def certified_min(self) -> bool:
        """The value is the minimum to within cert_tol."""
        return self.value - self.lower <= SolverConfig.cert_tol

    @property
    def diagnostics(self) -> dict:
        """How the search went, as the checks built on it report it."""
        return {"iterations": self.iterations,
                "descent_steps": self.descent_steps,
                "best_start": self.best_start,
                "reached_target": self.reached_target, "stops": self.stops,
                "lower": self.lower, "certified_min": self.certified_min}


def _evaluate(problem, c: np.ndarray):
    """Objective values, as floats, and gradients of a stack of iterates;
    raise on the first value that is not finite."""
    f, g = problem.value_and_grad(c)
    f = f.tolist()
    for k, v in enumerate(f):
        if not math.isfinite(v):
            raise SolverError("objective is not finite", iterate=c[k])
    return f, g


def _sphere_starts(problem, n_starts: int, extra, rng_key) -> list:
    """The basis, the extra starts, then gaussian draws of one generator
    seeded by rng_key, made as one block; each normed onto the sphere."""
    dim = problem.dim
    fixed = np.concatenate([np.eye(dim, dtype=np.complex128),
                            np.asarray(extra, dtype=np.complex128).reshape(-1, dim)])
    starts = [c / n for c, n in zip(fixed, problem.norm(fixed)) if n > 1e-12]
    want = n_starts - len(starts)
    if want > 0:
        rng = np.random.default_rng(rng_key)
        shape = (want, dim)
        gs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        starts += [g / n for g, n in zip(gs, problem.norm(gs)) if n > 1e-12]
    # never truncated: the basis and every warm start run even past n_starts
    return starts


class _Run:
    """State of one projected subgradient run; sign=+1 minimizes, sign=-1
    maximizes.

    The adaptive level starts a fixed fraction below the incumbent and
    halves its distance whenever a stall window passes without improvement;
    the run ends when the level collapses, the iteration budget runs out,
    the target is reached or the subgradient vanishes. A minimize run stops
    once its best value is within eps_stop of its target, and its level is
    max(best - delta, target): the target is a lower bound on the objective
    (Polyak's known optimal value), so a level below it would only lengthen
    the step. A maximize run has no target; its `target` of 0 only scales
    the first step and level.

    A subgradient g shorter than 1e-13 max(1, |f0 - target|), with f0 the
    start's value, counts as zero: rounding leaves gradients of that size
    where the true one vanishes. For a convex objective, f(y) >= f(c) -
    |g| |y - c| then makes the value of such a stop the minimum up to |g|
    times the ball's euclidean diameter, far below stat_tol.

    A minimize run is given its problem, whose lower_bound `_certify`
    reads and whose descent_step `_descend` reads.
    """

    def __init__(self, config, c, f, sign, target, problem):
        self.config, self.sign, self.target = config, sign, target
        self.problem = problem       # minimize: lower_bound, descent_step
        self.descents = 0            # eps-descent steps taken
        self.descend_after = DESCENT_FROM * config.stall_window \
            if sign > 0 else math.inf
        self.lower = -math.inf       # best certified bound on the minimum
        self.c, self.best_c, self.best_f = c, c.copy(), f
        scale = max(abs(f - target), 1.0)
        self.s0 = config.step_scale * scale
        self.delta = max(0.25 * abs(f - target), 100.0 * config.eps_stop)
        self.floor = 1e-12 * scale
        self.flat = 1e-13 * scale
        self.since_improve = 0
        self.iterations = 0
        self.why = None              # the stop reason, one of STOP_REASONS

    def at_target(self, v: float) -> bool:
        return self.sign > 0 and v - self.target <= self.config.eps_stop

    def _stop(self, why: str) -> None:
        self.why = why

    def _certify(self) -> bool:
        """Bound the minimum at the incumbent while it is fail_tol or more
        above the target; True once the best bound settles the run: it is
        fail_tol above the target, or within cert_tol of the incumbent."""
        config = self.config
        if self.problem is None or self.best_f - self.target < config.fail_tol:
            return False
        self.lower = max(self.lower, self.problem.lower_bound(self.best_c))
        return (self.lower - self.target >= config.fail_tol
                or self.best_f - self.lower <= config.cert_tol)

    def step(self, f: float, g: np.ndarray):
        """Take one iteration from the value and gradient at self.c: the
        stepped point before retraction, or None when the run stops."""
        sign, config = self.sign, self.config
        if sign * (f - self.best_f) < -config.stat_tol:
            self.best_f, self.best_c = f, self.c.copy()
            self.since_improve = 0
        else:
            self.since_improve += 1
        if self.at_target(self.best_f):
            return self._stop("target")
        if self.iterations % config.stall_window == 0 and self._certify():
            return self._stop("certified")
        if self.iterations > self.descend_after:
            return self._descend(f, g)
        if self.since_improve >= config.stall_window:
            # a maximize run pinned at numerical zero has nothing to climb
            if sign < 0 and self.best_f <= 1e-8:
                return self._stop("pinned_zero")
            self.delta *= 0.5
            self.since_improve = 0
            if self.delta < self.floor:
                return self._stop("certified" if self._certify()
                                  else "level_collapse")
        gnorm = float(np.linalg.norm(g))
        if gnorm < self.flat:
            # an objective flat at its target (a hinge inside its feasible
            # set) has a zero gradient there: that is a target hit
            return self._stop("target" if self.at_target(f) else
                              "zero_subgradient")
        level = self.best_f - sign * self.delta
        if sign > 0:
            level = max(level, self.target)
        len_polyak = max(sign * (f - level), 0.0) / gnorm
        len_decay = self.s0 / math.sqrt(self.iterations)
        step = min(len_polyak, len_decay)
        if step <= 0.0:
            step = len_decay
        return self.c - sign * step * (g / gnorm)

    def _descend(self, f: float, g: np.ndarray):
        """An eps-descent step from the incumbent: the problem's point, or
        None when the run stops. A run stops as one whose level collapsed
        when no direction descends, or when its last eps-step found no
        point below its incumbent, since its next step would be the same."""
        if float(np.linalg.norm(g)) < self.flat:
            return self._stop("target" if self.at_target(f) else
                              "zero_subgradient")
        c = None if self.descents and self.since_improve else \
            self.problem.descent_step(self.best_c)
        if c is None:
            return self._stop("certified" if self._certify()
                              else "level_collapse")
        self.descents += 1
        return c

    def retract(self, c: np.ndarray, n: float) -> None:
        """Move to the stepped point c of norm n, pulled back into the ball
        (minimize) or onto the sphere (maximize)."""
        if self.sign > 0:
            self.c = c / n if n > 1.0 else c
        else:
            self.c = self.best_c.copy() if n < 1e-12 else c / n

    def finish(self, f: float) -> None:
        """End at the iteration budget with the value at the last iterate."""
        if self.sign * (f - self.best_f) < 0:
            self.best_f, self.best_c = f, self.c.copy()
        self.why = "target" if self.at_target(self.best_f) else \
            "certified" if self._certify() else "budget"


def _run_stack(problem, config, starts, sign, target) -> list:
    """Projected subgradient runs from a stack of starts, in lockstep.

    Every iteration steps the runs still going from one
    problem.value_and_grad call, then makes one problem.norm call on the
    runs that stepped and one value_and_grad call on their new iterates;
    each run follows the rules of `_Run` on its own, so a start ends
    bitwise the same alone and in any stack. Returns one `_Run` per start.
    """
    c = np.array(starts, dtype=np.complex128)
    f, g = _evaluate(problem, c)
    runs = live = [_Run(config, ck, fk, sign, target,
                        problem if sign > 0 else None)
                   for ck, fk in zip(c, f)]
    for it in range(1, config.max_iters + 1):
        stepped, steps = [], []
        for r, fk, gk in zip(live, f, g):
            r.iterations = it
            ck = r.step(fk, gk)
            if ck is not None:
                stepped.append(r)
                steps.append(ck)
        if not stepped:
            return runs
        live, c = stepped, _stack(steps)
        for r, ck, n in zip(live, c, problem.norm(c).tolist()):
            r.retract(ck, n)
        f, g = _evaluate(problem, _stack([r.c for r in live]))
    for r, fk in zip(live, f):
        r.finish(fk)
    return runs


def _stack(rows: list) -> np.ndarray:
    # a single row needs a view, not the copy np.array makes
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _reduce(runs, sign) -> SolveResult:
    """One SolveResult from the ended runs of a sweep: the best value, at
    the first run that attains it, and the bound that the runs certify."""
    k = min(range(len(runs)), key=lambda i: sign * runs[i].best_f)
    best = runs[k]
    stops = dict.fromkeys(STOP_REASONS, 0)
    for r in runs:
        stops[r.why] += 1
    # a target hit, or a zero subgradient of a convex minimization, is the
    # minimum; otherwise every run's bound holds for the one minimum
    exact = best.why == "target" or \
        (sign > 0 and best.why == "zero_subgradient")
    lower = best.best_f if exact else max(r.lower for r in runs)
    return SolveResult(coeffs=best.best_c, value=float(best.best_f),
                       converged=stops["budget"] < len(runs), best_start=k,
                       iterations=sum(r.iterations for r in runs),
                       descent_steps=sum(r.descents for r in runs),
                       reached_target=best.why == "target", stops=stops,
                       lower=float(lower))


def minimize_over_ball(problem, config: SolverConfig | None = None, *,
                       target: float = 0.0, start=None) -> SolveResult:
    """Minimize a convex objective over {c : problem.norm(c) <= 1} in one
    run, from ``start`` pulled back into the ball, or from 0.

    The returned value is an upper bound on the true minimum (it is attained
    by the returned feasible point), and ``lower`` a lower bound.
    ``target`` must be a known lower bound on the objective over the ball:
    the run ends at the first iterate within eps_stop of it, and the Polyak
    level never drops below it. A run that stops on a zero subgradient has
    found a global minimum, which needs the objective to be convex; a run
    whose problem.lower_bound settles it stops too (see the module
    docstring), and a run past its DESCENT_FROM-th stall checkpoint steps
    by problem.descent_step. ``certified_min`` marks a value within
    cert_tol of its lower bound.
    """
    config = config or SolverConfig()
    config.validate()
    c = np.zeros((1, problem.dim), dtype=np.complex128) if start is None \
        else np.asarray(start, dtype=np.complex128).reshape(1, problem.dim)
    n = problem.norm(c)[0]
    return _reduce(_run_stack(problem, config, c if n <= 1.0 else c / n, +1,
                              target), +1)


def maximize_over_sphere(problem, config: SolverConfig | None = None, *,
                         extra_starts=(), seed_salt=()) -> SolveResult:
    """Maximize the objective over {c : problem.norm(c) = 1}.

    The returned value is a lower bound on the true supremum. Iterates are
    kept on the sphere by radial retraction after every step.
    """
    config = config or SolverConfig()
    config.validate()
    key = [config.root_seed, *seed_salt, 2]
    cands = _sphere_starts(problem, config.starts, extra_starts, key)
    if not cands:
        raise InvalidInputError("no feasible start on the unit sphere")
    # every start runs: one stack, stepped in lockstep
    return _reduce(_run_stack(problem, config, cands, -1, 0.0), -1)

