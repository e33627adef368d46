from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

import opcert.cstar as cstar
from opcert.blocks import (SlotProblem, grid_value_and_grad, t_frames,
                           top_value_and_grad)
from opcert.certify import _DefectProblem
from opcert.cstar import detect_cstar, recover_product
from opcert.errors import InvalidInputError, SolverError
from opcert.funcspace import catalog_closure, catalog_entry, catalog_space
from opcert.opspace import make_space
from opcert.solver import (DEFAULT_T_GRID, SolverConfig, _run_stack,
                           _sphere_starts, maximize_over_sphere,
                           minimize_over_ball, minimize_stack)
from test_hermit import random_spans

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E22 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def m2_full():
    return make_space([np.eye(2), E12, E21, E22], unit=[1.0, 0, 0, 0])


def _partner(space, uc, x, ts):
    """The partner hinge of find_partner over the grid ts."""
    ts = np.asarray(ts, dtype=float)
    return SlotProblem(space, t_frames(space, ts, uc, x, None), (1, 0),
                       np.sqrt(ts ** 2 + 1.0))


def _product(space, uc, vc, given, slot, t):
    """The product excess of recover_product (slot (1, 0)) or of
    recover_product_left (slot (0, 1)) at t."""
    y, z = (given, None) if slot == (1, 0) else (None, given)
    return SlotProblem(space, t_frames(space, (t,), uc, y, z, vc), slot,
                       np.sqrt(t * t + space.norm(given) ** 2))


def _tangent_bound(problem, c):
    """f(c) - |g| (1 + |c|): a convex objective's first-order lower bound
    over the euclidean unit ball, certified at c."""
    f, g = problem.value_and_grad(c)
    return f - np.linalg.norm(g) * (1.0 + np.linalg.norm(c))


class _OneProblem:
    """A minimize problem that stands for every row of a stack, so the
    stack of any of its rows is itself."""

    def take(self, rows):
        return self


class _Quadratic(_OneProblem):
    """f(y) = |y - a|^2 with the euclidean ball constraint."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.complex128)
        self.dim = self.a.shape[0]

    def norm(self, c):
        return np.linalg.norm(c, axis=-1)

    def value_and_grad(self, c):
        return np.linalg.norm(c - self.a, axis=-1) ** 2, 2.0 * (c - self.a)

    def lower_bound(self, c):
        return _tangent_bound(self, c)


class _Linear:
    """f(c) = Re(c[0]), maximized at the first basis direction."""

    dim = 3

    def norm(self, c):
        return np.linalg.norm(c, axis=-1)

    def value_and_grad(self, c):
        g = np.zeros(np.shape(c), dtype=np.complex128)
        g[..., 0] = 1.0
        return np.real(c[..., 0]), g


class _NonFinite(_OneProblem):
    dim = 1

    def norm(self, c):
        return np.abs(c[..., 0])

    def value_and_grad(self, c):
        return (np.full(np.shape(c)[:-1], np.nan),
                np.zeros(np.shape(c), dtype=np.complex128))

    def lower_bound(self, c):
        return -np.inf


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SolverConfig(starts=0).validate()
    with pytest.raises(InvalidInputError):
        SolverConfig(t_grid=(1.0, -2.0)).validate()
    with pytest.raises(InvalidInputError):
        SolverConfig(t_grid=(1.0, float("inf"))).validate()
    with pytest.raises(InvalidInputError, match="root_seed"):
        SolverConfig(root_seed=-1).validate()
    SolverConfig().validate()


@pytest.mark.parametrize("t_grid", [5, (), (1 + 2j,)],
                         ids=["number", "empty", "complex"])
def test_a_t_grid_must_be_a_grid_of_positive_reals(t_grid):
    with pytest.raises(InvalidInputError, match="t_grid"):
        SolverConfig(t_grid=t_grid).validate()


def test_minimize_reaches_interior_minimum():
    a = np.array([0.3 + 0.1j, -0.2j, 0.1])
    res = minimize_over_ball(_Quadratic(a), SolverConfig())
    assert res.value <= 1e-6
    npt.assert_allclose(res.coeffs, a, atol=1e-3)
    assert res.reached_target


def test_minimize_projects_exterior_target():
    # a outside the ball: minimum over the ball is at a/|a|
    a = np.array([3.0 + 0j, 4.0 + 0j])
    res = minimize_over_ball(_Quadratic(a), SolverConfig(),
                             target=(np.linalg.norm(a) - 1.0) ** 2)
    best = a / np.linalg.norm(a)
    assert res.value <= (np.linalg.norm(a) - 1.0) ** 2 + 1e-5
    npt.assert_allclose(res.coeffs, best, atol=1e-2)
    # the reported value is attained by the returned feasible point
    assert np.linalg.norm(res.coeffs) <= 1.0 + 1e-12
    assert res.value == pytest.approx(
        float(np.linalg.norm(res.coeffs - a) ** 2))


def test_maximize_linear_functional():
    res = maximize_over_sphere(_Linear(), SolverConfig())
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert abs(np.linalg.norm(res.coeffs) - 1.0) <= 1e-9


def test_maximize_requires_feasible_start():
    class Degenerate(_Linear):
        def norm(self, c):
            return np.zeros(np.shape(c)[:-1])

    with pytest.raises(InvalidInputError):
        maximize_over_sphere(Degenerate(), SolverConfig())


def test_solver_raises_on_non_finite_objective():
    with pytest.raises(SolverError):
        minimize_over_ball(_NonFinite(), SolverConfig(starts=1))


def test_determinism_bitwise():
    a = np.array([0.4, -0.3 + 0.2j, 0.1j, 0.0])
    r1 = minimize_over_ball(_Quadratic(a), SolverConfig(root_seed=5))
    r2 = minimize_over_ball(_Quadratic(a), SolverConfig(root_seed=5))
    assert r1.value == r2.value
    npt.assert_array_equal(r1.coeffs, r2.coeffs)
    assert r1.best_start == r2.best_start
    m1 = maximize_over_sphere(_Linear(), SolverConfig(root_seed=5))
    m2 = maximize_over_sphere(_Linear(), SolverConfig(root_seed=5))
    npt.assert_array_equal(m1.coeffs, m2.coeffs)


def test_extra_starts_bound_the_result():
    # a start at the optimum short-circuits: the result can only improve on it
    a = np.array([0.5, 0.0 + 0j])
    prob = _Quadratic(a)
    res = minimize_over_ball(prob, SolverConfig(), start=a)
    assert res.value <= prob.value_and_grad(a)[0] + 1e-12
    assert res.best_start == 0 and res.iterations == 1


def test_gradient_matches_central_differences_dense():
    space = m2_full()
    rng = np.random.default_rng(13)
    h = 1e-6
    checked = 0
    for _ in range(6):
        grid = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        val, grad, smooth = grid_value_and_grad(space, grid)
        if not smooth:
            continue
        checked += 1
        flat = grid.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(0, flat.size, 3):
            e = np.zeros(flat.size, dtype=np.complex128)
            e[j] = h
            da = (space.grid_norm((flat + e).reshape(2, 2, 4))
                  - space.grid_norm((flat - e).reshape(2, 2, 4))) / (2 * h)
            e[j] = 1j * h
            db = (space.grid_norm((flat + e).reshape(2, 2, 4))
                  - space.grid_norm((flat - e).reshape(2, 2, 4))) / (2 * h)
            assert abs(da - np.real(gflat[j])) <= 1e-5
            assert abs(db - np.imag(gflat[j])) <= 1e-5
    assert checked >= 4


def test_gradient_matches_central_differences_diagonal():
    pb = np.stack([np.ones(6), np.exp(2j * np.pi * np.arange(6) / 6)])
    space = make_space([np.diag(r) for r in pb])
    rng = np.random.default_rng(14)
    h = 1e-6
    grid = rng.standard_normal((1, 2, 2)) + 1j * rng.standard_normal((1, 2, 2))
    val, grad, smooth = grid_value_and_grad(space, grid)
    assert smooth
    flat = grid.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        e = np.zeros(flat.size, dtype=np.complex128)
        e[j] = h
        da = (space.grid_norm((flat + e).reshape(1, 2, 2))
              - space.grid_norm((flat - e).reshape(1, 2, 2))) / (2 * h)
        e[j] = 1j * h
        db = (space.grid_norm((flat + e).reshape(1, 2, 2))
              - space.grid_norm((flat - e).reshape(1, 2, 2))) / (2 * h)
        assert abs(da - np.real(gflat[j])) <= 1e-5
        assert abs(db - np.imag(gflat[j])) <= 1e-5


def test_gradient_flags_multiplicity():
    # identity grid: top singular value of I_2 has multiplicity 2
    space = m2_full()
    grid = np.zeros((1, 1, 4), dtype=np.complex128)
    grid[0, 0, 0] = 1.0
    _, _, smooth = grid_value_and_grad(space, grid)
    assert not smooth


def test_scalar_gradient_real_direction():
    space = make_space([np.eye(1)])
    grid = np.ones((1, 1, 1), dtype=np.complex128)
    val, grad, smooth = grid_value_and_grad(space, grid)
    assert val == pytest.approx(1.0)
    assert grad.reshape(-1)[0] == pytest.approx(1.0 + 0j)


@pytest.mark.parametrize("name, frames", [
    ("m2-full", 1), ("m2-full", 4), ("circle-1zzbar", 1), ("two-circles", 3)])
def test_the_top_piece_matches_a_search_over_every_block(name, frames):
    # one block of one frame takes the shortcut; every other case chooses
    # among (frame, block) pieces; one row of offsets serves every grid,
    # or each grid has its own
    space = catalog_space(name)
    d, w = space.basis.shape[:2]
    rng = np.random.default_rng(frames)
    grids = rng.standard_normal((3, frames, 2, 2, d)) \
        + 1j * rng.standard_normal((3, frames, 2, 2, d))
    stacks = space.grid_blocks(grids)
    for rows in (1, 3):
        offsets = rng.uniform(0.0, 2.0, (rows, frames))
        excess, grad, gap, norms = top_value_and_grad(space, stacks, offsets)
        assert (norms is None) == (frames * w == 1)
        for s in range(3):
            svds = [[np.linalg.svd(stacks[s, f, k]) for k in range(w)]
                    for f in range(frames)]
            sv = np.array([[svd[1] for svd in row] for row in svds])
            if norms is not None:
                npt.assert_allclose(norms[s], sv[..., 0], rtol=0, atol=1e-12)
            offset = offsets[s % rows]
            f, k = np.unravel_index(np.argmax(sv[..., 0] - offset[:, None]),
                                    (frames, w))
            assert excess[s] == pytest.approx(sv[f, k, 0] - offset[f],
                                              abs=1e-12)
            assert gap[s] == pytest.approx(sv[f, k, 0] - sv[f, k, 1],
                                           abs=1e-12)
            # the top pair of the top block against that block's basis
            u, _, vh = svds[f][k]
            left, right = u[:, 0].reshape(2, -1), \
                np.conj(vh[0]).reshape(2, -1)
            ref = [[[np.conj(np.vdot(left[i], space.basis[l, k] @ right[j]))
                     for l in range(d)] for j in range(2)] for i in range(2)]
            npt.assert_allclose(grad[s], ref, rtol=0, atol=1e-12)


def test_one_dense_frame_reads_as_the_top_of_two():
    # the shortcut and the general reader agree: a second frame that can
    # never be on top leaves the first frame's reading
    space = catalog_space("m2-full")
    rng = np.random.default_rng(5)
    grids = rng.standard_normal((4, 2, 2, 2, 4)) \
        + 1j * rng.standard_normal((4, 2, 2, 2, 4))
    stacks = space.grid_blocks(grids)
    one = top_value_and_grad(space, stacks[:, :1], np.array([[0.5]]))
    two = top_value_and_grad(space, stacks, np.array([[0.5, 1e9]]))
    assert one[3] is None and two[3].shape == (4, 2, 1)
    for a, b in zip(one[:3], two[:3]):
        npt.assert_allclose(a, b, rtol=0, atol=1e-12)


def _objectives():
    """The partner, product and defect objectives on a dense and a
    point-backed space."""
    out = []
    for space in (m2_full(), catalog_entry("circle-1z").build(60)):
        uc = space.unit_coeffs()
        x = np.linspace(0.1, 0.4, space.dim) * (1 + 0.5j)
        x = x / (1.25 * space.norm(x))
        out += [_partner(space, uc, x, (0.25, 1.0, 32.0)),
                _product(space, uc, uc, x, (1, 0), 10.0),
                _product(space, uc, uc, x, (0, 1), 10.0),
                _DefectProblem(space, uc, 2, "row"),
                _DefectProblem(space, uc, 1, "column")]
    return out


def _sphere_points(problem, rng, shape):
    c = rng.standard_normal(shape + (problem.dim,)) \
        + 1j * rng.standard_normal(shape + (problem.dim,))
    return c / np.reshape([problem.norm(r) for r in c.reshape(-1, problem.dim)],
                          shape + (1,))


def test_stacked_value_matches_row_by_row():
    rng = np.random.default_rng(15)
    for problem in _objectives():
        c = _sphere_points(problem, rng, (3, 2))
        got, grad = problem.value_and_grad(c)
        assert got.shape == (3, 2) and grad.shape == c.shape
        rows = [[problem.value_and_grad(row) for row in rs] for rs in c]
        npt.assert_allclose(got, [[f for f, _ in rs] for rs in rows],
                            rtol=1e-12, atol=1e-15)
        npt.assert_allclose(grad, [[g for _, g in rs] for rs in rows],
                            rtol=1e-12, atol=1e-15)


def _convex_objectives():
    """(problem, kinks): the partner and product objectives on m2-full and
    on circle-1z at 60 points. On circle-1z with x = z and y = 0 every block
    of every t ties, a kink of both."""
    out = []
    circle = catalog_entry("circle-1z").build(60)
    for space in (m2_full(), circle):
        uc = space.unit_coeffs()
        x = np.linspace(0.1, 0.4, space.dim) * (1 + 0.5j)
        x = x / (1.25 * space.norm(x))
        out += [(_partner(space, uc, x, (0.25, 1.0, 32.0)), ()),
                (_partner(space, uc, x, (4.0,)), ()),
                (_product(space, uc, uc, x, (1, 0), 10.0), ()),
                (_product(space, uc, uc, x, (0, 1), 10.0), ())]
    uc, z, y0 = circle.unit_coeffs(), np.array([0, 1.0]), np.zeros(2)
    out += [(_partner(circle, uc, z, (0.25, 1.0, 32.0)), (y0,)),
            (_product(circle, uc, uc, z, (1, 0), 1.0), (y0,))]
    return out


def test_gradient_is_a_subgradient_of_the_convex_objectives():
    # f(y + delta) >= f(y) + Re<g, delta> for the convex partner hinge and
    # product norm, inside and outside the unit ball, at kinks too
    rng = np.random.default_rng(16)
    for problem, kinks in _convex_objectives():
        points = list(kinks) + list(_sphere_points(problem, rng, (4,))
                                    * rng.uniform(0.0, 1.5, (4, 1)))
        for y in points:
            f, g = problem.value_and_grad(y)
            # the value agrees with the norm-only hinge formula
            assert f == pytest.approx(problem._hinges(problem._grids(y)).max(),
                                      rel=1e-12, abs=1e-14)
            deltas = _sphere_points(problem, rng, (12,)) \
                * np.repeat([1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0], 2)[:, None]
            got, _ = problem.value_and_grad(y + deltas)
            assert np.all(got >= f + np.real(deltas @ np.conj(g)) - 1e-12)


def test_gradient_at_the_identity_grid_is_a_subgradient():
    # I_2 has a double top singular value: a kink of the norm
    space = m2_full()
    grid = np.zeros((1, 1, 4), dtype=np.complex128)
    grid[0, 0, 0] = 1.0
    f, g, _ = grid_value_and_grad(space, grid)
    rng = np.random.default_rng(18)
    for scale in (1e-6, 1e-3, 0.1, 1.0, 3.0):
        delta = scale * (rng.standard_normal((8, 1, 1, 4))
                         + 1j * rng.standard_normal((8, 1, 1, 4)))
        got = space.grid_norm(grid + delta)
        lin = np.real(np.sum(np.conj(g) * delta, axis=(1, 2, 3)))
        assert np.all(got >= f + lin - 1e-12)


def test_partner_kink_is_flagged_nonsmooth():
    # x = z, y = 0 on circle-1z: the t-blocks [[t, z_k], [0, t]] of all 60
    # points have one norm, so the top block is not unique
    space = catalog_entry("circle-1z").build(60)
    problem = _partner(space, space.unit_coeffs(), np.array([0, 1.0]),
                              (0.25, 1.0, 32.0))
    grids = problem._grids(np.zeros(2))
    i = int(np.argmax(problem._hinges(grids)))
    assert problem.value_and_grad(np.zeros(2))[0] > 0.0
    assert not grid_value_and_grad(space, grids[i])[2]


def test_stacked_defect_checks_the_bracket_of_every_row():
    space = m2_full()
    # u = diag(1/2, 1); recorded as norm 1.5, which only large rows satisfy
    problem = _DefectProblem(space, np.array([0.5, 0, 0, 0.5]), 1, "row")
    problem.u_norm = 1.5
    rng = np.random.default_rng(17)
    c = 3.0 * _sphere_points(problem, rng, (3,))
    problem.value_and_grad(c)
    c[2] /= 6.0
    with pytest.raises(SolverError) as info:
        problem.value_and_grad(c)
    npt.assert_array_equal(info.value.iterate, c[2])


class _Hinge(_OneProblem):
    """f(c) = max(|c - a| - r, 0): flat at its minimum 0 on a small ball,
    where value_and_grad returns a zero gradient, as SlotProblem does
    inside its feasible set."""

    dim = 2
    a = np.array([0.5, 0.2j])
    r = 0.1

    def norm(self, c):
        return np.linalg.norm(c, axis=-1)

    def value_and_grad(self, c):
        d = c - self.a
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        inside = n <= self.r
        grad = np.where(inside, 0.0, d / np.where(inside, 1.0, n))
        return np.where(inside[..., 0], 0.0, n[..., 0] - self.r), grad

    def lower_bound(self, c):
        return _tangent_bound(self, c)


def test_landing_inside_a_flat_minimum_is_a_target_hit():
    # the zero gradient met on landing inside the feasible set comes with
    # a fresh value at the target
    res = minimize_over_ball(_Hinge(), SolverConfig())
    assert res.value == 0.0
    assert res.reached_target and res.certified_min
    assert res.best_start == 0
    assert res.stops["target"] == 1
    assert sum(res.stops.values()) == 1
    assert res.iterations < 100


def test_budget_runs_are_counted_and_not_certified():
    a = np.array([0.3 + 0.1j, -0.2j, 0.1])
    res = minimize_over_ball(_Quadratic(a), SolverConfig(max_iters=3))
    assert res.stops["budget"] == 1 == sum(res.stops.values())
    assert res.iterations == 3
    assert not res.converged and not res.certified_min
    # a maximization never certifies its value, whatever stopped it
    assert not maximize_over_sphere(_Linear(), SolverConfig()).certified_min


class _Kink(_OneProblem):
    """f(c) = 1 + |Re c|, minimum 1 at the zero start: a kink where the
    gradient is never zero, so no run stops on its own; lower_bound
    returns a given valid bound."""

    dim = 1

    def __init__(self, lower):
        self.lower = lower

    def norm(self, c):
        return np.abs(c[..., 0])

    def value_and_grad(self, c):
        re = np.real(c[..., 0])
        return 1.0 + np.abs(re), np.where(re >= 0, 1.0, -1.0)[..., None] + 0j

    def lower_bound(self, c):
        return self.lower


def test_a_certified_bound_stops_runs_and_settles_the_sweep():
    # a bound fail_tol above the target stops the run at its first
    # checkpoint with the gap to its value still open; a bound within
    # cert_tol of the value stops it there too, and certifies the minimum
    for bound, certified_min in ((0.9, False), (1.0 - 1e-6, True)):
        res = minimize_over_ball(_Kink(bound), SolverConfig())
        assert res.stops["certified"] == 1 == sum(res.stops.values())
        assert res.iterations == SolverConfig.stall_window
        assert res.value == 1.0 and res.lower == bound
        assert res.converged and res.certified_min == certified_min


class _FlatZero:
    """f(c) = 0 with a unit gradient: nothing to climb, and no
    zero-subgradient stop."""

    dim = 2

    def norm(self, c):
        return np.linalg.norm(c, axis=-1)

    def value_and_grad(self, c):
        g = np.zeros(np.shape(c), dtype=np.complex128)
        g[..., 0] = 1.0
        return np.zeros(np.shape(c)[:-1]), g


def test_a_maximize_run_pinned_at_zero_stops_after_one_stall_window():
    config = SolverConfig(starts=4)
    res = maximize_over_sphere(_FlatZero(), config)
    assert res.stops["pinned_zero"] == 4 == sum(res.stops.values())
    assert res.iterations == 4 * SolverConfig.stall_window
    assert res.converged and res.value == 0.0


@pytest.mark.parametrize("name, u, level", [
    ("m2-full", [1, 0, 0, -0.5], 2),          # u = diag(1, 1/2)
    ("circle-1zzbar", [0.5, 0.5, 0], 1),      # u = (1 + z)/2
])
def test_a_stack_of_starts_runs_each_start_as_alone(name, u, level,
                                                    monkeypatch):
    # a unit that is not unitary: runs stop on a zero subgradient, a
    # collapsed level or the budget, at different iterations
    space = catalog_space(name)
    problem = _DefectProblem(space, np.array(u, dtype=np.complex128), level,
                             "row")
    monkeypatch.setattr(SolverConfig, "stall_window", 3)
    config = SolverConfig(max_iters=200)
    starts = _sphere_starts(problem, 24, (), [7, level])
    stacked = _run_stack(problem, config, starts, -1, 0.0)
    assert len({r.why for r in stacked}) >= 2
    assert len({r.iterations for r in stacked}) >= 3
    for c0, run in zip(starts, stacked):
        (alone,) = _run_stack(problem, config, [c0], -1, 0.0)
        assert alone.best_f == run.best_f
        npt.assert_array_equal(alone.best_c, run.best_c)
        assert (alone.iterations, alone.why) == (run.iterations, run.why)


# a cold m2-full product at t = 10, v a rotation and y = 0.8 E12: its
# minimum is a kink where two singular values tie, so subgradient steps
# zigzag; every start of `_ball_starts` runs to a budget of SHORT_ITERS,
# and at the default budget each reaches the target through eps-descent
# steps
SHORT_ITERS = 60
ROT_V = np.array([np.cos(0.3), -np.sin(0.3), np.sin(0.3), 0],
                 dtype=np.complex128)
Y08 = np.array([0, 0.8, 0, 0], dtype=np.complex128)


def _cold_m2_product():
    space = m2_full()
    return _product(space, space.unit_coeffs(), ROT_V, Y08, (1, 0), 10.0)


def _ball_starts(problem, count):
    """count seeded starts in the ball: 0, the basis pulled back into it,
    then random points."""
    eye = np.eye(problem.dim, dtype=np.complex128)
    starts = [np.zeros(problem.dim, dtype=np.complex128)]
    starts += [e / max(1.0, n) for e, n in zip(eye, problem.norm(eye))]
    rng = np.random.default_rng([7, 1])
    shape = (count - len(starts), problem.dim)
    gs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    radii = rng.uniform(0.0, 1.0, shape[0])
    starts += [g * (r / n) for g, n, r in zip(gs, problem.norm(gs), radii)]
    return starts[:count]


def _circle_1z_partner():
    """The partner hinge of z on circle-1z over (0.25, 32): the minimum is
    a kink, and every start stops certified at a lower-bound checkpoint."""
    space = catalog_space("circle-1z")
    return _partner(space, space.unit_coeffs(), np.array([0, 1 + 0j]),
                    (0.25, 32.0))


def _copies(make):
    """A stack of copies of one problem, one per seeded `_ball_starts`
    start."""
    def build():
        problem = make()
        starts = _ball_starts(problem, 6)
        return problem.take([0] * len(starts)), starts
    return build


def _table_products():
    """The m2-full product table's k d problems, as detect_cstar stacks
    them, each started cold at 0: the runs reach the target after plain
    steps alone or after eps-descent steps too."""
    stacks = []

    def recorded(problem, config, *, target, starts):
        stacks.append(problem)
        return minimize_stack(problem, config, target=target, starts=starts)

    with mock.patch.object(cstar, "minimize_stack", recorded):
        detect_cstar(catalog_space("m2-full"),
                     closure=catalog_closure("m2-full"))
    (products,) = stacks
    return products, np.zeros((len(products.frames), products.dim),
                              dtype=np.complex128)


def _span_partners(seed, index):
    """Partner problems over the default t grid of the basis and three
    random elements of the index-th space of test_hermit.random_spans,
    started cold at 0."""
    space = list(random_spans(np.random.default_rng(seed)))[index][1]
    rng = np.random.default_rng(index)
    d = space.dim
    xs = np.concatenate([np.eye(d), rng.standard_normal((3, d))
                         + 1j * rng.standard_normal((3, d))])
    xs /= np.maximum(1.0, space.grid_norm(xs[:, None, None, :]))[:, None]
    return lambda: (_partner(space, space.unit_coeffs(), xs, DEFAULT_T_GRID),
                    np.zeros_like(xs))


@pytest.mark.parametrize("make, max_iters, whys, descends", [
    (_copies(_cold_m2_product), SHORT_ITERS, {"budget"}, {False}),
    (_copies(_circle_1z_partner), SolverConfig().max_iters, {"certified"},
     {False}),
    (_copies(_cold_m2_product), SolverConfig().max_iters, {"target"},
     {True}),
    (_table_products, SolverConfig().max_iters, {"target"}, {False, True}),
    # span{I, N}: N and the random elements have no partner, and their
    # searches certify a FAIL
    (_span_partners(15, 3), SolverConfig().max_iters,
     {"target", "certified"}, {False, True}),
    # span{I, A, A*}: every element has one
    (_span_partners(16, 0), SolverConfig().max_iters, {"target"},
     {False, True}),
], ids=["m2-full-product", "circle-1z-partner", "m2-full-product-descent",
        "m2-full-table", "span-partners-fail", "span-partners-system"])
def test_a_stack_of_minimize_starts_runs_each_start_as_alone(
        make, max_iters, whys, descends):
    # a stack of problems, one per start: each row runs as its problem's
    # one-row stack would alone, though the rows share every call, the
    # eps-descent steps' line searches included
    stack, starts = make()
    config = SolverConfig(max_iters=max_iters)
    stacked = _run_stack(stack, config, starts, +1, 0.0)
    assert {r.why for r in stacked} == whys
    assert {r.descents > 0 for r in stacked} == descends
    for k, (c0, run) in enumerate(zip(starts, stacked)):
        (alone,) = _run_stack(stack.take([k]), config, [c0], +1, 0.0)
        assert (alone.best_f, alone.lower) == (run.best_f, run.lower)
        npt.assert_array_equal(alone.best_c, run.best_c)
        assert (alone.iterations, alone.why, alone.descents) == \
            (run.iterations, run.why, run.descents)


def test_a_cold_product_makes_two_calls_per_iteration(monkeypatch):
    # at a short budget the one run from 0 ends at its budget after one
    # one-row call per iteration; at the default budget it reaches the
    # target within three stall windows of one-row calls, two of plain
    # steps and at most one of eps-descent steps
    calls = []
    value_and_grad = SlotProblem.value_and_grad

    def counted(self, c):
        calls.append(len(c))
        return value_and_grad(self, c)

    monkeypatch.setattr(SlotProblem, "value_and_grad", counted)
    space = m2_full()
    config = SolverConfig(max_iters=SHORT_ITERS)
    rec = recover_product(space, space.unit_coeffs(), ROT_V, Y08, t=10.0,
                          config=config)
    assert rec.diagnostics["stops"]["budget"] == 1
    assert rec.diagnostics["iterations"] == config.max_iters
    assert calls == [1] * (config.max_iters + 1)
    calls.clear()
    rec = recover_product(space, space.unit_coeffs(), ROT_V, Y08, t=10.0,
                          config=SolverConfig())
    assert rec.diagnostics["reached_target"]
    assert sum(rec.diagnostics["stops"].values()) == 1
    assert rec.diagnostics["descent_steps"] > 0
    # an eps-descent step hands over one point, evaluated like any other
    assert calls == [1] * len(calls)
    assert len(calls) <= 3 * SolverConfig.stall_window
    assert rec.achieved - rec.target <= SolverConfig.eps_stop


class _Counted:
    """A problem that counts its calls and the rows they carry."""

    def __init__(self, problem):
        self.problem, self.dim = problem, problem.dim
        self.calls = {}             # method name -> rows of each call

    def take(self, rows):
        return self

    def __getattr__(self, name):
        def call(c):
            self.calls.setdefault(name, []).append(len(c))
            return getattr(self.problem, name)(c)
        return call


def test_a_sphere_sweep_steps_its_starts_as_one_stack():
    # every start of a unitary's defect stops at iteration 1 on a zero
    # subgradient: the whole sweep is one gradient call over all starts
    space = m2_full()
    problem = _Counted(_DefectProblem(space, space.unit_coeffs(), 1, "row"))
    res = maximize_over_sphere(problem, SolverConfig())
    assert res.stops["zero_subgradient"] == 32 == res.iterations
    assert problem.calls["value_and_grad"] == [32]
    # the start norms: the basis, then the random draws
    assert problem.calls["norm"] == [4, 28]
    assert set(problem.calls) == {"value_and_grad", "norm"}


def test_each_iterate_is_evaluated_once():
    # a run that ends at its budget after K iterations makes K + 1
    # evaluations, all through value_and_grad: its start, every stepped
    # iterate, and nothing twice
    k = 3
    a = np.array([0.3 + 0.1j, -0.2j, 0.1])
    problem = _Counted(_Quadratic(a))
    res = minimize_over_ball(problem, SolverConfig(max_iters=k))
    assert res.stops["budget"] == 1 and res.iterations == k
    # a minimization is one run
    assert problem.calls["value_and_grad"] == [1] * (k + 1)
    assert set(problem.calls) == {"value_and_grad", "norm", "lower_bound"}
    problem = _Counted(_Linear())
    res = maximize_over_sphere(problem, SolverConfig(max_iters=k))
    assert res.stops["budget"] == 32
    # the maximize starts run as one stack
    assert problem.calls["value_and_grad"] == [32] * (k + 1)
    assert set(problem.calls) == {"value_and_grad", "norm"}
