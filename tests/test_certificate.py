"""The certified lower bound of the convex searches (`blocks.Pieces`,
`SlotProblem.lower_bound`) and the verdicts that rest on it."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert import blocks
from opcert.blocks import EPS_LADDER, Pieces, SlotProblem, t_frames
from opcert.cstar import recover_product
from opcert.funcspace import catalog_entry, catalog_space
from opcert.report import FAIL, INCONCLUSIVE
from opcert.solver import DEFAULT_T_GRID, SolverConfig, minimize_over_ball
from opcert.sysdetect import (SYSTEM_SAMPLES, detect_operator_system,
                              find_partner, t1_insufficiency_probe)

FIXTURES = Path(__file__).parent / "fixtures"
E12 = np.array([0, 1.0])      # in m2-upper's basis I, E12
Z = np.array([0, 1.0])        # in circle-1z's basis 1, z


def _partner_problem(space, x, ts):
    ts = np.asarray(ts, dtype=float)
    return SlotProblem(space, t_frames(space, ts, space.unit_coeffs(), x, None),
                       (1, 0), np.sqrt(ts ** 2 + 1.0))


def _ball_points(space, rng, n, sphere=False):
    c = rng.standard_normal((n, space.dim)) \
        + 1j * rng.standard_normal((n, space.dim))
    c /= space.grid_norm(c[:, None, None, :])[:, None]
    return c if sphere else c * np.sqrt(rng.uniform(0.0, 1.0, (n, 1)))


def test_circle_bound_brackets_the_hinge_floor():
    # on circle-1z with x = z every partner's hinge is at least h(t) (see
    # test_ac07), attained at y = 0, a kink where all 360 points tie; the
    # bound closes the gap there instead of a zero subgradient
    space = catalog_space("circle-1z")
    r = find_partner(space, x=Z)
    t = max(DEFAULT_T_GRID)
    h = (1 + np.sqrt(1 + 4 * t * t)) / 2 - np.sqrt(1 + t * t)
    assert r.lower <= h <= r.residual
    assert r.residual - r.lower <= SolverConfig.cert_tol
    assert r.lower >= SolverConfig.fail_tol
    assert r.converged and r.diagnostics["certified_min"]
    assert r.diagnostics["stops"]["budget"] == 0
    assert r.diagnostics["iterations"] <= 2 * SolverConfig.stall_window


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(0.0, 1.0))
def test_upper_bound_brackets_the_brute_force_minimum(parts, radius):
    # AC5's brute-force minimum of E12's partner hinge at t = 32 on m2-upper
    margins = json.loads((FIXTURES / "upper_partner_margin.json").read_text())
    space = catalog_space("m2-upper")
    problem = _partner_problem(space, E12, (margins["t"],))
    y = np.array(parts[:2]) + 1j * np.array(parts[2:])
    n = space.norm(y)
    y = y * (radius / n) if n > 1e-12 else y
    ub = find_partner(space, x=E12, t_grid=(margins["t"],)).residual
    assert problem.lower_bound(y) <= margins["refined_min_hinge"] <= ub


def _sampled_elements(space):
    """The random elements detect_operator_system searches."""
    rng = np.random.default_rng([SolverConfig.root_seed, 23])
    out = []
    for _ in range(SYSTEM_SAMPLES):
        g = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        out.append(g / space.norm(g))
    return out


def _upper_incumbents():
    """(problem, point on the sphere, minimum over 4,000 seeded ball points)
    for m2-upper's sampled elements: the incumbent of a 50-iteration search
    from -conj(x), which ends on the sphere, and 40 seeded sphere points
    each."""
    space = catalog_space("m2-upper")
    rng = np.random.default_rng(19)
    ball = _ball_points(space, rng, 4000)
    out = []
    for x in _sampled_elements(space):
        problem = _partner_problem(space, x, DEFAULT_T_GRID)
        floor = problem.value_and_grad(ball)[0].min()
        y = minimize_over_ball(problem, SolverConfig(max_iters=50),
                               start=-np.conj(x)).coeffs
        for c in [y, *_ball_points(space, rng, 40, sphere=True)]:
            out.append((problem, c, floor))
    return out


def test_the_normal_cone_keeps_its_sign():
    # on the sphere the ball's normal cone enters r = sum lambda g + mu h
    # with mu >= 0; with -mu h the bound overstates the minimum
    for k, (problem, c, floor) in enumerate(_upper_incumbents()):
        assert problem.norm(c) >= 1.0 - 1e-12
        lb = problem.lower_bound(c)
        assert lb <= floor
        if k % 41 == 0:     # a stalled incumbent certifies a FAIL
            assert lb >= SolverConfig.fail_tol


def test_tampered_multipliers_still_bound_the_minimum():
    # the bound trusts only the signs of lambda and mu: a negated entry
    # counts as zero, as does a dropped piece, and lambda is renormalized;
    # the shortest r of any sign, an affine combination, is refused too
    multi = 0
    for problem, c, floor in _upper_incumbents():
        at = Pieces(problem, c)
        for eps in EPS_LADDER:
            g = at.z_subgradients(eps)
            lam, mu = blocks._shortest(g, at.h)
            assert at.bound(eps, lam, mu) <= floor
            assert at.bound(eps, lam, -mu) <= floor
            assert at.bound(eps, -lam, mu) == -np.inf
            affine = np.linalg.lstsq(np.vstack([g, 1e3 * np.ones(lam.size)]),
                                     np.r_[np.zeros(g.shape[0]), 1e3],
                                     rcond=None)[0]
            assert at.bound(eps, affine, 0.0) <= floor
            multi += lam.size > 1
            for i in range(lam.size):
                for value in (-lam[i], 0.0):
                    tampered = lam.copy()
                    tampered[i] = value
                    assert at.bound(eps, tampered, mu) <= floor
    assert multi >= 3


def test_each_eps_builds_its_columns_once(monkeypatch):
    # lower_bound reads an eps's z-pieces for the NNLS and again in bound:
    # one build per eps, shared read-only, and a bound from them equals
    # one from freshly built columns
    space = catalog_space("m2-full")
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    problem = _partner_problem(space, x / space.norm(x), (10.0,))
    c = _ball_points(space, rng, 1, sphere=True)[0]
    built, asked = [], []
    mixes, columns = blocks._unit_mixes, Pieces.z_subgradients
    monkeypatch.setattr(blocks, "_unit_mixes",
                        lambda n: built.append(n) or mixes(n))
    monkeypatch.setattr(Pieces, "z_subgradients",
                        lambda self, eps: asked.append(eps)
                        or columns(self, eps))
    problem.lower_bound(c)
    assert len(asked) > len(set(asked)) == len(built)
    at = Pieces(problem, c)
    for eps in EPS_LADDER:
        g = at.z_subgradients(eps)
        assert at.z_subgradients(eps) is g and not g.flags.writeable
        lam, mu = blocks._shortest(g, at.h)
        assert at.bound(eps, lam, mu) == Pieces(problem, c).bound(eps, lam,
                                                                   mu)


def test_shortest_takes_equal_weights_at_the_nnls_limit(monkeypatch):
    def limited(a, b):
        raise RuntimeError("nnls: iteration limit reached")
    monkeypatch.setattr(blocks, "nnls", limited)
    g = np.arange(12.0).reshape(4, 3)
    for h in (None, np.ones(4)):
        lam, mu = blocks._shortest(g, h)
        np.testing.assert_array_equal(lam, np.full(3, 1.0 / 3.0))
        assert mu == 0.0


def test_a_fail_rests_on_a_certified_bound(monkeypatch):
    # circle-1z at 60 points: x = z has no partner, but without the bound
    # no search settles, and the verdicts stay inconclusive
    space = catalog_entry("circle-1z").build(60)
    config = SolverConfig(max_iters=60)
    assert detect_operator_system(space, config=config).verdict == FAIL
    assert t1_insufficiency_probe(space, None, Z, config=config).verdict == FAIL
    monkeypatch.setattr(SlotProblem, "lower_bound", lambda self, c: -np.inf)
    assert detect_operator_system(space, config=config).verdict == INCONCLUSIVE
    probe = t1_insufficiency_probe(space, None, Z, config=config)
    assert probe.verdict == INCONCLUSIVE
    assert not probe.diagnostics["t1_satisfiable"]


@pytest.mark.parametrize("max_iters", [1, 5, 20])
def test_a_short_product_search_is_not_an_escape(max_iters):
    # v = I, y = 0.8 E12 on m2-full: v y* u = 0.8 E21 lies in the space,
    # though a short search leaves the excess above fail_tol
    space = catalog_space("m2-full")
    rec = recover_product(space, space.unit_coeffs(), [1, 0, 0, 0],
                          [0, 0.8, 0, 0], t=10.0,
                          config=SolverConfig(max_iters=max_iters))
    assert rec.achieved - rec.target >= SolverConfig.fail_tol
    assert not rec.escaped


@pytest.mark.parametrize("seed", [3, 61, 1, 40, 12, 13])
def test_a_stopped_cold_product_bound_reads_its_z_pieces(seed):
    # a cold m2-full product stopped after 50 iterations sits near the kink
    # where its two top singular values tie; its z-pieces span both pairs,
    # and the top pair alone sees one side of the tie (a bound below -1.2)
    space = catalog_space("m2-full")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr((rng.standard_normal(4)
                         + 1j * rng.standard_normal(4)).reshape(2, 2))
    v, _ = space.membership(q)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y *= 0.8 / space.norm(y)
    for t in (10.0, 1000.0):
        problem = SlotProblem(space, t_frames(space, (t,), space.unit_coeffs(),
                                              y, None, v), (1, 0),
                              np.sqrt(t * t + space.norm(y) ** 2))
        res = minimize_over_ball(problem, SolverConfig(max_iters=50))
        assert res.diagnostics["stops"]["budget"] == 1
        # v y* u lies in M2, so the minimum is 0
        assert -1.0 < problem.lower_bound(res.coeffs) <= 0.0


def _z_problems():
    """(objective, its minimizer) for objectives whose pieces have several
    near-top singular pairs at a kink: the cold m2-full product of
    test_solver (one 4 x 4 frame) and the partner hinges of sampled
    elements over the default t grid, on circle-1zzbar at 12 points so
    that the pieces stay few."""
    space = catalog_space("m2-full")
    rot = np.array([np.cos(0.3), -np.sin(0.3), np.sin(0.3), 0])
    y = np.array([0, 0.8, 0, 0])
    problems = [SlotProblem(space, t_frames(space, (10.0,), space.unit_coeffs(),
                                            y, None, rot), (1, 0),
                            np.sqrt(100.0 + space.norm(y) ** 2))]
    for space in (catalog_space("m2-sym3"), catalog_space("m2-upper"),
                  catalog_entry("circle-1zzbar").build(12)):
        problems.append(_partner_problem(space, _sampled_elements(space)[0],
                                         DEFAULT_T_GRID))
    return [(p, minimize_over_ball(p, SolverConfig()).coeffs)
            for p in problems]


Z_PROBLEMS = _z_problems()


def _worst_excess(problem, ys):
    """The worst excess, without the hinge, of each row of a stack."""
    norms = problem.space.grid_norm(problem._grids(ys))
    return (norms - problem.offsets).max(axis=-1)


def _z_slack(problem, at, g, eps, ys):
    """min over the columns g_z and the rows y of
    f(y) - (f(c) - eps + <g_z, y - c>), which an eps-subgradient keeps
    at or above zero; the rows y are ys and the points c + s g_z/|g_z|
    of the ball, where a wrong g_z overstates the rise most."""
    d = problem.dim
    up = (g[:d] + 1j * g[d:]).T / np.linalg.norm(g, axis=0)[:, None]
    steps = (at.c + np.multiply.outer([1e-3, 1e-2, 1e-1], up)).reshape(-1, d)
    steps /= np.maximum(problem.norm(steps), 1.0)[:, None]
    ys = np.concatenate([ys, steps])
    d = ys - at.c
    lin = np.concatenate([d.real, d.imag], axis=1) @ g
    return float((_worst_excess(problem, ys)[:, None]
                  - (at.f - eps + lin)).min())


def _z_columns(at, eps, conj_left=True):
    """The z-piece gradients of `Pieces.z_subgradients` built one z at a
    time from the singular pairs, the way `top_value_and_grad` reads a
    top pair: the slot entry of conj(<U z, B V z>) over the basis. With
    conj_left=False the left vector is U conj(z), a phase conjugated on
    one side only."""
    problem = at.problem
    space = problem.space
    _, w, p, q = space.basis.shape
    cols = []
    for piece in at.order[:int(np.count_nonzero(at.ranked >= at.f - eps))]:
        t, k = divmod(int(piece), w)
        u, s, vh = np.linalg.svd(at.stacks[t, k])
        n = max(1, int(np.count_nonzero(s - problem.offsets[t] >= at.f - eps)))
        for z in blocks._unit_mixes(n)[0].T:
            left = u[:, :n] @ (z if conj_left else np.conj(z))
            right = np.conj(vh[:n]).T @ z
            i, j = problem.slot
            g = np.einsum("p,dpq,q->d", np.conj(left.reshape(-1, p)[i]),
                          space.basis[:, k], right.reshape(-1, q)[j])
            cols.append(np.concatenate([np.conj(g).real, np.conj(g).imag]))
    return np.array(cols).T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, len(Z_PROBLEMS) - 1), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-3, 1e-2, 1e-1, 1.0]), st.floats(0.0, 1.0))
def test_every_z_piece_is_an_eps_subgradient(which, seed, eps, away):
    # f(y) >= f(c) - eps + <g_z, y - c> for every z-piece of the pieces
    # within eps and 60 points y of the ball, at points c of the ball from
    # the objective's minimizer (away = 0: a kink) to a random point
    problem, kink = Z_PROBLEMS[which]
    rng = np.random.default_rng(seed)
    c = (1.0 - away) * kink + away * _ball_points(problem.space, rng, 1)[0]
    at = Pieces(problem, c)
    g = at.z_subgradients(eps)
    np.testing.assert_allclose(g, _z_columns(at, eps), atol=1e-12)
    ys = _ball_points(problem.space, rng, 60)
    assert _z_slack(problem, at, g, eps, ys) >= -1e-12


def test_a_z_piece_with_a_one_sided_phase_fails_the_bound():
    # the mutant (U conj(z))(V z)* breaks the eps-subgradient inequality
    # the property test checks, where the true z-pieces keep it
    rng = np.random.default_rng(5)
    worst = []
    for problem, kink in Z_PROBLEMS:
        at = Pieces(problem, kink)
        ys = _ball_points(problem.space, rng, 60)
        for eps in (1e-3, 1e-2):
            assert _z_slack(problem, at, at.z_subgradients(eps), eps,
                            ys) >= -1e-12
            worst.append(_z_slack(problem, at,
                                  _z_columns(at, eps, conj_left=False),
                                  eps, ys))
    assert min(worst) < -1e-2
