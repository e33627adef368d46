"""The certified lower bound of the convex searches (`blocks.Pieces`,
`SlotProblem.lower_bound`) and the verdicts that rest on it."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.blocks import EPS_LADDER, Pieces, SlotProblem, t_frames
from opcert.cstar import recover_product
from opcert.funcspace import catalog_entry, catalog_space
from opcert.report import FAIL, INCONCLUSIVE
from opcert.solver import DEFAULT_T_GRID, SolverConfig
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
    and 40 seeded sphere points each."""
    space = catalog_space("m2-upper")
    rng = np.random.default_rng(19)
    ball = _ball_points(space, rng, 4000)
    out = []
    for x in _sampled_elements(space):
        problem = _partner_problem(space, x, DEFAULT_T_GRID)
        floor = problem.value_and_grad(ball)[0].min()
        y = find_partner(space, x=x, starts=1,
                         config=SolverConfig(max_iters=50)).y_coeffs
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
            lam, mu = at.weights(eps)
            assert at.bound(eps, lam, mu) <= floor
            assert at.bound(eps, lam, -mu) <= floor
            assert at.bound(eps, -lam, mu) == -np.inf
            g = at.subgradients(eps)
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

