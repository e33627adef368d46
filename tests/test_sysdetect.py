import numpy as np
import pytest

from opcert.blocks import two_by_two
from opcert.errors import InvalidInputError, PreconditionError
from opcert.funcspace import catalog_entry, catalog_space
from opcert.matcore import adjoint
from opcert.opspace import make_space
from opcert.solver import SolverConfig
from opcert.sysdetect import (detect_operator_system, find_partner,
                              involution_error_bound, recover_involution,
                              t1_insufficiency_probe)

E12_COEFFS = [0, 1.0, 0, 0]


def test_error_bound_values():
    assert involution_error_bound(10.0) == pytest.approx(0.11)
    assert involution_error_bound(100.0) == pytest.approx(0.0101)


def hinge_objective(space, uc, xc, yc, ts):
    worst = 0.0
    for t in ts:
        g = two_by_two(space, t * uc, xc, yc, t * uc)
        worst = max(worst, space.grid_norm(g) - np.sqrt(t * t + 1.0))
    return max(worst, 0.0)


def test_hinge_objective_convex_in_partner():
    space = catalog_space("m2-full")
    uc = space.unit_coeffs()
    rng = np.random.default_rng(17)
    ts = (0.5, 1.0, 4.0)
    for _ in range(5):
        xc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xc /= max(space.norm(xc), 1.0)
        y1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam = rng.uniform()
        mixed = hinge_objective(space, uc, xc, lam * y1 + (1 - lam) * y2, ts)
        split = (lam * hinge_objective(space, uc, xc, y1, ts)
                 + (1 - lam) * hinge_objective(space, uc, xc, y2, ts))
        assert mixed <= split + 1e-10


def test_find_partner_recovers_adjoint():
    space = catalog_space("m2-full")
    res = find_partner(space, None, E12_COEFFS)
    assert res.residual <= 1e-8
    assert np.all(res.per_t_residual <= 1e-8)
    recovered = -space.embed(res.y_coeffs)
    true = adjoint(space.embed(np.asarray(E12_COEFFS, dtype=np.complex128)))
    assert np.linalg.norm(recovered - true) <= involution_error_bound(32.0) + 1e-4


def test_exact_partner_sits_on_the_boundary():
    # for x = E12 the partner -E21 meets every t constraint with equality
    space = catalog_space("m2-full")
    uc = space.unit_coeffs()
    xc = np.array([0, 1.0, 0, 0], dtype=np.complex128)
    yc = np.array([0, 0, -1.0, 0], dtype=np.complex128)
    for t in (0.25, 1.0, 8.0, 32.0):
        g = two_by_two(space, t * uc, xc, yc, t * uc)
        assert space.grid_norm(g) == pytest.approx(np.sqrt(t * t + 1.0),
                                                   abs=1e-9)


def test_recover_involution_tracks_adjoint():
    space = catalog_space("m2-full")
    rng = np.random.default_rng(19)
    for _ in range(3):
        xc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xc /= space.norm(xc) * rng.uniform(1.0, 2.0)
        rec = recover_involution(space, None, xc, t_large=100.0)
        # the bound is stated in the operator norm
        error = np.linalg.norm(rec.matrix - adjoint(space.embed(xc)), 2)
        assert error <= rec.bound


def test_recover_involution_nearly_period_two():
    space = catalog_space("m2-full")
    xc = np.array([0.2, 0.5, -0.1j, 0.3], dtype=np.complex128)
    xc /= space.norm(xc) * 1.5
    once = recover_involution(space, None, xc, t_large=100.0)
    twice = recover_involution(space, None, once, t_large=100.0)
    # the involution is an isometry of period two for a unitary unit, so
    # the two recovery errors add up by the triangle inequality
    error = np.linalg.norm(twice.matrix - space.embed(xc), 2)
    assert error <= once.bound + twice.bound


@pytest.mark.parametrize("seed", [6, 8, 12])
def test_recover_involution_reaches_zero_hinge_at_large_t(seed):
    # x drawn as the recover-cli benchmark draws it; at t = 1000 the
    # feasible partners form a set of diameter about 2/t, which the search
    # reaches only by stepping toward the known minimum 0 of the hinge
    space = catalog_space("m2-full")
    config = SolverConfig()
    rng = np.random.default_rng([seed, 0])
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x *= 0.8 / space.norm(x)
    rec = recover_involution(space, None, x, t_large=1000.0, config=config)
    assert rec.residual <= config.eps_stop
    assert rec.bound <= involution_error_bound(1000.0) + 4 * config.eps_stop
    u, xm = space.embed(space.unit_coeffs()), space.embed(x)
    assert np.linalg.norm(rec.matrix - u @ adjoint(xm) @ u, 2) <= rec.bound


def test_probe_flags_one_sided_circle():
    space = catalog_entry("circle-1z").build()
    rep = t1_insufficiency_probe(space, None, [0, 1.0])
    assert rep.verdict == "fail"
    assert rep.diagnostics["t1_residual"] == pytest.approx(0.2038204264,
                                                           abs=1e-6)
    assert not rep.diagnostics["t1_satisfiable"]
    assert not rep.diagnostics["full_pass"]
    assert not rep.diagnostics["diverges"]


def test_probe_passes_on_selfadjoint_matrix_space():
    space = catalog_space("m2-full")
    rep = t1_insufficiency_probe(space, None, E12_COEFFS)
    assert rep.passed
    assert rep.diagnostics["full_pass"]
    assert not rep.diagnostics["diverges"]


def test_detect_matrix_space_verdicts():
    full = catalog_space("m2-full")
    rep = detect_operator_system(full)
    assert rep.passed
    assert rep.diagnostics["worst_residual"] <= 1e-4

    upper = catalog_space("m2-upper")
    rep = detect_operator_system(upper)
    assert rep.verdict == "fail"
    assert rep.diagnostics["worst_residual"] >= 0.1


def test_detect_propagates_unit_failure():
    space = make_space([np.diag([1.0, 0]), np.diag([0, 1.0])],
                       unit=[1.0, 0.5])
    rep = detect_operator_system(space)
    assert rep.verdict == "fail"
    assert rep.witness == {"stage": "unit-certification"}
    assert rep.diagnostics["unit_verdict"] == "fail"


@pytest.mark.parametrize("t_grid", [(-1.0,), (0.0,), (np.nan,), (np.inf,), ()],
                         ids=["negative", "zero", "nan", "inf", "empty"])
def test_partner_t_grid_is_checked(t_grid):
    with pytest.raises(InvalidInputError, match="t_grid"):
        find_partner(catalog_space("m2-upper"), x=[0, 1.0], t_grid=t_grid)


def test_input_validation():
    space = catalog_space("m2-full")
    with pytest.raises(InvalidInputError):
        find_partner(space, None, None)
    with pytest.raises(InvalidInputError):
        find_partner(space, None, [0, 1.5, 0, 0])
    with pytest.raises(InvalidInputError):
        t1_insufficiency_probe(space, None, [0, 0.5, 0, 0])
    with pytest.raises(PreconditionError):
        recover_involution(catalog_entry("circle-1z").build(), None,
                           [0, 1.0], t_large=100.0)


def test_zero_subgradient_ends_the_partner_sweep():
    # on m2-upper no partner of E12 is feasible; the run from 0 meets a
    # zero subgradient at once, so the hinge's minimum is settled there
    space = catalog_space("m2-upper")          # basis I, E12
    r = find_partner(space, x=np.array([0, 1.0]))
    assert r.residual == 0.48828482444627497
    assert r.converged
    assert r.diagnostics["best_start"] == 0
    assert r.diagnostics["iterations"] <= 2
    assert r.diagnostics["certified_min"]
    assert r.diagnostics["stops"]["zero_subgradient"] == 1
    assert sum(r.diagnostics["stops"].values()) == 1


def test_certified_fail_ends_the_element_loop():
    # E12 is certified at 0.488 in one iteration; the sampled elements
    # after it, whose uncertified residuals are 0.16-0.41, are not searched
    rep = detect_operator_system(catalog_space("m2-upper"))
    assert rep.verdict == "fail"
    assert rep.diagnostics["worst_residual"] == 0.48828482444627497
    assert rep.margin == SolverConfig().cert_tol - 0.48828482444627497
    assert len(rep.diagnostics["residuals"]) == 2
    np.testing.assert_array_equal(rep.witness["x_coeffs"], [0, 1.0])


def test_warm_start_is_the_exact_partner_for_a_non_real_unit():
    # unit iI and x = E12: the exact partner -u x* u is +E21, where the
    # adjoint x* = E21 would start with the wrong sign
    space = make_space([np.eye(2), [[0, 1], [0, 0]], [[0, 0], [1, 0]],
                        [[0, 0], [0, 1]]], unit=[1j, 0, 0, 0])
    r = find_partner(space, x=np.array(E12_COEFFS))
    assert r.residual == 0.0
    assert r.diagnostics["best_start"] == 0
    assert r.diagnostics["iterations"] <= 1
    np.testing.assert_allclose(r.y_coeffs, [0, 0, 1.0, 0], atol=1e-12)
