import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert.blocks import row_with_unit
from opcert.certify import _DefectProblem, certify_unitary
from opcert.errors import InvalidInputError, PreconditionError
from opcert.funcspace import (CATALOG, catalog_closure, catalog_entry,
                              catalog_names, catalog_space, g_hermitian_solve,
                              scalar_unitary_check, selfadjoint_unit_check)
from opcert.hermit import _ambient_hermitians
from opcert.opspace import space_from_points
from opcert.report import FAIL, INCONCLUSIVE, PASS
from opcert.solver import SolverConfig


def test_sampled_space_validation():
    with pytest.raises(InvalidInputError):
        space_from_points(np.ones(5))
    with pytest.raises(InvalidInputError):
        space_from_points(np.ones((2, 6)))   # dependent rows
    with pytest.raises(InvalidInputError):
        space_from_points(np.ones((1, 6)), unit=[1.0, 0])
    space = catalog_space("circle-1z")
    with pytest.raises(InvalidInputError):
        space.as_coeffs([1.0, 0, 0])


def test_min_opspace_preserves_norms():
    # a sampled function space is its own operator model: the norm is the
    # sup of the point values
    op = catalog_space("circle-1zzbar", 24)
    assert op.diagonal
    rng = np.random.default_rng(37)
    for _ in range(5):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sup = float(np.max(np.abs(op.point_values(c))))
        assert op.norm(c) == pytest.approx(sup, abs=1e-12)
    vals = op.point_values([0.5, 2.0, -1j])
    coeffs, resid = op.membership_blocks(vals[:, None, None])
    assert resid <= 1e-9
    assert np.allclose(coeffs, [0.5, 2.0, -1j], atol=1e-9)


def test_scalar_unitary_passes_on_catalog_units():
    # |g| = 1 at every point, so the concrete bound 1 - min_w |g(w)|^2
    # settles every level and no search runs
    for name, g in (("circle-1zzbar", None), ("circle-1z", None),
                    ("two-circles", None), ("circle-1zzbar", [0, 1.0, 0])):
        for m in (360, 720):
            rep = scalar_unitary_check(catalog_space(name, m), g=g)
            bound = rep.diagnostics["row_defect_bound"]
            assert rep.passed, name
            assert rep.diagnostics["upper_route"] == "concrete"
            assert bound <= 1e-12
            assert rep.margin == pytest.approx(SolverConfig.cert_tol - bound,
                                               abs=1e-15)


@pytest.mark.parametrize("name", ["circle-1z", "circle-1zzbar"])
def test_a_near_unit_fails_through_both_checks(name):
    # g = a + b z has |g| = a + b = 1 and min |g| = a - b: the level-1 row
    # defect 1 - (a - b)^2 (0.0396 for g = 0.99 + 0.01 z, within 10/m of
    # passing at m = 360) is attained, past fail_tol
    fspace = catalog_space(name)
    for a, b, defect in ((0.99, 0.01, 0.0396), (0.9, 0.1, 0.36),
                         (0.5, 0.5, 1.0)):
        gc = np.zeros(fspace.dim)
        gc[:2] = a, b
        scalar = scalar_unitary_check(fspace, g=gc)
        matrix = certify_unitary(fspace, gc / fspace.norm(gc), max_level=1)
        assert scalar.verdict == matrix.verdict == FAIL, (a, b)
        found = scalar.diagnostics["row_defect_level_1"]
        assert found >= SolverConfig.fail_tol
        assert found == pytest.approx(defect, abs=3e-3)
        assert scalar.margin == SolverConfig.cert_tol - found
        if b == 0.01:
            assert scalar.margin == pytest.approx(-0.0395, abs=1e-4)
            assert matrix.margin == pytest.approx(-0.0395, abs=1e-4)


def test_two_term_sup_matches_closed_form():
    # the witness defect is 2 - max_w (|f(w)|^2 + |g(w)|^2) for the
    # norm-one witness f: the block [g f] has norm max_w sqrt(|f|^2 + |g|^2)
    fspace = catalog_space("circle-1zzbar")
    gc = np.array([0.9, 0.1, 0.05])
    rep = scalar_unitary_check(fspace, g=gc)
    assert rep.verdict == FAIL
    assert rep.witness["level"] == 1 and rep.witness["direction"] == "row"
    fc = rep.witness["coeff_grid"][0, 0]
    assert fspace.norm(fc) == pytest.approx(1.0, abs=1e-12)
    fv = fspace.point_values(fc)
    gv = fspace.point_values(gc) / rep.diagnostics["g_norm"]
    closed = 2.0 - float(np.max(np.abs(fv) ** 2 + np.abs(gv) ** 2))
    assert rep.diagnostics["row_defect_level_1"] == pytest.approx(closed,
                                                                  abs=1e-12)


def test_sphere_sup_is_attained_and_never_exceeded():
    # Cauchy-Schwarz at each point: the norm of the row block [g f] of a
    # point-backed space, max_w sqrt(|f|^2 + |g|^2), is the sup of
    # |s f + t g| over s^2 + |t|^2 = 1, attained at (s, t) proportional to
    # (|f|, conj(g) f / |f|)
    rng = np.random.default_rng(53)
    space = space_from_points(rng.standard_normal((2, 9))
                              + 1j * rng.standard_normal((2, 9)))
    for _ in range(20):
        fc = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        gc = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fv, gv = space.point_values(fc), space.point_values(gc)
        sup = space.grid_norm(row_with_unit(space, gc, fc[None, None]))
        assert sup == pytest.approx(
            float(np.max(np.sqrt(np.abs(fv) ** 2 + np.abs(gv) ** 2))),
            rel=1e-12)
        k = int(np.argmax(np.abs(fv) ** 2 + np.abs(gv) ** 2))
        s, t = abs(fv[k]), np.conj(gv[k]) * fv[k] / abs(fv[k])
        n = np.hypot(s, abs(t))
        assert np.max(np.abs(s * fv + t * gv)) / n == pytest.approx(sup, rel=1e-12)
        for _ in range(50):
            s = rng.standard_normal()
            t = rng.standard_normal() + 1j * rng.standard_normal()
            n = np.hypot(s, abs(t))
            assert np.max(np.abs(s * fv + t * gv)) / n <= sup * (1 + 1e-12)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(3, 24),
       d=st.integers(1, 3), mix=st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
def test_scalar_check_is_the_level_one_certificate(seed, m, d, mix):
    # a random span of point values whose first element is unimodular, and
    # g that element plus mix times a random element of the span
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    values[0] = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    space = space_from_points(values)
    gc = np.eye(d)[0] + mix * (rng.standard_normal(d)
                               + 1j * rng.standard_normal(d))
    gn = space.norm(gc)
    scalar = scalar_unitary_check(space, g=gc)
    matrix = certify_unitary(space, gc / gn, max_level=1)
    assert scalar.verdict == matrix.verdict
    # the row and column blocks of a point-backed space are scalars at each
    # point, so one direction decides: the two defects agree at every level
    for n in (1, 2):
        x = rng.standard_normal(n * n * d) + 1j * rng.standard_normal(n * n * d)
        x = x / space.grid_norm(x.reshape(n, n, d))
        row, column = (_DefectProblem(space, gc / gn, n, direction)
                       .value_and_grad(x)[0] for direction in ("row", "column"))
        assert row == pytest.approx(column, abs=1e-12)


def test_catalog_build_rejects_non_positive_points():
    for points in (0, -3):
        with pytest.raises(InvalidInputError):
            catalog_space("circle-1z", points)
    assert catalog_space("circle-1z", 2).basis.shape[1] == 2


def test_scalar_unitary_rejects_zero_g():
    with pytest.raises(InvalidInputError):
        scalar_unitary_check(catalog_space("circle-1z"), g=[0, 0])


def dims(report):
    """(real, complex) dimension of the hermitians a report counted."""
    return report.diagnostics["real_dim"], report.diagnostics["complex_dim"]


def test_g_hermitian_dimensions_on_circle():
    for m in (360, 720):
        fspace = catalog_space("circle-1zzbar", m)
        one = g_hermitian_solve(fspace)
        assert dims(one) == (3, 3)
        assert one.passed

        z = g_hermitian_solve(fspace, g=[0, 1.0, 0])
        assert dims(z) == (1, 1)
        assert not z.passed


def test_g_hermitian_on_remaining_entries():
    two = g_hermitian_solve(catalog_space("two-circles"))
    assert two.diagnostics["real_dim"] == 4
    assert two.passed

    onez = g_hermitian_solve(catalog_space("circle-1z"))
    assert dims(onez) == (1, 1)
    assert not onez.passed


def test_g_hermitian_requires_unimodular():
    with pytest.raises(PreconditionError):
        g_hermitian_solve(catalog_space("two-circles"), g=[0, 0, 1.0, 0])


def test_hermitian_rows_solve_the_pointwise_condition():
    fspace = catalog_space("circle-1zzbar")
    # the rows g_hermitian_solve counts, from the ambient solve it shares
    # with delta_span
    rows = _ambient_hermitians(fspace, fspace.unit_coeffs())
    assert rows.shape[0] == 3
    for row in rows:
        vals = fspace.point_values(row)
        assert np.max(np.abs(np.imag(vals))) <= 1e-9


def test_selfadjoint_unit_on_two_circles():
    fspace = catalog_space("two-circles")
    rep = selfadjoint_unit_check(fspace)
    assert rep.passed
    assert rep.diagnostics["conjugation_residual"] <= 1e-10

    with_one = selfadjoint_unit_check(fspace, v=[1.0, 0, 0, 0])
    assert with_one.passed


def test_selfadjoint_unit_preconditions():
    with pytest.raises(PreconditionError):
        selfadjoint_unit_check(catalog_space("circle-1zzbar"), v=[0, 1.0, 0])
    with pytest.raises(PreconditionError):
        selfadjoint_unit_check(catalog_space("circle-1z"))
    ok = selfadjoint_unit_check(catalog_space("circle-1zzbar"), v=[1.0, 0, 0])
    assert ok.passed


def test_catalog_structure():
    names = catalog_names()
    assert names == ["circle-1zzbar", "circle-1z", "two-circles",
                     "m2-full", "m2-upper", "m2-sym3"]
    assert catalog_entry("circle-1zz̄").name == "circle-1zzbar"
    with pytest.raises(InvalidInputError):
        catalog_entry("no-such-space")
    # two copies of 360 points
    assert catalog_space("two-circles").basis.shape[1] == 720
    assert catalog_space("circle-1z", 240).basis.shape[1] == 240
    assert catalog_closure("m2-sym3").envelope_exact
    assert all(e.kind in ("function", "matrix") for e in CATALOG)


def test_scalar_check_agrees_with_matrix_certificate():
    for name in ("circle-1zzbar", "circle-1z", "two-circles"):
        fspace = catalog_space(name)
        scalar = scalar_unitary_check(fspace)
        matrix = certify_unitary(fspace, max_level=1)
        assert scalar.verdict == matrix.verdict == PASS
        assert scalar.diagnostics["row_defect_bound"] == \
            matrix.diagnostics["row_defect_bound"]
        assert scalar.margin == matrix.margin


def test_function_checks_need_a_point_backed_space():
    dense = catalog_space("m2-full")
    for check in (scalar_unitary_check, g_hermitian_solve,
                  selfadjoint_unit_check):
        with pytest.raises(InvalidInputError, match="point-backed"):
            check(dense)
    with pytest.raises(InvalidInputError, match="point-backed"):
        scalar_unitary_check(np.ones((2, 6)))


def test_catalog_spaces_serve_matrix_and_function_checks():
    # one space type: a sampled catalog space goes to the matrix-level
    # certificate, and a built catalog space goes to the scalar check
    verdicts = (PASS, FAIL, INCONCLUSIVE)
    assert certify_unitary(catalog_space("circle-1z", 12)).verdict in verdicts
    rep = scalar_unitary_check(catalog_entry("circle-1z").build(12))
    assert rep.verdict in verdicts
