import numpy as np
import pytest

from opcert.certify import certify_unitary
from opcert.errors import InvalidInputError, PreconditionError
from opcert.funcspace import (CATALOG, _sphere_sup, catalog_closure,
                              catalog_entry, catalog_names, catalog_space,
                              default_tol, g_hermitian_solve,
                              scalar_unitary_check, selfadjoint_unit_check)
from opcert.hermit import _ambient_hermitians
from opcert.opspace import space_from_points
from opcert.report import FAIL, INCONCLUSIVE, PASS


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


def test_default_tolerance_scales_with_points():
    assert default_tol(catalog_space("circle-1z")) == pytest.approx(10 / 360)
    assert default_tol(catalog_space("circle-1z", 720)) == pytest.approx(10 / 720)


def test_scalar_unitary_passes_on_catalog_units():
    for name in ("circle-1zzbar", "circle-1z", "two-circles"):
        fspace = catalog_space(name)
        rep = scalar_unitary_check(fspace)
        assert rep.passed, name
        assert rep.diagnostics["worst_deficit"] <= rep.diagnostics["tol"]

    zcheck = scalar_unitary_check(catalog_space("circle-1zzbar"), g=[0, 1.0, 0])
    assert zcheck.passed


def test_two_term_sup_matches_closed_form():
    # phase alignment gives sup = max_w sqrt(|f|^2 + |g|^2) exactly
    fspace = catalog_space("circle-1zzbar")
    gc = np.array([0, 1.0, 0])
    rep = scalar_unitary_check(fspace, g=gc, samples=0)
    gv = fspace.point_values(gc)
    for j, sup in enumerate(rep.diagnostics["sups"]):
        e = np.zeros(3)
        e[j] = 1.0
        fv = fspace.point_values(e) / fspace.norm(e)
        closed = float(np.max(np.sqrt(np.abs(fv) ** 2 + np.abs(gv) ** 2)))
        assert sup == pytest.approx(closed, abs=2e-3)


def test_sphere_sup_is_attained_and_never_exceeded():
    # Cauchy-Schwarz at each point: the sup is max_w sqrt(|f|^2 + |g|^2),
    # attained at (s, t) proportional to (|f|, conj(g) f / |f|)
    rng = np.random.default_rng(53)
    for _ in range(20):
        fv = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        gv = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        sup = _sphere_sup(fv, gv)
        k = int(np.argmax(np.abs(fv) ** 2 + np.abs(gv) ** 2))
        s, t = abs(fv[k]), np.conj(gv[k]) * fv[k] / abs(fv[k])
        n = np.hypot(s, abs(t))
        assert np.max(np.abs(s * fv + t * gv)) / n == pytest.approx(sup, rel=1e-12)
        for _ in range(50):
            s = rng.standard_normal()
            t = rng.standard_normal() + 1j * rng.standard_normal()
            n = np.hypot(s, abs(t))
            assert np.max(np.abs(s * fv + t * gv)) / n <= sup * (1 + 1e-12)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -0.1, float("inf")])
def test_scalar_unitary_rejects_bad_tolerance(tol):
    with pytest.raises(InvalidInputError):
        scalar_unitary_check(catalog_space("circle-1z", 12), tol=tol)


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
        assert scalar.passed == matrix.passed
        assert matrix.passed


def test_function_checks_need_a_point_backed_space():
    dense = catalog_space("m2-full")
    for check in (scalar_unitary_check, g_hermitian_solve,
                  selfadjoint_unit_check, default_tol):
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
