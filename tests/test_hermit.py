import numpy as np
import pytest

from opcert.blocks import two_by_two
from opcert.errors import InvalidInputError
from opcert.funcspace import (catalog_closure, catalog_entry, catalog_space,
                              g_hermitian_solve)
from opcert.hermit import delta_span, is_u_hermitian, is_u_positive, operator_system_check
from opcert.matcore import herm_eigen
from opcert.opspace import make_space
from opcert.report import FAIL, PASS
from opcert.solver import DEFAULT_T_GRID, SolverConfig
from opcert.sysdetect import find_partner
from opcert.tro import ambient_system_check, generate_tro

E11 = np.array([[1, 0], [0, 0]], dtype=np.complex128)


def random_hermitian_coeffs(rng, scale=1.0):
    """Coefficients of a random hermitian in the {I, E12, E21, E22} basis."""
    a, d = rng.standard_normal(2)
    b = complex(rng.standard_normal(), rng.standard_normal())
    mat = np.array([[a, b], [np.conj(b), a + d]])
    space = catalog_space("m2-full")
    coeffs, res = space.membership(mat)
    assert res <= 1e-10
    norm = space.norm(coeffs)
    return coeffs * (scale / norm), mat * (scale / norm)


def test_hermitian_contractions_pass():
    space = catalog_space("m2-full")
    rng = np.random.default_rng(11)
    for _ in range(8):
        coeffs, _ = random_hermitian_coeffs(rng, scale=rng.uniform(0.1, 1.0))
        rep = is_u_hermitian(space, None, coeffs)
        assert rep.passed
        assert np.max(np.abs(rep.diagnostics["scalar_slack"])) <= 1e-8
        assert rep.diagnostics["matricial_slack"].min() >= -1e-8
        assert not rep.diagnostics["scaled"]


def test_skew_element_fails():
    space = catalog_space("m2-full")
    rep = is_u_hermitian(space, None, [1j, 0, 0, -1j])   # i E11
    assert not rep.passed
    diag = rep.diagnostics
    assert min(diag["scalar_slack"].min(),
               diag["matricial_slack"].min()) < -1e-3


def test_large_element_scaled_for_matricial_branch():
    space = catalog_space("m2-full")
    rep = is_u_hermitian(space, None, [0, 2.0, 2.0, 0])
    assert rep.diagnostics["scaled"]
    assert rep.diagnostics["element_norm"] == pytest.approx(2.0, abs=1e-9)
    assert rep.passed


def test_positive_matches_eigenvalue_oracle():
    space = catalog_space("m2-full")
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 10:
        coeffs, mat = random_hermitian_coeffs(rng, scale=rng.uniform(0.3, 1.0))
        eigs = herm_eigen(mat)[0]
        if abs(eigs.min()) < 1e-3:
            continue   # too close to the verdict fence
        rep = is_u_positive(space, None, coeffs)
        assert rep.passed == (eigs.min() > 0)
        assert rep.diagnostics["ball_criterion_pass"] == (eigs.min() > 0)
        checked += 1


def test_negative_element_rejected():
    space = catalog_space("m2-full")
    rep = is_u_positive(space, None, [-1.0, 0, 0, 1.0])   # -E11
    assert rep.verdict == "fail"


@pytest.mark.parametrize("check", [is_u_hermitian, is_u_positive])
def test_an_empty_t_grid_is_an_input_error(check):
    with pytest.raises(InvalidInputError, match="t_grid"):
        check(catalog_space("m2-full"), None, [0, 0.5, 0.5, 0], t_grid=())


def test_delta_span_routes_differ_in_caution():
    space = catalog_space("m2-full")
    closure = catalog_closure("m2-full")

    certified = delta_span(space, None, closure=closure)
    assert certified.route == "ambient"
    assert certified.real_dim == 4
    assert certified.complex_dim == 4
    with_closure = operator_system_check(space, None, closure=closure)
    assert with_closure.passed

    screened = delta_span(space, None)
    assert screened.route == "numerical"
    assert screened.complex_dim <= 4
    bare = operator_system_check(space, None)
    # candidate screening may under-count, so it must never claim failure
    assert bare.verdict in ("pass", "inconclusive")
    if screened.complex_dim < 4:
        assert bare.verdict == "inconclusive"


def test_upper_triangular_fails_with_certificate():
    space = catalog_space("m2-upper")
    closure = catalog_closure("m2-upper")
    rep = operator_system_check(space, None, closure=closure)
    assert rep.verdict == "fail"
    assert rep.diagnostics["route"] == "ambient"
    assert rep.diagnostics["complex_dim"] == 1
    assert rep.margin == -1.0


def test_real_combinations_stay_hermitian():
    space = catalog_space("m2-full")
    closure = catalog_closure("m2-full")
    ds = delta_span(space, None, closure=closure)
    rng = np.random.default_rng(13)
    for _ in range(5):
        w = rng.standard_normal(ds.real_dim)
        combo = w @ ds.real_basis
        combo = combo / max(space.norm(combo), 1e-12)
        assert is_u_hermitian(space, None, combo).passed


def test_corner_compression_preserves_hermiticity():
    # x -> x_11 E11 is unital and contractive onto the corner span
    corner = make_space([E11], unit=[1.0])
    rng = np.random.default_rng(14)
    for _ in range(5):
        _, mat = random_hermitian_coeffs(rng, scale=rng.uniform(0.2, 1.0))
        prof = is_u_hermitian(corner, None, [mat[0, 0]])
        assert prof.passed


def test_stacked_profiles_match_the_per_t_loop():
    rng = np.random.default_rng(41)
    # the signed grid of the scalar criterion, the positive one of the
    # matricial criterion
    signed = sorted({s * t for t in DEFAULT_T_GRID for s in (1.0, -1.0)})
    positive = sorted(DEFAULT_T_GRID)
    for name in ("m2-full", "circle-1zzbar"):
        space = catalog_entry(name).build(24)
        uc = space.unit_coeffs()
        xc = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        xc = 0.8 * xc / space.norm(xc)
        diag = is_u_hermitian(space, uc, xc).diagnostics
        nx = space.norm(xc)
        want = [(1.0 + nx * nx * t * t) - space.norm(uc + 1j * t * xc) ** 2
                for t in signed]
        np.testing.assert_allclose(diag["scalar_slack"], want, rtol=0,
                                   atol=1e-12)
        want = [np.sqrt(t * t + 1.0)
                - space.grid_norm(two_by_two(space, t * uc, xc, -xc, t * uc))
                for t in positive]
        np.testing.assert_allclose(diag["matricial_slack"], want, rtol=0,
                                   atol=1e-12)
        slack = is_u_positive(space, uc, xc).diagnostics["ball_criterion_slack"]
        want = [np.sqrt(t * t + 1.0)
                - space.grid_norm(two_by_two(space, t * uc, uc - xc, xc - uc, t * uc))
                for t in positive]
        np.testing.assert_allclose(slack, want, rtol=0, atol=1e-12)


def test_screening_finds_a_non_real_unit():
    # span{I} with u = e^{i pi/4} I: the hermitians are the real multiples
    # of u, which neither candidate I nor iI is; u itself is screened first
    space = make_space([np.eye(2)], unit=[np.exp(0.25j * np.pi)])
    ds = delta_span(space)
    assert ds.route == "numerical" and ds.complex_dim == 1
    assert operator_system_check(space).passed


def random_spans(rng):
    """span{I, A, A*} (an operator system) and span{I, N} with N strictly
    upper triangular (not one), for random A and N in M2 and M3."""
    for n in (2, 3) * 6:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield True, make_space([np.eye(n), a, a.conj().T], unit=[1.0, 0, 0])
        yield False, make_space([np.eye(n), np.triu(a, 1)], unit=[1.0, 0])


def test_ambient_and_numerical_hermitian_spans_agree():
    def real(rows):
        return np.hstack([rows.real, rows.imag])

    for system, space in random_spans(np.random.default_rng(15)):
        closure = generate_tro(space, envelope_exact=True)
        exact = operator_system_check(space, closure=closure)
        screened = operator_system_check(space)
        assert exact.diagnostics["route"] == "ambient"
        assert exact.verdict == (PASS if system else FAIL)
        # screening can miss hermitians but never finds one that is not
        assert not (screened.verdict == PASS and exact.verdict == FAIL)
        ambient = real(delta_span(space, closure=closure).real_basis)
        numerical = real(delta_span(space).real_basis)
        # the ambient rows are orthonormal in real coordinates
        residual = numerical - numerical @ ambient.T @ ambient
        assert np.max(np.linalg.norm(residual, axis=1), initial=0.0) <= 1e-10


def test_certified_partner_fails_never_meet_an_ambient_pass():
    # span{I, A, A*} is an operator system and span{I, N} is not: N has no
    # partner. Warm and cold (warm_start=False) searches for A or N bracket
    # the best residual, a certified FAIL never meets an ambient PASS, and
    # every N is certified. At the default budget the cold searches take
    # eps-descent steps, and every one for A ends within cert_tol.
    short = SolverConfig(max_iters=100)
    for system, space in random_spans(np.random.default_rng(15)):
        ambient = ambient_system_check(generate_tro(space, envelope_exact=True))
        assert ambient.verdict == (PASS if system else FAIL)
        x = np.eye(space.dim)[1] / space.norm(np.eye(space.dim)[1])
        for warm, config in ((True, short), (False, short),
                             (False, SolverConfig())):
            r = find_partner(space, x=x, config=config, warm_start=warm)
            assert r.lower <= r.residual
            assert system == (r.lower < SolverConfig.fail_tol)
            if system and (warm or config.max_iters > short.max_iters):
                assert r.residual <= SolverConfig.cert_tol


def test_a_partner_search_ends_at_its_first_certified_fail():
    # N has no partner in span{I, N}: warm or cold, the one run certifies
    # that at its first checkpoint and stops there
    for system, space in random_spans(np.random.default_rng(15)):
        if system:
            continue
        x = np.eye(space.dim)[1] / space.norm(np.eye(space.dim)[1])
        for warm in (True, False):
            r = find_partner(space, x=x, warm_start=warm)
            assert r.lower >= SolverConfig.fail_tol
            assert r.diagnostics["iterations"] <= SolverConfig.stall_window


def test_function_system_dims_match_the_ambient_span():
    for name in ("circle-1zzbar", "circle-1z", "two-circles"):
        space = catalog_space(name)
        ds = delta_span(space, closure=catalog_closure(name))
        assert ds.route == "ambient"
        assert g_hermitian_solve(space).diagnostics["complex_dim"] == \
            ds.complex_dim
