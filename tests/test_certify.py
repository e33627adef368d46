from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert import certify
from opcert.blocks import column_with_unit, row_with_unit
from opcert.certify import (certify_coisometry, certify_isometry,
                            certify_unitary)
from opcert.errors import InvalidInputError, PreconditionError
from opcert.funcspace import (catalog_names, catalog_space,
                              scalar_unitary_check)
from opcert.opspace import ConcreteOpSpace, make_space, space_from_points
from opcert.solver import SolverConfig, maximize_over_sphere
from opcert.sysdetect import find_partner
from test_hermit import random_spans

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E22 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def m2_full():
    return make_space([np.eye(2), E12, E21, E22], unit=[1.0, 0, 0, 0])


def row_space_12():
    return make_space([np.array([[1.0, 0]]), np.array([[0, 1.0]])],
                      unit=[1.0, 0])


def test_identity_unit_passes_both_levels():
    # sigma_min(I) = 1: the concrete bound settles both directions
    rep = certify_unitary(m2_full(), max_level=2)
    assert rep.verdict == "pass"
    assert rep.diagnostics["upper_route"] == "concrete"
    for direction in ("row", "column"):
        assert rep.diagnostics[f"{direction}_defect_bound"] <= 1e-14


def test_shrunk_unit_fails_with_witnessed_defect():
    space = m2_full()
    u = [1.0, 0, 0, -0.5]   # diag(1, 1/2)
    rep = certify_unitary(space, u, max_level=1)
    assert rep.verdict == "fail"
    assert rep.margin < 0
    # defect value 1 - (1/2)^2 at the small singular direction
    worst = max(v for k, v in rep.diagnostics.items() if k.endswith("level_1"))
    assert worst >= 0.75 - 1e-4
    # the witness grid is on the unit sphere and reproduces the defect
    grid = rep.witness["coeff_grid"]
    assert space.grid_norm(grid) == pytest.approx(1.0, abs=1e-9)


def test_row_column_asymmetry_on_row_space():
    # u = [1, 0]: sigma_min(u) = 1 bounds the row defect, while u* u has a
    # zero eigenvalue and the column side searches
    space = row_space_12()
    co = certify_coisometry(space, max_level=2)
    assert co.verdict == "pass"
    assert co.diagnostics["upper_route"] == "concrete"
    iso = certify_isometry(space, max_level=1)
    assert iso.verdict == "fail"
    assert iso.diagnostics["upper_route"] == "search"
    uni = certify_unitary(space, max_level=1)
    assert uni.verdict == "fail"
    assert "row_defect_bound" in uni.diagnostics
    assert uni.witness["direction"] == "column"


def test_unit_norm_precondition():
    with pytest.raises(PreconditionError):
        certify_unitary(m2_full(), [2.0, 0, 0, 0])


def test_level_validation():
    with pytest.raises(InvalidInputError):
        certify_unitary(m2_full(), max_level=0)


def test_defect_value_unimodular_invariant():
    space = m2_full()
    u = np.array([1.0, 0, 0, 0], dtype=np.complex128)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal((1, 1, 4)) + 1j * rng.standard_normal((1, 1, 4))
        x = x / space.grid_norm(x)
        theta = rng.uniform(0, 2 * np.pi)

        def defect(grid):
            nx = space.grid_norm(grid)
            bn = space.grid_norm(row_with_unit(space, u, grid))
            return 1.0 + nx * nx - bn * bn

        assert defect(np.exp(1j * theta) * x) == pytest.approx(defect(x),
                                                               abs=1e-9)


def test_block_norm_bracket():
    # 1 <= |[u_n x]|^2 <= 1 + |x|^2 on unit-sphere grids
    space = m2_full()
    u = np.array([1.0, 0, 0, 0], dtype=np.complex128)
    rng = np.random.default_rng(8)
    for n in (1, 2):
        for _ in range(5):
            x = rng.standard_normal((n, n, 4)) + 1j * rng.standard_normal((n, n, 4))
            x = x / space.grid_norm(x)
            for build in (row_with_unit, column_with_unit):
                bn = space.grid_norm(build(space, u, x))
                assert 1.0 - 1e-9 <= bn * bn <= 2.0 + 1e-9


def test_diagonal_embedding_keeps_defect():
    # worst defect at level 2 dominates the level-1 witness embedded diagonally
    space = row_space_12()
    d = certify_isometry(space, max_level=2).diagnostics
    assert d["column_defect_level_2"] >= d["column_defect_level_1"] - 1e-8


@settings(max_examples=8, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=2, max_size=2))
def test_level_two_keeps_the_level_one_row_defect(coeffs):
    # fewer starts than the level-2 dimension 8: the level-1 witness passed
    # on as a warm start must still run, so the defect cannot drop; a draw
    # whose concrete bound settles the row direction searches nothing
    space = catalog_space("m2-upper")
    c = np.array(coeffs) + np.array([1.0, 0])
    u = c / space.norm(c)
    config = SolverConfig(starts=4, max_iters=60)
    rep = certify_coisometry(space, u, max_level=2, config=config)
    d = rep.diagnostics
    if d["upper_route"] == "concrete":
        assert set(d) == {"row_defect_bound", "upper_route"}
        assert rep.passed and d["row_defect_bound"] <= SolverConfig.cert_tol
    else:
        assert d["upper_route"] == "search"
        assert d["row_defect_level_2"] >= d["row_defect_level_1"] - 1e-9


def test_near_unit_lands_inconclusive():
    # defect 3e-4 sits between cert_tol 1e-4 and fail_tol 1e-3
    a = np.sqrt(1.0 - 3e-4)
    space = make_space([np.diag([1.0, 0]), np.diag([0, 1.0])],
                       unit=[1.0, a])
    rep = certify_unitary(space, max_level=1)
    assert rep.verdict == "inconclusive"


@pytest.mark.parametrize("name", catalog_names())
def test_a_catalog_unit_takes_one_stacked_call_per_sweep(name, monkeypatch):
    # the concrete bound settles every catalog unit: no search runs, and
    # each direction evaluates its level-1 witness u/|u| once, as a one-row
    # stack; a point-backed space has one direction to settle, the row
    rows = []
    inner = certify._DefectProblem.value_and_grad

    def counted(self, c):
        rows.append(len(c))
        return inner(self, c)

    def no_search(*args, **kwargs):
        raise AssertionError("a bound-settled unit ran a search")
    monkeypatch.setattr(certify._DefectProblem, "value_and_grad", counted)
    monkeypatch.setattr(certify, "maximize_over_sphere", no_search)
    space = catalog_space(name)
    rep = certify_unitary(space, max_level=2)
    assert rep.passed
    assert rows == ([1] if space.diagonal else [1, 1])
    assert rep.diagnostics["upper_route"] == "concrete"
    assert rep.witness["level"] == 1 and rep.witness["direction"] == "row"
    assert rep.margin == SolverConfig.cert_tol \
        - rep.diagnostics["row_defect_bound"]


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(3, 12),
       d=st.integers(1, 3))
def test_a_point_backed_space_certifies_in_one_search(seed, m, d):
    # a random span of point values and a random norm-one g, far from
    # unimodular, so that no concrete bound settles it
    rng = np.random.default_rng(seed)
    space = space_from_points(rng.standard_normal((d, m))
                              + 1j * rng.standard_normal((d, m)))
    gc = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    gc = gc / space.norm(gc)

    def row_defect(n, x):
        problem = certify._DefectProblem(space, gc, n, "row")
        return problem.value_and_grad(x.reshape(-1))[0]

    # f = xi* x eta, from the top pair of x where |x(w)| peaks, has a
    # level-1 defect at least the level-2 defect of x
    x = rng.standard_normal((2, 2, d)) + 1j * rng.standard_normal((2, 2, d))
    x = x / space.grid_norm(x)
    values = np.einsum("ijk,kw->wij", x, space.basis[:, :, 0, 0])
    u, _, vh = np.linalg.svd(values[np.argmax(np.linalg.norm(
        values, 2, axis=(1, 2)))])
    f = np.einsum("i,ijk,j->k", np.conj(u[:, 0]), x, np.conj(vh[0]))
    assert space.norm(f) == pytest.approx(1.0, abs=1e-12)
    assert row_defect(2, x) <= row_defect(1, f[None, None]) + 1e-12
    # so one level-1 search decides both directions at every level
    scalar = scalar_unitary_check(space, g=gc)
    with mock.patch.object(certify, "maximize_over_sphere",
                           wraps=maximize_over_sphere) as search:
        for check in (certify_unitary, certify_isometry):
            search.reset_mock()
            rep = check(space, gc, max_level=2)
            assert search.call_count == 1
            assert rep.verdict == scalar.verdict
            assert rep.margin == pytest.approx(scalar.margin, abs=1e-12)


def _random_unit_space(rng, w, p, q, smin):
    """A direct sum of w blocks of size p x q spanned by u and two random
    elements, with u's singular values drawn from [smin, 1] and its norm 1."""
    def unitary(n):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(z)[0]

    k = min(p, q)
    sv = rng.uniform(smin, 1.0, size=(w, k))
    sv[0, 0] = 1.0
    blocks = np.zeros((w, p, q), dtype=np.complex128)
    for i in range(w):
        blocks[i] = unitary(p)[:, :k] @ np.diag(sv[i]) @ unitary(q)[:k, :]
    others = rng.standard_normal((2, w, p, q)) \
        + 1j * rng.standard_normal((2, w, p, q))
    space = ConcreteOpSpace(basis=np.concatenate([blocks[None], others]),
                            unit=None)
    return space, np.array([1.0, 0, 0], dtype=np.complex128)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1, 1, 1), (4, 1, 1), (1, 2, 2), (2, 2, 2),
                              (1, 2, 3), (2, 3, 2), (1, 3, 3)]),
       level=st.integers(1, 3), smin=st.floats(0.0, 1.0))
def test_the_concrete_bound_caps_the_defect_at_every_level(seed, shape,
                                                           level, smin):
    rng = np.random.default_rng(seed)
    space, uc = _random_unit_space(rng, *shape, smin)
    bounds = certify._concrete_bounds(space, uc)
    for _ in range(3):
        x = rng.standard_normal((level, level, 3)) \
            + 1j * rng.standard_normal((level, level, 3))
        x = (x / space.grid_norm(x)).reshape(1, -1)
        for direction in ("row", "column"):
            problem = certify._DefectProblem(space, uc, level, direction)
            value = problem.value_and_grad(x)[0][0]
            # the defect is evaluated with rounding of order eps times
            # the size of its blocks
            assert value <= bounds[direction] + 1e-12


def test_an_envelope_unitary_off_the_bound_passes_through_the_search():
    # span{diag(1, 1/2)} is completely isometric to C, so its u is an
    # envelope unitary, yet sigma_min(u)^2 = 1/4 leaves the bound at 3/4
    space = make_space([np.diag([1.0, 0.5])], unit=[1.0])
    rep = certify_unitary(space, max_level=2)
    assert rep.passed
    assert rep.diagnostics["upper_route"] == "search"
    assert "row_defect_bound" not in rep.diagnostics
    assert rep.diagnostics["converged"]


@pytest.mark.parametrize("a", [0.5, 0.99])
def test_a_shrunk_diagonal_unit_fails_at_its_closed_form_defect(a):
    # u = diag(1, a) in M2: the defect 1 - a^2 is attained at E22
    rep = certify_unitary(m2_full(), [1.0, 0, 0, a - 1.0], max_level=2)
    assert rep.verdict == "fail"
    assert rep.diagnostics["upper_route"] == "search"
    assert rep.margin == pytest.approx(SolverConfig.cert_tol - (1 - a * a),
                                       abs=1e-9)


def test_the_search_never_fails_a_unit_the_bound_passes():
    # the two routes are compared, not merged: wherever the concrete bound
    # settles a direction, the search at levels 1 and 2 finds no defect of
    # fail_tol
    spaces = [catalog_space(name) for name in catalog_names()] + \
        [space for _, space in random_spans(np.random.default_rng(15))]
    settled = 0
    for space in spaces:
        uc = space.unit_coeffs()
        bounds = certify._concrete_bounds(space, uc)
        for direction in ("row", "column"):
            if bounds[direction] > SolverConfig.cert_tol:
                continue
            settled += 1
            for n in (1, 2):
                res = maximize_over_sphere(
                    certify._DefectProblem(space, uc, n, direction),
                    seed_salt=(certify.DEFECT_SALTS[direction], n))
                assert res.value < SolverConfig.fail_tol, (direction, n)
    assert settled == 2 * len(spaces)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["certify_unitary", "find_partner"])
def test_non_finite_coefficients_are_an_input_error(bad, call):
    space = catalog_space("m2-full")
    c = np.array([bad, 0, 0, 1.0])
    with pytest.raises(InvalidInputError, match="finite"):
        if call == "certify_unitary":
            certify_unitary(space, c, max_level=1)
        else:
            find_partner(space, x=c)
