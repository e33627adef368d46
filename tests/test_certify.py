import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcert import certify
from opcert.blocks import column_with_unit, row_with_unit
from opcert.certify import (certify_coisometry, certify_isometry,
                            certify_unitary)
from opcert.errors import InvalidInputError, PreconditionError
from opcert.funcspace import catalog_names, catalog_space
from opcert.opspace import make_space
from opcert.solver import SolverConfig

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E22 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def m2_full():
    return make_space([np.eye(2), E12, E21, E22], unit=[1.0, 0, 0, 0])


def row_space_12():
    return make_space([np.array([[1.0, 0]]), np.array([[0, 1.0]])],
                      unit=[1.0, 0])


def test_identity_unit_passes_both_levels():
    rep = certify_unitary(m2_full(), max_level=2)
    assert rep.verdict == "pass"
    for key, val in rep.diagnostics.items():
        if key.endswith(("level_1", "level_2")):
            assert val <= 1e-6


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
    space = row_space_12()
    co = certify_coisometry(space, max_level=2)
    assert co.verdict == "pass"
    iso = certify_isometry(space, max_level=1)
    assert iso.verdict == "fail"
    uni = certify_unitary(space, max_level=1)
    assert uni.verdict == "fail"


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
    # on as a warm start must still run, so the defect cannot drop
    space = catalog_space("m2-upper")
    c = np.array(coeffs) + np.array([1.0, 0])
    u = c / space.norm(c)
    config = SolverConfig(starts=4, max_iters=60)
    rep = certify_coisometry(space, u, max_level=2, config=config)
    d = rep.diagnostics
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
    # every start of a unitary's defect stops at its first evaluation on a
    # zero subgradient, rounding-level gradients included: each (direction,
    # level) sweep is one value_and_grad call over all of its starts
    rows = []
    inner = certify._DefectProblem.value_and_grad

    def counted(self, c):
        rows.append(len(c))
        return inner(self, c)
    monkeypatch.setattr(certify._DefectProblem, "value_and_grad", counted)
    rep = certify_unitary(catalog_space(name), max_level=2)
    assert rep.passed
    assert len(rows) == 4
