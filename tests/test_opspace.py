import numpy as np
import numpy.testing as npt
import pytest

from opcert.certify import certify_unitary
from opcert.errors import InvalidInputError
from opcert.hermit import delta_span
from opcert.matcore import adjoint
from opcert.opspace import make_space, space_from_points
from opcert.serialize import SpaceFile
from opcert.solver import SolverConfig
from opcert.tro import generate_tro

E11 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E22 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def m2_full():
    return make_space([np.eye(2), E12, E21, E22],
                      unit=np.array([1.0, 0, 0, 0]))


def test_make_space_rejects_empty_and_dependent():
    with pytest.raises(InvalidInputError):
        make_space([])
    with pytest.raises(InvalidInputError):
        make_space([np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(InvalidInputError):
        make_space([np.eye(2), np.eye(3)])


def test_gram_rule_is_relative_for_every_constructor():
    # Gram eigenvalues about 6.0e-4 and 2.4e9: above 1e-10 in absolute
    # terms, but dependent relative to the largest
    z = np.exp(2j * np.pi * np.arange(12) / 12)
    rows = 1e4 * np.stack([np.ones(12), 1 + 1e-6 * z])
    eigs = np.linalg.eigvalsh(rows.conj() @ rows.T)
    assert 1e-10 < eigs[0] <= 1e-10 * eigs[-1]
    with pytest.raises(InvalidInputError):
        space_from_points(rows)
    with pytest.raises(InvalidInputError):
        make_space([np.diag(r) for r in rows])
    with pytest.raises(InvalidInputError):
        SpaceFile(kind="function", basis=rows).build_space()


def test_gram_rule_accepts_a_small_well_conditioned_basis():
    # Gram matrix 1e-12 diag(2, 1): small, but a condition number of 2
    space = make_space([1e-6 * np.eye(2), 1e-6 * E12])
    assert space.dim == 2
    assert space_from_points(1e-6 * np.eye(3)).dim == 3


def test_make_space_rejects_non_matrix_entries():
    with pytest.raises(InvalidInputError):
        make_space([np.ones(3)])


def test_dense_space_basics():
    space = m2_full()
    assert space.dim == 4
    assert space.ambient_shape == (2, 2)
    assert not space.diagonal
    npt.assert_array_equal(space.embed([0, 1, 0, 0]), E12)
    assert space.norm([1.0, 0, 0, 0]) == pytest.approx(1.0)
    assert space.norm(np.zeros(4)) == pytest.approx(0.0)


def test_unit_coeffs_requires_unit():
    space = make_space([np.eye(2), E12])
    with pytest.raises(InvalidInputError):
        space.unit_coeffs()


def test_as_coeffs_validates():
    space = m2_full()
    with pytest.raises(InvalidInputError):
        space.as_coeffs([1.0, 0.0])
    other = m2_full()
    elem = other.element([1, 0, 0, 0])
    with pytest.raises(InvalidInputError):
        space.as_coeffs(elem)


def test_membership_round_trip():
    space = m2_full()
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got, res = space.membership(space.embed(c))
        assert res <= 1e-10
        npt.assert_allclose(got, c, atol=1e-8)


def test_membership_detects_outside_component():
    space = make_space([np.eye(2), E12], unit=[1.0, 0])
    _, res = space.membership(E21)
    assert res == pytest.approx(1.0)
    assert not space.relative_membership(E21[None])[2]
    assert space.relative_membership((np.eye(2) + 3j * E12)[None])[2]


def test_membership_rejects_wrong_shape():
    space = m2_full()
    with pytest.raises(InvalidInputError):
        space.membership(np.eye(3))


def test_direct_sum_norm_is_max():
    space = m2_full()
    rng = np.random.default_rng(8)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    grid = np.zeros((2, 2, 4), dtype=np.complex128)
    grid[0, 0] = x
    grid[1, 1] = y
    got = space.grid_norm(grid)
    assert got == pytest.approx(max(space.norm(x), space.norm(y)), abs=1e-9)


def test_scalar_row_column_contraction():
    # |alpha . x . beta| <= |alpha| |x| |beta| for scalar matrices acting on
    # the grid: scaling grid rows by a and columns by b realizes diag(a) X diag(b)
    space = m2_full()
    rng = np.random.default_rng(9)
    for _ in range(5):
        grid = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        scaled = a[:, None, None] * grid * b[None, :, None]
        lhs = space.grid_norm(scaled)
        bound = np.max(np.abs(a)) * space.grid_norm(grid) * np.max(np.abs(b))
        assert lhs <= bound + 1e-9


def test_amplify_unit_norm():
    # the unit repeated down the diagonal of a level-n grid has norm one
    space = m2_full()
    for n in (1, 2, 3):
        grid = np.zeros((n, n, space.dim), dtype=np.complex128)
        grid[np.arange(n), np.arange(n)] = space.unit_coeffs()
        assert space.grid_norm(grid) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_layout_detected():
    space = make_space([np.diag([1.0, 0]), np.diag([0, 1.0])],
                       unit=[1.0, 1.0])
    assert space.diagonal
    npt.assert_allclose(space.point_values([2.0, 3.0]), [2.0, 3.0])
    assert space.norm([2.0, -3.0]) == pytest.approx(3.0)


def test_diagonal_membership_counts_offdiagonal_part():
    space = make_space([np.diag([1.0, 0]), np.diag([0, 1.0])])
    m = np.diag([1.0, 2.0]).astype(np.complex128)
    m[0, 1] = 0.5
    coeffs, res = space.membership(m)
    npt.assert_allclose(coeffs, [1.0, 2.0], atol=1e-12)
    assert res == pytest.approx(0.5)


def test_space_from_points():
    pb = np.stack([np.ones(5), np.linspace(-1, 1, 5)])
    space = space_from_points(pb, unit=[1.0, 0])
    assert space.diagonal
    assert space.dim == 2
    assert space.ambient_shape == (5, 5)
    assert space.norm([0, 1.0]) == pytest.approx(1.0)
    coeffs, res = space.membership_blocks((pb[0] + 2 * pb[1])[:, None, None])
    npt.assert_allclose(coeffs, [1.0, 2.0], atol=1e-10)
    assert res <= 1e-10
    with pytest.raises(InvalidInputError):
        space_from_points(np.ones(5))


def _rotated_pair(pb, unit=None, seed=0):
    """The point-backed space of a (d, m) point basis, and the same space
    conjugated by a random unitary Q, which make_space stores as one dense
    m x m block."""
    rng = np.random.default_rng(seed)
    m = pb.shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((m, m))
                        + 1j * rng.standard_normal((m, m)))
    points = space_from_points(pb, unit=unit)
    dense = make_space([q @ np.diag(row) @ adjoint(q) for row in pb], unit=unit)
    assert points.basis.shape == (pb.shape[0], m, 1, 1)
    assert dense.basis.shape == (pb.shape[0], 1, m, m)
    return points, dense, q


def test_diagonal_grid_norm_matches_dense_route():
    pb = np.stack([np.ones(4), np.exp(2j * np.pi * np.arange(4) / 4)])
    diag_space, dense_space, _ = _rotated_pair(pb, seed=10)
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        grid = rng.standard_normal((n, n, 2)) + 1j * rng.standard_normal((n, n, 2))
        assert diag_space.grid_norm(grid) == pytest.approx(
            dense_space.grid_norm(grid), abs=1e-10)


def test_grid_norm_of_a_stack_matches_the_loop():
    rng = np.random.default_rng(22)
    pb = np.stack([np.ones(7), np.exp(2j * np.pi * np.arange(7) / 7),
                   np.linspace(-1.0, 1.0, 7)])
    for space in (m2_full(), space_from_points(pb)):
        grids = rng.standard_normal((3, 2, 2, 3, space.dim)) \
            + 1j * rng.standard_normal((3, 2, 2, 3, space.dim))
        got = space.grid_norm(grids)
        assert got.shape == (3, 2)
        want = [[space.grid_norm(g) for g in row] for row in grids]
        npt.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert isinstance(space.grid_norm(grids[0, 0]), float)


def test_amplified_matrix_agrees_between_layouts():
    pb = np.stack([np.ones(3), np.array([1.0, 2.0, 3.0])])
    diag_space, dense_space, _ = _rotated_pair(pb, unit=[1.0, 0], seed=11)
    grid = np.array([[[1.0, 2.0], [0, 1j]], [[0.5, 0], [1.0, -1.0]]],
                    dtype=np.complex128)
    # the level-2 matrix [[x_ij]] of the grid, from each element's
    # ambient matrix
    a, b = (np.block([[space.embed(c) for c in row] for row in grid])
            for space in (diag_space, dense_space))
    # the same operator up to a unitary change of basis: compare singular
    # values instead of entries
    npt.assert_allclose(np.linalg.svd(a, compute_uv=False),
                        np.linalg.svd(b, compute_uv=False), atol=1e-10)
    assert np.linalg.norm(a, 2) == pytest.approx(diag_space.grid_norm(grid),
                                                 abs=1e-10)


@pytest.mark.parametrize("m", [4, 7])
def test_rotated_pair_agrees_on_every_check(m):
    z = np.exp(2j * np.pi * np.arange(m) / m)
    pb = np.stack([np.ones(m), z, np.conj(z)])
    points, dense, q = _rotated_pair(pb, unit=[1.0, 0, 0], seed=m)
    rng = np.random.default_rng(m)
    for n in (1, 2, 3):
        grids = rng.standard_normal((4, n, n, 3)) \
            + 1j * rng.standard_normal((4, n, n, 3))
        npt.assert_allclose(points.grid_norm(grids), dense.grid_norm(grids),
                            rtol=1e-10)
    # the unit 1 is unitary, 0.8 times it is not
    for u, verdict in (([1.0, 0, 0], "pass"), ([0.8, 0, 0], "fail")):
        reps = [certify_unitary(s, u) for s in (points, dense)]
        assert [r.verdict for r in reps] == [verdict, verdict]
        assert reps[0].margin == pytest.approx(reps[1].margin, abs=1e-9)
    closures = [generate_tro(s, envelope_exact=True) for s in (points, dense)]
    assert [c.rank for c in closures] == [m, m]
    assert [c.stable for c in closures] == [True, True]
    spans = [delta_span(s, closure=c) for s, c in zip((points, dense), closures)]
    assert [(ds.route, ds.real_dim, ds.complex_dim) for ds in spans] == \
        [("ambient", 3, 3)] * 2
    r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    for mat in (r, points.embed([0.3, 1j, 0.2]) + np.triu(r, 1)):
        c1, res1 = points.membership(mat)
        c2, res2 = dense.membership(q @ mat @ adjoint(q))
        npt.assert_allclose(c1, c2, atol=1e-10)
        assert res1 == pytest.approx(res2, abs=1e-10)


def test_rotated_pair_fails_a_shrunk_unit_on_both_layouts():
    # u = (1 + z)/2 is not unitary; its worst defect is attained by a
    # witness, so it is a certified lower bound and FAIL does not wait for
    # the search to converge, whatever the layout
    z = np.exp(2j * np.pi * np.arange(4) / 4)
    pb = np.stack([np.ones(4), z, np.conj(z)])
    points, dense, _ = _rotated_pair(pb, seed=4)
    config = SolverConfig(starts=8)
    reps = [certify_unitary(s, [0.5, 0.5, 0], config=config)
            for s in (points, dense)]
    assert [r.verdict for r in reps] == ["fail", "fail"]
    assert reps[0].margin == pytest.approx(reps[1].margin, abs=1e-9)
