import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls as scipy_nnls

from opcert.blocks import SIMPLEX_WEIGHT
from opcert.errors import InvalidInputError
from opcert.matcore import (RANK_TOL, SKETCH_WIDTH, adjoint, as_cmat,
                            batched_spectral_norm, block_diag, block_norms,
                            herm_eigen, nnls, psd_sqrt, real_kernel,
                            row_span, spectral_norm, top_singular_triple)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def cmat4():
    return st.tuples(arrays(np.float64, (4, 4), elements=finite),
                     arrays(np.float64, (4, 4), elements=finite)).map(
        lambda ab: ab[0] + 1j * ab[1])


def test_as_cmat_coerces_lists():
    m = as_cmat([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_cmat_rejects_wrong_ndim():
    with pytest.raises(InvalidInputError):
        as_cmat([1, 2, 3])
    with pytest.raises(InvalidInputError):
        as_cmat(np.zeros((2, 2, 2)))


def test_adjoint_is_conjugate_transpose():
    m = np.array([[1 + 2j, 3], [0, 4 - 1j]])
    npt.assert_array_equal(adjoint(m), np.conj(m).T)


def test_spectral_norm_hand_values():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0)
    # rank one: norm is the product of the factor lengths
    u = np.array([[1.0], [2.0]])
    v = np.array([[3.0, 4.0]])
    assert spectral_norm(u @ v) == pytest.approx(np.sqrt(5) * 5.0)


def test_spectral_norm_rejects_empty():
    with pytest.raises(InvalidInputError):
        spectral_norm(np.zeros((0, 3)))


@settings(max_examples=30, deadline=None)
@given(m=cmat4(), alpha=finite)
def test_spectral_norm_scalar_homogeneous(m, alpha):
    assert spectral_norm(alpha * m) == pytest.approx(
        abs(alpha) * spectral_norm(m), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(m=cmat4())
def test_spectral_norm_adjoint_invariant(m):
    assert spectral_norm(adjoint(m)) == pytest.approx(spectral_norm(m),
                                                      abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(m=cmat4())
def test_spectral_norm_cstar_identity(m):
    lhs = spectral_norm(m) ** 2
    rhs = spectral_norm(adjoint(m) @ m)
    assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)


def test_batched_matches_svd_on_all_shape_branches():
    rng = np.random.default_rng(7)
    for shape in [(5, 1, 4), (5, 4, 1), (5, 2, 6), (5, 6, 2), (5, 2, 2),
                  (5, 3, 3), (5, 4, 5)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.array([np.linalg.norm(m, ord=2) for m in a])
        npt.assert_allclose(batched_spectral_norm(a), want, atol=1e-10)


def test_batched_accepts_leading_batch_axes():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4, 2, 5)) + 1j * rng.standard_normal((3, 4, 2, 5))
    out = batched_spectral_norm(a)
    assert out.shape == (3, 4)
    want = np.linalg.norm(a[1, 2], ord=2)
    assert out[1, 2] == pytest.approx(want, abs=1e-10)


def test_two_sided_kernel_matches_lapack_to_full_precision():
    rng = np.random.default_rng(21)

    def cgauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, v = cgauss(6, 2), cgauss(6, 9)
    w1, w2 = np.linalg.qr(cgauss(2, 8, 2, 2))[0]
    cases = {
        "(..., 2, 2)": cgauss(3, 5, 2, 2),
        "(..., 2, N)": cgauss(7, 2, 9),
        "(..., N, 2)": cgauss(7, 9, 2),
        "rank one": np.einsum("bi,bj->bij", u, v),
        # the layout a point-backed grid is evaluated in: not contiguous
        "non-contiguous": np.moveaxis(cgauss(2, 2, 3) @ cgauss(3, 40), -1, 0),
        "strided": cgauss(4, 6, 2, 2)[::2, :, :, ::-1].swapaxes(-1, -2),
        # sigma_1 - sigma_2 = 1e-8, where tr^2 - 4 det cancels
        "near-degenerate": w1 @ np.diag([1.0, 1.0 - 1e-8]) @ w2,
    }
    for label, a in cases.items():
        want = np.linalg.svd(a, compute_uv=False)[..., 0]
        npt.assert_allclose(batched_spectral_norm(a), want, rtol=1e-12,
                            atol=0, err_msg=label)
    npt.assert_array_equal(batched_spectral_norm(np.zeros((3, 2, 5))), 0.0)


def test_top_singular_triple_reconstructs():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    sigma, w, v, gap = top_singular_triple(m)
    s = np.linalg.svd(m, compute_uv=False)
    assert sigma == pytest.approx(s[0])
    assert gap == pytest.approx(s[0] - s[1])
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    # m v = sigma w up to the SVD phase convention
    npt.assert_allclose(m @ v, sigma * w, atol=1e-10)


def test_top_singular_triple_rank_one_gap():
    m = np.array([[2.0]])
    sigma, _, _, gap = top_singular_triple(m)
    assert sigma == pytest.approx(2.0)
    assert gap == pytest.approx(2.0)


def test_herm_eigen_ascending_and_rejects():
    w = herm_eigen(np.diag([3.0, -1.0, 2.0]))
    npt.assert_allclose(w, [-1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        herm_eigen(np.zeros((2, 3)))


def test_psd_sqrt_hand_values():
    npt.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    npt.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                        atol=1e-12)
    v = np.array([1.0, 1j]) / np.sqrt(2)
    proj = np.outer(v, np.conj(v))
    npt.assert_allclose(psd_sqrt(proj), proj, atol=1e-10)


def test_psd_sqrt_square_reproduces():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a @ adjoint(a)
    r = psd_sqrt(m)
    npt.assert_allclose(r @ r, m, atol=1e-9)
    npt.assert_allclose(r, adjoint(r), atol=1e-10)


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(InvalidInputError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_row_span_cuts_at_relative_rank():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    rows = np.vstack([a, a[0] + 2j * a[1], 1e-12 * a[0] + a[1]])
    span, s = row_span(rows)
    assert span.shape == (2, 5)
    npt.assert_allclose(s, np.linalg.svd(rows, compute_uv=False)[:2])
    npt.assert_allclose(span @ adjoint(span), np.eye(2), atol=1e-12)
    # every input row lies in the span
    npt.assert_allclose(rows @ adjoint(span) @ span, rows, atol=1e-12)
    assert row_span(np.vstack([a, 1e-10 * a[:1]]))[0].shape == (2, 5)
    for zero in (np.zeros((3, 4)), np.zeros((0, 4)), np.zeros((70, 80))):
        span, s = row_span(zero)
        assert span.shape == (0, zero.shape[1]) and s.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(st.integers(SKETCH_WIDTH + 1, 200), st.integers(SKETCH_WIDTH + 1, 200),
       st.integers(1, 100), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_a_sketched_row_span_matches_the_plain_svd_cut(n, m, rank, complex_,
                                                        seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, n, m)

    def orthonormal(k):
        a = rng.standard_normal((k, rank))
        if complex_:
            a = a + 1j * rng.standard_normal((k, rank))
        return np.linalg.qr(a)[0]

    # singular values over 1 ... 1e-8, none within 10x of the RANK_TOL cut
    s = np.sort(10.0 ** rng.uniform(-8.0, 0.0, rank))[::-1]
    s[0] = 1.0
    rows = (orthonormal(n) * s) @ adjoint(orthonormal(m))
    span, values = row_span(rows)
    _, s_plain, vh = np.linalg.svd(rows, full_matrices=False)
    plain = vh[:int(np.sum(s_plain > RANK_TOL * s_plain[0]))]
    assert span.shape == plain.shape == (rank, m)
    assert np.isrealobj(span) == (not complex_)
    npt.assert_allclose(values, s_plain[:rank], rtol=0.0, atol=1e-12)
    npt.assert_allclose(span @ adjoint(span), np.eye(rank), atol=1e-12)
    # both spans are exact for the rows moved by rounding, so their
    # projectors may differ by rounding over the smallest kept singular
    # value (Wedin, BIT 12, 1972): 1e-10 at s_r = 1e-3, 1e-5 at 1e-8
    moved = np.linalg.norm(adjoint(span) @ span - adjoint(plain) @ plain, 2)
    assert moved <= 1e-13 * s_plain[0] / s_plain[rank - 1]


def test_block_norm_is_the_norm_of_the_block_diagonal_matrix():
    rng = np.random.default_rng(13)
    for w, r, c in ((1, 3, 2), (4, 2, 3), (5, 1, 1), (3, 3, 3)):
        stack = rng.standard_normal((2, w, r, c)) \
            + 1j * rng.standard_normal((2, w, r, c))
        want = [spectral_norm(block_diag(s)) for s in stack]
        npt.assert_allclose(block_norms(stack).max(axis=-1), want, rtol=1e-12)


def test_psd_sqrt_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    m = a @ adjoint(a)
    npt.assert_allclose(psd_sqrt(m), [psd_sqrt(x) for x in m], atol=1e-12)


def test_herm_eigen_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    m = a + adjoint(a)
    npt.assert_allclose(herm_eigen(m), [herm_eigen(x) for x in m], atol=1e-12)
    m[1, 0, 1] += 1e-3
    with pytest.raises(InvalidInputError):
        herm_eigen(m)


def test_real_kernel_known_kernel():
    # columns c0 = [1], c1 = [i]: r0*1 + r1*i = 0 over the reals only at 0
    cols = np.array([[1.0], [1j]])
    k = real_kernel(cols)
    assert k.shape == (0, 2)
    # c0 = [1], c1 = [2]: kernel spanned by (2, -1)/sqrt(5)
    cols = np.array([[1.0 + 0j], [2.0 + 0j]])
    k = real_kernel(cols)
    assert k.shape == (1, 2)
    npt.assert_allclose(np.abs(k[0]), np.array([2.0, 1.0]) / np.sqrt(5),
                        atol=1e-12)


def test_real_kernel_zero_map_is_full():
    k = real_kernel(np.zeros((3, 4)))
    npt.assert_allclose(k, np.eye(3), atol=1e-12)


def test_real_kernel_rows_annihilate():
    rng = np.random.default_rng(12)
    cols = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    k = real_kernel(cols)
    # 6 real parameters against 2 complex (4 real) constraints: rank-nullity
    assert k.shape[0] >= 2
    for row in k:
        npt.assert_allclose(row @ cols, 0.0, atol=1e-10)
    npt.assert_allclose(k @ k.T, np.eye(k.shape[0]), atol=1e-10)


def test_real_kernel_of_a_tall_input_matches_the_full_svd():
    # 40 complex constraints on 6 real parameters, two of them dependent:
    # the thin SVD already holds every right singular vector
    rng = np.random.default_rng(19)
    cols = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
    cols[4] = cols[0] - 2.0 * cols[1]
    cols[5] = 3.0 * cols[2]
    k = real_kernel(cols)
    stacked = np.vstack([np.real(cols.T), np.imag(cols.T)])
    _, s, vt = np.linalg.svd(stacked, full_matrices=True)
    want = vt[int(np.sum(s > 1e-9 * s[0])):]
    assert k.shape == want.shape == (2, 6)
    npt.assert_allclose(k.T @ k, want.T @ want, atol=1e-12)
    npt.assert_allclose(k @ stacked.T, 0.0, atol=1e-10)


# entries 0 or 1e-50 to 10 in size: below that the checks' own products
# (1e-9 |a_j| |b| and the like) underflow
normal = st.one_of(st.just(0.0), st.floats(1e-50, 10.0),
                   st.floats(-10.0, -1e-50))


@st.composite
def nnls_problems(draw):
    """(a, b) of 2-12 rows and 1-8 columns: plain, with the last column a
    copy of the first or the first tilted by 1e-3 to 1e-12, or with the
    heavily weighted sum-to-one row of `blocks._shortest`."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(1, 8))
    a = draw(arrays(np.float64, (m, n), elements=normal))
    b = draw(arrays(np.float64, m, elements=normal))
    kind = draw(st.sampled_from(["plain", "copy", "tilt", "simplex"]))
    if kind == "copy":
        a[:, -1] = a[:, 0]
    elif kind == "tilt":
        tilt = draw(arrays(np.float64, m, elements=normal))
        a[:, -1] = a[:, 0] + 10.0 ** -draw(st.integers(3, 12)) * tilt
    elif kind == "simplex":
        weight = SIMPLEX_WEIGHT * max(1.0, float(np.abs(a).max()))
        a = np.vstack([a, np.full(n, weight)])
        b = np.r_[np.zeros(m), weight]
    return a, b


def _assert_nnls_optimal(a, b, x, res):
    """x >= 0, res its residual, no larger than the residual of scipy's x
    beyond rounding, and the KKT signs: w = a^T (b - a x) is <= 0 off the
    support and 0 on it, up to rounding. Rounding is in units of the size
    of the terms of a x - b, and of |a_j|_1 times that for w_j; 1-norms,
    since squares of tiny entries underflow. (scipy's own residual is
    not read: beside columns of entries near 1e-274 it can be off.)"""
    want_x, _ = scipy_nnls(a, b)
    want = np.linalg.norm(a @ want_x - b)
    scale = np.abs(a) @ np.maximum(x, want_x) + np.abs(b)
    scale = float(scale.sum())
    assert (x >= 0.0).all()
    assert res == pytest.approx(np.linalg.norm(a @ x - b), abs=1e-12 * scale)
    assert res <= want + 1e-12 * scale
    w = a.T @ (b - a @ x)
    kkt = 1e-9 * np.abs(a).sum(axis=0) * scale
    assert (w <= kkt).all()
    assert (np.abs(w) <= kkt)[x > 0.0].all()


@settings(max_examples=300, deadline=None)
@given(nnls_problems())
def test_nnls_matches_scipy(problem):
    a, b = problem
    _assert_nnls_optimal(a, b, *nnls(a, b))


def test_nnls_keeps_out_a_column_that_enters_on_rounding():
    # the columns differ by 4e-18 and 6e-17: after one enters, the other's
    # w_j is above rounding but its part outside the passive span is not.
    # It sits out until the next exchange (LH's w_j = 0); without that it
    # would enter again at every step until the iteration limit
    a = np.array([[-0.004, -0.004000000000000004],
                  [0.004, 0.0040000000000000565]])
    b = np.array([-0.2, 1.8])
    x, res = nnls(a, b)
    assert np.count_nonzero(x) == 1
    _assert_nnls_optimal(a, b, x, res)


def test_nnls_hand_values():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x, res = nnls(a, np.array([2.0, 1.0, 1.0]))
    npt.assert_allclose(x, [1.5, 1.0])
    assert res == pytest.approx(np.sqrt(0.5))
    x, res = nnls(a, -np.ones(3))
    npt.assert_array_equal(x, [0.0, 0.0])
    assert res == pytest.approx(np.sqrt(3.0))


def test_nnls_rejects_non_finite_input():
    a = np.eye(2)
    with pytest.raises(InvalidInputError):
        nnls(a, np.array([1.0, np.nan]))
    a[0, 1] = np.inf
    with pytest.raises(InvalidInputError):
        nnls(a, np.ones(2))
