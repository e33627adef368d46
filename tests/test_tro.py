import numpy as np
import pytest

from opcert import matcore
from opcert.errors import PreconditionError
from opcert.funcspace import catalog_closure, catalog_names, catalog_space
from opcert.matcore import SKETCH_WIDTH, adjoint
from opcert.opspace import make_space, space_from_points
from opcert.tro import (ambient_system_check, ambient_unitary_check,
                        generate_tro, involution, same_involution_check,
                        transfer_check)

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E22 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
POINT_BACKED = ("circle-1zzbar", "circle-1z", "two-circles")


def _projector(z_basis: np.ndarray) -> np.ndarray:
    flat = z_basis.reshape(z_basis.shape[0], -1)
    return flat.T @ np.conj(flat)


def test_sym3_closure_rank_and_stability():
    closure = catalog_closure("m2-sym3")
    assert closure.rank == 4
    assert closure.stable
    assert closure.generations >= 1


def test_closure_idempotent():
    closure = catalog_closure("m2-sym3")
    regrown = generate_tro(make_space(list(closure.z_basis[:, 0]),
                                      unit=None))
    assert regrown.rank == closure.rank
    assert regrown.generations == 1


def test_closure_holds_ternary_products():
    closure = catalog_closure("m2-sym3")
    flat = closure.z_basis.reshape(closure.rank, -1).T
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = closure.z_basis[rng.integers(0, closure.rank, size=3), 0]
        prod = (a @ adjoint(b) @ c).reshape(-1)
        _, res, *_ = np.linalg.lstsq(flat, prod, rcond=None)
        gap = np.linalg.norm(flat @ np.linalg.lstsq(flat, prod, rcond=None)[0]
                             - prod)
        assert gap <= 1e-8
        del res


def test_ambient_unitary_verdicts():
    closure = catalog_closure("m2-full")
    ok = ambient_unitary_check(closure, [1.0, 0, 0, 0])
    assert ok.passed
    assert ok.diagnostics["coisometry"] and ok.diagnostics["isometry"]
    bad = ambient_unitary_check(closure, [0, 1.0, 0, 0])   # E12
    assert bad.verdict == "fail"

    circle = catalog_closure("circle-1z")
    z = ambient_unitary_check(circle, [0, 1.0])
    assert z.passed


def test_involution_properties():
    closure = catalog_closure("m2-full")
    space = closure.space
    u = [1.0, 0, 0, 0]
    rng = np.random.default_rng(5)
    for _ in range(5):
        xc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        ix = involution(closure, u, xc)
        # period two
        twice = involution(closure, u, space.membership(ix)[0])
        assert np.allclose(twice, space.embed(xc), atol=1e-8)
        # conjugate-linear
        lhs = involution(closure, u, alpha * xc + yc)
        rhs = np.conj(alpha) * ix + involution(closure, u, yc)
        assert np.allclose(lhs, rhs, atol=1e-8)
        # isometric
        assert np.linalg.norm(ix) == pytest.approx(
            np.linalg.norm(space.embed(xc)), abs=1e-8)


def test_involution_requires_ambient_unitary():
    closure = catalog_closure("m2-full")
    with pytest.raises(PreconditionError):
        involution(closure, [0, 1.0, 0, 0], [1.0, 0, 0, 0])


def test_ambient_system_verdicts():
    full = ambient_system_check(catalog_closure("m2-full"))
    assert full.passed
    assert full.diagnostics["worst_residual"] <= 1e-8

    upper = ambient_system_check(catalog_closure("m2-upper"))
    assert upper.verdict == "fail"
    assert upper.witness["basis_index"] in (1,)   # E12 recaptures to E21

    zzbar = ambient_system_check(catalog_closure("circle-1zzbar"))
    assert zzbar.passed

    onez = ambient_system_check(catalog_closure("circle-1z"))
    assert onez.verdict == "fail"


def test_same_involution_on_two_circles():
    closure = catalog_closure("two-circles")
    space = closure.space
    one = np.zeros(space.dim)
    one[0] = 1.0
    rep = same_involution_check(closure, one, space.unit_coeffs())
    assert rep.passed
    assert rep.diagnostics["commute_residual"] <= 1e-12


def test_same_involution_detects_distinct_recapture():
    closure = catalog_closure("m2-full")
    rep = same_involution_check(closure, [1.0, 0, 0, 0],
                                [1.0, 0, 0, -2.0])   # diag(1, -1)
    assert rep.verdict == "fail"
    assert rep.diagnostics["centrality_residual"] > 1e-3


def test_transfer_verdicts():
    closure = catalog_closure("m2-full")
    u = [1.0, 0, 0, 0]
    same = transfer_check(closure, u, u)
    assert same.passed and same.diagnostics["bijective"]

    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                   dtype=np.complex128)
    coeffs = closure.space.membership(rot)[0]
    rotated = transfer_check(closure, u, coeffs)
    assert rotated.passed and rotated.diagnostics["bijective"]

    circle = catalog_closure("circle-1zzbar")
    cspace = circle.space
    one = np.zeros(cspace.dim)
    one[0] = 1.0
    zc = np.zeros(cspace.dim)
    zc[1] = 1.0
    moved = transfer_check(circle, one, zc)   # x -> z x leaves the span
    assert moved.verdict == "fail"


@pytest.mark.parametrize("name", POINT_BACKED)
def test_a_capped_closure_does_not_depend_on_the_point_order(name):
    # circle-1zzbar's last generation has a tied pair of singular values
    # at the cap (s[23] = s[24]); a cut between them moved with rounding
    closure = catalog_closure(name)
    values = closure.space.basis[:, :, 0, 0]
    perm = np.random.default_rng(1).permutation(values.shape[1])
    shuffled = generate_tro(space_from_points(values[:, perm]))
    back = np.zeros_like(shuffled.z_basis)
    back[:, perm] = shuffled.z_basis
    assert not closure.stable and not shuffled.stable
    assert shuffled.rank == closure.rank == (23 if name == "circle-1zzbar"
                                             else 24)
    assert np.linalg.norm(_projector(closure.z_basis) - _projector(back),
                          2) <= 1e-10


def test_a_cap_inside_a_tie_keeps_the_cap():
    # the 30 point masses of l-infinity^30 have equal singular values, so
    # no gap lies at or below the cap; the closure keeps 24, not 0
    closure = generate_tro(space_from_points(np.eye(30)))
    assert (closure.rank, closure.stable) == (24, False)
    diagonal = np.arange(30.0)
    assert ambient_unitary_check(closure, diagonal).verdict == "fail"


@pytest.mark.parametrize("name", catalog_names())
def test_a_sketched_closure_matches_the_plain_svd_one(name, monkeypatch):
    sketched = catalog_closure(name)
    # a sketch as wide as any input takes row_span's single-SVD branch
    monkeypatch.setattr(matcore, "SKETCH_WIDTH", 10 ** 9)
    plain = catalog_closure(name)
    assert (sketched.rank, sketched.stable) == (plain.rank, plain.stable)
    assert np.linalg.norm(_projector(sketched.z_basis)
                          - _projector(plain.z_basis), 2) <= 1e-10


def test_point_backed_closures_take_no_big_svd(monkeypatch):
    spaces = [catalog_space(name) for name in POINT_BACKED]
    svd, sizes = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(matcore.np.linalg, "svd", recording_svd)
    for space in spaces:
        generate_tro(space)
    assert sizes
    assert [s for s in sizes if min(s[-2:]) > SKETCH_WIDTH] == []
