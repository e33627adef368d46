import numpy as np
import pytest

from opcert.errors import PreconditionError
from opcert.funcspace import catalog_closure
from opcert.matcore import adjoint
from opcert.opspace import make_space
from opcert.tro import (ambient_system_check, ambient_unitary_check,
                        generate_tro, involution, same_involution_check,
                        transfer_check)

E12 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
E21 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
E22 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


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
