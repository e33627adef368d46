import numpy as np
import pytest

from opcert import order
from opcert.errors import InvalidInputError
from opcert.funcspace import catalog_closure, catalog_entry, catalog_space
from opcert.hermit import delta_span, operator_system_check
from opcert.matcore import nnls
from opcert.opspace import make_space
from opcert.order import (Cone, cone_equals_delta_plus, cone_membership,
                          norm_order_unit_check)
from opcert.tro import generate_tro

E11 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
E22 = np.array([[0, 0], [0, 1]], dtype=np.complex128)

# E11, E22, the all-ones matrix, [[1,-i],[i,1]], and the identity,
# in {I, E12, E21, E22} coordinates
PSD_GENERATORS = np.array([
    [1, 0, 0, -1],
    [0, 0, 0, 1],
    [1, 1, 1, 0],
    [1, -1j, 1j, 0],
    [1, 0, 0, 0],
], dtype=np.complex128)


def psd_cone():
    return Cone(catalog_space("m2-full"), PSD_GENERATORS)


def test_cone_validation():
    space = catalog_space("m2-full")
    with pytest.raises(InvalidInputError):
        Cone(space, [[0, 0, 0, 0]])
    with pytest.raises(InvalidInputError):
        Cone(space, [[1.0, 0]])


def test_membership_distance_of_outside_point():
    # [[1,-1],[-1,1]] is psd but outside the finitely generated cone
    dist, weights = cone_membership(psd_cone(), [1, -1, -1, 0])
    assert dist == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert np.all(weights >= 0)
    inside, _ = cone_membership(psd_cone(), [1, 1, 1, 0])
    assert inside <= 1e-10


def test_membership_positively_homogeneous():
    cone = psd_cone()
    x = np.array([1, -1, -1, 0], dtype=np.complex128)
    d1, _ = cone_membership(cone, x)
    d3, _ = cone_membership(cone, 3.0 * x)
    assert d3 == pytest.approx(3.0 * d1, rel=1e-10)


def test_membership_reads_nonnegative_least_squares_weights_directly():
    # where the least squares weights over all reals are >= 0 they are the
    # NNLS weights and no NNLS runs; the distance is the NNLS one on both
    # routes, here with dependent generators (E11 + E22 = I)
    cone = psd_cone()
    rng = np.random.default_rng(5)
    routes = set()
    for _ in range(40):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if len(routes) % 2:
            x = rng.uniform(0.0, 1.0, 5) @ PSD_GENERATORS
        b = order._frob_vec(cone.space, x)
        routes.add(bool((cone.pinv @ b).min() >= 0.0))
        dist, weights = cone_membership(cone, x)
        _, want = nnls(cone.frobenius, b)
        assert dist == pytest.approx(want, abs=1e-12 * np.linalg.norm(b))
        assert (weights >= 0.0).all()
        assert dist == pytest.approx(
            np.linalg.norm(cone.frobenius @ weights - b), abs=1e-12)
    assert routes == {False, True}


def test_norm_order_unit_fails_on_truncated_psd_cone():
    rep = norm_order_unit_check(psd_cone())
    assert rep.verdict == "fail"
    assert rep.diagnostics["worst_residual"] == pytest.approx(
        np.sqrt(0.5), abs=1e-9)
    assert rep.witness["element"] is not None


def test_norm_order_unit_on_scalar_line():
    line = make_space([np.eye(2)], unit=[1.0])
    ok = norm_order_unit_check(Cone(line, [[1.0]]))
    assert ok.passed

    flipped = norm_order_unit_check(Cone(line, [[-1.0]]))
    assert flipped.verdict == "fail"
    assert flipped.witness["reason"] == "unit outside cone"


def test_cone_vs_positives_on_truncated_psd_cone():
    closure = catalog_closure("m2-full")
    rep = cone_equals_delta_plus(psd_cone(), closure=closure)
    assert rep.verdict == "fail"
    assert rep.diagnostics["forward_ok"]
    assert not rep.diagnostics["reverse_ok"]
    assert rep.diagnostics["forward_residual"] == 0.0
    assert rep.diagnostics["reverse_residual"] == pytest.approx(
        np.sqrt(0.5), abs=1e-4)

    # the intrinsic route reaches the same verdict
    intrinsic = cone_equals_delta_plus(psd_cone())
    assert intrinsic.verdict == "fail"
    assert not intrinsic.diagnostics["reverse_ok"]


def test_dropping_a_generator_keeps_failure_visible():
    closure = catalog_closure("m2-full")
    cone = Cone(catalog_space("m2-full"), PSD_GENERATORS[[0, 2, 3, 4]])
    rep = cone_equals_delta_plus(cone, closure=closure)
    assert rep.verdict == "fail"
    assert rep.diagnostics["forward_ok"]
    assert rep.diagnostics["reverse_residual"] >= 0.1


def test_diagonal_corner_cone_passes_everything():
    space = make_space([E11, E22], unit=[1.0, 1.0])
    closure = generate_tro(space, envelope_exact=True)
    cone = Cone(space, [[1.0, 0], [0, 1.0]])

    assert operator_system_check(space, None, closure=closure).passed
    assert norm_order_unit_check(cone).passed
    rep = cone_equals_delta_plus(cone, closure=closure)
    assert rep.passed
    assert rep.diagnostics["forward_ok"] and rep.diagnostics["reverse_ok"]


def test_the_ambient_route_needs_a_unit_the_closure_certifies():
    # u = diag(1, 1/2) is not an ambient unitary, so an exact closure must
    # not switch on the ambient psd test: diag(1, -1/10) is u-positive
    # by the intrinsic criteria although u* x is not psd
    space = catalog_space("m2-full")
    u = [1, 0, 0, -0.5]
    closure = catalog_closure("m2-full")
    cone = Cone(space, [[1, 0, 0, -1.1]])
    rep = cone_equals_delta_plus(cone, u, closure=closure)
    assert rep.diagnostics["forward_ok"]
    assert rep.to_dict() == cone_equals_delta_plus(cone, u).to_dict()
    assert delta_span(space, u, closure=closure).route == "numerical"


def test_a_cone_flattens_its_generators_once(monkeypatch):
    # the NNLS columns are built with the cone, as the stack of each
    # generator's Frobenius vector; a membership call flattens its point
    # alone, and its verdict and margin are those of the per-call stack
    space = catalog_entry("m2-sym3").build()
    cone = Cone(space, [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])
    stacked = np.stack([order._frob_vec(space, g) for g in cone.generators],
                       axis=1)
    np.testing.assert_array_equal(cone.frobenius, stacked)
    flattened = []
    frob_vec = order._frob_vec
    monkeypatch.setattr(order, "_frob_vec", lambda space, c:
                        flattened.append(c) or frob_vec(space, c))
    rep = norm_order_unit_check(cone)
    # the unit and each sample: one membership and one scale each
    assert len(flattened) == 2 * (1 + rep.diagnostics["samples"])
    assert (rep.verdict, rep.margin) == ("pass", 9.999999996763171e-07)
