import numpy as np
import pytest

import opcert.cstar as cstar
from opcert.cstar import (collect_unitaries, detect_cstar,
                          hermitian_to_unitaries, recover_product,
                          recover_product_left, unitary_span_check)
from opcert.errors import InvalidInputError, PreconditionError
from opcert.funcspace import catalog_closure, catalog_entry, catalog_space
from opcert.matcore import adjoint
from opcert.opspace import make_space
from opcert.solver import SolverConfig
from opcert.sysdetect import involution_error_bound
from opcert.tro import ambient_unitary_check, generate_tro


def rotation_coeffs(space, theta):
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]], dtype=np.complex128)
    coeffs, res = space.membership(rot)
    assert res <= 1e-10
    return coeffs


def test_recover_product_tracks_true_product():
    space = catalog_space("m2-full")
    uc = space.unit_coeffs()
    vc = rotation_coeffs(space, 0.4)
    rng = np.random.default_rng(23)
    for _ in range(3):
        yc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yc /= space.norm(yc) * rng.uniform(1.0, 2.0)
        rec = recover_product(space, uc, vc, yc, t=100.0)
        assert not rec.escaped
        err = np.linalg.norm(rec.element.matrix - rec.ambient_truth)
        assert err <= rec.bound + 1e-6
        assert rec.bound <= involution_error_bound(100.0) + 1e-2


def test_recover_product_error_decreases_with_t():
    space = catalog_space("m2-full")
    uc = space.unit_coeffs()
    vc = rotation_coeffs(space, 1.1)
    rng = np.random.default_rng(29)
    for _ in range(2):
        yc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yc /= space.norm(yc) * 1.5
        errs = {}
        for t in (10.0, 100.0):
            rec = recover_product(space, uc, vc, yc, t=t)
            errs[t] = np.linalg.norm(rec.element.matrix - rec.ambient_truth)
        assert errs[100.0] < errs[10.0]


def test_recover_product_reaches_target_at_large_t():
    # the m2-sym3 factors recover-cli draws for seed 1; at t = 1000 the
    # search reaches the target only by stepping toward the known minimum
    # 0 of the excess
    space = catalog_space("m2-sym3")
    config = SolverConfig()
    rng = np.random.default_rng([1, 1])
    rng.standard_normal(3), rng.standard_normal(3)   # the involution's x
    a = 2 * np.pi * rng.uniform()
    vc = np.array([np.cos(a), 1j * np.sin(a), 1j * np.sin(a)])
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    yc = np.array([b[0], b[1], b[1]])
    yc *= 0.8 / space.norm(yc)
    rec = recover_product(space, space.unit_coeffs(), vc, yc, t=1000.0,
                          config=config)
    assert not rec.escaped
    assert rec.diagnostics["reached_target"]
    assert rec.bound <= involution_error_bound(1000.0) + 4 * config.eps_stop
    error = np.linalg.norm(rec.element.matrix - rec.ambient_truth, 2)
    assert error <= rec.bound


def test_recover_product_left_matches_other_slot():
    space = catalog_space("m2-full")
    uc = space.unit_coeffs()
    vc = rotation_coeffs(space, -0.7)
    zc = np.array([0.2, -0.4, 0.1j, 0.3], dtype=np.complex128)
    zc /= space.norm(zc) * 1.2
    rec = recover_product_left(space, uc, vc, zc, t=100.0)
    truth = space.embed(uc) @ adjoint(space.embed(zc)) @ space.embed(vc)
    assert not rec.escaped
    assert np.allclose(rec.ambient_truth, truth)
    assert np.linalg.norm(rec.element.matrix - truth) <= rec.bound + 1e-6


def test_row_space_is_one_sided_only():
    # on a non-square row space the designated row is a coisometry but not
    # an isometry, so only the right-slot identity holds ambiently
    row12 = make_space([np.array([[1.0, 0]]), np.array([[0, 1.0]])],
                       unit=[1.0, 0])
    closure = generate_tro(row12, envelope_exact=True)
    rep = ambient_unitary_check(closure, [1.0, 0])
    assert rep.diagnostics["coisometry"]
    assert not rep.diagnostics["isometry"]
    assert rep.verdict == "fail"


def test_recovery_on_row_line_where_unit_is_ternary():
    line = make_space([np.array([[1.0, 0]])], unit=[1.0])
    closure = generate_tro(line, envelope_exact=True)
    assert ambient_unitary_check(closure, [1.0]).passed
    u = [1.0]
    for solver, slot_truth in (
            (recover_product, lambda um, ym, vm: vm @ adjoint(ym) @ um),
            (recover_product_left, lambda um, ym, vm: um @ adjoint(ym) @ vm)):
        rec = solver(line, u, u, [0.7], t=100.0)
        um = line.embed(np.array([1.0 + 0j]))
        truth = slot_truth(um, 0.7 * um, um)
        assert not rec.escaped
        assert np.linalg.norm(rec.element.matrix - truth) <= rec.bound + 1e-6


def test_hermitian_average_of_two_unitaries():
    space = catalog_space("m2-full")
    closure = catalog_closure("m2-full")
    xc = np.array([0.3, 0, 0, -0.8], dtype=np.complex128)   # diag(0.3, -0.5)
    split = hermitian_to_unitaries(space, space.unit_coeffs(), xc, closure)
    assert split.passed
    assert split.v1_unitary and split.v2_unitary
    assert split.v1_residual <= 1e-8 and split.v2_residual <= 1e-8
    avg = 0.5 * (split.v1_coeffs + split.v2_coeffs)
    assert np.allclose(avg, xc, atol=1e-8)


def test_hermitian_split_preconditions():
    space = catalog_space("m2-full")
    closure = catalog_closure("m2-full")
    uc = space.unit_coeffs()
    with pytest.raises(PreconditionError):
        hermitian_to_unitaries(space, uc, [0.3, 0, 0, 0], closure=None)
    with pytest.raises(PreconditionError):
        hermitian_to_unitaries(space, uc, [1j, 0, 0, -1j], closure)
    with pytest.raises(InvalidInputError):
        hermitian_to_unitaries(space, uc, [2.0, 0, 0, 0], closure)


@pytest.mark.parametrize("point_backed", [True, False])
def test_hermitian_split_at_the_rim_of_the_ball(point_backed):
    # l-infinity^2 stored point-backed, or rotated into a dense 2 x 2 layout
    q = np.eye(2) if point_backed else np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    space = make_space([q @ np.diag(e) @ q.T for e in np.eye(2)],
                       unit=[1.0, 1.0])
    assert space.diagonal == point_backed
    closure = generate_tro(space, envelope_exact=True)
    uc = space.unit_coeffs()
    xc = np.array([1.0, 0.3], dtype=np.complex128)
    split = hermitian_to_unitaries(space, uc, (1.0 + 2e-10) * xc, closure)
    assert split.passed
    with pytest.raises(InvalidInputError, match="unit ball"):
        hermitian_to_unitaries(space, uc, (1.0 + 8e-10) * xc, closure)


def test_collected_unitaries_are_certified():
    space = catalog_space("m2-full")
    closure = catalog_closure("m2-full")
    unitaries = collect_unitaries(space, space.unit_coeffs(), closure)
    assert unitaries.shape[0] >= 4
    assert np.allclose(unitaries[0], space.unit_coeffs())
    for row in unitaries:
        assert ambient_unitary_check(closure, row).passed


def test_unitary_span_verdicts():
    full = catalog_space("m2-full")
    rep = unitary_span_check(full, closure=catalog_closure("m2-full"))
    assert rep.passed
    assert rep.diagnostics["span_dim"] == 4

    sym = catalog_space("m2-sym3")
    rep = unitary_span_check(sym, closure=catalog_closure("m2-sym3"))
    assert rep.passed
    assert rep.diagnostics["span_dim"] == 3

    circle = catalog_entry("circle-1zzbar").build()
    rep = unitary_span_check(circle, closure=catalog_closure("circle-1zzbar"))
    assert rep.verdict == "fail"
    assert rep.diagnostics["span_dim"] == 1


def test_detect_cstar_on_full_matrix_space():
    space = catalog_space("m2-full")
    closure = catalog_closure("m2-full")
    report, table = detect_cstar(space, closure=closure)
    assert report.passed
    assert table is not None
    assert report.diagnostics["unit_law_error"] <= 1e-6
    assert report.diagnostics["table_bound"] <= 1e-3
    assert float(np.max(table.membership_residuals)) <= 1e-8
    rng = np.random.default_rng(31)
    for _ in range(5):
        ac = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = table.multiply(ac, bc).matrix
        true = space.embed(ac) @ space.embed(bc)
        assert np.max(np.abs(got - true)) <= 1e-3


def test_detect_cstar_flags_product_escape():
    space = catalog_space("m2-sym3")
    closure = catalog_closure("m2-sym3")
    report, table = detect_cstar(space, closure=closure)
    assert report.verdict == "fail"
    assert table is None
    assert report.witness["stage"] == "product-closure"
    assert report.diagnostics["system_verdict"] == "pass"
    assert report.diagnostics["span_verdict"] == "pass"


def test_detect_cstar_flags_missing_unitaries():
    space = catalog_entry("circle-1zzbar").build()
    closure = catalog_closure("circle-1zzbar")
    report, table = detect_cstar(space, closure=closure)
    assert report.verdict == "fail"
    assert table is None
    assert report.witness["stage"] == "unitary-span"
    assert report.diagnostics["span_dim"] == 1


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_escape_stage_reads_ambient_membership(monkeypatch):
    # with an envelope-exact closure the escape verdict, margin and gap
    # come from relative membership, so no product search runs for them
    searches = _count_calls(monkeypatch, cstar, "recover_product")
    report, table = detect_cstar(catalog_space("m2-sym3"),
                                 closure=catalog_closure("m2-sym3"))
    assert table is None
    assert searches == []
    assert report.to_dict() == {
        "name": "cstar", "verdict": "fail", "margin": -0.49999999999999994,
        "witness": {"stage": "product-closure", "unitary_index": 1,
                    "basis_index": 1},
        "diagnostics": {"system_verdict": "pass", "span_verdict": "pass",
                        "span_dim": 3, "escape_gap": 0.49999999999999994}}


def test_table_still_recovers_products_intrinsically(monkeypatch):
    escape = _count_calls(monkeypatch, cstar, "recover_product")
    solves = _count_calls(monkeypatch, cstar, "_solve_product")
    space = catalog_space("m2-full")
    report, table = detect_cstar(space, closure=catalog_closure("m2-full"))
    assert report.passed and table is not None
    assert report.diagnostics["worst_escape_gap"] == 3.982803220822353e-16
    assert escape == []
    # one search per (unitary, basis element) pair of the table
    assert len(solves) == table.unitary_coeffs.shape[0] * space.dim


def test_recover_product_reports_stop_reasons():
    space = catalog_space("m2-full")
    vc = rotation_coeffs(space, 0.4)
    yc = np.array([0.3, -0.2j, 0.1, 0.2], dtype=np.complex128)
    rec = recover_product(space, space.unit_coeffs(), vc, yc, t=100.0)
    assert not rec.escaped
    assert rec.diagnostics["certified_min"]
    assert rec.diagnostics["stops"]["target"] == 1


def test_an_escape_is_flagged_only_for_a_ternary_unitary():
    # v = diag(2, 1) is no unitary: its product excess is certified far
    # above fail_tol, though v y* u lies in M2, so no escape is flagged
    space = catalog_space("m2-full")
    uc, vc, yc = space.unit_coeffs(), [1, 0, 0, 1], [0, 0.8, 0, 0]
    with pytest.raises(PreconditionError,
                       match="v is not certified as a coisometry"):
        recover_product(space, uc, vc, yc)
    with pytest.raises(PreconditionError,
                       match="v is not certified as an isometry"):
        recover_product_left(space, uc, vc, yc)


def test_detect_cstar_needs_an_exact_closure_past_the_system_stage():
    # span{I} with u = e^{i pi/4} I is an operator system; the unitary span
    # and product stages need the ambient model
    space = make_space([np.eye(2)], unit=[np.exp(0.25j * np.pi)])
    with pytest.raises(PreconditionError, match="envelope-exact closure"):
        detect_cstar(space)
    # the span check itself refuses any closure that is not envelope-exact
    for closure in (None, generate_tro(space)):
        with pytest.raises(PreconditionError, match="envelope-exact closure"):
            unitary_span_check(space, closure=closure)
    report, table = detect_cstar(space,
                                 closure=generate_tro(space, envelope_exact=True))
    assert report.passed and table is not None
    assert report.diagnostics["system_verdict"] == "pass"
