"""End-to-end acceptance battery: one test per shipped guarantee.

Each test prints the measured quantities next to the pinned thresholds so
a failure is self-explaining. Tolerances are the shipped ones, not tuned
to the observed runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.stats import unitary_group

from opcert.certify import certify_unitary
from opcert.cstar import detect_cstar, recover_product
from opcert.funcspace import (catalog_closure, catalog_entry, catalog_space,
                              g_hermitian_solve, scalar_unitary_check,
                              selfadjoint_unit_check)
from opcert.hermit import is_u_hermitian
from opcert.matcore import adjoint
from opcert.opspace import make_space
from opcert.order import Cone, cone_equals_delta_plus, norm_order_unit_check
from opcert.serialize import SpaceFile, dumps_report
from opcert.solver import SolverConfig
from opcert.sysdetect import (detect_operator_system, involution_error_bound,
                              recover_involution, t1_insufficiency_probe)
from opcert.tro import (ambient_system_check, generate_tro,
                        same_involution_check)

FIXTURES = Path(__file__).parent / "fixtures"


def random_hermitian_coeffs(space, rng, scale):
    a, d = rng.standard_normal(2)
    b = complex(rng.standard_normal(), rng.standard_normal())
    mat = np.array([[a, b], [np.conj(b), a + d]])
    coeffs, res = space.membership(mat)
    assert res <= 1e-10
    return coeffs * (scale / space.norm(coeffs))


def random_ball_coeffs(space, rng, shrink=1.0):
    c = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return c * (shrink / space.norm(c))


def test_ac01_unitary_certificates():
    space = catalog_space("m2-full")
    rep = certify_unitary(space, max_level=2)
    worst_identity = max(v for k, v in rep.diagnostics.items()
                         if k.startswith(("row", "column")))
    rng = np.random.default_rng(101)
    worst_random = 0.0
    for _ in range(20):
        u = unitary_group.rvs(2, random_state=rng)
        coeffs, res = space.membership(u)
        assert res <= 1e-10
        r = certify_unitary(space, coeffs, max_level=1)
        assert r.passed
        worst_random = max(worst_random,
                           max(v for k, v in r.diagnostics.items()
                               if k.startswith(("row", "column"))))
    shrunk = certify_unitary(space, [1.0, 0, 0, -0.5], max_level=1)
    shrunk_defect = max(v for k, v in shrunk.diagnostics.items()
                        if k.startswith(("row", "column")))
    print(f"AC1 identity worst defect {worst_identity:.3e} (<= 1e-6), "
          f"20 random unitaries worst {worst_random:.3e} (<= 1e-6), "
          f"diag(1,1/2) defect {shrunk_defect:.6f} (>= {0.75 - 1e-4})")
    assert rep.passed and worst_identity <= 1e-6
    assert worst_random <= 1e-6
    assert shrunk.verdict == "fail" and shrunk_defect >= 0.75 - 1e-4


def test_ac02_hermitian_norm_equality():
    space = catalog_space("m2-full")
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        coeffs = random_hermitian_coeffs(space, rng, rng.uniform(0.05, 1.0))
        rep = is_u_hermitian(space, None, coeffs)
        assert rep.passed
        worst = max(worst,
                    float(np.max(np.abs(rep.diagnostics["scalar_slack"]))))
    print(f"AC2 worst equality gap over 20 hermitians x full t grid: "
          f"{worst:.3e} (<= 1e-8)")
    assert worst <= 1e-8


def test_ac03_involution_recovery():
    space = catalog_space("m2-full")
    rng = np.random.default_rng(103)
    bound = involution_error_bound(100.0) + 1e-4
    worst = 0.0
    decreases = 0
    for _ in range(20):
        xc = random_ball_coeffs(space, rng, shrink=rng.uniform(0.2, 1.0))
        true = adjoint(space.embed(xc))
        errs = {}
        for t in (10.0, 100.0):
            rec = recover_involution(space, None, xc, t_large=t)
            errs[t] = float(np.linalg.norm(rec.matrix - true, 2))
        worst = max(worst, errs[100.0])
        decreases += errs[100.0] < errs[10.0]
    print(f"AC3 worst error at t=100: {worst:.4e} (<= {bound:.4e}); "
          f"error shrank from t=10 in {decreases}/20 (need >= 18)")
    assert worst <= bound
    assert decreases >= 18


def test_ac04_product_recovery_and_table():
    space = catalog_space("m2-full")
    closure = catalog_closure("m2-full")
    rng = np.random.default_rng(104)
    theta = 0.9
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]], dtype=np.complex128)
    vc = space.membership(rot)[0]
    bound = involution_error_bound(100.0) + 1e-4
    worst_rec = 0.0
    for _ in range(20):
        yc = random_ball_coeffs(space, rng, shrink=rng.uniform(0.2, 1.0))
        rec = recover_product(space, space.unit_coeffs(), vc, yc, t=100.0)
        assert not rec.escaped
        worst_rec = max(worst_rec, float(np.linalg.norm(
            rec.element.matrix - rec.ambient_truth, 2)))

    report, table = detect_cstar(space, closure=closure)
    assert report.passed and table is not None
    ent = 0.0
    for i in range(4):
        for j in range(4):
            ei = np.zeros(4)
            ei[i] = 1.0
            ej = np.zeros(4)
            ej[j] = 1.0
            got = table.multiply(ei, ej).matrix
            ent = max(ent, float(np.max(np.abs(
                got - space.embed(ei) @ space.embed(ej)))))

    assoc = 0.0
    cstar_gap = 0.0
    for _ in range(20):
        a = random_ball_coeffs(space, rng)
        b = random_ball_coeffs(space, rng)
        c = random_ball_coeffs(space, rng)
        left = table.multiply(table.multiply(a, b), c)
        right = table.multiply(a, table.multiply(b, c))
        assoc = max(assoc, space.norm(left.coeffs - right.coeffs))
        astar = space.membership(adjoint(space.embed(a)))[0]
        sq = table.multiply(astar, a)
        cstar_gap = max(cstar_gap,
                        abs(space.norm(sq.coeffs) - space.norm(a) ** 2))
    print(f"AC4 worst recovery error {worst_rec:.4e} (<= {bound:.4e}); "
          f"table vs true product {ent:.3e} (<= 1e-3); "
          f"associativity {assoc:.3e}, C*-identity gap {cstar_gap:.3e} "
          f"(both <= 1e-3)")
    assert worst_rec <= bound
    assert ent <= 1e-3
    assert assoc <= 1e-3
    assert cstar_gap <= 1e-3


def test_ac05_operator_system_detection():
    margins = json.loads((FIXTURES / "upper_partner_margin.json").read_text())
    results = {}
    for name in ("m2-full", "m2-sym3", "m2-upper"):
        space = catalog_space(name)
        closure = catalog_closure(name)
        rep = detect_operator_system(space, closure=closure)
        results[name] = rep
        assert rep.diagnostics["ambient_agrees"], name
    upper = results["m2-upper"].diagnostics["worst_residual"]
    print(f"AC5 pass residuals: m2-full "
          f"{results['m2-full'].diagnostics['worst_residual']:.3e}, m2-sym3 "
          f"{results['m2-sym3'].diagnostics['worst_residual']:.3e} (<= 1e-4); "
          f"m2-upper residual {upper:.6f} in "
          f"[{margins['delta']:.6f}, {margins['grid_min_hinge'] + 1e-4:.6f}]; "
          f"ambient route agrees on all three")
    assert results["m2-full"].passed
    assert results["m2-sym3"].passed
    assert results["m2-full"].diagnostics["worst_residual"] <= 1e-4
    assert results["m2-sym3"].diagnostics["worst_residual"] <= 1e-4
    assert results["m2-upper"].verdict == "fail"
    assert upper >= margins["delta"]
    assert upper <= margins["grid_min_hinge"] + 1e-4


def test_ac06_scalar_circle_checks():
    dims = {}
    for m in (360, 720):
        fspace = catalog_space("circle-1zzbar", m)
        one = scalar_unitary_check(fspace)
        z = scalar_unitary_check(fspace, g=[0, 1.0, 0])
        assert one.passed and z.passed
        # |g| = 1 at every point: the concrete bound settles both, at
        # every level and without a search
        for rep in (one, z):
            assert rep.diagnostics["upper_route"] == "concrete"
            assert rep.diagnostics["row_defect_bound"] <= 1e-12
        dims[m] = tuple(
            g_hermitian_solve(fspace, g=g).diagnostics["complex_dim"]
            for g in (None, [0, 1.0, 0]))
    print(f"AC6 unitary checks pass for g=1 and g=z on the concrete bound; "
          f"hermitian span dims "
          f"(g=1, g=z): m=360 {dims[360]}, m=720 {dims[720]} "
          f"(expected (3, 1), stable in m)")
    assert dims[360] == (3, 1)
    assert dims[720] == (3, 1)


def test_ac07_t1_alone_looks_satisfiable():
    # On circle-1z (360 roots of unity) with x = z, every partner
    # y = c + d z has t-hinge at least
    #     h(t) = (1 + sqrt(1 + 4 t^2)) / 2 - sqrt(1 + t^2),
    # in or out of the unit ball. Conjugating the sample block
    # [[t, z], [y, t]] by diag(conj z, 1) and diag(z, 1) gives
    # [[t, 1], [q, t]] with q = c z + d z^2. Over the roots of unity
    # sum(q) = 0, so some sample has Re q >= 0, and there
    # |t^2 - q|^2 <= t^4 + |q|^2. With S = 2 t^2 + 1 + |q|^2 the top
    # singular value is sqrt((S + sqrt(S^2 - 4 |t^2 - q|^2)) / 2), which
    # is then at least its value at q = 0, (1 + sqrt(1 + 4 t^2)) / 2.
    # The partner y = 0 attains the bound at every t, so the t = 1 residual
    # is h(1) = phi - sqrt(2) and the full-grid residual is the grid
    # maximum h(32) (the grid_min_hinge of the AC5 margin fixture): the
    # single constraint is no more satisfiable than the whole grid.
    space = catalog_entry("circle-1z").build()
    config = SolverConfig()
    rep = t1_insufficiency_probe(space, None, [0, 1.0], config=config)
    t1 = rep.diagnostics["t1_residual"]
    full = rep.diagnostics["full_residual"]
    t_grid = np.array(config.t_grid)
    floor = (1 + np.sqrt(1 + 4 * t_grid ** 2)) / 2 - np.sqrt(1 + t_grid ** 2)
    h1 = float(floor[t_grid == 1.0][0])
    h_grid = float(np.max(floor))
    print(f"AC7 t=1 residual {t1:.10f} in [{h1 - 1e-9:.10f}, "
          f"{h1 + config.cert_tol:.10f}] (h(1) = phi - sqrt(2)); full-grid "
          f"residual {full:.10f} in [{h_grid - 1e-9:.10f}, "
          f"{h_grid + config.cert_tol:.10f}] (h({t_grid[np.argmax(floor)]:g})); "
          f"t1_satisfiable {rep.diagnostics['t1_satisfiable']}, diverges "
          f"{rep.diagnostics['diverges']}")
    assert h1 - 1e-9 <= t1 <= h1 + config.cert_tol
    assert h_grid - 1e-9 <= full <= h_grid + config.cert_tol
    assert rep.verdict == "fail"
    assert not rep.diagnostics["t1_satisfiable"]
    assert not rep.diagnostics["full_pass"]
    assert not rep.diagnostics["diverges"]


def test_ac08_two_circles_selfadjoint_unit():
    fspace = catalog_space("two-circles")
    closure = catalog_closure("two-circles")
    assert fspace.basis.shape[1] == 720
    gvals = fspace.point_values(fspace.unit_coeffs())
    im_g = float(np.max(np.abs(np.imag(gvals))))
    unitary = scalar_unitary_check(fspace)
    sa = selfadjoint_unit_check(fspace)
    one = np.zeros(4)
    one[0] = 1.0
    same = same_involution_check(closure, one, fspace.unit_coeffs())
    print(f"AC8 g unitary: {unitary.verdict} (defect bound "
          f"{unitary.diagnostics['row_defect_bound']:.1e}, "
          f"{unitary.diagnostics['upper_route']}); max |Im g| = {im_g:.1e}; "
          f"selfadjoint-unit: {sa.verdict}; same involution as conjugation: "
          f"{same.verdict} (commute residual "
          f"{same.diagnostics['commute_residual']:.1e})")
    assert unitary.passed
    assert unitary.diagnostics["upper_route"] == "concrete"
    assert im_g == 0.0
    assert sa.passed
    assert same.passed


def test_ac09_ternary_closure_of_sym3():
    closure = catalog_closure("m2-sym3")
    z_basis = closure.z_basis[:, 0]
    regrown = generate_tro(make_space(list(z_basis), unit=None))
    flat = z_basis.reshape(closure.rank, -1).T
    worst = 0.0
    for a in z_basis:
        for b in z_basis:
            for c in z_basis:
                prod = (a @ adjoint(b) @ c).reshape(-1)
                fit = flat @ np.linalg.lstsq(flat, prod, rcond=None)[0]
                worst = max(worst, float(np.linalg.norm(fit - prod)))
    print(f"AC9 closure rank {closure.rank} (expected 4, stable: "
          f"{closure.stable}); regrown rank {regrown.rank}; worst ternary "
          f"residual {worst:.3e} (<= 1e-8)")
    assert closure.rank == 4 and closure.stable
    assert regrown.rank == 4
    assert worst <= 1e-8


def test_ac10_norm_order_unit_cone():
    # The positives of l-infinity^3 (diagonal 3x3 matrices, unit I) are
    # generated by E11, E22 and E33, so a finite cone can equal them. In
    # M2 the psd cone is round: its extreme rays are the rank-one
    # projections, a continuum, so no finite cone equals it.
    diag = make_space([np.diag(e).astype(np.complex128) for e in np.eye(3)],
                      unit=[1.0, 1.0, 1.0])
    diag_closure = generate_tro(diag, envelope_exact=True)
    generators = np.array([
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 1, 1],
        [1, 1, 0],
    ], dtype=np.complex128)
    cone = Cone(diag, generators)
    nou = norm_order_unit_check(cone)
    ced = cone_equals_delta_plus(cone, closure=diag_closure)
    ced_intrinsic = cone_equals_delta_plus(cone)

    flipped = Cone(diag, generators[[0, 2, 3, 4]])   # drop E22
    flip_rep = cone_equals_delta_plus(flipped, closure=diag_closure)
    flip_nou = norm_order_unit_check(flipped)

    # the same five-generator shape in m2-full: E11, E22, the all-ones
    # matrix, [[1,-i],[i,1]] and I. The psd matrix [[1,-1],[-1,1]] lies
    # Frobenius distance sqrt(2) from this cone, a relative gap sqrt(1/2).
    m2 = catalog_space("m2-full")
    psd_five = Cone(m2, np.array([
        [1, 0, 0, -1],
        [0, 0, 0, 1],
        [1, 1, 1, 0],
        [1, -1j, 1j, 0],
        [1, 0, 0, 0],
    ], dtype=np.complex128))
    m2_nou = norm_order_unit_check(psd_five)
    m2_ced = cone_equals_delta_plus(psd_five,
                                    closure=catalog_closure("m2-full"))
    print(f"AC10 l-inf^3: norm-order-unit {nou.verdict} (worst residual "
          f"{nou.diagnostics['worst_residual']:.1e} <= 1e-6); "
          f"cone-equals-positives {ced.verdict} / intrinsic "
          f"{ced_intrinsic.verdict} (reverse residuals "
          f"{ced.diagnostics['reverse_residual']:.1e}, "
          f"{ced_intrinsic.diagnostics['reverse_residual']:.1e}); dropping "
          f"E22: {flip_rep.verdict} with residual "
          f"{flip_rep.diagnostics['reverse_residual']:.4f} (>= 0.1), "
          f"norm-order-unit {flip_nou.verdict} at "
          f"{flip_nou.diagnostics['worst_residual']:.4f}. m2-full psd "
          f"five-generator cone: {m2_nou.verdict} / {m2_ced.verdict} at "
          f"{m2_nou.diagnostics['worst_residual']:.6f} / "
          f"{m2_ced.diagnostics['reverse_residual']:.6f} "
          f"(sqrt(1/2) = {np.sqrt(0.5):.6f} +- 1e-4)")
    assert nou.passed and ced.passed and ced_intrinsic.passed
    assert flip_rep.verdict == "fail"
    assert flip_rep.diagnostics["forward_ok"]
    assert flip_rep.diagnostics["reverse_residual"] >= 0.1
    assert flip_nou.verdict == "fail"
    assert m2_nou.verdict == "fail" and m2_ced.verdict == "fail"
    assert abs(m2_nou.diagnostics["worst_residual"] - np.sqrt(0.5)) <= 1e-4
    assert abs(m2_ced.diagnostics["reverse_residual"] - np.sqrt(0.5)) <= 1e-4


def test_ac11_reports_are_deterministic(tmp_path):
    def battery():
        reports = [
            certify_unitary(catalog_space("m2-full"), max_level=2),
            detect_cstar(catalog_space("m2-sym3"),
                         closure=catalog_closure("m2-sym3"))[0],
            scalar_unitary_check(catalog_space("circle-1zzbar")),
            ambient_system_check(catalog_closure("m2-upper")),
        ]
        return dumps_report(reports, command="battery", seed=7,
                            version="0.1.0")

    first, second = battery(), battery()

    space_path = tmp_path / "m2-full.json"
    space_path.write_text(
        SpaceFile.from_space(catalog_space("m2-full")).dumps())
    cli_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"cli-{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from opcert.cli import main; sys.exit(main("
             f"['check', 'unitary', '--space', r'{space_path}', "
             f"'--seed', '7', '--out', r'{out}']))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cli_outs.append(out.read_bytes())
    print(f"AC11 in-process battery bytes equal: {first == second}; "
          f"CLI same-seed report bytes equal: {cli_outs[0] == cli_outs[1]} "
          f"({len(first)} and {len(cli_outs[0])} bytes)")
    assert first == second
    assert cli_outs[0] == cli_outs[1]
