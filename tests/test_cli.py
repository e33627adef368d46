import json
import subprocess
import sys

import numpy as np
import pytest

from opcert.blocks import ambient_product
import opcert.cli as cli
from opcert.cli import main
from opcert.funcspace import catalog_space, g_hermitian_solve
from opcert.hermit import is_u_hermitian, is_u_positive
from opcert.matcore import block_diag
from opcert.opspace import make_space
from opcert.serialize import SpaceFile, dumps_canonical

NAMES = ["circle-1zzbar", "circle-1z", "two-circles",
         "m2-full", "m2-upper", "m2-sym3"]


def write_catalog_file(tmp_path, name, filename=None):
    path = tmp_path / (filename or f"{name}.json")
    path.write_text(SpaceFile.from_space(catalog_space(name)).dumps())
    return str(path)


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == NAMES


def test_catalog_emit_roundtrips(tmp_path, capsys):
    out = tmp_path / "sym3.json"
    assert main(["catalog", "emit", "m2-sym3", "--out", str(out)]) == 0
    sf = SpaceFile.loads(out.read_text())
    assert sf.kind == "matrix"
    assert sf.basis.shape == (3, 2, 2)

    assert main(["catalog", "emit", "two-circles"]) == 0
    emitted = SpaceFile.loads(capsys.readouterr().out)
    assert emitted.kind == "function"
    assert emitted.basis.shape[1] == 720

    assert main(["catalog", "emit"]) == 3


def test_check_unitary_passes(tmp_path, capsys):
    space = write_catalog_file(tmp_path, "m2-full")
    assert main(["check", "unitary", "--space", space, "--level", "1"]) == 0
    assert capsys.readouterr().out.startswith("unitary: pass")


def test_check_system_fails_on_upper(tmp_path, capsys):
    space = write_catalog_file(tmp_path, "m2-upper")
    assert main(["check", "system", "--space", space]) == 1
    assert "operator-system: fail" in capsys.readouterr().out


def test_check_can_end_inconclusive(tmp_path, capsys):
    # a near-unit on a 2-point space leaves the defect inside the gray band
    a = float(np.sqrt(1.0 - 3e-4))
    sf = SpaceFile(kind="function",
                   basis=np.array([[1.0, 0], [0, 1.0]],
                                  dtype=np.complex128),
                   unit=np.array([1.0, a], dtype=np.complex128))
    path = tmp_path / "near.json"
    path.write_text(sf.dumps())
    assert main(["check", "unitary", "--space", str(path),
                 "--level", "1"]) == 2
    assert "unitary: inconclusive" in capsys.readouterr().out


def test_function_and_matrix_files_give_the_same_checks(tmp_path):
    # the same point-backed space, once as a function file and once as a
    # hand-written matrix file of its diagonal matrices
    space = catalog_space("circle-1zzbar", 12)
    diagonals = np.stack([np.diag(row) for row in space.basis[:, :, 0, 0]])
    files = {"function": SpaceFile.from_space(space),
             "matrix": SpaceFile(kind="matrix", basis=diagonals,
                                 unit=space.unit)}
    results = {}
    for kind, sf in files.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(sf.dumps())
        assert json.loads(path.read_text())["kind"] == kind
        for check in ("function-unitary", "function-system", "unitary"):
            report = tmp_path / f"{kind}-{check}.json"
            code = main(["check", check, "--space", str(path),
                         "--out", str(report)])
            rep = json.loads(report.read_text())["checks"][0]
            results.setdefault(check, []).append(
                (code, rep["verdict"], rep["margin"]))
    for check, (function, matrix) in results.items():
        assert function == matrix, check
        assert function[1] == "pass", check


def test_function_check_on_a_matrix_space_exits_cleanly(tmp_path):
    space = write_catalog_file(tmp_path, "m2-full")
    proc = subprocess.run(
        [sys.executable, "-m", "opcert.cli", "check", "function-unitary",
         "--space", space],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "point-backed" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_order_unit(tmp_path, capsys):
    line = make_space([np.eye(2)], unit=[1.0])
    with_cone = SpaceFile.from_space(line, cone=np.array([[1.0]]))
    path = tmp_path / "line.json"
    path.write_text(with_cone.dumps())
    assert main(["check", "order-unit", "--space", str(path)]) == 0

    without = tmp_path / "bare.json"
    without.write_text(SpaceFile.from_space(line).dumps())
    assert main(["check", "order-unit", "--space", str(without)]) == 3


def test_check_input_errors(tmp_path, capsys):
    space = write_catalog_file(tmp_path, "m2-full")
    assert main(["check", "hermitian", "--space", space]) == 3

    sf = SpaceFile.from_space(catalog_space("m2-full"),
                              solver={"bogus": 1})
    bad = tmp_path / "bad-solver.json"
    bad.write_text(sf.dumps())
    assert main(["check", "unitary", "--space", str(bad)]) == 3

    assert main(["check", "function-unitary", "--space", space]) == 3

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["check", "unitary", "--space", str(broken)]) == 3

    err = capsys.readouterr().err
    assert err.count("error:") == 4


def test_check_hermitian_with_element_and_grid(tmp_path, capsys):
    space = write_catalog_file(tmp_path, "m2-full")
    code = main(["check", "hermitian", "--space", space,
                 "--element", "[0, 1, 1, 0]", "--t-grid", "0.5,2"])
    assert code == 0
    assert "u-hermitian: pass" in capsys.readouterr().out

    code = main(["check", "positive", "--space", space,
                 "--element", "[[1,0], 0, 0, [-2,0]]"])
    assert code == 1


def test_check_positive_uses_the_t_grid(tmp_path):
    space = write_catalog_file(tmp_path, "m2-full")
    out = tmp_path / "report.json"
    code = main(["check", "positive", "--space", space, "--element",
                 "[0.5, 0.25, 0.25, 0]", "--t-grid", "0.5,2",
                 "--out", str(out)])
    assert code == 0
    diag = json.loads(out.read_text())["checks"][0]["diagnostics"]
    assert len(diag["ball_criterion_slack"]) == 2


@pytest.mark.parametrize("argv, solver", [
    (["--t-grid", "abc"], None),
    (["--t-grid", "1,,2"], None),
    ([], {"starts": "abc"}),
    ([], {"max_iters": 2.5}),
    ([], {"t_grid": 5}),
    ([], {"t_grid": ["x"]}),
], ids=["t-grid-word", "t-grid-empty-entry", "starts-word",
        "max-iters-fraction", "t-grid-number", "t-grid-word-entry"])
def test_bad_solver_settings_are_input_errors(tmp_path, capsys, argv, solver):
    space = tmp_path / "m2-full.json"
    space.write_text(SpaceFile.from_space(catalog_space("m2-full"),
                                          solver=solver).dumps())
    code = main(["check", "unitary", "--space", str(space), "--level", "1"]
                + argv)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_recover_involution_reports_ambient_error(tmp_path, capsys):
    space = write_catalog_file(tmp_path, "m2-full")
    code = main(["recover", "involution", "--space", space,
                 "--x", "[0, 1, 0, 0]"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("ambient_error:"))
    assert float(line.split(":")[1]) <= 0.0101 + 1e-4


@pytest.mark.parametrize("seed", [6, 8])
def test_recover_involution_stays_within_stated_bound(tmp_path, seed):
    # x drawn as the recover-cli benchmark draws it; at t = 1000 these
    # partners keep a residual hinge that 1/t + 1/t^2 alone does not cover
    space = catalog_space("m2-full")
    rng = np.random.default_rng([seed, 0])
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x *= 0.8 / space.norm(x)
    report = tmp_path / "report.json"
    code = main(["recover", "involution",
                 "--space", write_catalog_file(tmp_path, "m2-full"),
                 "--x", json.dumps([[v.real, v.imag] for v in x]),
                 "--t", "1000", "--out", str(report)])
    assert code == 0
    extra = json.loads(report.read_text())["extra"]
    got = space.embed(np.array([complex(*p) for p in extra["recovered"]]))
    u, xm = space.embed(space.unit_coeffs()), space.embed(x)
    error = np.linalg.norm(got - u @ xm.conj().T @ u, 2)
    assert error <= extra["bound"]


@pytest.mark.parametrize("field", ["unit", "basis"])
def test_non_finite_space_file_is_an_input_error(tmp_path, capsys, field):
    tree = SpaceFile.from_space(catalog_space("m2-full")).to_tree()
    if field == "unit":
        tree["unit"][0] = [float("nan"), 0.0]
    else:
        tree["basis"][1][0][1] = [float("inf"), 0.0]
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(tree))       # writes NaN / Infinity
    assert main(["check", "unitary", "--space", str(path)]) == 3
    assert "non-finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["recover", "involution", "--x", "[0, 1, 0, 0]", "--t", "nan"],
    ["check", "hermitian", "--element", "[0, 1, 1, 0]", "--t-grid", "0.5,inf"],
])
def test_non_finite_t_is_an_input_error(tmp_path, capsys, argv):
    space = write_catalog_file(tmp_path, "m2-full")
    assert main(argv + ["--space", space]) == 3
    assert "finite" in capsys.readouterr().err


def test_non_finite_coefficients_exit_cleanly(tmp_path):
    space = write_catalog_file(tmp_path, "m2-full")
    proc = subprocess.run(
        [sys.executable, "-m", "opcert.cli", "recover", "involution",
         "--space", space, "--x", "[NaN, 0, 0, 0]"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "--x[0]: non-finite number" in proc.stderr
    assert "Traceback" not in proc.stderr


# check function-unitary has no --tol: a script that passes one gets a
# usage error, exit 3, not the inconclusive exit 2
@pytest.mark.parametrize("argv", [
    ["check", "function-unitary", "--space", None, "--tol", "nan"],
    ["check", "function-unitary", "--space", None, "--tol", "0"],
    ["catalog", "emit", "circle-1z", "--points", "0"],
])
def test_bad_tolerance_and_point_count_exit_cleanly(tmp_path, argv):
    space = tmp_path / "circle.json"
    space.write_text(SpaceFile.from_space(catalog_space("circle-1zzbar", 12)).dumps())
    argv = [str(space) if a is None else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "opcert.cli"] + argv,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_dropped_solver_knob_exits_cleanly(tmp_path):
    # fd_step went with the finite-difference fallback
    space = tmp_path / "m2-full.json"
    space.write_text(SpaceFile.from_space(catalog_space("m2-full"),
                                          solver={"fd_step": 1e-6}).dumps())
    proc = subprocess.run(
        [sys.executable, "-m", "opcert.cli", "check", "unitary",
         "--space", str(space), "--level", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: unknown solver overrides")
    assert "Traceback" not in proc.stderr


def test_space_file_seed_is_an_unknown_override(tmp_path, capsys):
    # the seed comes from --seed or OPSPACE_SEED alone, which the report
    # records; a space file's root_seed would be overwritten unseen
    space = tmp_path / "m2-upper.json"
    space.write_text(SpaceFile.from_space(catalog_space("m2-upper"),
                                          solver={"root_seed": 3}).dumps())
    code = main(["check", "system", "--space", str(space)])
    assert code == 3
    assert capsys.readouterr().err == \
        "error: unknown solver overrides: ['root_seed']\n"


def test_a_solver_constant_is_an_unknown_override(tmp_path, capsys):
    # eps_stop is a constant of the solver, not a setting a file can change
    space = tmp_path / "m2-full.json"
    space.write_text(SpaceFile.from_space(catalog_space("m2-full"),
                                          solver={"eps_stop": 1e-6}).dumps())
    assert main(["check", "unitary", "--space", str(space),
                 "--level", "1"]) == 3
    assert capsys.readouterr().err.startswith(
        "error: unknown solver overrides: ['eps_stop']")


@pytest.mark.parametrize("kind, name, element, check, code", [
    ("hermitian", "m2-full", [0, 0.5, 0.5, 0], is_u_hermitian, 0),
    ("hermitian", "m2-full", [1j, 0, 0, -1j], is_u_hermitian, 1),
    ("positive", "m2-full", [0.5, 0.25, 0.25, 0], is_u_positive, 0),
    ("function-system", "circle-1zzbar", None, g_hermitian_solve, 0),
    ("function-system", "circle-1z", None, g_hermitian_solve, 1),
], ids=["hermitian-pass", "hermitian-fail", "positive", "system-1zzbar",
        "system-1z"])
def test_cli_writes_the_library_report(tmp_path, capsys, kind, name, element,
                                       check, code):
    space = write_catalog_file(tmp_path, name)
    out = tmp_path / "report.json"
    argv = ["check", kind, "--space", space, "--out", str(out)]
    if element is not None:
        argv += ["--element", json.dumps([[z.real, z.imag] for z in
                                          np.asarray(element, complex)])]
    assert main(argv) == code
    capsys.readouterr()
    text = (tmp_path / f"{name}.json").read_text()
    built = SpaceFile.loads(text).build_space()
    rep = check(built, None) if element is None else \
        check(built, None, element)
    assert json.loads(out.read_text())["checks"][0] == \
        json.loads(dumps_canonical(rep.to_dict()))


def test_recover_product_escape_exits_nonzero(tmp_path, capsys):
    space = write_catalog_file(tmp_path, "m2-upper")
    code = main(["recover", "product", "--space", space,
                 "--v", "[1, 0]", "--y", "[0, 1]"])
    assert code == 1
    captured = capsys.readouterr()
    assert "product escapes the space" in captured.err
    assert "recover-product: fail" in captured.out

    assert main(["recover", "product", "--space", space, "--v", "[1,0]"]) == 3


def test_a_product_escape_needs_a_coisometry(tmp_path, capsys):
    # v = diag(2, 1) on m2-full: v y* u = 0.8 E21 lies in the space, yet
    # the search certifies an excess near 10; v is not a coisometry, so the
    # excess is no escape
    space = write_catalog_file(tmp_path, "m2-full")
    code = main(["recover", "product", "--space", space,
                 "--v", "[1, 0, 0, 1]", "--y", "[0, 0.8, 0, 0]", "--t", "10"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error: v is not certified as a coisometry" in captured.err
    assert "escapes" not in captured.err


def test_a_short_product_search_does_not_claim_an_escape(tmp_path, capsys):
    # v = I and y = 0.8 E12 on m2-full: v y* u = 0.8 E21 lies in the space,
    # but 5 iterations leave the excess near 0.21, with no certified bound
    space = tmp_path / "m2-full.json"
    space.write_text(SpaceFile.from_space(catalog_space("m2-full"),
                                          solver={"max_iters": 5}).dumps())
    code = main(["recover", "product", "--space", str(space),
                 "--v", "[1, 0, 0, 0]", "--y", "[0, 0.8, 0, 0]", "--t", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert "recover-product: inconclusive" in captured.out
    assert "escaped: False" in captured.out
    assert "escapes" not in captured.err


def test_reports_identical_for_same_seed(tmp_path):
    space = write_catalog_file(tmp_path, "m2-full")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rep-{tag}.json"
        assert main(["check", "system", "--space", space, "--seed", "7",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    tree = json.loads(outs[0])
    assert tree["seed"] == 7
    assert tree["checks"][0]["name"] == "operator-system"


def test_seed_from_environment(tmp_path, monkeypatch, capsys):
    space = write_catalog_file(tmp_path, "m2-full")
    out = tmp_path / "rep.json"
    monkeypatch.setenv("OPSPACE_SEED", "13")
    assert main(["check", "unitary", "--space", space, "--level", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 13

    monkeypatch.setenv("OPSPACE_SEED", "not-a-number")
    assert main(["check", "unitary", "--space", space]) == 3
    capsys.readouterr()
    # a negative seed is an input error, not a traceback's exit 1 (FAIL)
    monkeypatch.setenv("OPSPACE_SEED", "-3")
    assert main(["check", "system", "--space", space]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.delenv("OPSPACE_SEED")
    assert main(["check", "system", "--space", space, "--seed", "-1"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["check", "unitary", "--bogus", "1"],
    ["check", "no-such-check"],
    ["check", "unitary", "--level", "two"],
    ["recover", "involution"],
], ids=["unknown-flag", "unknown-kind", "bad-int", "missing-space"])
def test_usage_errors_are_input_errors(tmp_path, capsys, argv):
    # argparse's own exit code 2 would read as inconclusive
    space = write_catalog_file(tmp_path, "m2-full")
    argv = argv + (["--space", space] if argv[0] == "check" else [])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "usage: opcert" in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--tol" not in capsys.readouterr().out


def test_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from opcert.cli import main; "
         "sys.exit(main(['catalog', 'list']))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == NAMES


@pytest.mark.parametrize("kind", ["involution", "product"])
def test_point_backed_recovery_reports_ambient_error(tmp_path, kind):
    # circle-1zzbar's ternary closure is not stable; the distance to
    # u x* u, or to v y* u, comes from the blocks
    report = tmp_path / "report.json"
    args = ["--x", "[0, 0.8, 0]"] if kind == "involution" else \
        ["--v", "[0, 1, 0]", "--y", "[0.3, 0.4, 0]"]
    code = main(["recover", kind,
                 "--space", write_catalog_file(tmp_path, "circle-1zzbar"),
                 *args, "--t", "10", "--out", str(report)])
    assert code == 0
    extra = json.loads(report.read_text())["extra"]
    assert 0.0 <= extra["ambient_error"] <= extra["bound"]
    if kind == "product":
        space = catalog_space("circle-1zzbar")
        got = space.embed(np.array([complex(*p) for p in extra["recovered"]]))
        truth = ambient_product(space, [0, 1, 0], [0.3, 0.4, 0],
                                space.unit_coeffs())
        dense = np.linalg.norm(got - block_diag(truth), 2)
        assert abs(extra["ambient_error"] - dense) <= 1e-12


def test_one_parser_serves_every_request_of_a_process(tmp_path, monkeypatch,
                                                      capsys):
    # main builds its parser once per process; check, recover and catalog
    # requests, interleaved, write the bytes that they write with a fresh
    # parser each
    space = write_catalog_file(tmp_path, "m2-full")
    requests = [
        ["check", "system", "--space", space, "--seed", "3"],
        ["recover", "product", "--space", space, "--v", "[1, 0, 0, 0]",
         "--y", "[0, 0.8, 0, 0]", "--t", "10"],
        ["catalog", "emit", "m2-sym3"],
        ["check", "unitary", "--space", space, "--level", "1"],
        ["recover", "involution", "--space", space, "--x", "[0, 0.5, 0, 0]"],
        ["catalog", "emit", "circle-1z", "--points", "12"],
        ["check", "hermitian", "--space", space, "--element",
         "[0.2, 0, 0, 0.5]"]]

    def run(tag):
        written = []
        for k, argv in enumerate(requests):
            out = tmp_path / f"{tag}-{k}.json"
            code = main(argv + ["--out", str(out)])
            written.append((code, capsys.readouterr().out, out.read_bytes()))
        return written

    builds, build = [], cli.build_parser

    def counted():
        builds.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    once = run("once")
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_parser", build)
    assert run("fresh") == once
