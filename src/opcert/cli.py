"""Command-line entry point.

Subcommands: `check` (certificate checks on a space file), `recover`
(involution and product reconstruction), `catalog` (named example spaces).
Exit codes: 0 pass, 1 fail, 2 inconclusive, 3 usage, input or
precondition error.
Reports are deterministic for a fixed seed; the default seed comes from
the OPSPACE_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import __version__
from .blocks import ambient_product
from .certify import certify_coisometry, certify_isometry, certify_unitary
from .cstar import detect_cstar, recover_product
from .errors import InvalidInputError, PreconditionError, SolverError
from .funcspace import (catalog_entry, catalog_names, g_hermitian_solve,
                        scalar_unitary_check)
from .hermit import is_u_hermitian, is_u_positive
from .matcore import block_norms
from .order import Cone, norm_order_unit_check
from .report import FAIL, INCONCLUSIVE, PASS, CertificateReport
from .serialize import SpaceFile, dumps_report, loads_coeffs
from .solver import SolverConfig
from .sysdetect import RECOVERY_T, detect_operator_system, recover_involution

EXIT_BY_VERDICT = {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}
EXIT_INPUT_ERROR = 3

MATRIX_CHECKS = ("unitary", "isometry", "coisometry", "hermitian",
                 "positive", "system", "cstar", "order-unit")
FUNCTION_CHECKS = ("function-unitary", "function-system")


def _default_seed() -> int:
    raw = os.environ.get("OPSPACE_SEED")
    if raw is None:
        return 7
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(
            f"OPSPACE_SEED must be an integer, got {raw!r}") from None


def _load_space_file(path: str) -> SpaceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return SpaceFile.loads(fh.read())
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None


def _solver_config(args, sf: SpaceFile) -> SolverConfig:
    overrides = dict(sf.solver or {})
    if getattr(args, "t_grid", None):
        overrides["t_grid"] = args.t_grid.split(",")
    # the seed has one source, --seed or OPSPACE_SEED, which the report records
    known = {f.name for f in dataclasses.fields(SolverConfig)} - {"root_seed"}
    bad = set(overrides) - known
    if bad:
        raise InvalidInputError(f"unknown solver overrides: {sorted(bad)}")
    if "t_grid" in overrides:
        try:
            overrides["t_grid"] = tuple(float(v) for v in overrides["t_grid"])
        except (TypeError, ValueError):
            raise InvalidInputError("t_grid must be a list of numbers") from None
    config = SolverConfig(**overrides | {"root_seed": args.seed})
    config.validate()
    return config


def _emit(args, reports, command: str, extra: dict | None = None) -> None:
    for rep in reports:
        line = f"{rep.name}: {rep.verdict} (margin={rep.margin:.6g})"
        print(line)
    if extra:
        for key, val in extra.items():
            if not isinstance(val, (dict, list)):
                print(f"{key}: {val}")
    if args.out:
        text = dumps_report(reports, command, args.seed, __version__,
                            extra=extra)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_check(args) -> int:
    sf = _load_space_file(args.space)
    space = sf.build_space()
    config = _solver_config(args, sf)
    kind = args.kind
    if kind in FUNCTION_CHECKS:
        gc = space.unit_coeffs() if args.element is None else \
            loads_coeffs(args.element, "--element")
        if kind == "function-unitary":
            rep = scalar_unitary_check(space, gc, config=config)
        else:
            rep = g_hermitian_solve(space, gc)
        _emit(args, [rep], _echo(args))
        return EXIT_BY_VERDICT[rep.verdict]
    uc = space.unit_coeffs()
    if kind in ("hermitian", "positive"):
        if args.element is None:
            raise InvalidInputError(f"check {kind} requires --element")
        xc = space.as_coeffs(loads_coeffs(args.element, "--element"))
        check = is_u_hermitian if kind == "hermitian" else is_u_positive
        rep = check(space, uc, xc, t_grid=config.t_grid)
    elif kind == "unitary":
        rep = certify_unitary(space, uc, max_level=args.level, config=config)
    elif kind == "isometry":
        rep = certify_isometry(space, uc, max_level=args.level, config=config)
    elif kind == "coisometry":
        rep = certify_coisometry(space, uc, max_level=args.level,
                                 config=config)
    elif kind == "system":
        rep = detect_operator_system(space, uc, config=config)
    elif kind == "cstar":
        rep, _ = detect_cstar(space, uc, config=config)
    elif kind == "order-unit":
        if sf.cone is None:
            raise InvalidInputError(
                "check order-unit requires a cone in the space file")
        cone = Cone(space, sf.cone)
        rep = norm_order_unit_check(cone, uc, seed=args.seed)
    else:
        raise InvalidInputError(f"unknown check kind: {kind!r}")
    _emit(args, [rep], _echo(args))
    return EXIT_BY_VERDICT[rep.verdict]


def _ambient_error(space, coeffs, a, b, c) -> float:
    """Operator-norm distance of an element to the ambient product
    a adjoint(b) c, block by block."""
    truth = ambient_product(space, a, b, c)
    return float(np.max(block_norms(space.blocks(coeffs) - truth)))


def cmd_recover(args) -> int:
    sf = _load_space_file(args.space)
    space = sf.build_space()
    config = _solver_config(args, sf)
    uc = space.unit_coeffs()
    if args.kind == "involution":
        if args.x is None:
            raise InvalidInputError("recover involution requires --x")
        xc = space.as_coeffs(loads_coeffs(args.x, "--x"))
        elem = recover_involution(space, uc, xc, t_large=args.t,
                                  config=config)
        err = _ambient_error(space, elem.coeffs, uc, xc, uc)
        extra = {"recovered": elem.coeffs, "bound": elem.bound,
                 "ambient_error": err}
        rep = CertificateReport(
            name="recover-involution", verdict=PASS, margin=0.0,
            witness={"coeffs": elem.coeffs},
            diagnostics={k: v for k, v in extra.items() if k != "recovered"})
        _emit(args, [rep], _echo(args), extra=extra)
        return 0
    if args.v is None or args.y is None:
        raise InvalidInputError("recover product requires --v and --y")
    vc = space.as_coeffs(loads_coeffs(args.v, "--v"))
    yc = space.as_coeffs(loads_coeffs(args.y, "--y"))
    res = recover_product(space, uc, vc, yc, t=args.t, config=config)
    amb_err = _ambient_error(space, res.element.coeffs, vc, yc, uc)
    extra = {"recovered": res.element.coeffs, "achieved": res.achieved,
             "target": res.target, "bound": res.bound,
             "ambient_error": amb_err, "escaped": res.escaped}
    # a miss of fail_tol that the search does not certify leaves the
    # escape open
    verdict = FAIL if res.escaped else \
        PASS if res.achieved - res.target < config.fail_tol else INCONCLUSIVE
    rep = CertificateReport(
        name="recover-product", verdict=verdict,
        margin=res.target + config.fail_tol - res.achieved,
        witness={"coeffs": res.element.coeffs},
        diagnostics={"achieved": res.achieved, "target": res.target,
                     "bound": res.bound, "ambient_error": amb_err,
                     "escaped": res.escaped})
    _emit(args, [rep], _echo(args), extra=extra)
    if res.escaped:
        print("product escapes the space", file=sys.stderr)
    elif verdict == INCONCLUSIVE:
        print("product search missed its target without certifying an "
              "escape", file=sys.stderr)
    return EXIT_BY_VERDICT[verdict]


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog_names():
            print(name)
        return 0
    entry = catalog_entry(args.name)
    built = entry.build(args.points)
    sf = SpaceFile.from_space(built)
    text = sf.dumps()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _echo(args) -> str:
    parts = [args.command]
    for key in ("kind", "action", "name", "space", "element", "x", "v", "y",
                "level", "t", "t_grid", "points", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            parts.append(f"{key}={val}")
    return " ".join(parts)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the INCONCLUSIVE code
    def error(self, message):
        raise InvalidInputError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opcert",
        description="certificates for unital operator spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a certificate check")
    check.add_argument("kind", choices=MATRIX_CHECKS + FUNCTION_CHECKS)
    check.add_argument("--space", required=True)
    check.add_argument("--element", default=None,
                       help="JSON coefficient array, entries x or [re, im]")
    check.add_argument("--level", type=int, default=2)
    check.add_argument("--t-grid", dest="t_grid", default=None)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_check)

    recover = sub.add_parser("recover", help="reconstruct hidden structure")
    recover.add_argument("kind", choices=("involution", "product"))
    recover.add_argument("--space", required=True)
    recover.add_argument("--x", default=None)
    recover.add_argument("--v", default=None)
    recover.add_argument("--y", default=None)
    recover.add_argument("--t", type=float, default=RECOVERY_T)
    recover.add_argument("--seed", type=int, default=None)
    recover.add_argument("--out", default=None)
    recover.set_defaults(func=cmd_recover)

    catalog = sub.add_parser("catalog", help="named example spaces")
    catalog.add_argument("action", choices=("list", "emit"))
    catalog.add_argument("name", nargs="?", default=None)
    catalog.add_argument("--points", type=int, default=None)
    catalog.add_argument("--out", default=None)
    catalog.set_defaults(func=cmd_catalog)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs about 1 ms,
    which each in-process request would pay again, and parsing leaves it
    as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        if args.command == "catalog" and args.action == "emit" \
                and not args.name:
            raise InvalidInputError("catalog emit requires a name")
        return args.func(args)
    except (InvalidInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
