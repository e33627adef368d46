"""Canonical on-disk formats: one space per file, machine-readable reports.

The tree is plain JSON with two conventions that make round-trips exact:
complex numbers are always two-element [re, im] arrays (never bare floats),
and floats are written with 17 significant digits so parse -> re-emit is
byte-identical. Parse failures carry the offending field path.

A space file has one of two kinds, and both read back as a
`ConcreteOpSpace`. A `function` file holds a point-backed space (a sampled
function space) as m values per basis element; a `matrix` file holds any
other space as its p x q basis matrices.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .opspace import ConcreteOpSpace, make_space, space_from_points

FORMAT_SPACE = "opcert-space"
FORMAT_REPORT = "opcert-report"
FORMAT_VERSION = 1


class ParseError(InvalidInputError):
    """Malformed space or report file; .path names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError("non-finite float cannot be serialized")
    if x == 0.0:
        return "0"   # canonical zero; JSON parses -0 as integer 0 anyway
    return "%.17g" % x


def dumps_canonical(tree) -> str:
    """Deterministic JSON text: insertion-ordered keys, %.17g floats,
    complex values as [re, im], trailing newline."""
    out = []

    def write(obj):
        if isinstance(obj, dict):
            out.append("{")
            for i, (k, v) in enumerate(obj.items()):
                if i:
                    out.append(",")
                out.append(json.dumps(str(k)))
                out.append(":")
                write(v)
            out.append("}")
        elif isinstance(obj, (list, tuple)):
            out.append("[")
            for i, v in enumerate(obj):
                if i:
                    out.append(",")
                write(v)
            out.append("]")
        elif isinstance(obj, np.ndarray):
            write(obj.tolist())
        elif isinstance(obj, bool) or isinstance(obj, np.bool_):
            out.append("true" if obj else "false")
        elif isinstance(obj, (int, np.integer)):
            out.append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            out.append(_fmt_float(float(obj)))
        elif isinstance(obj, (complex, np.complexfloating)):
            write([float(np.real(obj)), float(np.imag(obj))])
        elif isinstance(obj, str):
            out.append(json.dumps(obj))
        elif obj is None:
            out.append("null")
        else:
            raise InvalidInputError(f"cannot serialize {type(obj).__name__}")

    write(tree)
    out.append("\n")
    return "".join(out)


def _as_complex(node, path: str) -> complex:
    if isinstance(node, (int, float)):
        node = [node, 0]
    if not (isinstance(node, list) and len(node) == 2 and
            all(isinstance(v, (int, float)) for v in node)):
        raise ParseError(path, "expected a number or an [re, im] pair")
    try:
        z = complex(node[0], node[1])
    except OverflowError:
        raise ParseError(path, "number out of range") from None
    # json accepts NaN and Infinity, which no norm computation survives
    if not cmath.isfinite(z):
        raise ParseError(path, "non-finite number")
    return z


def _complex_vector(node, path: str) -> np.ndarray:
    if not isinstance(node, list):
        raise ParseError(path, "expected an array")
    return np.array([_as_complex(v, f"{path}[{i}]")
                     for i, v in enumerate(node)], dtype=np.complex128)


def loads_coeffs(text: str, path: str) -> np.ndarray:
    """A coefficient vector from JSON text: an array whose entries are
    reals or [re, im] pairs, all finite. Errors name ``path``."""
    try:
        node = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from None
    return _complex_vector(node, path)


def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


@dataclass
class SpaceFile:
    kind: str                       # "matrix" or "function"
    basis: np.ndarray               # (d, p, q) matrices or (d, m) point values
    unit: np.ndarray | None = None
    cone: np.ndarray | None = None  # (G, d) coefficient vectors
    solver: dict | None = None

    @classmethod
    def from_space(cls, space: ConcreteOpSpace, cone=None,
                   solver=None) -> "SpaceFile":
        """A point-backed space is written as a function file (m values per
        basis element), any other as a matrix file of its ambient matrices."""
        if space.diagonal:
            return cls(kind="function", basis=space.basis[:, :, 0, 0],
                       unit=space.unit, cone=cone, solver=solver)
        basis = np.stack([space.embed(e) for e in np.eye(space.dim)])
        return cls(kind="matrix", basis=basis,
                   unit=space.unit, cone=cone, solver=solver)

    def build_space(self) -> ConcreteOpSpace:
        if self.kind == "function":
            return space_from_points(self.basis, unit=self.unit)
        return make_space(self.basis, unit=self.unit)

    def to_tree(self) -> dict:
        tree = {"format": FORMAT_SPACE, "version": FORMAT_VERSION,
                "kind": self.kind}
        if self.kind == "function":
            tree["points"] = int(self.basis.shape[1])
            tree["basis"] = [[_pair(v) for v in row] for row in self.basis]
        else:
            tree["shape"] = [int(self.basis.shape[1]),
                             int(self.basis.shape[2])]
            tree["basis"] = [[[_pair(v) for v in row] for row in mat]
                             for mat in self.basis]
        tree["unit"] = None if self.unit is None else \
            [_pair(v) for v in self.unit]
        tree["cone"] = None if self.cone is None else \
            [[_pair(v) for v in row] for row in np.atleast_2d(self.cone)]
        tree["solver"] = self.solver
        return tree

    def dumps(self) -> str:
        return dumps_canonical(self.to_tree())

    @classmethod
    def parse_tree(cls, tree) -> "SpaceFile":
        if not isinstance(tree, dict):
            raise ParseError("$", "top level must be an object")
        if tree.get("format") != FORMAT_SPACE:
            raise ParseError("format", f"expected {FORMAT_SPACE!r}")
        kind = tree.get("kind")
        if kind not in ("matrix", "function"):
            raise ParseError("kind", "expected 'matrix' or 'function'")
        raw = tree.get("basis")
        if not isinstance(raw, list) or not raw:
            raise ParseError("basis", "expected a nonempty array")
        if kind == "function":
            m = tree.get("points")
            if not isinstance(m, int) or m < 1:
                raise ParseError("points", "expected a positive integer")
            basis = np.stack([_complex_vector(row, f"basis[{i}]")
                              for i, row in enumerate(raw)])
            if basis.shape[1] != m:
                raise ParseError("basis", f"rows must have {m} points")
        else:
            shape = tree.get("shape")
            if (not isinstance(shape, list) or len(shape) != 2
                    or not all(isinstance(v, int) and v > 0 for v in shape)):
                raise ParseError("shape", "expected [rows, cols] positive ints")
            p, q = shape
            mats = []
            for i, mat in enumerate(raw):
                if not isinstance(mat, list) or len(mat) != p:
                    raise ParseError(f"basis[{i}]", f"expected {p} rows")
                mats.append(np.stack([
                    _complex_vector(row, f"basis[{i}][{j}]")
                    for j, row in enumerate(mat)]))
                if mats[-1].shape != (p, q):
                    raise ParseError(f"basis[{i}]", f"rows must have {q} cols")
            basis = np.stack(mats)
        d = basis.shape[0]
        unit = tree.get("unit")
        if unit is not None:
            unit = _complex_vector(unit, "unit")
            if unit.shape[0] != d:
                raise ParseError("unit", f"expected {d} coefficients")
        cone = tree.get("cone")
        if cone is not None:
            if not isinstance(cone, list):
                raise ParseError("cone", "expected an array of vectors")
            rows = [_complex_vector(row, f"cone[{i}]")
                    for i, row in enumerate(cone)]
            for i, row in enumerate(rows):
                if row.shape[0] != d:
                    raise ParseError(f"cone[{i}]", f"expected {d} coefficients")
            cone = np.stack(rows) if rows else None
        solver = tree.get("solver")
        if solver is not None and not isinstance(solver, dict):
            raise ParseError("solver", "expected an object of overrides")
        return cls(kind=kind, basis=basis, unit=unit, cone=cone,
                   solver=solver)

    @classmethod
    def loads(cls, text: str) -> "SpaceFile":
        try:
            tree = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError("$", f"invalid JSON: {exc}") from None
        return cls.parse_tree(tree)


def report_tree(reports, command: str, seed: int, version: str,
                extra: dict | None = None) -> dict:
    """ReportFile tree: command echo, seed, tool version, one node per
    check. No timestamps, so identical runs serialize identically."""
    tree = {"format": FORMAT_REPORT, "version": FORMAT_VERSION,
            "tool_version": version, "command": command, "seed": int(seed),
            "checks": [r.to_dict() for r in reports]}
    if extra:
        tree["extra"] = extra
    return tree


def dumps_report(reports, command: str, seed: int, version: str,
                 extra: dict | None = None) -> str:
    return dumps_canonical(report_tree(reports, command, seed, version,
                                       extra=extra))
