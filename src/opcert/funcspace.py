"""Function-space certificates on sampled domains, and the catalog.

A sampled function space is a point-backed `ConcreteOpSpace`: d basis
functions known by their values at m domain points, acting by
multiplication, so the basis is (d, m, 1, 1) and the norm is the max of
pointwise absolute values. A norm-one g acts like a unitary iff
|[f g]| = max_w sqrt(|f(w)|^2 + |g(w)|^2) equals sqrt(2) for every
norm-one f in the space, which is the level-one row defect of `certify`;
g-hermitian elements solve a pointwise real-linear system instead of a
matrix feasibility problem (the ambient solve of `hermit`). Every check
returns a CertificateReport and rejects any space that is not point-backed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certify import _certify
from .errors import InvalidInputError, PreconditionError
from .hermit import _ambient_hermitians
from .matcore import row_span
from .opspace import ConcreteOpSpace, make_space, space_from_points
from .report import FAIL, PASS, CertificateReport
from .solver import SolverConfig
from .tro import generate_tro

UNIMODULAR_TOL = 1e-9
CONJUGATION_TOL = 1e-8


def _point_backed(space) -> ConcreteOpSpace:
    if not (isinstance(space, ConcreteOpSpace) and space.diagonal):
        raise InvalidInputError(
            "function checks need a point-backed space (one 1 x 1 block "
            "per sample point)")
    return space


def scalar_unitary_check(space: ConcreteOpSpace, g=None,
                         config: SolverConfig | None = None
                         ) -> CertificateReport:
    """Does g/|g| pair with every norm-one f at |[f g]| = sqrt(2)?

    The rule of `certify` on the level-one row defect of g/|g|, which
    decides a point-backed space (the `certify` docstring says why).
    """
    _point_backed(space)
    gc = space.unit_coeffs(g)
    gn = space.norm(gc)
    if gn < 1e-12:
        raise InvalidInputError("g must be nonzero")
    rep = _certify(space, gc / gn, ("row",), 1, config, "function-unitary")
    rep.diagnostics["g_norm"] = gn
    return rep


def g_hermitian_solve(space: ConcreteOpSpace, g=None) -> CertificateReport:
    """Is the space a function system with unit g: do the exact solutions
    of {x : conj(g) x is real at every point} span it?

    Requires |g| = 1 pointwise; for unimodular g the hermitian condition
    at level one reduces to Im(conj(g(w)) x(w)) = 0 for all w, the ambient
    equation adjoint(g) x = adjoint(x) g of `hermit.delta_span`, solved by
    the same real-linear kernel.
    """
    _point_backed(space)
    gc = space.unit_coeffs(g)
    gv = space.point_values(gc)
    if np.max(np.abs(np.abs(gv) - 1.0)) > UNIMODULAR_TOL:
        raise PreconditionError("g is not unimodular on the sample points")
    herms = _ambient_hermitians(space, gc)
    cdim = row_span(herms)[1].size
    return CertificateReport(
        name="function-system", verdict=PASS if cdim == space.dim else FAIL,
        margin=float(cdim - space.dim), witness=None,
        diagnostics={"real_dim": herms.shape[0], "complex_dim": cdim,
                     "space_dim": space.dim})


def selfadjoint_unit_check(space: ConcreteOpSpace,
                           v=None) -> CertificateReport:
    """For conjugation-closed spaces: is v a unit making x -> v conj(x) v
    the usual conjugation, with the v-hermitians spanning?

    Preconditions (violations raise): the space is closed under pointwise
    conjugation, and v is real-valued and unimodular.
    """
    values = _point_backed(space).basis[:, :, 0, 0]
    vc = space.unit_coeffs(v)
    vv = space.point_values(vc)
    if np.max(np.abs(np.imag(vv))) > UNIMODULAR_TOL:
        raise PreconditionError("v is not real-valued on the sample points")
    if np.max(np.abs(np.abs(vv) - 1.0)) > UNIMODULAR_TOL:
        raise PreconditionError("v is not unimodular on the sample points")
    for k, x in enumerate(values):
        if not space.relative_membership(np.conj(x)[:, None, None])[2]:
            raise PreconditionError(
                f"space is not conjugation-closed (basis {k})")
    ghs = g_hermitian_solve(space, vc)
    worst = 0.0
    for x in values:
        dev = np.max(np.abs(vv * np.conj(x) * vv - np.conj(x)))
        worst = max(worst, float(dev) / max(1.0, float(np.max(np.abs(x)))))
    ok = ghs.passed and worst <= CONJUGATION_TOL
    return CertificateReport(
        name="selfadjoint-unit", verdict=PASS if ok else FAIL,
        margin=CONJUGATION_TOL - worst if ghs.passed else -1.0,
        witness=None,
        diagnostics={"conjugation_residual": worst,
                     "real_dim": ghs.diagnostics["real_dim"],
                     "complex_dim": ghs.diagnostics["complex_dim"],
                     "is_function_system": ghs.passed})


@dataclass
class CatalogEntry:
    name: str
    kind: str                      # "function" or "matrix"
    aliases: tuple = ()
    builder: Callable = None

    def build(self, points: int | None = None) -> ConcreteOpSpace:
        if points is None:
            points = 360
        elif points < 1:
            raise InvalidInputError(f"points must be positive, got {points}")
        if self.kind == "function":
            return self.builder(points)
        return self.builder()

    def min_space(self, points: int | None = None) -> ConcreteOpSpace:
        # the same space as build(); perfbench/prepare.py calls it by name
        return self.build(points)


def _circle_points(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def _build_circle_1zzbar(m: int) -> ConcreteOpSpace:
    z = _circle_points(m)
    basis = np.stack([np.ones(m), z, np.conj(z)])
    return space_from_points(basis, unit=np.array([1.0, 0, 0]))


def _build_circle_1z(m: int) -> ConcreteOpSpace:
    z = _circle_points(m)
    basis = np.stack([np.ones(m), z])
    return space_from_points(basis, unit=np.array([1.0, 0]))


def _build_two_circles(m: int) -> ConcreteOpSpace:
    """Two disjoint circles; f = 1 + z on each copy, g flips sign between
    the copies. Basis [1, g, f, conj(f)], designated unit g."""
    z = _circle_points(m)
    one = np.ones(m)
    f = np.concatenate([one + z, one + z])
    g = np.concatenate([one, -one])
    basis = np.stack([np.concatenate([one, one]), g, f, np.conj(f)])
    return space_from_points(basis, unit=np.array([0, 1.0, 0, 0]))


def _build_m2_full() -> ConcreteOpSpace:
    e = np.eye(2, dtype=np.complex128)
    b = np.stack([e,
                  np.array([[0, 1], [0, 0]], dtype=np.complex128),
                  np.array([[0, 0], [1, 0]], dtype=np.complex128),
                  np.array([[0, 0], [0, 1]], dtype=np.complex128)])
    return make_space(b, unit=np.array([1.0, 0, 0, 0]))


def _build_m2_upper() -> ConcreteOpSpace:
    e = np.eye(2, dtype=np.complex128)
    b = np.stack([e, np.array([[0, 1], [0, 0]], dtype=np.complex128)])
    return make_space(b, unit=np.array([1.0, 0]))


def _build_m2_sym3() -> ConcreteOpSpace:
    e = np.eye(2, dtype=np.complex128)
    b = np.stack([e,
                  np.array([[0, 1], [0, 0]], dtype=np.complex128),
                  np.array([[0, 0], [1, 0]], dtype=np.complex128)])
    return make_space(b, unit=np.array([1.0, 0, 0]))


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("circle-1zzbar", "function", aliases=("circle-1zz̄",),
                 builder=_build_circle_1zzbar),
    CatalogEntry("circle-1z", "function", builder=_build_circle_1z),
    CatalogEntry("two-circles", "function", builder=_build_two_circles),
    CatalogEntry("m2-full", "matrix", builder=_build_m2_full),
    CatalogEntry("m2-upper", "matrix", builder=_build_m2_upper),
    CatalogEntry("m2-sym3", "matrix", builder=_build_m2_sym3),
)


def catalog_names() -> list[str]:
    return [e.name for e in CATALOG]


def catalog_entry(name: str) -> CatalogEntry:
    for e in CATALOG:
        if e.name == name or name in e.aliases:
            return e
    raise InvalidInputError(f"unknown catalog entry: {name!r}")


def catalog_space(name: str, points: int | None = None) -> ConcreteOpSpace:
    return catalog_entry(name).build(points)


def catalog_closure(name: str, points: int | None = None):
    """Ternary closure of a catalog space's operator model, marked
    envelope-exact so that downstream ambient checks are licensed.

    The matrix entries (m2-*) run to stability, so their closure is the
    exact envelope. The point-backed entries (circle-1zzbar, circle-1z,
    two-circles) are truncated at the cap of `tro.generate_tro`
    (stable=False, rank 23, 24 and 24 at 360 points): a span of the
    envelope that the ambient checks read as its model.
    """
    space = catalog_space(name, points)
    return generate_tro(space, envelope_exact=True)
