"""Detection of u-hermitian and u-positive elements and their span.

An element x is u-hermitian when |u + itx|^2 <= 1 + |x|^2 t^2 for all real
t; intrinsically, a contraction x is u-hermitian exactly when the level-2
block [[tu, x], [-x, tu]] has norm at most sqrt(t^2 + 1) for every t > 0.
Both criteria are evaluated on a fixed t grid, checked by
`solver.valid_t_grid`, and `is_u_hermitian` reports the slack of each.
u-positives are the u-hermitians x with | |x| u - x | <= |x|.

The span of the u-hermitians is computed two ways: an exact real-linear
ambient solve of adjoint(x) u = adjoint(u) x (taken when `tro.licenses`
grants it: the ternary closure is flagged envelope-exact and certifies u
as an ambient unitary; the same solve, read point by point, is
`funcspace.g_hermitian_solve`), or intrinsic screening
of candidate combinations through the grid criteria. The intrinsic route
can only under-detect, so its non-spanning verdicts are reported as
inconclusive rather than failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import t_frames
from .matcore import adjoint, real_kernel, row_span
from .opspace import ConcreteOpSpace
from .report import FAIL, INCONCLUSIVE, PASS, CertificateReport
from .solver import DEFAULT_T_GRID, valid_t_grid
from .tro import licenses

HERMIT_TOL = 1e-8


def is_u_hermitian(space: ConcreteOpSpace, u, x,
                   t_grid=None) -> CertificateReport:
    """Is x u-hermitian on the t grid? The diagnostics hold each
    criterion's slack per t (the matricial one taken on x/|x| when scaled);
    the margin is the least slack plus HERMIT_TOL."""
    uc = space.unit_coeffs(u)
    xc = space.as_coeffs(x)
    nx = space.norm(xc)
    grid = valid_t_grid(t_grid if t_grid is not None else DEFAULT_T_GRID)
    signed = np.array(sorted({s * t for t in grid for s in (1.0, -1.0)}))
    k = nx * nx
    rows = uc + 1j * signed[:, None] * xc
    scalar = (1.0 + k * signed * signed) - space.grid_norm(rows[:, None, None, :]) ** 2
    scaled = nx > 1.0 + 1e-12
    xhat = xc / nx if scaled else xc
    pos = np.array(sorted(grid))
    matricial = np.sqrt(pos * pos + 1.0) - space.grid_norm(
        t_frames(space, pos, uc, xhat, -xhat))
    min_slack = float(min(scalar.min(), matricial.min()))
    passed = min_slack >= -HERMIT_TOL
    return CertificateReport(
        name="u-hermitian", verdict=PASS if passed else FAIL,
        margin=min_slack + HERMIT_TOL,
        witness=None if passed else {"element": xc},
        diagnostics={"scalar_slack": scalar, "matricial_slack": matricial,
                     "scaled": scaled, "element_norm": nx})


def is_u_positive(space: ConcreteOpSpace, u, x,
                  t_grid=None) -> CertificateReport:
    uc = space.unit_coeffs(u)
    xc = space.as_coeffs(x)
    nx = space.norm(xc)
    herm = is_u_hermitian(space, uc, xc, t_grid=t_grid)
    # the least slack itself: margin - HERMIT_TOL can differ by rounding
    least = min(herm.diagnostics[k].min()
                for k in ("scalar_slack", "matricial_slack"))
    shift = space.norm(nx * uc - xc)
    shift_ok = shift <= nx + HERMIT_TOL
    diag = {"hermitian_min_slack": float(least), "shift_norm": shift,
            "element_norm": nx}
    if nx <= 1.0 + 1e-12:
        grid = np.array(sorted(t_grid if t_grid is not None else DEFAULT_T_GRID))
        y = uc - xc
        slack = np.sqrt(grid * grid + 1.0) - space.grid_norm(
            t_frames(space, grid, uc, y, -y))
        diag["ball_criterion_slack"] = slack
        diag["ball_criterion_pass"] = bool(slack.min() >= -HERMIT_TOL)
    ok = herm.passed and shift_ok
    return CertificateReport(
        name="u-positive", verdict=PASS if ok else FAIL,
        margin=min(herm.margin, nx + HERMIT_TOL - shift),
        witness=None, diagnostics=diag)


@dataclass
class DeltaSpan:
    real_basis: np.ndarray     # (r, d) coefficient vectors, real-linear basis
    complex_basis: np.ndarray  # (k, d) spanning the complex span
    route: str                 # "ambient" or "numerical"

    @property
    def real_dim(self) -> int:
        return self.real_basis.shape[0]

    @property
    def complex_dim(self) -> int:
        return self.complex_basis.shape[0]


def _ambient_hermitians(space: ConcreteOpSpace, uc: np.ndarray) -> np.ndarray:
    """Coefficient rows of an orthonormal real basis of the exact solutions
    of adjoint(u) x = adjoint(x) u, the kernel of the real-linear map
    c -> adjoint(u) x(c) - adjoint(x(c)) u."""
    m = adjoint(space.blocks(uc)) @ space.basis      # u* b_k, blockwise
    mh = adjoint(m)                                  # b_k* u
    d = space.dim
    kern = real_kernel(np.vstack([(m - mh).reshape(d, -1),
                                  (1j * (m + mh)).reshape(d, -1)]))
    return kern[:, :d] + 1j * kern[:, d:]


def delta_span(space: ConcreteOpSpace, u=None, closure=None) -> DeltaSpan:
    """Real basis of the u-hermitians in the space and of their complex span.

    When `tro.licenses(closure, u)`, the hermitians are the exact
    solution set of a real-linear system; otherwise u and candidate
    combinations of basis elements are screened through the grid criteria
    on the default t grid.
    """
    uc = space.unit_coeffs(u)
    d = space.dim
    if licenses(closure, uc):
        rows, route = _ambient_hermitians(space, uc), "ambient"
    else:
        keep = [c for c in _candidates(uc)
                if is_u_hermitian(space, uc, c).passed]
        rows, route = np.reshape(keep, (-1, d)), "numerical"
    # re-orthonormalize in the real (2d) coordinates
    flat, _ = row_span(np.hstack([np.real(rows), np.imag(rows)]))
    real_basis = flat[:, :d] + 1j * flat[:, d:]
    complex_basis, _ = row_span(real_basis)
    return DeltaSpan(real_basis=real_basis, complex_basis=complex_basis,
                     route=route)


def _candidates(uc: np.ndarray) -> list:
    """u, which is always u-hermitian, then the basis elements and their
    pairwise combinations."""
    d = uc.shape[0]
    out = [uc]
    eye = np.eye(d, dtype=np.complex128)
    for j in range(d):
        out.append(eye[j])
        out.append(1j * eye[j])
    for j in range(d):
        for k in range(j + 1, d):
            out.append(eye[j] + eye[k])
            out.append(eye[j] - eye[k])
            out.append(eye[j] + 1j * eye[k])
            out.append(eye[j] - 1j * eye[k])
    return out


def operator_system_check(space: ConcreteOpSpace, u=None,
                          closure=None) -> CertificateReport:
    """Do the u-hermitians span the whole space?"""
    uc = space.unit_coeffs(u)
    ds = delta_span(space, uc, closure=closure)
    spanning = ds.complex_dim == space.dim
    if spanning:
        verdict = PASS
    elif ds.route == "ambient":
        verdict = FAIL
    else:
        # screening can miss hermitians, so a short span is not a disproof
        verdict = INCONCLUSIVE
    return CertificateReport(
        name="operator-system", verdict=verdict,
        margin=float(ds.complex_dim - space.dim),
        witness=None,
        diagnostics={"real_dim": ds.real_dim, "complex_dim": ds.complex_dim,
                     "space_dim": space.dim, "route": ds.route})
