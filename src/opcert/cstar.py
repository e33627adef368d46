"""C*-structure detection and forgotten-product reconstruction.

The multiplication is recaptured through unitaries: for a unitary v and a
ball element y, the z in Ball(X) minimizing |[[t u, y], [z, t v]]| converges
to -(v adjoint(y) u) as t grows, with error at most 1/t + 1/t^2. The
search minimizes the excess of that norm over sqrt(t^2 + |y|^2), the
`blocks.SlotProblem` of one t frame, toward zero, which it reaches
exactly when the product stays in the space; a certified lower bound of
fail_tol or more on that excess flags the product as escaped. Products
of arbitrary elements follow by writing the left factor over a spanning
set of unitaries (collected by averaging hermitians into pairs of
unitaries) and extending linearly.
The detection verdict combines operator-system detection, the unitary
spanning check, and product closure. Every stage from the unitary span on
needs an envelope-exact closure: `unitary_span_check` demands one, since
the unitaries other than the unit come from `hermitian_to_unitaries`, which
needs it, and product closure is
the ambient membership check of each v adjoint(e) u. There is no
intrinsic escape search; the product searches run only for the table,
which recovers every product intrinsically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import SlotProblem, ambient_product, t_frames
from .certify import certify_coisometry, certify_isometry
from .errors import InvalidInputError, PreconditionError
from .hermit import delta_span, is_u_hermitian
from .matcore import EIG_CLAMP, adjoint, block_diag, psd_sqrt, row_span
from .opspace import ConcreteOpSpace, Element
from .report import FAIL, PASS, CertificateReport
from .solver import SolverConfig, minimize_over_ball
from .sysdetect import (RECOVERY_T, detect_operator_system, find_partner,
                        recovery_bound)
from .tro import ambient_unitary_check

DEDUPE_TOL = 1e-6
# the t of the product table's searches: its bound 1/t + 1/t^2 is ~1e-5
TABLE_T = 1e5


@dataclass
class RecoveredProduct:
    element: Element              # the candidate product (-z, or -y for the left variant)
    escaped: bool                 # the excess is certified at fail_tol or more
    achieved: float               # block norm at the minimizer
    target: float                 # sqrt(t^2 + |given|^2), attained iff the product stays in X
    bound: float                  # recovery_bound: ambient error when not escaped
    ambient_truth: np.ndarray | None
    converged: bool
    diagnostics: dict


def _solve_product(space, uc, vc, given, slot, t, config, warm_start=False):
    config = config or SolverConfig()
    if not 0 < t < np.inf:
        raise InvalidInputError("t must be positive and finite")
    ng = space.norm(given)
    if ng > 1.0 + 1e-9:
        raise InvalidInputError("given factor must lie in the unit ball")
    target = float(np.sqrt(t * t + ng * ng))
    y, z = (given, None) if slot == (1, 0) else (None, given)
    problem = SlotProblem(space, t_frames(space, (t,), uc, y, z, vc), slot,
                          target)
    # the product the search recovers: v adjoint(given) u for slot (1, 0),
    # u adjoint(given) v for slot (0, 1)
    truth = ambient_product(space, *((vc, given, uc) if slot == (1, 0)
                                     else (uc, given, vc)))
    # the excess of the block norm over the target, minimized to 0; a warm
    # start is the projected ambient product, and the block norm is still
    # evaluated from scratch, so it cannot fake feasibility
    start = None
    if warm_start:
        proj, _, member = space.relative_membership(truth)
        start = -proj if member else None
    res = minimize_over_ball(problem, config, target=0.0, start=start)
    escaped = res.lower >= config.fail_tol
    if escaped:
        _require_ternary_unitary(space, vc, slot, config)
    return RecoveredProduct(
        element=space.element(-res.coeffs), escaped=bool(escaped),
        achieved=target + res.value, target=target,
        bound=recovery_bound(t, res.value), ambient_truth=block_diag(truth),
        converged=res.converged, diagnostics=res.diagnostics)


def _require_ternary_unitary(space, vc, slot, config):
    """Raise PreconditionError unless v is certified as the coisometry
    (slot (1, 0)) or isometry (slot (0, 1)) the recovery needs: for any
    other v a product inside the space can miss its target too, so an
    excess says nothing about an escape."""
    certify, kind = (certify_coisometry, "a coisometry") if slot == (1, 0) \
        else (certify_isometry, "an isometry")
    try:
        passed = certify(space, vc, config=config).passed
    except PreconditionError:       # v lies outside the unit ball
        passed = False
    if not passed:
        raise PreconditionError(f"v is not certified as {kind}, so the "
                                "product search cannot tell an escape")


def recover_product(space: ConcreteOpSpace, u, v, y, t: float = RECOVERY_T,
                    config: SolverConfig | None = None) -> RecoveredProduct:
    """Candidate for v adjoint(y) u recovered from the block norm alone.

    v must act as a ternary unitary (a coisometry suffices for this
    direction). When the true product lies inside X the candidate is within
    ``bound`` = 1/t + 1/t^2 + 2 excess + 2 eps_stop of it in the operator
    norm, where excess is the block norm's miss of its target; when it does
    not, the minimum stays strictly above the target, and the result is
    flagged escaped once the search certifies a lower bound of fail_tol
    on the excess. A miss of fail_tol or more that the search does not
    certify is not flagged: whether the product escapes is then open.
    Before flagging an escape, v is certified as a coisometry; if it is
    not, PreconditionError is raised.
    The search starts cold, from 0, so the achieved error scales with 1/t
    instead of echoing the ambient product back.
    """
    uc, vc, yc = space.as_coeffs(u), space.as_coeffs(v), space.as_coeffs(y)
    return _solve_product(space, uc, vc, yc, (1, 0), t, config)


def recover_product_left(space: ConcreteOpSpace, u, v, z,
                         t: float = RECOVERY_T,
                         config: SolverConfig | None = None) -> RecoveredProduct:
    """Left-variant recovery: the y with z = -(v adjoint(y) u), i.e. a
    candidate for u adjoint(z) v. Requires v to act as an isometry, which
    is certified before an escape is flagged (PreconditionError if not)."""
    uc, vc, zc = space.as_coeffs(u), space.as_coeffs(v), space.as_coeffs(z)
    return _solve_product(space, uc, vc, zc, (0, 1), t, config)


@dataclass
class HermitianSplit:
    v1_coeffs: np.ndarray
    v2_coeffs: np.ndarray
    v1_residual: float
    v2_residual: float
    v1_unitary: bool
    v2_unitary: bool
    passed: bool


def _require_exact(closure):
    if closure is None or not closure.envelope_exact:
        raise PreconditionError("an envelope-exact closure is required")


def hermitian_to_unitaries(space: ConcreteOpSpace, u, x,
                           closure) -> HermitianSplit:
    """Write a hermitian contraction as the average of two unitaries.

    Constructs v1 = x + i u sqrt(1 - a^2) with a = adjoint(u) x in the
    unitalized picture, and v2 = 2x - v1. Both are returned with their
    membership residuals; passed means both are members certified as
    ternary unitaries.
    """
    _require_exact(closure)
    uc = space.as_coeffs(u)
    xc = space.as_coeffs(x)
    # psd_sqrt below accepts 1 - a^2 down to -EIG_CLAMP, and |a| = |x|:
    # half of that clamp leaves room for rounding in u
    if space.norm(xc) ** 2 > 1.0 + 0.5 * EIG_CLAMP:
        raise InvalidInputError("x must lie in the unit ball")
    if not is_u_hermitian(space, uc, xc).passed:
        raise PreconditionError("x is not hermitian for this unit")
    ub, xb = space.blocks(uc), space.blocks(xc)
    a = adjoint(ub) @ xb
    if np.linalg.norm(a - adjoint(a)) > 1e-8 * max(1.0, np.linalg.norm(a)):
        raise PreconditionError("x is not hermitian for this unit")
    a = 0.5 * (a + adjoint(a))
    s = psd_sqrt(np.eye(a.shape[-1]) - a @ a)
    v1_rep = xb + 1j * (ub @ s)
    v2_rep = 2.0 * xb - v1_rep
    c1, r1, m1 = space.relative_membership(v1_rep)
    c2, r2, m2 = space.relative_membership(v2_rep)
    u1 = m1 and ambient_unitary_check(closure, c1).passed
    u2 = m2 and ambient_unitary_check(closure, c2).passed
    return HermitianSplit(v1_coeffs=c1, v2_coeffs=c2,
                          v1_residual=r1, v2_residual=r2,
                          v1_unitary=u1, v2_unitary=u2,
                          passed=m1 and m2 and u1 and u2)


def collect_unitaries(space: ConcreteOpSpace, u, closure) -> np.ndarray:
    """u plus both averaging partners of each hermitian basis direction,
    deduplicated; rows are coefficient vectors of certified members."""
    uc = space.as_coeffs(u)
    ds = delta_span(space, uc, closure=closure)
    collected = [uc]
    for h in ds.real_basis:
        hc = h / max(1.0, space.norm(h))
        split = hermitian_to_unitaries(space, uc, hc, closure)
        if split.v1_unitary:
            collected.append(split.v1_coeffs)
        if split.v2_unitary:
            collected.append(split.v2_coeffs)
    out = []
    for c in collected:
        if all(np.linalg.norm(c - o) > DEDUPE_TOL for o in out):
            out.append(c)
    return np.stack(out)


def unitary_span_check(space: ConcreteOpSpace, u=None, *,
                       closure) -> CertificateReport:
    """Do the collected unitaries span the space? Needs an envelope-exact
    closure."""
    _require_exact(closure)
    uc = space.unit_coeffs(u)
    unitaries = collect_unitaries(space, uc, closure)
    rank = row_span(unitaries)[1].size
    ok = rank == space.dim
    return CertificateReport(
        name="unitary-span", verdict=PASS if ok else FAIL,
        margin=float(rank - space.dim),
        witness={"unitary_coeffs": unitaries},
        diagnostics={"collected": int(unitaries.shape[0]),
                     "span_dim": rank, "space_dim": space.dim})


@dataclass
class ProductTable:
    space: ConcreteOpSpace
    entries: np.ndarray           # (d, d, d): coeffs of basis product (i, j)
    residual_bounds: np.ndarray   # (d, d) guaranteed reconstruction error
    membership_residuals: np.ndarray  # (d, d) ambient check of each product
    t_table: float
    unitary_coeffs: np.ndarray
    alpha: np.ndarray             # (d, K): basis over unitaries

    def multiply(self, a, b) -> Element:
        ac = self.space.as_coeffs(a)
        bc = self.space.as_coeffs(b)
        return self.space.element(
            np.einsum("i,j,ijk->k", ac, bc, self.entries))


def _assemble_table(space, uc, unitaries, t_table, config):
    d = space.dim
    k = unitaries.shape[0]
    alpha, *_ = np.linalg.lstsq(unitaries.T, np.eye(d, dtype=np.complex128),
                                rcond=None)
    alpha = alpha.T                       # rows: basis element over unitaries
    iota = np.zeros((d, d), dtype=np.complex128)
    scales = np.zeros(d)
    iota_err = np.zeros(d)
    for j, e in enumerate(np.eye(d, dtype=np.complex128)):
        s = max(1.0, space.norm(e))
        scales[j] = s
        r = find_partner(space, uc, e / s, t_grid=(t_table,), config=config)
        if r.residual >= config.fail_tol:
            raise PreconditionError("involution unavailable for a basis element")
        iota[j] = -r.y_coeffs
        iota_err[j] = recovery_bound(t_table, r.residual)
    prods = np.zeros((k, d, d), dtype=np.complex128)
    call_bound = np.zeros((k, d))
    for ki in range(k):
        for j in range(d):
            ic = iota[j]
            n = space.norm(ic)
            rescale = max(n, 1.0)
            rp = _solve_product(space, uc, unitaries[ki], ic / rescale,
                                (1, 0), t_table, config, warm_start=True)
            prods[ki, j] = rp.element.coeffs * rescale * scales[j]
            call_bound[ki, j] = rp.bound + iota_err[j]
    entries = np.einsum("ik,kjm->ijm", alpha, prods)
    bounds = np.einsum("ik,kj->ij", np.abs(alpha), call_bound) * scales[None, :]
    memb = np.zeros((d, d))
    eye = np.eye(d)
    for i in range(d):
        for j in range(d):
            memb[i, j] = space.relative_membership(
                ambient_product(space, eye[i], uc, eye[j]))[1]
    return ProductTable(space=space, entries=entries, residual_bounds=bounds,
                        membership_residuals=memb, t_table=t_table,
                        unitary_coeffs=unitaries, alpha=alpha)


def detect_cstar(space: ConcreteOpSpace, u=None,
                 config: SolverConfig | None = None, closure=None):
    """Full C*-structure detection; returns (report, table-or-None).

    Stages: operator-system detection, the unitary spanning check, then
    closure of each product v adjoint(e) u of a collected unitary v and a
    basis element e, the ambient membership check (``escape_gap`` and
    ``worst_escape_gap`` are relative membership residuals). Every stage
    after the first needs an envelope-exact closure: without one, a space
    that passes the first stage raises PreconditionError. A PASS ends with
    the product table at TABLE_T.
    """
    config = config or SolverConfig()
    uc = space.unit_coeffs(u)
    sys_rep = detect_operator_system(space, uc, config=config, closure=closure)
    diag = {"system_verdict": sys_rep.verdict}
    if not sys_rep.passed:
        return CertificateReport(
            name="cstar", verdict=sys_rep.verdict, margin=sys_rep.margin,
            witness={"stage": "operator-system"}, diagnostics=diag), None
    span_rep = unitary_span_check(space, uc, closure=closure)
    diag["span_verdict"] = span_rep.verdict
    diag["span_dim"] = span_rep.diagnostics["span_dim"]
    if not span_rep.passed:
        return CertificateReport(
            name="cstar", verdict=FAIL, margin=span_rep.margin,
            witness={"stage": "unitary-span"}, diagnostics=diag), None
    unitaries = span_rep.witness["unitary_coeffs"]
    d = space.dim
    worst_escape = 0.0
    for ki in range(unitaries.shape[0]):
        for j, e in enumerate(np.eye(d, dtype=np.complex128)):
            e = e / max(1.0, space.norm(e))
            _, gap, member = space.relative_membership(
                ambient_product(space, unitaries[ki], e, uc))
            worst_escape = max(worst_escape, gap)
            if not member:
                diag["escape_gap"] = gap
                return CertificateReport(
                    name="cstar", verdict=FAIL, margin=-gap,
                    witness={"stage": "product-closure",
                             "unitary_index": ki, "basis_index": j},
                    diagnostics=diag), None
    diag["worst_escape_gap"] = worst_escape
    table = _assemble_table(space, uc, unitaries, TABLE_T, config)
    diag["table_bound"] = float(table.residual_bounds.max())
    unit_err = 0.0
    for e in np.eye(d, dtype=np.complex128):
        left = table.multiply(uc, e)
        right = table.multiply(e, uc)
        unit_err = max(unit_err,
                       space.norm(left.coeffs - e), space.norm(right.coeffs - e))
    diag["unit_law_error"] = unit_err
    return CertificateReport(
        name="cstar", verdict=PASS, margin=config.cert_tol,
        witness=None, diagnostics=diag), table
