"""Ordered-space checks: finitely generated cones, norm-order units, and
agreement between a designated cone and the cone of u-positives.

A cone here is the set of nonnegative real combinations of finitely many
generators. Membership distance is a nonnegative least squares problem in
the Frobenius coordinates. The reverse inclusion (every u-positive lies in
the cone) is sampled: u-positive directions are drawn by shifting random
hermitian combinations until the ambient representative is positive
semidefinite, so a reported pass covers the sampled directions only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .hermit import delta_span, is_u_positive
from .matcore import adjoint, herm_eigen, nnls
from .opspace import ConcreteOpSpace
from .report import FAIL, PASS, CertificateReport
from .tro import licenses

CONE_TOL = 1e-6
PSD_TOL = 1e-8
ORDER_UNIT_SAMPLES = 50     # hermitian combinations norm_order_unit_check tries
POSITIVE_SAMPLES = 200      # u-positive directions cone_equals_delta_plus tries


@dataclass
class Cone:
    space: ConcreteOpSpace
    generators: np.ndarray   # (G, d) coefficient vectors

    def __post_init__(self):
        gens = np.atleast_2d(np.asarray(self.generators, dtype=np.complex128))
        if gens.size and gens.shape[1] != self.space.dim:
            raise InvalidInputError("generator length does not match space dim")
        for i, g in enumerate(gens):
            if np.linalg.norm(g) < 1e-12:
                raise InvalidInputError(f"generator {i} is zero")
        self.generators = gens
        # the real Frobenius coordinates of the generators, as the columns
        # of every membership NNLS
        self.frobenius = np.stack([_frob_vec(self.space, g) for g in gens],
                                  axis=1) if gens.shape[0] else None
        # least squares weights over all reals come from the pseudo-inverse;
        # where they are >= 0 they are also the NNLS weights
        self.pinv = np.linalg.pinv(self.frobenius) if gens.shape[0] \
            else None


def _frob_vec(space: ConcreteOpSpace, coeffs: np.ndarray) -> np.ndarray:
    v = space.blocks(coeffs).reshape(-1)
    return np.concatenate([np.real(v), np.imag(v)])


def cone_membership(cone: Cone, x) -> tuple[float, np.ndarray]:
    """Frobenius distance from x to the cone and the optimal weights."""
    xc = cone.space.as_coeffs(x)
    b = _frob_vec(cone.space, xc)
    if cone.generators.shape[0] == 0:
        return float(np.linalg.norm(b)), np.zeros(0)
    weights = cone.pinv @ b
    if weights.min() < 0.0:
        weights, resid = nnls(cone.frobenius, b)
        return float(resid), weights
    return float(np.linalg.norm(cone.frobenius @ weights - b)), weights


def norm_order_unit_check(cone: Cone, u=None,
                          seed: int = 7) -> CertificateReport:
    """Is |x| u - x in the cone for hermitian x (the basis of the
    u-hermitians and ORDER_UNIT_SAMPLES combinations of it)?"""
    space = cone.space
    uc = space.unit_coeffs(u)
    u_res, _ = cone_membership(cone, uc)
    if u_res > CONE_TOL * max(1.0, float(np.linalg.norm(_frob_vec(space, uc)))):
        return CertificateReport(
            name="norm-order-unit", verdict=FAIL, margin=-u_res,
            witness={"element": uc, "reason": "unit outside cone"},
            diagnostics={"unit_residual": u_res})
    hb = delta_span(space, uc).real_basis
    samples = [row for row in hb]
    rng = np.random.default_rng([seed, 41])
    for _ in range(ORDER_UNIT_SAMPLES):
        r = rng.standard_normal(hb.shape[0])
        samples.append(r @ hb)
    # the samples' norms in one call: a call per sample costs more than its SVD
    norms = space.grid_norm(np.array(samples)[:, None, None, :])
    worst = -1.0
    witness = None
    for xc, n in zip(samples, norms.tolist()):
        g = n * uc - xc
        res, _ = cone_membership(cone, g)
        rel = res / max(1.0, float(np.linalg.norm(_frob_vec(space, g))))
        if rel > worst:
            worst, witness = rel, xc
    ok = worst <= CONE_TOL
    return CertificateReport(
        name="norm-order-unit", verdict=PASS if ok else FAIL,
        margin=CONE_TOL - worst, witness={"element": witness},
        diagnostics={"worst_residual": worst, "samples": len(samples)})


def _ambient_psd_residual(space: ConcreteOpSpace, uc, xc) -> float:
    """How far adjoint(u) x is from positive semidefinite (0 when psd)."""
    a = adjoint(space.blocks(uc)) @ space.blocks(xc)
    herm = float(np.linalg.norm(a - adjoint(a)))
    if herm > PSD_TOL * max(1.0, float(np.linalg.norm(a))):
        return herm
    return max(0.0, -float(np.min(herm_eigen(0.5 * (a + adjoint(a))))))


def cone_equals_delta_plus(cone: Cone, u=None,
                           closure=None) -> CertificateReport:
    """Two-sided comparison of the cone with the u-positives.

    Forward: every generator must be u-positive (the ambient psd oracle
    when `tro.licenses(closure, u)`, the intrinsic criteria otherwise).
    Reverse: POSITIVE_SAMPLES sampled u-positive directions must have
    small cone residual; on the ambient route each is shifted by the least
    multiple of u that makes it ambient psd, on the intrinsic route by u.
    """
    space = cone.space
    uc = space.unit_coeffs(u)
    ambient = licenses(closure, uc)
    fwd_worst = 0.0
    fwd_witness = None
    for g in cone.generators:
        if ambient:
            r = _ambient_psd_residual(space, uc, g)
        else:
            rep = is_u_positive(space, uc, g)
            r = 0.0 if rep.passed else max(PSD_TOL * 10, -rep.margin)
        if r > fwd_worst:
            fwd_worst, fwd_witness = r, g
    forward_ok = fwd_worst <= PSD_TOL * 10
    hb = delta_span(space, uc, closure=closure).real_basis
    rng = np.random.default_rng([7, 42])     # one fixed draw of directions
    rev_worst = -1.0
    rev_witness = None
    for _ in range(POSITIVE_SAMPLES):
        r = rng.standard_normal(hb.shape[0])
        h = r @ hb
        n = space.norm(h)
        if n < 1e-12:
            continue
        h = h / n
        # ambient: the least shift that makes h psd; intrinsic: |h| = 1,
        # so h + u is u-positive by the shift criterion
        lam = _ambient_psd_residual(space, uc, h) if ambient else 1.0
        xc = h + lam * uc
        res, _ = cone_membership(cone, xc)
        rel = res / max(1.0, float(np.linalg.norm(_frob_vec(space, xc))))
        if rel > rev_worst:
            rev_worst, rev_witness = rel, xc
    reverse_ok = rev_worst <= CONE_TOL
    ok = forward_ok and reverse_ok
    return CertificateReport(
        name="cone-equals-positives", verdict=PASS if ok else FAIL,
        margin=min(PSD_TOL * 10 - fwd_worst, CONE_TOL - rev_worst),
        witness={"generator": fwd_witness} if not forward_ok
        else {"element": rev_witness},
        diagnostics={"forward_residual": fwd_worst,
                     "reverse_residual": max(rev_worst, 0.0),
                     "forward_ok": bool(forward_ok),
                     "reverse_ok": bool(reverse_ok),
                     "samples": POSITIVE_SAMPLES})
