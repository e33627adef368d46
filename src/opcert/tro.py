"""Ternary closure of a concrete space and ambient-side certificates.

The closure is generated by iterating products a b* c of elements of the
current span, blockwise on the space's (w, p, q) block stacks. Its growth
is capped at min(w, 24) p q dimensions: a space of p x q matrices (w = 1)
reaches its closure below that cap, so it runs to stability, while a
point-backed space can generate very large function algebras. A span
past the cap keeps its leading singular directions up to the last gap
in its singular values at or below the cap, so that the kept span does
not split a tied pair and depend on rounding (circle-1zzbar keeps 23);
where the singular values are tied from the top to past the cap, the
whole tied block is kept.
The checks that consume the closure remain valid on a truncated span
because every necessary identity is either pointwise (and so holds for
all diagonal operators at once) or is tested against elements the
truncated span already contains. A truncated closure is reported with
stable=False.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import ambient_product
from .errors import PreconditionError
from .matcore import RANK_TOL, adjoint, block_diag, block_norms, row_span
from .opspace import MEMBERSHIP_TOL, ConcreteOpSpace
from .report import FAIL, PASS, CertificateReport

AMBIENT_TOL = 1e-8
DIAG_MAX_DIM = 24


@dataclass
class TroClosure:
    space: ConcreteOpSpace
    z_basis: np.ndarray        # (r, w, p, q) Frobenius-orthonormal block stacks
    stable: bool
    generations: int
    envelope_exact: bool = False

    @property
    def rank(self) -> int:
        return self.z_basis.shape[0]

    @cached_property
    def right_basis(self) -> np.ndarray:
        """Orthonormal (rr, w, q, q) basis of the span of the w* z."""
        z = self.z_basis
        prods = np.einsum("awps,bwpt->abwst", np.conj(z), z)
        return _span_of(prods, z.shape[1], z.shape[3], z.shape[3])[0]


def _span_of(stacks: np.ndarray, w: int, p: int, q: int):
    """Orthonormal (k, w, p, q) basis of the span of a stack of block
    stacks, with its k singular values, descending."""
    rows, s = row_span(stacks.reshape(-1, w * p * q))
    return rows.reshape(-1, w, p, q), s


def _gap_cut(s: np.ndarray, cap: int) -> int:
    """The largest k <= cap with s[k-1] - s[k] above RANK_TOL s[0]: the
    top-k span of singular values s, len(s) > cap, that splits no pair
    tied within rounding. With no such k (s[0] ... s[cap] all tied) it is
    the smallest k past the cap with such a gap, or len(s): the whole tied
    block is kept, so that the closure is never empty and never splits
    the tie."""
    gaps = np.flatnonzero(s[:-1] - s[1:] > RANK_TOL * s[0]) + 1
    below = gaps[gaps <= cap]
    return int(below[-1]) if below.size else int(gaps[0]) if gaps.size \
        else len(s)


def generate_tro(space: ConcreteOpSpace,
                 envelope_exact: bool = False) -> TroClosure:
    """Span closure of the space under products a b* c.

    Growth per generation multiplies the current span by the original basis
    in the middle slot, which reaches the same closure as full triples at
    stability. Growth stops at min(w, 24) p q dimensions: that runs a
    space of p x q matrices to stability, and caps a point-backed space at
    min(points, 24). A span past the cap is cut to its top k singular
    directions, k the largest at or below the cap where the singular
    values s of its generation drop, s[k-1] - s[k] > RANK_TOL s[0]
    (`_gap_cut`; if they never drop there, at the first drop past the
    cap, or not at all: the 30 tied point masses of l-infinity^30 keep
    all 30); such a closure is flagged unstable.
    """
    d, w, p, q = space.basis.shape
    gens = space.basis / np.linalg.norm(space.basis.reshape(d, -1),
                                        axis=1).reshape(d, 1, 1, 1)
    basis, s = _span_of(gens, w, p, q)
    cap = min(w, DIAG_MAX_DIM) * p * q
    stable = False
    generations = 0
    while not stable and basis.shape[0] <= cap:
        generations += 1
        prods = np.einsum("awps,bwts,cwtq->abcwpq", basis, np.conj(gens), basis)
        stack = np.concatenate([basis, prods.reshape(-1, w, p, q)])
        del prods       # a copy is in the stack; the span's peak is lower
        new, s = _span_of(stack, w, p, q)
        stable = new.shape[0] == basis.shape[0]
        basis = new
    if basis.shape[0] > cap:
        basis = basis[:_gap_cut(s, cap)]
        stable = False
    return TroClosure(space=space, z_basis=basis, stable=stable,
                      generations=generations, envelope_exact=envelope_exact)


def ambient_unitary_check(closure: TroClosure, v) -> CertificateReport:
    """v v* z = z and z v* v = z over the closure basis.

    The first identity alone certifies a coisometry, the second an isometry;
    both together give a ternary unitary. Residuals are Frobenius, on
    Frobenius-normalized closure elements.
    """
    vb = closure.space.blocks(v)
    zs = closure.z_basis
    r = zs.shape[0]
    co = iso = 0.0
    if r:
        co = float(np.max(np.linalg.norm(
            (vb @ adjoint(vb) @ zs - zs).reshape(r, -1), axis=1)))
        iso = float(np.max(np.linalg.norm(
            (zs @ adjoint(vb) @ vb - zs).reshape(r, -1), axis=1)))
    is_co = co <= AMBIENT_TOL
    is_iso = iso <= AMBIENT_TOL
    verdict = PASS if (is_co and is_iso) else FAIL
    return CertificateReport(
        name="ambient-unitary", verdict=verdict,
        margin=AMBIENT_TOL - max(co, iso),
        witness=None,
        diagnostics={"coisometry": is_co, "isometry": is_iso,
                     "coisometry_residual": co, "isometry_residual": iso,
                     "closure_rank": closure.rank, "closure_stable": closure.stable})


def licenses(closure: TroClosure | None, u) -> bool:
    """May a check take the ambient route for u: is the closure
    envelope-exact, so that its matrices are the ambient model, and is u an
    ambient unitary over it? Statements such as "adjoint(u) x is psd" mean
    something only then."""
    return closure is not None and closure.envelope_exact and \
        ambient_unitary_check(closure, u).passed


def _require_unitary(closure: TroClosure, v) -> None:
    rep = ambient_unitary_check(closure, v)
    if not rep.passed:
        raise PreconditionError(
            "element is not ambient-unitary "
            f"(residual {max(rep.diagnostics['coisometry_residual'], rep.diagnostics['isometry_residual']):.3e})")


def involution(closure: TroClosure, u, x) -> np.ndarray:
    """Concrete matrix of u x* u for an ambient-unitary u."""
    _require_unitary(closure, u)
    space = closure.space
    return block_diag(ambient_product(space, u, x, u))


def ambient_system_check(closure: TroClosure, u=None) -> CertificateReport:
    """Does u x* u land back in the space for every basis element?"""
    space = closure.space
    uc = space.unit_coeffs(u)
    _require_unitary(closure, uc)
    worst = -1.0
    worst_j = 0
    for j, e in enumerate(np.eye(space.dim)):
        _, rel, _ = space.relative_membership(ambient_product(space, uc, e, uc))
        if rel > worst:
            worst, worst_j = rel, j
    verdict = PASS if worst <= MEMBERSHIP_TOL else FAIL
    return CertificateReport(
        name="ambient-system", verdict=verdict,
        margin=MEMBERSHIP_TOL - worst,
        witness={"basis_index": worst_j},
        diagnostics={"worst_residual": worst})


def same_involution_check(closure: TroClosure, u, v) -> CertificateReport:
    """Do two ambient unitaries induce the same recapture x -> w x* w?

    Criterion: u* v = v* u and u* v commutes with the right product span.
    """
    _require_unitary(closure, u)
    _require_unitary(closure, v)
    space = closure.space
    c = adjoint(space.blocks(u)) @ space.blocks(v)
    commute = float(block_norms(c - adjoint(c)).max())
    gs = closure.right_basis
    central = 0.0
    if gs.shape[0]:
        central = float(np.max(np.linalg.norm(
            (c @ gs - gs @ c).reshape(gs.shape[0], -1), axis=1)))
    ok = commute <= AMBIENT_TOL and central <= AMBIENT_TOL
    return CertificateReport(
        name="same-involution", verdict=PASS if ok else FAIL,
        margin=AMBIENT_TOL - max(commute, central),
        witness=None,
        diagnostics={"commute_residual": commute,
                     "centrality_residual": central})


def transfer_check(closure: TroClosure, u, v) -> CertificateReport:
    """Does x -> v u* x map the space bijectively onto itself?"""
    space = closure.space
    uc = space.as_coeffs(u)
    vc = space.as_coeffs(v)
    _require_unitary(closure, uc)
    _require_unitary(closure, vc)
    coeff_rows = []
    worst = 0.0
    for e in np.eye(space.dim):
        coeffs, rel, _ = space.relative_membership(
            ambient_product(space, vc, uc, e))
        worst = max(worst, rel)
        coeff_rows.append(coeffs)
    m = np.stack(coeff_rows)
    s = np.linalg.svd(m, compute_uv=False)
    full_rank = s.size > 0 and s[-1] > 1e-8 * max(s[0], 1.0)
    members = worst <= MEMBERSHIP_TOL
    return CertificateReport(
        name="transfer", verdict=PASS if (members and full_rank) else FAIL,
        margin=MEMBERSHIP_TOL - worst,
        witness=None,
        diagnostics={"worst_residual": worst, "bijective": bool(full_rank),
                     "min_singular": float(s[-1]) if s.size else 0.0})
