"""Concrete operator spaces: a basis of complex matrices, membership,
amplification to matrix levels, and the concrete spectral norms.

Every space is a direct sum of w blocks of size p x q: the basis is one
(d, w, p, q) array, and an element is the block-diagonal (w p) x (w q)
matrix of its w blocks. A space of p x q matrices has w = 1. A sampled
function space acting by multiplication has p = q = 1 and one block per
sample point, so every norm reduces to a batch of small per-block matrices
instead of one giant sparse one, which is what makes hundred-point models
affordable at matrix level 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .matcore import adjoint, block_diag, block_norms, vector_norms

GRAM_MIN_EIG = 1e-10
MEMBERSHIP_TOL = 1e-6


@dataclass
class ConcreteOpSpace:
    """A d-dimensional space of block-diagonal matrices, the direct sum of
    w blocks of size p x q, with an optional designated unit element (given
    by its coefficient vector)."""

    basis: np.ndarray                 # (d, w, p, q)
    unit: np.ndarray | None           # (d,) complex coefficients
    _proj: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        b = np.ascontiguousarray(self.basis, dtype=np.complex128)
        if b.ndim != 4 or 0 in b.shape:
            raise InvalidInputError("basis must be a nonempty (d, w, p, q) array")
        self.basis = b
        # (d, w*p*q) view: the coefficients of a grid contract against it
        self._flat = b.reshape(b.shape[0], -1)

    # -- construction ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_shape(self) -> tuple[int, int]:
        _, w, p, q = self.basis.shape
        return (w * p, w * q)

    @property
    def diagonal(self) -> bool:
        """True for a point-backed space: every block is 1 x 1."""
        return self.basis.shape[2:] == (1, 1)

    def _vectors(self) -> np.ndarray:
        """Basis as columns of a (N, d) matrix in the Frobenius coordinates."""
        if "vectors" not in self._proj:
            self._proj["vectors"] = self._flat.T.copy()
        return self._proj["vectors"]

    def _pinv(self) -> np.ndarray:
        if "pinv" not in self._proj:
            self._proj["pinv"] = np.linalg.pinv(self._vectors())
        return self._proj["pinv"]

    def coeff_radius(self) -> float:
        """An upper bound on the euclidean norm of the coefficients of any
        element of norm at most 1: the coefficients are pinv times the
        Frobenius coordinates of the w blocks, and a p x q contraction has
        Frobenius norm at most sqrt(min(p, q))."""
        if "radius" not in self._proj:
            _, w, p, q = self.basis.shape
            self._proj["radius"] = float(np.linalg.norm(self._pinv(), 2)) \
                * float(np.sqrt(w * min(p, q)))
        return self._proj["radius"]

    # -- elements ----------------------------------------------------------

    def as_coeffs(self, x) -> np.ndarray:
        """Coerce an Element or a raw sequence to a finite (d,) complex
        vector."""
        if isinstance(x, Element):
            if x.space is not self:
                raise InvalidInputError("element belongs to a different space")
            return x.coeffs
        c = np.asarray(x, dtype=np.complex128)
        if c.shape != (self.dim,):
            raise InvalidInputError(
                f"expected {self.dim} coefficients, got shape {c.shape}")
        # count_nonzero costs half of .all() on a short vector, and some
        # checks pass hundreds of vectors through here
        if np.count_nonzero(np.isfinite(c)) != c.size:
            raise InvalidInputError("coefficients must be finite")
        return c

    def element(self, coeffs) -> "Element":
        return Element(self, self.as_coeffs(coeffs))

    def unit_coeffs(self, u=None) -> np.ndarray:
        """Coefficients of u, or of the designated unit when u is None."""
        if u is not None:
            return self.as_coeffs(u)
        if self.unit is None:
            raise InvalidInputError("space has no designated unit")
        return self.unit

    def blocks(self, coeffs) -> np.ndarray:
        """The (w, p, q) block stack of a coefficient vector, or the
        (..., w, p, q) stacks of the rows of an (..., d) array of them,
        each bitwise as alone (a one-row matmul per row)."""
        if not (isinstance(coeffs, np.ndarray) and coeffs.ndim > 1):
            return (self.as_coeffs(coeffs) @ self._flat).reshape(
                self.basis.shape[1:])
        return np.matmul(coeffs[..., None, :], self._flat).reshape(
            coeffs.shape[:-1] + self.basis.shape[1:])

    def embed(self, coeffs) -> np.ndarray:
        """Concrete ambient matrix of a coefficient vector."""
        return block_diag(self.blocks(coeffs))

    def point_values(self, coeffs) -> np.ndarray:
        """Values at the points of a point-backed space."""
        if self.basis.shape[2:] != (1, 1):
            raise InvalidInputError("not a point-backed space")
        return self.as_coeffs(coeffs) @ self._flat

    # -- norms -------------------------------------------------------------

    def grid_blocks(self, grid: np.ndarray) -> np.ndarray:
        """(..., w, n1 p, n2 q) block stack of an (..., n1, n2, d) grid:
        block k is the n1 x n2 grid of the elements' k-th blocks.

        A grid's blocks are bitwise the same alone and in any stack: BLAS
        gives each row of a matrix product the same bits whatever the row
        count, but takes a one-row product as a matrix-vector product with
        other bits, so a stack of one-entry grids takes one such product
        per grid."""
        grid = np.asarray(grid, dtype=np.complex128)
        *lead, n1, n2, d = grid.shape
        _, w, p, q = self.basis.shape
        if n1 * n2 == 1 and grid.size > d:
            vals = np.matmul(grid.reshape(-1, 1, d), self._flat)
        else:
            vals = np.dot(grid.reshape(-1, d), self._flat)
        vals = vals.reshape(-1, n1, n2, w, p, q)
        return vals.transpose(0, 3, 1, 4, 2, 5).reshape(*lead, w, n1 * p, n2 * q)

    def grid_norm(self, grid: np.ndarray):
        """Spectral norm of the concrete matrix of an (..., n1, n2, d) block
        grid: a float for one grid, an array over the leading axes for a
        stack of grids."""
        norms = block_norms(self.grid_blocks(grid)).max(axis=-1)
        return norms if norms.ndim else float(norms)

    def norm(self, coeffs) -> float:
        return self.grid_norm(self.as_coeffs(coeffs)[None, None, :])

    # -- membership --------------------------------------------------------

    def membership(self, matrix) -> tuple[np.ndarray, float]:
        """Least-squares coefficients and Frobenius residual of an ambient
        matrix against the span: its diagonal blocks are fitted, and the
        part off the blocks adds to the residual."""
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != self.ambient_shape:
            raise InvalidInputError(
                f"ambient shape {self.ambient_shape} expected, got {m.shape}")
        _, w, p, q = self.basis.shape
        idx = np.arange(w)
        off = m.reshape(w, p, w, q).copy()
        coeffs, res = self.membership_blocks(off[idx, :, idx, :])
        off[idx, :, idx, :] = 0.0
        extra = float(np.linalg.norm(off)) ** 2
        return coeffs, float(np.sqrt(res * res + extra))

    def membership_blocks(self, blocks):
        """Least-squares coefficients and Frobenius residual of a (w, p, q)
        block stack against the span; for an (..., w, p, q) stack of them,
        arrays over the leading axes, each row bitwise as alone (one-row
        matmuls, `vector_norms`)."""
        b = np.asarray(blocks, dtype=np.complex128)
        if b.shape[-3:] != self.basis.shape[1:]:
            raise InvalidInputError(
                f"block stack {self.basis.shape[1:]} expected, got {b.shape}")
        vec = b.reshape(b.shape[:-3] + (-1,))
        coeffs = np.matmul(self._pinv(), vec[..., None])[..., 0]
        fit = np.matmul(self._vectors(), coeffs[..., None])[..., 0]
        res = vector_norms(vec - fit)
        return coeffs, res if res.ndim else float(res)

    def relative_membership(self, blocks):
        """Least-squares coefficients of a (w, p, q) block stack, its
        residual relative to max(1, Frobenius norm of the stack), and
        whether that residual is within MEMBERSHIP_TOL; arrays over the
        leading axes for an (..., w, p, q) stack of them."""
        b = np.asarray(blocks, dtype=np.complex128)
        coeffs, res = self.membership_blocks(b)
        size = vector_norms(b.reshape(b.shape[:-3] + (-1,)))
        rel = res / np.maximum(1.0, size)
        rel = rel if rel.ndim else float(rel)
        return coeffs, rel, rel <= MEMBERSHIP_TOL


@dataclass(frozen=True)
class Element:
    space: ConcreteOpSpace
    coeffs: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.space.embed(self.coeffs)

    def norm(self) -> float:
        return self.space.norm(self.coeffs)


def make_space(basis, unit=None) -> ConcreteOpSpace:
    """Validated space from a sequence of same-shape complex matrices.

    Square matrices that are all diagonal are stored point-backed, one 1 x 1
    block per diagonal entry; anything else is one p x q block. Rejects
    dependent bases by the Gram rule of `_validated`.
    """
    mats = [np.asarray(b, dtype=np.complex128) for b in basis]
    if not mats:
        raise InvalidInputError("empty basis")
    shape = mats[0].shape
    if len(shape) != 2:
        raise InvalidInputError("basis entries must be matrices")
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise InvalidInputError(f"basis[{i}] has shape {m.shape}, expected {shape}")
    stack = np.stack(mats)
    p, q = shape
    points = np.einsum("kii->ki", stack) if p == q else None
    if points is not None and not np.any(stack - points[:, :, None] * np.eye(p)):
        blocks = points[:, :, None, None]
    else:
        blocks = stack[:, None]
    return _validated(ConcreteOpSpace(basis=blocks, unit=None), unit)


def space_from_points(point_basis, unit=None) -> ConcreteOpSpace:
    """Space of diagonal m x m matrices given by basis diagonals (d, m)."""
    pb = np.asarray(point_basis, dtype=np.complex128)
    if pb.ndim != 2 or pb.shape[0] < 1:
        raise InvalidInputError("point basis must be a (d, m) array")
    return _validated(ConcreteOpSpace(basis=pb[:, :, None, None], unit=None),
                      unit)


def _validated(space: ConcreteOpSpace, unit) -> ConcreteOpSpace:
    """Reject a numerically dependent basis: the smallest eigenvalue of the
    Frobenius Gram matrix must exceed 1e-10 times the largest, a rule that
    does not depend on the scale of the basis."""
    v = space._vectors()
    gram = adjoint(v) @ v
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= GRAM_MIN_EIG * eigs[-1]:
        raise InvalidInputError(
            f"basis is numerically dependent (Gram eigenvalue {eigs[0]:.3e})")
    if unit is not None:
        space.unit = space.as_coeffs(unit)
    return space
