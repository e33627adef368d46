"""Concrete operator spaces: a basis of complex p x q matrices, membership,
amplification to matrix levels, and the concrete spectral norms.

Two storage layouts share one interface. Dense spaces keep the basis as a
(d, p, q) array. Spaces whose basis matrices are all diagonal (notably
sampled function spaces embedded as multiplication operators) keep only the
diagonals, shape (d, m); every norm then reduces to a batch of small
per-point matrices instead of one giant sparse one, which is what makes
hundred-point models affordable at matrix level 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidInputError, PreconditionError
from .matcore import adjoint, batched_spectral_norm

GRAM_MIN_EIG = 1e-10
MEMBERSHIP_TOL = 1e-6


@dataclass
class ConcreteOpSpace:
    """A d-dimensional subspace of complex p x q matrices with an optional
    designated unit element (given by its coefficient vector)."""

    basis: np.ndarray | None          # (d, p, q), None for point-backed spaces
    unit: np.ndarray | None           # (d,) complex coefficients
    ambient_shape: tuple[int, int]
    point_basis: np.ndarray | None = None   # (d, m) diagonals when diagonal
    membership_tol: float = MEMBERSHIP_TOL
    _proj: dict = field(default_factory=dict, repr=False)

    # -- construction ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.point_basis.shape[0] if self.diagonal else self.basis.shape[0]

    @property
    def diagonal(self) -> bool:
        return self.point_basis is not None

    def _vectors(self) -> np.ndarray:
        """Basis as columns of a (N, d) matrix in the Frobenius coordinates."""
        if "vectors" not in self._proj:
            if self.diagonal:
                v = self.point_basis.T.copy()
            else:
                d = self.basis.shape[0]
                v = self.basis.reshape(d, -1).T.copy()
            self._proj["vectors"] = v
        return self._proj["vectors"]

    def _pinv(self) -> np.ndarray:
        if "pinv" not in self._proj:
            self._proj["pinv"] = np.linalg.pinv(self._vectors())
        return self._proj["pinv"]

    # -- elements ----------------------------------------------------------

    def as_coeffs(self, x) -> np.ndarray:
        """Coerce an Element or a raw sequence to a (d,) complex vector."""
        if isinstance(x, Element):
            if x.space is not self:
                raise InvalidInputError("element belongs to a different space")
            return x.coeffs
        c = np.asarray(x, dtype=np.complex128)
        if c.shape != (self.dim,):
            raise InvalidInputError(
                f"expected {self.dim} coefficients, got shape {c.shape}")
        return c

    def element(self, coeffs) -> "Element":
        return Element(self, self.as_coeffs(coeffs))

    def unit_coeffs(self) -> np.ndarray:
        if self.unit is None:
            raise InvalidInputError("space has no designated unit")
        return self.unit

    def embed(self, coeffs) -> np.ndarray:
        """Concrete ambient matrix of a coefficient vector."""
        c = self.as_coeffs(coeffs)
        if self.diagonal:
            return np.diag(c @ self.point_basis)
        return np.tensordot(c, self.basis, axes=(0, 0))

    def point_values(self, coeffs) -> np.ndarray:
        if not self.diagonal:
            raise InvalidInputError("not a point-backed space")
        return self.as_coeffs(coeffs) @ self.point_basis

    # -- norms -------------------------------------------------------------

    def grid_norm(self, grid: np.ndarray):
        """Spectral norm of the concrete matrix of an (..., n1, n2, d) block
        grid: a float for one grid, an array over the leading axes for a
        stack of grids."""
        grid = np.asarray(grid, dtype=np.complex128)
        *lead, n1, n2, _ = grid.shape
        if self.diagonal:
            vals = np.moveaxis(grid @ self.point_basis, -1, -3)
            norms = batched_spectral_norm(vals).max(axis=-1)
        else:
            p, q = self.ambient_shape
            m = np.einsum("...ijk,kpq->...ipjq", grid, self.basis)
            m = m.reshape(*lead, n1 * p, n2 * q)
            norms = np.linalg.svd(m, compute_uv=False)[..., 0]
        return norms if lead else float(norms)

    def norm(self, coeffs) -> float:
        return self.grid_norm(self.as_coeffs(coeffs)[None, None, :])

    # -- membership --------------------------------------------------------

    def membership(self, matrix) -> tuple[np.ndarray, float]:
        """Least-squares coefficients and Frobenius residual of an ambient
        matrix against the span."""
        m = np.asarray(matrix, dtype=np.complex128)
        p, q = self.ambient_shape
        if m.shape != (p, q):
            raise InvalidInputError(f"ambient shape {(p, q)} expected, got {m.shape}")
        extra = 0.0
        if self.diagonal:
            diag = np.diagonal(m).astype(np.complex128)
            off = m - np.diag(diag)
            extra = float(np.linalg.norm(off)) ** 2
            vec = diag
        else:
            vec = m.reshape(-1)
        coeffs = self._pinv() @ vec
        res = float(np.linalg.norm(vec - self._vectors() @ coeffs))
        return coeffs, float(np.sqrt(res * res + extra))

    def membership_points(self, values) -> tuple[np.ndarray, float]:
        """Point-vector membership for diagonal spaces."""
        if not self.diagonal:
            raise InvalidInputError("not a point-backed space")
        vec = np.asarray(values, dtype=np.complex128)
        coeffs = self._pinv() @ vec
        res = float(np.linalg.norm(vec - self._vectors() @ coeffs))
        return coeffs, res

    def is_member(self, matrix, tol: float | None = None) -> bool:
        _, res = self.membership(matrix)
        scale = max(1.0, float(np.linalg.norm(matrix)))
        return res <= (self.membership_tol if tol is None else tol) * scale


@dataclass(frozen=True)
class Element:
    space: ConcreteOpSpace
    coeffs: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return self.space.embed(self.coeffs)

    def norm(self) -> float:
        return self.space.norm(self.coeffs)


@dataclass(frozen=True)
class AmplifiedElement:
    """An element of M_n(X): an n x n grid of coefficient vectors."""

    space: ConcreteOpSpace
    level: int
    coeff_grid: np.ndarray  # (n, n, d)

    @property
    def matrix(self) -> np.ndarray:
        n, d = self.level, self.space.dim
        p, q = self.space.ambient_shape
        if self.space.diagonal:
            vals = np.einsum("ijk,kw->wij", self.coeff_grid, self.space.point_basis)
            out = np.zeros((n * p, n * q), dtype=np.complex128)
            for w in range(p):
                out[w::p, w::q] = vals[w]
            return out
        m = np.einsum("ijk,kpq->ipjq", self.coeff_grid, self.space.basis)
        return m.reshape(n * p, n * q)

    def norm(self) -> float:
        return self.space.grid_norm(self.coeff_grid)


ElementLike = Union[Element, np.ndarray, list, tuple]


def make_space(basis, unit=None, membership_tol: float = MEMBERSHIP_TOL) -> ConcreteOpSpace:
    """Validated space from a sequence of same-shape complex matrices.

    Rejects dependent bases via the Gram condition (smallest eigenvalue of
    the Frobenius Gram matrix must exceed 1e-10).
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
    diagonal = p == q and all(
        np.count_nonzero(m - np.diag(np.diagonal(m))) == 0 for m in mats)
    if diagonal:
        space = ConcreteOpSpace(
            basis=stack, unit=None, ambient_shape=shape,
            point_basis=np.stack([np.diagonal(m).astype(np.complex128) for m in mats]),
            membership_tol=membership_tol)
    else:
        space = ConcreteOpSpace(
            basis=stack, unit=None, ambient_shape=shape,
            membership_tol=membership_tol)
    _check_independent(space)
    if unit is not None:
        space.unit = space.as_coeffs(unit)
    return space


def space_from_points(point_basis, unit=None,
                      membership_tol: float = MEMBERSHIP_TOL) -> ConcreteOpSpace:
    """Space of diagonal m x m matrices given by basis diagonals (d, m)."""
    pb = np.asarray(point_basis, dtype=np.complex128)
    if pb.ndim != 2 or pb.shape[0] < 1:
        raise InvalidInputError("point basis must be a (d, m) array")
    m = pb.shape[1]
    space = ConcreteOpSpace(basis=None, unit=None, ambient_shape=(m, m),
                            point_basis=pb, membership_tol=membership_tol)
    _check_independent(space)
    if unit is not None:
        space.unit = space.as_coeffs(unit)
    return space


def _check_independent(space: ConcreteOpSpace) -> None:
    v = space._vectors()
    gram = adjoint(v) @ v
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= GRAM_MIN_EIG:
        raise InvalidInputError(
            f"basis is numerically dependent (Gram eigenvalue {eigs[0]:.3e})")


def amplify_unit(space: ConcreteOpSpace, n: int) -> AmplifiedElement:
    """The diagonal amplification of the unit to matrix level n."""
    if space.unit is None:
        raise PreconditionError("space has no designated unit")
    if n < 1:
        raise InvalidInputError("level must be positive")
    grid = np.zeros((n, n, space.dim), dtype=np.complex128)
    grid[np.arange(n), np.arange(n), :] = space.unit
    return AmplifiedElement(space, n, grid)


def norm(elem) -> float:
    """Spectral norm of the concrete matrix of an Element or AmplifiedElement."""
    if isinstance(elem, (Element, AmplifiedElement)):
        return elem.norm()
    raise InvalidInputError("norm() expects an Element or AmplifiedElement")


def membership(space: ConcreteOpSpace, matrix) -> tuple[np.ndarray, float]:
    return space.membership(matrix)
