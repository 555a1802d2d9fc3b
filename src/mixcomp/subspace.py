"""Subspaces of C^d represented by orthonormal basis columns.

Supports come from eigendecompositions with a relative eigenvalue cutoff,
sums from re-orthonormalization of stacked bases, and complements from the
SVD null space of the basis adjoint. Containment is decided by projector
residual, never by exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import Tolerances, _require_finite, dagger, hermitian_eigen, orthonormal_columns
from .states import DensityMatrix


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of C^d.

    ``basis`` is a read-only (d, r) array with orthonormal columns; r = 0
    encodes the zero subspace and d is the ambient dimension. Instances are
    value objects: construct them through the factories below rather than
    mutating.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2:
            raise ShapeError(f"basis must be a (d, r) array, got shape {b.shape}")
        _require_finite(b, "basis contains NaN or Inf entries")
        gram = dagger(b) @ b
        if b.shape[1] and not float(np.max(np.abs(gram - np.eye(b.shape[1])))) <= 1e-8:
            raise ShapeError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=np.complex128))


def support_of(matrix, tol: Tolerances = Tolerances()) -> Subspace:
    """Support of a Hermitian PSD matrix or of a DensityMatrix.

    Eigenvectors whose eigenvalue exceeds ``tol.rank`` times the largest
    eigenvalue span the support. The all-zero matrix has empty support. A
    DensityMatrix lends the eigh its validation already ran: its matrix is
    exactly Hermitian, so validating and symmetrizing it again would hand
    eigh the same bits.
    """
    if isinstance(matrix, DensityMatrix):
        w, v = matrix._eigh
    else:
        w, v = hermitian_eigen(matrix, tol, context="support_of input")
    top = float(np.max(np.abs(w))) if w.size else 0.0
    if top == 0.0:
        return Subspace.zero(v.shape[0])
    return Subspace(v[:, np.abs(w) > tol.rank * top])


def subspace_sum(spaces, tol: Tolerances = Tolerances()) -> Subspace:
    """Span of the union of a non-empty list of subspaces."""
    spaces = list(spaces)
    if not spaces:
        raise ShapeError("subspace_sum needs at least one subspace")
    d = spaces[0].ambient_dim
    for s in spaces:
        if s.ambient_dim != d:
            raise ShapeError(
                f"subspace_sum mixes ambient dimensions {d} and {s.ambient_dim}"
            )
    stacked = np.hstack([s.basis for s in spaces])
    return Subspace(orthonormal_columns(stacked, tol))


def complement(space: Subspace) -> Subspace:
    """Orthogonal complement, computed from the SVD null space of basis^dagger.

    For an orthonormal input basis the split of singular values is exact, so
    the complement has dimension d - r without any further thresholding.
    """
    d, r = space.ambient_dim, space.dim
    if r == 0:
        return Subspace.full(d)
    if r == d:
        return Subspace.zero(d)
    _, _, vh = np.linalg.svd(dagger(space.basis), full_matrices=True)
    return Subspace(dagger(vh)[:, r:])


def contains(outer: Subspace, inner: Subspace, tol: Tolerances = Tolerances()) -> bool:
    """True when every basis vector of ``inner`` lies in ``outer``.

    Decided by the projector residual max |(I - P_outer) b| over inner basis
    columns against tol.rank. The zero subspace is contained in everything.
    """
    if outer.ambient_dim != inner.ambient_dim:
        raise ShapeError(
            f"contains mixes ambient dimensions {outer.ambient_dim} and {inner.ambient_dim}"
        )
    if inner.dim == 0:
        return True
    if outer.dim == 0:
        return False
    b = inner.basis
    residual = b - outer.basis @ (dagger(outer.basis) @ b)
    return float(np.max(np.abs(residual))) <= tol.rank


def projector(space: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace, as a dense (d, d) matrix."""
    if space.dim == 0:
        return np.zeros((space.ambient_dim, space.ambient_dim), dtype=np.complex128)
    return space.basis @ dagger(space.basis)
