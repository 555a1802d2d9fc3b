"""Dense complex linear algebra kernel.

All matrices are numpy complex128 arrays. Hermitian eigensystems come from
np.linalg.eigh (ascending eigenvalues, deterministic for a fixed input), and
rank decisions use modified Gram-Schmidt with a relative column-norm cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import NotHermitianError, ShapeError


@dataclass(frozen=True)
class Tolerances:
    """The one numerical threshold of the library and the roles read from it.

    value  The global tolerance, positive and finite.
    sym    Hermiticity check, max |A - A^dagger|: the stricter value / 10.
    rank   Relative eigenvalue / column-norm cutoff for support and rank.
    neg    How negative an eigenvalue may be before PSD fails.
    prob   Probabilities below this count as zero.

    The four roles are read-only properties of ``value``.
    """

    value: float = 1e-9

    sym = property(lambda self: self.value / 10.0)
    rank = neg = prob = property(lambda self: self.value)

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ShapeError(f"tolerance must be positive and finite, got {self.value!r}")


def as_matrix(values, context: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 square matrix."""
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{context} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ShapeError(f"{context} contains NaN or Inf entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def herm_residual(a: np.ndarray) -> float:
    """max |A - A^dagger| over entries, taken over row blocks of about 64k entries.

    The blocks keep the temporaries a few blocks in size instead of three
    D x D arrays; a matrix of up to 64k entries is one block.
    """
    step = max(1, (1 << 16) // max(1, len(a)))
    return max([float(np.abs(a[i:i + step] - dagger(a[:, i:i + step])).max())
                for i in range(0, len(a), step)], default=0.0)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2, with one D x D allocation."""
    sym = dagger(m)
    sym += m
    sym /= 2.0
    return sym


def require_hermitian(a, tol: Tolerances | None = None, context: str = "matrix") -> np.ndarray:
    """Validate Hermiticity against tol.sym; return the symmetrized (A + A^dagger)/2."""
    m = as_matrix(a, context)
    res = herm_residual(m)
    sym = (tol or Tolerances()).sym
    if res > sym:
        raise NotHermitianError(res, sym, context)
    return _hermitian_part(m)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row-major convention: (A ox B)[ip+q, jr+s] = A[i,j] B[q,s].

    One broadcast multiply of the views np.kron multiplies: ``a`` with a
    unit axis after each of its axes, ``b`` with one before each, the shorter
    shape padded with leading ones. Each entry is the same single complex
    product, without np.kron's Python-level axis bookkeeping.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    nd = max(a.ndim, b.ndim)
    sa = (1,) * (nd - a.ndim) + a.shape
    sb = (1,) * (nd - b.ndim) + b.shape
    prod = a.reshape([x for n in sa for x in (n, 1)]) * b.reshape([x for n in sb for x in (1, n)])
    return prod.reshape([x * y for x, y in zip(sa, sb)])


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a non-empty sequence, left to right."""
    if len(factors) == 0:
        raise ShapeError("kron_all needs at least one factor")
    return reduce(kron, factors[1:], np.asarray(factors[0], dtype=np.complex128))


def hermitian_eigen(a, tol: Tolerances | None = None,
                    context: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    The input is validated against ``tol.sym`` and symmetrized before the
    solve, so tiny anti-Hermitian noise cannot leak into the spectrum.
    Returns the (w, v) of np.linalg.eigh: real ascending eigenvalues and
    matching orthonormal eigenvector columns.
    """
    return np.linalg.eigh(require_hermitian(a, tol, context))


def _mgs_span(blocks: Iterable[np.ndarray], threshold: float, dim: int, cap: int) -> np.ndarray:
    """Orthonormal basis of the span of the blocks' columns, taken in order.

    Modified Gram-Schmidt with two projection sweeps per column keeps the
    result orthonormal to working precision even for nearly dependent
    inputs; a column whose residual norm is at or below ``threshold`` is
    dropped. Kept columns go into a C-ordered (dim, cap) buffer and their
    conjugates into a second one, so q^dagger v and q w read views instead
    of copies. ``cap``, at most the columns offered and at most ``dim``,
    sizes the buffers; once ``cap`` columns are kept the loop stops, before
    the remaining blocks are formed. Returns a (dim, kept) view.
    """
    q = np.empty((dim, cap), dtype=np.complex128)
    qc = np.empty((dim, cap), dtype=np.complex128)
    m = 0
    for block in blocks:
        for j in range(block.shape[1]):
            v = block[:, j].copy()
            if m:
                # numpy sends a C-ordered (1, dim) row to another gemv kernel
                # than a strided one; np.conj(q.T) of one column is C-ordered,
                # so the row is copied to keep its bits (for m >= 2 the view
                # reaches the same kernel as the conjugate copy)
                qh = np.ascontiguousarray(qc[:, :1].T) if m == 1 else qc[:, :m].T
                for _ in range(2):
                    v -= q[:, :m] @ (qh @ v)
            # np.linalg.norm's own formula for a complex vector
            re, im = v.real, v.imag
            nrm = math.sqrt(re.dot(re) + im.dot(im))
            if nrm > threshold:
                u = v / nrm
                q[:, m] = u
                np.conjugate(u, out=qc[:, m])
                m += 1
                if m == cap:
                    return q
    return q[:, :m]


def orthonormal_columns(vectors: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal basis for the span of the columns of a (d, m) array.

    m = 0 is legal. The drop threshold is ``tol.rank`` times the largest
    input column norm, so the rank decision is scale free.
    """
    cols = np.asarray(vectors, dtype=np.complex128)
    if cols.ndim != 2:
        raise ShapeError(f"expected a (d, m) array of columns, got shape {cols.shape}")
    if not np.all(np.isfinite(cols.real)) or not np.all(np.isfinite(cols.imag)):
        raise ShapeError("input vectors contain NaN or Inf entries")
    d, m = cols.shape
    scale = float(np.max(np.linalg.norm(cols, axis=0), initial=0.0))
    if not scale:
        return np.zeros((d, 0), dtype=np.complex128)
    return _mgs_span([cols], (tol or Tolerances()).rank * scale, d, min(d, m))


def min_eigenvalue(a, tol: Tolerances | None = None) -> float:
    """Lowest eigenvalue of a Hermitian matrix from one eigvalsh, without eigenvectors.

    The input is validated and symmetrized as in ``hermitian_eigen``.
    """
    return float(np.linalg.eigvalsh(require_hermitian(a, tol))[0])


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)

