"""Dense complex linear algebra kernel.

All matrices are numpy complex128 arrays. Hermitian eigensystems come from
np.linalg.eigh (ascending eigenvalues, deterministic for a fixed input), and
rank decisions use modified Gram-Schmidt with a relative column-norm cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NotHermitianError, ShapeError

DEFAULT_TOL_SYM = 1e-10
DEFAULT_TOL_RANK = 1e-9
DEFAULT_TOL_NEG = 1e-9
DEFAULT_TOL_PROB = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the library.

    sym   Hermiticity check, max |A - A^dagger|.
    rank  Relative eigenvalue / column-norm cutoff for support and rank.
    neg   How negative an eigenvalue may be before PSD fails.
    prob  Probabilities below this count as zero.
    """

    sym: float = DEFAULT_TOL_SYM
    rank: float = DEFAULT_TOL_RANK
    neg: float = DEFAULT_TOL_NEG
    prob: float = DEFAULT_TOL_PROB

    @classmethod
    def from_global(cls, tol: float) -> "Tolerances":
        """Scale every threshold from a single knob.

        The rank, negativity and probability cutoffs are set to ``tol`` and
        the stricter Hermiticity check to ``tol / 10``.
        """
        if not (tol > 0.0 and np.isfinite(tol)):
            raise ShapeError(f"tolerance must be positive and finite, got {tol!r}")
        return cls(sym=tol / 10.0, rank=tol, neg=tol, prob=tol)


class EigenDecomposition(NamedTuple):
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
    """max |A - A^dagger| over entries."""
    return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


def require_hermitian(a, tol_sym: float = DEFAULT_TOL_SYM, context: str = "matrix") -> np.ndarray:
    """Validate Hermiticity and return the symmetrized matrix (A + A^dagger)/2."""
    m = as_matrix(a, context)
    res = herm_residual(m)
    if res > tol_sym:
        raise NotHermitianError(res, tol_sym, context)
    return (m + dagger(m)) / 2.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row-major convention: (A ox B)[ip+q, jr+s] = A[i,j] B[q,s]."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a non-empty sequence, left to right."""
    if len(factors) == 0:
        raise ShapeError("kron_all needs at least one factor")
    return reduce(kron, [np.asarray(f, dtype=np.complex128) for f in factors])


def hermitian_eigen(a, tol_sym: float = DEFAULT_TOL_SYM, context: str = "matrix") -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is validated against ``tol_sym`` and symmetrized before the
    solve, so tiny anti-Hermitian noise cannot leak into the spectrum.
    Eigenvalues are real and ascending.
    """
    m = require_hermitian(a, tol_sym, context)
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def _mgs_extend(basis: np.ndarray, cols: np.ndarray, threshold: float) -> np.ndarray:
    """Orthogonalize ``cols`` against ``basis`` and against each other.

    Two projection sweeps per column keep the result orthonormal to working
    precision even for nearly dependent inputs. Columns whose residual norm
    is at or below ``threshold`` are dropped. Returns the extended basis.
    """
    q = basis
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for _ in range(2):
            if q.shape[1]:
                v -= q @ (dagger(q) @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > threshold:
            q = np.hstack([q, (v / nrm)[:, None]])
    return q


def orthonormal_columns(
    vectors,
    tol_rank: float = DEFAULT_TOL_RANK,
    *,
    dim: int | None = None,
) -> np.ndarray:
    """Orthonormal basis for the span of the given column vectors.

    Accepts a (d, m) array or a sequence of length-d vectors; m = 0 is legal
    when ``dim`` supplies the ambient dimension. The drop threshold is
    ``tol_rank`` times the largest input column norm, so the rank decision is
    scale free.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = vectors.astype(np.complex128, copy=True)
    else:
        seq = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
        if not seq:
            if dim is None:
                raise ShapeError("empty input needs an explicit dim")
            return np.zeros((dim, 0), dtype=np.complex128)
        cols = np.column_stack(seq)
    d = cols.shape[0]
    if dim is not None and dim != d:
        raise ShapeError(f"vectors live in dimension {d}, expected {dim}")
    if cols.shape[1] == 0:
        return np.zeros((d, 0), dtype=np.complex128)
    if not np.all(np.isfinite(cols.real)) or not np.all(np.isfinite(cols.imag)):
        raise ShapeError("input vectors contain NaN or Inf entries")
    scale = float(np.max(np.linalg.norm(cols, axis=0)))
    if scale == 0.0:
        return np.zeros((d, 0), dtype=np.complex128)
    empty = np.zeros((d, 0), dtype=np.complex128)
    return _mgs_extend(empty, cols, tol_rank * scale)


def min_eigenvalue(a, tol_sym: float = DEFAULT_TOL_SYM, context: str = "matrix") -> float:
    w, _ = hermitian_eigen(a, tol_sym, context)
    return float(w[0])


def is_psd(a, tol_neg: float = DEFAULT_TOL_NEG, tol_sym: float = DEFAULT_TOL_SYM) -> bool:
    """True when the matrix is Hermitian with spectrum above -tol_neg."""
    try:
        return min_eigenvalue(a, tol_sym) >= -tol_neg
    except NotHermitianError:
        return False


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(A B) without forming the product matrix."""
    if a.shape != b.shape:
        raise ShapeError(f"trace_product shapes differ: {a.shape} vs {b.shape}")
    return complex(np.sum(a * b.T))

