"""Density matrices, candidate sets, and the bundled demo sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CandidateSetError, NotPSDError, ShapeError, TraceError
from .linalg import Tolerances, require_hermitian

TRACE_TOL = 1e-9
DUPLICATE_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, unit trace.

    The stored matrix is the symmetrized copy of the input and is read-only.
    The symmetrized matrix is exactly Hermitian, so its spectrum comes from
    one eigh without a second validation. That eigh's read-only (w, v) pair
    is kept in ``_eigh``, where ``subspace.support_of`` reads the support.
    """

    matrix: np.ndarray
    _eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = Tolerances()
        m = require_hermitian(self.matrix, t, context="density matrix")
        w, v = np.linalg.eigh(m)
        if float(w[0]) < -t.neg:
            raise NotPSDError(float(w[0]), t.neg, context="density matrix")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceError(tr, TRACE_TOL, context="density matrix")
        for a in (m, w, v):
            a.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigh", (w, v))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_density(matrix) -> DensityMatrix:
    """Check the density matrix invariants and return the validated state.

    Raises NotHermitianError, NotPSDError or TraceError with the offending
    residual in the message.
    """
    return DensityMatrix(matrix)


@dataclass(frozen=True)
class CandidateSet:
    """The k >= 2 possible preparations, with display labels.

    All states share one ambient dimension and no two are numerically equal
    (max entry difference above the duplicate tolerance). Indices are
    0-based everywhere in the API.
    """

    labels: tuple[str, ...]
    states: tuple[DensityMatrix, ...]
    # comparison.check_conditions' memo: one ConditionReport per Tolerances
    _conditions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != len(self.states):
            raise CandidateSetError(
                f"{len(self.labels)} labels for {len(self.states)} states"
            )
        if len(self.states) < 2:
            raise CandidateSetError(
                f"a candidate set needs at least 2 states, got {len(self.states)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise CandidateSetError(f"duplicate labels in {list(self.labels)}")
        d = self.states[0].dim
        for lbl, st in zip(self.labels, self.states):
            if st.dim != d:
                raise CandidateSetError(
                    f"state '{lbl}' has dimension {st.dim}, expected {d}"
                )
        for i in range(len(self.states)):
            for j in range(i + 1, len(self.states)):
                diff = float(np.max(np.abs(self.states[i].matrix - self.states[j].matrix)))
                if diff <= DUPLICATE_TOL:
                    raise CandidateSetError(
                        f"states '{self.labels[i]}' and '{self.labels[j]}' are "
                        f"numerically identical (max difference {diff:.3e})"
                    )

    @property
    def k(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def matrix(self, i: int) -> np.ndarray:
        return self.states[i].matrix


def candidate_set(states: Sequence, labels: Sequence[str] | None = None) -> CandidateSet:
    """Build a CandidateSet from matrices or DensityMatrix objects."""
    ds = tuple(s if isinstance(s, DensityMatrix) else validate_density(s) for s in states)
    if labels is None:
        labels = tuple(f"sigma{i + 1}" for i in range(len(ds)))
    return CandidateSet(labels=tuple(labels), states=ds)


def basis_state(d: int, i: int) -> np.ndarray:
    """Computational basis column vector |i> in C^d."""
    if not 0 <= i < d:
        raise ShapeError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d, dtype=np.complex128)
    v[i] = 1.0
    return v


def from_ensemble(weights: Iterable[float], vectors: Iterable) -> DensityMatrix:
    """Mixture sum_j p_j |psi_j><psi_j| from weights and unit vectors.

    Weights must be nonnegative and sum to 1, vectors must be normalized;
    both are checked to 1e-9.
    """
    p = np.asarray(list(weights), dtype=np.float64)
    vs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if len(p) != len(vs) or len(p) == 0:
        raise ShapeError(f"{len(p)} weights for {len(vs)} vectors")
    if np.any(p < -1e-12):
        raise ShapeError(f"negative ensemble weight {float(p.min())!r}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ShapeError(f"ensemble weights sum to {float(p.sum())!r}, expected 1")
    d = vs[0].size
    rho = np.zeros((d, d), dtype=np.complex128)
    for w, v in zip(p, vs):
        if v.size != d:
            raise ShapeError(f"ensemble vectors mix dimensions {d} and {v.size}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-9:
            raise ShapeError(f"ensemble vector has norm {nrm!r}, expected 1")
        rho += w * np.outer(v, np.conj(v))
    return validate_density(rho)


def maximally_mixed(d: int) -> DensityMatrix:
    """The state I/d, whose support is all of C^d."""
    if d < 1:
        raise ShapeError(f"dimension must be positive, got {d}")
    return DensityMatrix(np.eye(d, dtype=np.complex128) / d)


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Reproducible random state of the requested rank.

    Draws a complex Gaussian (d, rank) factor G with np.random.default_rng
    and returns G G^dagger normalized to unit trace. The same (d, rank, seed)
    triple always yields the same state.
    """
    if not 1 <= rank <= d:
        raise ShapeError(f"rank {rank} out of range for dimension {d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ np.conj(g.T)
    return DensityMatrix(m / np.trace(m).real)


def _demo_eq26() -> CandidateSet:
    """Three rank-2 mixtures in C^3, each omitting one basis direction."""
    e = [basis_state(3, i) for i in range(3)]
    s1 = from_ensemble([0.5, 0.5], [e[0], e[1]])
    s2 = from_ensemble([0.5, 0.5], [e[1], e[2]])
    s3 = from_ensemble([0.5, 0.5], [e[0], e[2]])
    return candidate_set([s1, s2, s3], ["sigma1", "sigma2", "sigma3"])


def _demo_orth2() -> CandidateSet:
    """Two orthogonal pure qubit states."""
    s1 = from_ensemble([1.0], [basis_state(2, 0)])
    s2 = from_ensemble([1.0], [basis_state(2, 1)])
    return candidate_set([s1, s2], ["sigma1", "sigma2"])


def _demo_nested2() -> CandidateSet:
    """A pure qubit state next to the maximally mixed one; supports nest."""
    s1 = from_ensemble([1.0], [basis_state(2, 0)])
    s2 = maximally_mixed(2)
    return candidate_set([s1, s2], ["sigma1", "sigma2"])


_DEMOS = {
    "eq26": _demo_eq26,
    "orth2": _demo_orth2,
    "nested2": _demo_nested2,
}

DEMO_NAMES: tuple[str, ...] = tuple(sorted(_DEMOS))


def demo_set(name: str) -> CandidateSet:
    """One of the bundled demo sets: eq26, orth2 or nested2."""
    try:
        factory = _DEMOS[name]
    except KeyError:
        raise CandidateSetError(
            f"unknown demo set {name!r}, available: {', '.join(DEMO_NAMES)}"
        ) from None
    return factory()
