"""Exhaustive verification of measurement operators on the tensor space.

Each scan screens every length-n tuple at once. The operator M is viewed
as a tensor with one (row, column) index pair per tensor slot, and each
slot is contracted against the stacked candidate states. After n steps
the k**n entries are Tr(M rho_t1 x ... x rho_tn) in lexicographic tuple
order. Unambiguity and non-triviality are then a masked max over that
vector: the IDENTICAL class, the DIFFERENT class, and its pairwise-distinct
subset. There is one vector per operator and candidate set: it is kept on
the operator, so both verdicts on the same set read the same vector.

Only the few tuples that can win are then evaluated one by one with
``outcome_probability``, which forms the product state explicitly. These
are the tuples whose screened value lies within a round-off window of the
class maximum. Among them the first strict maximum in lexicographic order
is reported, so every reported value above ``tol.prob`` and its tuple are
exactly what a full per-tuple scan gives. When the whole class is below
``tol.prob`` by more than the window, it is round-off. The screened
argmax is then reported with its screened value: the lexicographically
first tuple among equal screened values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .comparison import DEFAULT_CAP, MeasurementOperator, OperatorKind, build_maximal
from .errors import InternalCheckError, ShapeError
from .linalg import Tolerances, kron_all
from .states import CandidateSet


class TupleKind(str, Enum):
    IDENTICAL = "IDENTICAL"
    DIFFERENT = "DIFFERENT"


# per operator kind: the tuple class it must never fire on, and the one it serves
TUPLE_CLASSES = {
    OperatorKind.M1: (TupleKind.DIFFERENT, TupleKind.IDENTICAL),
    OperatorKind.M2: (TupleKind.IDENTICAL, TupleKind.DIFFERENT),
}


@dataclass(frozen=True)
class TupleClass:
    """An n-tuple of candidate indices, 0-based, and its comparison class.

    ``kind`` is IDENTICAL exactly when all indices coincide; DIFFERENT means
    not all identical, repeats allowed. ``pairwise_distinct`` flags tuples
    with no repeats at all.
    """

    indices: tuple[int, ...]

    @property
    def kind(self) -> TupleKind:
        return TupleKind.IDENTICAL if len(set(self.indices)) == 1 else TupleKind.DIFFERENT

    @property
    def pairwise_distinct(self) -> bool:
        return len(set(self.indices)) == len(self.indices)


def classify_tuple(indices: Sequence[int]) -> TupleClass:
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ShapeError("a tuple needs at least one index")
    return TupleClass(idx)


def outcome_probability(m: MeasurementOperator, t: TupleClass, cs: CandidateSet) -> float:
    """Probability of the outcome on the tensor product of the tuple's states.

    Returns the real part of Tr(M rho_t1 x ... x rho_tn); the imaginary part
    vanishes for Hermitian inputs. The value may undershoot 0 or overshoot 1
    by round-off, callers clamp for display.
    """
    if len(t.indices) != m.n:
        raise ShapeError(f"tuple length {len(t.indices)} does not match operator n = {m.n}")
    if cs.dim != m.dim:
        raise ShapeError(f"set dimension {cs.dim} does not match operator dim = {m.dim}")
    if any(not 0 <= i < cs.k for i in t.indices):
        raise ShapeError(f"tuple {t.indices} has indices outside 0..{cs.k - 1}")
    # Tr(M S) = sum M * S^T, and S^T is the product of the transposed
    # states, formed in the memory order that M is read in
    state_t = kron_all([cs.matrix(i).T for i in t.indices])
    return float(np.sum(m.matrix * state_t).real)


class UnambiguityResult(NamedTuple):
    """Scan over the forbidden tuple class: ok iff every probability is tiny."""

    ok: bool
    worst_probability: float
    worst_tuple: tuple[int, ...]


class NontrivialityResult(NamedTuple):
    """Scan over the allowed tuple class: ok iff some probability is positive.

    The best pairwise-distinct tuple is tracked separately; it is None when
    n > k makes repeat-free tuples impossible.
    """

    ok: bool
    best_probability: float
    best_tuple: tuple[int, ...]
    best_distinct_probability: float | None
    best_distinct_tuple: tuple[int, ...] | None


def _probabilities(m: MeasurementOperator, cs: CandidateSet) -> np.ndarray:
    """Tr(M rho_t) for all k**n tuples t, as a real vector in lexicographic order.

    M[I, J] is reshaped to (d,)*2n and its axes interleaved to
    (i1 j1, ..., in jn), so each slot is one axis of length d*d. Contracting
    a slot against S[a, i*d + j] = rho_a[j, i] replaces it by a candidate
    axis of length k, leading slot first. The leading candidates go in
    chunks sized so that the interleaved copy of M, the result vector and
    two consecutive intermediates of a chunk fit in two D x D arrays, as
    much as the per-tuple product state and trace hold. When k > d*d the
    k**n results alone can outgrow M; chunks then shrink to one candidate,
    whose intermediates stay smaller than the result vector.

    The vector is kept read-only on ``m._memo`` with its set, and reused only
    for that very set object.
    """
    if cs.dim != m.dim:
        raise ShapeError(f"set dimension {cs.dim} does not match operator dim = {m.dim}")
    kept = m._memo.get("probabilities")
    if kept is not None and kept[0] is cs:
        return kept[1]
    d, k, n = cs.dim, cs.k, m.n
    dd = d * d
    s = np.stack([cs.matrix(a).T.reshape(dd) for a in range(k)])
    order = [ax for slot in range(n) for ax in (slot, n + slot)]
    mt = m.matrix.reshape((d,) * (2 * n)).transpose(order).reshape(dd, -1)
    # complex entries per leading candidate after slots 1..n
    sizes = [k ** (slot - 1) * dd ** (n - slot) for slot in range(1, n + 1)]
    peak = max(a + b for a, b in zip([0] + sizes, sizes))
    budget = dd ** n - k ** n // 2
    chunk = max(1, min(k, budget // peak))
    out = np.empty(k ** n)
    block = k ** (n - 1)
    for a0 in range(0, k, chunk):
        t = s[a0:a0 + chunk] @ mt
        for _ in range(n - 1):
            rows, rest = t.shape
            t = np.matmul(s, t.reshape(rows, dd, rest // dd)).reshape(rows * k, rest // dd)
        out[a0 * block:a0 * block + len(t)] = t[:, 0].real
    out.setflags(write=False)
    m._memo["probabilities"] = (cs, out)
    return out


def _class_mask(k: int, n: int, kind: TupleKind) -> np.ndarray:
    """The tuples of one class; the k IDENTICAL ones sit at a*(k**n - 1)/(k - 1)."""
    identical = np.zeros(k ** n, dtype=bool)
    identical[np.arange(k) * ((k ** n - 1) // (k - 1))] = True
    return identical if kind is TupleKind.IDENTICAL else ~identical


def _distinct_mask(k: int, n: int) -> np.ndarray:
    """Tuples with no repeated index; none exist when n > k."""
    mask = np.zeros(k ** n, dtype=bool)
    if n <= k:
        digits = np.indices((k,) * n, dtype=np.min_scalar_type(k)).reshape(n, -1)
        mask[:] = True
        for a, b in itertools.combinations(range(n), 2):
            mask &= digits[a] != digits[b]
    return mask


def _class_max(
    m: MeasurementOperator,
    cs: CandidateSet,
    probs: np.ndarray,
    mask: np.ndarray,
    tol: Tolerances,
) -> tuple[float, tuple[int, ...]] | None:
    """Largest probability over the masked tuples and the tuple that has it.

    The window ``delta`` exceeds twice the largest difference between the
    screened and the per-tuple value of one tuple. Both add up the same
    products M[I, J] rho_t[J, I], each within L*u*sum|M[I, J] rho_t[J, I]|
    of the exact sum (u = eps/2). L counts the rounding steps: n*(d*d + 3)
    for the n inner products of length d*d in the contraction, and
    3n + 2*log2(D) for the product state and numpy's pairwise sum. By
    Cauchy-Schwarz the sum is at most ||M||_F*||rho_t||_F, and ||rho_t||_F,
    the product of the states' Frobenius norms, is at most 1 because purity
    is at most 1. So the two values differ by at most
    (n*(d*d + 6) + 2*log2(D))*u*||M||_F, which is below 50*eps*||M||_F on
    small shapes; 1e-12*max(1, ||M||_F) covers it with room to spare unless
    n*d*d runs into the thousands, where the bound itself sets the window.
    A tuple screened below top - delta is then strictly below the per-tuple
    maximum and can neither win nor tie, and when top <= tol.prob - delta
    every per-tuple value of the class is below tol.prob too.
    """
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    vals = probs[idx]
    top = float(vals.max())
    depth = m.n * (cs.dim ** 2 + 6) + 2 * m.n * np.log2(cs.dim)
    delta = max(1e-12, 2 * depth * np.finfo(float).eps) * max(1.0, float(np.linalg.norm(m.matrix)))
    shape = (cs.k,) * m.n
    if top <= tol.prob - delta:
        winner = idx[int(np.argmax(vals))]
        return top, tuple(int(i) for i in np.unravel_index(winner, shape))
    best_p, best_t = -np.inf, ()
    for i in idx[vals >= top - delta]:
        tup = classify_tuple(np.unravel_index(i, shape))
        p = outcome_probability(m, tup, cs)
        if p > best_p:
            best_p, best_t = p, tup.indices
    return best_p, best_t


def verify_unambiguous(
    m: MeasurementOperator, cs: CandidateSet, tol: Tolerances | None = None
) -> UnambiguityResult:
    """Certify that the operator never fires on the tuple class its kind forbids.

    Reports the largest probability over every forbidden tuple with its
    tuple (lexicographically first among ties; see the module docstring for
    ties at round-off level).
    """
    t = tol or Tolerances()
    mask = _class_mask(cs.k, m.n, TUPLE_CLASSES[m.kind][0])
    worst = _class_max(m, cs, _probabilities(m, cs), mask, t)
    worst_p, worst_t = worst if worst is not None else (0.0, ())
    return UnambiguityResult(ok=worst_p <= t.prob, worst_probability=float(worst_p),
                             worst_tuple=worst_t)


def verify_nontrivial(
    m: MeasurementOperator, cs: CandidateSet, tol: Tolerances | None = None
) -> NontrivialityResult:
    """Certify that the operator fires on at least one tuple its kind allows."""
    t = tol or Tolerances()
    mask = _class_mask(cs.k, m.n, TUPLE_CLASSES[m.kind][1])
    probs = _probabilities(m, cs)
    best = _class_max(m, cs, probs, mask, t)
    best_p, best_t = best if best is not None else (0.0, ())
    best_d = _class_max(m, cs, probs, mask & _distinct_mask(cs.k, m.n), t)
    best_dp, best_dt = best_d if best_d is not None else (None, None)
    return NontrivialityResult(
        ok=best_p > t.prob,
        best_probability=float(best_p),
        best_tuple=best_t,
        best_distinct_probability=best_dp,
        best_distinct_tuple=best_dt,
    )


def certify_construction(
    m: MeasurementOperator, cs: CandidateSet, tol: Tolerances
) -> tuple[UnambiguityResult, NontrivialityResult]:
    """Both verdicts on a built operator, which must never fire where its kind forbids.

    A constructor's operator that fires on a forbidden tuple is a bug, so
    that verdict raises InternalCheckError instead of being returned.
    """
    una = verify_unambiguous(m, cs, tol)
    if not una.ok:
        raise InternalCheckError(
            f"{m.provenance.value} operator fired on forbidden tuple {una.worst_tuple} "
            f"with probability {una.worst_probability:.3e}"
        )
    return una, verify_nontrivial(m, cs, tol)


def decide_exists(
    cs: CandidateSet,
    n: int,
    which: OperatorKind,
    cap: int = DEFAULT_CAP,
    tol: Tolerances | None = None,
) -> bool:
    """Exact existence decision for a non-trivial operator of the given kind.

    Builds the maximal operator for the class, certifies it unambiguous and
    checks non-triviality on the matching tuple class. Correct because every
    valid operator's support lies inside the maximal projector's range.
    """
    t = tol or Tolerances()
    return certify_construction(build_maximal(cs, n, which, cap=cap, tol=t), cs, t)[1].ok
