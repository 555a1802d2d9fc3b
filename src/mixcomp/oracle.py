"""Exhaustive verification of measurement operators on the tensor space.

Each scan screens every length-n tuple at once. The operator M is viewed
as a tensor with one (row, column) index pair per tensor slot, and each
slot is contracted against the stacked candidate states. After n steps
the k**n entries are Tr(M rho_t1 x ... x rho_tn) in lexicographic tuple
order. Unambiguity and non-triviality are then a masked max over that
vector: the IDENTICAL class, the DIFFERENT class, and its pairwise-distinct
subset. There is one vector per operator and candidate set: it is kept on
the operator, so both verdicts on the same set read the same vector.

Only the few tuples that can win are then re-evaluated, on the path of
``outcome_probability``: consecutive tuples share the product of their
leading slots, and each value keeps the bits of a freshly formed product
state (on the numpy builds ``_tuple_probabilities`` names). These are the
tuples whose screened value lies within a round-off window of the class
maximum. Among them the first strict maximum in lexicographic order is
reported, so every reported value above
``tol.prob`` and its tuple are exactly what a full per-tuple scan gives.
When the whole class is below ``tol.prob`` by more than the window, it is
round-off. The screened argmax is then reported with its screened value:
the lexicographically first tuple among equal screened values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .comparison import DEFAULT_CAP, MeasurementOperator, OperatorKind, build_maximal
from .errors import InternalCheckError, ShapeError
from .linalg import Tolerances, _kron_each
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
    return _tuple_probabilities(m, cs, [t.indices])[0]


def _tuple_probabilities(m: MeasurementOperator, cs: CandidateSet,
                         tuples: Sequence[tuple[int, ...]]) -> list[float]:
    """Re Tr(M rho_t) for each tuple t, with the bits of np.sum(M * S) for a fresh S.

    S = rho_t1^T x ... x rho_tn^T, so M is read in its own memory order. The
    leading slots' product comes from ``_kron_each``; the last slot goes into
    one C-ordered D x D buffer that M multiplies in place: as d*d scaled
    copies where each has >= 4096 entries and d*D < 4096 (its d passes stay
    in cache), else as one broadcast multiply with d-long inner loops. The
    bits match only while numpy multiplies complex doubles by one kernel in
    place, into a strided view and into a new array: checked with numpy
    2.4.6 on x86-64 with AVX-512, and guarded on other hosts by
    test_window_values_have_the_bits_of_fresh_product_states.
    """
    d, mat = cs.dim, m.matrix
    states = [cs.matrix(a).T for a in range(cs.k)]
    buf = np.empty(mat.shape, dtype=np.complex128)
    p = len(buf) // d
    b4 = buf.reshape(p, d, p, d)
    copies = p * p >= 4096 and d * len(buf) < 4096
    out = []
    for t, prefix in zip(tuples, _kron_each(states, (t[:-1] for t in tuples))):
        last = states[t[-1]]
        if prefix is None:
            buf[...] = last
        elif copies:
            for q, s in itertools.product(range(d), repeat=2):
                np.multiply(prefix, last[q, s], out=b4[:, q, :, s])
        else:
            np.multiply(prefix.reshape(p, 1, p, 1), last.reshape(1, d, 1, d), out=b4)
        out.append(float(np.sum(np.multiply(mat, buf, out=buf)).real))
    return out


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


def _probabilities(m: MeasurementOperator, cs: CandidateSet) -> tuple[np.ndarray, float]:
    """Tr(M rho_t) for all k**n tuples t, and the round-off window of ``_class_max``.

    The vector is real, in lexicographic order. M[I, J] is reshaped to
    (d,)*2n and its axes interleaved to (i1 j1, ..., in jn), so each slot is
    one axis of length d*d. Contracting a slot against S[a, i*d + j] =
    rho_a[j, i] replaces it by a candidate axis of length k, leading slot
    first. The leading candidates go in chunks sized so that the
    interleaved copy of M, the result vector and two consecutive
    intermediates of a chunk fit in two D x D arrays, as much as the
    per-tuple product state and trace hold. When k > d*d the k**n results
    alone can outgrow M; chunks then shrink to one candidate, whose
    intermediates stay smaller than the result vector.

    The vector is kept read-only on ``m._memo`` with its set and its window,
    and reused only for that very set object.
    """
    if cs.dim != m.dim:
        raise ShapeError(f"set dimension {cs.dim} does not match operator dim = {m.dim}")
    kept = m._memo.get("probabilities")
    if kept is not None and kept[0] is cs:
        return kept[1:]
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
    depth = n * (d ** 2 + 6) + 2 * n * np.log2(d)
    delta = max(1e-12, 2 * depth * np.finfo(float).eps) * max(1.0, float(np.linalg.norm(m.matrix)))
    m._memo["probabilities"] = (cs, out, delta)
    return out, delta


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
    delta: float,
    mask: np.ndarray,
    tol: Tolerances,
) -> tuple[float, tuple[int, ...]] | None:
    """Largest probability over the masked tuples and the tuple that has it.

    The window ``delta`` (from ``_probabilities``) exceeds twice the largest
    difference between the screened and the per-tuple value of one tuple.
    Both add up the same products M[I, J] rho_t[J, I], each within
    L*u*sum|M[I, J] rho_t[J, I]| of the exact sum (u = eps/2). L counts the
    rounding steps: n*(d*d + 3) for the n inner products of length d*d in
    the contraction, and 3n + 2*log2(D) for the product state and numpy's
    pairwise sum. By Cauchy-Schwarz the sum is at most ||M||_F*||rho_t||_F,
    and ||rho_t||_F, the product of the states' Frobenius norms, is at most
    1 because purity is at most 1. So the two values differ by at most
    (n*(d*d + 6) + 2*log2(D))*u*||M||_F, which is below 50*eps*||M||_F on
    small shapes; 1e-12*max(1, ||M||_F) covers it with room to spare unless
    n*d*d runs into the thousands, where the bound itself sets the window. A
    tuple screened below top - delta is then strictly below the per-tuple
    maximum and can neither win nor tie, and when top <= tol.prob - delta
    every per-tuple value of the class is below tol.prob too.
    """
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    vals = probs[idx]
    top = float(vals.max())
    shape = (cs.k,) * m.n
    if top <= tol.prob - delta:
        winner = idx[int(np.argmax(vals))]
        return top, tuple(int(i) for i in np.unravel_index(winner, shape))
    window = [tuple(int(i) for i in np.unravel_index(w, shape)) for w in idx[vals >= top - delta]]
    best_p, best_t = -np.inf, ()
    for t, p in zip(window, _tuple_probabilities(m, cs, window)):
        if p > best_p:
            best_p, best_t = p, t
    return best_p, best_t


def verify_unambiguous(
    m: MeasurementOperator, cs: CandidateSet, tol: Tolerances = Tolerances()
) -> UnambiguityResult:
    """Certify that the operator never fires on the tuple class its kind forbids.

    Reports the largest probability over every forbidden tuple with its
    tuple (lexicographically first among ties; see the module docstring for
    ties at round-off level).
    """
    mask = _class_mask(cs.k, m.n, TUPLE_CLASSES[m.kind][0])
    worst = _class_max(m, cs, *_probabilities(m, cs), mask, tol)
    worst_p, worst_t = worst if worst is not None else (0.0, ())
    return UnambiguityResult(ok=worst_p <= tol.prob, worst_probability=float(worst_p),
                             worst_tuple=worst_t)


def verify_nontrivial(
    m: MeasurementOperator, cs: CandidateSet, tol: Tolerances = Tolerances()
) -> NontrivialityResult:
    """Certify that the operator fires on at least one tuple its kind allows."""
    mask = _class_mask(cs.k, m.n, TUPLE_CLASSES[m.kind][1])
    probs, delta = _probabilities(m, cs)
    best = _class_max(m, cs, probs, delta, mask, tol)
    best_p, best_t = best if best is not None else (0.0, ())
    best_d = _class_max(m, cs, probs, delta, mask & _distinct_mask(cs.k, m.n), tol)
    best_dp, best_dt = best_d if best_d is not None else (None, None)
    return NontrivialityResult(
        ok=best_p > tol.prob,
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
    tol: Tolerances = Tolerances(),
) -> bool:
    """Exact existence decision for a non-trivial operator of the given kind.

    Builds the maximal operator for the class, certifies it unambiguous and
    checks non-triviality on the matching tuple class. Correct because every
    valid operator's support lies inside the maximal projector's range.
    """
    return certify_construction(build_maximal(cs, n, which, cap=cap, tol=tol), cs, tol)[1].ok
