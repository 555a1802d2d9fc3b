"""Maximal operators: the generator shortcut against the kept span loop.

``build_maximal`` skips the column-by-column span loop when one eigensolve of
the class's generator proves the span full. These tests pin that every
operator stays bit-identical to the loop's, and that each skip rule skips
what it claims to.
"""

import numpy as np
import pytest

from conftest import near_degenerate_set

from mixcomp import comparison
from mixcomp.comparison import OperatorKind, build_maximal, check_conditions
from mixcomp.linalg import Tolerances
from mixcomp.states import candidate_set, random_density
from mixcomp.subspace import Subspace, complement, projector

_IDENTICAL_SPAN = comparison._identical_tuple_span
_DIFFERENT_SPAN = comparison._different_tuple_span
_CERTIFICATE = comparison._span_certificate
THETAS = [10.0**e for e in range(-12, -1)]


def loop_reference(cs, n, kind):
    """The maximal projector as the span loop alone builds it."""
    t = Tolerances()
    supports = check_conditions(cs, t).supports
    full_dim = cs.dim**n
    if OperatorKind(kind) is OperatorKind.M2:
        q = _IDENTICAL_SPAN(n, supports, t.rank, full_dim)
    else:
        q = _DIFFERENT_SPAN(cs.k, n, supports, t.rank, full_dim)
    return projector(complement(Subspace(full_dim, q)))


def span_shape_set(seed=0):
    """A maximal_span-like set: d=4, three rank-3 states, run at n=4."""
    return candidate_set([random_density(4, 3, 100 * seed + i) for i in range(3)])


@pytest.fixture
def spy(monkeypatch):
    """Records every certificate and every span-loop call of build_maximal."""
    log = {"certs": [], "loops": 0}

    def certificate(*args):
        cert = _CERTIFICATE(*args)
        log["certs"].append(cert)
        return cert

    def counted(helper):
        def run(*args):
            log["loops"] += 1
            return helper(*args)
        return run

    monkeypatch.setattr(comparison, "_span_certificate", certificate)
    monkeypatch.setattr(comparison, "_identical_tuple_span", counted(_IDENTICAL_SPAN))
    monkeypatch.setattr(comparison, "_different_tuple_span", counted(_DIFFERENT_SPAN))
    return log


def build_and_check(spy, cs, n, kind):
    """Build through the shortcut, compare with the loop; (fired, operator)."""
    before = spy["loops"]
    op = build_maximal(cs, n, kind)
    fired = spy["loops"] == before
    cert = spy["certs"][-1]
    assert fired == (cert is not None and cert[0] > cert[1])
    assert np.array_equal(op.matrix, loop_reference(cs, n, kind))
    return fired, op


def test_corpus_operators_equal_the_span_loop(corpus, spy):
    fired = 0
    for _name, cs, _mixed in corpus:
        for n in (2, 3):
            for kind in OperatorKind:
                fired += build_and_check(spy, cs, n, kind)[0]
    # both paths are exercised: 816 builds, some skipped, some looped
    assert 0 < fired < 2 * 2 * len(corpus)


def test_span_shape_operators_equal_the_span_loop(spy):
    cs = span_shape_set()
    assert build_and_check(spy, cs, 4, OperatorKind.M1)[0]
    # 3 * 3**4 = 243 identical-tuple columns < D = 256: the loop must run
    assert not build_and_check(spy, cs, 4, OperatorKind.M2)[0]
    assert spy["certs"][-1] is None


@pytest.mark.parametrize(
    "d,k,rank,n,fires",
    [(3, 2, 2, 3, False), (3, 3, 2, 2, True), (4, 3, 3, 2, True)],
    ids=["pair-d3-r2-n3", "triple-d3-r2-n2", "triple-d4-r3-n2"],
)
def test_near_degenerate_sweep(spy, d, k, rank, n, fires):
    outcomes = set()
    short_loops = 0
    for theta in THETAS:
        for seed in range(3):
            cs = near_degenerate_set(d, k, rank, theta, 1000 * d + 10 * k + seed)
            for kind in OperatorKind:
                fired, op = build_and_check(spy, cs, n, kind)
                outcomes.add(fired)
                if spy["certs"][-1] is not None and np.any(op.matrix):
                    short_loops += 1
    # a pair's kernel never closes; a triple's closes as theta grows
    assert outcomes == ({True, False} if fires else {False})
    # the sweep reaches cases where the class offers D columns and yet the
    # loop drops some (theta at or below tol.rank), which a cut too low
    # would turn into a zero operator
    assert short_loops > 0


def test_full_span_calls_no_span_helper(spy):
    op = build_maximal(span_shape_set(), 4, OperatorKind.M1)
    assert spy["loops"] == 0
    assert not np.any(op.matrix)


def test_short_column_count_skips_the_eigensolve(spy, monkeypatch):
    # d=24, ranks 1 and 2, n=2: 5 and 4 product columns against D = 576
    cs = candidate_set([random_density(24, 1, 5), random_density(24, 2, 6)])
    full_dim = 24**2
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for kind in OperatorKind:
        calls.clear()
        op = build_maximal(cs, 2, kind)
        assert spy["certs"][-1] is None
        # the only D-sized eigvalsh left is the self-check's residuals()
        assert calls.count(full_dim) == 1
    assert spy["loops"] == 2
    assert np.any(op.matrix)


def test_self_check_computes_residuals_once(monkeypatch):
    calls = []
    residuals = comparison.MeasurementOperator.residuals

    def counted(self):
        calls.append(self.provenance)
        return residuals(self)

    monkeypatch.setattr(comparison.MeasurementOperator, "residuals", counted)
    build_maximal(span_shape_set(), 2, OperatorKind.M2)
    assert len(calls) == 1
