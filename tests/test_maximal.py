"""Maximal operators: the generator shortcut against the kept span loop.

``build_maximal`` skips the column-by-column span loop when one Cholesky
factorization of the class's shifted generator proves the span full. These tests pin that every
operator stays bit-identical to the loop's, and that each skip rule skips
what it claims to.
"""

import itertools

import numpy as np
import pytest

from conftest import near_degenerate_set

from mixcomp import comparison, io
from mixcomp.cli import main
from mixcomp.comparison import OperatorKind, build_maximal, check_conditions
from mixcomp.linalg import Tolerances, kron_all
from mixcomp.states import candidate_set, random_density, validate_density
from mixcomp.subspace import Subspace, complement, projector

_TUPLE_SPAN = comparison._tuple_span
_CERTIFICATE = comparison._span_certificate
THETAS = [10.0**e for e in range(-12, -1)]


def loop_reference(cs, n, kind):
    """The maximal projector as the span loop alone builds it."""
    t = Tolerances()
    supports = check_conditions(cs, t).supports
    full_dim = cs.dim**n
    identical = OperatorKind(kind) is OperatorKind.M2
    combos = itertools.product(range(cs.k), repeat=n)
    tuples = [c for c in combos if (len(set(c)) == 1) == identical]
    offered = comparison._offered_columns(n, supports, OperatorKind(kind))
    q = _TUPLE_SPAN(tuples, supports, t.rank, full_dim, offered)
    return projector(complement(Subspace(q)))


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

    def span(*args):
        log["loops"] += 1
        return _TUPLE_SPAN(*args)

    monkeypatch.setattr(comparison, "_span_certificate", certificate)
    monkeypatch.setattr(comparison, "_tuple_span", span)
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
        # the self-check is proven by eps, so no D-sized eigvalsh is left
        assert calls.count(full_dim) == 0
    assert spy["loops"] == 2
    assert np.any(op.matrix)


def test_self_check_needs_no_dense_residuals(monkeypatch):
    calls, solves = [], []
    residuals, eigvalsh = comparison.MeasurementOperator.residuals, np.linalg.eigvalsh

    def counted(self):
        calls.append(self.provenance)
        return residuals(self)

    def solve(a, *args, **kwargs):
        solves.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(comparison.MeasurementOperator, "residuals", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    # 243 identical-tuple columns < D = 256: a non-zero projector from the loop
    op = build_maximal(span_shape_set(), 4, OperatorKind.M2)
    rank = op.rank()
    assert calls == [] and 256 not in solves
    # the dense residuals stay public; their spectrum gives the same rank
    assert op.residuals()["projector"] <= 1e-9
    assert solves.count(256) == 1
    assert rank == op.rank() > 0


def generator_min(cs, n, kind):
    """lambda_min of the class's generator, from a dense eigensolve."""
    projs = [projector(s) for s in check_conditions(cs, Tolerances()).supports]
    g = sum(kron_all([p] * n) for p in projs)
    if OperatorKind(kind) is OperatorKind.M1:
        g = kron_all([sum(projs)] * n) - g
    return float(np.linalg.eigvalsh(g)[0])


def same_support_set():
    """Three rank-2 states on one plane of C^3: both generators exactly singular."""
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = u[:, :2]
    return candidate_set([validate_density((b * w) @ b.conj().T)
                          for w in ([0.5, 0.5], [0.3, 0.7], [0.8, 0.2])])


def test_cholesky_cut_straddled(spy, tmp_path, capsys):
    # a near-degenerate triple at n = 2: lambda_min of the M1 generator grows
    # as theta^2, so theta places it relative to the Cholesky shift
    def at(theta):
        return near_degenerate_set(3, 3, 2, theta, 3031)

    build_and_check(spy, at(1e-4), 2, OperatorKind.M1)
    floor, cut = spy["certs"][-1]
    # success proves floor = shift - err with shift = cut + 2 err
    shift = 2 * floor - cut
    lam = generator_min(at(1e-4), 2, OperatorKind.M1)
    for factor, fires in ((0.9, False), (0.97, False), (1.03, True), (1.1, True)):
        cs = at(1e-4 * np.sqrt(factor * shift / lam))
        assert generator_min(cs, 2, OperatorKind.M1) == pytest.approx(factor * shift, rel=1e-3)
        assert build_and_check(spy, cs, 2, OperatorKind.M1)[0] == fires
        path = tmp_path / f"set-{factor}.json"
        io.write_candidate_set(cs, str(path))
        assert main(["analyze", str(path), "--n", "2"]) == 0
        capsys.readouterr()


def test_singular_generator_falls_back_to_the_loop(spy, tmp_path, capsys):
    cs = same_support_set()
    for kind in OperatorKind:
        assert generator_min(cs, 2, kind) < 1e-12
        fired, op = build_and_check(spy, cs, 2, kind)
        assert spy["certs"][-1] == (-np.inf, spy["certs"][-1][1]) and not fired
        assert np.any(op.matrix)
    path = tmp_path / "set.json"
    io.write_candidate_set(cs, str(path))
    assert main(["analyze", str(path), "--n", "2"]) == 0
    capsys.readouterr()
