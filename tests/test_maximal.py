"""Maximal operators: the generator shortcut against the kept span loop.

``build_maximal`` skips the column-by-column span loop when one Cholesky
factorization of the class's shifted generator proves the span full. These
tests pin every operator to the loop's span basis Q: the M2 maximal and
every zero operator bit for bit to the SVD complement projector, a non-zero
M1 maximal bit for bit to I - Q Q^dagger, which is also pinned within 1e-12
of that projector and to its rank. They also check that each skip rule
skips what it claims to, and that the certificates both operators take from
Q (``_span_complement``) bound what was formed.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_rank, near_degenerate_set

from mixcomp import comparison, io
from mixcomp.cli import main
from mixcomp.comparison import (
    MeasurementOperator,
    OperatorKind,
    Provenance,
    build_maximal,
    check_conditions,
)
from mixcomp.errors import InternalCheckError
from mixcomp.linalg import Tolerances, _hermitian_part, dagger, identity, kron_all
from mixcomp.states import candidate_set, demo_set, random_density, validate_density
from mixcomp.subspace import Subspace, complement, projector

_TUPLE_SPAN = comparison._tuple_span
_CERTIFICATE = comparison._span_certificate
THETAS = [10.0**e for e in range(-12, -1)]


def loop_basis(cs, n, kind, tol=None):
    """The span basis Q the loop alone builds for the maximal operator."""
    t = tol or Tolerances()
    supports = check_conditions(cs, t).supports
    full_dim = cs.dim**n
    identical = OperatorKind(kind) is OperatorKind.M2
    combos = itertools.product(range(cs.k), repeat=n)
    tuples = [c for c in combos if (len(set(c)) == 1) == identical]
    offered = comparison._offered_columns(n, supports, OperatorKind(kind))
    return _TUPLE_SPAN(tuples, supports, t.rank, full_dim, offered)


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
    q = loop_basis(cs, n, kind)
    svd = projector(complement(Subspace(q)))
    if OperatorKind(kind) is OperatorKind.M2 or not svd.any():
        assert np.array_equal(op.matrix, svd)
        return fired, op
    expected = identity(len(q))
    expected -= q @ dagger(q)
    assert np.array_equal(op.matrix, expected)
    assert np.max(np.abs(op.matrix - svd)) <= 1e-12
    dense = MeasurementOperator(n, cs.dim, svd, op.provenance)
    assert op.rank() == dense.rank() == len(q) - q.shape[1]
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

    def counted(self, tol=Tolerances()):
        r = residuals(self, tol)
        calls.append(r["certified"])
        return r

    def solve(a, *args, **kwargs):
        solves.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(comparison.MeasurementOperator, "residuals", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    # 243 identical-tuple columns < D = 256: a non-zero projector from the loop
    op = build_maximal(span_shape_set(), 4, OperatorKind.M2)
    rank = op.rank()
    # the self-check's one read of the residuals is proven by eps
    assert calls == [True] and 256 not in solves
    # no product ran, so the proven projector residual is eps itself
    assert op.residuals()["projector"] == op._certificate()[0] <= 1e-9
    assert "bound" not in op._memo
    # the dense spectrum stays at hand and counts the same rank
    assert op._spectrum()[0]["projector"] <= 1e-9
    assert solves.count(256) == 1
    assert rank == dense_rank(op) == op.rank() > 0


def test_self_check_dense_fallback_keeps_the_spectrum(monkeypatch):
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def solve(a, *args, **kwargs):
        solves.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    t = Tolerances(1e-14)
    # the span certificate's eps = 8.4e-13 and the product's 7.2e-14 both
    # exceed tol.neg: only the dense residuals can pass this projector
    op = build_maximal(demo_set("eq26"), 3, OperatorKind.M2, tol=t)
    assert op._certificate()[0] > t.neg and op._projector_bound()[1] > t.neg
    assert solves == [27]
    # rank counts the spectrum the self-check kept
    assert op.rank(t) == 6
    assert solves == [27]


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


def c057_set():
    """Seed-7 corpus_small set c057: ``mixcomp gen --d 2 --k 3 --ranks 1,1,1 --seed 2847482``."""
    seeds = np.random.SeedSequence(2847482).generate_state(3)
    return candidate_set([random_density(2, 1, int(s)) for s in seeds])


def test_full_span_without_proof_is_exact_zero(spy):
    t = Tolerances(3e-2)
    cs = c057_set()
    op = build_maximal(cs, 3, OperatorKind.M1, tol=t)
    # the Cholesky shift fails at this tolerance, yet the loop keeps all D = 8 columns
    assert spy["certs"][-1][0] == -np.inf and spy["loops"] == 1
    q = loop_basis(cs, 3, OperatorKind.M1, t)
    assert q.shape == (8, 8)
    assert not op.matrix.any() and op.rank(t) == 0
    # I - Q Q^dagger would leave round-off that the loose rank cut counts
    rest = identity(8)
    rest -= q @ dagger(q)
    assert MeasurementOperator(3, 2, rest, Provenance.M1_MAXIMAL).rank(t) > 0


def noisy_basis(rng, dim, cols, size):
    """The first ``cols`` columns of a random unitary, plus noise of norm about 10**size."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(g)
    noise = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    return basis[:, :cols] + 10.0**size * noise / max(np.linalg.norm(noise), 1.0)


def assert_eps_bounds(matrix, eps):
    """eps >= ||S^2 - S||_F for S = (M + M^dagger)/2, measured in extended precision."""
    sym = _hermitian_part(matrix).astype(np.clongdouble)
    residual = sym @ sym - sym
    assert eps >= float(np.sqrt(np.sum(np.abs(residual) ** 2)))


# blocks of 3 and 7 rows split every D of the sweep unevenly; 64 is the default
BLOCKS = st.sampled_from([3, 7, comparison._BLOCK])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 5), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0, 1), size=st.floats(-14, -6), tol=st.sampled_from([1e-9, 1e-6]),
       block=BLOCKS)
def test_span_complement_eps_bounds_the_formed_matrix(d, n, seed, fraction, size, tol, block):
    rng = np.random.default_rng(seed)
    dim = d**n
    cols = int(fraction * (dim - 1))
    q = noisy_basis(rng, dim, cols, size)
    with mock.patch.object(comparison, "_BLOCK", block):
        matrix, certificate = comparison._span_complement(q)
    assert_eps_bounds(matrix, certificate[0])
    op = MeasurementOperator(n, d, matrix, Provenance.M1_MAXIMAL)
    op._memo["certificate"] = certificate
    t = Tolerances(tol)
    if op._hermitian() <= t.sym:
        rank = op.rank(t)
        if "residuals" not in op._memo:
            w = np.abs(np.linalg.eigvalsh(_hermitian_part(op.matrix)))
            assert rank == int(np.sum(w > t.rank * w.max())) == dim - cols


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 5), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0, 1), size=st.floats(-14, -6),
       tilt=st.one_of(st.none(), st.floats(-15, -8)), block=BLOCKS)
def test_span_complement_eps_bounds_a_kept_svd_projector(d, n, seed, fraction, size, tilt, block):
    # P = V V^dagger from the SVD complement of a noisy Q, as the M2 maximal
    # forms it; a tilted V moves P off I - Q Q^dagger, so the distance term
    # has to carry the bound
    rng = np.random.default_rng(seed)
    dim = d**n
    cols = int(fraction * (dim - 1))
    q = noisy_basis(rng, dim, cols, size)
    vh = np.linalg.svd(dagger(q), full_matrices=True)[2]
    v = np.conjugate(vh[cols:].T, order="C")
    if tilt is not None:
        noise = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
        v += 10.0**tilt * noise / np.linalg.norm(noise)
    kept = v @ dagger(v)
    with mock.patch.object(comparison, "_BLOCK", block):
        matrix, (eps, trace) = comparison._span_complement(q, kept)
    assert matrix is kept
    assert_eps_bounds(kept, eps)
    assert trace == float(np.trace(kept).real)


def test_m2_complement_builds_no_dense_subspace(monkeypatch):
    ambients, calls = [], []
    post_init = Subspace.__post_init__

    def recorded(self):
        ambients.append(np.shape(self.basis)[0])
        post_init(self)

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Subspace, "__post_init__", recorded)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    bound = comparison.MeasurementOperator._projector_bound
    monkeypatch.setattr(comparison.MeasurementOperator, "_projector_bound", counted("bound", bound))
    # 243 and 5 identical-tuple columns against D = 256: non-zero projectors
    for cs, n in ((span_shape_set(), 4), (short_column_set(), 2)):
        ambients.clear()
        op = build_maximal(cs, n, OperatorKind.M2)
        rank = op.rank()
        assert 256 not in ambients and calls == []
        dense = MeasurementOperator(n, cs.dim, op.matrix, op.provenance)
        assert rank == dense_rank(dense) == 256 - loop_basis(cs, n, OperatorKind.M2).shape[1]
        calls.clear()


def test_corrupted_svd_complement_still_raises(monkeypatch):
    svd = np.linalg.svd

    def corrupted(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        if kwargs.get("full_matrices") and a.shape[1] == 256:
            vh = out[2].copy()
            vh[-1] *= 0.9
            return out[0], out[1], vh
        return out

    monkeypatch.setattr(np.linalg, "svd", corrupted)
    with pytest.raises(InternalCheckError, match="failed its own invariants"):
        build_maximal(short_column_set(), 2, OperatorKind.M2)


def short_column_set():
    """d=16, ranks 1 and 2, n=2: 4 different-tuple columns against D = 256."""
    return candidate_set([random_density(16, 1, 5), random_density(16, 2, 6)])


def test_m1_complement_needs_no_dense_linear_algebra(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    bound = comparison.MeasurementOperator._projector_bound
    monkeypatch.setattr(comparison.MeasurementOperator, "_projector_bound", counted("bound", bound))
    op = build_maximal(short_column_set(), 2, OperatorKind.M1)
    assert op.rank() == 256 - 4
    assert calls == []


def test_corrupted_basis_still_raises(monkeypatch):
    def corrupted(*args):
        q = _TUPLE_SPAN(*args).copy()
        q[:, 0] *= 0.9
        return q

    monkeypatch.setattr(comparison, "_tuple_span", corrupted)
    with pytest.raises(InternalCheckError, match="failed its own invariants"):
        build_maximal(short_column_set(), 2, OperatorKind.M1)
