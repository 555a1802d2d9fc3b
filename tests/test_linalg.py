import functools
import tracemalloc

import numpy as np
import pytest
from conftest import near_degenerate_set
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp.comparison import MeasurementOperator, Provenance, check_conditions
from mixcomp.errors import NotHermitianError, ShapeError
from mixcomp.linalg import (
    Tolerances,
    _mgs_span,
    dagger,
    herm_residual,
    hermitian_eigen,
    identity,
    kron,
    kron_all,
    min_eigenvalue,
    orthonormal_columns,
    require_hermitian,
)
from mixcomp.states import basis_state


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def random_matrix(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t == Tolerances(1e-9)
        assert hash(t) == hash(Tolerances(1e-9))
        # the bits every report's tolerances block has always carried
        assert (t.sym, t.rank, t.neg, t.prob) == (1e-10, 1e-9, 1e-9, 1e-9)

    def test_every_role_scales_from_the_value(self):
        t = Tolerances(1e-6)
        assert t.sym == 1e-7
        assert t.rank == t.neg == t.prob == 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("inf"), float("-inf"), float("nan")])
    def test_rejects_nonpositive_or_non_finite(self, bad):
        with pytest.raises(ShapeError, match="tolerance must be positive and finite"):
            Tolerances(bad)


class TestKron:
    def test_known_values(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.array(
            [
                [0, 1, 0, 2],
                [1, 0, 2, 0],
                [0, 3, 0, 4],
                [3, 0, 4, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(kron(a, b), expected)

    def test_trace_is_multiplicative(self):
        a = random_hermitian(3, 1)
        b = random_hermitian(4, 2)
        lhs = np.trace(kron(a, b))
        rhs = np.trace(a) * np.trace(b)
        assert abs(lhs - rhs) < 1e-12

    def test_kron_all_associates(self):
        ms = [random_matrix(2, s) for s in range(3)]
        left = kron(kron(ms[0], ms[1]), ms[2])
        assert np.allclose(kron_all(ms), left)

    def test_kron_all_rejects_empty(self):
        with pytest.raises(ShapeError):
            kron_all([])


def same_bits(x, y):
    """Equal shape, dtype and bytes: unlike array_equal, -0.0 differs from 0.0."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _kron_inputs():
    a, b = random_matrix(3, 31), random_matrix(4, 32)
    rect = np.random.default_rng(33).standard_normal((2, 5)) + 1j
    return {
        "matrices": (a, b),
        "rectangular": (rect, a),
        "vectors": (basis_state(3, 1), random_matrix(4, 34)[0]),
        "vector-matrix": (basis_state(2, 0), a),
        "matrix-vector": (b, random_matrix(3, 35)[:, 1]),
        "empty-bases": (np.zeros((3, 0), dtype=complex), np.zeros((2, 0), dtype=complex)),
        "empty-and-full": (np.zeros((4, 0), dtype=complex), a),
        "integers": (np.arange(6).reshape(2, 3) - 2, np.array([[1, -3], [0, 7]])),
        "transposed-views": (a.T, b.T),
        "strided-views": (b[::2, 1:], a[:, ::-1]),
        "signed-zeros": (np.array([[-0.0 + 0j, 1j]]), np.array([[1 - 0j, -1.0 + 0j]])),
    }


class TestKronBits:
    """kron and kron_all give np.kron's bits on every input kind callers pass."""

    @pytest.mark.parametrize("name", list(_kron_inputs()))
    def test_kron_matches_np_kron(self, name):
        a, b = _kron_inputs()[name]
        expected = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
        assert same_bits(kron(a, b), expected)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_kron_all_matches_reduce(self, count):
        factors = [random_matrix(2 + i % 2, 40 + i) for i in range(count)]
        assert same_bits(kron_all(factors), functools.reduce(np.kron, factors))
        bases = [np.linalg.qr(random_matrix(3, 50 + i))[0][:, :2] for i in range(count)]
        assert same_bits(kron_all(bases), functools.reduce(np.kron, bases))
        vectors = [basis_state(3, i % 3) for i in range(count)]
        assert same_bits(kron_all(vectors), functools.reduce(np.kron, vectors))
        integers = [np.arange(4).reshape(2, 2) + i for i in range(count)]
        expected = functools.reduce(np.kron, [f.astype(complex) for f in integers])
        assert same_bits(kron_all(integers), expected)


def mgs_extend(basis, cols, threshold):
    """The span loop's old kernel, kept as the reference: regrow q, copy q^dagger."""
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


def reference_span(blocks, threshold, dim):
    """The old block loop: extend by each block, stop after the one that fills q."""
    q = np.zeros((dim, 0), dtype=complex)
    for block in blocks:
        q = mgs_extend(q, block, threshold)
        if q.shape[1] == dim:
            break
    return q


class TestMgsSpanBits:
    """_mgs_span keeps the reference loop's bits: same gemv kernels, same norms."""

    @pytest.mark.parametrize("dim,widths", [
        (5, [3]), (16, [1, 4, 2]), (64, [1, 1, 9]), (40, [7, 7, 7]), (9, [4, 4, 4]),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_blocks(self, dim, widths, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((dim, w)) + 1j * rng.standard_normal((dim, w))
                  for w in widths]
        offered = sum(widths)
        got = _mgs_span(blocks, 1e-9, dim, min(dim, offered))
        assert same_bits(got, reference_span(blocks, 1e-9, dim))

    def test_one_column_start(self):
        # after the first kept column, q^dagger v runs on a (1, D) row: the
        # other gemv kernel than for m >= 2 unless the row is C-ordered
        rng = np.random.default_rng(7)
        for dim in (2, 3, 17, 256):
            first = rng.standard_normal((dim, 1)) + 1j * rng.standard_normal((dim, 1))
            rest = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
            got = _mgs_span([first, rest], 1e-9, dim, min(dim, 4))
            assert got.shape[1] == min(dim, 4)
            assert same_bits(got, reference_span([first, rest], 1e-9, dim))

    def test_exactly_dependent_columns(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        mixed = base @ (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        cols = np.hstack([base[:, :2], 2 * base[:, :1], mixed, base, np.zeros((12, 1))])
        got = _mgs_span([cols], 1e-9, 12, 11)
        assert got.shape == (12, 4)
        assert same_bits(got, reference_span([cols], 1e-9, 12))

    @pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_degenerate_supports(self, theta):
        cs = near_degenerate_set(3, 3, 2, theta, 3031)
        supports = check_conditions(cs, Tolerances()).supports
        for n in (2, 3):
            blocks = [kron_all([s.basis] * n) for s in supports]
            offered = sum(b.shape[1] for b in blocks)
            got = _mgs_span(blocks, 1e-9, 3**n, min(3**n, offered))
            assert same_bits(got, reference_span(blocks, 1e-9, 3**n))

    def test_full_span_stops_at_dim(self):
        rng = np.random.default_rng(9)
        blocks = [rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
                  for _ in range(4)]
        formed = []

        def lazy():
            for b in blocks:
                formed.append(b)
                yield b

        got = _mgs_span(lazy(), 1e-9, 6, 6)
        assert got.shape == (6, 6) and len(formed) == 2
        assert same_bits(got, reference_span(blocks, 1e-9, 6))


class TestHermitianEigen:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, d, seed):
        a = random_hermitian(d, seed)
        w, v = hermitian_eigen(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) <= 1e-10

    def test_eigenvalues_ascend(self):
        w, _ = hermitian_eigen(random_hermitian(6, 3))
        assert np.all(np.diff(w) >= 0)

    def test_returns_the_eigh_pair(self):
        a = random_hermitian(5, 4)
        w, v = hermitian_eigen(a)
        w_ref, v_ref = np.linalg.eigh(require_hermitian(a))
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_rejects_non_hermitian_with_residual(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError) as err:
            hermitian_eigen(a)
        assert "1.000e+00" in str(err.value)

    def test_symmetrizes_tiny_noise(self):
        a = random_hermitian(4, 7)
        noisy = a + 1e-12 * np.triu(np.ones((4, 4)), 1)
        w_noisy, _ = hermitian_eigen(noisy)
        w_clean, _ = hermitian_eigen(a)
        assert np.max(np.abs(w_noisy - w_clean)) < 1e-11

    def test_rejects_nan(self):
        a = np.full((2, 2), np.nan)
        with pytest.raises(ShapeError):
            hermitian_eigen(a)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            require_hermitian(np.ones((2, 3)))


class TestHermResidual:
    @pytest.mark.parametrize("d", [0, 1, 3, 255, 256, 257, 1024])
    def test_equals_the_full_expression(self, d):
        a = random_matrix(d, d)
        h = (a + a.conj().T) / 2
        for m in (a, h, h + 1e-13 * a):
            assert herm_residual(m) == (float(np.max(np.abs(m - m.conj().T))) if d else 0.0)
        assert herm_residual(h) == 0.0

    def test_peak_stays_below_a_quarter_matrix(self):
        a = random_matrix(1024, 1)
        tracemalloc.start()
        try:
            herm_residual(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * a.nbytes


class TestOrthonormalColumns:
    def test_overcomplete_input_gives_full_rank(self):
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        q = orthonormal_columns(vecs)
        assert q.shape == (3, 3)

    def test_duplicate_columns_collapse(self):
        v = np.array([1.0, 0.0], dtype=complex)
        q = orthonormal_columns(np.column_stack([v, v, v]))
        assert q.shape == (2, 1)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_result_is_orthonormal(self, d, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, d + 2))
        q = orthonormal_columns(rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)))
        gram = q.conj().T @ q
        assert np.max(np.abs(gram - np.eye(q.shape[1]))) < 1e-12

    def test_rank_decision_is_scale_free(self):
        rng = np.random.default_rng(5)
        vecs = rng.standard_normal((4, 3))
        big = orthonormal_columns(vecs)
        small = orthonormal_columns(vecs * 1e-8)
        assert big.shape == small.shape

    def test_empty_input_keeps_dimension(self):
        q = orthonormal_columns(np.zeros((4, 0)))
        assert q.shape == (4, 0)

    def test_zero_columns_dropped(self):
        q = orthonormal_columns(np.zeros((3, 2)))
        assert q.shape == (3, 0)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ShapeError):
            orthonormal_columns(np.array([1.0, 0.0, 0.0]))

    def test_rejects_a_nan_column(self):
        vecs = np.eye(3, 2, dtype=complex)
        vecs[1, 1] = np.nan
        with pytest.raises(ShapeError, match="NaN or Inf"):
            orthonormal_columns(vecs)


class TestPsdAndRank:
    def test_gram_matrix_is_psd(self):
        g = random_matrix(4, 9)
        assert min_eigenvalue(g @ g.conj().T) >= -Tolerances().neg

    def test_indefinite_is_not_psd(self):
        assert min_eigenvalue(np.diag([1.0, -1.0])) < -Tolerances().neg

    def test_non_hermitian_is_not_psd(self):
        with pytest.raises(NotHermitianError):
            min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_min_eigenvalue(self):
        assert min_eigenvalue(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0)

    def test_numerical_rank_relative_cutoff(self):
        def rank(diagonal):
            return MeasurementOperator(1, 3, np.diag(diagonal), Provenance.M1_EQ13).rank()

        assert rank([1.0, 1e-6, 0.0]) == 2
        assert rank([1.0, 1e-12, 0.0]) == 1
        assert rank([0.0, 0.0, 0.0]) == 0


def test_identity():
    assert np.array_equal(identity(3), np.eye(3))
    assert identity(2).dtype == np.complex128
