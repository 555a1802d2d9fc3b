import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import subspace
from mixcomp.errors import ShapeError
from mixcomp.linalg import orthonormal_columns
from mixcomp.subspace import (
    Subspace,
    complement,
    contains,
    projector,
    subspace_sum,
    support_of,
)
from mixcomp.states import random_density


def span(*vecs):
    """The span of the given vectors, dependent ones dropped."""
    return Subspace(orthonormal_columns(np.column_stack(vecs)))


def random_subspace(d, r, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return Subspace(orthonormal_columns(vecs))


class TestSubspaceType:
    def test_zero_and_full(self):
        z = Subspace.zero(4)
        f = Subspace.full(4)
        assert z.dim == 0 and f.dim == 4
        assert contains(f, z)

    def test_rejects_non_orthonormal_basis(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ShapeError):
            Subspace(bad)

    def test_rejects_non_matrix_basis(self):
        with pytest.raises(ShapeError):
            Subspace(np.ones(3))

    def test_rejects_a_nan_basis(self):
        with pytest.raises(ShapeError, match="basis contains NaN or Inf entries"):
            Subspace(np.full((2, 1), np.nan))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_an_infinite_basis_before_its_gram(self, value):
        with pytest.raises(ShapeError, match="basis contains NaN or Inf entries"):
            Subspace(np.full((2, 1), value))

    def test_basis_is_read_only(self):
        s = Subspace.full(2)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0

    def test_orthonormal_columns_drop_dependent_input(self):
        v = np.array([1.0, 2.0, 0.0])
        s = span(v, 2 * v, np.array([0.0, 0.0, 1.0]))
        assert s.dim == 2


class TestSupportOf:
    def test_rank_two_diagonal(self):
        s = support_of(np.diag([0.5, 0.5, 0.0]))
        assert s.dim == 2
        target = span([1, 0, 0], [0, 1, 0])
        assert contains(s, target) and contains(target, s)

    def test_zero_matrix_has_empty_support(self):
        assert support_of(np.zeros((3, 3))).dim == 0

    def test_relative_eigenvalue_cutoff(self):
        assert support_of(np.diag([1.0, 1e-6, 0.0])).dim == 2
        assert support_of(np.diag([1.0, 1e-12, 0.0])).dim == 1

    def test_mixture_support(self):
        rho = 0.9 * np.outer([1, 0], [1, 0]) + 0.1 * np.outer([0, 1], [0, 1])
        assert support_of(rho.astype(complex)).dim == 2

    @pytest.mark.parametrize("d,rank", [(2, 1), (3, 2), (4, 4), (6, 3)])
    def test_density_matrix_lends_its_eigh(self, monkeypatch, d, rank):
        # the state's matrix is exactly Hermitian: re-validating it would
        # hand eigh the same bits, so the support equals the raw-matrix path
        state = random_density(d, rank, 10 * d + rank)
        expected = support_of(np.array(state.matrix)).basis
        calls = []
        monkeypatch.setattr(subspace, "hermitian_eigen", lambda *a, **k: calls.append(a))
        got = support_of(state).basis
        assert calls == [] and got.shape == (d, rank)
        assert got.tobytes() == expected.tobytes()


class TestSumComplementContains:
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_complement_dimensions_add_up(self, d, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(0, d + 1))
        s = random_subspace(d, r, seed) if r else Subspace.zero(d)
        c = complement(s)
        assert s.dim + c.dim == d

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_double_complement_is_identity(self, d, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, d + 1))
        s = random_subspace(d, r, seed)
        cc = complement(complement(s))
        assert contains(s, cc) and contains(cc, s)

    def test_sum_with_complement_is_full(self):
        s = random_subspace(5, 2, 31)
        total = subspace_sum([s, complement(s)])
        assert total.dim == 5

    def test_sum_contains_parts(self):
        a = random_subspace(4, 2, 1)
        b = random_subspace(4, 1, 2)
        total = subspace_sum([a, b])
        assert contains(total, a) and contains(total, b)

    def test_sum_of_nothing_needs_ambient(self):
        with pytest.raises(ShapeError):
            subspace_sum([])

    def test_sum_rejects_mixed_ambient(self):
        with pytest.raises(ShapeError):
            subspace_sum([Subspace.full(2), Subspace.full(3)])

    def test_contains_is_reflexive(self):
        s = random_subspace(4, 3, 8)
        assert contains(s, s)

    def test_zero_subspace_contains_nothing_non_empty(self):
        zero = Subspace.zero(4)
        assert not contains(zero, random_subspace(4, 1, 9))
        assert contains(zero, zero)

    def test_strict_subspace_not_containing(self):
        outer = span([1, 0, 0], [0, 1, 0])
        inner = span([0, 0, 1])
        assert not contains(outer, inner)
        assert contains(complement(outer), inner)

    def test_contains_rejects_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            contains(Subspace.full(2), Subspace.full(3))


class TestProjector:
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_with_correct_trace(self, d, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, d + 1))
        s = random_subspace(d, r, seed)
        p = projector(s)
        assert np.max(np.abs(p @ p - p)) <= 1e-9
        assert np.trace(p).real == pytest.approx(s.dim, abs=1e-9)

    def test_fixes_basis_vectors(self):
        s = random_subspace(4, 2, 17)
        assert np.max(np.abs(projector(s) @ s.basis - s.basis)) < 1e-12

    def test_zero_subspace_gives_zero_matrix(self):
        assert np.array_equal(projector(Subspace.zero(3)), np.zeros((3, 3)))
