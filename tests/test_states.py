import numpy as np
import pytest

from mixcomp.errors import (
    CandidateSetError,
    NotHermitianError,
    NotPSDError,
    ShapeError,
    TraceError,
)
from mixcomp.states import (
    DEMO_NAMES,
    CandidateSet,
    DensityMatrix,
    basis_state,
    candidate_set,
    demo_set,
    from_ensemble,
    maximally_mixed,
    random_density,
    validate_density,
)
from mixcomp.subspace import contains, subspace_sum, support_of


class TestValidateDensity:
    def test_accepts_valid_state(self):
        rho = validate_density(np.diag([0.25, 0.75]))
        assert isinstance(rho, DensityMatrix)
        assert rho.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            validate_density(np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError) as err:
            validate_density(np.diag([1.5, -0.5]))
        assert "-5.000e-01" in str(err.value)

    def test_rejects_wrong_trace(self):
        with pytest.raises(TraceError):
            validate_density(np.diag([0.5, 0.4]))

    def test_matrix_is_read_only(self):
        rho = validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_stores_the_symmetrized_copy(self):
        # off-Hermitian noise below tol.sym: the kept matrix is (M + M^dagger)/2
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = g @ g.conj().T
        m = m / np.trace(m).real + 1e-12 * g
        rho = DensityMatrix(m)
        assert np.array_equal(rho.matrix, (m + m.conj().T) / 2)
        assert not np.shares_memory(rho.matrix, m)


class TestFromEnsemble:
    def test_mixture_matches_direct_sum(self):
        v0 = basis_state(2, 0)
        plus = np.array([1, 1]) / np.sqrt(2)
        rho = from_ensemble([0.3, 0.7], [v0, plus])
        expected = 0.3 * np.outer(v0, v0) + 0.7 * np.outer(plus, plus)
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ShapeError):
            from_ensemble([0.6, 0.6], [basis_state(2, 0), basis_state(2, 1)])

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ShapeError):
            from_ensemble([1.0], [np.array([1.0, 1.0])])

    def test_rejects_negative_weight(self):
        with pytest.raises(ShapeError):
            from_ensemble([1.5, -0.5], [basis_state(2, 0), basis_state(2, 1)])

    def test_rejects_count_mismatch(self):
        with pytest.raises(ShapeError):
            from_ensemble([1.0], [basis_state(2, 0), basis_state(2, 1)])


def test_maximally_mixed_has_full_support():
    rho = maximally_mixed(3)
    assert np.array_equal(rho.matrix, np.eye(3) / 3)
    assert support_of(rho.matrix).dim == 3


def test_maximally_mixed_needs_a_positive_dimension():
    with pytest.raises(ShapeError, match="dimension must be positive, got 0"):
        maximally_mixed(0)


class TestRandomDensity:
    def test_reproducible(self):
        a = random_density(3, 2, 123)
        b = random_density(3, 2, 123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_seeds_differ(self):
        a = random_density(3, 2, 1)
        b = random_density(3, 2, 2)
        assert np.max(np.abs(a.matrix - b.matrix)) > 1e-3

    @pytest.mark.parametrize("d,rank", [(2, 1), (3, 2), (4, 4)])
    def test_requested_rank(self, d, rank):
        rho = random_density(d, rank, 7)
        assert support_of(rho.matrix).dim == rank

    def test_rank_one_is_pure(self):
        rho = random_density(4, 1, 9)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            random_density(2, 3, 0)
        with pytest.raises(ShapeError):
            random_density(2, 0, 0)


class TestCandidateSet:
    def test_needs_two_states(self):
        with pytest.raises(CandidateSetError):
            candidate_set([maximally_mixed(2)])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(CandidateSetError) as err:
            candidate_set([maximally_mixed(2), maximally_mixed(3)])
        assert "dimension" in str(err.value)

    def test_rejects_numerically_identical_states(self):
        with pytest.raises(CandidateSetError) as err:
            candidate_set([maximally_mixed(2), maximally_mixed(2)])
        assert "identical" in str(err.value)

    def test_rejects_duplicate_labels(self):
        states = [random_density(2, 1, 0), random_density(2, 1, 1)]
        with pytest.raises(CandidateSetError):
            candidate_set(states, ["a", "a"])

    def test_rejects_label_count_mismatch(self):
        states = [random_density(2, 1, 0), random_density(2, 1, 1)]
        with pytest.raises(CandidateSetError):
            CandidateSet(labels=("a",), states=tuple(states))

    def test_default_labels(self):
        cs = candidate_set([random_density(2, 1, 0), random_density(2, 1, 1)])
        assert cs.labels == ("sigma1", "sigma2")
        assert cs.k == 2 and cs.dim == 2


class TestDemoSets:
    def test_names(self):
        assert DEMO_NAMES == ("eq26", "nested2", "orth2")

    def test_unknown_name(self):
        with pytest.raises(CandidateSetError):
            demo_set("nope")

    def test_eq26_matrices(self):
        cs = demo_set("eq26")
        assert cs.k == 3 and cs.dim == 3
        expected = [
            np.diag([0.5, 0.5, 0.0]),
            np.diag([0.0, 0.5, 0.5]),
            np.diag([0.5, 0.0, 0.5]),
        ]
        for st, exp in zip(cs.states, expected):
            assert np.max(np.abs(st.matrix - exp)) < 1e-12

    def test_eq26_supports_pairwise_span_everything(self):
        cs = demo_set("eq26")
        sups = [support_of(cs.matrix(i)) for i in range(3)]
        assert all(s.dim == 2 for s in sups)
        for i in range(3):
            for j in range(i + 1, 3):
                assert subspace_sum([sups[i], sups[j]]).dim == 3

    def test_orth2_matrices(self):
        cs = demo_set("orth2")
        assert np.array_equal(cs.matrix(0), np.diag([1.0, 0.0]))
        assert np.array_equal(cs.matrix(1), np.diag([0.0, 1.0]))

    def test_nested2_supports_nest(self):
        cs = demo_set("nested2")
        assert np.array_equal(cs.matrix(1), np.eye(2) / 2)
        s0 = support_of(cs.matrix(0))
        s1 = support_of(cs.matrix(1))
        assert contains(s1, s0) and not contains(s0, s1)


def test_basis_state_bounds():
    v = basis_state(3, 2)
    assert np.array_equal(v, [0, 0, 1])
    with pytest.raises(ShapeError):
        basis_state(3, 3)
