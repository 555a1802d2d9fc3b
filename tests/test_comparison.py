import numpy as np
import pytest

from mixcomp.comparison import (
    MeasurementOperator,
    OperatorKind,
    Provenance,
    assemble_povm,
    build_m1,
    build_m2_pair,
    build_m2_product,
    build_maximal,
    check_conditions,
    reduce_candidates,
)
from mixcomp.errors import (
    CapExceededError,
    ConditionNotMetError,
    ShapeError,
    TupleTooShortError,
)
from mixcomp.linalg import kron, kron_all, min_eigenvalue
from mixcomp.oracle import TupleKind, classify_tuple, outcome_probability, verify_unambiguous
from mixcomp.states import candidate_set, demo_set, from_ensemble, basis_state, random_density, validate_density

EQ26 = demo_set("eq26")
ORTH2 = demo_set("orth2")
NESTED2 = demo_set("nested2")


def proj(*vectors):
    d = len(np.atleast_1d(vectors[0]))
    p = np.zeros((d, d), dtype=complex)
    for v in vectors:
        v = np.asarray(v, dtype=complex)
        p += np.outer(v, v.conj())
    return p


def c3_pure_pair():
    """Two orthogonal pure states in dimension 3, leaving e2 untouched."""
    return candidate_set(
        [
            from_ensemble([1.0], [basis_state(3, 0)]),
            from_ensemble([1.0], [basis_state(3, 1)]),
        ]
    )


class TestConditionChecks:
    def test_eq26_verdicts(self):
        rep = check_conditions(EQ26)
        assert rep.m1_condition is False
        assert rep.m1_witnesses == ()
        assert rep.m2_necessary is True
        assert rep.m2_failures == ()
        assert rep.m2_structural is False
        assert rep.structural_witness is None
        assert rep.corollary1 is False
        assert rep.escapes_others == (False, False, False)
        assert rep.others_escape == (True, True, True)

    def test_orth2_verdicts(self):
        rep = check_conditions(ORTH2)
        assert rep.m1_condition is True
        assert rep.m1_witnesses == (0, 1)
        assert rep.m2_necessary is True
        assert rep.m2_structural is True
        assert rep.structural_witness == 0
        assert rep.corollary1 is True

    def test_nested2_verdicts(self):
        rep = check_conditions(NESTED2)
        assert rep.m1_condition is True
        assert rep.m1_witnesses == (1,)
        assert rep.m2_necessary is False
        assert rep.m2_failures == (1,)
        assert rep.m2_structural is False
        assert rep.corollary1 is False

    def test_maximally_mixed_member_kills_m2(self):
        from mixcomp.states import maximally_mixed

        cs = candidate_set([maximally_mixed(3), random_density(3, 2, 5)])
        assert check_conditions(cs).m2_necessary is False

    def test_corollary1_is_the_conjunction(self):
        for seed in range(30):
            d = 2 + seed % 3
            cs = candidate_set(
                [random_density(d, 1 + seed % d, 10 * seed), random_density(d, 1 + (seed + 1) % d, 10 * seed + 5)]
            )
            rep = check_conditions(cs)
            assert rep.corollary1 == (rep.m1_condition and rep.m2_necessary)
            assert rep.m2_structural == rep.corollary1


class TestReduceCandidates:
    def test_demo_sets(self):
        assert reduce_candidates(EQ26) == (0, 1, 2)
        assert reduce_candidates(ORTH2) == (0, 1)
        assert reduce_candidates(NESTED2) == (1,)

    def test_equal_supports_keep_lowest_index(self):
        cs = candidate_set(
            [
                validate_density(np.diag([0.7, 0.3, 0.0])),
                validate_density(np.diag([0.3, 0.7, 0.0])),
            ]
        )
        assert reduce_candidates(cs) == (0,)

    def test_nested_chain_keeps_largest(self):
        cs = candidate_set(
            [
                validate_density(np.diag([1.0, 0.0, 0.0])),
                validate_density(np.diag([0.5, 0.5, 0.0])),
                validate_density(np.diag([0.4, 0.3, 0.3])),
            ]
        )
        assert reduce_candidates(cs) == (2,)

    def test_survivor_supports_are_incomparable(self):
        from mixcomp.subspace import contains, support_of

        for seed in range(20):
            cs = candidate_set(
                [
                    random_density(3, 1 + seed % 3, seed),
                    random_density(3, 1 + (seed + 1) % 3, seed + 100),
                    random_density(3, 1 + (seed + 2) % 3, seed + 200),
                ]
            )
            survivors = reduce_candidates(cs)
            sups = {i: support_of(cs.matrix(i)) for i in survivors}
            for i in survivors:
                for j in survivors:
                    if i != j:
                        assert not contains(sups[j], sups[i])


class TestBuildM1:
    def test_orth2_matrix_and_probabilities(self):
        m1 = build_m1(ORTH2, 2, 0)
        expected = proj(np.kron([1, 0], [1, 0]))
        assert np.max(np.abs(m1.matrix - expected)) < 1e-12
        assert m1.provenance is Provenance.M1_EQ13
        probs = {
            t: outcome_probability(m1, classify_tuple(t), ORTH2)
            for t in [(0, 0), (0, 1), (1, 0), (1, 1)]
        }
        assert probs[(0, 0)] == pytest.approx(1.0)
        for t in [(0, 1), (1, 0), (1, 1)]:
            assert abs(probs[t]) < 1e-12

    def test_nested2_quarter_probability(self):
        m1 = build_m1(NESTED2, 2, 1)
        expected = proj(np.kron([0, 1], [0, 1]))
        assert np.max(np.abs(m1.matrix - expected)) < 1e-12
        p = outcome_probability(m1, classify_tuple((1, 1)), NESTED2)
        assert p == pytest.approx(0.25, abs=1e-12)
        for t in [(0, 0), (0, 1), (1, 0)]:
            assert abs(outcome_probability(m1, classify_tuple(t), NESTED2)) < 1e-12

    def test_defaults_to_smallest_witness(self):
        m1 = build_m1(NESTED2, 2)
        assert np.max(np.abs(m1.matrix - build_m1(NESTED2, 2, 1).matrix)) == 0

    def test_rejects_non_witness_index(self):
        with pytest.raises(ConditionNotMetError) as err:
            build_m1(NESTED2, 2, 0)
        assert "witness" in str(err.value)

    def test_eq26_is_infeasible(self):
        with pytest.raises(ConditionNotMetError):
            build_m1(EQ26, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ShapeError):
            build_m1(ORTH2, 1)


class TestBuildM2Product:
    def test_orth2_matrix_and_probabilities(self):
        m2 = build_m2_product(ORTH2, 2)
        expected = kron(proj([0, 1]), proj([1, 0]))
        assert np.max(np.abs(m2.matrix - expected)) < 1e-12
        assert m2.provenance is Provenance.M2_PRODUCT_EQ27
        assert outcome_probability(m2, classify_tuple((1, 0)), ORTH2) == pytest.approx(1.0)
        assert abs(outcome_probability(m2, classify_tuple((0, 0)), ORTH2)) < 1e-12
        assert abs(outcome_probability(m2, classify_tuple((1, 1)), ORTH2)) < 1e-12

    def test_eq26_n3_matrix_and_probability(self):
        m2 = build_m2_product(EQ26, 3)
        e = [basis_state(3, i) for i in range(3)]
        expected = kron_all([proj(e[2]), proj(e[0]), proj(e[1])])
        assert np.max(np.abs(m2.matrix - expected)) < 1e-12
        p = outcome_probability(m2, classify_tuple((1, 2, 0)), EQ26)
        assert p == pytest.approx(0.125, abs=1e-12)
        for i in range(3):
            assert abs(outcome_probability(m2, classify_tuple((i, i, i)), EQ26)) < 1e-12

    def test_eq26_n2_is_too_short(self):
        with pytest.raises(TupleTooShortError) as err:
            build_m2_product(EQ26, 2)
        assert err.value.n == 2 and err.value.r == 3

    def test_nested2_fails_necessary_condition(self):
        with pytest.raises(ConditionNotMetError):
            build_m2_product(NESTED2, 2)

    def test_identity_slots_after_survivors(self):
        cs = candidate_set([random_density(2, 1, 3), random_density(2, 1, 4)])
        m2 = build_m2_product(cs, 3)
        assert m2.matrix.shape == (8, 8)
        assert m2.is_valid(require_projector=True)


class TestBuildM2Pair:
    def test_orth2_n2_matches_product(self):
        m2 = build_m2_pair(ORTH2, 2)
        expected = kron(proj([0, 1]), proj([1, 0]))
        assert np.max(np.abs(m2.matrix - expected)) < 1e-12
        assert m2.provenance is Provenance.M2_PAIR_EQ24

    def test_orth2_n3_appends_identity(self):
        m2 = build_m2_pair(ORTH2, 3)
        expected = kron_all([proj([0, 1]), proj([1, 0]), np.eye(2)])
        assert np.max(np.abs(m2.matrix - expected)) < 1e-12
        una = verify_unambiguous(m2, TupleKind.IDENTICAL, ORTH2)
        assert una.ok

    def test_eq26_lacks_structural_condition(self):
        with pytest.raises(ConditionNotMetError):
            build_m2_pair(EQ26, 2)


class TestBuildMaximal:
    def test_orth2_m2_is_swap_antidiagonal_block(self):
        m = build_maximal(ORTH2, 2, OperatorKind.M2)
        expected = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
        assert np.max(np.abs(m.matrix - expected)) < 1e-12
        assert outcome_probability(m, classify_tuple((0, 1)), ORTH2) == pytest.approx(1.0)

    def test_eq26_m2_rank_by_n(self):
        assert build_maximal(EQ26, 2, OperatorKind.M2).rank() == 0
        assert build_maximal(EQ26, 3, OperatorKind.M2).rank() == 6

    def test_eq26_m1_is_zero(self):
        for n in (2, 3):
            m = build_maximal(EQ26, n, OperatorKind.M1)
            assert np.max(np.abs(m.matrix)) < 1e-12

    def test_accepts_string_kind(self):
        m = build_maximal(ORTH2, 2, "M2")
        assert m.provenance is Provenance.M2_MAXIMAL

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            build_maximal(ORTH2, 13, OperatorKind.M2)
        with pytest.raises(CapExceededError):
            build_maximal(ORTH2, 3, OperatorKind.M2, cap=4)

    def test_every_construction_is_a_projector(self):
        for seed in range(12):
            cs = candidate_set(
                [random_density(3, 1 + seed % 2, seed), random_density(3, 1 + (seed + 1) % 3, seed + 50)]
            )
            for kind in OperatorKind:
                m = build_maximal(cs, 2, kind)
                assert m.is_valid(require_projector=True)


class TestMeasurementOperator:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            MeasurementOperator(n=2, dim=2, matrix=np.eye(3), provenance=Provenance.M1_MAXIMAL)

    def test_kind_follows_provenance(self):
        m = MeasurementOperator(n=2, dim=2, matrix=np.zeros((4, 4)), provenance=Provenance.M2_PAIR_EQ24)
        assert m.kind is OperatorKind.M2

    def test_residuals_flag_bad_operator(self):
        m = MeasurementOperator(n=1, dim=2, matrix=2 * np.eye(2), provenance=Provenance.M1_MAXIMAL)
        r = m.residuals()
        assert r["below_identity"] == pytest.approx(1.0)
        assert not m.is_valid()

    def test_matrix_read_only(self):
        m = MeasurementOperator(n=1, dim=2, matrix=np.eye(2), provenance=Provenance.M1_MAXIMAL)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 3.0


class TestAssemblePovm:
    def test_orth2_uses_unit_scaling(self):
        m1 = build_m1(ORTH2, 2, 0)
        m2 = build_m2_product(ORTH2, 2)
        pv = assemble_povm(m1, m2)
        assert pv.alpha == 1.0 and pv.beta == 1.0
        assert np.max(np.abs(pv.inconclusive - np.diag([0.0, 1.0, 0.0, 1.0]))) < 1e-12
        assert pv.min_eigenvalue == min_eigenvalue(pv.inconclusive)

    def test_overlapping_ranges_trigger_halving(self):
        cs = c3_pure_pair()
        m1 = build_m1(cs, 2, 0)
        m2 = build_m2_product(cs, 2)
        e2e2 = np.kron(basis_state(3, 2), basis_state(3, 2))
        assert e2e2 @ m1.matrix @ e2e2 == pytest.approx(1.0)
        assert e2e2 @ m2.matrix @ e2e2 == pytest.approx(1.0)
        pv = assemble_povm(m1, m2)
        assert pv.alpha == 0.5 and pv.beta == 0.5
        assert np.linalg.eigvalsh(pv.inconclusive)[0] >= -1e-9
        assert pv.min_eigenvalue == min_eigenvalue(pv.inconclusive)

    def test_zero_operators_leave_identity(self):
        z1 = MeasurementOperator(n=2, dim=2, matrix=np.zeros((4, 4)), provenance=Provenance.M1_MAXIMAL)
        z2 = MeasurementOperator(n=2, dim=2, matrix=np.zeros((4, 4)), provenance=Provenance.M2_MAXIMAL)
        pv = assemble_povm(z1, z2)
        assert np.array_equal(pv.inconclusive, np.eye(4))

    def test_three_parts_sum_to_identity(self):
        m1 = build_m1(ORTH2, 2, 0)
        m2 = build_m2_pair(ORTH2, 2)
        pv = assemble_povm(m1, m2)
        total = sum(part for part in pv)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_rejects_geometry_mismatch(self):
        m1 = build_m1(ORTH2, 2, 0)
        m2 = build_m2_pair(ORTH2, 3)
        with pytest.raises(ShapeError):
            assemble_povm(m1, m2)
