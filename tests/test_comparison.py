import numpy as np
import pytest
from conftest import diagonal_set, gaussian_set

from mixcomp.comparison import (
    MeasurementOperator,
    _self_check,
    OperatorKind,
    Provenance,
    assemble_povm,
    build_m1,
    build_m2_pair,
    build_m2_product,
    build_maximal,
    check_conditions,
    reduce_candidates,
    residuals_ok,
)
from mixcomp.errors import (
    CapExceededError,
    ConditionNotMetError,
    InternalCheckError,
    ShapeError,
    TupleTooShortError,
)
from mixcomp.linalg import Tolerances, kron, kron_all, min_eigenvalue
from mixcomp.oracle import classify_tuple, outcome_probability, verify_unambiguous
from mixcomp.states import candidate_set, demo_set, from_ensemble, basis_state, random_density, validate_density
from mixcomp.subspace import contains

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
        assert rep.escapes_others == (False, False, False)
        assert rep.others_escape == (True, True, True)

    def test_orth2_verdicts(self):
        rep = check_conditions(ORTH2)
        assert rep.m1_condition is True
        assert rep.m1_witnesses == (0, 1)
        assert rep.m2_necessary is True
        assert rep.m2_structural is True
        assert rep.structural_witness == 0

    def test_nested2_verdicts(self):
        rep = check_conditions(NESTED2)
        assert rep.m1_condition is True
        assert rep.m1_witnesses == (1,)
        assert rep.m2_necessary is False
        assert rep.m2_failures == (1,)
        assert rep.m2_structural is False

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
            assert rep.m2_structural == (rep.m1_condition and rep.m2_necessary)


SET_FAMILIES = {"gaussian": gaussian_set, "diagonal": diagonal_set}
INVARIANCE_CASES = [(f, d, k) for f in SET_FAMILIES for d in (2, 3, 4) for k in (2, 3, 4)]


def invariance_sets(family, d, k):
    """Eight seeded sets of one family, d and k."""
    return [SET_FAMILIES[family](d, k, 40_000 + 1000 * d + 100 * k + s) for s in range(8)]


class TestConditionInvariance:
    """The verdicts are geometric: a common unitary leaves them, a relabelling permutes them."""

    @pytest.mark.parametrize("family,d,k", INVARIANCE_CASES)
    def test_unitary_conjugation_leaves_verdicts(self, family, d, k):
        for seed, cs in enumerate(invariance_sets(family, d, k)):
            rng = np.random.default_rng(seed)
            u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            turned = candidate_set([u @ cs.matrix(i) @ u.conj().T for i in range(k)])
            rep, rot = check_conditions(cs), check_conditions(turned)
            assert rot.m1_witnesses == rep.m1_witnesses
            assert rot.m2_failures == rep.m2_failures
            assert rot.survivors == rep.survivors

    @pytest.mark.parametrize("family,d,k", INVARIANCE_CASES)
    def test_permuting_candidates_permutes_verdicts(self, family, d, k):
        for seed, cs in enumerate(invariance_sets(family, d, k)):
            perm = np.random.default_rng(seed).permutation(k)
            moved = candidate_set([cs.states[p] for p in perm])
            rep, mov = check_conditions(cs), check_conditions(moved)
            assert tuple(sorted(perm[a] for a in mov.m1_witnesses)) == rep.m1_witnesses
            assert tuple(sorted(perm[a] for a in mov.m2_failures)) == rep.m2_failures

            # equal supports keep their lowest index, which the permutation
            # moves: compare the survivors by the support each one stands for
            def stands_for(i):
                return min(j for j in range(k) if contains(rep.supports[i], rep.supports[j])
                           and contains(rep.supports[j], rep.supports[i]))

            kept = sorted(stands_for(perm[a]) for a in mov.survivors)
            assert kept == sorted(stands_for(i) for i in rep.survivors)


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
        from mixcomp.subspace import support_of

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
        assert residuals_ok(m2.residuals(), Tolerances(), require_projector=True)


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
        una = verify_unambiguous(m2, ORTH2)
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
                assert residuals_ok(m.residuals(), Tolerances(), require_projector=True)


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
        assert not residuals_ok(r, Tolerances())

    def test_matrix_read_only(self):
        m = MeasurementOperator(n=1, dim=2, matrix=np.eye(2), provenance=Provenance.M1_MAXIMAL)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 3.0


def near_projector(eigenvalues, seed=0):
    """U diag(eigenvalues) U^dagger on C^3 (x) C^3, U a random unitary; exactly Hermitian."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    m = (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T
    return MeasurementOperator(n=2, dim=3, matrix=(m + m.conj().T) / 2,
                               provenance=Provenance.M1_MAXIMAL)


class TestProjectorCertificate:
    """The eps certificate against the dense eigvalsh path, on both sides of each cut."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a)[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    # one eigenvalue moved off {0, 1} by x: just inside, then just outside tol.neg
    @pytest.mark.parametrize("x,fires", [(0.5e-9, True), (0.9e-9, True), (1.1e-9, False), (2e-9, False)])
    @pytest.mark.parametrize("side", ["below-zero", "above-one"])
    def test_self_check_straddling_tol_neg(self, solves, x, fires, side):
        eigenvalues = [1.0] * 4 + [0.0] * 4 + [-x if side == "below-zero" else 1 + x]
        t = Tolerances()
        dense = residuals_ok(near_projector(eigenvalues).residuals(), t, require_projector=True)
        solves.clear()
        try:
            _self_check(near_projector(eigenvalues), t)
            verdict = True
        except InternalCheckError:
            verdict = False
        assert verdict == dense == (x < 1e-9)
        assert (solves == []) == fires

    @pytest.mark.parametrize("tol,eigenvalues,fires", [
        # rank cut near < tol.rank (1 - near): the small eigenvalue x straddles it
        *[(Tolerances(1e-6), [1.0] * 4 + [0.0] * 4 + [x], x < 1e-6)
          for x in (0.5e-6, 0.9e-6, 1.1e-6, 2e-6)],
        # tol.rank (1 + near) < 1 - near: the eigenvalues at 1 straddle the cut
        *[(Tolerances(r), [1.0] * 4 + [0.0] * 5, r < 1) for r in (0.9, 0.999, 1.0, 1.1)],
        # D near < 1/2 with D = 9: x straddles 1/18
        *[(Tolerances(0.3), [1.0] * 4 + [0.0] * 4 + [x], x < 1 / 18)
          for x in (0.04, 0.05, 0.06, 0.08)],
        # round(tr) >= 1: a single eigenvalue near 0 or near 1, tr on either side of 1/2
        *[(Tolerances(0.3), [x] + [0.0] * 8, x > 0.5) for x in (0.03, 0.05, 0.95, 0.97)],
        # the zero matrix: no product and no eigensolve, rank 0
        (Tolerances(), [0.0] * 9, False),
    ])
    def test_rank_matches_the_dense_count(self, solves, tol, eigenvalues, fires):
        dense = near_projector(eigenvalues)
        dense.residuals()
        expected = dense.rank(tol)
        solves.clear()
        assert near_projector(eigenvalues).rank(tol) == expected
        assert (solves == []) == (fires or not any(eigenvalues))


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
