import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from conftest import diagonal_set, gaussian_set
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcomp import comparison
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
from mixcomp.linalg import Tolerances, _hermitian_part, kron, kron_all, min_eigenvalue
from mixcomp.oracle import (
    classify_tuple,
    decide_exists,
    outcome_probability,
    verify_nontrivial,
    verify_unambiguous,
)
from mixcomp.states import (
    basis_state,
    candidate_set,
    demo_set,
    from_ensemble,
    maximally_mixed,
    random_density,
    validate_density,
)
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


OPERATOR_BUILDERS = {
    "eq13": lambda cs: build_m1(cs, 2),
    "eq27": lambda cs: build_m2_product(cs, 2),
    "eq24": lambda cs: build_m2_pair(cs, 2),
    "M1_maximal": lambda cs: build_maximal(cs, 2, OperatorKind.M1),
    "M2_maximal": lambda cs: build_maximal(cs, 2, OperatorKind.M2),
}


class TestOperatorInvariance:
    """A common unitary U maps every built operator by U (x) U and leaves existence."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 3), k=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_unitary_conjugation_maps_built_operators(self, d, k, seed):
        cs = gaussian_set(d, k, seed)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        turned = candidate_set([u @ cs.matrix(i) @ u.conj().T for i in range(k)])
        u2 = kron(u, u)
        for name, build in OPERATOR_BUILDERS.items():
            try:
                op = build(cs)
            except (ConditionNotMetError, TupleTooShortError) as exc:
                with pytest.raises(type(exc)):
                    build(turned)
                continue
            rot = build(turned)
            assert np.max(np.abs(u2 @ op.matrix @ u2.conj().T - rot.matrix)) <= 1e-9, name
            assert rot.rank() == op.rank(), name
        for kind in OperatorKind:
            assert decide_exists(turned, 2, kind) == decide_exists(cs, 2, kind), kind

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(sorted(SET_FAMILIES)), d=st.integers(2, 3),
           k=st.integers(2, 3), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_permuting_candidates_permutes_reported_tuples(self, family, d, k, n, seed):
        # candidate a of the moved set is candidate perm[a] of the original
        cs = SET_FAMILIES[family](d, k, seed)
        perm = np.random.default_rng(seed).permutation(k)
        moved = candidate_set([cs.states[p] for p in perm])
        for kind in OperatorKind:
            op, mov = build_maximal(cs, n, kind), build_maximal(moved, n, kind)
            assert np.max(np.abs(op.matrix - mov.matrix)) <= 1e-9, kind
            assert mov.rank() == op.rank(), kind
            assert decide_exists(moved, n, kind) == decide_exists(cs, n, kind), kind
            una, nt = verify_unambiguous(op, cs), verify_nontrivial(op, cs)
            una_m, nt_m = verify_unambiguous(mov, moved), verify_nontrivial(mov, moved)
            assert abs(una_m.worst_probability - una.worst_probability) <= 1e-12
            assert abs(nt_m.best_probability - nt.best_probability) <= 1e-12
            assert (nt_m.best_distinct_probability is None) == (nt.best_distinct_probability is None)
            if nt.best_distinct_probability is not None:
                assert abs(nt_m.best_distinct_probability - nt.best_distinct_probability) <= 1e-12
            for p, t in [(una_m.worst_probability, una_m.worst_tuple),
                         (nt_m.best_probability, nt_m.best_tuple),
                         (nt_m.best_distinct_probability, nt_m.best_distinct_tuple)]:
                if t is not None:
                    image = classify_tuple([perm[a] for a in t])
                    assert abs(outcome_probability(op, image, cs) - p) <= 1e-12, (kind, t)


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
        dense = residuals_ok(near_projector(eigenvalues)._spectrum()[0], t, require_projector=True)
        solves.clear()
        try:
            _self_check(near_projector(eigenvalues), t)
            verdict = True
        except InternalCheckError:
            verdict = False
        assert verdict == dense == (x < 1e-9)
        assert (solves == []) == fires

    @pytest.mark.parametrize("x,fires", [(0.5e-9, True), (0.9e-9, True), (1.1e-9, False), (2e-9, False)])
    @pytest.mark.parametrize("side", ["below-zero", "above-one"])
    def test_residuals_certified_straddling_tol_neg(self, solves, x, fires, side):
        eigenvalues = [1.0] * 4 + [0.0] * 4 + [-x if side == "below-zero" else 1 + x]
        t = Tolerances()
        dense = near_projector(eigenvalues)._spectrum()[0]
        assert solves == [9]
        solves.clear()
        res = near_projector(eigenvalues).residuals(t)
        assert res["certified"] is fires and (solves == []) == fires
        # the proven bound never undercuts the spectrum, and no verdict moves
        key = "psd" if side == "below-zero" else "below_identity"
        assert res[key] >= dense[key] - 1e-15
        assert residuals_ok(res, t) == residuals_ok(dense, t) == (x < 1e-9)

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
        # a non-zero matrix whose squares underflow: eps stays above 0 and the spectrum decides
        (Tolerances(), [1e-170] + [0.0] * 8, False),
    ])
    def test_rank_matches_the_dense_count(self, solves, tol, eigenvalues, fires):
        dense = near_projector(eigenvalues)
        dense._spectrum()
        expected = dense.rank(tol)
        solves.clear()
        assert near_projector(eigenvalues).rank(tol) == expected
        assert (solves == []) == (fires or not any(eigenvalues))


def with_factors(factors):
    """The operator ``comparison._product`` would form from ``factors``, before its self-check."""
    op = MeasurementOperator(len(factors), len(factors[0]), kron_all(factors), Provenance.M1_EQ13)
    op._memo["factors"] = factors
    op._memo["certificate"] = comparison._factor_eps(factors), float(np.trace(op.matrix).real)
    return op


def dense_copy(op):
    """The same matrix without the Kronecker factors: every check takes the dense path."""
    return MeasurementOperator(op.n, op.dim, op.matrix, op.provenance)


class TestKroneckerFactors:
    """Explicit operators keep their factors; the certificates read them, the oracle does not."""

    @pytest.mark.parametrize("build", [build_m1, build_m2_product, build_m2_pair])
    def test_explicit_builders_keep_padded_factors(self, build):
        op = build(ORTH2, 3)
        factors = op._memo["factors"]
        assert len(factors) == 3 and all(f.shape == (2, 2) for f in factors)
        assert np.array_equal(kron_all(factors), op.matrix)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 3), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
           size=st.floats(-14, -6), hermitian=st.booleans(), tol=st.sampled_from([1e-9, 1e-6]))
    def test_factor_eps_bounds_the_formed_product(self, d, n, seed, size, hermitian, tol):
        rng = np.random.default_rng(seed)
        size = 10.0 ** size
        factors = []
        for _ in range(n):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            basis, _ = np.linalg.qr(g[:, :rng.integers(1, d + 1)])
            noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            if hermitian:
                noise = noise + noise.conj().T
            factors.append(basis @ basis.conj().T + size * noise / np.linalg.norm(noise))
        op = with_factors(factors)
        eps = op._certificate()[0]
        # ||S^2 - S||_F of the formed product, measured in extended precision
        sym = _hermitian_part(op.matrix).astype(np.clongdouble)
        residual = sym @ sym - sym
        assert eps >= float(np.sqrt(np.sum(np.abs(residual) ** 2)))
        t = Tolerances(tol)
        if op._hermitian() <= t.sym:
            rank = op.rank(t)
            certified = "residuals" not in op._memo
            assert certified or size > 1e-12
            if certified:
                w = np.abs(np.linalg.eigvalsh(_hermitian_part(op.matrix)))
                assert rank == int(np.sum(w > t.rank * w.max()))

    @pytest.mark.parametrize("bad", [lambda p: 0.9 * p, lambda p: p + 1e-8 * np.eye(len(p))],
                             ids=["scaled", "shifted"])
    @pytest.mark.parametrize("build", [build_m1, build_m2_pair])
    def test_bad_factor_still_raises(self, monkeypatch, bad, build):
        projector = comparison.projector
        monkeypatch.setattr(comparison, "projector", lambda space: bad(projector(space)))
        with pytest.raises(InternalCheckError, match="failed its own invariants"):
            build(ORTH2, 3)

    def test_oracle_never_reads_factors(self):
        # nor the certificate the M1 maximal stores at build time
        read = []

        class Spy(dict):
            def __getitem__(self, key):
                read.append(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.append(key)
                return super().get(key, default)

            def __contains__(self, key):
                read.append(key)
                return super().__contains__(key)

        m1_maximal = functools.partial(build_maximal, which=OperatorKind.M1)
        for build in (build_m1, build_m2_product, build_m2_pair, m1_maximal):
            op = build(ORTH2, 3)
            assert "certificate" in op._memo
            object.__setattr__(op, "_memo", Spy(op._memo))
            assert verify_unambiguous(op, ORTH2).ok
            assert verify_nontrivial(op, ORTH2).ok
        assert read and "factors" not in read and "certificate" not in read


class TestBuilderProofs:
    """A full maximal span is the exact zero matrix with the proof (0, 0): rank 0, no solve."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        calls = []
        spectrum = MeasurementOperator._spectrum

        def counted(op):
            calls.append(op)
            return spectrum(op)

        monkeypatch.setattr(MeasurementOperator, "_spectrum", counted)
        return calls

    def test_zero_maximal_operators_rank_without_a_spectrum(self, corpus, spectra):
        zeros = 0
        for name, cs, _ in corpus:
            for n in (2, 3):
                for kind in OperatorKind:
                    op = build_maximal(cs, n, kind)
                    if op.matrix.any():
                        continue
                    zeros += 1
                    spectra.clear()
                    assert op.rank() == 0, (name, n, kind)
                    assert spectra == [], (name, n, kind)
        assert zeros

    def test_filled_m2_span_skips_the_svd_complement(self, monkeypatch, spectra):
        # the maximally mixed member's support is everything, so the identical
        # class spans the whole space; an unproven generator leaves it to the loop
        cs = candidate_set([maximally_mixed(2), random_density(2, 1, 5)])
        monkeypatch.setattr(comparison, "_span_certificate", lambda *args: (-np.inf, 0.0))
        called = []
        for name in ("complement", "projector"):
            monkeypatch.setattr(comparison, name, lambda *args, name=name: called.append(name))
        op = build_maximal(cs, 3, OperatorKind.M2)
        assert not op.matrix.any()
        assert op._memo["certificate"] == (0.0, 0.0)
        assert op.rank() == 0
        assert called == [] and spectra == []


POVM_SCALINGS = pytest.mark.parametrize("cs, n, alpha", [
    (ORTH2, 8, 1.0),
    (candidate_set([random_density(4, 1, seed) for seed in (1, 2)]), 4, 0.5),
], ids=["unscaled", "halved"])


class TestAssemblePovm:
    @POVM_SCALINGS
    def test_peak_memory_above_inputs(self, cs, n, alpha):
        m1, m2 = build_m1(cs, n), build_m2_pair(cs, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pv = assemble_povm(m1, m2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # while rest is formed: rest and one scaled operator; afterwards the
        # three returned matrices
        assert pv.alpha == alpha
        assert (peak - before) / (16 * len(m1.matrix) ** 2) <= 3.5

    @POVM_SCALINGS
    def test_fields_are_what_is_read(self, cs, n, alpha):
        pv = assemble_povm(build_m1(cs, n), build_m2_pair(cs, n))
        assert [f.name for f in dataclasses.fields(pv)] == [
            "conclusive_identical", "conclusive_different", "inconclusive",
            "alpha", "min_eigenvalue",
        ]
        assert not hasattr(pv, "n") and not hasattr(pv, "dim")
        assert pv.beta == pv.alpha == alpha

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

    @staticmethod
    def factor_povm_cases(corpus):
        """(m1, m2) explicit pairs: orth2, c3_pure_pair and every structural corpus instance."""
        yield build_m1(ORTH2, 3), build_m2_pair(ORTH2, 3)
        yield build_m1(ORTH2, 2, 0), build_m2_product(ORTH2, 2)
        yield build_m1(c3_pure_pair(), 2, 0), build_m2_product(c3_pure_pair(), 2)
        for _, cs, _ in corpus:
            if check_conditions(cs).m2_structural:
                for n in (2, 3):
                    yield build_m1(cs, n), build_m2_pair(cs, n)

    def test_factor_value_matches_the_dense_spectrum(self, corpus):
        scalings = set()
        for m1, m2 in self.factor_povm_cases(corpus):
            pv = assemble_povm(m1, m2)
            scalings.add(pv.alpha)
            assert abs(pv.min_eigenvalue - np.linalg.eigvalsh(pv.inconclusive)[0]) <= 1e-12
            if pv.alpha == 1.0 and not (m1.matrix @ m2.matrix).any():
                # orthogonal ranges: a zero overlap in some slot gives +0.0
                assert pv.min_eigenvalue == 0.0 and np.copysign(1.0, pv.min_eigenvalue) == 1.0
        assert scalings == {1.0, 0.5}

    @pytest.mark.parametrize("cs, n, build_m2", [
        (ORTH2, 2, build_m2_product), (c3_pure_pair(), 2, build_m2_product),
        (candidate_set([random_density(4, 1, seed) for seed in (1, 2)]), 3, build_m2_pair),
    ], ids=["orth2", "c3-pure-pair", "halved"])
    def test_operators_without_factors_take_the_dense_solve(self, cs, n, build_m2):
        m1, m2 = dense_copy(build_m1(cs, n)), dense_copy(build_m2(cs, n))
        pv = assemble_povm(m1, m2)
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
