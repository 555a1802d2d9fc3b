import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import diagonal_set, gaussian_set
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixcomp import io, oracle
from mixcomp.cli import main
from mixcomp.comparison import (
    MeasurementOperator,
    OperatorKind,
    Provenance,
    assemble_povm,
    build_m1,
    build_m2_pair,
    build_m2_product,
    build_maximal,
)
from mixcomp.errors import InternalCheckError, ShapeError
from mixcomp.linalg import Tolerances, kron_all
from mixcomp.oracle import (
    TUPLE_CLASSES,
    TupleClass,
    TupleKind,
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
    maximally_mixed,
    random_density,
)

EQ26 = demo_set("eq26")
ORTH2 = demo_set("orth2")
NESTED2 = demo_set("nested2")


def all_tuples(k, n, kind=None):
    """Every k**n tuple in lexicographic order, optionally only those of one kind."""
    tuples = (classify_tuple(c) for c in itertools.product(range(k), repeat=n))
    return [t for t in tuples if kind is None or t.kind is kind]


def identity_operator(n, dim, kind=Provenance.M2_MAXIMAL):
    return MeasurementOperator(
        n=n, dim=dim, matrix=np.eye(dim**n, dtype=complex), provenance=kind
    )


def permutation_projector():
    """Rank-6 projector spanned by the orderings of the three basis vectors."""
    vecs = [
        kron_all([basis_state(3, a), basis_state(3, b), basis_state(3, c)])
        for a, b, c in itertools.permutations((0, 1, 2))
    ]
    p = sum(np.outer(v, v.conj()) for v in vecs)
    return MeasurementOperator(n=3, dim=3, matrix=p, provenance=Provenance.M2_MAXIMAL)


class TestTupleClassification:
    def test_classify_identical(self):
        t = classify_tuple((2, 2, 2))
        assert t.kind is TupleKind.IDENTICAL
        assert not t.pairwise_distinct

    def test_classify_different_with_repeats(self):
        t = classify_tuple((0, 1, 0))
        assert t.kind is TupleKind.DIFFERENT
        assert not t.pairwise_distinct

    def test_classify_pairwise_distinct(self):
        t = classify_tuple((2, 0, 1))
        assert t.kind is TupleKind.DIFFERENT
        assert t.pairwise_distinct

    @pytest.mark.parametrize("indices,kind,distinct", [
        ((1,), TupleKind.IDENTICAL, True),
        ((0, 0), TupleKind.IDENTICAL, False),
        ((0, 1), TupleKind.DIFFERENT, True),
        ((1, 0, 1), TupleKind.DIFFERENT, False),
        ((2, 0, 1), TupleKind.DIFFERENT, True),
    ])
    def test_fields_follow_the_indices(self, indices, kind, distinct):
        t = TupleClass(indices)
        assert (t.kind, t.pairwise_distinct) == (kind, distinct)
        assert classify_tuple(indices) == t

    def test_empty_tuple_rejected(self):
        with pytest.raises(ShapeError):
            classify_tuple(())

    @given(st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_enumeration_counts(self, k, n):
        total = list(all_tuples(k, n))
        identical = [t for t in total if t.kind is TupleKind.IDENTICAL]
        different = [t for t in total if t.kind is TupleKind.DIFFERENT]
        distinct = [t for t in total if t.pairwise_distinct]
        assert len(total) == k**n
        assert len(identical) == k
        assert len(different) == k**n - k
        expected_distinct = 0 if n > k else int(np.prod(range(k - n + 1, k + 1)))
        assert len(distinct) == expected_distinct


class TestOutcomeProbability:
    def test_identity_gives_one_on_every_tuple(self):
        m = identity_operator(2, 3)
        for t in all_tuples(3, 2):
            assert outcome_probability(m, t, EQ26) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_projector_quarter(self):
        m = permutation_projector()
        p = outcome_probability(m, classify_tuple((0, 1, 2)), EQ26)
        # independent expansion: each state is half of two basis projectors,
        # so the tuple state is an average of 8 product basis vectors and the
        # projector keeps exactly the pairwise-distinct ones
        support_sets = [(0, 1), (1, 2), (0, 2)]
        hits = sum(
            1
            for combo in itertools.product(*support_sets)
            if len(set(combo)) == 3
        )
        assert hits == 2
        assert p == pytest.approx(hits / 8, abs=1e-9)

    def test_projector_on_nested2(self):
        m = MeasurementOperator(
            n=2,
            dim=2,
            matrix=np.outer([1, 0, 0, 0], [1, 0, 0, 0]).astype(complex),
            provenance=Provenance.M1_MAXIMAL,
        )
        assert outcome_probability(m, classify_tuple((1, 1)), NESTED2) == pytest.approx(0.25)

    def test_real_output_for_hermitian_inputs(self):
        m = build_maximal(EQ26, 2, OperatorKind.M2)
        state = kron_all([EQ26.matrix(0), EQ26.matrix(1)])
        raw = np.trace(m.matrix @ state)
        assert abs(raw.imag) <= 1e-10

    def test_shape_mismatches_rejected(self):
        m = identity_operator(2, 2)
        with pytest.raises(ShapeError):
            outcome_probability(m, classify_tuple((0, 1, 0)), ORTH2)
        with pytest.raises(ShapeError):
            outcome_probability(m, classify_tuple((0, 2)), ORTH2)
        with pytest.raises(ShapeError):
            outcome_probability(m, classify_tuple((0, 1)), EQ26)

    @pytest.mark.parametrize("d,k,n", [(2, 3, 4), (3, 3, 3), (4, 2, 3), (2, 3, 7), (3, 4, 5)])
    def test_matches_the_trace_product_route(self, d, k, n):
        # S^T formed from the transposed states gives the bits of
        # Tr(M S) = sum M * S.T, the route through the strided transpose
        cs = gaussian_set(d, k, 1000 * d + 10 * k + n)
        tuples = all_tuples(k, n)[:: max(1, k**n // 12)]
        for m in operators_for(cs, n):
            for t in tuples:
                state = kron_all([cs.matrix(i) for i in t.indices])
                expected = float(np.sum(m.matrix * state.T).real)
                assert outcome_probability(m, t, cs) == expected

    @given(d=st.integers(2, 4), k=st.integers(2, 5), n=st.integers(1, 5),
           seed=st.integers(0, 2**31 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_window_values_have_the_bits_of_fresh_product_states(self, d, k, n, seed, data):
        # the scan reads only dim, k and matrix(a) of a set, so any complex
        # entries stand in for the states; n = 1 leaves no prefix to share
        assume(d**n <= 256)
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(k)]
        cs = SimpleNamespace(dim=d, k=k, matrix=mats.__getitem__)
        dim = d**n
        m = MeasurementOperator(n=n, dim=d, provenance=Provenance.M2_MAXIMAL,
                                matrix=rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        drawn = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * n), min_size=1, max_size=12))
        lexicographic, repeated = sorted(set(drawn)), [t for t in drawn for _ in range(2)] + drawn
        for window in (lexicographic, drawn, repeated):
            got = oracle._tuple_probabilities(m, cs, window)
            assert [p.hex() for p in got] == [fresh_probability(m, cs, t).hex() for t in window]


class TestVerifyUnambiguous:
    def test_m1_on_orth2(self):
        m1 = build_m1(ORTH2, 2, 0)
        res = verify_unambiguous(m1, ORTH2)
        assert res.ok
        assert res.worst_probability <= 1e-9

    def test_identity_fails_with_lex_first_worst_tuple(self):
        m = identity_operator(2, 2)
        res = verify_unambiguous(m, ORTH2)
        assert not res.ok
        assert res.worst_tuple == (0, 0)
        assert res.worst_probability == pytest.approx(1.0)


class TestVerifyNontrivial:
    def test_maximal_m2_on_eq26_n3(self):
        m = build_maximal(EQ26, 3, OperatorKind.M2)
        res = verify_nontrivial(m, EQ26)
        assert res.ok
        assert res.best_probability >= 0.25 - 1e-9
        assert res.best_distinct_probability >= 0.25 - 1e-9
        assert res.best_distinct_tuple == (0, 1, 2)

    def test_maximal_m2_on_eq26_n2_is_trivial(self):
        m = build_maximal(EQ26, 2, OperatorKind.M2)
        res = verify_nontrivial(m, EQ26)
        assert not res.ok

    def test_zero_operator_is_trivial(self):
        z = MeasurementOperator(
            n=2, dim=2, matrix=np.zeros((4, 4)), provenance=Provenance.M2_MAXIMAL
        )
        res = verify_nontrivial(z, ORTH2)
        assert not res.ok
        assert res.best_probability <= 1e-9

    def test_distinct_tuple_impossible_when_n_exceeds_k(self):
        m2 = build_m2_pair(ORTH2, 3)
        res = verify_nontrivial(m2, ORTH2)
        assert res.ok
        assert res.best_distinct_probability is None
        assert res.best_distinct_tuple is None


class TestProbabilityVectorKept:
    def test_both_verdicts_read_one_vector_per_set(self, monkeypatch):
        seen = []
        class_max = oracle._class_max

        def spy(m, cs, probs, *args):
            seen.append(probs)
            return class_max(m, cs, probs, *args)

        monkeypatch.setattr(oracle, "_class_max", spy)
        cs = demo_set("eq26")
        m = build_m2_product(cs, 3)
        verify_unambiguous(m, cs)
        verify_nontrivial(m, cs)
        assert len(seen) == 3
        assert all(p is seen[0] for p in seen)
        assert not seen[0].flags.writeable
        # an equal set that is a new object gets its own vector
        verify_unambiguous(m, demo_set("eq26"))
        assert seen[-1] is not seen[0]
        assert np.array_equal(seen[-1], seen[0])

    def test_window_norm_read_once_per_verdict_pair(self, monkeypatch):
        # three class maxima (forbidden, allowed, pairwise distinct), one ||M||_F
        cs = gaussian_set(3, 3, 17)
        m = build_maximal(cs, 3, OperatorKind.M2)
        reads = []
        norm = np.linalg.norm

        def counted(x, *args, **kwargs):
            if np.shape(x) == m.matrix.shape:
                reads.append(x)
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        verify_unambiguous(m, cs)
        assert verify_nontrivial(m, cs).best_distinct_tuple is not None
        assert len(reads) == 1


class TestDecideExists:
    def test_eq26_flip_between_n2_and_n3(self):
        assert decide_exists(EQ26, 2, OperatorKind.M2) is False
        assert decide_exists(EQ26, 3, OperatorKind.M2) is True

    def test_eq26_never_has_m1(self):
        assert decide_exists(EQ26, 2, OperatorKind.M1) is False
        assert decide_exists(EQ26, 3, OperatorKind.M1) is False

    def test_orth2_has_both(self):
        assert decide_exists(ORTH2, 2, OperatorKind.M1) is True
        assert decide_exists(ORTH2, 2, OperatorKind.M2) is True

    def test_nested2_has_only_m1(self):
        assert decide_exists(NESTED2, 2, OperatorKind.M1) is True
        assert decide_exists(NESTED2, 2, OperatorKind.M2) is False

    def test_maximally_mixed_member_blocks_m2(self):
        cs = candidate_set([maximally_mixed(3), random_density(3, 2, 77)])
        assert decide_exists(cs, 2, OperatorKind.M2) is False

    def test_maximal_operator_firing_on_forbidden_tuple_raises(self, monkeypatch):
        # the identity fires on every IDENTICAL tuple, which an M2 operator must not
        monkeypatch.setattr(oracle, "build_maximal", lambda cs, n, which, cap, tol:
                            identity_operator(n, cs.dim))
        with pytest.raises(InternalCheckError, match=(
                r"^M2_maximal operator fired on forbidden tuple \(0, 0\) "
                r"with probability 1\.000e\+00$")):
            decide_exists(ORTH2, 2, OperatorKind.M2)


class TestPovmCompleteness:
    def test_probabilities_sum_to_one_on_every_tuple(self):
        m1 = build_m1(ORTH2, 2, 0)
        m2 = build_m2_pair(ORTH2, 2)
        pv = assemble_povm(m1, m2)
        for t in all_tuples(2, 2):
            state = kron_all([ORTH2.matrix(i) for i in t.indices])
            total = sum(np.trace(part @ state).real for part in pv)
            assert total == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------ screened scan vs. tuple loop

def fresh_probability(m, cs, indices):
    """Re Tr(M rho_t) from a freshly formed product state: sum M * S^T, S^T by kron_all."""
    state_t = kron_all([cs.matrix(i).T for i in indices])
    return float(np.sum(m.matrix * state_t).real)


def loop_max(m, cs, tuples):
    """The per-tuple scan: first strict maximum in lexicographic order.

    Each value is formed here, independently of the library's scan, so the
    exact comparisons against it check the scan's arithmetic too.
    """
    best_p, best_t = None, None
    for tup in tuples:
        p = fresh_probability(m, cs, tup.indices)
        if best_p is None or p > best_p:
            best_p, best_t = p, tup.indices
    return best_p, best_t


def loop_unambiguous(m, forbidden, cs, tol):
    worst_p, worst_t = loop_max(m, cs, all_tuples(cs.k, m.n, forbidden))
    if worst_t is None:
        worst_p, worst_t = 0.0, ()
    return worst_p <= tol.prob, worst_p, worst_t


def loop_nontrivial(m, allowed, cs, tol):
    tuples = list(all_tuples(cs.k, m.n, allowed))
    best_p, best_t = loop_max(m, cs, tuples)
    if best_t is None:
        best_p, best_t = 0.0, ()
    best_dp, best_dt = loop_max(m, cs, [t for t in tuples if t.pairwise_distinct])
    return best_p > tol.prob, best_p, best_t, best_dp, best_dt


def assert_same_max(got_p, got_t, ref_p, ref_t, cs, n, kind, distinct, tol):
    """Exact above tol.prob; at round-off, close and inside the class."""
    if ref_t is None:
        assert got_p is None and got_t is None
        return
    if ref_p > tol.prob:
        assert (got_p, got_t) == (ref_p, ref_t)
        return
    assert got_p == pytest.approx(ref_p, abs=1e-12)
    cls = classify_tuple(got_t) if got_t else None
    if cls is None:
        assert ref_t == ()
        return
    assert len(got_t) == n and max(got_t) < cs.k
    assert cls.kind is kind and (cls.pairwise_distinct or not distinct)


def twins(m):
    """The M1 and M2 operators over m's matrix, each with its forbidden and allowed class.

    The classes are spelled out here, not read from the oracle's table, so that
    between them the twins check both class masks of both verdicts.
    """
    return [
        (MeasurementOperator(n=m.n, dim=m.dim, matrix=m.matrix, provenance=prov), *classes)
        for prov, classes in (
            (Provenance.M1_MAXIMAL, (TupleKind.DIFFERENT, TupleKind.IDENTICAL)),
            (Provenance.M2_MAXIMAL, (TupleKind.IDENTICAL, TupleKind.DIFFERENT)),
        )
    ]


def assert_scans_agree(m, cs, tol=None):
    tol = tol or Tolerances()
    for twin, forbidden, allowed in twins(m):
        ref = loop_unambiguous(twin, forbidden, cs, tol)
        got = verify_unambiguous(twin, cs, tol)
        assert got.ok == ref[0]
        assert_same_max(got.worst_probability, got.worst_tuple, ref[1], ref[2],
                        cs, m.n, forbidden, False, tol)
        ref = loop_nontrivial(twin, allowed, cs, tol)
        got = verify_nontrivial(twin, cs, tol)
        assert got.ok == ref[0]
        assert_same_max(got.best_probability, got.best_tuple, ref[1], ref[2],
                        cs, m.n, allowed, False, tol)
        assert_same_max(got.best_distinct_probability, got.best_distinct_tuple,
                        ref[3], ref[4], cs, m.n, allowed, True, tol)


def random_contraction(dim, seed, scale=1.0):
    """A random Hermitian 0 <= M <= scale * I, full rank."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return scale * h / np.linalg.eigvalsh(h)[-1]


def operators_for(cs, n):
    ops = [build_maximal(cs, n, kind) for kind in OperatorKind]
    ops.append(MeasurementOperator(n=n, dim=cs.dim, matrix=random_contraction(cs.dim**n, n),
                                   provenance=Provenance.M2_MAXIMAL))
    return ops


class TestScreenedScanMatchesTupleLoop:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eq26_symmetric_ties(self, n):
        ops = operators_for(EQ26, n)
        if n >= 3:
            ops.append(build_m2_product(EQ26, n))
        if n == 3:
            ops.append(permutation_projector())
        for m in ops:
            assert_scans_agree(m, EQ26)

    @pytest.mark.parametrize("d,k,seed", [(2, 3, 1), (3, 3, 2), (4, 3, 3), (3, 4, 4), (4, 4, 5)])
    def test_diagonal_sets_exact_ties(self, d, k, seed):
        cs = diagonal_set(d, k, seed)
        for n in (2, 3):
            for m in operators_for(cs, n):
                assert_scans_agree(m, cs)

    @given(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_sets(self, d, k, n, seed):
        cs = gaussian_set(d, k, seed)
        for m in operators_for(cs, n):
            assert_scans_agree(m, cs)

    def test_chunked_contraction(self):
        # k > d*d: the leading candidates are contracted in several chunks
        cs = gaussian_set(2, 5, 11)
        m = MeasurementOperator(n=3, dim=2, matrix=random_contraction(8, 12),
                                provenance=Provenance.M2_MAXIMAL)
        probs, _ = oracle._probabilities(m, cs)
        loop = [outcome_probability(m, t, cs) for t in all_tuples(5, 3)]
        assert np.max(np.abs(probs - loop)) <= 1e-14
        for op in [m] + operators_for(cs, 3):
            assert_scans_agree(op, cs)

    @pytest.mark.parametrize("d,k,n", [(4, 3, 4), (2, 4, 8), (3, 9, 2)])
    def test_contraction_memory_within_two_operators(self, d, k, n):
        # the per-tuple scan holds a product state and a trace temporary
        cs = gaussian_set(d, k, 61)
        dim = d**n
        m = MeasurementOperator(n=n, dim=d, matrix=random_contraction(dim, 62),
                                provenance=Provenance.M2_MAXIMAL)
        tracemalloc.start()
        try:
            oracle._probabilities(m, cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * dim * dim + 65536

    def test_single_copy_operator(self):
        cs = gaussian_set(3, 3, 21)
        m = MeasurementOperator(n=1, dim=3, matrix=random_contraction(3, 22),
                                provenance=Provenance.M1_MAXIMAL)
        assert_scans_agree(m, cs)
        empty = verify_nontrivial(twins(m)[1][0], cs)
        assert (empty.ok, empty.best_probability, empty.best_tuple) == (False, 0.0, ())

    def test_twins_scan_opposite_classes(self):
        # one matrix: the class the M1 twin must never fire on is the one the M2 twin serves
        cs = gaussian_set(2, 3, 71)
        m = MeasurementOperator(n=3, dim=2, matrix=random_contraction(8, 72),
                                provenance=Provenance.M2_MAXIMAL)
        (m1, *m1_classes), (m2, *m2_classes) = twins(m)
        assert list(TUPLE_CLASSES[m1.kind]) == m1_classes
        assert list(TUPLE_CLASSES[m2.kind]) == m2_classes
        for a, b in ((m1, m2), (m2, m1)):
            una, nt = verify_unambiguous(a, cs), verify_nontrivial(b, cs)
            assert (una.worst_probability, una.worst_tuple) == (nt.best_probability, nt.best_tuple)
        assert classify_tuple(verify_unambiguous(m1, cs).worst_tuple).kind is TupleKind.DIFFERENT
        assert classify_tuple(verify_unambiguous(m2, cs).worst_tuple).kind is TupleKind.IDENTICAL

    def test_identity_operator_ties_everywhere(self):
        for cs, n in ((EQ26, 3), (ORTH2, 4), (gaussian_set(2, 4, 31), 3)):
            assert_scans_agree(identity_operator(n, cs.dim), cs)

    def test_operator_above_unit_norm_through_verify(self, tmp_path, capsys):
        cs = gaussian_set(3, 3, 41)
        matrix = random_contraction(27, 42, scale=40.0)
        m = MeasurementOperator(n=3, dim=3, matrix=matrix, provenance=Provenance.M2_MAXIMAL)
        assert np.linalg.norm(m.matrix) > np.sqrt(27)
        assert_scans_agree(m, cs)
        op_path, set_path = tmp_path / "op.json", tmp_path / "set.json"
        io.write_operator(m, str(op_path))
        io.write_candidate_set(cs, str(set_path))
        assert main(["verify", str(op_path), str(set_path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        tol = Tolerances()
        ok, worst_p, worst_t = loop_unambiguous(m, TupleKind.IDENTICAL, cs, tol)
        assert rep["unambiguous"]["ok"] is ok is False
        assert rep["unambiguous"]["worst_tuple"] == list(worst_t)
        ok, best_p, best_t, best_dp, best_dt = loop_nontrivial(m, TupleKind.DIFFERENT, cs, tol)
        assert rep["nontrivial"]["ok"] is ok is True
        assert rep["nontrivial"]["best_tuple"] == list(best_t)
        assert rep["nontrivial"]["best_distinct_tuple"] == list(best_dt)

    def test_confirm_touches_few_tuples(self, monkeypatch):
        calls = []
        original = oracle._tuple_probabilities

        def counted(m, cs, tuples):
            calls.extend(tuples)
            return original(m, cs, tuples)

        monkeypatch.setattr(oracle, "_tuple_probabilities", counted)
        cs = gaussian_set(2, 3, 51)
        m = MeasurementOperator(n=5, dim=2, matrix=random_contraction(32, 52),
                                provenance=Provenance.M2_MAXIMAL)
        verify_unambiguous(m, cs)
        verify_nontrivial(m, cs)
        assert 0 < len(calls) <= 10 < 3**5
