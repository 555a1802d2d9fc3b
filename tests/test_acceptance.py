"""Acceptance suite.

Each test covers one numbered criterion, enforces the stated tolerance and
runtime budget, and registers a PASS/FAIL line that conftest prints after
the run. Criteria 4 through 8 share one randomized corpus evaluated once
per session.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import record_acceptance

from mixcomp.comparison import (
    OperatorKind,
    assemble_povm,
    build_m1,
    build_m2_pair,
    build_m2_product,
    build_maximal,
    check_conditions,
    reduce_candidates,
)
from mixcomp.linalg import hermitian_eigen, kron_all, min_eigenvalue, orthonormal_columns
from mixcomp.oracle import decide_exists, verify_nontrivial, verify_unambiguous
from mixcomp.states import basis_state, demo_set
from mixcomp.subspace import Subspace, complement, projector

EQ26 = demo_set("eq26")
CORPUS_BUDGET_S = 60.0


@pytest.fixture(scope="session")
def corpus_results(corpus):
    """Analyze every corpus set at n = 2 and n = 3, once per session."""
    t0 = time.perf_counter()
    results = []
    for name, cs, has_mixed in corpus:
        rep = check_conditions(cs)
        r = len(reduce_candidates(cs))
        for n in (2, 3):
            assert cs.dim**n <= 256
            results.append(
                {
                    "name": name,
                    "cs": cs,
                    "n": n,
                    "r": r,
                    "has_mixed": has_mixed,
                    "m1_condition": rep.m1_condition,
                    "m2_necessary": rep.m2_necessary,
                    "m2_structural": rep.m2_structural,
                    "exists_m1": decide_exists(cs, n, OperatorKind.M1),
                    "exists_m2": decide_exists(cs, n, OperatorKind.M2),
                }
            )
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_no_m2_for_pairs():
    start = time.perf_counter()
    exists = decide_exists(EQ26, 2, OperatorKind.M2)
    maximal = build_maximal(EQ26, 2, OperatorKind.M2)
    residual = float(np.max(np.abs(maximal.matrix)))
    elapsed = time.perf_counter() - start
    ok = (exists is False) and residual <= 1e-9 and elapsed < 1.0
    record_acceptance(
        1, ok, f"demo set, n=2: no different-outcome operator "
               f"(max |M| = {residual:.1e}), {elapsed:.3f}s"
    )
    assert exists is False
    assert residual <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_m2_appears_for_triples():
    start = time.perf_counter()
    exists = decide_exists(EQ26, 3, OperatorKind.M2)
    maximal = build_maximal(EQ26, 3, OperatorKind.M2)

    # every ordering of the three basis vectors must lie in the range
    worst_vec_residual = 0.0
    for perm in itertools.permutations((0, 1, 2)):
        v = kron_all([basis_state(3, i) for i in perm])
        worst_vec_residual = max(
            worst_vec_residual, float(np.max(np.abs(maximal.matrix @ v - v)))
        )

    # independent 8-term expansion of the tuple state against the rank-6
    # projector spanned by those orderings: each candidate contributes two
    # basis directions with weight 1/2, and only index-distinct products
    # survive the projection
    support_sets = [(0, 1), (1, 2), (0, 2)]
    expected = sum(
        1 for combo in itertools.product(*support_sets) if len(set(combo)) == 3
    ) / 8.0
    perm_vectors = [
        kron_all([basis_state(3, i) for i in perm])
        for perm in itertools.permutations((0, 1, 2))
    ]
    perm_projector = sum(np.outer(v, v.conj()) for v in perm_vectors)
    tuple_state = kron_all([EQ26.matrix(i) for i in (0, 1, 2)])
    p = float(np.trace(perm_projector @ tuple_state).real)

    elapsed = time.perf_counter() - start
    ok = (
        exists is True
        and worst_vec_residual <= 1e-9
        and abs(p - expected) <= 1e-9
        and abs(p - 0.25) <= 1e-9
        and elapsed < 5.0
    )
    record_acceptance(
        2, ok, f"demo set, n=3: operator exists, 6 orderings in range "
               f"(residual {worst_vec_residual:.1e}), ordering-projector "
               f"probability {p:.6f} = {expected}, {elapsed:.3f}s"
    )
    assert exists is True
    assert worst_vec_residual <= 1e-9
    assert abs(p - expected) <= 1e-9
    assert abs(p - 0.25) <= 1e-9
    assert elapsed < 5.0


def test_criterion_3_m1_never_exists_here():
    start = time.perf_counter()
    cond = check_conditions(EQ26).m1_condition
    exists = {n: decide_exists(EQ26, n, OperatorKind.M1) for n in (2, 3)}
    elapsed = time.perf_counter() - start
    ok = cond is False and exists == {2: False, 3: False} and elapsed < 5.0
    record_acceptance(
        3, ok, f"demo set: identical-outcome condition false and oracle agrees "
               f"for n in (2, 3), {elapsed:.3f}s"
    )
    assert cond is False
    assert exists == {2: False, 3: False}
    assert elapsed < 5.0


def test_criterion_4_condition_matches_oracle_for_m1(corpus_results):
    results, elapsed = corpus_results
    mism = [x["name"] for x in results if x["exists_m1"] != x["m1_condition"]]
    n_true = sum(1 for x in results if x["m1_condition"])
    n_false = len(results) - n_true
    ok = not mism and n_true > 0 and n_false > 0 and elapsed < CORPUS_BUDGET_S
    record_acceptance(
        4, ok, f"{len(results)} corpus instances: oracle == condition everywhere "
               f"({n_true} feasible / {n_false} infeasible), corpus time {elapsed:.1f}s"
    )
    assert mism == []
    assert n_true > 0 and n_false > 0
    assert elapsed < CORPUS_BUDGET_S


def test_criterion_5_necessity_for_m2(corpus_results):
    results, elapsed = corpus_results
    violations = [
        x["name"] for x in results if x["exists_m2"] and not x["m2_necessary"]
    ]
    mixed = [x for x in results if x["has_mixed"]]
    mixed_violations = [x["name"] for x in mixed if x["exists_m2"]]
    ok = (
        not violations
        and not mixed_violations
        and len(mixed) > 0
        and elapsed < CORPUS_BUDGET_S
    )
    record_acceptance(
        5, ok, f"oracle existence implies the necessary condition on all "
               f"{len(results)} instances; all {len(mixed)} maximally-mixed "
               f"instances infeasible, corpus time {elapsed:.1f}s"
    )
    assert violations == []
    assert mixed_violations == []
    assert len(mixed) > 0
    assert elapsed < CORPUS_BUDGET_S


def test_criterion_6_product_construction_always_works(corpus_results):
    results, _ = corpus_results
    eligible = [x for x in results if x["m2_necessary"] and x["n"] >= x["cs"].k]
    failures = []
    for x in eligible:
        cs, n = x["cs"], x["n"]
        m2 = build_m2_product(cs, n)
        una = verify_unambiguous(m2, cs)
        nt = verify_nontrivial(m2, cs)
        if not (una.ok and nt.ok and x["exists_m2"]):
            failures.append(x["name"])
    ok = not failures and len(eligible) > 0
    record_acceptance(
        6, ok, f"product construction unambiguous and non-trivial on all "
               f"{len(eligible)} eligible instances, zero failures"
    )
    assert failures == []
    assert len(eligible) > 0


def test_criterion_7_pair_construction_always_works(corpus_results):
    results, _ = corpus_results
    eligible = [x for x in results if x["m2_structural"]]
    failures = []
    for x in eligible:
        cs, n = x["cs"], x["n"]
        m2 = build_m2_pair(cs, n)
        una = verify_unambiguous(m2, cs)
        nt = verify_nontrivial(m2, cs)
        if not (una.ok and nt.ok):
            failures.append(x["name"])
    ok = not failures and len(eligible) > 0
    record_acceptance(
        7, ok, f"pair construction passes both oracle checks on all "
               f"{len(eligible)} eligible instances, zero failures"
    )
    assert failures == []
    assert len(eligible) > 0


def test_criterion_8_simultaneous_existence(corpus_results):
    results, _ = corpus_results
    mismatches = []
    povm_failures = []
    assembled = 0
    for x in results:
        both = x["exists_m1"] and x["exists_m2"]
        if both != x["m2_structural"]:
            mismatches.append(x["name"])
            continue
        if not both:
            continue
        cs, n = x["cs"], x["n"]
        pv = assemble_povm(build_m1(cs, n), build_m2_pair(cs, n))
        assembled += 1
        if min_eigenvalue(pv.inconclusive) < -1e-9:
            povm_failures.append((x["name"], "inconclusive not PSD"))
            continue
        for t in itertools.product(range(cs.k), repeat=n):
            state = kron_all([cs.matrix(i) for i in t])
            total = sum(np.trace(part @ state).real for part in pv)
            if abs(total - 1.0) > 1e-9:
                povm_failures.append((x["name"], f"sum {total} on {t}"))
                break
    ok = not mismatches and not povm_failures and assembled > 0
    record_acceptance(
        8, ok, f"simultaneous existence matches the conjunction on all "
               f"{len(results)} instances; {assembled} POVMs complete with "
               f"PSD inconclusive part and unit probability sums"
    )
    assert mismatches == []
    assert povm_failures == []
    assert assembled > 0


def test_criterion_9_kernel_properties():
    start = time.perf_counter()
    recon_worst = 0.0
    idem_worst = 0.0
    dim_mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))

        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (a + a.conj().T) / 2
        w, v = hermitian_eigen(h)
        recon_worst = max(
            recon_worst, float(np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)))
        )

        r = int(rng.integers(1, d + 1))
        vecs = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        s = Subspace(orthonormal_columns(vecs))
        p = projector(s)
        idem_worst = max(idem_worst, float(np.max(np.abs(p @ p - p))))

        if s.dim + complement(s).dim != d:
            dim_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = (
        recon_worst <= 1e-10
        and idem_worst <= 1e-9
        and dim_mismatches == 0
        and elapsed < 10.0
    )
    record_acceptance(
        9, ok, f"100 instances: eigen reconstruction {recon_worst:.1e} <= 1e-10, "
               f"projector idempotence {idem_worst:.1e} <= 1e-9, complement "
               f"dimensions exact, {elapsed:.2f}s"
    )
    assert recon_worst <= 1e-10
    assert idem_worst <= 1e-9
    assert dim_mismatches == 0
    assert elapsed < 10.0
