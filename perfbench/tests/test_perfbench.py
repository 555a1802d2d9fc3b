"""Tests of the benchmark itself: inputs, correctness checks and span accounting."""

from __future__ import annotations

import copy
import json

import pytest

import checks
import run
import spans
import workloads


def _files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_set_files(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    jobs = workloads.build(workload, 5, str(a))
    workloads.build(workload, 5, str(b))
    workloads.build(workload, 6, str(c))
    assert jobs and _files(a) == _files(b)
    assert _files(a) != _files(c)


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """The first corpus job of the default seed, run through the CLI."""
    workdir = tmp_path_factory.mktemp("corpus")
    job = workloads.build("corpus_small", workloads.DEFAULT_SEED, str(workdir))[0]
    cli = run.import_program()
    _, code, out = run.execute(cli, job)
    assert code == 0, out
    with open(job.out, encoding="utf-8") as fh:
        return job, out, json.load(fh)


def test_check_accepts_the_real_report(analyzed):
    job, out, rep = analyzed
    assert checks.problems_analyze(rep, job.d, job.k, job.n) == []
    ref = run.load_reference("corpus_small")[job.index]
    assert checks.compare_reference(rep, ref, job.k) == []


@pytest.mark.parametrize("corrupt", [
    lambda rep: rep["operators"][0].update(unambiguous=False),
    lambda rep: rep["existence"].update(m1=not rep["existence"]["m1"]),
    lambda rep: rep["existence"].update(m2=True) or rep["conditions"].update(m2_necessary=False),
    lambda rep: rep["input"].update(n=rep["input"]["n"] + 1),
    lambda rep: rep["operators"][0].update(best_tuple=[0]),
])
def test_check_rejects_one_corrupted_field(analyzed, corrupt):
    job, _, rep = analyzed
    bad = copy.deepcopy(rep)
    corrupt(bad)
    assert checks.problems_analyze(bad, job.d, job.k, job.n)


def test_reference_rejects_changed_verdict_and_tie_break(analyzed):
    job, _, rep = analyzed
    ref = run.load_reference("corpus_small")[job.index]
    bad = copy.deepcopy(rep)
    bad["operators"][0]["rank"] += 1
    assert checks.compare_reference(bad, ref, job.k)
    bad = copy.deepcopy(rep)
    bad["operators"][0]["best_probability"] += 1e-6
    assert checks.compare_reference(bad, ref, job.k)

    # the two tuples tie, but only a round-off-level tie may be broken otherwise
    ref = {"best_tuple": [1, 0]}
    assert checks.compare_reference({"best_tuple": [1, 0]}, ref, 2) == []
    assert checks.compare_reference({"best_tuple": [0, 1]}, ref, 2)
    ref["best_tuple_roundoff"] = [checks.tuple_index([0, 1], 2), checks.tuple_index([1, 0], 2)]
    assert checks.compare_reference({"best_tuple": [0, 1]}, ref, 2) == []


def test_roundoff_set_covers_only_round_off_level_tuples():
    probs = {(0, 1): 1e-17, (1, 0): 3e-17}
    assert checks.roundoff_set(probs, (1, 0), 2, 1e-9) == "class"
    probs = {(0, 1): 0.5, (1, 0): 0.5}
    assert checks.roundoff_set(probs, (1, 0), 2, 1e-9) is None
    probs = {(0, 0): 2e-12, (0, 1): 0.0, (1, 0): 0.25}
    assert checks.roundoff_set(probs, (0, 1), 2, 1e-9) == [0, 1]


def test_verify_and_construct_checks():
    summary = checks.parse_construct(
        "M1_maximal: rank 3, unambiguous true, nontrivial false, best tuple (0,0) p=0\n")
    assert summary == {"provenance": "M1_maximal", "rank": 3, "nontrivial": False,
                       "best_tuple": [0, 0]}
    assert checks.problems_construct(summary, "M1_maximal", False) == []
    assert checks.problems_construct(summary, "M1_maximal", True)
    assert checks.problems_construct(None, "M1_maximal", None)
    rep = {
        "operator": {"kind": "M1"},
        "invariants": {"valid": True},
        "unambiguous": {"ok": True, "worst_tuple": [0, 1]},
        "nontrivial": {"ok": True, "best_tuple": [1, 1]},
    }
    assert checks.problems_verify(rep, 2, 2, True) == []
    assert checks.problems_verify(rep, 2, 2, False)
    bad = copy.deepcopy(rep)
    bad["unambiguous"]["ok"] = False
    assert checks.problems_verify(bad, 2, 2, True)


def _tree() -> list[spans.Span]:
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [7, 8];
    # the second child has a grandchild [3, 4]
    return [
        spans.Span("cli.main", "cli.self_s", 0.0, 10.0, -1),
        spans.Span("io.write_operator", "io.write_operator_s", 1.0, 3.0, 0),
        spans.Span("oracle.outcome_probability", "oracle.scan_s", 2.0, 5.0, 0),
        spans.Span("linalg.kron_all", "linalg.kron_s", 3.0, 4.0, 2),
        spans.Span("io.dump_json", "io.write_report_s", 7.0, 8.0, 0),
    ]


def test_self_time_is_span_minus_child_coverage():
    tree = _tree()
    assert spans.self_times(tree) == pytest.approx([10 - 4 - 1, 2, 2, 1, 1])
    totals = spans.bucket_self_times(tree)
    # kron_all under the oracle folds into the scan; dump_json outside an
    # operator write stays a report write
    assert totals == pytest.approx({"cli.self_s": 5, "io.write_operator_s": 2,
                                    "oracle.scan_s": 3, "io.write_report_s": 1})


def test_tracer_wraps_every_binding_and_restores_it(analyzed):
    import mixcomp
    from mixcomp import cli, linalg, oracle

    job, _, _ = analyzed
    before = (linalg.hermitian_eigen, mixcomp.hermitian_eigen, cli.build_maximal,
              oracle.build_maximal, mixcomp.MeasurementOperator.__dict__["rank"])
    tracer = spans.Tracer()
    with tracer.installed():
        assert linalg.hermitian_eigen is not before[0]
        assert mixcomp.hermitian_eigen is linalg.hermitian_eigen
        assert cli.build_maximal is oracle.build_maximal is not before[2]
        _, code, _ = run.execute(cli, job, tracer)
    assert code == 0
    after = (linalg.hermitian_eigen, mixcomp.hermitian_eigen, cli.build_maximal,
             oracle.build_maximal, mixcomp.MeasurementOperator.__dict__["rank"])
    assert all(a is b for a, b in zip(before, after))
    recorded = tracer.take()
    names = {s.name for s in recorded}
    assert {"bench.job", "cli.main", "oracle.verify_unambiguous",
            "comparison.MeasurementOperator.rank", "subspace.support_of"} <= names
    buckets = spans.bucket_self_times(recorded)
    assert {"comparison.maximal_m1_s", "comparison.maximal_m2_s"} <= set(buckets)
    root = recorded[0]
    assert sum(buckets.values()) == pytest.approx(root.end - root.start)
