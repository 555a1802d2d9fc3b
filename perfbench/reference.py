"""Record the reference reports that default-seed runs are checked against.

    python3 perfbench/reference.py [WORKLOAD ...]

Runs one pass of each workload (all by default) on the default seed and
writes ``perfbench/reference/<workload>.json``: per job, the report minus
fields that carry no verdict (schema version, the ``corollary1`` alias, the
free-text POVM reason). A reported tuple whose oracle probability is at or
below ``tol.prob`` also gets the set of tuples of its class at that level,
which the check lets it be swapped for; every other tuple must match exactly.
Re-record only when a change of verdict is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run

ORACLE_CLASS = {  # operator kind -> (forbidden class, allowed class)
    "M1": ("DIFFERENT", "IDENTICAL"),
    "M2": ("IDENTICAL", "DIFFERENT"),
}


def _add_roundoff(entry: dict, op, cs, n: int, fields: dict) -> None:
    """``fields`` maps a tuple key of ``entry`` to (class, pairwise distinct)."""
    from mixcomp import Tolerances, classify_tuple, outcome_probability

    for key, (kind, distinct) in fields.items():
        t = entry.get(key)
        if t is None:
            continue
        probs = {
            u: outcome_probability(op, classify_tuple(u), cs)
            for u in checks.class_tuples(cs.k, n, kind, distinct)
        }
        low = checks.roundoff_set(probs, tuple(t), cs.k, Tolerances().prob)
        if low is not None:
            entry[f"{key}_roundoff"] = low


def digest(job, got, cs):
    """The recorded form of one job's output, round-off sets included."""
    from mixcomp import (OperatorKind, Tolerances, build_m1, build_m2_pair,
                         build_m2_product, build_maximal)
    from mixcomp import io as mio

    tol = Tolerances()
    if job.kind == "construct":
        ref = dict(got)
        op = mio.read_operator(job.out)
        _add_roundoff(ref, op, cs, job.n, {"best_tuple": (ORACLE_CLASS[op.kind.value][1], False)})
        return ref
    ref = json.loads(json.dumps(got))
    ref.pop("schema_version")
    if job.kind == "verify":
        op = mio.read_operator(job.argv[1])
        forbidden, allowed = ORACLE_CLASS[op.kind.value]
        _add_roundoff(ref["unambiguous"], op, cs, job.n, {"worst_tuple": (forbidden, False)})
        _add_roundoff(ref["nontrivial"], op, cs, job.n,
                      {"best_tuple": (allowed, False), "best_distinct_tuple": (allowed, True)})
        return ref
    ref["conditions"].pop("corollary1")
    ref["povm"].pop("reason", None)
    builders = {
        "M1_maximal": lambda: build_maximal(cs, job.n, OperatorKind.M1, tol=tol),
        "M2_maximal": lambda: build_maximal(cs, job.n, OperatorKind.M2, tol=tol),
        "M1_eq13": lambda: build_m1(cs, job.n, None, tol),
        "M2_product_eq27": lambda: build_m2_product(cs, job.n, tol),
        "M2_pair_eq24": lambda: build_m2_pair(cs, job.n, tol),
    }
    for entry in ref["operators"]:
        forbidden, allowed = ORACLE_CLASS[entry["kind"]]
        _add_roundoff(entry, builders[entry["provenance"]](), cs, job.n, {
            "worst_forbidden_tuple": (forbidden, False),
            "best_tuple": (allowed, False),
            "best_distinct_tuple": (allowed, True),
        })
    return ref


def record(cli, workload: str) -> None:
    import workloads
    from mixcomp import io as mio

    workdir = run.ROOT / ".perfbench_work" / f"reference-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.build(workload, workloads.DEFAULT_SEED, str(workdir))
        checker = run.Checker(None)
        recorded = []
        for job in jobs:
            _, code, out = run.execute(cli, job)
            problems = checker(job, code, out)
            if problems:
                sys.exit(f"{workload} job {job.index} fails its checks: {problems}")
            if job.kind == "construct":
                got = checks.parse_construct(out)
            else:
                with open(job.out, encoding="utf-8") as fh:
                    got = json.load(fh)
            set_file = job.argv[1] if job.kind != "verify" else job.argv[2]
            recorded.append(digest(job, got, mio.read_candidate_set(set_file)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.HERE / "reference" / f"{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": workloads.DEFAULT_SEED, "jobs": recorded},
                  fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path} ({len(recorded)} jobs)")


def main(argv: list[str]) -> int:
    run.pin_environment()
    cli = run.import_program()
    import workloads

    for workload in argv or workloads.WORKLOADS:
        record(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
