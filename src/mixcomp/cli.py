"""Command-line front end.

Commands: analyze, construct, verify, gen, demo. Machine-readable JSON goes
to --out (stdout by default); the human summary goes to stdout, or to
stderr when stdout is already carrying JSON. Exit codes: 0 success, 2 bad
input, 3 cap exceeded or out of memory, 4 internal invariant violation or
a failed eigensolve. ``main`` alone maps an exception to its code, wherever
it was raised.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io
from .comparison import (
    DEFAULT_CAP,
    MeasurementOperator,
    OperatorKind,
    Provenance,
    assemble_povm,
    build_m1,
    build_m2_pair,
    build_m2_product,
    build_maximal,
    check_conditions,
    residuals_ok,
)
from .errors import (
    CapExceededError,
    ConditionNotMetError,
    InputError,
    InternalCheckError,
    MixcompError,
    TupleTooShortError,
)
from .linalg import Tolerances
from .oracle import TUPLE_CLASSES, certify_construction, verify_nontrivial, verify_unambiguous
from .states import DEMO_NAMES, CandidateSet, demo_set, random_density
from .states import candidate_set as make_candidate_set

ENV_TOL = "MIXCOMP_TOL"


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, float(p)))


def _resolve_tolerances(tol_flag: float | None) -> Tolerances:
    """Flag beats the MIXCOMP_TOL environment variable beats the default.

    ``Tolerances`` rejects a value that is not positive and finite, whichever
    source it came from.
    """
    if tol_flag is not None:
        return Tolerances(tol_flag)
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return Tolerances()
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"{ENV_TOL} must be a number, got {raw!r}") from None
    return Tolerances(value)


def _best_fields(nt) -> dict:
    return {
        "best_probability": _clamp01(nt.best_probability),
        "best_tuple": list(nt.best_tuple),
        "best_distinct_probability": (
            None if nt.best_distinct_probability is None
            else _clamp01(nt.best_distinct_probability)
        ),
        "best_distinct_tuple": (
            None if nt.best_distinct_tuple is None else list(nt.best_distinct_tuple)
        ),
    }


def _operator_entry(op, una, nt, tol) -> dict:
    return {
        "provenance": op.provenance.value,
        "kind": op.kind.value,
        "rank": op.rank(tol),
        "unambiguous": bool(una.ok),
        "worst_forbidden_probability": _clamp01(una.worst_probability),
        "worst_forbidden_tuple": list(una.worst_tuple),
        "nontrivial": bool(nt.ok),
        **_best_fields(nt),
    }


# Per provenance, in the order analyze builds and reports them, the builder,
# called as build(cs, n, i0, tol, cap) through this module's names so that a
# replaced builder is the one called. A builder whose precondition fails
# raises ConditionNotMetError or TupleTooShortError, and analyze skips it.
# Eq. 24 comes after eq. 27 so that it takes the POVM's M2 slot when both exist.
_CONSTRUCTIONS = {
    Provenance.M1_MAXIMAL:
        lambda cs, n, i0, tol, cap: build_maximal(cs, n, OperatorKind.M1, cap=cap, tol=tol),
    Provenance.M2_MAXIMAL:
        lambda cs, n, i0, tol, cap: build_maximal(cs, n, OperatorKind.M2, cap=cap, tol=tol),
    Provenance.M1_EQ13: lambda cs, n, i0, tol, cap: build_m1(cs, n, i0, tol, cap),
    Provenance.M2_PRODUCT_EQ27: lambda cs, n, i0, tol, cap: build_m2_product(cs, n, tol, cap),
    Provenance.M2_PAIR_EQ24: lambda cs, n, i0, tol, cap: build_m2_pair(cs, n, tol, cap),
}


def analyze_set(cs: CandidateSet, n: int, tol: Tolerances, cap: int) -> dict:
    """Full pipeline: conditions, reduction, exact existence, constructions.

    Every operator is built whenever its preconditions hold and must pass
    ``certify_construction``; the two maximal ones always are, and whether
    they are non-trivial is the existence verdict. An explicit construction
    must also fire above tol.prob, or the run aborts with an internal error.
    """
    report = check_conditions(cs, tol)
    r = len(report.survivors)
    structural = report.m2_structural

    operators = []
    existence = {}
    povm_ops: dict[OperatorKind, MeasurementOperator] = {}
    for prov, build in _CONSTRUCTIONS.items():
        try:
            op = build(cs, n, None, tol, cap)
        except (ConditionNotMetError, TupleTooShortError):
            continue
        una, nt = certify_construction(op, cs, tol)
        if prov in (Provenance.M1_MAXIMAL, Provenance.M2_MAXIMAL):
            existence[prov.kind.value.lower()] = bool(nt.ok)
        elif not nt.ok:
            raise InternalCheckError(
                f"{prov.value} operator never fires above tol.prob = {tol.prob:.3e}: "
                f"best probability {nt.best_probability:.3e} at {nt.best_tuple}"
            )
        else:
            povm_ops[prov.kind] = op
        operators.append(_operator_entry(op, una, nt, tol))

    povm: dict = {"assembled": False}
    m1, m2 = povm_ops.get(OperatorKind.M1), povm_ops.get(OperatorKind.M2)
    if m1 is not None and m2 is not None:
        assembly = assemble_povm(m1, m2, tol)
        povm = {
            "assembled": True,
            "m1_provenance": m1.provenance.value,
            "m2_provenance": m2.provenance.value,
            "alpha": assembly.alpha,
            "beta": assembly.alpha,
            "inconclusive_min_eigenvalue": assembly.min_eigenvalue,
        }
    else:
        missing = []
        if m1 is None:
            missing.append("no identical-outcome construction")
        if m2 is None:
            missing.append("no different-outcome construction at this n")
        povm["reason"] = "; ".join(missing)

    return {
        "schema_version": io.SCHEMA_VERSION,
        "input": {
            "dim": cs.dim,
            "k": cs.k,
            "n": n,
            "labels": list(cs.labels),
            "cap": cap,
            "tolerances": {
                "sym": tol.sym, "rank": tol.rank, "neg": tol.neg, "prob": tol.prob,
            },
        },
        "conditions": {
            "m1_condition": report.m1_condition,
            "m1_witnesses": list(report.m1_witnesses),
            "m2_necessary": report.m2_necessary,
            "m2_failures": list(report.m2_failures),
            "m2_structural": structural,
            "structural_witness": report.structural_witness,
            "corollary1": structural,
            "per_candidate": [
                {
                    "index": i,
                    "label": cs.labels[i],
                    "escapes_others": report.escapes_others[i],
                    "others_escape": report.others_escape[i],
                }
                for i in range(cs.k)
            ],
        },
        "reduction": {
            "survivors": list(report.survivors),
            "r": r,
            "n_ge_k": n >= cs.k,
            "n_ge_r": n >= r,
        },
        "existence": existence,
        "operators": operators,
        "povm": povm,
    }


def _fmt_tuple(t) -> str:
    return "(" + ",".join(str(i) for i in t) + ")" if t else "-"


def format_summary(rep: dict) -> str:
    """Human-oriented view of an analysis report."""
    inp = rep["input"]
    cond = rep["conditions"]
    red = rep["reduction"]
    ex = rep["existence"]
    lines = []
    lines.append(
        f"candidate set: k={inp['k']} states in dimension {inp['dim']}, "
        f"tuple size n={inp['n']} (composite dimension {inp['dim'] ** inp['n']})"
    )
    details = {
        "m1_condition": (
            f"witnesses {cond['m1_witnesses']}" if cond["m1_witnesses"]
            else "no support escapes the span of the others"
        ),
        "m2_necessary": (
            "no support contains the span of the others" if cond["m2_necessary"]
            else f"span of others fits inside support at {cond['m2_failures']}"
        ),
        "m2_structural": (
            f"witness i0={cond['structural_witness']}" if cond["m2_structural"]
            else "needs m2_necessary plus an escape witness"
        ),
        "corollary1": "m1_condition and m2_necessary",
    }
    lines.append("conditions:")
    for name in ("m1_condition", "m2_necessary", "m2_structural", "corollary1"):
        lines.append(f"  {name:<15} {str(cond[name]).lower():<6} {details[name]}")
    lines.append(
        f"reduction: survivors {red['survivors']} (r={red['r']} of k={inp['k']}), "
        f"n>=k {str(red['n_ge_k']).lower()}, n>=r {str(red['n_ge_r']).lower()}"
    )
    lines.append(
        f"existence (exact): identical-outcome {str(ex['m1']).lower()}, "
        f"different-outcome {str(ex['m2']).lower()}"
    )
    lines.append("operators:")
    width = max([12] + [len(_fmt_tuple(op["best_tuple"])) + 1 for op in rep["operators"]])
    lines.append(
        f"  {'provenance':<17}{'rank':>5}  {'unambig':<8}{'nontriv':<8}"
        f"{'best tuple':<{width}}{'p':<10}"
    )
    for op in rep["operators"]:
        lines.append(
            f"  {op['provenance']:<17}{op['rank']:>5}  "
            f"{str(op['unambiguous']).lower():<8}{str(op['nontrivial']).lower():<8}"
            f"{_fmt_tuple(op['best_tuple']):<{width}}{op['best_probability']:<10.6g}"
        )
    povm = rep["povm"]
    if povm["assembled"]:
        lines.append(
            f"povm: alpha={povm['alpha']:g} beta={povm['beta']:g} "
            f"inconclusive min eigenvalue {povm['inconclusive_min_eigenvalue']:.3e}"
        )
    else:
        lines.append(f"povm: not assembled ({povm['reason']})")
    return "\n".join(lines)


def _summary_stream(out_path: str | None):
    return sys.stdout if out_path is not None else sys.stderr


def cmd_analyze(args) -> int:
    tol = _resolve_tolerances(args.tol)
    cs = io.read_candidate_set(args.input)
    io.require_writable(args.out)
    rep = analyze_set(cs, args.n, tol, args.cap)
    io.dump_json(rep, args.out)
    print(format_summary(rep), file=_summary_stream(args.out))
    return 0


# (--operator, --method) per provenance: "M2_product_eq27" is m2 + eq27
_METHODS = {(p.kind.value.lower(), p.value.rsplit("_", 1)[1]): p for p in Provenance}


def cmd_construct(args) -> int:
    tol = _resolve_tolerances(args.tol)
    cs = io.read_candidate_set(args.input)
    key = (args.operator, args.method)
    if key not in _METHODS:
        raise InputError(
            f"method {args.method!r} does not build a {args.operator} operator; "
            f"valid pairs: {', '.join('+'.join(pair) for pair in sorted(_METHODS))}"
        )
    if args.i0 is not None and key != ("m1", "eq13"):
        raise InputError("--i0 only applies to m1 eq13")
    io.require_writable(args.out)
    op = _CONSTRUCTIONS[_METHODS[key]](cs, args.n, args.i0, tol, args.cap)
    _, nt = certify_construction(op, cs, tol)
    io.write_operator(op, args.out)
    print(
        f"{op.provenance.value}: rank {op.rank(tol)}, unambiguous true, "
        f"nontrivial {str(nt.ok).lower()}, best tuple {_fmt_tuple(nt.best_tuple)} "
        f"p={_clamp01(nt.best_probability):.6g}",
        file=_summary_stream(args.out),
    )
    return 0


def cmd_verify(args) -> int:
    tol = _resolve_tolerances(args.tol)
    op = io.read_operator(args.operator_file)
    # 0 <= M <= I bounds ||M||_F^2 by D: an operator past a double there is
    # refused before a product or an eigensolve on it overflows
    if not np.isfinite(np.vdot(op.matrix, op.matrix)):
        raise InputError(f"operator file: the squared Frobenius norm overflows a double; "
                         f"0 <= M <= I bounds it by {len(op.matrix)}")
    cs = io.read_candidate_set(args.set_file)
    # a non-Hermitian file exits 2 before the scan and the eigensolve are paid
    op.require_hermitian(tol)
    # the operator's side is dim**n, already formed and checked by the reader
    if len(op.matrix) > args.cap:
        raise CapExceededError(op.dim, op.n, args.cap, len(op.matrix))
    io.require_writable(args.out)
    una, nt = verify_unambiguous(op, cs, tol), verify_nontrivial(op, cs, tol)
    forbidden, allowed = TUPLE_CLASSES[op.kind]
    # one S S product gives eps, rank and the projector residual; eigvalsh
    # runs only when eps proves nothing
    res = op.residuals(tol)
    rep = {
        "schema_version": io.SCHEMA_VERSION,
        "operator": {
            "provenance": op.provenance.value,
            "kind": op.kind.value,
            "n": op.n,
            "dim": op.dim,
            "rank": op.rank(tol),
        },
        "invariants": {
            "hermitian_residual": res["hermitian"],
            "psd_violation": res["psd"],
            "above_identity": res["below_identity"],
            "projector_residual": res["projector"],
            "valid": residuals_ok(res, tol),
            "certified": res["certified"],
        },
        "unambiguous": {
            "ok": bool(una.ok),
            "forbidden": forbidden.value,
            "worst_probability": _clamp01(una.worst_probability),
            "worst_tuple": list(una.worst_tuple),
        },
        "nontrivial": {
            "ok": bool(nt.ok),
            "allowed": allowed.value,
            **_best_fields(nt),
        },
    }
    io.dump_json(rep, args.out)
    print(
        f"{op.provenance.value}: valid {str(rep['invariants']['valid']).lower()}, "
        f"unambiguous {str(una.ok).lower()}, nontrivial {str(nt.ok).lower()}",
        file=_summary_stream(args.out),
    )
    return 0


def cmd_gen(args) -> int:
    if args.d < 1:
        raise InputError(f"--d must be positive, got {args.d}")
    if args.k < 2:
        raise InputError(f"--k must be at least 2, got {args.k}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    try:
        ranks = [int(x) for x in args.ranks.split(",")]
    except ValueError:
        raise InputError(f"--ranks must be comma-separated integers, got {args.ranks!r}") from None
    if len(ranks) != args.k:
        raise InputError(f"--ranks lists {len(ranks)} entries for k={args.k} states")
    for r in ranks:
        if not 1 <= r <= args.d:
            raise InputError(f"rank {r} out of range 1..{args.d}")
    child_seeds = np.random.SeedSequence(args.seed).generate_state(args.k)
    try:
        states = [
            random_density(args.d, ranks[i], int(child_seeds[i])) for i in range(args.k)
        ]
        cs = make_candidate_set(states)
    except InputError as exc:
        raise InputError(f"generated set is invalid: {exc}") from exc
    io.write_candidate_set(cs, args.out)
    print(
        f"generated k={args.k} states in dimension {args.d}, ranks {ranks}, seed {args.seed}",
        file=_summary_stream(args.out),
    )
    return 0


def cmd_demo(args) -> int:
    tol = _resolve_tolerances(args.tol)
    cs = demo_set(args.name)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory {args.out_dir}: {exc.strerror}") from exc
    set_path = os.path.join(args.out_dir, f"{args.name}.json")
    io.write_candidate_set(cs, set_path)
    print(f"wrote {set_path}")
    for n in (2, 3):
        rep = analyze_set(cs, n, tol, args.cap)
        rep_path = os.path.join(args.out_dir, f"{args.name}_report_n{n}.json")
        io.dump_json(rep, rep_path)
        print(f"\n=== {args.name}, n={n} ===")
        print(format_summary(rep))
        print(f"wrote {rep_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcomp",
        description=(
            "Decide whether unambiguous comparison of mixed quantum states is "
            "possible, construct the measurement operators, and verify them "
            "with an exact oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False):
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="tuple size (>= 2)")
        p.add_argument("--tol", type=float, default=None,
                       help=f"global tolerance (default 1e-9, or ${ENV_TOL})")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="maximum composite dimension d**n (default 4096)")
        p.add_argument("--out", default=None,
                       help="output path (default: JSON to stdout)")

    p = sub.add_parser("analyze", help="run all checks and constructions on a set")
    p.add_argument("input", help="candidate set JSON file")
    common(p, needs_n=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build one measurement operator")
    p.add_argument("input", help="candidate set JSON file")
    p.add_argument("--operator", choices=sorted({op for op, _ in _METHODS}), required=True)
    p.add_argument("--method", choices=sorted({m for _, m in _METHODS}), required=True)
    p.add_argument("--i0", type=int, default=None,
                   help="witness index for m1 eq13 (default: smallest)")
    common(p, needs_n=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="oracle-check an operator file against a set")
    p.add_argument("operator_file", help="operator JSON file")
    p.add_argument("set_file", help="candidate set JSON file")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random candidate set")
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument("--k", type=int, required=True, help="number of states")
    p.add_argument("--ranks", required=True, help="comma-separated ranks, one per state")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("demo", help="replay a bundled example end to end")
    p.add_argument("name", choices=list(DEMO_NAMES))
    p.add_argument("--out-dir", default=".", help="directory for set and report files")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by later ones.

    Building it costs more than parsing with it; parsing leaves it unchanged.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; lower --cap or the tuple size n", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except np.linalg.LinAlgError as exc:
        print(f"internal error: linear algebra failed: {exc}", file=sys.stderr)
        return 4
    except MixcompError as exc:  # bad input, an unmet condition, n too short
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
