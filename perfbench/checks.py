"""Correctness checks on every job's output.

``problems_*`` apply invariants that hold for any seed: the oracle verdicts
the acceptance criteria assert. ``compare_reference`` additionally holds a
report against one recorded from an earlier commit for the default seed.
Every function returns a list of human-readable problems; empty means pass.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Any

PROB_TOL = 1e-9

EXPLICIT = ("M1_eq13", "M2_product_eq27", "M2_pair_eq24")

# the construct summary line, printed to stdout when --out is given
CONSTRUCT_LINE = re.compile(
    r"^(?P<provenance>\S+): rank (?P<rank>\d+), unambiguous true, "
    r"nontrivial (?P<nontrivial>true|false), best tuple (?P<best_tuple>\S+) "
    r"p=(?P<p>\S+)$",
    re.M,
)


def _identical(t) -> bool:
    return all(i == t[0] for i in t)


def _tuple_problems(where: str, t, k: int, n: int, identical: bool | None,
                    distinct: bool = False) -> list[str]:
    """The tuple has n indices below k and lies in the stated class."""
    if not isinstance(t, list) or len(t) != n or not all(
        isinstance(i, int) and 0 <= i < k for i in t
    ):
        return [f"{where}: {t!r} is not a {n}-tuple over 0..{k - 1}"]
    if identical is not None and _identical(t) != identical:
        return [f"{where}: {t} is outside the {'IDENTICAL' if identical else 'DIFFERENT'} class"]
    if distinct and len(set(t)) != n:
        return [f"{where}: {t} is not pairwise distinct"]
    return []


def problems_analyze(rep: Any, d: int, k: int, n: int) -> list[str]:
    """Invariants of an ``analyze`` report on a d-dimensional k-state set at n."""
    try:
        inp, cond, ex = rep["input"], rep["conditions"], rep["existence"]
        out = []
        if (inp["dim"], inp["k"], inp["n"]) != (d, k, n):
            out.append(f"report is for dim,k,n={inp['dim']},{inp['k']},{inp['n']}, "
                       f"expected {d},{k},{n}")
        if ex["m1"] != cond["m1_condition"]:
            out.append(f"existence.m1={ex['m1']} but m1_condition={cond['m1_condition']}")
        if ex["m2"] and not cond["m2_necessary"]:
            out.append("existence.m2 holds without m2_necessary")
        for op in rep["operators"]:
            prov = op["provenance"]
            m1 = op["kind"] == "M1"
            if not op["unambiguous"]:
                out.append(f"{prov} is not unambiguous")
            if prov in EXPLICIT and not op["nontrivial"]:
                out.append(f"explicit construction {prov} is trivial")
            if prov.endswith("_maximal") and op["nontrivial"] != ex["m1" if m1 else "m2"]:
                out.append(f"{prov} nontrivial={op['nontrivial']} disagrees with existence")
            out += _tuple_problems(f"{prov} worst_forbidden_tuple",
                                   op["worst_forbidden_tuple"], k, n, not m1)
            out += _tuple_problems(f"{prov} best_tuple", op["best_tuple"], k, n, m1)
            if op["best_distinct_tuple"] is not None:
                out += _tuple_problems(f"{prov} best_distinct_tuple",
                                       op["best_distinct_tuple"], k, n, m1, distinct=True)
        povm = rep["povm"]
        if povm["assembled"] and povm["inconclusive_min_eigenvalue"] < -inp["tolerances"]["neg"]:
            out.append(f"inconclusive POVM element has eigenvalue "
                       f"{povm['inconclusive_min_eigenvalue']:.3e}")
        return out
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed analyze report: {exc!r}"]


def parse_construct(stdout: str) -> dict | None:
    """The fields of ``construct``'s summary line, or None when it is absent."""
    m = CONSTRUCT_LINE.search(stdout)
    if m is None:
        return None
    tup = m["best_tuple"]
    return {
        "provenance": m["provenance"],
        "rank": int(m["rank"]),
        "nontrivial": m["nontrivial"] == "true",
        "best_tuple": [] if tup == "-" else [int(i) for i in tup.strip("()").split(",")],
    }


def problems_construct(summary: dict | None, provenance: str,
                       expect_nontrivial: bool | None) -> list[str]:
    if summary is None:
        return ["construct printed no summary line"]
    out = []
    if summary["provenance"] != provenance:
        out.append(f"construct built {summary['provenance']}, expected {provenance}")
    if expect_nontrivial is not None and summary["nontrivial"] != expect_nontrivial:
        out.append(f"construct nontrivial={summary['nontrivial']} but analyze "
                   f"existence says {expect_nontrivial}")
    return out


def problems_verify(rep: Any, k: int, n: int, expect_nontrivial: bool | None) -> list[str]:
    """Invariants of a ``verify`` report; the expectation comes from construct."""
    try:
        out = []
        if not rep["invariants"]["valid"]:
            out.append("verified operator is not valid")
        if not rep["unambiguous"]["ok"]:
            out.append("verified operator is not unambiguous")
        nt = rep["nontrivial"]["ok"]
        if expect_nontrivial is not None and nt != expect_nontrivial:
            out.append(f"verify nontrivial={nt} but construct reported {expect_nontrivial}")
        m1 = rep["operator"]["kind"] == "M1"
        out += _tuple_problems("worst_tuple", rep["unambiguous"]["worst_tuple"], k, n, not m1)
        out += _tuple_problems("best_tuple", rep["nontrivial"]["best_tuple"], k, n, m1)
        return out
    except (KeyError, TypeError) as exc:
        return [f"malformed verify report: {exc!r}"]


# ---------------------------------------------------------------- reference

def tuple_index(t, k: int) -> int:
    """Position of the tuple in lexicographic order over 0..k-1."""
    idx = 0
    for i in t:
        idx = idx * k + i
    return idx


def roundoff_set(probs: dict[tuple[int, ...], float], best: tuple[int, ...], k: int,
                 zero: float) -> Any:
    """The tuples a reported ``best`` may be swapped for without a change of answer.

    Only a tuple whose probability is at or below ``zero`` (the program's
    ``tol.prob``) has any: every tuple of the class at that level, because
    their order is round-off. Returns None for a tuple above ``zero``, which
    must be reported exactly; "class" when the whole class is at round-off;
    otherwise the sorted lexicographic indices.
    """
    if probs[best] > zero:
        return None
    low = sorted(tuple_index(t, k) for t, q in probs.items() if q <= zero)
    return "class" if len(low) == len(probs) else low


def class_tuples(k: int, n: int, kind: str, distinct: bool = False) -> list[tuple[int, ...]]:
    out = []
    for t in product(range(k), repeat=n):
        if _identical(t) != (kind == "IDENTICAL"):
            continue
        if distinct and len(set(t)) != n:
            continue
        out.append(t)
    return out


def compare_reference(got: Any, ref: Any, k: int, where: str = "") -> list[str]:
    """Hold ``got`` against the recorded ``ref``, field by field.

    Keys absent from the reference are not compared. Floats must agree
    within PROB_TOL. Tuples must be equal, so that a changed tie-break among
    nonzero probabilities fails. The one exception is a key ``X_tuple`` with
    a sibling ``X_tuple_roundoff``: the recorded tuple's probability was at
    round-off level, and any tuple of that recorded set passes.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object, got {got!r}"]
        out = []
        for key, want in ref.items():
            if key.endswith("_roundoff"):
                continue
            if key not in got:
                out.append(f"{where}.{key}: missing")
                continue
            low = ref.get(f"{key}_roundoff")
            if low is not None and got[key] != want and isinstance(got[key], list):
                if low == "class" or tuple_index(got[key], k) in low:
                    continue
                out.append(f"{where}.{key}: {got[key]} differs from the reference {want}, "
                           f"and its probability is not at round-off level")
                continue
            out += compare_reference(got[key], want, k, f"{where}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: {got!r} differs from reference {ref!r}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare_reference(g, r, k, f"{where}[{i}]")
        return out
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - ref) > PROB_TOL:
            return [f"{where}: {got!r} differs from reference {ref!r} by more than {PROB_TOL}"]
        return []
    if got != ref:
        return [f"{where}: {got!r} differs from reference {ref!r}"]
    return []
