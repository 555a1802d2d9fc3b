"""In-memory span tracing of mixcomp's layer boundaries, from outside.

``Tracer.installed()`` replaces each function in ``POINTS`` by a wrapper at
every module of the ``mixcomp`` package where the name is bound (and on the
class for methods), and restores the originals on exit. Each call records a
span: name, bucket, start, end and parent. A span's self time is its
duration minus the part of it that its child spans cover, so the buckets'
self times partition the traced time and no second is counted twice.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Any, Callable


def _maximal_bucket(args: tuple, kwargs: dict) -> str:
    which = args[2] if len(args) > 2 else kwargs["which"]
    return f"comparison.maximal_{str(getattr(which, 'value', which)).lower()}_s"


def _matrix_dim(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(args[0]))


def _file_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return float(os.path.getsize(path)) if path is not None else 0.0


@dataclass(frozen=True)
class Point:
    """A traced function: module, qualified name, bucket for its self time.

    ``bucket`` may be a function of the call's arguments. ``fold_under``
    names parent spans that absorb this span into their own bucket.
    ``probe`` turns (args, kwargs, result) into a number kept on the span.
    """

    module: str
    qualname: str
    bucket: str | Callable[[tuple, dict], str]
    fold_under: frozenset[str] = frozenset()
    probe: Callable[[tuple, dict, Any], float] | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.qualname}"


POINTS = (
    Point("mixcomp.cli", "main", "cli.self_s"),
    Point("mixcomp.io", "read_candidate_set", "io.read_set_s"),
    Point("mixcomp.io", "read_operator", "io.read_operator_s"),
    Point("mixcomp.io", "write_operator", "io.write_operator_s", probe=_file_bytes),
    # the report writer is also the operator writer's last step
    Point("mixcomp.io", "dump_json", "io.write_report_s",
          fold_under=frozenset({"io.write_operator"})),
    Point("mixcomp.states", "candidate_set", "states.validate_s"),
    Point("mixcomp.states", "validate_density", "states.validate_s"),
    Point("mixcomp.states", "DensityMatrix.__post_init__", "states.validate_s"),
    Point("mixcomp.states", "CandidateSet.__post_init__", "states.validate_s"),
    Point("mixcomp.subspace", "support_of", "subspace.support_s"),
    Point("mixcomp.linalg", "hermitian_eigen", "linalg.eigh_s", probe=_matrix_dim),
    # the oracle's per-tuple product state is part of the scan it serves
    Point("mixcomp.linalg", "kron_all", "linalg.kron_s",
          fold_under=frozenset({"oracle.outcome_probability"})),
    Point("mixcomp.comparison", "check_conditions", "comparison.conditions_s"),
    Point("mixcomp.comparison", "reduce_candidates", "comparison.conditions_s"),
    Point("mixcomp.comparison", "build_maximal", _maximal_bucket),
    Point("mixcomp.comparison", "build_m1", "comparison.explicit_s"),
    Point("mixcomp.comparison", "build_m2_product", "comparison.explicit_s"),
    Point("mixcomp.comparison", "build_m2_pair", "comparison.explicit_s"),
    Point("mixcomp.comparison", "assemble_povm", "comparison.povm_s"),
    Point("mixcomp.comparison", "MeasurementOperator.residuals", "comparison.self_check_s"),
    Point("mixcomp.comparison", "MeasurementOperator.rank", "comparison.rank_s"),
    Point("mixcomp.oracle", "verify_unambiguous", "oracle.scan_s"),
    Point("mixcomp.oracle", "verify_nontrivial", "oracle.scan_s"),
    Point("mixcomp.oracle", "outcome_probability", "oracle.scan_s"),
)


@dataclass
class Span:
    name: str
    bucket: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    value: float | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def bucket_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per bucket; folded spans count toward their parent's bucket."""
    folds = {p.name: p.fold_under for p in POINTS}
    buckets = [s.bucket for s in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0 and spans[s.parent].name in folds.get(s.name, ()):
            buckets[i] = buckets[s.parent]
    totals: dict[str, float] = {}
    for b, t in zip(buckets, self_times(spans)):
        totals[b] = totals.get(b, 0.0) + t
    return totals


class Tracer:
    """Collects spans while installed; ``take()`` hands them over and resets."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    @contextlib.contextmanager
    def span(self, name: str, bucket: str):
        """A span around code of the caller's own, such as one whole job."""
        rec = self._open(name, bucket)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str, bucket: str) -> Span:
        rec = Span(name, bucket, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter()
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, point: Point) -> Callable:
        name, bucket, probe = point.name, point.bucket, point.probe

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, bucket(args, kwargs) if callable(bucket) else bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if probe is not None:
                rec.value = probe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point wherever the package binds it; undo on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mixcomp" or key.startswith("mixcomp."))]
        undo: list[tuple[Any, str, Any]] = []
        try:
            for point in POINTS:
                owner_name, _, attr = point.qualname.rpartition(".")
                home = sys.modules[point.module]
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, point))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(original, point)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)
