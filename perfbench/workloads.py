"""Seeded candidate-set files and the job list of each workload.

A workload is a fixed list of jobs (one pass). Every job is one call of
``mixcomp.cli.main`` on a set file written here; the benchmark repeats the
pass in a closed loop. Gaussian sets are written by ``mixcomp gen`` itself
(``SeedSequence`` child seeds fed to ``random_density``); the diagonal and
maximally-mixed-injected recipes follow the test corpus but live here, so
the benchmark does not depend on the test suite.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from mixcomp import candidate_set, cli, maximally_mixed, random_density, validate_density
from mixcomp import io as mio

DEFAULT_SEED = 1003

WORKLOADS = ("corpus_small", "oracle_tuples", "maximal_span", "dense_operator")


@dataclass(frozen=True)
class SetSpec:
    """One candidate set: recipe, shape and the seed it is drawn from.

    ``ranks`` is None for recipes that draw their own ranks from the seed.
    """

    name: str
    recipe: str  # "gauss", "diag" or "mixed"
    d: int
    k: int
    seed: int
    ranks: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Job:
    """One CLI call. ``kind`` selects the correctness check."""

    index: int
    kind: str  # "analyze", "construct" or "verify"
    set_name: str
    d: int
    k: int
    n: int
    argv: tuple[str, ...] = field(repr=False)
    out: str = field(repr=False)


def _set_seeds(seed: int, workload: str, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    return [int(s) for s in ss.generate_state(count)]


def set_specs(workload: str, seed: int) -> list[tuple[SetSpec, int]]:
    """The workload's sets, each with the tuple size n it is run at."""
    if workload == "corpus_small":
        cells = [
            (recipe, d, k, n)
            for _rep in range(4)
            for recipe in ("gauss", "diag", "mixed")
            for d in (2, 3, 4)
            for k in (2, 3, 4)
            for n in (2, 3)
        ]
        seeds = _set_seeds(seed, workload, len(cells))
        return [
            (SetSpec(f"c{i:03d}-{recipe}-d{d}-k{k}", recipe, d, k, s), n)
            for i, ((recipe, d, k, n), s) in enumerate(zip(cells, seeds))
        ]
    shapes = {
        # k**n far above D = d**n: the per-tuple oracle scan dominates
        "oracle_tuples": [(2, (1, 1, 1), 7), (3, (1, 1, 1, 1), 5), (3, (1, 1, 1), 5)],
        # rank-(d-1) supports with few tuples: the maximal-M1 span loop dominates
        "maximal_span": [(4, (3, 3, 3), 4)] * 3 + [(3, (2, 2, 2), 5)],
        # D of 576 and 512 with few tuples: dense eigensolves and operator files
        "dense_operator": [(24, (1, 2), 2), (8, (2, 2, 3), 3)],
    }[workload]
    seeds = _set_seeds(seed, workload, len(shapes))
    return [
        (SetSpec(f"s{i}-d{d}-k{len(ranks)}", "gauss", d, len(ranks), s, ranks), n)
        for i, ((d, ranks, n), s) in enumerate(zip(shapes, seeds))
    ]


def _drawn_ranks(rng: np.random.Generator, d: int, k: int) -> list[int]:
    return [int(r) for r in rng.integers(1, d + 1, size=k)]


def _diagonal_states(rng: np.random.Generator, d: int, k: int) -> list:
    """Basis-aligned supports: exact containments, equalities and ties."""
    states: list = []
    while len(states) < k:
        size = int(rng.integers(1, d + 1))
        where = rng.choice(d, size=size, replace=False)
        vals = rng.uniform(0.2, 1.0, size=size)
        diag = np.zeros(d)
        diag[where] = vals / vals.sum()
        m = np.diag(diag).astype(np.complex128)
        # size-1 supports repeat exactly; redraw collisions
        if any(np.max(np.abs(m - prev.matrix)) <= 1e-9 for prev in states):
            continue
        states.append(validate_density(m))
    return states


def write_set(spec: SetSpec, path: str) -> None:
    """Write the set file for ``spec``; the same spec gives the same bytes."""
    rng = np.random.default_rng(spec.seed)
    if spec.recipe == "gauss":
        ranks = spec.ranks or _drawn_ranks(rng, spec.d, spec.k)
        argv = ["gen", "--d", str(spec.d), "--k", str(spec.k),
                "--ranks", ",".join(map(str, ranks)), "--seed", str(spec.seed), "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mixcomp gen failed with exit code {code} for {spec}")
        return
    if spec.recipe == "diag":
        states = _diagonal_states(rng, spec.d, spec.k)
    elif spec.recipe == "mixed":
        ranks = _drawn_ranks(rng, spec.d, spec.k)
        child = np.random.SeedSequence(spec.seed).generate_state(spec.k)
        states = [random_density(spec.d, r, int(c)) for r, c in zip(ranks, child)]
        states[int(rng.integers(0, spec.k))] = maximally_mixed(spec.d)
    else:
        raise ValueError(f"unknown recipe {spec.recipe!r}")
    mio.write_candidate_set(candidate_set(states), path)


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's set files into ``workdir`` and return one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    jobs: list[Job] = []

    def add(kind: str, spec: SetSpec, n: int, argv: list[str], out: str) -> None:
        jobs.append(Job(len(jobs), kind, spec.name, spec.d, spec.k, n, tuple(argv), out))

    for spec, n in set_specs(workload, seed):
        set_path = os.path.join(workdir, f"{spec.name}.json")
        write_set(spec, set_path)
        base = os.path.join(workdir, spec.name)
        report = f"{base}-analyze.json"
        add("analyze", spec, n, ["analyze", set_path, "--n", str(n), "--out", report], report)
        # the operator-file round trip: construct to a file, verify that file
        if workload == "dense_operator":
            op = f"{base}-m1.json"
            add("construct", spec, n,
                ["construct", set_path, "--operator", "m1", "--method", "maximal",
                 "--n", str(n), "--out", op], op)
            verified = f"{base}-verify.json"
            add("verify", spec, n, ["verify", op, set_path, "--out", verified], verified)
    return jobs
