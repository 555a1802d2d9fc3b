"""mixcomp benchmark: one workload in one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
``src/``. The process pins BLAS/OpenMP to one thread, writes the workload's
seeded set files under ``.perfbench_work/``, then repeats whole passes over
the job list until the pass boundary nearest ``--seconds`` of timed CLI calls
(``run_seconds`` of BENCHMARK.json by default). Each job is one call of
``mixcomp.cli.main`` with ``--out`` going to a file, and each job's output
is checked (``checks.py``; against ``reference/`` for the default seed)
outside the timed calls. ``setup_s`` is measured by launching fresh
interpreters spread evenly through the run, between jobs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` every job runs twice, untraced and traced, and the last line
reports the per-module metrics (means per traced job) and the tracing
overhead. The line before it holds the environment and the details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import spans as sp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_LAUNCHES = 15

TIME_METRICS = (
    "oracle.scan_s", "linalg.kron_s", "comparison.maximal_m1_s", "comparison.maximal_m2_s",
    "linalg.eigh_s", "comparison.self_check_s", "comparison.rank_s", "comparison.povm_s",
    "comparison.explicit_s", "io.write_operator_s", "io.read_operator_s",
    "subspace.support_s", "states.validate_s", "comparison.conditions_s",
    "io.read_set_s", "io.write_report_s", "cli.self_s",
)
COUNT_METRICS = {
    "oracle.scans": ("oracle.verify_unambiguous", "oracle.verify_nontrivial"),
    "oracle.tuples": ("oracle.outcome_probability",),
    "linalg.kron_calls": ("linalg.kron_all",),
    "linalg.eigh_calls": ("linalg.hermitian_eigen",),
    "subspace.support_calls": ("subspace.support_of",),
}


def pin_environment() -> None:
    """Fix BLAS threads and drop the tolerance override before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("MIXCOMP_TOL", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def import_program():
    """Import mixcomp from this checkout's src/, or exit nonzero without a result."""
    try:
        import mixcomp.cli
    except ImportError as exc:
        sys.exit(f"run.py: cannot import mixcomp from {SRC}: {exc}")
    if SRC not in Path(mixcomp.__file__).resolve().parents:
        sys.exit(f"run.py: mixcomp was imported from {mixcomp.__file__}, not from {SRC}")
    return mixcomp.cli


def launch() -> float:
    """Wall time of one fresh interpreter importing mixcomp.cli."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import mixcomp.cli"], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


class Checker:
    """Checks each job's output; remembers verdicts that later jobs must match."""

    def __init__(self, reference: list | None):
        self.reference = reference
        self.m1_exists: dict[str, bool] = {}
        self.construct_nontrivial: dict[str, bool] = {}

    def __call__(self, job, code: int, stdout: str) -> list[str]:
        if code != 0:
            tail = stdout.strip().splitlines()[-1:] or [""]
            return [f"exit code {code}: {tail[0]}"]
        if job.kind == "construct":
            got = checks.parse_construct(stdout)
            problems = checks.problems_construct(
                got, "M1_maximal", self.m1_exists.get(job.set_name))
            if not os.path.isfile(job.out):
                problems.append(f"construct wrote no operator file {job.out}")
            if got is not None:
                self.construct_nontrivial[job.set_name] = got["nontrivial"]
        else:
            try:
                with open(job.out, encoding="utf-8") as fh:
                    got = json.load(fh)
            except (OSError, ValueError) as exc:
                return [f"cannot read {job.out}: {exc}"]
            if job.kind == "analyze":
                problems = checks.problems_analyze(got, job.d, job.k, job.n)
                if not problems:
                    self.m1_exists[job.set_name] = got["existence"]["m1"]
            else:
                problems = checks.problems_verify(
                    got, job.k, job.n, self.construct_nontrivial.get(job.set_name))
        if problems or self.reference is None:
            return problems
        if job.index >= len(self.reference):
            return [f"no reference for job {job.index}"]
        return checks.compare_reference(got, self.reference[job.index], job.k,
                                        f"job {job.index}")


def execute(cli, job, tracer=None) -> tuple[float, int, str]:
    """One in-process CLI call: (wall seconds, exit code, captured output)."""
    buf = io.StringIO()
    span = tracer.span("bench.job", "bench.self_s") if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a job that crashes counts as failed, the run goes on
        buf.write(f"\n{type(exc).__name__}: {exc}")
        code = -1
    return perf_counter() - t0, code, buf.getvalue()


def load_reference(workload: str) -> list:
    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


class LayerTotals:
    """Sums per-job span data into the per-module metrics."""

    def __init__(self):
        self.jobs = 0
        self.spans = 0
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.peak: dict[str, float] = {}

    def add(self, spans) -> None:
        self.jobs += 1
        self.spans += len(spans)
        for bucket, t in sp.bucket_self_times(spans).items():
            self.seconds[bucket] = self.seconds.get(bucket, 0.0) + t
        for s in spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            if s.value is not None:
                self.peak[s.name] = max(self.peak.get(s.name, 0.0), s.value)

    def metrics(self) -> dict:
        per_job = max(self.jobs, 1)
        out = {name: (self.seconds.get(name, 0.0) / per_job, "s/job") for name in TIME_METRICS}
        for name, sources in COUNT_METRICS.items():
            out[name] = (sum(self.calls.get(s, 0) for s in sources) / per_job, "calls/job")
        dim = self.peak.get("linalg.hermitian_eigen", 0.0)
        out["linalg.dense_dim"] = (dim, "dim")
        out["linalg.peak_matrix_mb"] = (16.0 * dim * dim / 1e6, "MB")
        out["io.operator_mb"] = (self.peak.get("io.write_operator", 0.0) / 1e6, "MB")
        return out

    def detail(self) -> dict:
        per_job = max(self.jobs, 1)
        return {
            "traced_jobs": self.jobs,
            "self_s_per_job": {k: v / per_job for k, v in sorted(self.seconds.items())},
            "calls_per_job": {k: v / per_job for k, v in sorted(self.calls.items())},
        }


def run(cli, workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = workloads.build(workload, seed, str(workdir))
        checker = Checker(load_reference(workload) if seed == workloads.DEFAULT_SEED else None)
        launch()  # warm-up, not counted
        setup: list[float] = []
        tracer = sp.Tracer()
        layers = LayerTotals()
        plain: list[float] = []
        traced: list[float] = []
        attempted = failed = passes = 0
        elapsed = 0.0  # timed CLI calls only: no checks, launches or set-up
        problems: list[str] = []

        def attempt(job, with_trace: bool) -> None:
            nonlocal attempted, failed, elapsed
            if with_trace:
                with tracer.installed():
                    dt, code, out = execute(cli, job, tracer)
                layers.add(tracer.take())
                traced.append(dt)
            else:
                dt, code, out = execute(cli, job)
                plain.append(dt)
            elapsed += dt
            found = checker(job, code, out)
            attempted += 1
            if found:
                failed += 1
                problems.extend(found)

        while True:
            for job in jobs:
                # the i-th launch is due once i/SETUP_LAUNCHES of the time has run
                while (len(setup) < SETUP_LAUNCHES
                       and elapsed >= len(setup) * seconds / SETUP_LAUNCHES):
                    setup.append(launch())
                # alternate which of the pair runs first so neither gets warmer caches
                order = (False, True) if (job.index + passes) % 2 == 0 else (True, False)
                for with_trace in order if trace else (False,):
                    attempt(job, with_trace)
            passes += 1
            if elapsed + 0.5 * elapsed / passes >= seconds:
                break
        while len(setup) < SETUP_LAUNCHES:
            setup.append(launch())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if trace:
        found = layers.metrics()
        found["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        found["trace.spans"] = (layers.spans / max(layers.jobs, 1), "spans/job")
    else:
        found = {
            "jobs_per_s": ((attempted - failed) / elapsed, "1/s"),
            "job_p50_s": (statistics.median(plain), "s"),
            "job_p90_s": (statistics.quantiles(plain, n=10, method="inclusive")[8], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    detail = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "jobs_per_pass": len(jobs),
        "passes": passes,
        "elapsed_s": elapsed,
        "jobs_attempted": attempted,
        "jobs_failed": failed,
        "job_samples": len(plain),
        "setup_samples": len(setup),
        "problems": problems[:20],
    }
    if trace:
        detail.update(layers.detail())
        detail["traced_job_p50_s"] = statistics.median(traced)
        detail["untraced_job_p50_s"] = statistics.median(plain)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in found.items()},
    }))
    return 0


def main(argv=None) -> int:
    pin_environment()
    cli = import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="input seed (default: the seed the reference reports use)")
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="timed CLI seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(cli, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
