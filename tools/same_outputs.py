"""Check that two source trees give byte-identical outputs on the benchmark's jobs.

    python3 tools/same_outputs.py PARENT CHILD [--seeds 7 104 1003] [--tols 1e-6 1e-3 3e-2]

PARENT and CHILD are roots of mixcomp checkouts (each with ``src/`` and
``perfbench/``). Each tree runs in its own subprocess, with its own ``src/``
and ``perfbench/`` first on the path, BLAS pinned to one thread and
``MIXCOMP_TOL`` unset. For every seed, the tree's ``perfbench.workloads``
writes the set files of each workload and lists its jobs, and every job runs
through ``mixcomp.cli.main``. The corpus_small analyze jobs of the first seed
run once more at each ``--tol``. Per job the exit code, stdout and stderr are
kept; afterwards every file the run wrote (set files, reports, operator
files) is hashed. An operator file is also read back with the tree's own
``mixcomp.io.read_operator`` and its matrix bytes hashed, so two trees that
encode one matrix differently still show that it decodes to the same bits.
All paths are relative to a fresh working directory, so
both trees see the same argv.

Every difference in exit code, stdout, stderr or file bytes is printed. The
exit code is 1 when there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _call(cli, argv: list[str]) -> dict:
    """One in-process CLI call: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is an output like any other: record it, go on
        code = "crash"
        err.write(traceback.format_exc(limit=1))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def collect(tree: Path, seeds: list[int], tols: list[str]) -> dict:
    """Run every job in the current directory; outputs keyed by job and file."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from mixcomp import cli
    from mixcomp import io as mio
    import workloads

    if tree / "src" not in Path(cli.__file__).resolve().parents:
        sys.exit(f"same_outputs: mixcomp was imported from {cli.__file__}, not {tree}")
    runs = [(f"{w}-s{s}", w, s, []) for s in seeds for w in workloads.WORKLOADS]
    runs += [(f"corpus_small-s{seeds[0]}-tol{t}", "corpus_small", seeds[0], ["--tol", t])
             for t in tols]
    found: dict[str, dict] = {}
    for name, workload, seed, extra in runs:
        os.mkdir(name)
        operators = set()
        for job in workloads.build(workload, seed, name):
            if extra and job.kind != "analyze":
                continue
            argv = list(job.argv) + extra
            found[f"{name} job {job.index}: mixcomp {' '.join(argv)}"] = _call(cli, argv)
            if job.kind == "construct":
                operators.add(Path(job.out))
        for path in sorted(Path(name).iterdir()):
            found[f"file {path}"] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                                     "bytes": path.stat().st_size}
            if path in operators:
                matrix = mio.read_operator(str(path)).matrix
                found[f"file {path}"]["matrix_sha256"] = hashlib.sha256(matrix.tobytes()).hexdigest()
    return found


def run_tree(tree: Path, args, workdir: str) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k not in ("MIXCOMP_TOL", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree),
           "--seeds", *map(str, args.seeds), "--tols", *args.tols]
    return subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE)


def differences(parent: dict, child: dict) -> list[str]:
    lines = []
    for key in sorted(parent.keys() | child.keys(), key=lambda k: (k.startswith("file"), k)):
        a, b = parent.get(key), child.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'child' if a is None else 'parent'}")
            continue
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                lines.append(f"{key}: {field} differs\n  parent: {a.get(field)!r}\n"
                             f"  child:  {b.get(field)!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE",
                        help="the PARENT and CHILD checkout roots")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 104, 1003])
    parser.add_argument("--tols", nargs="*", default=["1e-6", "1e-3", "3e-2"],
                        help="extra --tol values for the first seed's corpus")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        found = collect(args.collect.resolve(), args.seeds, args.tols)
        sys.stdout.write(json.dumps(found))
        return 0
    if len(args.trees) != 2:
        parser.error("give exactly two trees: PARENT CHILD")
    results = []
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        procs = [run_tree(tree.resolve(), args, d) for tree, d in zip(args.trees, (a, b))]
        for tree, proc in zip(args.trees, procs):
            out, _ = proc.communicate()
            if proc.returncode != 0:
                print(f"{tree}: collecting failed with exit code {proc.returncode}")
                return 2
            results.append(json.loads(out))
    parent, child = results
    jobs = sum(not key.startswith("file") for key in parent)
    failing = [key for key, v in parent.items() if not key.startswith("file") and v["code"]]
    for key in failing:
        print(f"exit code {parent[key]['code']} at the parent: {key}")
    lines = differences(parent, child)
    for line in lines:
        print(line)
    print(f"{jobs} jobs ({len(failing)} with a nonzero exit code at the parent) and "
          f"{len(parent) - jobs} files compared: {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
