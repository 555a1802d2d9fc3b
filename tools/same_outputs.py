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

Every difference in exit code, stdout, stderr or file bytes is printed. For
an analyze or verify report (``*-analyze.json``, ``*-verify.json``) that
differs, the JSON paths whose values differ are printed instead of the two
hashes, with both reprs and the largest difference between numbers. For a
job whose stdout or stderr differs, only the differing lines are printed,
the parent's marked ``-`` and the child's ``+``. The exit code is 1 when
there is any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
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
            if path.name.endswith(("-analyze.json", "-verify.json")):
                found[f"file {path}"]["json"] = json.loads(path.read_text())
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


class _Missing:
    def __repr__(self):
        return "<missing>"


def json_paths(a, b, path="$"):
    """(path, parent value, child value) for each JSON value that differs, in document order.

    Leaves compare by repr, so 0.0 and -0.0 differ as their bytes do.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from json_paths(a.get(key, _Missing()), b.get(key, _Missing()), f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_paths(x, y, f"{path}[{i}]")
    elif repr(a) != repr(b):
        yield path, a, b


def _report_lines(key: str, changed: list) -> str:
    deltas = [abs(x - y) for _, x, y in changed
              if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))]
    head = f"{key}: {len(changed)} JSON values differ"
    if deltas:
        head += f", largest difference between numbers {max(deltas):.3g}"
    return "\n".join([head] + [f"  {path}: parent {x!r}, child {y!r}" for path, x, y in changed])


def _stream_lines(key: str, field: str, a: str, b: str) -> str:
    """The lines of two differing output streams that differ, parent ``-`` and child ``+``."""
    diff = [line for line in difflib.unified_diff(a.splitlines(), b.splitlines(), n=0, lineterm="")
            if not line.startswith(("---", "+++", "@@"))]
    if not diff:  # only line endings differ
        diff = [f"-{a!r}", f"+{b!r}"]
    return "\n".join([f"{key}: {field} differs"] + [f"  {line}" for line in diff])


def differences(parent: dict, child: dict) -> list[str]:
    lines = []
    for key in sorted(parent.keys() | child.keys(), key=lambda k: (k.startswith("file"), k)):
        a, b = parent.get(key), child.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'child' if a is None else 'parent'}")
            continue
        ja, jb = a.pop("json", None), b.pop("json", None)
        changed = [] if ja is None or jb is None else list(json_paths(ja, jb))
        if changed:
            lines.append(_report_lines(key, changed))
            continue
        for field in sorted(a.keys() | b.keys()):
            x, y = a.get(field), b.get(field)
            if x == y:
                continue
            if field in ("stdout", "stderr"):
                lines.append(_stream_lines(key, field, x, y))
            else:
                lines.append(f"{key}: {field} differs\n  parent: {x!r}\n  child:  {y!r}")
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
