"""One-shot D = 4096 grid: wall time and peak RSS of whole CLI runs, one fresh process per row.

    python3 tools/grid.py TREE WORKDIR [--row ROW ...]

TREE is the root of a mixcomp checkout. Each row runs ``python -m
mixcomp.cli`` in a fresh process with TREE's ``src/`` as its path, BLAS
pinned to one thread and ``MIXCOMP_TOL`` unset, in WORKDIR. The two sets
come from ``mixcomp gen --d 4 --k 3 --seed 5`` at ranks 2,2,3 and 1,1,1,
written into WORKDIR by TREE when missing. Every row uses n = 6, so
D = 4096:

    analyze-223    analyze of the ranks-2,2,3 set
    analyze-111    analyze of the ranks-1,1,1 set
    construct-111  construct --operator m1 --method maximal of that set
    verify-111     verify of the operator file construct-111 wrote

Rows run one after another in the order given (default: all four). Each
prints one JSON line: the row, its exit code, its wall time from process
start to exit (interpreter start included), the child's own ``ru_maxrss``
in MB, and the size and sha256 of the file it wrote. Equal hashes across
two trees mean byte-identical outputs. A row takes up to about 45 s and
1.4 GB on a 2-core x86-64 host: run one tree at a time, in the background.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_outputs import THREAD_VARS  # noqa: E402

SETS = {"set-223.json": "2,2,3", "set-111.json": "1,1,1"}
ROWS = {
    "analyze-223": ["analyze", "set-223.json", "--n", "6", "--out", "analyze-223.json"],
    "analyze-111": ["analyze", "set-111.json", "--n", "6", "--out", "analyze-111.json"],
    "construct-111": ["construct", "set-111.json", "--operator", "m1", "--method", "maximal",
                      "--n", "6", "--out", "m1-111.json"],
    "verify-111": ["verify", "m1-111.json", "set-111.json", "--out", "verify-111.json"],
}


def run(tree: Path, argv: list[str], workdir: Path) -> dict:
    """One CLI call in a fresh process: exit code, wall time and the child's peak RSS."""
    env = {k: v for k, v in os.environ.items() if k != "MIXCOMP_TOL"}
    env.update({var: "1" for var in THREAD_VARS}, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mixcomp.cli", *argv],
                            cwd=workdir, env=env, stdout=sys.stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    return {"exit": os.waitstatus_to_exitcode(status),
            "wall_s": round(time.perf_counter() - start, 2),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="mixcomp checkout root")
    parser.add_argument("workdir", type=Path, help="directory for sets, reports and operators")
    parser.add_argument("--row", choices=list(ROWS), action="append",
                        help="row to run; repeat for several (default: all, in order)")
    args = parser.parse_args(argv)
    tree, workdir = args.tree.resolve(), args.workdir.resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    for name, ranks in SETS.items():
        if not (workdir / name).exists():
            gen = ["gen", "--d", "4", "--k", "3", "--ranks", ranks, "--seed", "5", "--out", name]
            if run(tree, gen, workdir)["exit"]:
                sys.exit(f"grid: generating {name} failed")
    for row in args.row or list(ROWS):
        out = workdir / ROWS[row][-1]
        out.unlink(missing_ok=True)
        result = {"row": row, "tree": str(tree), **run(tree, ROWS[row], workdir)}
        if out.exists():
            result.update(bytes=out.stat().st_size, sha256=hashlib.sha256(out.read_bytes()).hexdigest())
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
