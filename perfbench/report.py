"""Run every workload untraced and traced and print all metrics by name.

    python3 perfbench/report.py

For each workload of BENCHMARK.json this starts ``run.py`` twice on the
default seed, each for ``run_seconds``: once with
``--trace 0`` for the end-to-end metrics, once with ``--trace 1`` for the
per-module split and the tracing overhead (traced minus untraced
``job_p50_s`` of the same jobs). Exits 1 when any run fails a check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        detail, e2e = run_once(workload, 0)
        tdetail, layers = run_once(workload, 1)
        ok = ok and e2e["correct"] and layers["correct"]
        env = detail["environment"]
        print(f"== {workload}  seed {env['seed']}  python {env['python']}  "
              f"numpy {env['numpy']}  nproc {env['nproc']}  "
              f"blas threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}  "
              f"{detail['passes']} passes of {detail['jobs_per_pass']} jobs")
        rows = [(m["name"], e2e["metrics"][m["name"]]) for m in spec["end_to_end"]]
        rows += [("jobs_attempted", {"value": e2e["attempted"], "unit": "count"}),
                 ("jobs_failed", {"value": e2e["failed"], "unit": "count"})]
        print("  end to end (untraced)")
        for name, m in rows:
            print(f"    {name:<28}{m['value']:>14.6g}  {m['unit']}")
        print(f"  per module (traced, {tdetail['traced_jobs']} jobs, "
              f"{layers['failed']} of {layers['attempted']} runs failed)")
        for m in spec["per_layer"]:
            got = layers["metrics"][m["name"]]
            print(f"    {m['name']:<28}{got['value']:>14.6g}  {got['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
