"""Benchmark launcher: one workload run in a fresh worker process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  ``--workload all`` runs every workload in
turn, each in its own worker, and ends with one JSON line whose metric names
are prefixed by the workload.  The launcher fixes the BLAS thread count in
the worker's environment (numpy reads it once, at import), starts
``bench/worker.py`` on the sources under ``src/``, waits for it with a
timeout and exits with its status.  The worker's last line of output is the
JSON result.  ``--trace 0`` times the run and reports the end-to-end metrics;
``--trace 1`` records spans and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve_cold", "deform_at_map", "fd_oracle", "nonreductive_plateau")
#: BLAS threads for every run: one, so that runs do not contend for the cores
BLAS_THREADS = 1
TIMEOUT_S = 170


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "equivarlab" / "__init__.py").is_file():
        print(f"error: no equivarlab sources under {src}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                        os.environ.get("PYTHONPATH")])))
    if args.workload != "all":
        return run_worker(args, args.workload, env, threads)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        code = run_worker(args, name, env, threads, capture=True)
        if isinstance(code, int):
            return code
        total["correct"] = total["correct"] and code["correct"]
        total["attempted"] += code["attempted"]
        total["failed"] += code["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in code["metrics"].items()})
    print(json.dumps(total))
    return 0


def run_worker(args, workload, env, threads, capture=False):
    """Run one workload; returns the exit code, or with ``capture`` the
    parsed result after relaying the report."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--blas-threads", threads, "--t-spawn", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} run exceeded {TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 3
    if not capture or proc.returncode != 0:
        return proc.returncode
    *report, last = proc.stdout.strip().splitlines()
    print("\n".join(report), flush=True)
    return json.loads(last)


if __name__ == "__main__":
    sys.exit(main())
