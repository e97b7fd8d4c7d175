"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once untraced and once traced, as short as a run can be
(``--seconds 1``: one pass), plus a second seed untraced and a second traced
run of the same seed.  It checks:

* the result line has exactly the keys correct/attempted/failed/metrics,
  and every metric named in
  BENCHMARK.json is printed, in the result and in the text report, with its
  unit;
* a second seed keeps the problem list and the set of failing checks;
* the ROADMAP iteration anchor for torus 16 from the constant start (716),
  which no workload runs because one solve takes about 5 s;
* count metrics repeat exactly for the same seed;
* the gate flags a deliberately corrupted result (a perturbed energy) and an
  operation that raises, and only recorded defects leave ``correct`` true;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  launcher exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_DIR = ROOT / ".bench_out" / "selftest"
#: counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ("harmonicflow.iters", "harmonicflow.evals", "harmonicflow.kernel_builds",
                "twistedhodge.factorizations", "twistedhodge.solves",
                "repvar.word_evals", "energyvar.fd_flows")

failures = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)
    print(f"  ran {workload} seed {seed} trace {trace}: exit {proc.returncode} "
          f"in {time.time() - t0:.1f} s", flush=True)
    return proc


def check_run(workload, seed, trace):
    """One run checked against BENCHMARK.json; returns its result and the
    problem-list/failing-set digest line."""
    proc = run(workload, seed, trace)
    tag = f"{workload} seed {seed} trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exit code 0")
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        return None, None
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys are exactly correct/attempted/failed/metrics")
    expect(result["correct"] is True, f"{tag}: correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int), f"{tag}: attempted/failed counts")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{tag}: metric names match BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        printed = any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                      for line in text)
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
               and printed, f"{tag}: {m['name']} printed with unit {m['unit']}")
    if not trace:
        expect(any(line.startswith("fail_frac ") and "bench.ops" in line for line in text),
               f"{tag}: fail_frac printed beside bench.ops")
        expect(any(line.startswith("wall_s ") for line in text),
               f"{tag}: wall_s, as timed, printed")
    return result, next(line for line in text if line.startswith("problem_list"))


def gate_checks():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import numpy as np
    from equivarlab import harmonicflow as hf
    import oracle
    import workloads as wl

    group = wl._sl2c()
    mesh, rep = wl._torus_rep(group, 4)
    f, rpt = hf.flow(rep, hf.constant_map(mesh, rep), tol=wl.FLOW_TOL)
    good = wl._flow_outputs(f, rpt)
    bad = dict(good, energy=good["energy"] * (1.0 + 1e-6))

    gate = oracle.Gate()
    gate.run(oracle.Op("solve.torus4_const", lambda: good,
                       lambda out: wl.check_solve(out, wl.TORUS_ENERGY)))
    expect(gate.failed == 0, "gate passes the true torus energy")
    gate.run(oracle.Op("solve.torus4_perturbed", lambda: bad,
                       lambda out: wl.check_solve(out, wl.TORUS_ENERGY)))
    expect(gate.failures() == [("solve.torus4_perturbed", "energy")],
           "gate flags a perturbed energy by operation and check name")
    expect(gate.unexpected_failures() == [("solve.torus4_perturbed", "energy")],
           "a perturbed energy makes the run incorrect")

    def boom():
        raise np.linalg.LinAlgError("singular")
    gate.run(oracle.Op("g2.spectrum", boom, wl.check_spectrum))
    expect(("g2.spectrum", "exception") in gate.unexpected_failures(),
           "an operation that raises counts as failed")
    expect((gate.attempted, gate.failed) == (3, 2), "attempted and failed tally")

    mesh, rep = wl._torus_rep(group, 16)
    f, rpt = hf.flow(rep, hf.constant_map(mesh, rep), tol=wl.FLOW_TOL,
                     max_iter=wl.MAX_ITER)
    expect(rpt.iterations == 716 and not [c for c in wl.check_solve(
        wl._flow_outputs(f, rpt), wl.TORUS_ENERGY) if not c.ok],
        f"torus 16 from the constant start: {rpt.iterations} iterations, "
        f"ROADMAP anchor 716")

    known = oracle.Gate()
    known.run(oracle.Op("g2.second_order.bend_real", lambda: {"residuals": {
        "d_psi_plus_wedge": 25.0, "dstar_psi_plus_contract": 1e-14}},
        lambda out: oracle.residuals_below("", out["residuals"], 1e-7)))
    expect(known.failed == 1 and not known.unexpected_failures(),
           "a recorded defect counts as failed but keeps the run correct")


def bare_directory_check():
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=200)
    printed_result = proc.stdout.strip().startswith("{")
    expect(proc.returncode != 0 and not printed_result,
           "without the program sources the benchmark exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    gate_checks()
    bare_directory_check()
    for w in (w["name"] for w in SPEC["workloads"]):
        _, first = check_run(w, 1, 0)
        _, second = check_run(w, 2, 0)
        if first and second:
            expect(first == second,
                   f"{w}: a second seed keeps the problem list and failing set")
        traced, _ = check_run(w, 1, 1)
        if traced:
            again, _ = check_run(w, 1, 1)
            if again:
                same = all(traced["metrics"][k] == again["metrics"][k] for k in EXACT_COUNTS)
                expect(same, f"{w}: count metrics repeat exactly for the same seed")
    print(f"{len(failures)} failed check(s)" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
