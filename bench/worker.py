"""One benchmark run in a fresh process: set-up, timed passes, oracle gate.

Started by ``bench/run.py``, which fixes the BLAS thread count in the
environment before this process imports numpy.  Prints one line per metric
(name, value, unit), one line per failed check, the provenance block, and as
its last line the JSON result object.  The full record (per-operation
checks, iteration counts, pass times and, for a traced run, every span) is
written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import equivarlab  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from oracle import KNOWN_DEFECTS, Gate  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: set-up repetitions per untraced run; set-up time is their median
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "pass_frac": "ratio",
                    "peak_rss_mb": "MB"}

#: operations that run harmonic-map flows, one iteration count each
FLOW_OPS = ("setup", "solve.g2k2_random",
            "solve.torus8_const", "solve.torus6_random",
            "cli.variation.g2_bend_real", "cli.variation.torus6_commuting",
            "cli.psh.g2_bend_imag", "cli.deform2.obstructed",
            "cli.flow.circle4_parabolic")


def _unit(name):
    if name.endswith("_s") or name == "harmonicflow.s_per_iter":
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")) or name == "twistedhodge.solves_per_factorization":
        return "ratio"
    return "count"


PER_LAYER = (
    ["meshcover.build_s", "meshcover.cells",
     "harmonicflow.self_s", "harmonicflow.flows", "harmonicflow.iters",
     "harmonicflow.evals", "harmonicflow.accept_ratio", "harmonicflow.s_per_iter",
     "harmonicflow.kernel_builds"]
    + [f"harmonicflow.iters.{op}" for op in FLOW_OPS]
    + ["twistedhodge.self_s", "twistedhodge.assemblies", "twistedhodge.assemble_s",
       "twistedhodge.factorizations", "twistedhodge.factor_s",
       "twistedhodge.solves", "twistedhodge.solve_s",
       "twistedhodge.solves_per_factorization", "twistedhodge.lsmr_iters",
       "twistedhodge.hodge_s", "twistedhodge.spectrum_s", "twistedhodge.wedge_s",
       "twistedhodge.dofs",
       "repvar.self_s", "repvar.word_evals", "repvar.jet_builds", "repvar.path_evals",
       "liealg.self_s", "liealg.calls", "symspace.self_s", "symspace.calls",
       "deform.self_s", "deform.psi_solves", "deform.second_order_s",
       "energyvar.self_s", "energyvar.fd_s", "energyvar.fd_flows", "energyvar.fd_iters",
       "cli.self_s", "cli.tasks", "cli.report_bytes",
       "bench.ops", "bench.trace_overhead_frac"])
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


# ----------------------------------------------------------------------
# provenance

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_info(pkg):
    try:
        return pkg.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except Exception:  # show_config layout differs between releases
        return None


def _blas_threads_runtime():
    """Thread count reported by the loaded OpenBLAS, if it can be queried."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args):
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_openblas": _blas_info(np), "scipy_openblas": _blas_info(scipy),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "blas_threads": args.blas_threads,
        "blas_threads_runtime": _blas_threads_runtime(),
        "seed": args.seed, "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds,
    }


# ----------------------------------------------------------------------

def warm_up():
    """Pay the one-time cost of the first dense LAPACK calls before timing."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((300, 300))
    np.linalg.eigvalsh(A + A.T)
    np.linalg.eigh(rng.standard_normal((4, 2, 2)) + 0j)


def run_pass(gate, ops, rec=None, speed=None):
    t0 = time.perf_counter()
    for op in ops:
        if speed is not None:
            speed.maybe_sample(gate.attempted)
        sid = rec.begin_op(op.name) if rec is not None else None
        gate.run(op)
        if rec is not None:
            rec.end_op(sid)
    return time.perf_counter() - t0


def pass_count(seconds, pass_s):
    """Passes in a run of ``seconds`` on the reference machine.  The count
    depends on the request only, not on the speed of the host, so every run
    of a workload attempts the same operations."""
    return max(1, round(seconds / pass_s))


def typical_pass_s(results, scale=lambda i: 1.0):
    """Sum over the operations of a pass of each one's median time: the time
    of one pass, with slow spells of the host in a minority of passes
    left out.  ``results`` are ``(index, OpResult)`` pairs; ``scale(index)``
    rescales an operation's time to the reference speed of the host."""
    by_op = {}
    for i, r in results:
        by_op.setdefault(r.name, []).append(r.seconds * scale(i))
    return sum(statistics.median(times) for times in by_op.values())


def per_layer_metrics(rec, n_ops, wall_untraced, wall_traced):
    by_name, layer_self = rec.summary()
    counts = rec.counts

    def incl(*names):
        return sum(by_name.get(n, (0.0, 0.0, 0))[0] for n in names)

    def calls(*names):
        return sum(by_name.get(n, (0.0, 0.0, 0))[2] for n in names)

    def layer_calls(layer):
        return sum(c for n, (_, _, c) in by_name.items() if n.split(".")[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    arrays = rec.arrays()
    op_is_spectrum = np.array([n.endswith(".spectrum") for n in rec.op_names] + [False])
    root = arrays["parent"] < 0
    spectrum_s = float(np.sum((arrays["end"] - arrays["start"])[
        root & op_is_spectrum[arrays["op"]]]))

    iters = counts.get("harmonicflow.iters", 0)
    evals = calls("harmonicflow.FlowKernel.energy_and_tension")
    factorizations = calls("twistedhodge.splu")
    solves = calls("twistedhodge.lu_solve")
    m = {
        "meshcover.build_s": incl("meshcover.build_circle", "meshcover.build_torus",
                                  "meshcover.build_genus2"),
        "meshcover.cells": counts.get("meshcover.cells", 0),
        "harmonicflow.self_s": layer_self.get("harmonicflow", 0.0),
        "harmonicflow.flows": calls("harmonicflow.flow"),
        "harmonicflow.iters": iters,
        "harmonicflow.evals": evals,
        "harmonicflow.accept_ratio": ratio(iters, evals),
        "harmonicflow.s_per_iter": ratio(incl("harmonicflow.flow"), iters),
        "harmonicflow.kernel_builds": calls("harmonicflow.FlowKernel.__init__"),
    }
    for op in FLOW_OPS:
        m[f"harmonicflow.iters.{op}"] = counts.get(f"harmonicflow.iters.{op}", 0)
    m.update({
        "twistedhodge.self_s": layer_self.get("twistedhodge", 0.0),
        "twistedhodge.assemblies": calls("twistedhodge.TwistedComplex.__init__"),
        "twistedhodge.assemble_s": incl("twistedhodge.TwistedComplex.__init__"),
        "twistedhodge.factorizations": factorizations,
        "twistedhodge.factor_s": incl("twistedhodge.splu"),
        "twistedhodge.solves": solves,
        "twistedhodge.solve_s": incl("twistedhodge.lu_solve"),
        "twistedhodge.solves_per_factorization": ratio(solves, factorizations),
        "twistedhodge.lsmr_iters": counts.get("twistedhodge.lsmr_iters", 0),
        "twistedhodge.hodge_s": incl("twistedhodge.TwistedComplex.hodge_decompose"),
        "twistedhodge.spectrum_s": spectrum_s,
        "twistedhodge.wedge_s": incl("twistedhodge.TwistedComplex.bracket_wedge"),
        "twistedhodge.dofs": counts.get("twistedhodge.dofs", 0),
        "repvar.self_s": layer_self.get("repvar", 0.0),
        "repvar.word_evals": calls("repvar.Representation.eval_word",
                                   "repvar.Cocycle.eval_word",
                                   "repvar.Jet2Cocycle.eval_word"),
        "repvar.jet_builds": calls("repvar.Jet2Cocycle.__post_init__"),
        "repvar.path_evals": calls("repvar.RepPath.at"),
        "liealg.self_s": layer_self.get("liealg", 0.0),
        "liealg.calls": layer_calls("liealg"),
        "symspace.self_s": layer_self.get("symspace", 0.0),
        "symspace.calls": layer_calls("symspace"),
        "deform.self_s": layer_self.get("deform", 0.0),
        "deform.psi_solves": calls("deform.solve_psi"),
        "deform.second_order_s": incl("deform.second_order"),
        "energyvar.self_s": layer_self.get("energyvar", 0.0),
        "energyvar.fd_s": incl("energyvar.fd_energy_derivatives"),
        "energyvar.fd_flows": counts.get("energyvar.fd_flows", 0),
        "energyvar.fd_iters": counts.get("energyvar.fd_iters", 0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.tasks": calls("cli.main"),
        "cli.report_bytes": counts.get("cli.report_bytes", 0),
        "bench.ops": n_ops,
        "bench.trace_overhead_frac": wall_traced / wall_untraced - 1.0,
    })
    return m


def _digest(items):
    return hashlib.sha256("\n".join(map(str, items)).encode()).hexdigest()[:12]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="wall-clock time at which the launcher started this process")
    p.add_argument("--blas-threads", type=int, required=True)
    args = p.parse_args(argv)

    if Path(equivarlab.__file__).resolve().parent != ROOT / "src" / "equivarlab":
        print(f"error: equivarlab imported from {equivarlab.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    warm_up()
    ready_s = time.time() - args.t_spawn
    speed = HostSpeed()
    speed.sample(0, units=3)
    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    gate = Gate()
    rec = SpanRecorder() if args.trace else None
    builds = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if rec is not None:
            rec.install()
            sid = rec.begin_op("setup")
        t0 = time.perf_counter()
        state, setup_checks = wl.build(args.seed, out_dir / "work")
        builds.append(time.perf_counter() - t0)
        if rec is not None:
            rec.end_op(sid)
            rec.uninstall()
        speed.sample(0, units=3)
    for name, outputs, checks in setup_checks:
        gate.record(name, outputs, checks)
    n_setup = gate.attempted
    ops = wl.ops(state, 0)
    gc.collect()

    pass_times = []
    if rec is None:
        for i in range(pass_count(args.seconds, wl.pass_s)):
            pass_times.append(run_pass(gate, wl.ops(state, i), speed=speed))
        speed.sample(gate.attempted)
    else:
        # the same pass twice, untraced and traced, for the trace overhead
        pass_times.append(run_pass(gate, ops))
        gc.collect()
        rec.install()
        try:
            pass_times.append(run_pass(gate, wl.ops(state, 0), rec))
        finally:
            rec.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = gate.failures()
    unexpected = gate.unexpected_failures()
    fail_frac = gate.failed / gate.attempted
    prov = provenance(args)

    setup_raw_s = ready_s + statistics.median(builds)
    # a set-up build is bracketed by the samples before and after it; the
    # start-up before the first sample is scaled by the whole run's speed
    setup_ref_s = ready_s * speed.run_scale() + statistics.median(
        b * speed.bracket_scale(j) for j, b in enumerate(builds))
    timed = list(enumerate(gate.results))[n_setup:]
    wall_s = typical_pass_s(timed)
    if rec is None:
        metrics = {"wall_ref_s": typical_pass_s(timed, speed.scale),
                   "setup_s": setup_ref_s,
                   "pass_frac": 1.0 - fail_frac,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    else:
        metrics = per_layer_metrics(rec, len(setup_checks) + len(ops),
                                    pass_times[0], pass_times[1])
        units = PER_LAYER_UNITS
        rec.save(out_dir / "spans.npz")

    # -- human-readable report ------------------------------------------------
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(pass_times)}  set-up builds {len(builds)}")
    print(f"why: {wl.why}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if rec is None:
        print(f"wall_s {wall_s:.6g} s  setup_raw_s {setup_raw_s:.6g} s  (as timed, "
              f"before scaling to the reference speed; reference unit "
              f"{1.0 / speed.run_scale():.3g} x its nominal time, median of "
              f"{len(speed.samples)} samples)")
    print(f"fail_frac {fail_frac:.6g} ratio  (bench.ops {gate.attempted} attempted, "
          f"{gate.failed} failed)")
    print(f"problem_list {_digest(op.name for op in ops)}  "
          f"failing_set {_digest(sorted(failures))}")
    for op_name, check in failures:
        res = next(r for r in gate.results if r.name == op_name)
        c = next((c for c in res.checks if c.name == check), None)
        detail = f"value {c.value!r} bound {c.bound}" if c else res.error.strip().splitlines()[-1]
        tag = "known defect" if (op_name, check) in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"FAIL {op_name} :: {check}  {detail}  [{tag}]")
    seen = set()
    for r in gate.results:
        iters = r.outputs.get("iterations")
        if iters is None or r.name in seen:
            continue
        seen.add(r.name)
        anchor = workloads.ITERATION_ANCHORS.get(r.name)
        note = "" if anchor is None else (
            f"  anchor {anchor} {'match' if iters == anchor else 'MISMATCH'}")
        print(f"iterations {r.name} {iters}{note}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {
        "provenance": prov, "metrics": metrics, "units": units,
        "pass_times_s": pass_times, "setup_builds_s": builds, "ready_s": ready_s,
        "wall_s": wall_s, "setup_raw_s": setup_raw_s,
        "host_unit_s": speed.samples,
        "fail_frac": fail_frac, "attempted": gate.attempted, "failed": gate.failed,
        "failures": failures, "unexpected_failures": unexpected,
        "ops": [{"name": r.name, "seconds": r.seconds, "error": r.error,
                 "iterations": r.outputs.get("iterations"),
                 "checks": [list(c) for c in r.checks]} for r in gate.results],
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1, default=str))

    result = {"correct": not unexpected, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
