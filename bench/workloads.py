"""The four benchmark workloads: set-up, timed operations and their oracles.

Each workload has a ``build(seed, out_dir)`` set-up step, which returns the
state the timed phase needs plus the set-up checks, and an
``ops(state, pass_index)`` list of operations run back to back as one pass
of the timed phase.  The seed picks the random starts and random cochains
and is passed to the CLI as ``--seed``; the problem list never depends on it.
A random start also depends on the pass index, so the passes of one run
average over several starts.

Every operation takes under 2 s, so that a run of about 20 s holds several
passes and its times can be summarised by medians.  ``pass_s`` is about
the time of one pass on the reference machine (2-vCPU Xeon, one BLAS
thread), rounded so that a run of 20 s holds an odd number of passes and
each median is one measured time.  The worker sizes a run from it, so that
the work done, and with it ``attempted`` and ``failed``, does not depend on
the speed of the host.
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import Callable, NamedTuple

import numpy as np

from equivarlab import cli
from equivarlab import deform as df
from equivarlab import energyvar as ev
from equivarlab import harmonicflow as hf
from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab.liealg import MatrixGroup
from equivarlab.twistedhodge import TwistedCochain, TwistedComplex

from oracle import (Op, above, below, equal, rel_close, residuals_below)

FLOW_TOL = 1e-10
MAX_ITER = 60000
#: harmonic-map energy of the Fuchsian octagon rep at genus-2 depth k = 3
G2K3_ENERGY = 0.7636063148361877
#: the same at depth k = 2, from the constant start (seeded random starts
#: agree with it to 3e-16)
G2K2_ENERGY = 0.8348055536033707
ALPHA, BETA = 0.4 + 0.3j, -0.2 + 0.5j
#: closed form 4 ((Re alpha)^2 + (Re beta)^2) of the torus_diag energy
TORUS_ENERGY = 4.0 * (ALPHA.real ** 2 + BETA.real ** 2)

#: iteration counts of the explicit flow recorded in ROADMAP; reported as
#: anchors next to the measured counts, not gated (a new solver moves them).
#: The torus 16 anchor is checked by ``selftest.py``.
ITERATION_ANCHORS = {"setup.g2k3_map": 497}

E_DIAG = np.diag([1.0, -1.0]).astype(complex)


class Workload(NamedTuple):
    name: str
    why: str
    build: Callable
    ops: Callable
    pass_s: float


def _sl2c():
    return MatrixGroup("sl", 2, "C")


def _rng(seed, key):
    return np.random.default_rng([seed, key])


def _flow_outputs(f, rpt):
    return {"converged": rpt.converged, "energy": rpt.energy,
            "iterations": rpt.iterations, "tension": hf.tension_norm(f)}


def check_solve(out, energy_ref):
    return [equal("converged", out["converged"], True),
            below("tension_norm", out["tension"], FLOW_TOL),
            rel_close("energy", out["energy"], energy_ref, 1e-8)]


def _torus_rep(group, n):
    mesh = mc.build_torus(n, n)
    return mesh, rv.torus_diag_rep(group, mesh, ALPHA, BETA)


def _g2_rep(group, k):
    mesh = mc.build_genus2(k)
    return mesh, rv.genus2_fuchsian_rep(group, mesh)


# ----------------------------------------------------------------------
# solve_cold: cold harmonic-map solves to FLOW_TOL

def build_solve_cold(seed, out_dir):
    group = _sl2c()
    problems = [
        ("solve.g2k2_random", *_g2_rep(group, 2), "random", G2K2_ENERGY),
        ("solve.torus8_const", *_torus_rep(group, 8), "constant", TORUS_ENERGY),
        ("solve.torus6_random", *_torus_rep(group, 6), "random", TORUS_ENERGY),
    ]
    return {"seed": seed, "problems": problems}, []


def ops_solve_cold(state, pass_index):
    ops = []
    for key, (name, mesh, rep, start, energy_ref) in enumerate(state["problems"]):
        def run(mesh=mesh, rep=rep, start=start, key=key):
            if start == "random":
                rng = np.random.default_rng([state["seed"], key, pass_index])
                f0 = hf.random_map(mesh, rep, rng, 0.4)
            else:
                f0 = hf.constant_map(mesh, rep)
            f, rpt = hf.flow(rep, f0, tol=FLOW_TOL, max_iter=MAX_ITER)
            return _flow_outputs(f, rpt)
        ops.append(Op(name, run, lambda out, ref=energy_ref: check_solve(out, ref)))
    return ops


# ----------------------------------------------------------------------
# deform_at_map: deformation theory at fixed harmonic maps

def _solved_map(mesh, rep):
    f, rpt = hf.flow(rep, hf.constant_map(mesh, rep), tol=FLOW_TOL,
                     max_iter=MAX_ITER)
    return f, _flow_outputs(f, rpt)


def build_deform_at_map(seed, out_dir):
    group = _sl2c()
    maps = {}
    setup_checks = []
    specs = [
        ("g2", _g2_rep(group, 3), G2K3_ENERGY, 0, 18,
         lambda rep: {"bend_real": rv.bending_path(rep, 0.4, imaginary=False),
                      "bend_imag": rv.bending_path(rep, 0.4, imaginary=True)}),
        ("t12", _torus_rep(group, 12), TORUS_ENERGY, 2, 8,
         lambda rep: {"commuting": rv.commuting_exp_path(
             rep, {"a": E_DIAG, "b": np.diag([0.5j, -0.5j])},
             {"a": 0.3 * E_DIAG, "b": 0.1 * E_DIAG})}),
    ]
    for key, (tag, (mesh, rep), energy_ref, kdim, nbasis, paths) in enumerate(specs):
        f, out = _solved_map(mesh, rep)
        name = "setup.g2k3_map" if tag == "g2" else "setup.torus12_map"
        setup_checks.append((name, out, check_solve(out, energy_ref)))
        rng = _rng(seed, key)
        cochains = [TwistedCochain(1, np.stack([group.random_alg(rng)
                                                for _ in range(mesh.ne)]))
                    for _ in range(3)]
        maps[tag] = {"mesh": mesh, "rep": rep, "f": f, "kernel_dim": kdim,
                     "basis_size": nbasis, "paths": paths(rep),
                     "cochains": cochains}
    return {"maps": maps}, setup_checks


def check_assemble(out, kdim):
    return [equal("kernel_dim", out["kernel_dim"], kdim)]


def check_basis(out, nbasis):
    return [equal("basis_size", out["basis_size"], nbasis),
            below("relator_residual", out["relator_residual"], 1e-8)]


def check_first_order(out):
    checks = [below(f"residual.{key}", val, 1e-8)
              for key, val in sorted(out["residuals"].items())]
    # the obstruction defect is the G0 norm of the kernel projection of
    # omega* -| omega; recompute it from the kernel sections
    err = abs(out["defect"] - out["defect_sections"])
    checks.append(below("defect_vs_sections", err,
                        1e-10 * (1.0 + out["defect"])))
    checks.append(equal("orthogonal_vs_threshold", out["orthogonal"],
                        out["defect"] <= out["threshold"]))
    return checks


def check_psh(out):
    return [below("relative_defect", out["relative"], 0.02)] \
        + residuals_below("residual.", out["residuals"], 1e-7)


def check_hodge(out):
    return [below("reconstruction", out["reconstruction"], 1e-8)]


def check_spectrum(out):
    return [equal("near_zero_count", out["near_zero"], out["kernel_dim"])]


def check_scan(out, nbasis, critical):
    vals = out["per_direction"]
    checks = [equal("basis_size", out["basis_size"], nbasis),
              below("cauchy_schwarz", max(vals) - 1.0, 1e-9)]
    # the Fuchsian octagon point is critical; the torus_diag point is not
    if critical:
        checks.append(below("max_normalized", out["max_normalized"], 1e-8))
    else:
        checks.append(above("max_normalized", out["max_normalized"], 0.1))
    return checks


def _deform_ops(tag, m):
    held = {}
    ops = []

    def assemble():
        held["ctx"] = TwistedComplex(m["mesh"], m["rep"], m["f"])
        return {"kernel_dim": held["ctx"].kernel_dim}
    ops.append(Op(f"{tag}.assemble", assemble,
                  lambda out: check_assemble(out, m["kernel_dim"])))

    def basis():
        held["basis"] = rv.cocycle_space_basis(m["rep"])
        worst = max((max(c.relator_residuals(), default=0.0)
                     for c in held["basis"]), default=0.0)
        return {"basis_size": len(held["basis"]), "relator_residual": worst}
    ops.append(Op(f"{tag}.basis", basis,
                  lambda out: check_basis(out, m["basis_size"])))

    for i in range(m["basis_size"]):
        def first(i=i):
            ctx = held["ctx"]
            fo = df.first_order(ctx, held["basis"][i])
            obs = df.obstruction_check(ctx, fo.omega)
            q = ctx.contract_star(fo.omega, fo.omega)
            coeffs = [ctx.inner(K, q, 0) for K in ctx.kernel_sections()]
            return {"residuals": fo.residuals, "defect": obs.defect,
                    "defect_sections": float(np.sqrt(np.sum(np.square(coeffs)))),
                    "orthogonal": obs.orthogonal,
                    "threshold": 1e-7 * obs.scale + 1e-12 * (1.0 + obs.scale)}
        ops.append(Op(f"{tag}.first_order.{i}", first, check_first_order))

    for pname, path in m["paths"].items():
        def second(path=path, pname=pname):
            c, k = path.jets()
            so, _ = df.second_order(held["ctx"], c, k)
            held[pname] = (c, k, so)
            return {"residuals": so.residuals}
        ops.append(Op(f"{tag}.second_order.{pname}", second,
                      lambda out: residuals_below("", out["residuals"], 1e-7)))

        def validate(pname=pname):
            c, k, so = held[pname]
            res, _, _ = df.validate_pair(held["ctx"], c, k, so.F, so.F2,
                                         psi_expected=so.psi)
            return {"residuals": res}
        ops.append(Op(f"{tag}.validate_pair.{pname}", validate,
                      lambda out: residuals_below("", out["residuals"], 1e-7)))

        def psh(pname=pname):
            c, k, _ = held[pname]
            rep = ev.psh_defect(held["ctx"], c, k)
            return {"relative": rep.relative, "residuals": rep.residuals}
        ops.append(Op(f"{tag}.psh.{pname}", psh, check_psh))

    for j, alpha in enumerate(m["cochains"]):
        def hodge(alpha=alpha):
            ctx = held["ctx"]
            ex, coex, harm = ctx.hodge_decompose(alpha)
            rec = TwistedCochain(1, ex.values + coex.values + harm.values
                                 - alpha.values)
            return {"reconstruction": ctx.norm(rec, 1)}
        ops.append(Op(f"{tag}.hodge.{j}", hodge, check_hodge))

    def spectrum():
        # as the CLI hodge task computes it
        spec = np.linalg.eigvalsh(held["ctx"].jacobi_dense_sym())
        return {"near_zero": int(np.sum(spec < 1e-9 * spec.max())),
                "kernel_dim": held["ctx"].kernel_dim}
    ops.append(Op(f"{tag}.spectrum", spectrum, check_spectrum))

    def scan():
        return ev.critical_scan(held["ctx"]).to_dict()
    ops.append(Op(f"{tag}.critical_scan", scan,
                  lambda out: check_scan(out, m["basis_size"], tag == "g2")))
    return ops


def ops_deform_at_map(state, pass_index):
    return [op for tag, m in state["maps"].items() for op in _deform_ops(tag, m)]


# ----------------------------------------------------------------------
# CLI workloads: in-process cli.main calls with their reports checked

SL2C = {"kind": "sl", "n": 2, "field": "C"}

FD_CONFIGS = {
    "cli.variation.g2_bend_real": ("variation", {
        "mesh": {"kind": "genus2", "k": 2}, "group": SL2C,
        "representation": {"family": "genus2_fuchsian"},
        "deformation": {"path_family": {"kind": "bending", "scale": 0.5,
                                        "imaginary": False}},
        "tolerances": {"flow_tol": FLOW_TOL}}),
    "cli.variation.torus6_commuting": ("variation", {
        "mesh": {"kind": "torus", "n": 6, "m": 6}, "group": SL2C,
        "representation": {"family": "torus_diag"},
        "deformation": {"path_family": {
            "kind": "commuting_exp",
            # b = diag(0.5i, -0.5i), complex entries as [re, im] pairs
            "B": {"a": [[1, 0], [0, -1]],
                  "b": [[[0, 0.5], [0, 0]], [[0, 0], [0, -0.5]]]},
            "C": {"a": [[0.3, 0], [0, -0.3]], "b": [[0.2, 0], [0, -0.2]]}}},
        "tolerances": {"flow_tol": FLOW_TOL}}),
    "cli.psh.g2_bend_imag": ("psh", {
        "mesh": {"kind": "genus2", "k": 2}, "group": SL2C,
        "representation": {"family": "genus2_fuchsian"},
        "deformation": {"path_family": {"kind": "bending", "scale": 0.4,
                                        "imaginary": True}},
        "tolerances": {"flow_tol": FLOW_TOL}}),
    # the two README examples
    "cli.deform2.obstructed": ("deform2", {
        "mesh": {"kind": "torus", "n": 5, "m": 5},
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "representation": {"family": "trivial"},
        "deformation": {"values": {"a": [[0, 1], [0, 0]],
                                   "b": [[0, 0], [0, 0]]}}}),
    "cli.refine_study.torus_mc": ("refine-study", {
        "group": SL2C, "refine": {"kind": "torus_mc", "levels": [4, 8, 16, 32]}}),
}

#: the README parabolic flow runs 40 000 iterations to energy < 1e-3; a
#: twentieth of it keeps one operation near 1 s
PLATEAU_ITERS = 2000

PLATEAU_CONFIGS = {
    "cli.flow.circle4_parabolic": ("flow", {
        "mesh": {"kind": "circle", "n": 4},
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "representation": {"family": "circle_parabolic"},
        "flow": {"max_iter": PLATEAU_ITERS}}),
}


def check_variation(out, critical):
    rpt = out["report"]
    checks = [equal("exit_code", out["code"], cli.EXIT_OK)]
    res = rpt["result"]
    if critical:
        # bending is critical at the Fuchsian point: first_rel_err divides
        # by a value of order 1e-12, so bound both first variations absolutely
        checks.append(below("analytic_first_abs", abs(res["analytic_first"]), 1e-8))
        checks.append(below("fd_first_abs", abs(res["fd_first"]), 1e-6))
    else:
        checks.append(below("first_rel_err", res["first_rel_err"], 1e-3))
    checks.append(below("second_rel_err", res["second_rel_err"], 1e-2))
    checks += residuals_below("psi_residual.", res["psi_residuals"], 1e-7)
    return checks


def check_cli_psh(out):
    checks = [equal("exit_code", out["code"], cli.EXIT_OK)]
    res = out["report"]["result"]
    return checks + [below("relative_defect", res["psh"]["relative"], 0.02)] \
        + residuals_below("residual.", res["residuals"], 1e-7)


def check_obstructed(out):
    rpt = out["report"]
    W = np.asarray(rpt["obstruction"]["witness"])[0]
    W = W[..., 0] + 1j * W[..., 1]
    W = W / np.sqrt(abs(np.trace(W @ np.conj(W).T)))
    align = abs(np.trace(W @ np.diag([1.0, -1.0]))) / np.sqrt(2.0)
    return [equal("exit_code", out["code"], cli.EXIT_OBSTRUCTED),
            equal("status", rpt["status"], "obstructed"),
            above("defect", rpt["obstruction"]["defect"], 1e-3),
            below("witness_vs_diag(1,-1)", abs(align - 1.0), 1e-8)]


def check_refine(out):
    res = out["report"]["result"]
    return [equal("exit_code", out["code"], cli.EXIT_OK),
            equal("monotone_decreasing", res["monotone_decreasing"], True),
            # README: the residual is "about first order in h"
            below("slope_minus_1", abs(res["fitted_slope"] - 1.0), 0.5)]


def check_plateau(out):
    res = out["report"]["result"]["flow"]
    # the energy decays like 1/t along the plateau, so the README bound
    # (1e-3 at 40 000 iterations) is a bound of 40 on energy x iterations
    return [equal("exit_code", out["code"], cli.EXIT_OK),
            equal("iterations", res["iterations"], PLATEAU_ITERS),
            below("energy_x_iterations", res["energy"] * res["iterations"], 40.0),
            equal("converged", res["converged"], False),
            equal("reductive_suspected", res["reductive_suspected"], False)]


CLI_CHECKS = {
    "cli.variation.g2_bend_real": lambda out: check_variation(out, True),
    "cli.variation.torus6_commuting": lambda out: check_variation(out, False),
    "cli.psh.g2_bend_imag": check_cli_psh,
    "cli.deform2.obstructed": check_obstructed,
    "cli.refine_study.torus_mc": check_refine,
    "cli.flow.circle4_parabolic": check_plateau,
}


def _build_cli(configs):
    def build(seed, out_dir):
        jobs = []
        for name, (task, cfg) in configs.items():
            cfg_path = out_dir / f"{name}.json"
            cfg_path.parent.mkdir(parents=True, exist_ok=True)
            cfg_path.write_text(json.dumps(cfg))
            jobs.append((name, task, cfg_path, out_dir / name))
        return {"seed": seed, "jobs": jobs}, []
    return build


def ops_cli(state, pass_index):
    ops = []
    for name, task, cfg_path, out in state["jobs"]:
        def run(task=task, cfg_path=cfg_path, out=out):
            argv = [task, "--config", str(cfg_path), "--out", str(out),
                    "--seed", str(state["seed"])]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            report = json.loads(
                (out / f"{task.replace('-', '_')}_report.json").read_text())
            flow = report.get("result", {}).get("flow") or report.get("flow") or {}
            return {"code": code, "report": report, "stderr": err.getvalue(),
                    "iterations": flow.get("iterations")}
        ops.append(Op(name, run, CLI_CHECKS[name]))
    return ops


WORKLOADS = {w.name: w for w in [
    Workload("solve_cold",
             "cold harmonic-map solves to 1e-10: the flow solver does nearly all the work",
             build_solve_cold, ops_solve_cold, 2.2),
    Workload("deform_at_map",
             "deformation theory at fixed maps: twisted Hodge, deform and jet "
             "evaluation work, with almost no flow",
             build_deform_at_map, ops_deform_at_map, 2.3),
    Workload("fd_oracle",
             "CLI variation, psh and README tasks: many short warm-started FD flows "
             "on new reps, plus report writing",
             _build_cli(FD_CONFIGS), ops_cli, 2.9),
    Workload("nonreductive_plateau",
             "README parabolic flow through the CLI, cut to 2000 tiny iterations "
             "of the non-reductive branch",
             _build_cli(PLATEAU_CONFIGS), ops_cli, 0.87),
]}
