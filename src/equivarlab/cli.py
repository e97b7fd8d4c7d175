"""Batch experiment runner: JSON config in, JSON/CSV reports out.

    equivar-lab <task> --config cfg.json [--out DIR] [--seed N] [--tol X]

Tasks: flow, energy, hodge, deform1, deform2, variation, psh, critical-scan,
refine-study.  Exit codes: 0 success, 2 validation failure (a config section
missing or not an object, a key missing or of a bad value, an unreadable
mesh file, a deformation with both values and a path family or with second
values next to one, a path family its representation cannot carry; every
task but refine-study starts from build_problem, which checks the
relators), 3 harmonic-map solver non-convergence where a converged metric is
required (every solve reads the flow section through _flow_args), 4
obstructed second-order deformation request.  Complex matrices and numbers
are read and written as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import energyvar as ev
from . import harmonicflow as hf
from . import meshcover as mc
from . import repvar as rv
from .deform import (ObstructedDeformationError, first_order,
                     obstruction_check, second_order)
from .liealg import MatrixGroup
from .twistedhodge import LinearSolverError, TwistedCochain, TwistedComplex

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3
EXIT_OBSTRUCTED = 4


class ConfigError(ValueError):
    pass


def _section(cfg, name):
    """cfg[name], which must be an object (else ConfigError)."""
    if not isinstance(cfg.get(name), dict):
        raise ConfigError(f"config section {name!r} is missing or not an object")
    return cfg[name]


def _optional(cfg, name):
    """cfg[name] if it is given (it must be an object), else {}."""
    return _section(cfg, name) if name in cfg else {}


def _key(spec, name):
    """spec[name] (else ConfigError)."""
    if name not in spec:
        raise ConfigError(f"config key {name!r} is missing")
    return spec[name]


def _value(spec, name, default, convert):
    """convert(spec.get(name, default)); a value of the wrong type raises
    ConfigError naming the key."""
    try:
        return convert(spec.get(name, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {name!r} has a bad value: {exc}") from exc


def _as_complex(x):
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(x[0], x[1])
    return complex(x)


def _as_matrix(data):
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 3:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)


def build_mesh(spec):
    kind = spec.get("kind")
    if kind == "circle":
        return mc.build_circle(_value(spec, "n", 8, int))
    if kind == "torus":
        return mc.build_torus(_value(spec, "n", 6, int), _value(spec, "m", spec.get("n", 6), int))
    if kind == "genus2":
        return mc.build_genus2(_value(spec, "k", 1, int))
    if kind == "json":
        path = Path(_key(spec, "path"))
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read mesh: {exc}") from exc
        return mc.CoverMesh.from_json(text)
    raise ConfigError(f"unknown mesh kind {kind!r}")


def build_group(spec):
    return MatrixGroup(kind=spec.get("kind", "sl"), n=_value(spec, "n", 2, int),
                       field=spec.get("field", "R"))


#: representation family -> builder(group, mesh, params)
FAMILIES = {
    "circle_hyperbolic": lambda g, m, p: rv.hyperbolic_circle_rep(g, m, _value(p, "lam", 2.0, float)),
    "circle_parabolic": lambda g, m, p: rv.parabolic_circle_rep(g, m),
    "circle_elliptic": lambda g, m, p: rv.elliptic_circle_rep(g, m, _value(p, "theta", 0.7, float)),
    "torus_diag": lambda g, m, p: rv.torus_diag_rep(g, m, _value(p, "alpha", [0.4, 0.3], _as_complex),
                                                    _value(p, "beta", [-0.2, 0.5], _as_complex)),
    "torus_gl1c": lambda g, m, p: rv.torus_gl1c_rep(g, m, _value(p, "z1", [0.5, 1.0], _as_complex),
                                                    _value(p, "z2", [-0.3, 0.2], _as_complex)),
    "torus_unitary": lambda g, m, p: rv.torus_unitary_rep(g, m, _value(p, "theta1", 0.6, float),
                                                          _value(p, "theta2", -0.35, float)),
    "trivial": lambda g, m, p: rv.trivial_rep(g, m),
    "genus2_fuchsian": lambda g, m, p: rv.genus2_fuchsian_rep(g, m),
}


def build_representation(spec, group, mesh):
    if "inline" in spec:
        images = {k: _as_matrix(v) for k, v in
                  _section(_section(spec, "inline"), "images").items()}
        return rv.Representation.for_mesh(group, mesh, images)
    family = spec.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown representation family {family!r} "
                          f"(available: {', '.join(FAMILIES)})")
    return FAMILIES[family](group, mesh, _optional(spec, "params"))


def build_problem(cfg):
    """(mesh, group, rep) of the config; the rep must pass the relator check."""
    mesh = build_mesh(_section(cfg, "mesh"))
    group = build_group(_section(cfg, "group"))
    rep = build_representation(_section(cfg, "representation"), group, mesh)
    if not rep.validate(cfg["tolerances"]["validation"]):
        raise ConfigError("representation fails the relator check")
    return mesh, group, rep


def build_path(spec, rep):
    kind = spec.get("kind")
    if kind == "commuting_exp":
        B = {k: _as_matrix(v) for k, v in _section(spec, "B").items()}
        C = {k: _as_matrix(v) for k, v in _optional(spec, "C").items()} or None
        return rv.commuting_exp_path(rep, B, C)
    if kind == "conjugation":
        return rv.conjugation_path(rep, _as_matrix(_key(spec, "xi")))
    if kind == "bending":
        imaginary = spec.get("imaginary", True)
        if not isinstance(imaginary, bool):
            raise ConfigError(f"config key 'imaginary' is {imaginary!r}, not true or false")
        return rv.bending_path(rep, _value(spec, "scale", 0.5, float), imaginary)
    raise ConfigError(f"unknown path kind {kind!r}")


def build_deformation(cfg, rep):
    """(c, k, path) of the config's deformation: given ``values`` of c (path
    None) with optional ``second`` values k (else None), or a
    ``path_family`` and its jets.  c must pass the relator check and a
    given k the jet cocycle law, at tolerances.validation."""
    spec = _section(cfg, "deformation")
    if ("values" in spec) == ("path_family" in spec):
        raise ConfigError("deformation spec needs exactly one of 'values' "
                          "and 'path_family'")
    path = k = None
    if "path_family" in spec:
        if "second" in spec:
            raise ConfigError("'second' cannot be given with a 'path_family'")
        path = build_path(_section(spec, "path_family"), rep)
        c, k = path.jets()
    else:
        c = rv.Cocycle(rep, {g: _as_matrix(v) for g, v in
                             _section(spec, "values").items()})
        if "second" in spec:
            k = {g: _as_matrix(v) for g, v in _section(spec, "second").items()}
    if not c.validate(cfg["tolerances"]["validation"]):
        raise ConfigError("cocycle does not satisfy the relator conditions")
    if k is not None:
        _check_jet(cfg, c, k)
    return c, k, path


def build_jet(cfg, rep):
    """(c, k) for a second-order task: k = 0 when the config gives none,
    and (c, 0) must then be a jet too."""
    c, k, _ = build_deformation(cfg, rep)
    if k is None:
        k = {g: np.zeros_like(c.values[g]) for g in rep.generators}
        _check_jet(cfg, c, k)
    return c, k


def _check_jet(cfg, c, k):
    if not rv.Jet2Cocycle(c, k).validate(cfg["tolerances"]["validation"]):
        raise ConfigError("second-order values fail the jet cocycle law")


def _flow_args(cfg, max_iter):
    """hf.flow keywords: flow_tol, and the flow section's max_iter and drift_radius."""
    fspec = _optional(cfg, "flow")
    return {"tol": cfg["tolerances"]["flow_tol"],
            "max_iter": _value(fspec, "max_iter", max_iter, int),
            "drift_radius": _value(fspec, "drift_radius", 50.0, float)}


def converged_context(cfg, mesh, rep):
    f, rpt = hf.flow(rep, hf.constant_map(mesh, rep), **_flow_args(cfg, 60000))
    if not rpt.converged:
        raise FlowNotConverged(rpt)
    return TwistedComplex(mesh, rep, f), rpt


class FlowNotConverged(RuntimeError):
    def __init__(self, report):
        super().__init__(f"flow did not converge: tension {report.tension:.3e}")
        self.report = report


#: the tolerances of a config and their defaults
TOLERANCES = {"flow_tol": 1e-8, "rel_obstruction": 1e-7, "validation": 1e-8}


def resolve_config(args):
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    cfg.setdefault("schema_version", SCHEMA_VERSION)
    cfg.setdefault("seed", 0)
    if args.seed is not None:
        cfg["seed"] = args.seed
    tols = cfg.setdefault("tolerances", {})
    if isinstance(tols, dict):      # else main reports the bad section
        for key, default in TOLERANCES.items():
            tols.setdefault(key, default)
        if args.tol is not None:
            tols["flow_tol"] = args.tol
    return cfg


def write_report(out_dir, task, payload):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{task.replace('-', '_')}_report.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1,
                               default=_json_default) + "\n")
    return path


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"not JSON serializable: {type(x)}")


def write_csv(out_dir, name, header, rows):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ----------------------------------------------------------------------
# task implementations

def task_flow(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    fspec = _optional(cfg, "flow")
    start = fspec.get("start", "constant")
    if start not in ("constant", "random"):
        raise ConfigError(f"config key 'start' is {start!r}, not 'constant' or 'random'")
    f0 = (hf.random_map(mesh, rep, np.random.default_rng(cfg["seed"]),
                        _value(fspec, "scale", 0.4, float))
          if start == "random" else hf.constant_map(mesh, rep))
    f, rpt = hf.flow(rep, f0, **_flow_args(cfg, 20000))
    return {"flow": rpt.to_dict()}


def task_energy(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    E, reductive, rpt = hf.energy_of_rep(
        rep, mesh, n_starts=_value(_optional(cfg, "flow"), "n_starts", 2, int),
        seed=cfg["seed"], **_flow_args(cfg, 20000))
    return {"energy": E, "reductive_suspected": reductive,
            "last_flow": rpt.to_dict()}


def task_hodge(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    ctx, rpt = converged_context(cfg, mesh, rep)
    rng = np.random.default_rng(cfg["seed"])
    F = TwistedCochain(0, np.stack([group.random_alg(rng) for _ in range(mesh.nv)]))
    alpha = TwistedCochain(1, np.stack([group.random_alg(rng) for _ in range(mesh.ne)]))
    dd = ctx.norm(ctx.d(ctx.d(F)), 2) if mesh.nf else 0.0
    adj = abs(ctx.inner(ctx.d(F), alpha, 1) - ctx.inner(F, ctx.codiff(alpha), 0))
    ex, coex, harm = ctx.hodge_decompose(alpha)
    recon = ctx.norm(TwistedCochain(1, ex.values + coex.values + harm.values
                                    - alpha.values), 1)
    spec = np.linalg.eigvalsh(ctx.jacobi_dense_sym())
    write_csv(out_dir, "jacobi_spectrum.csv", ["index", "eigenvalue"],
              list(enumerate(spec.tolist())))
    return {
        "flow": rpt.to_dict(),
        "d_squared": dd,
        "adjunction": adj,
        "hodge_reconstruction": recon,
        # harm = alpha - ex - coex by construction, so recon is zero up to
        # rounding whatever coex is; these check harm independently
        "harmonic_d": ctx.norm(ctx.d(harm), 2) if mesh.nf else 0.0,
        "harmonic_codiff": ctx.norm(ctx.codiff(harm), 0),
        "kernel_dim": ctx.kernel_dim,
        "jacobi_min_eigenvalue": float(spec.min()),
        "dstar_beta": ctx.norm(ctx.codiff(ctx.beta()), 0),
    }


def task_deform1(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    c, _, _ = build_deformation(cfg, rep)
    ctx, rpt = converged_context(cfg, mesh, rep)
    fo = first_order(ctx, c)
    obs = obstruction_check(ctx, fo.omega, cfg["tolerances"]["rel_obstruction"])
    return {"flow": rpt.to_dict(), "residuals": fo.residuals,
            "kernel_dim": ctx.kernel_dim, "obstruction": obs.to_dict()}


def task_deform2(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    c, k = build_jet(cfg, rep)
    ctx, rpt = converged_context(cfg, mesh, rep)
    so, sol = second_order(ctx, c, k,
                           rel_tol=cfg["tolerances"]["rel_obstruction"])
    return {"flow": rpt.to_dict(), "residuals": so.residuals,
            "obstruction": sol.obstruction.to_dict(),
            "kernel_dim": ctx.kernel_dim}


def task_variation(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    _, _, path = build_deformation(cfg, rep)
    if path is None:
        raise ConfigError("variation needs a deformation 'path_family'")
    ctx, rpt = converged_context(cfg, mesh, rep)
    out = ev.variation_report(ctx, path,
                              rel_tol=cfg["tolerances"]["rel_obstruction"])
    rows = [[r["h"], r["first"], r["second"]] for r in out["fd_table"]]
    write_csv(out_dir, "variation_fd.csv", ["h", "fd_first", "fd_second"], rows)
    out["flow"] = rpt.to_dict()
    return out


def task_psh(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    if not group.is_complex:
        raise ConfigError("psh task needs a complex group")
    c, k = build_jet(cfg, rep)
    ctx, rpt = converged_context(cfg, mesh, rep)
    report = ev.psh_defect(ctx, c, k, cfg["tolerances"]["rel_obstruction"])
    return {"flow": rpt.to_dict(), "psh": report.to_dict(),
            "residuals": report.residuals}


def task_critical_scan(cfg, out_dir):
    mesh, group, rep = build_problem(cfg)
    ctx, rpt = converged_context(cfg, mesh, rep)
    scan = ev.critical_scan(ctx)
    write_csv(out_dir, "critical_scan.csv", ["direction", "normalized_first_variation"],
              list(enumerate(scan.per_direction)))
    return {"flow": rpt.to_dict(), "scan": scan.to_dict()}


#: refine-study values below this fraction of the study's scale (the exact
#: energy for circle_energy, 1 otherwise) sit at the float floor
FLOOR_REL = 1e-12


def task_refine_study(cfg, out_dir):
    """Values of one discretization error over mesh levels and the slope of
    log value against log h.  When a value is below FLOOR_REL times the
    study's scale, no slope is fitted: fitted_slope is null and the report
    gains floor_limited = true."""
    spec = _optional(cfg, "refine")
    kind = spec.get("kind", "torus_mc")
    levels = _value(spec, "levels", [4, 8, 16], lambda xs: [int(x) for x in xs])
    if len(levels) < 3:
        raise ConfigError("refine-study needs at least 3 levels")
    group = build_group(_section(cfg, "group"))
    rows = []
    values = []
    scale = 1.0         # the study's scale for FLOOR_REL
    if kind == "torus_mc":
        alpha = _value(spec, "alpha", [0.4, 0.0], _as_complex)
        beta = _value(spec, "beta", [-0.2, 0.0], _as_complex)
        for n in levels:
            mesh = mc.build_torus(n, n)
            rep = rv.torus_diag_rep(group, mesh, alpha, beta)
            f = hf.curved_torus_map(mesh, rep, _value(spec, "amplitude", 0.3, float))
            ctx = TwistedComplex(mesh, rep, f)
            b = ctx.beta()
            res = TwistedCochain(2, ctx.d(b).values
                                 - ctx.bracket_wedge(b, b).values)
            val = ctx.norm(res, 2)
            rows.append([n, 1.0 / n, "mc_residual", val])
            values.append(val)
    elif kind == "circle_energy":
        lam = _value(spec, "lam", 2.0, float)
        exact = 4.0 * np.log(lam) ** 2
        scale = exact
        for n in levels:
            mesh = mc.build_circle(n)
            rep = rv.hyperbolic_circle_rep(group, mesh, lam)
            E, _, _ = hf.energy_of_rep(rep, mesh, n_starts=1, seed=cfg["seed"],
                                       **_flow_args(cfg, 20000))
            val = abs(E - exact)
            rows.append([n, 1.0 / n, "energy_error", val])
            values.append(val)
    elif kind == "harmonic_residuals":
        alpha = _value(spec, "alpha", [0.4, 0.3], _as_complex)
        beta = _value(spec, "beta", [-0.2, 0.5], _as_complex)
        for n in levels:
            mesh = mc.build_torus(n, n)
            if group.kind == "gl1c":
                rep = rv.torus_gl1c_rep(group, mesh, alpha, beta)
                c = rv.Cocycle(rep, {"a": np.array([[0.4 - 0.1j]]),
                                     "b": np.array([[0.2j]])})
            else:
                rep = rv.torus_diag_rep(group, mesh, alpha, beta)
                c = rv.Cocycle(rep, {"a": np.diag([1.0, -1.0]).astype(complex),
                                     "b": np.zeros((2, 2), dtype=complex)})
            ctx, _ = converged_context(cfg, mesh, rep)
            om, _ = ctx.harmonic_rep(c)
            val = max(ctx.norm(ctx.d(om), 2), ctx.norm(ctx.codiff(om), 0))
            rows.append([n, 1.0 / n, "harmonic_residual", val])
            values.append(val)
    else:
        raise ConfigError(f"unknown refine-study kind {kind!r}")
    write_csv(out_dir, "refine_study.csv", ["level", "h", "quantity", "value"], rows)
    vals = np.asarray(values)
    hs = 1.0 / np.asarray(levels, dtype=float)
    floor_limited = bool(np.any(vals < FLOOR_REL * scale))
    if floor_limited:
        slope = None    # a slope through rounding noise measures nothing
    elif np.all(vals > 0):
        slope = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
    else:
        slope = float("nan")
    monotone = bool(np.all(np.diff(vals) < 0))
    out = {"kind": kind, "levels": levels, "values": values,
           "fitted_slope": slope, "monotone_decreasing": monotone}
    if floor_limited:
        out["floor_limited"] = True
    return out


TASK_FUNCS = {
    "flow": task_flow,
    "energy": task_energy,
    "hodge": task_hodge,
    "deform1": task_deform1,
    "deform2": task_deform2,
    "variation": task_variation,
    "psh": task_psh,
    "critical-scan": task_critical_scan,
    "refine-study": task_refine_study,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="equivar-lab",
        description="equivariant harmonic map laboratory")
    parser.add_argument("task", choices=TASK_FUNCS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    payload = {"schema_version": SCHEMA_VERSION, "task": args.task,
               "config": cfg}
    try:
        tols = _section(cfg, "tolerances")
        # the task reads converted copies; the report echoes the config as given
        run_cfg = dict(cfg, seed=_value(cfg, "seed", 0, int),
                       tolerances=dict(tols, **{k: _value(tols, k, None, float)
                                                for k in TOLERANCES}))
        result = TASK_FUNCS[args.task](run_cfg, out_dir)
        payload["result"] = result
        payload["status"] = "ok"
        write_report(out_dir, args.task, payload)
        return EXIT_OK
    # numpy's LinAlgError is a ValueError: a singular solve is not a config fault
    except (LinearSolverError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        payload["status"] = "solver-error"
        payload["error"] = str(exc)
        write_report(out_dir, args.task, payload)
        return EXIT_NONCONVERGED
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        payload["status"] = "validation-error"
        payload["error"] = str(exc)
        write_report(out_dir, args.task, payload)
        return EXIT_VALIDATION
    except FlowNotConverged as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        payload["status"] = "not-converged"
        payload["error"] = str(exc)
        payload["flow"] = exc.report.to_dict()
        write_report(out_dir, args.task, payload)
        return EXIT_NONCONVERGED
    except ObstructedDeformationError as exc:
        print(f"obstructed deformation: {exc}", file=sys.stderr)
        payload["status"] = "obstructed"
        payload["error"] = str(exc)
        payload["obstruction"] = {
            "defect": exc.defect, "scale": exc.scale,
            "witness": exc.witness.values.tolist() if exc.witness is not None else None,
        }
        write_report(out_dir, args.task, payload)
        return EXIT_OBSTRUCTED


if __name__ == "__main__":
    sys.exit(main())
