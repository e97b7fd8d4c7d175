"""Batch experiment runner: JSON config in, JSON/CSV reports out.

    equivar-lab <task> --config cfg.json [--out DIR] [--seed N]

Tasks: flow, energy, hodge, deform1, deform2, variation, psh, critical-scan,
refine-study.  _failure maps each failure class to its exit code, report
status and report fields:

  0 ok: the task ran.
  2 validation-error: a config section missing or not an object, a key missing
    or of a bad value (a number, never a bool, a string or an integer beyond
    the float range; a tolerance finite and above zero; an integer key such
    as a mesh size or the seed a whole number), a schema_version other than
    1 or an unreadable config (these two write no report), an unreadable or
    malformed mesh file, a matrix entry that is not a number or not an
    [re, im] pair, a deformation with both values and a path family or with
    second values next to one, a path family its
    representation cannot carry, a real group given complex images, a
    non-finite family image, a non-finite cocycle or jet value, a
    conjugation or bending path whose jets overflow, a flow max_iter below
    1, a circle_hyperbolic lam of zero, a start map of non-finite energy, a
    torus_mc amplitude or curved map that is not finite, refine-study
    levels that do not strictly increase, or a representation that fails
    the relator check (every task but refine-study starts from
    build_problem).
    An omitted key takes the default of its routine.  Numbers are read by
    meshcover's as_real and as_integer, which the mesh reader shares.
  3 not-converged: a map that harmonicflow.harmonic_map refused (every task
    but flow and energy); the report's flow is the failed run, for variation
    maybe an FD sample, which keeps the oracle's tolerance and ignores the
    flow section; solver-error: a linear solver failure, a singular factor
    or kernel sections that are not parallel.
  4 obstructed: a second-order deformation request refused, with deform1's
    obstruction report (scale is |omega|^2) and the witness.

main writes the report, and on success the table of a TABLES task; a failed
run removes that task's table.  An output that cannot be written (an --out
that is a file, a directory at an output path) exits 2 with one
"output error:" line.  Each output file is written new: a file (or symlink)
already at its path is unlinked and a new one created, never truncated or
renamed over, which on some ext4 hosts costs tens of milliseconds a file.

Complex matrices and numbers are read and written as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import csv
import io
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
from .meshcover import as_integer, as_real
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


def _given(spec, *names, **converters):
    """Keywords of the keys spec gives, names as given and the others through
    their converters: an omitted key takes its routine's default."""
    return {**{name: spec[name] for name in names if name in spec},
            **{name: _value(spec, name, None, convert)
               for name, convert in converters.items() if name in spec}}


def _as_complex(x):
    re, im = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0.0)
    return complex(as_real(re), as_real(im))


def _as_matrix(data):
    try:
        arr = np.vectorize(as_real, otypes=[float])(np.asarray(data, dtype=object))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"matrix entries must be numbers: {exc}") from exc
    if arr.ndim == 3 and arr.shape[-1] != 2:
        raise ConfigError(f"complex matrix entries must be [re, im] pairs, got {arr.shape}")
    if arr.ndim == 3:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)


def _matrices(spec):
    return {k: _as_matrix(v) for k, v in spec.items()}


def build_mesh(spec):
    kind = spec.get("kind")
    if kind == "circle":
        return mc.build_circle(_value(spec, "n", 8, as_integer))
    if kind == "torus":
        return mc.build_torus(_value(spec, "n", 6, as_integer),
                              _value(spec, "m", spec.get("n", 6), as_integer))
    if kind == "genus2":
        return mc.build_genus2(**_given(spec, k=as_integer))
    if kind == "json":
        path = _key(spec, "path")
        if not isinstance(path, str):
            raise ConfigError(f"config key 'path' has a bad value: {path!r} is not a string")
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read mesh: {exc}") from exc
        return mc.CoverMesh.from_json(text)
    raise ConfigError(f"unknown mesh kind {kind!r}")


def build_group(spec):
    return MatrixGroup(**_given(spec, "kind", "field", n=as_integer))


#: representation family -> (builder(group, mesh, **params), param converters)
FAMILIES = {
    "circle_hyperbolic": (rv.hyperbolic_circle_rep, {"lam": as_real}),
    "circle_parabolic": (rv.parabolic_circle_rep, {}),
    "circle_elliptic": (rv.elliptic_circle_rep, {"theta": as_real}),
    "torus_diag": (rv.torus_diag_rep, {"alpha": _as_complex, "beta": _as_complex}),
    "torus_gl1c": (rv.torus_gl1c_rep, {"z1": _as_complex, "z2": _as_complex}),
    "torus_unitary": (rv.torus_unitary_rep, {"theta1": as_real, "theta2": as_real}),
    "trivial": (rv.trivial_rep, {}),
    "genus2_fuchsian": (rv.genus2_fuchsian_rep, {}),
}


def build_representation(spec, group, mesh):
    if "inline" in spec:
        images = _matrices(_section(_section(spec, "inline"), "images"))
        return rv.Representation.for_mesh(group, mesh, images)
    family = spec.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown representation family {family!r} "
                          f"(available: {', '.join(FAMILIES)})")
    builder, converters = FAMILIES[family]
    return builder(group, mesh, **_given(_optional(spec, "params"), **converters))


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
        return rv.commuting_exp_path(rep, _matrices(_section(spec, "B")),
                                     _matrices(_optional(spec, "C")) or None)
    if kind == "conjugation":
        xi, n = _as_matrix(_key(spec, "xi")), rep.group.n
        if xi.shape != (n, n):
            raise ConfigError(f"config key 'xi' must be a {n}x{n} matrix, got shape {xi.shape}")
        return rv.conjugation_path(rep, xi)
    if kind == "bending":
        return rv.bending_path(rep, **_given(spec, "imaginary", scale=as_real))
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
        c = rv.Cocycle(rep, _matrices(_section(spec, "values")))
        if "second" in spec:
            k = _matrices(_section(spec, "second"))
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


def _flow_args(cfg):
    """Flow keywords: flow_tol, and the flow section's max_iter where it
    gives one."""
    return {"tol": cfg["tolerances"]["flow_tol"],
            **_given(_optional(cfg, "flow"), max_iter=as_integer)}


def converged_context(cfg, mesh, rep):
    f, rpt = hf.harmonic_map(rep, hf.constant_map(mesh, rep), **_flow_args(cfg))
    return TwistedComplex(mesh, rep, f), rpt


#: the tolerances of a config and their defaults
TOLERANCES = {"flow_tol": 1e-8, "rel_obstruction": 1e-7, "validation": 1e-8}


def _tolerance(x):
    """as_real(x), which must be finite and above zero: no run meets a
    tolerance of zero or below, and every comparison with NaN fails."""
    tol = as_real(x)
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tolerance {x!r} is not finite and above zero")
    return tol


def resolve_config(args):
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    version = cfg.setdefault("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version!r} is not {SCHEMA_VERSION}")
    cfg.setdefault("seed", 0)
    if args.seed is not None:
        cfg["seed"] = args.seed
    tols = cfg.setdefault("tolerances", {})
    if isinstance(tols, dict):      # else main reports the bad section
        for key, default in TOLERANCES.items():
            tols.setdefault(key, default)
    return cfg


def _write_new(path, text):
    """Write text to a new file at path, in one call, and return path.  Its
    directory is made; a file already at path is unlinked first (a symlink
    is replaced, not written through) and never truncated or renamed over."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    with path.open("x", newline="") as fh:
        fh.write(text)
    return path


def write_report(out_dir, task, payload):
    return _write_new(out_dir / f"{task.replace('-', '_')}_report.json",
                      json.dumps(payload, sort_keys=True, indent=1,
                                 default=_json_default) + "\n")


def _json_default(x):
    """[re, im] of a complex number, the one report value json cannot write."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"not JSON serializable: {type(x)}")


def write_csv(out_dir, name, header, rows):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return _write_new(out_dir / name, text.getvalue())


#: task -> (file name, header) of the table it returns with its result, as
#: (result, rows)
TABLES = {
    "hodge": ("jacobi_spectrum.csv", ["index", "eigenvalue"]),
    "variation": ("variation_fd.csv", ["h", "fd_first", "fd_second"]),
    "critical-scan": ("critical_scan.csv", ["direction", "normalized_first_variation"]),
    "refine-study": ("refine_study.csv", ["level", "h", "quantity", "value"]),
}


# ----------------------------------------------------------------------
# task implementations

def task_flow(cfg):
    mesh, group, rep = build_problem(cfg)
    fspec = _optional(cfg, "flow")
    start = fspec.get("start", "constant")
    if start not in ("constant", "random"):
        raise ConfigError(f"config key 'start' is {start!r}, not 'constant' or 'random'")
    f0 = (hf.random_map(mesh, rep, np.random.default_rng(cfg["seed"]),
                        **_given(fspec, scale=as_real))
          if start == "random" else hf.constant_map(mesh, rep))
    f, rpt = hf.flow(rep, f0, **_flow_args(cfg))
    return {"flow": rpt.to_dict()}


def task_energy(cfg):
    mesh, group, rep = build_problem(cfg)
    f, rpt = hf.flow(rep, hf.constant_map(mesh, rep), **_flow_args(cfg))
    return {"energy": rpt.energy, "reductive_suspected": rpt.reductive_suspected,
            "last_flow": rpt.to_dict()}


def task_hodge(cfg):
    mesh, group, rep = build_problem(cfg)
    ctx, rpt = converged_context(cfg, mesh, rep)
    rng = np.random.default_rng(cfg["seed"])
    F = TwistedCochain(0, np.stack([group.random_alg(rng) for _ in range(mesh.nv)]))
    alpha = TwistedCochain(1, np.stack([group.random_alg(rng) for _ in range(mesh.ne)]))
    dd = ctx.norm(ctx.d(ctx.d(F)), 2)
    adj = abs(ctx.inner(ctx.d(F), alpha, 1) - ctx.inner(F, ctx.codiff(alpha), 0))
    ex, coex, harm = ctx.hodge_decompose(alpha)
    recon = ctx.norm(TwistedCochain(1, ex.values + coex.values + harm.values
                                    - alpha.values), 1)
    spec = np.linalg.eigvalsh(ctx.jacobi_dense_sym())
    return {
        "flow": rpt.to_dict(),
        "d_squared": dd,
        "adjunction": adj,
        "hodge_reconstruction": recon,
        # harm = alpha - ex - coex by construction, so recon is zero up to
        # rounding whatever coex is; these check harm independently
        "harmonic_d": ctx.norm(ctx.d(harm), 2),
        "harmonic_codiff": ctx.norm(ctx.codiff(harm), 0),
        "kernel_dim": ctx.kernel_dim,
        "jacobi_min_eigenvalue": float(spec.min()),
        "dstar_beta": ctx.norm(ctx.codiff(ctx.beta()), 0),
    }, list(enumerate(spec.tolist()))


def task_deform1(cfg):
    mesh, group, rep = build_problem(cfg)
    c, _, _ = build_deformation(cfg, rep)
    ctx, rpt = converged_context(cfg, mesh, rep)
    fo = first_order(ctx, c)
    obs = obstruction_check(ctx, fo.omega, cfg["tolerances"]["rel_obstruction"])
    return {"flow": rpt.to_dict(), "residuals": fo.residuals,
            "kernel_dim": ctx.kernel_dim, "obstruction": obs.to_dict()}


def task_deform2(cfg):
    mesh, group, rep = build_problem(cfg)
    c, k = build_jet(cfg, rep)
    ctx, rpt = converged_context(cfg, mesh, rep)
    so, sol = second_order(ctx, c, k,
                           rel_tol=cfg["tolerances"]["rel_obstruction"])
    return {"flow": rpt.to_dict(), "residuals": so.residuals,
            "obstruction": sol.obstruction.to_dict(),
            "kernel_dim": ctx.kernel_dim}


def task_variation(cfg):
    mesh, group, rep = build_problem(cfg)
    _, _, path = build_deformation(cfg, rep)
    if path is None:
        raise ConfigError("variation needs a deformation 'path_family'")
    ctx, rpt = converged_context(cfg, mesh, rep)
    out = ev.variation_report(ctx, path,
                              rel_tol=cfg["tolerances"]["rel_obstruction"])
    out["flow"] = rpt.to_dict()
    return out, [[r["h"], r["first"], r["second"]] for r in out["fd_table"]]


def task_psh(cfg):
    mesh, group, rep = build_problem(cfg)
    if not group.is_complex:
        raise ConfigError("psh task needs a complex group")
    c, k = build_jet(cfg, rep)
    ctx, rpt = converged_context(cfg, mesh, rep)
    report = ev.psh_defect(ctx, c, k, cfg["tolerances"]["rel_obstruction"])
    return {"flow": rpt.to_dict(), "psh": report.to_dict(),
            "residuals": report.residuals}


def task_critical_scan(cfg):
    mesh, group, rep = build_problem(cfg)
    ctx, rpt = converged_context(cfg, mesh, rep)
    scan = ev.critical_scan(ctx)
    return ({"flow": rpt.to_dict(), "scan": scan.to_dict()},
            list(enumerate(scan.per_direction)))


#: refine-study values at or below this fraction of the study's scale (the
#: exact energy for circle_energy, 1 otherwise) sit at the float floor
FLOOR_REL = 1e-12


def task_refine_study(cfg):
    """Values of one discretization error over mesh levels and the slope of
    log value against log h.  When a value is at most FLOOR_REL times the
    study's scale, no slope is fitted: fitted_slope is null and the report
    gains floor_limited = true."""
    spec = _optional(cfg, "refine")
    kind = spec.get("kind", "torus_mc")
    levels = _value(spec, "levels", [4, 8, 16], lambda xs: [as_integer(x) for x in xs])
    if len(levels) < 3 or any(a >= b for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"config key 'levels' needs at least 3 strictly "
                          f"increasing mesh levels, got {levels}")
    group = build_group(_section(cfg, "group"))
    rows = []           # [level, h, quantity, value]
    scale = 1.0         # the study's scale for FLOOR_REL
    if kind == "torus_mc":
        alpha = _value(spec, "alpha", [0.4, 0.0], _as_complex)
        beta = _value(spec, "beta", [-0.2, 0.0], _as_complex)
        for n in levels:
            mesh = mc.build_torus(n, n)
            rep = rv.torus_diag_rep(group, mesh, alpha, beta)
            f = hf.curved_torus_map(mesh, rep, **_given(spec, amplitude=as_real))
            ctx = TwistedComplex(mesh, rep, f)
            b = ctx.beta()
            res = TwistedCochain(2, ctx.d(b).values
                                 - ctx.bracket_wedge(b, b).values)
            rows.append([n, 1.0 / n, "mc_residual", ctx.norm(res, 2)])
    elif kind == "circle_energy":
        for n in levels:
            mesh = mc.build_circle(n)
            rep = rv.hyperbolic_circle_rep(group, mesh, **_given(spec, lam=as_real))
            # -g acts on the symmetric space as g does, so the sign of lam drops
            exact = scale = 4.0 * np.log(abs(rep.images["a"][0, 0])) ** 2
            _, rpt = hf.harmonic_map(rep, hf.constant_map(mesh, rep), **_flow_args(cfg))
            rows.append([n, 1.0 / n, "energy_error", abs(rpt.energy - exact)])
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
            rows.append([n, 1.0 / n, "harmonic_residual",
                         max(ctx.norm(ctx.d(om), 2), ctx.norm(ctx.codiff(om), 0))])
    else:
        raise ConfigError(f"unknown refine-study kind {kind!r}")
    values = [row[3] for row in rows]
    vals = np.asarray(values)
    hs = 1.0 / np.asarray(levels, dtype=float)
    floor_limited = bool(np.any(vals <= FLOOR_REL * scale))
    # a slope through rounding noise (or through exact zeros) measures nothing
    slope = None if floor_limited else float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
    monotone = bool(np.all(np.diff(vals) < 0))
    out = {"kind": kind, "levels": levels, "values": values,
           "fitted_slope": slope, "monotone_decreasing": monotone}
    if floor_limited:
        out["floor_limited"] = True
    return out, rows


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


def _failure(exc):
    """(exit code, status, stderr label, extra report fields) of a failed task."""
    # numpy's LinAlgError is a ValueError: a singular solve is not a config fault
    if isinstance(exc, (LinearSolverError, np.linalg.LinAlgError)):
        return EXIT_NONCONVERGED, "solver-error", "solver error", {}
    if isinstance(exc, hf.FlowNotConverged):
        return (EXIT_NONCONVERGED, "not-converged", "solver error",
                {"flow": exc.report.to_dict()})
    if isinstance(exc, ObstructedDeformationError):     # raised with defect > 0
        return (EXIT_OBSTRUCTED, "obstructed", "obstructed deformation",
                {"obstruction": {**exc.report.to_dict(),
                                 "witness": exc.report.witness.values.tolist()}})
    return EXIT_VALIDATION, "validation-error", "validation error", {}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="equivar-lab",
        description="equivariant harmonic map laboratory")
    parser.add_argument("task", choices=TASK_FUNCS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    payload = {"schema_version": SCHEMA_VERSION, "task": args.task,
               "config": cfg}
    table = TABLES.get(args.task)
    try:
        tols = _section(cfg, "tolerances")
        # the task reads converted copies; the report echoes the config as given
        run_cfg = dict(cfg, **_given(cfg, seed=as_integer), tolerances=dict(
            tols, **_given(tols, **dict.fromkeys(TOLERANCES, _tolerance))))
        result = TASK_FUNCS[args.task](run_cfg)
        payload["result"], rows = result if table else (result, None)
        payload["status"] = "ok"
        code = EXIT_OK
    except (ValueError, LinearSolverError, hf.FlowNotConverged,
            ObstructedDeformationError) as exc:
        code, payload["status"], label, extra = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        payload["error"] = str(exc)
        payload.update(extra)
    try:
        if table and code == EXIT_OK:
            write_csv(out_dir, *table, rows)
        elif table:
            (out_dir / table[0]).unlink(missing_ok=True)
        write_report(out_dir, args.task, payload)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
