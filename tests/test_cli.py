import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from equivarlab import cli
from equivarlab import symspace as ss
from equivarlab import twistedhodge as th
from equivarlab.twistedhodge import TwistedCochain, TwistedComplex
from test_meshcover import MESH_CORRUPTIONS, MESH_CORRUPTION_IDS, corrupted_mesh_json

#: reports of the ok and obstructed runs, keyed by a hash of (task, cfg, extra)
GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_path(task, cfg, extra):
    key = hashlib.sha256(json.dumps([task, cfg, list(extra)], sort_keys=True)
                         .encode()).hexdigest()[:12]
    return GOLDEN_DIR / f"{task.replace('-', '_')}_{key}.json"


def assert_matches_golden(got, want, where="report"):
    """Strings, ints and bools exactly; floats within 1e-12 max(1, |x|)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), \
                f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def run_cli(tmp_path, task, cfg, name="cfg.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main([task, "--config", str(cfg_path), "--out", str(out), *extra])
    report_path = out / f"{task.replace('-', '_')}_report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    if report is not None and report["status"] in ("ok", "obstructed"):
        golden = golden_path(task, cfg, extra)
        assert golden.exists(), f"no golden report {golden.name}"
        assert_matches_golden(report, json.loads(golden.read_text()))
    return code, report, out


PARABOLIC_CFG = {
    "mesh": {"kind": "circle", "n": 4},
    "group": {"kind": "sl", "n": 2, "field": "R"},
    "representation": {"family": "circle_parabolic"},
    "flow": {"max_iter": 40000},
}

OBSTRUCTED_CFG = {
    "mesh": {"kind": "torus", "n": 5, "m": 5},
    "group": {"kind": "sl", "n": 2, "field": "R"},
    "representation": {"family": "trivial"},
    "deformation": {"values": {"a": [[0, 1], [0, 0]], "b": [[0, 0], [0, 0]]}},
}


@pytest.fixture(scope="module")
def parabolic_run(tmp_path_factory):
    """The PARABOLIC_CFG flow run, checked against its golden, once for the
    tests that read it."""
    return run_cli(tmp_path_factory.mktemp("parabolic"), "flow", PARABOLIC_CFG)


def test_flow_parabolic_exit_zero(parabolic_run):
    code, report, _ = parabolic_run
    assert code == cli.EXIT_OK
    res = report["result"]["flow"]
    assert res["energy"] < 1e-3
    assert res["reductive_suspected"] is False
    assert res["converged"] is False


def test_deform2_obstructed_exit_four(tmp_path):
    code, report, _ = run_cli(tmp_path, "deform2", OBSTRUCTED_CFG)
    assert code == cli.EXIT_OBSTRUCTED
    assert report["status"] == "obstructed"
    assert report["obstruction"]["defect"] > 1e-3
    W = np.asarray(report["obstruction"]["witness"])[0]
    W = W[..., 0] + 1j * W[..., 1]
    W = W / np.sqrt(abs(np.trace(W @ np.conj(W).T)))
    target = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(np.trace(W @ target)) - 1.0) < 1e-8


def test_malformed_mesh_exit_two(tmp_path):
    bad = tmp_path / "bad_mesh.json"
    bad.write_text("{this is not json")
    cfg = dict(PARABOLIC_CFG, mesh={"kind": "json", "path": str(bad)})
    code, report, _ = run_cli(tmp_path, "flow", cfg)
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("mesh_name, path, value, error", MESH_CORRUPTIONS,
                         ids=MESH_CORRUPTION_IDS)
def test_corrupted_mesh_json_exit_two(tmp_path, mesh_name, path, value, error):
    # CoverMesh.check refuses each corruption before the flow reads it
    bad = tmp_path / "bad_mesh.json"
    bad.write_text(corrupted_mesh_json(mesh_name, path, value))
    cfg = dict(OBSTRUCTED_CFG, mesh={"kind": "json", "path": str(bad)})
    code, report, _ = run_cli(tmp_path, "flow", cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert error in report["error"]


@pytest.mark.parametrize("task", ["flow", "energy", "hodge", "deform1", "deform2",
                                  "variation", "psh", "critical-scan"])
def test_invalid_representation_exit_two(tmp_path, task):
    cfg = {
        "mesh": {"kind": "torus", "n": 4, "m": 4},
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "representation": {"inline": {"images": {
            "a": [[2.0, 0.0], [0.0, 0.5]],
            "b": [[1.0, 1.0], [0.0, 1.0]]}}},   # a, b do not commute
    }
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["error"] == "representation fails the relator check"


@pytest.mark.parametrize("task, section, value", [
    ("flow", "mesh", None), ("flow", "group", None),
    ("flow", "representation", None), ("deform1", "deformation", None),
    ("flow", "tolerances", [1e-8])],
    ids=["mesh", "group", "representation", "deformation", "tolerances"])
def test_malformed_config_section_exit_two(tmp_path, task, section, value):
    # a section that is missing (None) or not an object is a validation
    # error with a report, not a crash
    cfg = dict(OBSTRUCTED_CFG)
    if value is None:
        del cfg[section]
    else:
        cfg[section] = value
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert repr(section) in report["error"]


@pytest.mark.parametrize("task, section, value, key", [
    ("flow", "representation", {"inline": {}}, "images"),
    ("flow", "mesh", {"kind": "json"}, "path"),
    ("flow", "mesh", {"kind": "json", "path": "no_such_mesh.json"},
     "no_such_mesh.json"),
    ("variation", "deformation", {"path_family": {"kind": "commuting_exp"}}, "B"),
    ("variation", "deformation", {"path_family": {"kind": "conjugation"}}, "xi"),
    ("deform1", "deformation", {"path_family": {"kind": "bending"}},
     "a1, b1, a2 and b2"),
    ("flow", "representation", {"family": "trivial", "params": [0.4]}, "params"),
    ("flow", "flow", [1000], "flow")],
    ids=["inline-images", "mesh-path", "mesh-file", "commuting-B",
         "conjugation-xi", "bending-genus2", "params-list", "flow-list"])
def test_malformed_config_value_exit_two(tmp_path, task, section, value, key):
    # a missing key inside a section, a section of the wrong type, an
    # unreadable mesh file or a bending path on the torus (which has no a1)
    # is a validation error with a report
    cfg = dict(OBSTRUCTED_CFG, **{section: value})
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert key in report["error"]


@pytest.mark.parametrize("task, section, value, key", [
    ("flow", "mesh", {"kind": "torus", "n": [4]}, "n"),
    ("flow", "representation",
     {"family": "torus_diag", "params": {"alpha": {"x": 1}}}, "alpha"),
    ("flow", "representation",
     {"family": "circle_hyperbolic", "params": {"lam": [2]}}, "lam"),
    ("flow", "flow", {"max_iter": [5]}, "max_iter"),
    ("refine-study", "refine", {"levels": [4, [8], 16]}, "levels"),
    ("flow", "seed", {"a": 1}, "seed"),
    ("flow", "tolerances", {"validation": "x"}, "validation"),
    ("flow", "tolerances", {"flow_tol": [1e-8]}, "flow_tol"),
    ("flow", "flow", {"start": "Random"}, "start")],
    ids=["mesh-n", "torus_diag-alpha", "circle_hyperbolic-lam", "flow-max_iter",
         "refine-levels", "seed", "tolerance-validation", "tolerance-flow_tol",
         "flow-start"])
def test_config_scalar_of_wrong_type_exit_two(tmp_path, task, section, value, key):
    # a config value that int, float or complex cannot convert is a
    # validation error with a report that names its key, not a TypeError
    cfg = dict(OBSTRUCTED_CFG, **{section: value})
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert f"config key {key!r}" in report["error"]


def test_unknown_representation_family_lists_the_families(tmp_path):
    cfg = dict(PARABOLIC_CFG, representation={"family": "nope"})
    code, report, _ = run_cli(tmp_path, "flow", cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["error"] == (
        "unknown representation family 'nope' (available: circle_hyperbolic, "
        "circle_parabolic, circle_elliptic, torus_diag, torus_gl1c, "
        "torus_unitary, trivial, genus2_fuchsian)")


def test_unconverged_flow_exit_three(tmp_path):
    # a task that needs a harmonic metric refuses an unconverged flow with
    # a report that carries the flow
    cfg = {
        "mesh": {"kind": "torus", "n": 4, "m": 4},
        "group": {"kind": "sl", "n": 2, "field": "C"},
        "representation": {"family": "torus_diag"},
        "flow": {"max_iter": 1},
    }
    code, report, _ = run_cli(tmp_path, "hodge", cfg)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "not-converged"
    assert report["error"].startswith("flow did not converge")
    assert report["flow"]["iterations"] == 1
    assert report["flow"]["converged"] is False
    assert "result" not in report


def test_reports_deterministic(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(OBSTRUCTED_CFG))
    cli.main(["deform2", "--config", str(cfg_path), "--out", str(d1)])
    cli.main(["deform2", "--config", str(cfg_path), "--out", str(d2)])
    assert (d1 / "deform2_report.json").read_bytes() \
        == (d2 / "deform2_report.json").read_bytes()


def test_report_embeds_config_and_tolerances(parabolic_run):
    code, report, _ = parabolic_run
    assert report["config"]["mesh"] == PARABOLIC_CFG["mesh"]
    assert "flow_tol" in report["config"]["tolerances"]
    assert report["schema_version"] == cli.SCHEMA_VERSION


HODGE_CFG = {
    "mesh": {"kind": "torus", "n": 5, "m": 5},
    "group": {"kind": "sl", "n": 2, "field": "C"},
    "representation": {"family": "torus_diag",
                       "params": {"alpha": [0.4, 0.3], "beta": [-0.2, 0.5]}},
}


def test_hodge_task(tmp_path):
    code, report, out = run_cli(tmp_path, "hodge", HODGE_CFG)
    assert code == cli.EXIT_OK
    res = report["result"]
    assert res["d_squared"] < 1e-12
    assert res["adjunction"] < 1e-10
    assert res["hodge_reconstruction"] < 1e-8
    assert res["harmonic_d"] < 1e-10
    assert res["harmonic_codiff"] < 1e-10
    assert res["kernel_dim"] == 2
    assert res["jacobi_min_eigenvalue"] > -1e-10
    assert (out / "jacobi_spectrum.csv").exists()


CIRCLE_CFG = {
    "mesh": {"kind": "circle", "n": 8},
    "group": {"kind": "sl", "n": 2, "field": "C"},
    "representation": {"family": "circle_hyperbolic"},
}


def test_hodge_task_without_faces(tmp_path):
    # a circle has no faces: d of a 1-cochain is an empty 2-cochain of norm
    # 0.0, and the Hodge decomposition has no coexact part
    code, report, _ = run_cli(tmp_path, "hodge", CIRCLE_CFG)
    assert code == cli.EXIT_OK
    res = report["result"]
    assert res["d_squared"] == 0.0 and res["harmonic_d"] == 0.0
    assert res["hodge_reconstruction"] < 1e-12
    assert res["harmonic_codiff"] < 1e-10
    assert res["kernel_dim"] == 2


def test_deform2_task_without_faces(tmp_path):
    cfg = dict(CIRCLE_CFG, deformation={"values": {"a": [[1, 0], [0, -1]]}})
    code, report, _ = run_cli(tmp_path, "deform2", cfg)
    assert code == cli.EXIT_OK
    res = report["result"]["residuals"]
    assert res["d_psi_plus_wedge"] == 0.0
    assert max(res.values()) < 1e-8


@pytest.mark.parametrize("task", ["flow", "hodge"])
def test_real_group_refuses_complex_images(tmp_path, task):
    # torus_diag with alpha = 0.4 + 0.3i has complex images; in
    # SL(2,R) coordinates their imaginary parts were once dropped unread
    cfg = dict(HODGE_CFG, group={"kind": "sl", "n": 2, "field": "R"})
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert report["error"] == "SL(n,R) element has imaginary part"


def test_tol_option_overrides_flow_tol(tmp_path):
    # the config's flow_tol 1e-2 alone stops the solve after 2 checks at
    # tension 1.8e-4
    cfg = {
        "mesh": {"kind": "circle", "n": 8},
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "representation": {"family": "circle_hyperbolic"},
        "tolerances": {"flow_tol": 1e-2},
    }
    code, report, _ = run_cli(tmp_path, "flow", cfg, extra=("--tol", "1e-12"))
    assert code == cli.EXIT_OK
    assert report["config"]["tolerances"]["flow_tol"] == 1e-12
    assert report["result"]["flow"]["tension"] < 1e-12


def test_hodge_harmonic_leaves_catch_a_wrong_coexact_part(tmp_path, monkeypatch):
    # harm = alpha - ex - coex hides any error of coex from the reconstruction
    decompose = TwistedComplex.hodge_decompose

    def scaled_coexact(self, alpha):
        ex, coex, _ = decompose(self, alpha)
        coex = TwistedCochain(1, 1.001 * coex.values)
        return ex, coex, TwistedCochain(1, alpha.values - ex.values - coex.values)

    monkeypatch.setattr(TwistedComplex, "hodge_decompose", scaled_coexact)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(HODGE_CFG))
    assert cli.main(["hodge", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    res = json.loads((tmp_path / "hodge_report.json").read_text())["result"]
    assert res["hodge_reconstruction"] < 1e-12
    assert res["harmonic_d"] > 1e-6


def test_solver_error_exit_three(tmp_path, monkeypatch):
    # a kernel cutoff that admits no centralizer leaves the trivial rep's
    # constant sections in the KKT matrix, whose factor is then singular
    monkeypatch.setattr(th, "KERNEL_RTOL", -1.0)
    cfg = {key: OBSTRUCTED_CFG[key] for key in ("mesh", "group", "representation")}
    code, report, _ = run_cli(tmp_path, "hodge", cfg)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "solver-error"
    assert report["error"] == ("singular KKT matrix with kernel_dim 0 "
                               "(kernel_rtol -1.0e+00)")
    assert "result" not in report


FAR_RANDOM_FLOW_CFG = {
    "mesh": {"kind": "torus", "n": 4, "m": 4},
    "group": {"kind": "sl", "n": 2, "field": "C"},
    "representation": {"family": "torus_diag"},
    "flow": {"start": "random", "scale": 11},
}


def test_singular_numpy_solve_exit_three(tmp_path, monkeypatch):
    # numpy's LinAlgError is a ValueError, but a LAPACK failure inside a
    # flow is the solver's, not the config's: an eigendecomposition that
    # does not converge, as LAPACK reports it, exits 3 with solver-error
    def no_convergence(P):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(ss, "_eigh", no_convergence)
    code, report, _ = run_cli(tmp_path, "flow", FAR_RANDOM_FLOW_CFG)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "solver-error"
    assert report["error"] == "Eigenvalues did not converge"


def test_far_random_flow_underflows_exit_zero(tmp_path):
    # the flow takes no LAPACK inverse, so this far start (scale 11) reaches
    # no singular matrix: its first step underflows and the run reports it.
    # Read directly, not through run_cli: the energy of the start is
    # dominated by rounding, so no golden pins its floats
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAR_RANDOM_FLOW_CFG))
    code = cli.main(["flow", "--config", str(cfg_path), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "flow_report.json").read_text())
    assert code == cli.EXIT_OK and report["status"] == "ok"
    flow = report["result"]["flow"]
    assert not flow["converged"] and flow["step_underflow"]
    assert flow["iterations"] == 1


def test_singular_point_inverse_exit_three(tmp_path, monkeypatch):
    # liealg.inv raises numpy's LinAlgError on a singular 2 x 2 block: a
    # vertex point zeroed after the Gram matrices are built reaches it
    # through the cached point inverses of first_order's Cartan split
    first_order = cli.first_order

    def singular_first_order(ctx, c):
        ctx.gram_vertex
        ctx.points = ctx.points.copy()
        ctx.points[0] = 0.0
        return first_order(ctx, c)
    monkeypatch.setattr(cli, "first_order", singular_first_order)
    code, report, _ = run_cli(tmp_path, "deform1", DIAG_DEFORM_CFG)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "solver-error"
    assert report["error"] == "Singular matrix"


DIAG_DEFORM_CFG = {
    "mesh": {"kind": "torus", "n": 4, "m": 4},
    "group": {"kind": "sl", "n": 2, "field": "C"},
    "representation": {"family": "torus_diag"},
    "deformation": {"values": {"a": [[1, 0], [0, -1]], "b": [[0, 0], [0, 0]]}},
}


def test_deform1_task(tmp_path):
    code, report, _ = run_cli(tmp_path, "deform1", DIAG_DEFORM_CFG)
    assert code == cli.EXIT_OK
    res = report["result"]
    assert res["flow"]["converged"] is True
    assert res["kernel_dim"] == 2
    assert max(res["residuals"].values()) < 1e-8
    assert res["obstruction"]["orthogonal"] is True
    assert res["obstruction"]["defect"] < 1e-12 * res["obstruction"]["scale"]


def test_deform2_task(tmp_path):
    # diagonal values commute, so (c, k) is a jet and nothing obstructs it
    deformation = dict(DIAG_DEFORM_CFG["deformation"],
                       second={"a": [[0.3, 0], [0, -0.3]], "b": [[0.1, 0], [0, -0.1]]})
    cfg = dict(DIAG_DEFORM_CFG, deformation=deformation)
    code, report, _ = run_cli(tmp_path, "deform2", cfg)
    assert code == cli.EXIT_OK
    res = report["result"]
    assert res["kernel_dim"] == 2
    assert max(res["residuals"].values()) < 1e-8
    assert res["obstruction"]["orthogonal"] is True


@pytest.mark.parametrize("task, deformation, error", [
    ("deform1", {"values": {"a": [[1, 0], [0, -1]], "b": [[0, 1e-9], [0, 0]]}},
     "cocycle does not satisfy the relator conditions"),
    ("deform2", {"values": {"a": [[1, 0], [0, -1]], "b": [[0, 0], [0, 0]]},
                 "second": {"a": [[0, 0], [0, 0]], "b": [[0, 1e-9], [0, 0]]}},
     "second-order values fail the jet cocycle law")],
    ids=["cocycle", "jet"])
def test_deformation_checked_at_the_validation_tolerance(tmp_path, task,
                                                        deformation, error):
    # the representation's relator residual is 2.6e-17; a value of 1e-9
    # leaves a residual of 1.5e-9 in the cocycle (or the jet), which passes
    # the default 1e-8 but not the configured 1e-12
    cfg = dict(DIAG_DEFORM_CFG, deformation=deformation,
               tolerances={"validation": 1e-12})
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert report["error"] == error


#: a valid commuting path next to values that are not a cocycle
BOTH_FORMS_DEFORMATION = {
    "values": {"a": [[0, 1], [0, 0]], "b": [[0, 0], [0, 0]]},
    "path_family": {"kind": "commuting_exp",
                    "B": {"a": [[1, 0], [0, -1]], "b": [[0, 0], [0, 0]]}}}

GENUS2_BENDING_CFG = {
    "mesh": {"kind": "genus2", "k": 1},
    "group": {"kind": "sl", "n": 2, "field": "C"},
    "representation": {"family": "genus2_fuchsian"},
    "deformation": {"path_family": {"kind": "bending"}},
}


@pytest.mark.parametrize("task", ["deform1", "deform2", "psh", "variation"])
def test_deformation_gives_one_form(tmp_path, task):
    # every deformation task reads the section through build_deformation,
    # so a config that gives both forms is refused by all four alike
    cfg = dict(DIAG_DEFORM_CFG, deformation=BOTH_FORMS_DEFORMATION)
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["error"] == ("deformation spec needs exactly one of "
                               "'values' and 'path_family'")


@pytest.mark.parametrize("task", ["deform1", "deform2", "psh", "variation"])
def test_path_family_jets_checked_at_the_validation_tolerance(tmp_path, task):
    # the Fuchsian relator residual is 3.6e-14 and the bending cocycle's
    # 6.4e-14, both inside 1e-13; the bending jet's is 2.7e-13, outside
    cfg = dict(GENUS2_BENDING_CFG, tolerances={"validation": 1e-13})
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["error"] == "second-order values fail the jet cocycle law"


def test_bending_imaginary_takes_only_a_boolean(tmp_path):
    # bool("false") is True, so the string once selected imaginary bending
    path = {"kind": "bending", "imaginary": "false"}
    cfg = dict(GENUS2_BENDING_CFG, deformation={"path_family": path})
    code, report, _ = run_cli(tmp_path, "deform1", cfg)
    assert code == cli.EXIT_VALIDATION
    assert "config key 'imaginary'" in report["error"]


@pytest.mark.parametrize("task", ["deform1", "deform2", "psh", "variation"])
def test_second_values_next_to_a_path_family_exit_two(tmp_path, task):
    # the path's own jets are the deformation; second values beside them
    # were once dropped without a word
    deformation = {"path_family": BOTH_FORMS_DEFORMATION["path_family"],
                   "second": {"a": [[0, 0], [0, 0]], "b": [[0, 0], [0, 0]]}}
    cfg = dict(DIAG_DEFORM_CFG, deformation=deformation)
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert "'second'" in report["error"]


@pytest.mark.parametrize("task, section, value", [
    ("deform1", "deformation",
     {"values": {"a": [[[1], [0]], [[0], [-1]]], "b": [[0, 0], [0, 0]]}}),
    ("deform1", "deformation",
     {"values": {"a": [[[1, 0, 5], [0, 0, 5]], [[0, 0, 5], [-1, 0, 5]]],
                 "b": [[0, 0], [0, 0]]}}),
    ("flow", "representation",
     {"inline": {"images": {"a": [[[2], [0]], [[0], [0.5]]],
                            "b": [[1, 0], [0, 1]]}}})],
    ids=["one-number", "three-numbers", "inline-images"])
def test_complex_matrix_entries_are_pairs(tmp_path, task, section, value):
    # a complex matrix entry is an [re, im] pair: one number crashed the
    # reader, and a third number was dropped without a word
    cfg = dict(DIAG_DEFORM_CFG, **{section: value})
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert "[re, im] pairs" in report["error"]


def test_commuting_path_missing_a_generator_exit_two(tmp_path):
    path = {"kind": "commuting_exp", "B": {"a": [[1, 0], [0, -1]]}}
    cfg = dict(DIAG_DEFORM_CFG, deformation={"path_family": path})
    code, report, _ = run_cli(tmp_path, "deform1", cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert "['b']" in report["error"]


def test_converged_context_honours_the_drift_radius(tmp_path):
    # every task reads the flow section alike: hodge, like flow, stops
    # unconverged once the basepoint leaves the configured drift radius
    cfg = {
        "mesh": {"kind": "circle", "n": 4},
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "representation": {"family": "circle_hyperbolic"},
        "flow": {"drift_radius": 1e-9},
    }
    code, report, _ = run_cli(tmp_path, "hodge", cfg)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "not-converged"
    assert report["flow"]["converged"] is False


def test_variation_without_a_path_family_exit_two(tmp_path):
    code, report, _ = run_cli(tmp_path, "variation", DIAG_DEFORM_CFG)
    assert code == cli.EXIT_VALIDATION
    assert "'path_family'" in report["error"]


@pytest.mark.parametrize("n_starts", [0, -1])
def test_energy_without_starts_exit_two(tmp_path, n_starts):
    # no start means no flow to report: a validation error, not a crash
    cfg = dict(DIAG_DEFORM_CFG, flow={"n_starts": n_starts})
    code, report, _ = run_cli(tmp_path, "energy", cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert "n_starts" in report["error"]


def test_variation_task(tmp_path):
    cfg = {
        "mesh": {"kind": "torus", "n": 5, "m": 5},
        "group": {"kind": "gl1c"},
        "representation": {"family": "torus_gl1c",
                           "params": {"z1": [0.5, 1.0], "z2": [-0.3, 0.2]}},
        "deformation": {"path_family": {
            "kind": "commuting_exp",
            "B": {"a": [[[0.3, -0.2]]], "b": [[[0.1, 0.4]]]}}},
    }
    code, report, out = run_cli(tmp_path, "variation", cfg)
    assert code == cli.EXIT_OK
    res = report["result"]
    assert res["first_rel_err"] < 1e-3
    assert res["second_rel_err"] < 1e-2
    assert (out / "variation_fd.csv").exists()


def test_psh_task(tmp_path):
    cfg = {
        "mesh": {"kind": "torus", "n": 5, "m": 5},
        "group": {"kind": "gl1c"},
        "representation": {"family": "torus_gl1c",
                           "params": {"z1": [0.5, 1.0], "z2": [-0.3, 0.2]}},
        "deformation": {"path_family": {
            "kind": "commuting_exp",
            "B": {"a": [[[0.3, -0.2]]], "b": [[[0.1, 0.4]]]}}},
    }
    code, report, _ = run_cli(tmp_path, "psh", cfg)
    assert code == cli.EXIT_OK
    assert report["result"]["psh"]["defect"] < 1e-10


def test_critical_scan_task(tmp_path):
    cfg = {
        "mesh": {"kind": "torus", "n": 4, "m": 4},
        "group": {"kind": "sl", "n": 2, "field": "C"},
        "representation": {"family": "torus_unitary"},
    }
    code, report, out = run_cli(tmp_path, "critical-scan", cfg)
    assert code == cli.EXIT_OK
    assert report["result"]["scan"]["max_normalized"] < 1e-9
    assert (out / "critical_scan.csv").exists()


def test_critical_scan_genus2_fuchsian(tmp_path):
    # the Fuchsian point is harmonic and critical on the genus-2 mesh too
    cfg = {
        "mesh": {"kind": "genus2", "k": 1},
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "representation": {"family": "genus2_fuchsian"},
    }
    code, report, _ = run_cli(tmp_path, "critical-scan", cfg)
    assert code == cli.EXIT_OK
    assert report["result"]["flow"]["converged"] is True
    assert report["result"]["scan"]["basis_size"] == 9
    assert report["result"]["scan"]["max_normalized"] < 1e-9


def test_refine_study_torus_mc(tmp_path):
    cfg = {
        "group": {"kind": "sl", "n": 2, "field": "C"},
        "refine": {"kind": "torus_mc", "levels": [4, 8, 16]},
    }
    code, report, out = run_cli(tmp_path, "refine-study", cfg)
    assert code == cli.EXIT_OK
    assert report["result"]["monotone_decreasing"] is True
    # values of order 1: a slope is fitted and no floor flag is set
    assert isinstance(report["result"]["fitted_slope"], float)
    assert "floor_limited" not in report["result"]
    csv_text = (out / "refine_study.csv").read_text()
    assert csv_text.startswith("level,h,quantity,value")
    assert len(csv_text.strip().splitlines()) == 4


def test_refine_study_circle_energy(tmp_path):
    cfg = {
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "refine": {"kind": "circle_energy", "levels": [4, 8, 16], "lam": 2.0},
    }
    code, report, _ = run_cli(tmp_path, "refine-study", cfg)
    assert code == cli.EXIT_OK
    # discrete geodesic is exact: errors at the solver floor at every level
    assert max(report["result"]["values"]) < 1e-8
    # so no slope is fitted through the rounding noise
    assert report["result"]["fitted_slope"] is None
    assert report["result"]["floor_limited"] is True


def test_refine_study_trivial_residuals(tmp_path):
    cfg = {
        "group": {"kind": "gl1c"},
        "refine": {"kind": "harmonic_residuals", "levels": [4, 6, 8],
                   "alpha": [0.0, 0.0], "beta": [0.0, 0.0]},
    }
    code, report, _ = run_cli(tmp_path, "refine-study", cfg)
    assert code == cli.EXIT_OK
    assert max(report["result"]["values"]) < 1e-10
    assert report["result"]["fitted_slope"] is None
    assert report["result"]["floor_limited"] is True


def test_refine_study_torus_diag_residuals(tmp_path):
    cfg = {
        "group": {"kind": "sl", "n": 2, "field": "C"},
        "refine": {"kind": "harmonic_residuals", "levels": [4, 6, 8]},
    }
    code, report, _ = run_cli(tmp_path, "refine-study", cfg)
    assert code == cli.EXIT_OK
    assert max(report["result"]["values"]) < 1e-10
    assert report["result"]["floor_limited"] is True


def strict_json(text):
    """json.loads that refuses NaN and infinities, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def circle_energy_result(tmp_path, lam):
    """The result of a refine-study circle_energy run on SL(2,R) at levels
    4, 8 and 16, read by strict_json."""
    out = tmp_path / f"lam{lam}"
    out.mkdir()
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps({
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "refine": {"kind": "circle_energy", "levels": [4, 8, 16], "lam": lam}}))
    code = cli.main(["refine-study", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_OK
    return strict_json((out / "refine_study_report.json").read_text())["result"]


def test_refine_study_circle_energy_negative_lam(tmp_path):
    # -g acts on the symmetric space as g does; the exact energy once read
    # log(lam) and turned every value into NaN
    neg = circle_energy_result(tmp_path, -2.0)
    assert neg == circle_energy_result(tmp_path, 2.0)
    assert neg["fitted_slope"] is None and neg["floor_limited"] is True


def test_refine_study_exact_zeros_are_floor_limited(tmp_path):
    # lam = 1 is the trivial representation: every value and the exact
    # energy are 0.0, and a slope was once fitted through them as NaN
    res = circle_energy_result(tmp_path, 1.0)
    assert res["values"] == [0.0, 0.0, 0.0]
    assert res["fitted_slope"] is None and res["floor_limited"] is True


@pytest.mark.parametrize("levels", [[4, 4, 4], [4, 8, 6]], ids=["equal", "decreasing"])
def test_refine_study_levels_must_increase(tmp_path, levels):
    # a slope through equal mesh sizes was once fitted with a RankWarning
    cfg = {
        "group": {"kind": "sl", "n": 2, "field": "C"},
        "refine": {"kind": "torus_mc", "levels": levels},
    }
    code, report, _ = run_cli(tmp_path, "refine-study", cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert "config key 'levels'" in report["error"]


@pytest.mark.parametrize("group, refine, built", [
    ({"kind": "sl", "n": 2, "field": "C"},
     {"kind": "torus_mc", "levels": [4, 8, 16]}, False),
    ({"kind": "gl1c"},
     {"kind": "harmonic_residuals", "levels": [4, 6, 8],
      "alpha": [0.0, 0.0], "beta": [0.0, 0.0]}, True)],
    ids=["torus_mc", "harmonic_residuals"])
def test_refine_study_builds_only_the_operators_it_reads(tmp_path, monkeypatch,
                                                        group, refine, built):
    # the Maurer-Cartan levels read d1, the face transports, G2 and beta;
    # the harmonic representative needs the kernel-bordered solve as well
    complexes = []

    class Recording(TwistedComplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            complexes.append(self)

    monkeypatch.setattr(cli, "TwistedComplex", Recording)
    code, _, _ = run_cli(tmp_path, "refine-study", {"group": group, "refine": refine})
    assert code == cli.EXIT_OK
    assert len(complexes) == 3
    for ctx in complexes:
        for name in ("kernel", "A0", "G0", "G1", "d0"):
            assert (name in vars(ctx)) is built, name
        assert "d1" in vars(ctx) and "G2" in vars(ctx)


def test_energy_task_unitary(tmp_path):
    cfg = {
        "mesh": {"kind": "torus", "n": 4, "m": 4},
        "group": {"kind": "sl", "n": 2, "field": "C"},
        "representation": {"family": "torus_unitary"},
    }
    code, report, _ = run_cli(tmp_path, "energy", cfg)
    assert code == cli.EXIT_OK
    assert report["result"]["energy"] < 1e-10
    assert report["result"]["reductive_suspected"] is True
