import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from equivarlab import cli
from equivarlab import harmonicflow as hf
from equivarlab import repvar as rv
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


def test_flow_parabolic_exit_zero(parabolic_run):
    code, report, _ = parabolic_run
    assert code == cli.EXIT_OK
    res = report["result"]["flow"]
    assert res["energy"] < 1e-3
    assert res["reductive_suspected"] is False
    assert res["converged"] is False


def test_deform2_obstructed_exit_four(tmp_path, capsys):
    code, report, _ = run_cli(tmp_path, "deform2", OBSTRUCTED_CFG)
    assert code == cli.EXIT_OBSTRUCTED
    assert report["status"] == "obstructed"
    assert capsys.readouterr().err == f"obstructed deformation: {report['error']}\n"
    assert report["obstruction"]["defect"] > 1e-3
    # a projection onto the constant kernel sections of the trivial rep:
    # one value, bit for bit, at every vertex
    W = np.asarray(report["obstruction"]["witness"])
    assert np.array_equal(W, np.broadcast_to(W[0], W.shape))
    W = W[0, ..., 0] + 1j * W[0, ..., 1]
    W = W / np.sqrt(abs(np.trace(W @ np.conj(W).T)))
    target = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(np.trace(W @ target)) - 1.0) < 1e-8


def test_obstructed_exit_four_carries_the_deform1_obstruction(tmp_path):
    # the exit-4 section is deform1's obstruction report plus the witness:
    # the same keys, and scale is |omega|^2 in both
    _, report, _ = run_cli(tmp_path, "deform2", OBSTRUCTED_CFG)
    _, first = main_report(tmp_path, "deform1", "deform1", OBSTRUCTED_CFG)
    first = json.loads(first)["result"]["obstruction"]
    got = report["obstruction"]
    assert got.keys() == first.keys() | {"witness"}
    assert got["orthogonal"] is first["orthogonal"] is False
    assert got["scale"] == first["scale"]
    assert abs(got["scale"] - 1.0) < 1e-12


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


MATRIX_ENTRIES = "matrix entries must be numbers"


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
    ("flow", "flow", [1000], "flow"),
    ("flow", "representation", {"inline": {"images": {
        "a": [["1", 0], [0, 1]], "b": [[1, 0], [0, 1]]}}}, MATRIX_ENTRIES),
    ("flow", "representation", {"inline": {"images": {
        "a": [[True, 0], [0, True]], "b": [[1, 0], [0, 1]]}}}, MATRIX_ENTRIES),
    ("deform1", "deformation", {"values": {
        "a": [[0, "1"], [0, 0]], "b": [[0, 0], [0, 0]]}}, MATRIX_ENTRIES),
    ("deform2", "deformation", dict(OBSTRUCTED_CFG["deformation"], second={
        "a": [[None, 0], [0, 0]], "b": [[0, 0], [0, 0]]}), MATRIX_ENTRIES),
    ("flow", "representation", {"inline": {"images": {
        "a": [[10 ** 400, 0], [0, 1]], "b": [[1, 0], [0, 1]]}}}, MATRIX_ENTRIES)],
    ids=["inline-images", "mesh-path", "mesh-file", "commuting-B",
         "conjugation-xi", "bending-genus2", "params-list", "flow-list",
         "image-string", "image-bool", "values-string", "second-null",
         "image-overflow"])
def test_malformed_config_value_exit_two(tmp_path, task, section, value, key):
    # a missing key inside a section, a section of the wrong type, an
    # unreadable mesh file, a bending path on the torus (which has no a1) or
    # a matrix entry that is not a number (numpy once read "1" and true as
    # 1.0, and null as NaN) or overflows a float (once a traceback) is a
    # validation error with a report
    cfg = dict(OBSTRUCTED_CFG, **{section: value})
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert key in report["error"]


SL2C = {"kind": "sl", "n": 2, "field": "C"}
TORUS4_SL2C = {"mesh": {"kind": "torus", "n": 4, "m": 4}, "group": SL2C}


@pytest.mark.parametrize("task, overrides, key", [
    ("flow", {"mesh": {"kind": "torus", "n": [4]}}, "n"),
    ("flow", {"representation":
              {"family": "torus_diag", "params": {"alpha": {"x": 1}}}}, "alpha"),
    ("flow", {"representation":
              {"family": "circle_hyperbolic", "params": {"lam": [2]}}}, "lam"),
    ("flow", {"flow": {"max_iter": [5]}}, "max_iter"),
    ("refine-study", {"refine": {"levels": [4, [8], 16]}}, "levels"),
    ("flow", {"seed": {"a": 1}}, "seed"),
    ("flow", {"tolerances": {"validation": "x"}}, "validation"),
    ("flow", {"tolerances": {"flow_tol": [1e-8]}}, "flow_tol"),
    ("flow", {"tolerances": {"flow_tol": 0}}, "flow_tol"),
    ("flow", {"tolerances": {"validation": -1}}, "validation"),
    ("flow", {"tolerances": {"rel_obstruction": float("nan")}}, "rel_obstruction"),
    ("flow", {"flow": {"start": "Random"}}, "start"),
    ("flow", {"mesh": {"kind": "torus", "n": 8.9}}, "n"),
    ("flow", {"mesh": {"kind": "torus", "n": float("inf")}}, "n"),
    ("flow", {"mesh": {"kind": "torus", "n": "8"}}, "n"),
    ("flow", {"seed": True}, "seed"),
    ("refine-study", {"refine": {"levels": [4, 8.5, 16]}}, "levels"),
    ("flow", {"tolerances": {"flow_tol": True}}, "flow_tol"),
    ("flow", {"representation":
              {"family": "circle_hyperbolic", "params": {"lam": "3"}}}, "lam"),
    ("flow", {"group": SL2C, "representation":
              {"family": "torus_diag", "params": {"alpha": "0.4"}}}, "alpha")],
    ids=["mesh-n", "torus_diag-alpha", "circle_hyperbolic-lam", "flow-max_iter",
         "refine-levels", "seed", "tolerance-validation", "tolerance-flow_tol",
         "tolerance-zero", "tolerance-negative", "tolerance-nan", "flow-start",
         "mesh-n-fraction", "mesh-n-inf", "mesh-n-string", "seed-bool",
         "refine-levels-fraction", "tolerance-bool",
         "circle_hyperbolic-lam-string", "torus_diag-alpha-string"])
def test_config_scalar_of_wrong_type_exit_two(tmp_path, task, overrides, key):
    # a config value that is not a number (a bool or a string among them),
    # an integer key given a fraction or a non-finite number, or a tolerance
    # that is not finite and above zero, is a validation error with a report
    # that names its key, not a TypeError, a solver fault or a run at 1.0
    cfg = dict(OBSTRUCTED_CFG, **overrides)
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert f"config key {key!r}" in report["error"]


#: (family, mesh, group, repvar builder) of every cli.FAMILIES entry, on a
#: mesh the family fits; an omitted mesh or group key takes its default too
FAMILY_BUILDERS = [
    ("circle_hyperbolic", {"kind": "circle", "n": 4}, {}, rv.hyperbolic_circle_rep),
    ("circle_parabolic", {"kind": "circle", "n": 4}, {}, rv.parabolic_circle_rep),
    ("circle_elliptic", {"kind": "circle", "n": 4}, {}, rv.elliptic_circle_rep),
    ("torus_diag", {"kind": "torus", "n": 4}, SL2C, rv.torus_diag_rep),
    ("torus_gl1c", {"kind": "torus", "n": 4}, {"kind": "gl1c"}, rv.torus_gl1c_rep),
    ("torus_unitary", {"kind": "torus", "n": 4}, SL2C, rv.torus_unitary_rep),
    ("trivial", {"kind": "torus", "n": 4}, {}, rv.trivial_rep),
    ("genus2_fuchsian", {"kind": "genus2"}, {}, rv.genus2_fuchsian_rep),
]


def test_family_builders_cover_the_family_table():
    assert [family for family, *_ in FAMILY_BUILDERS] == list(cli.FAMILIES)


@pytest.mark.parametrize("family, mesh, group, builder", FAMILY_BUILDERS,
                         ids=[family for family, *_ in FAMILY_BUILDERS])
def test_family_without_params_takes_the_builder_defaults(family, mesh, group, builder):
    # each default is declared once, by the builder: a config without
    # params builds the images of the builder called without them
    mesh, group, rep = cli.build_problem({
        "mesh": mesh, "group": group, "representation": {"family": family},
        "tolerances": cli.TOLERANCES})
    want = builder(group, mesh)
    assert rep.generators == want.generators
    for name in rep.generators:
        assert np.array_equal(rep.images[name], want.images[name]), name


def test_unknown_representation_family_lists_the_families(tmp_path):
    cfg = dict(PARABOLIC_CFG, representation={"family": "nope"})
    code, report, _ = run_cli(tmp_path, "flow", cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["error"] == (
        "unknown representation family 'nope' (available: circle_hyperbolic, "
        "circle_parabolic, circle_elliptic, torus_diag, torus_gl1c, "
        "torus_unitary, trivial, genus2_fuchsian)")


def genus2_bending(family, field):
    """Config of the bending path at genus-2 depth 1 from the given family."""
    return {"mesh": {"kind": "genus2", "k": 1},
            "group": {"kind": "sl", "n": 2, "field": field},
            "representation": {"family": family},
            "deformation": {"path_family": {"kind": "bending"}}}


ZERO2 = [[0, 0], [0, 0]]

def hyperbolic_lam(lam):
    """PARABOLIC_CFG's circle 4 in SL(2,R) with the hyperbolic image at lam."""
    return dict(PARABOLIC_CFG, representation={"family": "circle_hyperbolic",
                                               "params": {"lam": lam}})


#: a cocycle that passes the relator check of the trivial torus 5, whose
#: harmonic representative overflows in the solve
OVERFLOW_COCYCLE_CFG = dict(OBSTRUCTED_CFG, deformation={
    "values": {"a": [[0, 1e308], [0, 0]], "b": ZERO2}})

#: the genus-2 Fuchsian point with a cocycle whose relator word values overflow
WORD_OVERFLOW_CFG = {"mesh": {"kind": "genus2", "k": 1},
                     "group": {"kind": "sl", "n": 2, "field": "R"},
                     "representation": {"family": "genus2_fuchsian"},
                     "deformation": {"values": {"a1": [[1e308, 0], [0, -1e308]], "b1": ZERO2,
                                                "a2": ZERO2, "b2": ZERO2}}}

#: the circle has no relators, so only check_algebra sees these values
NAN_COCYCLE_CFG = dict(PARABOLIC_CFG, representation={"family": "circle_hyperbolic"},
                       deformation={"values": {"a": [[math.nan, 1], [0, math.nan]]}})


@pytest.mark.parametrize("task, cfg, error", [
    ("flow", dict(PARABOLIC_CFG, mesh={"kind": "nope"}), "unknown mesh kind 'nope'"),
    ("deform1", dict(OBSTRUCTED_CFG, deformation={"path_family": {"kind": "nope"}}),
     "unknown path kind 'nope'"),
    ("psh", OBSTRUCTED_CFG, "psh task needs a complex group"),
    ("refine-study", {"group": OBSTRUCTED_CFG["group"], "refine": {"kind": "nope"}},
     "unknown refine-study kind 'nope'"),
    ("flow", dict(PARABOLIC_CFG, group={"kind": "so", "n": 3}), "unknown group kind 'so'"),
    ("flow", dict(PARABOLIC_CFG, group={"kind": "sl", "field": "Q"}),
     "field must be 'R' or 'C', got 'Q'"),
    ("flow", dict(PARABOLIC_CFG, group={"kind": "sl", "n": 1}), "sl requires n >= 2"),
    ("flow", dict(PARABOLIC_CFG, mesh={"kind": "genus2", "k": 0}),
     "subdivision depth must be >= 1"),
    ("flow", dict(OBSTRUCTED_CFG, group={"kind": "gl1c"},
                  representation={"family": "torus_diag"}),
     "expected 1x1 matrix, got (2, 2)"),
    ("flow", dict(PARABOLIC_CFG, representation={"inline": {"images": {
        "a": [[math.nan, 0], [0, 1]]}}}), "non-finite entries in group element"),
    ("flow", dict(PARABOLIC_CFG, group={"kind": "gl1c"},
                  representation={"inline": {"images": {"a": [[0.0]]}}}),
     "singular matrix is not a group element"),
    ("flow", dict(OBSTRUCTED_CFG, representation={"inline": {"images": {
        "a": [[1, 0], [0, 1]]}}}), "missing image for generator 'b'"),
    ("deform1", dict(OBSTRUCTED_CFG, deformation={"values": {"a": [[0]], "b": [[0]]}}),
     "expected 2x2 matrix, got (1, 1)"),
    ("deform1", dict(OBSTRUCTED_CFG, deformation={"values": {"a": ZERO2}}),
     "missing cocycle value for generator 'b'"),
    ("deform2", dict(OBSTRUCTED_CFG, deformation=dict(OBSTRUCTED_CFG["deformation"],
                                                      second={"a": ZERO2})),
     "missing second-order value for 'b'"),
    ("deform1", dict(OBSTRUCTED_CFG, deformation={"path_family": {
        "kind": "commuting_exp", "B": {"a": ZERO2, "b": ZERO2}}}),
     "commuting_exp_path needs a rep built by exp_family"),
    ("deform1", genus2_bending("trivial", "C"), "commutator is central, no bending axis"),
    ("deform1", genus2_bending("genus2_fuchsian", "R"),
     "imaginary bending requires a complex group"),
    ("flow", dict(OBSTRUCTED_CFG, flow={"start": "random", "scale": 3, "max_iter": 0}),
     "max_iter must be at least 1, not 0"),
    ("hodge", dict(OBSTRUCTED_CFG, flow={"max_iter": -1}),
     "max_iter must be at least 1, not -1"),
    ("energy", dict(OBSTRUCTED_CFG, flow={"max_iter": 0}),
     "max_iter must be at least 1, not 0"),
    ("deform1", NAN_COCYCLE_CFG, "non-finite entries in algebra element"),
    ("deform2", NAN_COCYCLE_CFG, "non-finite entries in algebra element"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "torus_mc", "amplitude": math.nan}},
     "amplitude nan is not finite"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "torus_mc", "amplitude": math.inf}},
     "amplitude inf is not finite"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "torus_mc", "amplitude": 10}},
     "curved test map at amplitude 10.0 is not finite"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "torus_mc", "amplitude": 6}},
     "curved test map at amplitude 6.0 has lost its determinant "
     "(eps cond(P) = 7.5e-06 > 1e-8)"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "torus_mc", "amplitude": 1e308}},
     "curved test map at amplitude 1e+308 is not finite"),
    ("psh", dict(genus2_bending("genus2_fuchsian", "C"), deformation={
        "path_family": {"kind": "bending", "imaginary": True, "scale": 1e308}}),
     "bending path has non-finite jets"),
    ("variation", dict(TORUS4_SL2C, representation={"family": "torus_diag"},
                       deformation={"path_family": {
                           "kind": "conjugation", "xi": [[-1e308, 0], [0, 1e308]]}}),
     "conjugation path has non-finite jets"),
    ("flow", hyperbolic_lam(0), "lam must be nonzero, not 0.0"),
    ("refine-study", {"group": PARABOLIC_CFG["group"],
                      "refine": {"kind": "circle_energy", "lam": 0}},
     "lam must be nonzero, not 0.0"),
    ("flow", hyperbolic_lam(1e160), "start map has non-finite energy"),
    ("energy", hyperbolic_lam(1e160), "start map has non-finite energy"),
    ("flow", dict(PARABOLIC_CFG, representation={"family": "circle_hyperbolic"},
                  flow={"start": "random", "scale": 1000}),
     "start map has non-finite energy"),
    ("flow", dict(TORUS4_SL2C, representation={"family": "torus_diag",
                                               "params": {"alpha": [800, 0]}}),
     "non-finite entries in group element"),
    ("flow", dict(TORUS4_SL2C, group={"kind": "gl1c"}, representation={
        "family": "torus_gl1c", "params": {"z1": [800, 0]}}),
     "non-finite entries in group element"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "torus_mc", "alpha": [800, 0]}},
     "non-finite entries in group element"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "harmonic_residuals",
                                                "alpha": [800, 0]}},
     "non-finite entries in group element"),
    ("flow", dict(OBSTRUCTED_CFG, mesh={"kind": "json", "path": 3}),
     "config key 'path' has a bad value: 3 is not a string"),
    ("deform1", dict(OBSTRUCTED_CFG, deformation={"path_family": {
        "kind": "conjugation", "xi": [[1]]}}),
     "config key 'xi' must be a 2x2 matrix, got shape (1, 1)"),
    ("deform1", OVERFLOW_COCYCLE_CFG, "non-finite entries in harmonic representative"),
    ("deform2", OVERFLOW_COCYCLE_CFG, "non-finite entries in harmonic representative"),
    ("deform1", WORD_OVERFLOW_CFG, "non-finite entries in cocycle word values"),
    ("critical-scan", dict(TORUS4_SL2C, representation={"inline": {"images": {
        "a": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]],
        "b": [[1, 0], [0, 1]]}}}),
     "determinant (inf+nanj) of group element is not finite"),
    # a mesh over the cell budget is refused before any cell is built
    ("flow", dict(OBSTRUCTED_CFG, mesh={"kind": "torus", "n": 100000}),
     "torus mesh 100000 x 100000 has more than 1000000 cells (vertices, edges and faces)"),
    ("refine-study", {"group": SL2C, "refine": {"kind": "torus_mc", "levels": [4, 6, 100000]}},
     "torus mesh 100000 x 100000 has more than 1000000 cells (vertices, edges and faces)"),
    ("flow", dict(OBSTRUCTED_CFG, mesh={"kind": "torus", "n": 2 ** 64}),
     f"torus mesh {2 ** 64} x {2 ** 64} has more than 1000000 cells (vertices, edges and faces)"),
    ("flow", dict(OBSTRUCTED_CFG, mesh={"kind": "genus2", "k": 40}),
     "genus2 mesh k = 40 has more than 1000000 cells (vertices, edges and faces)")],
    ids=["mesh_kind", "path_kind", "psh_real_group", "refine_kind", "group_kind",
         "group_field", "sl_n1", "genus2_k0", "image_shape", "image_nonfinite",
         "image_singular", "image_missing", "cocycle_shape", "cocycle_missing",
         "jet_missing", "commuting_path_without_logs", "bending_central",
         "bending_imaginary_real_group", "flow_max_iter_zero", "hodge_max_iter_negative",
         "energy_max_iter_zero", "cocycle_nonfinite_deform1", "cocycle_nonfinite_deform2",
         "torus_mc_amplitude_nan", "torus_mc_amplitude_inf", "torus_mc_points_nonfinite",
         "torus_mc_determinant_lost", "torus_mc_amplitude_overflow",
         "bending_scale_overflow", "conjugation_xi_overflow",
         "flow_lam_zero", "circle_energy_lam_zero", "flow_start_energy_nonfinite",
         "energy_start_energy_nonfinite", "flow_random_start_overflow",
         "torus_diag_image_overflow", "torus_gl1c_image_overflow",
         "torus_mc_image_overflow", "harmonic_residuals_image_overflow",
         "json_mesh_path_not_a_string", "conjugation_xi_shape",
         "cocycle_overflow_deform1", "cocycle_overflow_deform2",
         "cocycle_word_overflow", "image_determinant_overflow",
         "torus_n_over_cell_budget", "torus_mc_level_over_cell_budget",
         "torus_n_2_64", "genus2_k40"])
def test_validation_error_exit_two(tmp_path, capsys, task, cfg, error):
    code, report, _ = run_cli(tmp_path, task, cfg)
    assert code == cli.EXIT_VALIDATION
    assert report["status"] == "validation-error"
    assert report["error"] == error and "result" not in report
    assert capsys.readouterr().err == f"validation error: {error}\n"


@pytest.mark.parametrize("text, error", [
    (None, "cannot read config: "),
    ("{not json", "cannot read config: "),
    ("[1, 2]", "config must be a JSON object"),
    ('{"schema_version": 99}', "schema_version 99 is not 1"),
    ('{"schema_version": true}', "schema_version True is not 1"),
    ('{"schema_version": "1"}', "schema_version '1' is not 1")],
    ids=["unreadable", "not_json", "not_an_object", "schema_version_99",
         "schema_version_bool", "schema_version_string"])
def test_config_error_exit_two_without_report(tmp_path, capsys, text, error):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    code = cli.main(["flow", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"config error: {error}")
    assert not out.exists()


def main_report(tmp_path, name, task, cfg, *extra):
    """(exit code, report bytes) of cli.main on cfg, with no golden."""
    out = tmp_path / name
    out.mkdir()
    (out / "cfg.json").write_text(json.dumps(cfg))
    code = cli.main([task, "--config", str(out / "cfg.json"), "--out", str(out), *extra])
    return code, (out / f"{task}_report.json").read_bytes()


def test_seed_option_overrides_the_config_seed(tmp_path):
    # a random start reads the seed: --seed 7 over a config seed of 0 runs
    # and reports exactly what a config seed of 7 does
    cfg = dict(FAR_RANDOM_FLOW_CFG, flow={"start": "random", "max_iter": 3})
    runs = [main_report(tmp_path, "option", "flow", dict(cfg, seed=0), "--seed", "7"),
            main_report(tmp_path, "config", "flow", dict(cfg, seed=7)),
            main_report(tmp_path, "default", "flow", dict(cfg, seed=0))]
    assert [code for code, _ in runs] == [cli.EXIT_OK] * 3
    assert runs[0][1] == runs[1][1] != runs[2][1]
    assert json.loads(runs[0][1])["config"]["seed"] == 7


def test_torus_unitary_on_gl1c(tmp_path):
    # the 1 x 1 branch of the family: rotations e^{i theta} fix the basepoint
    cfg = {"mesh": {"kind": "torus", "n": 4, "m": 4}, "group": {"kind": "gl1c"},
           "representation": {"family": "torus_unitary",
                              "params": {"theta1": 0.6, "theta2": -0.35}}}
    code, text = main_report(tmp_path, "unitary", "flow", cfg)
    assert code == cli.EXIT_OK
    flow = json.loads(text)["result"]["flow"]
    assert flow["converged"] is True and flow["energy"] == 0.0
    rep = cli.build_problem(dict(cfg, tolerances=cli.TOLERANCES))[2]
    for name, theta in (("a", 0.6), ("b", -0.35)):
        assert np.allclose(rep.images[name], [[np.exp(1j * theta)]], rtol=0, atol=1e-15)


def test_unconverged_flow_exit_three(tmp_path, capsys):
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
    assert capsys.readouterr().err == f"solver error: {report['error']}\n"
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


def test_flow_tol_is_the_one_flow_tolerance_switch(tmp_path):
    # a flow_tol of 1e-2 would stop the solve after 2 checks at tension
    # 1.8e-4; no command-line option restates the key
    cfg = {
        "mesh": {"kind": "circle", "n": 8},
        "group": {"kind": "sl", "n": 2, "field": "R"},
        "representation": {"family": "circle_hyperbolic"},
        "tolerances": {"flow_tol": 1e-12},
    }
    code, report, _ = run_cli(tmp_path, "flow", cfg)
    assert code == cli.EXIT_OK
    assert report["config"]["tolerances"]["flow_tol"] == 1e-12
    assert report["result"]["flow"]["tension"] < 1e-12
    with pytest.raises(SystemExit) as info:
        run_cli(tmp_path, "flow", cfg, extra=("--tol", "1e-2"))
    assert info.value.code == cli.EXIT_VALIDATION


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


def test_solver_error_exit_three(tmp_path, monkeypatch, capsys):
    # a kernel cutoff that admits no centralizer leaves the trivial rep's
    # constant sections in the KKT matrix, whose factor is then singular
    monkeypatch.setattr(th, "KERNEL_RTOL", -1.0)
    cfg = {key: OBSTRUCTED_CFG[key] for key in ("mesh", "group", "representation")}
    code, report, _ = run_cli(tmp_path, "hodge", cfg)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "solver-error"
    assert report["error"] == ("singular KKT matrix with kernel_dim 0 "
                               "(kernel_rtol -1.0e+00)")
    assert capsys.readouterr().err == f"solver error: {report['error']}\n"
    assert "result" not in report


def test_kernel_of_a_far_diagonal_rep_exit_three(tmp_path):
    # the kernel cutoff counts four centralizer directions where two are
    # (test_refusals.far_diagonal_kernel); a bare RuntimeError once ended
    # the run with exit 1 and no report
    cfg = {"mesh": {"kind": "torus", "n": 4}, "group": SL2C,
           "representation": {"family": "torus_diag",
                              "params": {"alpha": [12, 0.3], "beta": [0.2, 0.5]}}}
    code, report, _ = run_cli(tmp_path, "hodge", cfg)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "solver-error"
    assert report["error"] == "singular KKT matrix with kernel_dim 4 (kernel_rtol 1.0e-09)"


FAR_RANDOM_FLOW_CFG = {
    "mesh": {"kind": "torus", "n": 4, "m": 4},
    "group": {"kind": "sl", "n": 2, "field": "C"},
    "representation": {"family": "torus_diag"},
    "flow": {"start": "random", "scale": 11},
}


def test_singular_numpy_solve_exit_three(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError, but a LAPACK failure inside a
    # flow is the solver's, not the config's: an eigendecomposition that
    # does not converge, as LAPACK reports it, exits 3 with solver-error.
    # A GL(1,C) flow takes eigh (an SL(2) flow takes none)
    def no_convergence(P):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(ss, "_eigh", no_convergence)
    cfg = dict(FAR_RANDOM_FLOW_CFG, group={"kind": "gl1c"},
               representation={"family": "torus_gl1c"})
    code, report, _ = run_cli(tmp_path, "flow", cfg)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "solver-error"
    assert report["error"] == "Eigenvalues did not converge"
    assert capsys.readouterr().err == "solver error: Eigenvalues did not converge\n"


def test_far_random_flow_converges_exit_zero(tmp_path):
    # the flow takes no LAPACK inverse, so this far start (scale 11, points
    # up to 31 from I) reaches no singular matrix, and its closed-form
    # energy is exact: it converges to the harmonic energy 0.8 of the
    # constant start (its first step once underflowed on an energy that
    # rounding dominated).  Read directly, not through run_cli: the path
    # from such a start is not pinned by a golden
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAR_RANDOM_FLOW_CFG))
    code = cli.main(["flow", "--config", str(cfg_path), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "flow_report.json").read_text())
    assert code == cli.EXIT_OK and report["status"] == "ok"
    flow = report["result"]["flow"]
    assert flow["converged"] and not flow["step_underflow"]
    assert abs(flow["energy"] - 0.8) < 1e-12


def _diag_images(*entries):
    """Inline images: diagonal matrices of the given complex entries."""
    return [[[z.real, z.imag] if i == j else [0.0, 0.0] for j in range(len(entries))]
            for i, z in enumerate(entries)]


def test_far_random_flow_underflows_exit_zero(tmp_path, monkeypatch):
    # the same far start in SL(3,C): the torus_diag images in the upper
    # block, 1 below.  A flow whose first step underflows reports it with
    # exit 0.  The SVD edge frame converges from this start (the eigh frame
    # once underflowed), so the gate refuses every candidate after the
    # start.  Read directly, not through run_cli: the path from such a
    # start is not pinned by a golden
    evaluate = hf.FlowKernel.evaluate
    starts = []

    def start_only(kern, points):
        starts.append(points)
        return evaluate(kern, points) if len(starts) == 1 else None
    monkeypatch.setattr(hf.FlowKernel, "evaluate", start_only)
    a, b = np.exp(0.4 + 0.3j), np.exp(-0.2 + 0.5j)
    cfg = dict(FAR_RANDOM_FLOW_CFG, group={"kind": "sl", "n": 3, "field": "C"},
               representation={"inline": {"images": {
                   "a": _diag_images(a, 1 / a, 1 + 0j),
                   "b": _diag_images(b, 1 / b, 1 + 0j)}}})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
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

GENUS2_BENDING_CFG = genus2_bending("genus2_fuchsian", "C")


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
    assert report["status"] == "validation-error"
    assert report["error"] == "imaginary is 'false', not a bool"


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


@pytest.mark.parametrize("radius", [0, -1, True])
@pytest.mark.parametrize("task, cfg", [("flow", PARABOLIC_CFG), ("hodge", CIRCLE_CFG)])
def test_flow_drift_radius_is_a_key_no_task_reads(tmp_path, task, cfg, radius):
    # a key that no task reads is ignored: flow.drift_radius, once a flow
    # option that refused these values, changes no output but the echoed
    # config
    def outputs(cfg, name):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        code = cli.main([task, "--config", str(cfg_path), "--out", str(out)])
        files = {f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        report = json.loads(files.pop(Path(f"{task}_report.json")))
        assert report.pop("config")["flow"] == cfg["flow"]
        return code, report, files

    flow = dict(cfg.get("flow", {}), max_iter=50)
    plain = outputs(dict(cfg, flow=flow), "plain")
    assert plain[0] == cli.EXIT_OK
    assert outputs(dict(cfg, flow=dict(flow, drift_radius=radius)), "stale") == plain


def test_refine_study_circle_energy_needs_converged_maps(tmp_path):
    # each level's energy is read off a harmonic map, so an unconverged
    # level is refused with its flow; it once gave values and a slope
    cfg = {"group": {"kind": "sl", "n": 2, "field": "R"},
           "refine": {"kind": "circle_energy", "levels": [8, 16, 32], "lam": 3.0},
           "flow": {"max_iter": 1}}
    code, report, _ = run_cli(tmp_path, "refine-study", cfg)
    assert code == cli.EXIT_NONCONVERGED
    assert report["status"] == "not-converged" and "result" not in report
    assert report["flow"]["iterations"] == 1
    assert report["flow"]["converged"] is False


def test_variation_without_a_path_family_exit_two(tmp_path):
    code, report, _ = run_cli(tmp_path, "variation", DIAG_DEFORM_CFG)
    assert code == cli.EXIT_VALIDATION
    assert "'path_family'" in report["error"]


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


@pytest.mark.parametrize("cfg", [
    dict(TORUS4_SL2C, representation={"family": "torus_diag"}, xi=[[0, 1], [0, 0]]),
    {"mesh": {"kind": "torus", "n": 5, "m": 5}, "group": {"kind": "gl1c"},
     "representation": {"family": "torus_gl1c"}, "xi": [[1]]}],
    ids=["torus4_sl2c", "torus5_gl1c"])
def test_variation_on_a_conjugation_path_is_floor_limited(tmp_path, cfg):
    # E is constant along a conjugation path (omega is a coboundary), so both
    # derivatives are rounding noise on each side: their analytic values sit
    # near eps and the FD values below FD_ROUNDING eps E0 / h^k, where the
    # ratios read 0.12 and 44 on torus 4 before the floor was stated
    cfg = {k: v for k, v in cfg.items() if k != "xi"} | {
        "deformation": {"path_family": {"kind": "conjugation", "xi": cfg["xi"]}},
        "tolerances": {"flow_tol": 1e-10}}
    code, raw = main_report(tmp_path, "variation", "variation", cfg)
    assert code == cli.EXIT_OK
    res = json.loads(raw)["result"]
    for key in ("first", "second"):
        assert res[f"{key}_rel_err"] is None and res[f"{key}_floor_limited"] is True
    assert abs(res["analytic_first"]) < 1e-15 and abs(res["analytic_second"]) < 1e-13
    assert abs(res["fd_first"]) < 1e-12 and abs(res["fd_second"]) < 1e-9


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
    # the Maurer-Cartan levels read d1, the degree-2 Gram and beta; the
    # harmonic representative needs the kernel-bordered solve as well
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
        for name in ("kernel", "A0", "d0"):
            assert (name in vars(ctx)) is built, name
        assert (0 in ctx._gram, 1 in ctx._gram) == (built, built)
        assert "d1" in vars(ctx) and 2 in ctx._gram


def test_energy_task_unitary(tmp_path):
    cfg = dict(TORUS4_SL2C, representation={"family": "torus_unitary"})
    code, report, _ = run_cli(tmp_path, "energy", cfg)
    assert code == cli.EXIT_OK
    assert report["result"]["energy"] < 1e-10
    assert report["result"]["reductive_suspected"] is True


@pytest.mark.parametrize("cfg", [
    dict(TORUS4_SL2C, representation={"family": "torus_unitary"}),
    dict(PARABOLIC_CFG, flow={"max_iter": 200})],
    ids=["torus4_unitary", "circle4_parabolic"])
def test_energy_task_runs_one_flow_from_the_constant_map(tmp_path, monkeypatch, cfg):
    # the energy is that of the flow task's run from the constant map, and
    # every field of the result is read off that one report
    starts = []
    flow = hf.flow

    def counted_flow(rep, f0, **kw):
        starts.append(f0.points.copy())
        return flow(rep, f0, **kw)

    monkeypatch.setattr(hf, "flow", counted_flow)
    code, text = main_report(tmp_path, "energy", "energy", cfg)
    assert code == cli.EXIT_OK and len(starts) == 1
    assert np.array_equal(starts[0], np.broadcast_to(np.eye(2), starts[0].shape))
    code, flow_text = main_report(tmp_path, "flow", "flow", cfg)
    result = json.loads(text)["result"]
    last = result["last_flow"]
    assert code == cli.EXIT_OK and last == json.loads(flow_text)["result"]["flow"]
    assert result["energy"] == last["energy"]
    assert result["reductive_suspected"] is last["reductive_suspected"]
