"""Structured refusals of the library: each degenerate or malformed input
raises its exception with a message that names the fault.  The refusals a
config can reach are run through the CLI as well, in
test_cli.test_validation_error_exit_two and (for the mesh checks)
test_cli.test_corrupted_mesh_json_exit_two."""

import re

import numpy as np
import pytest

from equivarlab import deform as df
from equivarlab import energyvar as ev
from equivarlab import harmonicflow as hf
from equivarlab import hyperbolic as hyp
from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab import twistedhodge as th
from equivarlab.liealg import MatrixGroup
from equivarlab.twistedhodge import TwistedCochain, TwistedComplex

SL2R = MatrixGroup("sl", 2, "R")
GL1C = MatrixGroup("gl1c")
CIRCLE = mc.build_circle(4)
TORUS = mc.build_torus(3, 3)
TORUS4 = mc.build_torus(4, 4)
GENUS2_GENS = ("a1", "b1", "a2", "b2")
EYE = np.eye(2, dtype=complex)
ZERO = np.zeros((2, 2), dtype=complex)


def trivial_torus():
    return rv.trivial_rep(SL2R, TORUS)


def circle_ctx():
    rep = rv.trivial_rep(SL2R, CIRCLE)
    return TwistedComplex(CIRCLE, rep, hf.constant_map(CIRCLE, rep))


def far_diagonal_kernel():
    """The kernel of torus_diag at alpha = 12 + 0.3i on torus 4: the cutoff
    KERNEL_RTOL max(s0, 1), about 26.5, lies above the two Ad singular values
    1.313, so four directions count as centralizer where two are, and their
    sections are not parallel, already at the constant map."""
    rep = rv.torus_diag_rep(MatrixGroup("sl", 2, "C"), TORUS4, 12 + 0.3j, 0.2 + 0.5j)
    return TwistedComplex(TORUS4, rep, hf.constant_map(TORUS4, rep)).kernel


def far_hyperbolic_flow():
    """The flow of the hyperbolic circle at lam = 1e160 from the constant map:
    the transported points overflow, so every point is finite but the start
    energy is not (at lam = 1e150 it is 9.56e5)."""
    rep = rv.hyperbolic_circle_rep(SL2R, CIRCLE, 1e160)
    return hf.flow(rep, hf.constant_map(CIRCLE, rep))


def hyperbolic_flow_from(entry):
    """The flow of the hyperbolic circle from the constant map with one
    entry set to a non-finite value: no finite start has a non-finite
    entry, so it is refused as a start of non-finite energy."""
    rep = rv.hyperbolic_circle_rep(SL2R, CIRCLE, 2.0)
    f0 = hf.constant_map(CIRCLE, rep)
    f0.points[1, 0, 1] = entry
    return hf.flow(rep, f0)


#: id -> (call, exception type, message)
REFUSALS = {
    "group_kind": (lambda: MatrixGroup("so", 3), ValueError, "unknown group kind 'so'"),
    "group_field": (lambda: MatrixGroup("sl", 2, "Q"), ValueError,
                    "field must be 'R' or 'C', got 'Q'"),
    "sl_n1": (lambda: MatrixGroup("sl", 1), ValueError, "sl requires n >= 2"),
    "algebra_shape": (lambda: SL2R.check_algebra(np.zeros((3, 3))), ValueError,
                      "expected 2x2 matrix, got (3, 3)"),
    "group_shape": (lambda: GL1C.check_group(EYE), ValueError,
                    "expected 1x1 matrix, got (2, 2)"),
    "group_nonfinite": (lambda: SL2R.check_group(np.diag([np.nan, 1.0])), ValueError,
                        "non-finite entries in group element"),
    "group_singular": (lambda: GL1C.check_group(np.zeros((1, 1))), ValueError,
                       "singular matrix is not a group element"),
    "genus2_k0": (lambda: mc.build_genus2(0), ValueError,
                  "subdivision depth must be >= 1"),
    "rep_missing_image": (lambda: rv.Representation(SL2R, ("a", "b"), {"a": EYE}),
                          ValueError, "missing image for generator 'b'"),
    "cocycle_missing_value": (lambda: rv.Cocycle(trivial_torus(), {"a": ZERO}),
                              ValueError, "missing cocycle value for generator 'b'"),
    "jet_missing_value": (
        lambda: rv.Jet2Cocycle(rv.Cocycle(trivial_torus(), {"a": ZERO, "b": ZERO}),
                               {"a": ZERO}),
        ValueError, "missing second-order value for 'b'"),
    "word_unknown_generator": (lambda: rv.WordTable(trivial_torus(), [("a", "z")]),
                               KeyError, "unknown generator 'z'"),
    "commuting_path_without_logs": (
        lambda: rv.commuting_exp_path(trivial_torus(), {"a": ZERO, "b": ZERO}),
        ValueError, "commuting_exp_path needs a rep built by exp_family"),
    "bending_central": (
        lambda: rv.bending_path(rv.Representation(
            SL2R, GENUS2_GENS, {name: EYE for name in GENUS2_GENS})),
        ValueError, "commutator is central, no bending axis"),
    "bending_imaginary_not_a_bool": (
        lambda: rv.bending_path(rv.genus2_fuchsian_rep(SL2R, mc.build_genus2(1)),
                                imaginary="false"),
        ValueError, "imaginary is 'false', not a bool"),
    "bending_imaginary_real_group": (
        lambda: rv.bending_path(rv.genus2_fuchsian_rep(SL2R, mc.build_genus2(1))),
        ValueError, "imaginary bending requires a complex group"),
    "kernel_not_parallel": (far_diagonal_kernel, th.LinearSolverError,
                            "singular KKT matrix with kernel_dim 4"),
    "curved_map_not_torus": (
        lambda: hf.curved_torus_map(CIRCLE, rv.trivial_rep(SL2R, CIRCLE)),
        ValueError, "curved test map needs a torus mesh"),
    "curved_map_not_exp_family": (
        lambda: hf.curved_torus_map(TORUS, trivial_torus()),
        ValueError, "curved test map needs an exp-family representation"),
    "flow_start_energy_not_finite": (far_hyperbolic_flow, ValueError,
                                     "start map has non-finite energy"),
    "flow_start_nan_entry": (lambda: hyperbolic_flow_from(np.nan), ValueError,
                             "start map has non-finite energy"),
    "flow_start_inf_entry": (lambda: hyperbolic_flow_from(np.inf), ValueError,
                             "start map has non-finite energy"),
    "curved_map_not_finite": (
        lambda: hf.curved_torus_map(TORUS4, rv.torus_diag_rep(
            MatrixGroup("sl", 2, "C"), TORUS4, 0.4, -0.2), amplitude=10.0),
        ValueError, "curved test map at amplitude 10.0 is not finite"),
    "hyperbolic_lam_zero": (lambda: rv.hyperbolic_circle_rep(SL2R, CIRCLE, 0.0),
                            ValueError, "lam must be nonzero, not 0.0"),
    "companion_real_group": (lambda: df.companion_pair(circle_ctx(), None), ValueError,
                             "companion pair needs a complex group"),
    "psh_real_group": (lambda: ev.psh_defect(circle_ctx(), None, None), ValueError,
                       "plurisubharmonicity defect needs a complex group"),
    "su11_outside": (lambda: hyp.su11_to_sl2r(np.diag([2.0, 0.5])), ValueError,
                     "disk isometry did not convert to a real matrix"),
    "d_degree2": (lambda: circle_ctx().d(TwistedCochain(2, np.zeros((0, 2, 2)))),
                  ValueError, "d is defined on degrees 0 and 1"),
    "codiff_degree0": (
        lambda: circle_ctx().codiff(TwistedCochain(0, np.zeros((CIRCLE.nv, 2, 2)))),
        ValueError, "codifferential is defined on degrees 1 and 2"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_the_fault(case):
    call, exc_type, message = REFUSALS[case]
    with pytest.raises(exc_type, match=re.escape(message)):
        call()


def test_kernel_refuses_sections_that_are_not_parallel(sl2c, monkeypatch):
    # a cutoff above every singular value admits all directions as Ad-fixed;
    # the constant sections they give are not parallel for a non-trivial rep
    monkeypatch.setattr(th, "KERNEL_RTOL", 1e3)
    rep = rv.torus_diag_rep(sl2c, TORUS, 0.4 + 0.3j, -0.2 + 0.5j)
    ctx = TwistedComplex(TORUS, rep, hf.constant_map(TORUS, rep))
    with pytest.raises(th.SingularKKTError, match="kernel_dim 6") as info:
        ctx.kernel
    assert info.value.kernel_rtol == 1e3
