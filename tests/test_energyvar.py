import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivarlab import energyvar as ev
from equivarlab import harmonicflow as hf
from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab.deform import solve_psi
from equivarlab.liealg import MatrixGroup, cartan_project
from equivarlab.symspace import act
from equivarlab.twistedhodge import TwistedComplex
from test_twistedhodge import diag_cocycle, offdiag_cocycle
from conftest import (ALPHA, BETA, converged, edge_conditioning, random_cochain,
                      rounding_bound)
import reference as ref


def solved(path, mesh, tol=1e-10):
    """(f0, E0) of the harmonic map of path.rep0 from the constant map."""
    f0, rpt = hf.harmonic_map(path.rep0, hf.constant_map(mesh, path.rep0), tol=tol)
    return f0, rpt.energy


def test_first_variation_unitary_zero(unitary_ctx):
    # beta = 0 at the fixed point: every direction is critical
    rng = np.random.default_rng(0)
    for c in rv.cocycle_space_basis(unitary_ctx.rep)[:4]:
        om, _ = unitary_ctx.harmonic_rep(c)
        assert abs(ev.first_variation(unitary_ctx, om)) < 1e-12
    om = random_cochain(unitary_ctx, 1, rng)
    assert abs(ev.first_variation(unitary_ctx, om)) < 1e-12


def test_first_variation_coboundary_zero(diag_ctx):
    rng = np.random.default_rng(1)
    c = rv.coboundary(diag_ctx.rep, diag_ctx.group.random_alg(rng))
    om, _ = diag_ctx.harmonic_rep(c)
    assert abs(ev.first_variation(diag_ctx, om)) < 1e-10


def test_first_variation_circle_fd(sl2r, circle8):
    s = 0.55
    rep = rv.exp_family(sl2r, circle8, {"a": np.diag([s, -s]).astype(complex)})
    f, rpt = hf.harmonic_map(rep, hf.constant_map(circle8, rep), tol=1e-10)
    ctx = TwistedComplex(circle8, rep, f)
    path = rv.commuting_exp_path(rep, {"a": np.diag([1.0, -1.0]).astype(complex)})
    c, _ = path.jets()
    om, _ = ctx.harmonic_rep(c)
    analytic = ev.first_variation(ctx, om)
    fd = ev.fd_energy_derivatives(path, f, rpt.energy)
    assert abs(analytic - fd.first) < 1e-3 * max(abs(analytic), 1e-12)
    assert abs(analytic - 8.0 * s) < 1e-9


def test_first_variation_abelian_fd(gl1c_ctx, torus66):
    path = rv.commuting_exp_path(gl1c_ctx.rep,
                                 {"a": np.array([[0.3 - 0.2j]]),
                                  "b": np.array([[0.1 + 0.4j]])})
    c, _ = path.jets()
    om, _ = gl1c_ctx.harmonic_rep(c)
    analytic = ev.first_variation(gl1c_ctx, om)
    fd = ev.fd_energy_derivatives(path, *solved(path, torus66))
    assert abs(analytic - fd.first) < 1e-3 * max(abs(analytic), 1e-12)
    # closed form: E(t) = 2((0.5 + 0.3 t)^2 + (-0.3 + 0.1 t)^2)
    exact = 2 * (2 * 0.5 * 0.3 + 2 * (-0.3) * 0.1)
    assert abs(analytic - exact) < 1e-9


def test_conjugation_path_variations_vanish(diag_ctx, torus66):
    rng = np.random.default_rng(2)
    xi = diag_ctx.group.random_alg(rng, 0.4)
    path = rv.conjugation_path(diag_ctx.rep, xi)
    c, k = path.jets()
    om, _ = diag_ctx.harmonic_rep(c)
    assert abs(ev.first_variation(diag_ctx, om)) < 1e-8
    sol = __import__("equivarlab.deform", fromlist=["solve_psi"]).solve_psi(
        diag_ctx, c, k)
    assert abs(ev.second_variation(diag_ctx, sol.psi, om)) < 1e-8
    fd = ev.fd_energy_derivatives(path, *solved(path, torus66))
    assert abs(fd.first) < 1e-8
    assert abs(fd.second) < 1e-6


def test_second_variation_unitary_nonnegative(unitary_ctx):
    # at a critical point the second variation is ||omega^[p]||^2 >= 0
    zero = {"a": np.zeros((2, 2), dtype=complex),
            "b": np.zeros((2, 2), dtype=complex)}
    from equivarlab.deform import solve_psi
    rng = np.random.default_rng(3)
    for _ in range(4):
        vals = rng.standard_normal(4)
        c = rv.Cocycle(unitary_ctx.rep, {
            "a": np.diag([vals[0] + 1j * vals[1], -(vals[0] + 1j * vals[1])]),
            "b": np.diag([vals[2] + 1j * vals[3], -(vals[2] + 1j * vals[3])])})
        sol = solve_psi(unitary_ctx, c, zero)
        om = sol.omega
        sv = ev.second_variation(unitary_ctx, sol.psi, om)
        _, om_p = cartan_project(om.values)
        assert sv >= -1e-9
        assert abs(sv - ev.EDGE_PAIRING_SCALE
                   * unitary_ctx.inner(om_p, om_p, 1)) < 1e-9


def test_second_variation_abelian_closed_form(gl1c_ctx):
    # quadratic energy: analytic second variation matches d2/dt2 exactly
    path = rv.commuting_exp_path(gl1c_ctx.rep,
                                 {"a": np.array([[0.3 - 0.2j]]),
                                  "b": np.array([[0.1 + 0.4j]])},
                                 {"a": np.array([[0.25 + 0.3j]]),
                                  "b": np.array([[-0.15]])})
    out = ev.variation_report(gl1c_ctx, path)
    # E(t) = 2((0.5+0.3t+0.125t^2)^2 + (-0.3+0.1t-0.075t^2)^2)
    exact2 = 2 * (2 * 0.3 ** 2 + 2 * 0.5 * 0.25 + 2 * 0.1 ** 2 + 2 * 0.3 * 0.15)
    assert abs(out["analytic_second"] - exact2) < 1e-6
    assert out["second_rel_err"] < 1e-2


def test_second_variation_diag_family_fd(diag_ctx):
    path = rv.commuting_exp_path(
        diag_ctx.rep, {"a": np.diag([1.0, -1.0]).astype(complex),
                       "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.2, -0.2]).astype(complex)})
    out = ev.variation_report(diag_ctx, path)
    assert out["first_rel_err"] < 1e-3
    assert out["second_rel_err"] < 1e-2
    assert max(out["psi_residuals"].values()) < 1e-7


def test_psh_defect_gl1c(gl1c_ctx):
    path = rv.commuting_exp_path(gl1c_ctx.rep,
                                 {"a": np.array([[0.3 - 0.2j]]),
                                  "b": np.array([[0.1 + 0.4j]])})
    c, k = path.jets()
    rep = ev.psh_defect(gl1c_ctx, c, k)
    assert rep.defect < 1e-10


def test_psh_defect_diag_and_independent_solve(diag_ctx):
    path = rv.commuting_exp_path(
        diag_ctx.rep, {"a": np.diag([1.0, -1.0]).astype(complex),
                       "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.1, -0.1]).astype(complex)})
    c, k = path.jets()
    rep = ev.psh_defect(diag_ctx, c, k)
    assert rep.relative < 0.02
    rep2 = ref.psh_defect_independent(diag_ctx, c, k)
    assert rep2.relative < 0.02


def test_psh_defect_offdiag_direction(diag_ctx):
    c = offdiag_cocycle(diag_ctx.rep, 0.5)
    zero = {"a": np.zeros((2, 2), dtype=complex),
            "b": np.zeros((2, 2), dtype=complex)}
    if rv.Jet2Cocycle(c, zero).validate(1e-8):
        rep = ev.psh_defect(diag_ctx, c, zero)
        assert rep.relative < 0.02


def test_psh_defect_zero_direction(gl1c_ctx):
    z = {"a": np.zeros((1, 1), dtype=complex), "b": np.zeros((1, 1), dtype=complex)}
    c = rv.Cocycle(gl1c_ctx.rep, z)
    rep = ev.psh_defect(gl1c_ctx, c, z)
    assert rep.defect < 1e-12


def test_critical_scan_unitary(unitary_ctx):
    scan = ev.critical_scan(unitary_ctx)
    assert scan.max_normalized < 1e-9


def test_critical_scan_gl1c_noncritical(gl1c_ctx):
    # the scaling direction of a nonzero-energy C* point is non-critical
    scan = ev.critical_scan(gl1c_ctx)
    assert scan.max_normalized > 0.1
    # the theta-scaling direction itself
    c = rv.Cocycle(gl1c_ctx.rep, {"a": np.array([[0.5]]), "b": np.array([[-0.3]])})
    om, _ = gl1c_ctx.harmonic_rep(c)
    fv = ev.first_variation(gl1c_ctx, om)
    onorm = np.sqrt(ev.omega_l2sq(gl1c_ctx, om))
    bnorm = np.sqrt(ev.omega_l2sq(gl1c_ctx, gl1c_ctx.beta()))
    assert abs(fv) / (onorm * bnorm) > 0.1


@pytest.mark.parametrize("name", ["diag_ctx", "gl1c_ctx", "fuchsianC_ctx"])
def test_critical_scan_block_matches_per_cocycle(name, request):
    # one block solve against one solve per cocycle; at the critical
    # Fuchsian point both sides read rounding noise, so only its size counts
    ctx = request.getfixturevalue(name)
    got, want = ev.critical_scan(ctx), ref.critical_scan_per_cocycle(ctx)
    assert got.basis_size == want.basis_size == len(got.per_direction) > 0
    if name == "fuchsianC_ctx":
        assert max(got.max_normalized, want.max_normalized) < 1e-9
        return
    np.testing.assert_allclose(got.per_direction, want.per_direction, rtol=1e-10, atol=0)
    assert abs(got.max_normalized - want.max_normalized) <= 1e-10 * want.max_normalized


def test_word_values_of_a_stacked_block(fuchsianC_ctx):
    # the block seeding of the critical scan reads the per-cocycle seeds
    words = fuchsianC_ctx.words
    stacks = [words.stack(c.values) for c in rv.cocycle_space_basis(fuchsianC_ctx.rep)]
    block = words.values(np.stack(stacks))
    for C, got in zip(stacks, block):
        assert np.array_equal(got, words.values(C))


def test_critical_scan_hyperbolic_circle(sl2r, circle8):
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f, _ = hf.flow(rep, hf.constant_map(circle8, rep), tol=1e-10)
    ctx = TwistedComplex(circle8, rep, f)
    scan = ev.critical_scan(ctx)
    assert scan.max_normalized > 0.1


def test_genus2_bending_variation(fuchsianC_ctx, genus2):
    # nonabelian smoke: analytic first variation tracks FD on the bending family
    path = rv.bending_path(fuchsianC_ctx.rep, 0.5, imaginary=False)
    c, k = path.jets()
    om, _ = fuchsianC_ctx.harmonic_rep(c)
    analytic = ev.first_variation(fuchsianC_ctx, om)
    fd = ev.fd_energy_derivatives(path, *solved(path, genus2, tol=1e-11), tol=1e-11)
    assert abs(analytic - fd.first) < 2e-3 * max(abs(fd.first), 1e-6)


# ----------------------------------------------------------------------
# the continuation-started FD oracle

TORUS6_B = {"a": np.diag([1.0, -1.0]).astype(complex), "b": np.diag([0.5j, -0.5j])}
TORUS6_C = {"a": np.diag([0.3, -0.3]).astype(complex),
            "b": np.diag([0.2, -0.2]).astype(complex)}


def _fd_case(name, request):
    """(mesh, harmonic map f0, representation path) of one FD test case."""
    fixture = request.getfixturevalue
    if name in ("torus6_sl2c", "genus2_k2"):
        if name == "torus6_sl2c":
            ctx = fixture("diag_ctx")
            path = rv.commuting_exp_path(ctx.rep, TORUS6_B, TORUS6_C)
        else:
            ctx = fixture("fuchsianC_ctx")
            path = rv.bending_path(ctx.rep, 0.5, imaginary=False)
        return ctx.mesh, hf.EquivariantMap(ctx.mesh, ctx.rep, ctx.points.copy()), path
    if name == "circle8":
        mesh = fixture("circle8")
        rep = rv.exp_family(fixture("sl2r"), mesh,
                            {"a": np.diag([0.55, -0.55]).astype(complex)})
        path = rv.commuting_exp_path(rep, {"a": np.diag([1.0, -1.0]).astype(complex)})
    else:
        mesh = mc.build_torus(5, 5)
        rep = rv.torus_gl1c_rep(fixture("gl1c"), mesh, 0.5 + 1.0j, -0.3 + 0.2j)
        path = rv.commuting_exp_path(rep, {"a": np.array([[0.3 - 0.2j]]),
                                           "b": np.array([[0.1 + 0.4j]])})
    f0, _ = hf.harmonic_map(rep, hf.constant_map(mesh, rep), tol=1e-10)
    return mesh, f0, path


@pytest.mark.parametrize("name,total", [("genus2_k2", 13), ("torus6_sl2c", 9)])
def test_fd_samples_warm_started_by_continuation(request, monkeypatch, name, total):
    # f0-started samples take 3 tension checks each; the predicted starts
    # save at least one on every sample after the first
    mesh, f0, path = _fd_case(name, request)
    checks = []
    flow = hf.flow

    def counting_flow(rep, start, **kw):
        out = flow(rep, start, **kw)
        assert out[1].converged
        checks.append(out[1].iterations)
        return out

    monkeypatch.setattr(hf, "flow", counting_flow)
    ev.fd_energy_derivatives(path, f0, hf.energy(f0))
    assert len(checks) == 2 * len(ev.FD_STEPS)
    assert checks[0] <= 3
    assert max(checks[1:]) <= 2
    assert sum(checks) <= total


def test_variation_first_rel_err_floor(request):
    # genus-2 Fuchsian real bending is critical: both first variations sit
    # below FIRST_FLOOR of 4 ||omega|| ||beta||, so their ratio is rounding
    # noise and is not reported; the GL(1,C) torus path keeps its ratio
    mesh, f0, path = _fd_case("genus2_k2", request)
    out = ev.variation_report(request.getfixturevalue("fuchsianC_ctx"), path)
    assert out["first_rel_err"] is None and out["first_floor_limited"] is True
    assert abs(out["analytic_first"]) < 1e-9 and abs(out["fd_first"]) < 1e-9
    mesh, f0, path = _fd_case("torus5_gl1c", request)
    out = ev.variation_report(TwistedComplex(mesh, f0.rep, f0), path)
    assert "first_floor_limited" not in out
    assert out["first_rel_err"] < 1e-3 and abs(out["analytic_first"]) > 0.1


E_DIAG = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize("key, B", [
    # E'' = 0.0072, 4e6 times the FD rounding floor 1.8e-9 (E0 = 0.8)
    ("second", {"a": 0.03 * E_DIAG, "b": 0.03 * np.diag([0.5j, -0.5j])}),
    # dE/dt = 3.2e-6, 630 times FIRST_FLOOR of 4 ||omega|| ||beta|| (5.1e-9)
    ("first", {"a": (1e-6 + 1j) * E_DIAG, "b": 1j * E_DIAG}),
], ids=["second", "first"])
def test_variation_small_derivative_keeps_its_ratio(diag_ctx, key, B):
    # a derivative far below 1 but far above its floor is judged: its
    # ratio is reported, not nulled as rounding noise
    out = ev.variation_report(diag_ctx, rv.commuting_exp_path(diag_ctx.rep, B))
    assert f"{key}_floor_limited" not in out
    assert isinstance(out[f"{key}_rel_err"], float) and out[f"{key}_rel_err"] < 1e-6


def test_fd_E0_needs_no_kernel_build(request, monkeypatch):
    # E0 read from the complex's evaluation of its map, and from a flow
    # report, equals hf.energy(f0) bit for bit; variation_report reads the
    # complex's
    mesh, f0, path = _fd_case("torus5_gl1c", request)
    ctx = TwistedComplex(mesh, f0.rep, f0)
    assert ctx.ev.energy == hf.energy(f0)
    f, rpt = hf.harmonic_map(f0.rep, hf.constant_map(mesh, f0.rep), tol=1e-10)
    assert rpt.energy == hf.energy(f)

    def no_energy(f):
        raise AssertionError("hf.energy builds a flow kernel")
    monkeypatch.setattr(hf, "energy", no_energy)
    ev.variation_report(ctx, path)


def test_fd_refuses_an_unconverged_sample(request, monkeypatch):
    # every sample goes through hf.harmonic_map: an unconverged one stops
    # the oracle with its report, where its energy was once read as a value
    mesh, f0, path = _fd_case("torus5_gl1c", request)
    reports = []
    flow = hf.flow

    def third_unconverged(rep, start, **kw):
        f, rpt = flow(rep, start, **kw)
        reports.append(rpt)
        rpt.converged = len(reports) != 3
        return f, rpt

    monkeypatch.setattr(hf, "flow", third_unconverged)
    with pytest.raises(hf.FlowNotConverged) as info:
        ev.fd_energy_derivatives(path, f0, hf.energy(f0))
    assert len(reports) == 3 and info.value.report is reports[2]


@pytest.mark.parametrize("name", ["circle8", "torus6_sl2c", "torus5_gl1c",
                                  "genus2_k2"])
def test_fd_matches_f0_started_reference(request, name):
    mesh, f0, path = _fd_case(name, request)
    fd = ev.fd_energy_derivatives(path, f0, hf.energy(f0))
    want = ref.fd_energy_derivatives_from_f0(path, mesh, f0)
    for got, exp in ((fd.first, want.first), (fd.second, want.second)):
        assert abs(got - exp) <= 1e-8 * max(1.0, abs(exp)), (got, exp)
    assert [row["h"] for row in fd.table] == list(ev.FD_STEPS)


# ----------------------------------------------------------------------
# conjugation invariance of the variations


@functools.lru_cache(maxsize=None)
def _variation_case(name):
    """(harmonic complex, path jets (c, k)): torus 4 torus_diag SL(2,C)
    along a commuting path, or genus-2 k = 1 Fuchsian SL(2,C) along a
    bending path."""
    group = MatrixGroup("sl", 2, "C")
    if name == "torus":
        mesh = mc.build_torus(4, 4)
        rep = rv.torus_diag_rep(group, mesh, ALPHA, BETA)
        path = rv.commuting_exp_path(rep, TORUS6_B, TORUS6_C)
    else:
        mesh = mc.build_genus2(1)
        rep = rv.genus2_fuchsian_rep(group, mesh)
        path = rv.bending_path(rep, 0.5)
    return converged(mesh, rep), path.jets()


def _conjugated(ctx, c, k, h):
    """(map, complex, c, k) of (h.f, h rho h^-1, Ad_h c, Ad_h k); the jets
    are conjugated directly, because bending_path renormalizes its axis."""
    hinv = np.linalg.inv(h)
    rep_h = ctx.rep.conjugate(h)
    f_h = hf.EquivariantMap(ctx.mesh, rep_h, act(h, ctx.points))
    return (f_h, TwistedComplex(ctx.mesh, rep_h, f_h),
            rv.Cocycle(rep_h, {g: h @ v @ hinv for g, v in c.values.items()}),
            {g: h @ v @ hinv for g, v in k.items()})


@pytest.mark.parametrize("name", ["torus", "genus2"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 0.6))
def test_variations_conjugation_invariant(name, seed, scale):
    # the conjugate (h.f, h rho h^-1, Ad_h c, Ad_h k) has the first and
    # second variation of (f, rho, c, k)
    ctx, (c, k) = _variation_case(name)
    h = ctx.group.exp(ctx.group.random_alg(np.random.default_rng(seed), scale))
    f_h, ctx_h, c_h, k_h = _conjugated(ctx, c, k, h)
    maps = [hf.EquivariantMap(ctx.mesh, ctx.rep, ctx.points), f_h]
    sol, sol_h = solve_psi(ctx, c, k), solve_psi(ctx_h, c_h, k_h)
    for var, var_h in (
            (ev.first_variation(ctx, sol.omega), ev.first_variation(ctx_h, sol_h.omega)),
            (ev.second_variation(ctx, sol.psi, sol.omega),
             ev.second_variation(ctx_h, sol_h.psi, sol_h.omega))):
        assert abs(var_h - var) <= rounding_bound(maps, abs(var))


def test_period_defect_survives_conjugation():
    # genus 2 along imaginary bending, conjugated by h at seed 26, scale 0.6
    # (cond h = 22, edge conditioning cond(P) cond(Q) up to 1.5e11): in
    # point coordinates rounding left a period defect of about 2.2e-6, above
    # the 1e-7 floor; in the vertex frames it stays at rounding (4.2e-16,
    # 3.3e-16 unconjugated)
    ctx, (c, k) = _variation_case("genus2")
    h = ctx.group.exp(ctx.group.random_alg(np.random.default_rng(26), 0.6))
    f_h, ctx_h, c_h, k_h = _conjugated(ctx, c, k, h)
    assert edge_conditioning([f_h]) > 1e11
    defect = solve_psi(ctx_h, c_h, k_h).residuals["equivariance_F0"]
    assert defect < 1e-12
