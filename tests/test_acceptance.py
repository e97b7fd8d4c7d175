"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
status lines.
"""

import numpy as np
import pytest

from equivarlab import deform as df
from equivarlab import energyvar as ev
from equivarlab import harmonicflow as hf
from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab.symspace import act, dist, translation_length
from equivarlab.twistedhodge import TwistedCochain, TwistedComplex

from conftest import converged, lsmr_g1, random_cochain
from test_symspace import golden_section_translation_length
from test_twistedhodge import diag_cocycle, offdiag_cocycle

E2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ZERO2 = {"a": np.zeros((2, 2), dtype=complex),
         "b": np.zeros((2, 2), dtype=complex)}


def report(n, text):
    print(f"PASS criterion {n:2d}: {text}")


def test_criterion_01_geodesic_energy(sl2r, circle8):
    exact = 4.0 * np.log(2.0) ** 2
    rng = np.random.default_rng(0)
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f, rpt = hf.flow(rep, hf.random_map(circle8, rep, rng, 0.4))
    assert rpt.converged
    assert abs(rpt.energy - exact) <= 1e-6 * exact

    g = np.diag([2.0, 0.5]).astype(complex)
    L, attained = translation_length(g)
    assert attained
    assert abs(L - golden_section_translation_length(g)) <= 1e-6

    # proportionality E = L^2 / 2 across lambda
    ratios = []
    for lam in (1.5, 2.0, 3.0):
        rep_l = rv.hyperbolic_circle_rep(sl2r, circle8, lam)
        E = hf.flow(rep_l, hf.constant_map(circle8, rep_l))[1].energy
        L_l, _ = translation_length(np.diag([lam, 1.0 / lam]).astype(complex))
        ratios.append(E / L_l ** 2)
    assert all(abs(r - 0.5) < 1e-6 for r in ratios)
    report(1, f"flow energy {rpt.energy:.10f} = 4 ln(2)^2 within 1e-6; "
              f"translation length matches golden-section oracle; "
              f"E/L^2 = {ratios} ~ 1/2")


def test_criterion_02_semisimplification(parabolic_run):
    rpt = parabolic_run[1]["result"]["flow"]
    assert rpt["energy"] < 1e-3
    assert not rpt["converged"]
    assert not rpt["reductive_suspected"]
    report(2, f"parabolic rep: energy {rpt['energy']:.2e} < 1e-3, "
              f"no convergence, non-reductive flag set")


def test_criterion_03_hodge_suite(diag_ctx, unitary_ctx, trivial_ctx,
                                  fuchsian_ctx, gl1c_ctx):
    rng = np.random.default_rng(1)
    contexts = {
        "diag SL(2,C) torus": diag_ctx,
        "unitary torus": unitary_ctx,
        "trivial SL(2,R) torus": trivial_ctx,
        "Fuchsian genus-2": fuchsian_ctx,
        "C* torus": gl1c_ctx,
    }
    for name, ctx in contexts.items():
        F = random_cochain(ctx, 0, rng)
        assert np.abs(ctx.d(ctx.d(F)).values).max() < 1e-12, name
        al = random_cochain(ctx, 1, rng)
        lhs = ctx.inner(ctx.d(F), al, 1)
        rhs = ctx.inner(F, ctx.codiff(al), 0)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs)), name
        ex, coex, harm = ctx.hodge_decompose(al)
        rec = TwistedCochain(1, ex.values + coex.values + harm.values - al.values)
        assert ctx.norm(rec, 1) < 1e-8, name

    # kernel of J on the diagonal SL(2,C) instance: exactly 2 real dimensions
    spec = np.linalg.eigvalsh(diag_ctx.jacobi_dense_sym())
    n_null = int(np.sum(spec < 1e-9 * spec.max()))
    assert n_null == 2
    assert diag_ctx.kernel_dim == 2

    # pointwise k/p splitting of the kernel sections (anti-Hermitian and
    # Hermitian parts in the vertex frames)
    for ctx in (diag_ctx, unitary_ctx, trivial_ctx, gl1c_ctx):
        for kap in ctx.kernel_sections():
            star = np.conj(np.swapaxes(kap.values, -1, -2))
            for part in (0.5 * (kap.values - star), 0.5 * (kap.values + star)):
                assert np.abs(ctx.d(TwistedCochain(0, part)).values).max() < 1e-8
    report(3, f"d^2 = 0, adjunction, Hodge split on {len(contexts)} instances; "
              f"dim ker J = 2 on the diagonal instance; kernel k/p split holds")


def test_criterion_04_first_order_pipeline(diag_ctx, gl1c_ctx, fuchsian_ctx,
                                           unitary_ctx, trivialC_ctx):
    cases = [
        ("diag", diag_ctx, diag_cocycle(diag_ctx.rep)),
        ("diag offdiag", diag_ctx, offdiag_cocycle(diag_ctx.rep)),
        ("gl1c", gl1c_ctx, rv.Cocycle(gl1c_ctx.rep,
                                      {"a": np.array([[0.3 - 0.2j]]),
                                       "b": np.array([[0.1 + 0.4j]])})),
        ("fuchsian", fuchsian_ctx, rv.cocycle_space_basis(fuchsian_ctx.rep)[1]),
        ("unitary", unitary_ctx, diag_cocycle(unitary_ctx.rep)),
        ("trivial C", trivialC_ctx, rv.Cocycle(trivialC_ctx.rep,
                                               {"a": E2, "b": 0.5 * E2})),
    ]
    worst = 0.0
    for name, ctx, c in cases:
        fo = df.first_order(ctx, c)
        worst = max(worst, max(fo.residuals.values()))
        assert max(fo.residuals.values()) < 1e-8, name

    # affine fiber: two independent solutions differ by a kernel section only
    ctx = diag_ctx
    c = diag_cocycle(ctx.rep)
    fo = df.first_order(ctx, c)
    target = ctx.to_flat(fo.omega.values) - ctx.to_flat(ctx.seed_cochain(c).values)
    x2 = lsmr_g1(ctx, ctx.d0, target)
    diff = ctx.to_flat(fo.F.values) - x2
    outside = diff - ctx.kernel_project_flat(diff)
    assert np.sqrt(max(outside @ (ctx.gram(0) @ outside), 0.0)) < 1e-8
    report(4, f"first-order residuals < 1e-8 on {len(cases)} instances "
              f"(worst {worst:.2e}); affine fiber over the kernel verified")


def test_criterion_05_first_variation_fd(sl2r, gl1c_ctx, diag_ctx, circle8,
                                         torus66):
    # axis family
    s = np.log(2.0)
    rep = rv.exp_family(sl2r, circle8, {"a": np.diag([s, -s]).astype(complex)})
    f, rpt = hf.harmonic_map(rep, hf.constant_map(circle8, rep), tol=1e-10)
    ctx = TwistedComplex(circle8, rep, f)
    path = rv.commuting_exp_path(rep, {"a": np.diag([1.0, -1.0]).astype(complex)})
    c, _ = path.jets()
    om, _ = ctx.harmonic_rep(c)
    a1 = ev.first_variation(ctx, om)
    fd1 = ev.fd_energy_derivatives(path, f, rpt.energy)
    err_axis = abs(a1 - fd1.first) / max(abs(a1), 1e-12)
    assert err_axis < 1e-3

    # abelian family
    pathg = rv.commuting_exp_path(gl1c_ctx.rep,
                                  {"a": np.array([[0.3 - 0.2j]]),
                                   "b": np.array([[0.1 + 0.4j]])})
    cg, _ = pathg.jets()
    omg, _ = gl1c_ctx.harmonic_rep(cg)
    a2 = ev.first_variation(gl1c_ctx, omg)
    fg, rptg = hf.harmonic_map(pathg.rep0, hf.constant_map(torus66, pathg.rep0), tol=1e-10)
    fd2 = ev.fd_energy_derivatives(pathg, fg, rptg.energy)
    err_ab = abs(a2 - fd2.first) / max(abs(a2), 1e-12)
    assert err_ab < 1e-3

    # conjugation paths: absolute
    rng = np.random.default_rng(2)
    xi = diag_ctx.group.random_alg(rng, 0.4)
    cc, _ = rv.conjugation_path(diag_ctx.rep, xi).jets()
    omc, _ = diag_ctx.harmonic_rep(cc)
    a3 = abs(ev.first_variation(diag_ctx, omc))
    assert a3 < 1e-8
    report(5, f"first variation vs FD: axis rel {err_axis:.1e}, abelian rel "
              f"{err_ab:.1e} (< 1e-3); conjugation {a3:.1e} (< 1e-8)")


def test_criterion_06_criticality(unitary_ctx, gl1c_ctx):
    scan_u = ev.critical_scan(unitary_ctx)
    assert scan_u.max_normalized < 1e-9
    # theta-scaling direction at the non-VHS C* point
    c = rv.Cocycle(gl1c_ctx.rep, {"a": np.array([[0.5]]),
                                  "b": np.array([[-0.3]])})
    om, _ = gl1c_ctx.harmonic_rep(c)
    val = abs(ev.first_variation(gl1c_ctx, om)) / (
        np.sqrt(ev.omega_l2sq(gl1c_ctx, om))
        * np.sqrt(ev.omega_l2sq(gl1c_ctx, gl1c_ctx.beta())))
    assert val > 0.1
    report(6, f"unitary scan {scan_u.max_normalized:.1e} < 1e-9; "
              f"C* scaling direction {val:.3f} > 0.1 (non-critical)")


def test_criterion_07_obstruction(trivial_ctx, trivialC_ctx, diag_ctx,
                                  unitary_ctx):
    # the obstructed example: refusal with witness diag(1,-1)
    c_ob = rv.Cocycle(trivial_ctx.rep, {"a": E2, "b": 0 * E2})
    with pytest.raises(df.ObstructedDeformationError) as err:
        df.second_order(trivial_ctx, c_ob, ZERO2)
    W = err.value.report.witness.values[0]
    W = W / np.sqrt(abs(np.trace(W @ np.conj(W).T)))
    target = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    assert err.value.report.defect > 0
    assert abs(abs(np.trace(W @ target)) - 1.0) < 1e-8

    # the Cartan-line instance passes
    c_ok = diag_cocycle(diag_ctx.rep)
    om_ok, _ = diag_ctx.harmonic_rep(c_ok)
    assert df.obstruction_check(diag_ctx, om_ok).orthogonal

    # defect(c) = defect(ic)
    c = offdiag_cocycle(diag_ctx.rep)
    om, _ = diag_ctx.harmonic_rep(c)
    om_i, _ = diag_ctx.harmonic_rep(c.scaled(1j))
    d1 = df.obstruction_check(diag_ctx, om).defect
    d2 = df.obstruction_check(diag_ctx, om_i).defect
    assert abs(d1 - d2) <= 1e-12 * max(1.0, d1)

    # equivalence audit on a randomized 50-instance bank
    rng = np.random.default_rng(42)
    instances = []
    for j in range(18):
        ctx = (trivial_ctx, trivialC_ctx)[j % 2]
        X = ctx.group.random_alg(rng)
        instances.append((ctx, rv.Cocycle(ctx.rep, {
            "a": X, "b": rng.standard_normal() * X})))
    for j in range(8):
        v = rng.standard_normal(8)
        instances.append((diag_ctx, rv.Cocycle(diag_ctx.rep, {
            "a": np.diag([v[0] + 1j * v[1], -v[0] - 1j * v[1]]),
            "b": np.diag([v[2] + 1j * v[3], -v[2] - 1j * v[3]])})))
        instances.append((diag_ctx, offdiag_cocycle(diag_ctx.rep,
                                                    v[4] + 1j * v[5])))
    for j in range(16):
        v = rng.standard_normal(4)
        instances.append((unitary_ctx, rv.Cocycle(unitary_ctx.rep, {
            "a": np.diag([v[0] + 1j * v[1], -v[0] - 1j * v[1]]),
            "b": np.diag([v[2] + 1j * v[3], -v[2] - 1j * v[3]])})))
    assert len(instances) >= 50
    n_checked = n_obstructed = 0
    for ctx, c in instances:
        if not rv.Jet2Cocycle(c, ZERO2).validate(1e-8):
            continue
        sol = df.solve_psi(ctx, c, ZERO2, require_unobstructed=False)
        scale = max(sol.obstruction.scale, 1e-30)
        cond1 = sol.residuals["dstar_psi_plus_contract"] \
            <= 1e-7 * scale + 1e-12 * (1.0 + scale)
        cond2 = sol.obstruction.orthogonal
        assert cond1 == cond2
        n_checked += 1
        n_obstructed += not cond2
    assert n_checked >= 50
    assert n_obstructed >= 5
    report(7, f"obstructed example refused with witness diag(1,-1); defect "
              f"i-symmetry {abs(d1 - d2):.1e}; audit {n_checked} instances "
              f"({n_obstructed} obstructed), conditions (1)<->(2) agree")


def test_criterion_08_second_variation_fd(diag_ctx):
    path = rv.commuting_exp_path(
        diag_ctx.rep, {"a": np.diag([1.0, -1.0]).astype(complex),
                       "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.2, -0.2]).astype(complex)})
    out = ev.variation_report(diag_ctx, path)
    assert out["second_rel_err"] < 1e-2
    assert max(out["psi_residuals"].values()) < 1e-7
    report(8, f"second variation vs FD rel err {out['second_rel_err']:.1e} "
              f"(< 1e-2); psi-equation residuals "
              f"{max(out['psi_residuals'].values()):.1e} (< 1e-7)")


def test_criterion_09_plurisubharmonicity(gl1c_ctx, diag_ctx, fuchsianC_ctx):
    # exact on C*
    pg = rv.commuting_exp_path(gl1c_ctx.rep, {"a": np.array([[0.3 - 0.2j]]),
                                              "b": np.array([[0.1 + 0.4j]])})
    cg, kg = pg.jets()
    rg = ev.psh_defect(gl1c_ctx, cg, kg)
    assert rg.defect < 1e-10

    rels = [("C*", rg.relative)]
    # diagonal SL(2,C) directions
    pd = rv.commuting_exp_path(
        diag_ctx.rep, {"a": np.diag([1.0, -1.0]).astype(complex),
                       "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.1, -0.1]).astype(complex)})
    cd, kd = pd.jets()
    rd = ev.psh_defect(diag_ctx, cd, kd)
    rels.append(("diag", rd.relative))
    # off-diagonal direction at the diagonal rep
    c_off = offdiag_cocycle(diag_ctx.rep, 0.5)
    if rv.Jet2Cocycle(c_off, ZERO2).validate(1e-8):
        rels.append(("offdiag", ev.psh_defect(diag_ctx, c_off, ZERO2).relative))
    # bending direction at the complexified Fuchsian point (kernel is 0)
    pb = rv.bending_path(fuchsianC_ctx.rep, 0.4)
    cb, kb = pb.jets()
    rb = ev.psh_defect(fuchsianC_ctx, cb, kb)
    rels.append(("bending", rb.relative))
    for name, rel in rels:
        assert rel < 0.02, (name, rel)
    report(9, "psh identity defects: "
              + ", ".join(f"{n} {r:.1e}" for n, r in rels)
              + " (all < 2%; C* absolute < 1e-10)")


def test_criterion_10_continuity_smoke(sl2r, sl2c, circle8, torus66, genus2,
                                       fuchsianC_ctx):
    eps_list = (1e-2, 1e-3, 1e-4)

    def ratios_along(path, mesh, tol=1e-11):
        rep0 = path.rep0
        f0, r0 = hf.flow(rep0, hf.constant_map(mesh, rep0), tol=tol,
                         max_iter=80000)
        assert r0.converged
        out = []
        for eps in eps_list:
            rep_e = path.at(eps)
            f_e, r_e = hf.flow(rep_e, hf.EquivariantMap(mesh, rep_e,
                                                        f0.points.copy()),
                               tol=tol, max_iter=80000)
            assert r_e.converged
            dmap = hf.map_distance(f0, f_e)
            dE = abs(r_e.energy - r0.energy)
            out.append((dmap / eps, dE / eps))
        return out

    families = {}
    s = np.log(2.0)
    rep_c = rv.exp_family(sl2r, circle8, {"a": np.diag([s, -s]).astype(complex)})
    families["circle axis"] = ratios_along(
        rv.commuting_exp_path(rep_c, {"a": np.diag([1.0, -1.0]).astype(complex)}),
        circle8)
    rep_t = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    families["torus diag"] = ratios_along(
        rv.commuting_exp_path(rep_t, {"a": np.diag([1.0, -1.0]).astype(complex),
                                      "b": np.diag([0.5, -0.5]).astype(complex)}),
        torus66)
    families["genus-2 bending"] = ratios_along(
        rv.bending_path(fuchsianC_ctx.rep, 0.5, imaginary=False), genus2)

    lines = []
    for name, rows in families.items():
        map_ratios = [r[0] for r in rows]
        # the Lipschitz ratio of the map stabilizes across the decade
        assert max(map_ratios) < 3.0 * max(min(map_ratios), 1e-12) + 1e-9, name
        # energy-difference ratios stay bounded by a constant (they may
        # decay when the direction is energy-critical, as for twists)
        e_ratios = [r[1] for r in rows]
        assert max(e_ratios) <= 10.0 * (e_ratios[0] + 1e-9), name
        assert max(e_ratios) < 100.0, name
        lines.append(f"{name}: map {max(map_ratios):.3f}, "
                     f"dE {max(e_ratios):.3f}")
    report(10, "continuity ratios bounded across eps decade: "
               + "; ".join(lines))


def test_criterion_11_refinement(sl2c):
    values = []
    for n in (4, 8, 16, 32):
        mesh = mc.build_torus(n, n)
        rep = rv.torus_diag_rep(sl2c, mesh, 0.4, -0.2)
        f = hf.curved_torus_map(mesh, rep, 0.3)
        ctx = TwistedComplex(mesh, rep, f)
        b = ctx.beta()
        res = TwistedCochain(2, ctx.d(b).values - ctx.bracket_wedge(b, b).values)
        values.append(ctx.norm(res, 2))
    assert all(b < a for a, b in zip(values, values[1:]))
    rate = np.log2(values[-2] / values[-1])
    report(11, f"Maurer-Cartan residuals {['%.3e' % v for v in values]} "
               f"monotone decreasing; final rate {rate:.2f}")
