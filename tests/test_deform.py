import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivarlab import deform as df
from equivarlab import harmonicflow as hf
from equivarlab import repvar as rv
from equivarlab import twistedhodge as th
from equivarlab.liealg import bracket, cartan_project, mul
from equivarlab.symspace import act
from equivarlab.twistedhodge import TwistedCochain, TwistedComplex
from conftest import ALPHA, BETA, converged, lsmr_g1
import reference as ref
from test_twistedhodge import diag_cocycle, offdiag_cocycle

E2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


# ----------------------------------------------------------------------
# first order

def test_first_order_coboundary(diag_ctx):
    rng = np.random.default_rng(0)
    xi = diag_ctx.group.random_alg(rng)
    c = rv.coboundary(diag_ctx.rep, xi)
    fo = df.first_order(diag_ctx, c)
    assert diag_ctx.norm(fo.omega, 1) < 1e-9
    assert max(fo.residuals.values()) < 1e-8
    # dF = 0, so F is parallel and v is the pointwise p-part of a kernel shift
    assert np.abs(diag_ctx.d(fo.F).values
                  - (fo.omega.values - diag_ctx.seed_cochain(c).values)).max() < 1e-9


def test_first_order_gl1c_real_part(gl1c_ctx):
    # for C* the projection to the symmetric part is the real part
    c = rv.Cocycle(gl1c_ctx.rep, {"a": np.array([[0.3 - 0.2j]]),
                                  "b": np.array([[0.1 + 0.4j]])})
    fo = df.first_order(gl1c_ctx, c)
    assert np.abs(fo.v - np.real(fo.F.values)).max() < 1e-12
    assert max(fo.residuals.values()) < 1e-8


def test_first_order_circle_axis(sl2r, circle8):
    # c along the axis: v is the constant reparametrization field
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f, _ = hf.flow(rep, hf.constant_map(circle8, rep), tol=1e-10)
    ctx = TwistedComplex(circle8, rep, f)
    c = rv.Cocycle(rep, {"a": np.diag([1.0, -1.0]).astype(complex)})
    fo = df.first_order(ctx, c)
    assert max(fo.residuals.values()) < 1e-8
    from equivarlab.energyvar import first_variation
    s = np.log(2.0)
    assert abs(first_variation(ctx, fo.omega) - 8.0 * s) < 1e-8


def test_first_order_residuals_all_instances(diag_ctx, gl1c_ctx, fuchsian_ctx,
                                             unitary_ctx):
    cases = [
        (diag_ctx, diag_cocycle(diag_ctx.rep)),
        (diag_ctx, offdiag_cocycle(diag_ctx.rep)),
        (gl1c_ctx, rv.Cocycle(gl1c_ctx.rep, {"a": np.array([[0.3 - 0.2j]]),
                                             "b": np.array([[0.1 + 0.4j]])})),
        (fuchsian_ctx, rv.cocycle_space_basis(fuchsian_ctx.rep)[2]),
        (unitary_ctx, diag_cocycle(unitary_ctx.rep, (0.4, 0.1), (0.2, -0.3))),
    ]
    for ctx, c in cases:
        fo = df.first_order(ctx, c)
        assert max(fo.residuals.values()) < 1e-8


def test_jacobi_F_checks_the_primitive(diag_ctx, monkeypatch):
    # jacobi_F is J F + d* seed(c), computed from F: it flags a wrong
    # primitive that leaves omega (and dstar_omega) untouched
    c = offdiag_cocycle(diag_ctx.rep)
    fo = df.first_order(diag_ctx, c)
    assert fo.residuals["jacobi_F"] < 1e-10
    primitive = diag_ctx.primitive
    bump = np.zeros((diag_ctx.mesh.nv, 2, 2), dtype=complex)
    bump[0] = E2

    def off_by_a_bump(omega, c):
        F, defect = primitive(omega, c)
        return TwistedCochain(0, F.values + bump), defect
    monkeypatch.setattr(diag_ctx, "primitive", off_by_a_bump)
    bad = df.first_order(diag_ctx, c)
    assert bad.residuals["dstar_omega"] == fo.residuals["dstar_omega"]
    assert bad.residuals["jacobi_F"] > 1e-2


def test_affine_fiber_over_kernel(diag_ctx):
    # two independent first-order solutions differ by a kernel section;
    # their tangent fields differ by its pointwise p-part
    ctx = diag_ctx
    c = diag_cocycle(ctx.rep)
    fo = df.first_order(ctx, c)
    target = ctx.to_flat(fo.omega.values) - ctx.to_flat(ctx.seed_cochain(c).values)
    x2 = lsmr_g1(ctx, ctx.d0, target)
    F2 = TwistedCochain(0, ctx.from_flat(x2))
    diff = ctx.to_flat(fo.F.values - F2.values)
    in_kernel = ctx.kernel_project_flat(diff)
    assert np.sqrt(max((diff - in_kernel) @ (ctx.gram(0) @ (diff - in_kernel)), 0)) < 1e-8
    kappa = ctx.from_flat(in_kernel)
    _, kp = cartan_project(ctx.points, kappa)
    _, v2 = cartan_project(ctx.points, F2.values)
    assert np.abs((fo.v - v2) - kp).max() < 1e-8


# ----------------------------------------------------------------------
# obstruction

def test_obstruction_abelian_zero(gl1c_ctx):
    c = rv.Cocycle(gl1c_ctx.rep, {"a": np.array([[0.3 - 0.2j]]),
                                  "b": np.array([[0.1 + 0.4j]])})
    om, _ = gl1c_ctx.harmonic_rep(c)
    rep = df.obstruction_check(gl1c_ctx, om)
    assert rep.orthogonal and rep.defect < 1e-12


def test_obstruction_example_instance(trivial_ctx):
    # trivial rho, c(a) = e, c(b) = 0: obstructed with witness diag(1,-1)
    ctx = trivial_ctx
    c = rv.Cocycle(ctx.rep, {"a": E2, "b": 0 * E2})
    om, _ = ctx.harmonic_rep(c)
    rep = df.obstruction_check(ctx, om)
    assert not rep.orthogonal
    assert rep.defect > 1e-3 * rep.scale
    W = rep.witness.values[0]
    W = W / np.sqrt(abs(np.trace(W @ np.conj(W).T)))
    target = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(np.trace(W @ target)) - 1.0) < 1e-10


def test_obstruction_cartan_line_passes(diag_ctx):
    c = diag_cocycle(diag_ctx.rep)
    om, _ = diag_ctx.harmonic_rep(c)
    rep = df.obstruction_check(diag_ctx, om)
    assert rep.orthogonal
    assert rep.defect < 1e-10


def test_obstruction_defect_i_symmetry(diag_ctx, trivialC_ctx):
    for ctx, c in ((diag_ctx, offdiag_cocycle(diag_ctx.rep)),
                   (trivialC_ctx, rv.Cocycle(trivialC_ctx.rep,
                                             {"a": E2, "b": 0.3 * E2}))):
        om, _ = ctx.harmonic_rep(c)
        om_i, _ = ctx.harmonic_rep(c.scaled(1j))
        d1 = df.obstruction_check(ctx, om).defect
        d2 = df.obstruction_check(ctx, om_i).defect
        assert abs(d1 - d2) <= 1e-12 * max(1.0, d1)


# ----------------------------------------------------------------------
# psi equations and second order

#: torus_diag at (t ALPHA, t BETA): the stacked Ad - I of the generators has
#: singular values about 2 t |(ALPHA, BETA)| on the off-diagonal directions,
#: which the centralizer cutoff KERNEL_RTOL counts as kernel below this t
SWEEP_JUMP = th.KERNEL_RTOL / (2.0 * np.hypot(abs(ALPHA), abs(BETA)))


@pytest.mark.parametrize("t, kernel_dim, verdict", [
    (1.0, 2, "coboundary"), (1e-2, 2, "coboundary"), (1e-4, 2, "coboundary"),
    (2e-5, 2, "singular"), (1.01 * SWEEP_JUMP, 2, "singular"),
    (0.99 * SWEEP_JUMP, 6, "obstructed"), (1e-12, 6, "obstructed"),
    (0.0, 6, "obstructed")])
def test_reducibility_sweep(sl2c, torus66, t, kernel_dim, verdict):
    # the normalized coboundary c_t = (1 - Ad) E2 of torus_diag as t -> 0: it
    # reads exact while the KKT factor resolves it, the factor is singular
    # from t = 4.10e-5 (pivot ratio about t^2) down to the kernel jump, and
    # below the jump E2 is a centralizer direction and c_t the obstructed
    # class of the trivial rep; rho is diagonal, so reductive throughout
    rep = rv.torus_diag_rep(sl2c, torus66, t * ALPHA, t * BETA)
    ctx = converged(torus66, rep)
    assert ctx.kernel_dim == kernel_dim
    assert rep.reductive and abs(rep.trace_form_margin - 1.0) < 1e-9
    u = -np.expm1(2.0 * t * np.array([ALPHA, BETA])) if t else np.array([ALPHA, BETA])
    u = u / np.linalg.norm(u)
    c = rv.Cocycle(rep, {"a": u[0] * E2, "b": u[1] * E2})
    if verdict == "singular":
        with pytest.raises(th.SingularKKTError):
            ctx.harmonic_rep(c)
        return
    obs = df.obstruction_check(ctx, ctx.harmonic_rep(c)[0])
    if verdict == "coboundary":
        assert obs.orthogonal and obs.scale < 1e-12
    else:
        assert not obs.orthogonal
        assert abs(obs.scale - 1.0) < 1e-9
        assert abs(obs.defect - np.sqrt(2.0)) < 1e-9


def test_solve_psi_abelian(gl1c_ctx):
    ctx = gl1c_ctx
    path = rv.commuting_exp_path(ctx.rep, {"a": np.array([[0.3 - 0.2j]]),
                                           "b": np.array([[0.1 + 0.4j]])},
                                 {"a": np.array([[0.2 + 0.1j]]),
                                  "b": np.array([[-0.3j]])})
    c, k = path.jets()
    sol = df.solve_psi(ctx, c, k)
    assert sol.residuals["d_psi_plus_wedge"] < 1e-12
    assert sol.residuals["dstar_psi_plus_contract"] < 1e-12
    # psi is the harmonic representative of the k-class
    om_k, _ = ctx.harmonic_rep(rv.Cocycle(ctx.rep, k))
    assert np.abs(sol.psi.values - om_k.values).max() < 1e-10


def test_solve_psi_zero_jet(diag_ctx):
    rng = np.random.default_rng(1)
    xi = diag_ctx.group.random_alg(rng)
    c = rv.coboundary(diag_ctx.rep, xi)
    k = {"a": np.zeros((2, 2), dtype=complex), "b": np.zeros((2, 2), dtype=complex)}
    # k = 0 with coboundary c: jet validity requires the conjugation k-term,
    # so use the exact conjugation jets instead
    cc, kk = rv.conjugation_path(diag_ctx.rep, xi).jets()
    sol = df.solve_psi(diag_ctx, cc, kk)
    assert sol.residuals["d_psi_plus_wedge"] < 1e-7
    assert sol.residuals["dstar_psi_plus_contract"] < 1e-7


def test_solve_psi_matches_fd_second_derivative_of_beta(sl2c, torus66):
    # the p-part of psi approximates the second t-derivative of the edge
    # logarithm cochain along the analytic path
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    f0, _ = hf.flow(rep, hf.constant_map(torus66, rep), tol=1e-11)
    ctx = TwistedComplex(torus66, rep, f0)
    path = rv.commuting_exp_path(
        rep, {"a": np.diag([1.0, -1.0]).astype(complex),
              "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.2, -0.2]).astype(complex)})
    c, k = path.jets()
    sol = df.solve_psi(ctx, c, k)
    h = 1e-3
    betas = {}
    for t in (h, -h, 0.0):
        rep_t = path.at(t)
        f_t, _ = hf.flow(rep_t, hf.EquivariantMap(torus66, rep_t,
                                                  f0.points.copy()), tol=1e-11)
        betas[t] = TwistedComplex(torus66, rep_t, f_t).beta().values
    beta_dd = (betas[h] - 2 * betas[0.0] + betas[-h]) / (h * h)
    _, psi_p = cartan_project(ctx.edge_points, sol.psi.values)
    assert np.abs(psi_p - beta_dd).max() < 1e-4


def test_solve_psi_refuses_obstructed(trivial_ctx):
    c = rv.Cocycle(trivial_ctx.rep, {"a": E2, "b": 0 * E2})
    k = {"a": 0 * E2, "b": 0 * E2}
    with pytest.raises(df.ObstructedDeformationError) as err:
        df.solve_psi(trivial_ctx, c, k)
    assert err.value.report.defect > 0
    assert err.value.report.witness is not None


def test_second_order_diag_family(diag_ctx):
    path = rv.commuting_exp_path(
        diag_ctx.rep, {"a": np.diag([1.0, -1.0]).astype(complex),
                       "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.0, 0.0]).astype(complex)})
    c, k = path.jets()
    so, sol = df.second_order(diag_ctx, c, k)
    assert max(so.residuals.values()) < 1e-7
    # D2-flatness: dF = omega - seed, dF2-relation encoded in validate_pair
    res, om, psi = df.validate_pair(diag_ctx, c, k, so.F, so.F2,
                                    psi_expected=so.psi)
    assert max(res.values()) < 1e-7


def test_second_order_gl1c_real_projection(gl1c_ctx):
    # abelian: w-projection reduces to the real part of F2
    path = rv.commuting_exp_path(gl1c_ctx.rep, {"a": np.array([[0.3 - 0.2j]]),
                                                "b": np.array([[0.1 + 0.4j]])})
    c, k = path.jets()
    so, _ = df.second_order(gl1c_ctx, c, k)
    assert np.abs(so.w_beta - np.real(so.F2.values)).max() < 1e-12
    assert max(so.residuals.values()) < 1e-8


def test_second_order_uniqueness_shift(trivialC_ctx):
    ctx = trivialC_ctx
    c = rv.Cocycle(ctx.rep, {"a": np.diag([0.5, -0.5]).astype(complex),
                             "b": np.diag([0.2j, -0.2j])})
    k = {"a": np.zeros((2, 2), dtype=complex), "b": np.zeros((2, 2), dtype=complex)}
    so, _ = df.second_order(ctx, c, k)
    kerns = ctx.kernel_sections()
    Fs, F2s = ref.shifted_pair(so.F, so.F2, kerns[0], kerns[1])
    res, om, psi = df.validate_pair(ctx, c, k, Fs, F2s)
    assert max(res.values()) < 1e-7
    # psi shifts by 2 [omega, xi]
    shift = psi.values - so.psi.values \
        - 2.0 * ctx.bracket_section(so.omega, kerns[0]).values
    assert np.abs(shift).max() < 1e-9


def test_second_order_companion(diag_ctx):
    path = rv.commuting_exp_path(
        diag_ctx.rep, {"a": np.diag([1.0, -1.0]).astype(complex),
                       "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.1, -0.1]).astype(complex)})
    c, k = path.jets()
    so, _ = df.second_order(diag_ctx, c, k)
    Ft, F2t, psi_t, eta = df.companion_pair(diag_ctx, so)
    c_i = c.scaled(1j)
    k_neg = {n: -v for n, v in k.items()}
    assert rv.Jet2Cocycle(c_i, k_neg).validate(1e-10)
    res, om_t, psi_chk = df.validate_pair(diag_ctx, c_i, k_neg, Ft, F2t,
                                          psi_expected=psi_t)
    assert max(res.values()) < 1e-7
    # J(eta) = 2 omega* -| omega
    lhs = diag_ctx.codiff(diag_ctx.d(eta)).values
    rhs = 2.0 * diag_ctx.contract_star(so.omega, so.omega).values
    assert np.abs(lhs - rhs).max() < 1e-7


def test_flatness_criterion_across_metrics(diag_ctx):
    # h = h' instance (diagonal omega commutes with the kernel):
    # the obstruction check passes at f and at translated metrics h.f
    ctx = diag_ctx
    c = diag_cocycle(ctx.rep)
    om, _ = ctx.harmonic_rep(c)
    for kap in ctx.kernel_sections():
        assert np.abs(ctx.bracket_section(om, kap).values).max() < 1e-10
    assert df.obstruction_check(ctx, om).orthogonal
    base = ctx.kernel_sections()[0].values[0]
    _, basep = cartan_project(ctx.points[:1], base[None])
    h = ctx.group.exp(0.7 * basep[0])
    pts = np.stack([act(h, P) for P in ctx.points])
    f_h = hf.EquivariantMap(ctx.mesh, ctx.rep, pts)
    ctx_h = TwistedComplex(ctx.mesh, ctx.rep, f_h)
    assert hf.tension_norm(f_h) < 1e-7
    om_h, _ = ctx_h.harmonic_rep(c)
    assert df.obstruction_check(ctx_h, om_h).orthogonal


def test_equivalence_audit_bank(trivial_ctx, trivialC_ctx, diag_ctx,
                                unitary_ctx):
    # conditions (1) existence of psi and (2) kernel-orthogonality of the
    # contraction agree on a randomized instance bank
    rng = np.random.default_rng(42)
    instances = []
    for j in range(18):
        ctx = (trivial_ctx, trivialC_ctx)[j % 2]
        X = ctx.group.random_alg(rng)
        lam = rng.standard_normal()
        instances.append((ctx, rv.Cocycle(ctx.rep, {"a": X, "b": lam * X})))
    for j in range(16):
        vals = rng.standard_normal(8)
        c = rv.Cocycle(diag_ctx.rep, {
            "a": np.diag([vals[0] + 1j * vals[1], -vals[0] - 1j * vals[1]]),
            "b": np.diag([vals[2] + 1j * vals[3], -vals[2] - 1j * vals[3]])})
        instances.append((diag_ctx, c))
        instances.append((diag_ctx, offdiag_cocycle(diag_ctx.rep,
                                                    vals[4] + 1j * vals[5])))
    for j in range(16):
        vals = rng.standard_normal(4)
        c = rv.Cocycle(unitary_ctx.rep, {
            "a": np.diag([vals[0] + 1j * vals[1], -vals[0] - 1j * vals[1]]),
            "b": np.diag([vals[2] + 1j * vals[3], -vals[2] - 1j * vals[3]])})
        instances.append((unitary_ctx, c))
    assert len(instances) >= 50
    zero = {"a": np.zeros((2, 2), dtype=complex),
            "b": np.zeros((2, 2), dtype=complex)}
    n_obstructed = 0
    for ctx, c in instances:
        if not rv.Jet2Cocycle(c, zero).validate(1e-8):
            continue
        sol = df.solve_psi(ctx, c, zero, require_unobstructed=False)
        scale = max(sol.obstruction.scale, 1e-30)
        cond1 = sol.residuals["dstar_psi_plus_contract"] \
            <= 1e-7 * scale + 1e-12 * (1.0 + scale)
        cond2 = sol.obstruction.orthogonal
        assert cond1 == cond2, (cond1, cond2, sol.obstruction.defect)
        n_obstructed += not cond2
    assert n_obstructed >= 5     # the bank exercises both outcomes


def test_edge_jet_table_matches_per_edge_loop(fuchsianC_ctx):
    # the stacked (c(w_e), k(w_e)) table and the jet seed built on it equal
    # the per-edge word evaluations bit for bit
    ctx = fuchsianC_ctx
    c, k = rv.bending_path(ctx.rep, 0.4).jets()
    cw, kw = df._edge_jets(ctx, c, k)
    rng = np.random.default_rng(11)
    xi = TwistedCochain(0, np.stack([ctx.group.random_alg(rng)
                                     for _ in range(ctx.mesh.nv)]))
    _, seed = df._jet_transport(cw, kw, -df._transport(ctx, xi.values), 0.0)
    for i, e in enumerate(ctx.mesh.edges):
        if not e.label:
            assert not cw[i].any() and not kw[i].any() and not seed[i].any()
            continue
        assert np.array_equal(cw[i], ref.cocycle_word(c, e.label))
        assert np.array_equal(kw[i], ref.jet_word(rv.Jet2Cocycle(c, k), e.label).mu)
        g = ref.rho_word(ctx.rep, e.label)
        ad_xi = mul(mul(g, xi.values[e.dst]), np.linalg.inv(g))
        assert np.array_equal(seed[i], kw[i] - (mul(cw[i], ad_xi) - mul(ad_xi, cw[i])))


def test_solve_psi_makes_one_word_table_pass(fuchsianC_ctx, monkeypatch):
    # the seed of omega is the c(w_e) half of the edge jets, which equals
    # the seed cochain of c bit for bit
    ctx = fuchsianC_ctx
    c, k = rv.bending_path(ctx.rep, 0.4).jets()
    passes = []

    def counting(method):
        def wrapper(self, *args):
            passes.append(method.__name__)
            return method(self, *args)
        return wrapper
    for name in ("values", "jets"):
        monkeypatch.setattr(rv.WordTable, name, counting(getattr(rv.WordTable, name)))
    sol = df.solve_psi(ctx, c, k)
    assert passes == ["jets"]
    monkeypatch.undo()
    assert np.array_equal(sol.edge_jets[0], ctx.seed_cochain(c).values)


@pytest.mark.parametrize("ctx_name, imaginary", [("fuchsian_ctx", False),
                                                 ("fuchsianC_ctx", False),
                                                 ("fuchsianC_ctx", True)])
def test_psi_closes_on_genus2_bending(request, ctx_name, imaginary):
    # [F0, omega] does not vanish at the Fuchsian point, so the bracket order
    # of psi0 = omega2^0 - [F0, omega] shows only on genus 2
    ctx = request.getfixturevalue(ctx_name)
    c, k = rv.bending_path(ctx.rep, 0.5, imaginary=imaginary).jets()
    sol = df.solve_psi(ctx, c, k)
    so, _ = df.second_order(ctx, c, k)
    res, _, _ = df.validate_pair(ctx, c, k, so.F, so.F2)
    assert sol.residuals["d_psi_plus_wedge"] < 1e-10
    assert so.residuals["d_psi_plus_wedge"] < 1e-10
    assert res["d_psi_plus_wedge"] < 1e-10


@settings(max_examples=12, deadline=None)
@given(genus2=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.01, 1.0))
def test_pure_gauge_pair_closes_psi(trivial_ctx, fuchsianC_ctx, genus2, seed,
                                    scale):
    # c = k = 0 gauged by random vertex jets (1, F, F2): omega = dF and
    # psi = dF2 - [F, omega], so d psi + [omega u omega] = 0 exactly; random
    # F does not commute, even at the trivial representation
    ctx = fuchsianC_ctx if genus2 else trivial_ctx
    rng = np.random.default_rng(seed)
    F, F2 = (TwistedCochain(0, ctx.group.from_coords(
        scale * rng.standard_normal((ctx.mesh.nv, ctx.group.dim)))) for _ in range(2))
    zero = {name: np.zeros((2, 2), dtype=complex) for name in ctx.rep.generators}
    res, om, _ = df.validate_pair(ctx, rv.Cocycle(ctx.rep, zero), zero, F, F2)
    wedge = ctx.norm(ctx.bracket_wedge(om, om), 2)
    assert wedge > 1e-3 * scale ** 2
    assert res["d_psi_plus_wedge"] <= 1e-12 * (1.0 + wedge)
