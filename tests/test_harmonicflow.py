import dataclasses
import hashlib
import json
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from equivarlab import harmonicflow as hf
from equivarlab import hyperbolic as hyp
from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab import symspace as ss
from equivarlab.liealg import MatrixGroup, ct, mul
from equivarlab.symspace import act, dist, exp_point
from equivarlab.twistedhodge import TwistedComplex
from conftest import rounding_bound
import reference as ref


def evaluate(f):
    """The MapEval of a map."""
    return hf.MapEval(hf.FlowKernel(f.mesh, f.rep), f.points)


def test_energy_constant_trivial(sl2r, torus66):
    rep = rv.trivial_rep(sl2r, torus66)
    f = hf.constant_map(torus66, rep)
    assert hf.energy(f) < 1e-30
    assert np.abs(evaluate(f).tension_frame).max() < 1e-14


def test_energy_circle_axis_sampling(sl2r, circle8):
    # equally spaced points on the axis of diag(2, 1/2): E = 4 ln(2)^2
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    n = circle8.nv
    s = np.log(2.0)
    pts = np.stack([np.diag([np.exp(2 * s * i / n), np.exp(-2 * s * i / n)])
                    for i in range(n)]).astype(complex)
    f = hf.EquivariantMap(circle8, rep, pts)
    assert abs(hf.energy(f) - 4.0 * np.log(2.0) ** 2) < 1e-12
    assert hf.tension_norm(f) < 1e-9      # geodesically equispaced -> harmonic


def test_energy_conjugation_invariance(sl2c, torus66):
    rng = np.random.default_rng(0)
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    f = hf.random_map(torus66, rep, rng, 0.4)
    h = sl2c.exp(sl2c.random_alg(rng, 0.5))
    rep2 = rep.conjugate(h)
    f2 = hf.EquivariantMap(torus66, rep2, np.stack([act(h, P) for P in f.points]))
    assert abs(hf.energy(f) - hf.energy(f2)) < 1e-9 * max(1.0, hf.energy(f))


def test_tension_is_descent_direction(sl2r, circle8):
    # after a random perturbation of a harmonic map the tension is nonzero
    # and the flow's move along +tau decreases the energy (along -tau it
    # increases)
    rng = np.random.default_rng(1)
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f, rpt = hf.flow(rep, hf.constant_map(circle8, rep))
    assert rpt.converged
    pts = f.points.copy()
    for v in range(circle8.nv):
        pts[v] = exp_point(pts[v], 0.05 * sl2r.random_alg(rng, 1.0)
                           + 0.05 * sl2r.random_alg(rng, 1.0).conj().T)
    # symmetrize the perturbation direction at each point
    g = hf.EquivariantMap(circle8, rep, np.stack(
        [0.5 * (P + np.conj(P).T) for P in pts]))
    ev = evaluate(g)
    assert hf.tension_norm(g) > 1e-6
    eps = 1e-4
    E0 = hf.energy(g)
    up = hf.EquivariantMap(circle8, rep, ev.moved(eps, ev.tension_frame))
    down = hf.EquivariantMap(circle8, rep, ev.moved(-eps, ev.tension_frame))
    assert hf.energy(up) < E0
    assert hf.energy(down) > E0


def test_flow_hyperbolic_circle(sl2r, circle8):
    rng = np.random.default_rng(2)
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f, rpt = hf.flow(rep, hf.random_map(circle8, rep, rng, 0.4))
    assert rpt.converged
    exact = 4.0 * np.log(2.0) ** 2
    assert abs(rpt.energy - exact) < 1e-6 * exact
    assert rpt.reductive_suspected
    payload = json.loads(json.dumps(rpt.to_dict()))     # plain JSON values
    assert payload["converged"] is True and payload["reductive_suspected"] is True


def test_flow_parabolic_plateau(parabolic_run):
    rpt = parabolic_run[1]["result"]["flow"]
    assert not rpt["converged"]
    assert rpt["energy"] < 1e-3
    assert not rpt["reductive_suspected"]


def test_flow_trivial_rep(sl2r, torus66):
    rng = np.random.default_rng(3)
    rep = rv.trivial_rep(sl2r, torus66)
    f, rpt = hf.flow(rep, hf.random_map(torus66, rep, rng, 0.3))
    assert rpt.converged
    assert rpt.energy < 1e-12
    base = f.points[0]
    assert max(dist(base, f.points[v]) for v in range(torus66.nv)) < 1e-4


def test_flow_energy_monotone(sl2c, torus66):
    # in both phases the energy after max_iter = 1, 2, ..., K checks does
    # not rise
    rng = np.random.default_rng(4)
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    kern = hf.FlowKernel(torus66, rep)
    f0 = hf.random_map(torus66, rep, rng, 0.4)
    for phase in (hf._newton_flow, hf._explicit_flow):
        start = kern.evaluate(f0.points.astype(complex))
        hist = np.array([phase(kern, start, tol=1e-8, max_iter=k)[1].energy
                         for k in range(1, 13)])
        assert hist[-1] < hist[0]
        assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, hist[:-1]))


def test_flow_uniqueness_after_normalization(sl2r, genus2):
    rng = np.random.default_rng(5)
    rep = rv.genus2_fuchsian_rep(sl2r, genus2)
    f1, r1 = hf.flow(rep, hf.constant_map(genus2, rep))
    f2, r2 = hf.flow(rep, hf.random_map(genus2, rep, rng, 0.3))
    assert r1.converged and r2.converged
    assert hf.map_distance(ref.normalize_basepoint(f1),
                           ref.normalize_basepoint(f2)) < 1e-5


def test_float_and_complex_starts_agree(sl2r, genus2):
    # a float64 start is read as complex, and the tension accumulates in the
    # type of the points and the transports: no complex value is cast to
    # real, and the run equals that of the complex start bit for bit
    rep = rv.genus2_fuchsian_rep(sl2r, genus2)
    start = hf.constant_map(genus2, rep)
    real = hf.EquivariantMap(genus2, rep, start.points.real.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        f_real, r_real = hf.flow(rep, real)
    f, rpt = hf.flow(rep, start)
    assert real.points.dtype == np.float64 and rpt.converged
    assert dataclasses.asdict(r_real) == dataclasses.asdict(rpt)
    assert np.array_equal(f_real.points, f.points)


def test_energy_unitary(sl2c, torus66):
    rep = rv.torus_unitary_rep(sl2c, torus66)
    _, rpt = hf.flow(rep, hf.constant_map(torus66, rep))
    assert rpt.energy < 1e-10
    assert rpt.reductive_suspected


def test_energy_parabolic(sl2r):
    # the flow from the constant map; the 40 000-iteration plateau
    # (E < 1e-3) is covered by the parabolic_run fixture
    circle = mc.build_circle(4)
    rep = rv.parabolic_circle_rep(sl2r, circle)
    _, rpt = hf.flow(rep, hf.constant_map(circle, rep), max_iter=2000)
    assert rpt.iterations == 2000
    assert not rpt.reductive_suspected


def test_harmonic_map_takes_the_flow_defaults(sl2r, circle8, monkeypatch):
    # harmonic_map states no budget of its own: what its caller omits
    # (max_iter) takes flow's default, as every flow does
    rep = rv.hyperbolic_circle_rep(sl2r, circle8)
    calls = []
    flow = hf.flow

    def recording_flow(rep, start, **kw):
        calls.append(kw)
        return flow(rep, start, **kw)

    monkeypatch.setattr(hf, "flow", recording_flow)
    hf.harmonic_map(rep, hf.constant_map(circle8, rep), tol=1e-10)
    assert calls == [{"tol": 1e-10}]


def _near_parabolic(sl2r, eps):
    """Circle 4 with the diagonalizable image [[1 + eps, 1], [0, 1 / (1 + eps)]]."""
    circle = mc.build_circle(4)
    image = np.array([[1.0 + eps, 1.0], [0.0, 1.0 / (1.0 + eps)]])
    return circle, rv.circle_rep(sl2r, circle, image)


@pytest.mark.parametrize("eps, reductive", [(1e-2, True), (1e-3, True),
                                            (1e-4, True), (1e-5, False)])
def test_near_parabolic_semisimple_rep_is_reductive(sl2r, eps, reductive):
    # the image is diagonalizable, so rho is reductive and a harmonic map
    # exists, far out.  200 iterations end unconverged, the basepoint
    # leaving I and the energy sinking as for a parabolic image, so the
    # verdict comes from the images: reductive, except in the band below
    # TRACE_FORM_MARGIN (eps = 1e-5).  A converged run certifies a harmonic
    # map whatever the margin, so no report is converged and non-reductive
    circle, rep = _near_parabolic(sl2r, eps)
    _, rpt = hf.flow(rep, hf.constant_map(circle, rep), max_iter=200)
    assert rpt.iterations == 200 and not rpt.converged
    assert rpt.reductive_suspected is reductive
    _, rpt = hf.flow(rep, hf.constant_map(circle, rep), tol=1.0, max_iter=200)
    assert rpt.converged and rpt.reductive_suspected


def test_energy_gl1c_closed_form(gl1c, torus66):
    # rho(a) = e^{z1}, rho(b) = e^{z2}: the linear harmonic map gives
    # E = 2((Re z1)^2 + (Re z2)^2) in this discretization
    z1, z2 = 0.5 + 1.0j, -0.3 + 0.2j
    rep = rv.torus_gl1c_rep(gl1c, torus66, z1, z2)
    _, rpt = hf.flow(rep, hf.constant_map(torus66, rep))
    exact = 2.0 * (z1.real ** 2 + z2.real ** 2)
    assert abs(rpt.energy - exact) < 1e-9
    assert rpt.reductive_suspected


def _curved_torus_map_loop(mesh, rep, amplitude):
    """Reference: the map built one vertex at a time with MatrixGroup.exp."""
    n, m, group = mesh.meta["n"], mesh.meta["m"], rep.group
    C = np.zeros((group.n, group.n), dtype=complex)
    if group.n >= 2:
        C[0, 1] = C[1, 0] = 1.0
    else:
        C[0, 0] = 1j
    C = amplitude * C
    pts = np.empty((mesh.nv, group.n, group.n), dtype=complex)
    for j in range(m):
        for i in range(n):
            x, y = i / n, j / m
            s = group.exp(x * rep.logs["a"]) @ group.exp(y * rep.logs["b"]) \
                @ group.exp(np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * C)
            P = s @ np.conj(s).T
            if group.n > 1:
                P = P / np.abs(np.linalg.det(P)) ** (1.0 / group.n)
            pts[i + n * j] = P
    return pts


CURVED_REPS = {
    "sl2c_diag": (("sl", 2, "C"), lambda g, m: rv.torus_diag_rep(g, m, 0.4 + 0.3j,
                                                                 -0.2 + 0.5j)),
    "sl2r_diag": (("sl", 2, "R"), lambda g, m: rv.torus_diag_rep(g, m, 0.4, -0.2)),
    "gl1c": (("gl1c", 1, "C"), lambda g, m: rv.torus_gl1c_rep(g, m, 0.5 + 1.0j,
                                                              -0.3 + 0.2j)),
    "sl3r_exp": (("sl", 3, "R"), lambda g, m: rv.exp_family(g, m, {
        "a": np.diag([0.3, -0.1, -0.2]), "b": np.diag([-0.2, 0.5, -0.3])})),
}


@pytest.mark.parametrize("name", sorted(CURVED_REPS))
@pytest.mark.parametrize("n, m", [(6, 6), (7, 5)])
def test_curved_torus_map_matches_vertex_loop(name, n, m):
    group_key, make = CURVED_REPS[name]
    mesh = mc.build_torus(n, m)
    rep = make(MatrixGroup(*group_key), mesh)
    f = hf.curved_torus_map(mesh, rep, 0.3)
    ref = _curved_torus_map_loop(mesh, rep, 0.3)
    assert np.abs(f.points - ref).max() <= 1e-14 * np.abs(ref).max()


def test_curved_torus_map_is_equivariant():
    mesh = mc.build_torus(6, 6)
    labeled = np.array([bool(e.label) for e in mesh.edges])
    for group_key, make in CURVED_REPS.values():
        rep = make(MatrixGroup(*group_key), mesh)
        f = hf.curved_torus_map(mesh, rep, 0.3)
        d2 = evaluate(f).d2
        assert np.isfinite(d2).all()
        # wrap-around edges see the transported points, so all distances are
        # O(1/n) and no larger than across the interior edges
        assert np.sqrt(d2.max()) < 10.0 / 6.0
        assert d2[labeled].max() < 2.0 * d2[~labeled].max()


def test_curved_torus_map_rejects_traced_logs(sl2c, torus66):
    # the closed-form 2x2 exponential needs traceless input; det exp(A) = 1
    # still holds for trace 2 pi i
    A = np.diag([1j * np.pi, 1j * np.pi])
    rep = rv.exp_family(sl2c, torus66, {"a": A, "b": np.zeros((2, 2))})
    with pytest.raises(ValueError, match="traceless"):
        hf.curved_torus_map(torus66, rep)


@pytest.mark.parametrize("ctx_name", ["diag_ctx", "gl1c_ctx", "unitary_ctx",
                                      "trivial_ctx", "trivialC_ctx",
                                      "fuchsian_ctx", "fuchsianC_ctx"])
def test_kernel_transports_match_per_edge_loop(request, ctx_name):
    # the deck-word table of the kernel, gathered per edge, equals the
    # per-edge evaluation bit for bit, and the complex reads the same table
    ctx = request.getfixturevalue(ctx_name)
    n = ctx.group.n
    g = np.empty((ctx.mesh.ne, n, n), dtype=complex)
    for i, e in enumerate(ctx.mesh.edges):
        g[i] = ref.rho_word(ctx.rep, e.label) if e.label else np.eye(n)
    assert np.array_equal(ctx.kern.g, g)
    assert np.array_equal(ctx.kern.ginv, np.linalg.inv(g))
    assert ctx.kern.words is ctx.words
    assert np.array_equal(ctx.kern.g, ctx.words.rho[ctx.mesh.word_index.edge_word])


# ----------------------------------------------------------------------
# Newton solver: exact Hessian, agreement with the explicit flow, fallback

def _hessian_rep(group, mesh):
    kind = mesh.meta["kind"]
    if group.kind == "gl1c":
        # abelian, so any images satisfy the relators
        z = [0.5 + 1.0j, -0.3 + 0.2j, 0.2 - 0.4j, -0.1 + 0.6j]
        return rv.Representation.for_mesh(group, mesh, {
            g: np.array([[np.exp(z[i])]]) for i, g in enumerate(mesh.generators)})
    if kind == "circle":
        M = np.array([[2.0, 1.0], [0.0, 0.5]]) if group.field == "R" \
            else np.array([[1.5 + 0.5j, 1.0], [0.0, 1.0 / (1.5 + 0.5j)]])
        return rv.circle_rep(group, mesh, M)
    if kind == "torus":
        if group.field == "R":
            return rv.torus_diag_rep(group, mesh, 0.4, -0.2)
        return rv.torus_diag_rep(group, mesh, 0.4 + 0.3j, -0.2 + 0.5j)
    return rv.genus2_fuchsian_rep(group, mesh)


HESSIAN_MESHES = {"circle": mc.build_circle(6), "torus": mc.build_torus(4, 4),
                  "genus2": mc.build_genus2(1)}


@pytest.mark.parametrize("mesh_name", sorted(HESSIAN_MESHES))
@pytest.mark.parametrize("group_key", [("sl", 2, "R"), ("sl", 2, "C"),
                                       ("gl1c", 1, "C"), ("sl", 3, "R")])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 0.6))
def test_hessian_is_second_difference(mesh_name, group_key, seed, scale):
    # x^T H x is the central second difference of the energy along the
    # flow's move, which is exp_point(P, s R X S) for X in the vertex frames;
    # h = 1e-3, because the genus-2 transports leave about 1e-13 of rounding
    # in each energy value, which at h = 1e-4 reaches 5e-5 of x^T H x
    mesh = HESSIAN_MESHES[mesh_name]
    rep = _eval_rep(MatrixGroup(*group_key), mesh)
    kern = hf.FlowKernel(mesh, rep)
    rng = np.random.default_rng(seed)
    pts = hf.random_map(mesh, rep, rng, scale).points
    ev = hf.MapEval(kern, pts)
    H = ev.hessian()
    x = rng.standard_normal(H.shape[0])
    X = ev._frame_field(x)
    h = 1e-3
    E = [hf.MapEval(kern, ev.moved(s, X)).energy for s in (-h, 0.0, h)]
    fd = (E[0] - 2.0 * E[1] + E[2]) / h ** 2
    quad = x @ (H @ x)
    assert abs(quad - fd) <= 1e-5 * abs(quad)
    Hd = H.toarray()
    assert np.abs(Hd - Hd.T).max() <= 1e-12 * np.abs(Hd).max()
    assert np.linalg.eigvalsh(Hd).min() >= -1e-10 * np.abs(Hd).max()


def test_newton_step_reads_map_eval_frames(sl2r, genus2, monkeypatch):
    # the Newton model of a map is built from the frames of its MapEval:
    # no further eigendecomposition
    rep = rv.genus2_fuchsian_rep(sl2r, genus2)
    pts = hf.random_map(genus2, rep, np.random.default_rng(7), 0.3).points
    ev = hf.MapEval(hf.FlowKernel(genus2, rep), pts)
    calls = []
    eigh = ss._eigh

    def counting(P):
        calls.append(P.shape)
        return eigh(P)
    monkeypatch.setattr(ss, "_eigh", counting)
    X, decrease = ev.newton_step(1e-2)
    assert calls == []
    assert np.isfinite(X).all() and decrease > 0.0


def test_flow_leaves_prefix_inverses_unbuilt(sl2r, genus2, monkeypatch):
    # a flow reads rho and its inverse from the word table, never the
    # inverted prefix products of the cocycle and jet evaluations
    kernels = []

    class Recording(hf.FlowKernel):
        def __init__(self, mesh, rep):
            super().__init__(mesh, rep)
            kernels.append(self)
    monkeypatch.setattr(hf, "FlowKernel", Recording)
    rep = rv.genus2_fuchsian_rep(sl2r, genus2)
    _, rpt = hf.flow(rep, hf.constant_map(genus2, rep))
    assert rpt.converged and len(kernels) == 1
    built = vars(kernels[0].words)
    assert "rho_inv" in built and "prefix_inv" not in built


def _agreement(mesh, rep, f0):
    f, rpt = hf.flow(rep, f0, tol=1e-10)
    kern = hf.FlowKernel(mesh, rep)
    pts, slow = hf._explicit_flow(kern, kern.evaluate(f0.points.astype(complex)),
                                  tol=1e-10, max_iter=20000)
    assert rpt.solver == "newton" and slow.solver == "explicit"
    assert rpt.converged and slow.converged
    assert rpt.iterations - 1 <= 8
    assert abs(rpt.energy - slow.energy) <= 1e-12 * abs(slow.energy)
    g = hf.EquivariantMap(mesh, rep, pts)
    assert hf.map_distance(ref.normalize_basepoint(f),
                           ref.normalize_basepoint(g)) < 1e-6


def test_newton_matches_explicit_hyperbolic_circle(sl2r, circle8):
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    _agreement(circle8, rep, hf.random_map(circle8, rep, np.random.default_rng(2), 0.4))


def test_newton_matches_explicit_torus_random(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    _agreement(torus66, rep, hf.random_map(torus66, rep, np.random.default_rng(4), 0.4))


def test_newton_matches_explicit_genus2(sl2r, genus2):
    rep = rv.genus2_fuchsian_rep(sl2r, genus2)
    _agreement(genus2, rep, hf.constant_map(genus2, rep))


def _explicit_run(rep, f0, **kw):
    args = dict(tol=1e-8, max_iter=20000)
    args.update(kw)
    kern = hf.FlowKernel(f0.mesh, rep)
    return hf._explicit_flow(kern, kern.evaluate(f0.points.astype(complex)), **args)


def test_parabolic_takes_explicit_path(sl2r):
    circle = mc.build_circle(4)
    rep = rv.parabolic_circle_rep(sl2r, circle)
    f0 = hf.constant_map(circle, rep)
    f, rpt = hf.flow(rep, f0, max_iter=2000)
    pts, ref = _explicit_run(rep, f0, max_iter=2000)
    assert rpt.solver == "explicit"
    assert dataclasses.asdict(rpt) == dataclasses.asdict(ref)
    assert np.array_equal(f.points, pts)
    assert "solver" not in rpt.to_dict()


def test_fallback_evaluates_its_start_once(sl2r, monkeypatch):
    # the explicit flow descends from the MapEval the Newton phase began from
    circle = mc.build_circle(4)
    rep = rv.parabolic_circle_rep(sl2r, circle)
    f0 = hf.constant_map(circle, rep)
    built = []
    init = hf.MapEval.__init__

    def recorded_init(self, kern, points):
        built.append(points.copy())
        init(self, kern, points)
    monkeypatch.setattr(hf.MapEval, "__init__", recorded_init)
    _, rpt = hf.flow(rep, f0, max_iter=5)
    assert rpt.solver == "explicit"
    assert sum(np.array_equal(p, f0.points) for p in built) == 1


def test_singular_newton_factor_falls_back(sl2r, circle8, monkeypatch):
    # a singular factor, a Hessian with a NaN or a NaN solve ends the Newton
    # phase, and the explicit flow runs from the start
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f0 = hf.constant_map(circle8, rep)
    pts, ref = _explicit_run(rep, f0)
    hessian = hf.MapEval.hessian

    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    def nan_solve(A):
        return types.SimpleNamespace(solve=lambda b: np.full_like(b, np.nan))

    def nan_hessian(self, mu):
        H = hessian(self, mu)
        H.data[0] = np.nan
        return H

    for owner, name, fault in [(hf.spla, "splu", singular), (hf.spla, "splu", nan_solve),
                               (hf.MapEval, "hessian", nan_hessian)]:
        with monkeypatch.context() as m:
            m.setattr(owner, name, fault)
            f, rpt = hf.flow(rep, f0)
        assert rpt.solver == "explicit" and rpt.converged, fault.__name__
        assert dataclasses.asdict(rpt) == dataclasses.asdict(ref)
        assert np.array_equal(f.points, pts)


def test_non_finite_start_raises(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    f0 = hf.constant_map(torus66, rep)
    f0.points[3, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        hf.flow(rep, f0)


def test_oversize_step_is_a_silent_rejection(sl2c, torus66):
    # an overflowing move, the path every flow candidate takes, comes back
    # non-finite without a warning and evaluates as a rejected candidate
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    kern = hf.FlowKernel(torus66, rep)
    pts = hf.random_map(torus66, rep, np.random.default_rng(6), 0.4).points
    ev = hf.MapEval(kern, pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cand = ev.moved(1e6, ev.tension_frame)
        assert not np.isfinite(cand).all()
        assert kern.evaluate(cand) is None


# ----------------------------------------------------------------------
# the exits of both phases, each reached from a real input

def _newton_candidates(monkeypatch):
    """Candidates the line search evaluates in each Newton step, recorded
    as the flow runs: 1 for a full step, 34 (alpha = 1, 1/2, ..., 2^-33)
    when it gives up below alpha = 1e-10.  The start's evaluation, before
    the first step, is not counted, and counting stops when the explicit
    flow takes over, whose candidates go through the same evaluate."""
    steps = []
    newton_step, evaluate = hf.MapEval.newton_step, hf.FlowKernel.evaluate
    explicit_flow = hf._explicit_flow

    def counted_step(self, mu):
        steps.append(0)
        return newton_step(self, mu)

    def counted_evaluate(self, points):
        if steps:
            steps[-1] += 1
        return evaluate(self, points)

    def uncounted_explicit_flow(kern, start, **args):
        monkeypatch.setattr(hf.FlowKernel, "evaluate", evaluate)
        return explicit_flow(kern, start, **args)
    monkeypatch.setattr(hf.MapEval, "newton_step", counted_step)
    monkeypatch.setattr(hf.FlowKernel, "evaluate", counted_evaluate)
    monkeypatch.setattr(hf, "_explicit_flow", uncounted_explicit_flow)
    return steps


#: Newton runs to tol = 1e-10 pinned bit for bit: iterations, float.hex of
#: energy and tension, and the sha256 of the final points
NEWTON_PINS = {
    "torus6_sl2c_constant": (
        3, "0x1.999999999999cp-1", "0x1.615c4adb77185p-46",
        "2458bf4d633ea237bc015b3721434e4a98029b7f0d046171138bc07cf3925ea4"),
    "genus2_k2_sl2c_random": (
        6, "0x1.ab6ba22e7dc64p-1", "0x1.196c12781aaf9p-53",
        "c6dfb2a9d47715c1f11be023eb62291df6fb7cd42fa5edafb2f1ce5091608ec5"),
    # a far random start; every step is a full one
    "circle8_hyperbolic_scale10": (
        7, "0x1.ebfbdff82c592p+0", "0x1.6471b790b6cf5p-43",
        "7d33c002fd65e0504eb6e54d1db77a1ee7f32563009d1147df0de7ee526d8a97"),
}


def _newton_case(name):
    """(rep, start map) of one pinned Newton run."""
    if name == "torus6_sl2c_constant":
        mesh = mc.build_torus(6, 6)
        rep = rv.torus_diag_rep(MatrixGroup("sl", 2, "C"), mesh, 0.4 + 0.3j,
                                -0.2 + 0.5j)
        return rep, hf.constant_map(mesh, rep)
    if name == "genus2_k2_sl2c_random":
        mesh = mc.build_genus2(2)
        rep = rv.genus2_fuchsian_rep(MatrixGroup("sl", 2, "C"), mesh)
        return rep, hf.random_map(mesh, rep, np.random.default_rng(7), 0.4)
    mesh = mc.build_circle(8)
    rep = rv.hyperbolic_circle_rep(MatrixGroup("sl", 2, "R"), mesh, 2.0)
    return rep, hf.random_map(mesh, rep, np.random.default_rng(1), 10.0)


@pytest.mark.parametrize("name", sorted(NEWTON_PINS))
def test_newton_phase_is_pinned(name):
    # the goldens compare floats at 1e-12, so they do not pin the Newton
    # phase; these runs do, to the last bit
    rep, f0 = _newton_case(name)
    f, rpt = hf.flow(rep, f0, tol=1e-10)
    assert rpt.solver == "newton" and rpt.converged
    assert (rpt.iterations, rpt.energy.hex(), rpt.tension.hex(),
            hashlib.sha256(f.points.tobytes()).hexdigest()) == NEWTON_PINS[name]


def _constant_at(mesh, rep, s):
    """The constant map at diag(e^s, e^-s), at distance sqrt(2) s from I."""
    P = np.diag([np.exp(s), np.exp(-s)]).astype(complex)
    return hf.EquivariantMap(mesh, rep, np.broadcast_to(P, (mesh.nv, 2, 2)).copy())


def test_newton_backtracks_from_a_far_start(sl2r, circle8, monkeypatch):
    # a random start at scale 10 is far outside the Newton model: from seed
    # 20 the first step is halved, and Newton still reaches the geodesic, of
    # energy 4 log^2(lambda).  From most such starts, seed 1 among them
    # (NEWTON_PINS), every step is a full one
    steps = _newton_candidates(monkeypatch)
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f0 = hf.random_map(circle8, rep, np.random.default_rng(20), 10.0)
    _, rpt = hf.flow(rep, f0, tol=1e-10)
    assert rpt.solver == "newton" and rpt.converged
    assert len(steps) == rpt.iterations - 1 and steps[0] > 1
    assert abs(rpt.energy - 4.0 * np.log(2.0) ** 2) < 1e-12


#: converged Newton runs, of 60 random starts, at each far scale: the counts
#: of the closed-form SL(2) evaluation (57 / 42 / 27 when the energy was read
#: from eigh's floored eigenvalues; 47 at scale 10 while a candidate of
#: det -1 passed the gate)
FAR_START_CONVERGED = {6.0: 57, 8.0: 50, 10.0: 48}

#: converged flows (Newton, then the explicit fallback), of the same 60
#: starts at scales 8 and 10 (57 / 52 from eigh's floored eigenvalues, which
#: ended 3 / 8 of them with step_underflow)
FAR_FLOW_CONVERGED = {8.0: 60, 10.0: 60}


def test_newton_far_start_scan(sl2r, circle8):
    # robustness guard: from random starts far out on the hyperbolic circle
    # the Newton phase raises on none and converges on no fewer of them
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    kern = hf.FlowKernel(circle8, rep)
    for scale, floor in FAR_START_CONVERGED.items():
        converged = 0
        for seed in range(60):
            f0 = hf.random_map(circle8, rep, np.random.default_rng(seed), scale)
            start = kern.evaluate(f0.points.astype(complex))
            _, rpt = hf._newton_flow(kern, start, tol=1e-10, max_iter=20000)
            converged += rpt.converged
        assert converged >= floor, scale


def test_far_start_flows_converge(sl2r, circle8):
    # the full flow from the same far starts; some of their float points, up
    # to 34 from I, miss det 1 by 1 or 2
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    for scale, floor in FAR_FLOW_CONVERGED.items():
        converged = 0
        for seed in range(60):
            f0 = hf.random_map(circle8, rep, np.random.default_rng(seed), scale)
            converged += hf.flow(rep, f0)[1].converged
        assert converged >= floor, scale


def test_newton_gives_up_and_explicit_polish_underflows(sl2c, monkeypatch):
    # a tolerance below the rounding floor of the tension: Newton's polish
    # search finds no smaller tension down to alpha = 1e-10 and gives up;
    # the explicit flow's fixed-step polish then halves its step below
    # 1e-16 and flags the underflow, at the harmonic energy
    mesh = mc.build_torus(4, 4)
    rep = rv.torus_diag_rep(sl2c, mesh, 0.4 + 0.3j, -0.2 + 0.5j)
    _, harmonic = hf.flow(rep, hf.constant_map(mesh, rep), tol=1e-10)
    steps = _newton_candidates(monkeypatch)
    _, rpt = hf.flow(rep, hf.constant_map(mesh, rep), tol=1e-17)
    assert steps[-1] == 34
    assert rpt.solver == "explicit" and rpt.step_underflow
    assert not rpt.converged and rpt.reductive_suspected
    # at this tension every step up to the 1e8 cap is in the polish regime
    assert 0.25 * 1e8 * rpt.tension ** 2 < 1e-13
    assert abs(rpt.energy - harmonic.energy) < 1e-12


def test_exhausted_run_reports_the_map_it_returns(sl2c):
    # one explicit step from a far random start: drift, energy and tension
    # are all those of the returned map, not of the start
    torus = mc.build_torus(4, 4)
    rep = rv.torus_diag_rep(sl2c, torus)
    f0 = hf.random_map(torus, rep, np.random.default_rng(0), 3.0)
    f, rpt = hf.flow(rep, f0, max_iter=1)
    ev = hf.MapEval(hf.FlowKernel(torus, rep), f.points)
    assert rpt.iterations == 1 and not rpt.converged
    assert rpt.basepoint_drift == ss.origin_dist(f.points[0])
    assert rpt.energy == ev.energy
    assert rpt.tension == np.sqrt(ev.tension_sq)
    assert abs(rpt.basepoint_drift - 2.1019) < 1e-4


def test_last_step_that_converges_counts(sl2r, circle8):
    # Newton from the constant map converges in 3 checks; with max_iter 2
    # its second step reaches tension 1.7e-12, and the run that stops there
    # is converged
    rep = rv.hyperbolic_circle_rep(sl2r, circle8)
    f, rpt = hf.flow(rep, hf.constant_map(circle8, rep), max_iter=2)
    assert rpt.solver == "newton" and rpt.converged and rpt.iterations == 2
    assert rpt.tension < 1e-11
    assert rpt.tension == hf.tension_norm(f)


def test_newton_drift_exit_and_convergence_outside_the_radius(sl2r, circle8):
    # every constant map is harmonic for the trivial representation.  One
    # at distance 3 sqrt(2) from I, however far it lies from the basepoint,
    # is converged at Newton's first check, with its drift reported, and rho
    # is reductive
    rep = rv.trivial_rep(sl2r, circle8)
    f0 = _constant_at(circle8, rep, 3.0)
    f, rpt = hf.flow(rep, f0)
    assert rpt.solver == "newton" and rpt.iterations == 1
    assert rpt.tension == 0.0
    assert rpt.converged and rpt.reductive_suspected
    assert abs(rpt.basepoint_drift - 3.0 * np.sqrt(2.0)) < 1e-12
    assert np.array_equal(f.points, f0.points)


@pytest.mark.parametrize("s, solver, iterations", [
    (37.0, "newton", 8), (40.0, "newton", 8), (45.0, "newton", 8),
    (60.0, "newton", 9), (80.0, "newton", 10), (40.0, "explicit", 350),
    (45.0, "explicit", 352), (60.0, "explicit", 352), (80.0, "explicit", 355)])
def test_flow_converges_from_below_the_floor(sl2r, s, solver, iterations):
    # from diag(e^s, e^-s), up to 113 from I, the small eigenvalue is below
    # the 1e-14 floor, yet energy, tension and Hessian read exactly
    # (test_far_constant_start_matches_mpmath) and each step moves the points
    # in their vertex frames, and the flow reaches the harmonic map at I:
    # Newton does from every start, and the explicit flow alone (flow's
    # fallback) does too.  Newton's first frame step from e^40 once landed
    # on det -1 at every vertex, with positive traces, and gave up there;
    # from e^60 the explicit flow once underflowed at its first step, and
    # from e^40 and e^45 it converged on clamped eigenvalues
    circle = mc.build_circle(4)
    rep = rv.elliptic_circle_rep(sl2r, circle)
    f0 = _constant_at(circle, rep, s)
    assert np.linalg.eigvalsh(f0.points[0]).min() < ss._EIG_FLOOR
    _, rpt = hf.flow(rep, f0) if solver == "newton" else _explicit_run(rep, f0)
    assert rpt.solver == solver and rpt.converged
    assert not rpt.step_underflow and rpt.iterations == iterations
    assert rpt.energy < 1e-15 and rpt.basepoint_drift < 1e-6


def _sl3_elliptic_at(sl3r, s):
    """(rep, start) on circle 4: the SL(2,R) elliptic rotation in the upper
    block of SL(3,R), and the constant map at diag(e^s, e^-s, 1)."""
    circle = mc.build_circle(4)
    c, sn = np.cos(0.7), np.sin(0.7)
    rep = rv.circle_rep(sl3r, circle, np.array([[c, -sn, 0], [sn, c, 0], [0, 0, 1]]))
    P = np.diag([np.exp(s), np.exp(-s), 1.0]).astype(complex)
    return rep, hf.EquivariantMap(circle, rep, np.broadcast_to(P, (circle.nv, 3, 3)).copy())


def test_harmonic_map_far_from_I_within_the_floor_is_converged(sl2r, circle8):
    # the good side of symspace._FLOOR_DIST (45.6): the hyperbolic circle
    # rep at lam = 2 conjugated by diag(e^14, e^-14) R(0.3) has its harmonic
    # map 39.04 from I, a converged map of energy 4 log^2 2
    c, s = np.cos(0.3), np.sin(0.3)
    h = np.diag([np.exp(14.0), np.exp(-14.0)]) @ np.array([[c, -s], [s, c]])
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0).conjugate(h)
    f, rpt = hf.flow(rep, hf.constant_map(circle8, rep))
    assert rpt.converged and rpt.solver == "newton"
    assert 39.0 < ss.origin_dist(f.points).max() < ss._FLOOR_DIST
    exact = 4.0 * np.log(2.0) ** 2
    assert abs(rpt.energy - exact) <= 1e-10 * exact


@pytest.mark.parametrize("s, solver, iterations", [
    (20.0, "newton", 6), (40.0, "newton", 6), (60.0, "explicit", 311)])
def test_sl3_flow_converges_from_far_out(sl3r, s, solver, iterations):
    # the SVD edge frame, with the smallest singular value read from
    # |det Z| = 1, keeps the far energy and tension exact
    # (test_sl3_far_start_matches_mpmath): Newton converges from e^20 and
    # e^40, where eigh of S Q S once made it give up (the explicit flow took
    # 364 passes from e^20 and underflowed after 14 from e^40).  From e^60
    # Newton's first full step still overflows (1e-17 of rounding off the
    # diagonal of the step, through e^60) and the explicit flow converges
    rep, f0 = _sl3_elliptic_at(sl3r, s)
    _, rpt = hf.flow(rep, f0)
    assert rpt.solver == solver and rpt.converged
    assert not rpt.step_underflow and rpt.iterations == iterations
    assert rpt.energy < 1e-15 and rpt.basepoint_drift < 1e-6


def _sym2(M):
    """Sym^2 of 2 x 2 matrices in the orthonormal basis e1^2, sqrt(2) e1 e2,
    e2^2 of Sym^2(C^2), so that SU(2) goes into SU(3)."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    r = np.sqrt(2.0)
    return np.stack([np.stack([a * a, r * a * b, b * b], -1),
                     np.stack([r * a * c, a * d + b * c, r * b * d], -1),
                     np.stack([c * c, r * c * d, d * d], -1)], -2)


@pytest.mark.parametrize("k", [1, 2])
def test_principal_sl3_map_is_sym2_of_the_sl2_map(sl2r, sl3r, k):
    # Sym^2 embeds H^2 totally geodesically with distances doubled, and the
    # harmonic map of the irreducible Fuchsian rho is unique, so the SL(3,R)
    # harmonic map of Sym^2 rho is Sym^2 of the SL(2,R) one and
    # E(Sym^2 rho) = 4 E(rho) on any mesh: the closed-form SL(2) kernel
    # against the SVD kernel
    mesh = mc.build_genus2(k)
    rep2 = rv.genus2_fuchsian_rep(sl2r, mesh)
    rep3 = rv.Representation.for_mesh(sl3r, mesh, {
        name: _sym2(np.real(M)) for name, M in rep2.images.items()})
    f2, rpt2 = hf.harmonic_map(rep2, hf.constant_map(mesh, rep2), tol=1e-11)
    f3, rpt3 = hf.harmonic_map(rep3, hf.constant_map(mesh, rep3), tol=1e-11)
    assert rpt3.solver == "newton"
    assert abs(rpt3.energy - 4.0 * rpt2.energy) <= 1e-12 * rpt3.energy
    assert hf.map_distance(f3, hf.EquivariantMap(mesh, rep3, _sym2(f2.points))) <= 1e-12


def test_explicit_armijo_underflow_far_out(sl3r, monkeypatch):
    # the far SL(3,R) start of e^60, above, from which no candidate now
    # evaluates: Newton gives up, and the explicit Armijo search halves its
    # first step below 1e-16.  No natural input still ends this way (the
    # eigh edge frame once refused every candidate from this start), so the
    # gate refuses all but the start
    rep, f0 = _sl3_elliptic_at(sl3r, 60.0)
    evaluate = hf.FlowKernel.evaluate
    monkeypatch.setattr(hf.FlowKernel, "evaluate", lambda self, points: (
        evaluate(self, points) if np.array_equal(points, f0.points) else None))
    _, rpt = hf.flow(rep, f0)
    assert rpt.solver == "explicit" and rpt.iterations == 1
    assert rpt.step_underflow and not rpt.converged
    # the first step, 0.5 step_scale, is outside the polish regime, so the
    # underflow is the Armijo search's
    step = 0.5 * hf.FlowKernel(f0.mesh, rep).step_scale
    assert 0.25 * step * rpt.tension ** 2 >= 1e-13 * rpt.energy


def test_flow_stopping_at_the_eigenvalue_floor_is_not_converged(sl2r):
    # the parabolic circle has no harmonic map.  From diag(e^34, e^-34), at
    # 34 sqrt 2 = 48.08 from I, beyond _FLOOR_DIST = 45.59, the small
    # eigenvalue e^-34 is below the floor and the map has tension 6.9e-15;
    # a run once stopped at such a map as converged and reductive
    circle = mc.build_circle(4)
    rep = rv.parabolic_circle_rep(sl2r, circle)
    f0 = _constant_at(circle, rep, 34.0)
    assert np.linalg.eigvalsh(f0.points[0]).min() < ss._EIG_FLOOR
    _, rpt = hf.flow(rep, f0)
    assert rpt.iterations == 1 and rpt.tension < 1e-8
    assert abs(rpt.basepoint_drift - 34.0 * np.sqrt(2.0)) < 1e-12
    assert rpt.basepoint_drift >= ss._FLOOR_DIST
    assert not rpt.converged and not rpt.reductive_suspected


def test_far_drift_is_exact(sl2r):
    # from diag(e^37, e^-37) the parabolic flow reports the drift of the map
    # it returns, 37 sqrt 2 = 52.33 (49.07 once, from eigh's floored
    # eigenvalues); its tension is below tol there, so it stops at its
    # first check, unconverged beyond the floor distance
    circle = mc.build_circle(4)
    rep = rv.parabolic_circle_rep(sl2r, circle)
    f, rpt = hf.flow(rep, _constant_at(circle, rep, 37.0))
    assert abs(rpt.basepoint_drift - 37.0 * np.sqrt(2.0)) < 1e-12
    assert rpt.iterations == 1 and rpt.basepoint_drift > 50.0
    assert not rpt.converged and not rpt.reductive_suspected


# ----------------------------------------------------------------------
# one evaluation per candidate: energy first, tension only on acceptance

def _edge_frame(kern, pts, roots, e):
    """(c, Fs, Ff) of edge e alone, log(Z Z^†) = c Fs and log(Z^† Z) = c Ff
    for Z = S_src g R_dst: for n = 2 c = l / sinh l of sl2_frame and the
    traceless Gram parts of sl2_grams; otherwise c = 2 and the logs
    U log Sigma U^†, V log Sigma V^† of edge_svd."""
    s, d = kern.src[e], kern.dst[e]
    Z = mul(mul(roots[s][1], kern.g[e]), roots[d][0])
    if kern.n == 2:
        _, sh, ell = ss.sl2_frame(pts[s], act(kern.g[e], pts[d]))
        return (ss.sl2_csch(sh, ell), *ss.sl2_grams(Z))
    U, logs, V = ss.edge_svd(Z)
    return 2.0, ss._spectral(U, logs), ss._spectral(V, logs)


def _tension_frame(kern, pts):
    """S tau R per vertex (S = P^{-1/2}, R = P^{1/2}), summed one edge at a
    time from _edge_frame, source terms first: w1 c Fs at the source and
    -w1 c Ff at the far end."""
    roots = [ss.roots(P) for P in pts]
    fwd, back = [], []
    for e in range(len(kern.src)):
        c, Fs, Ff = _edge_frame(kern, pts, roots, e)
        c = kern.w1[e] * c
        fwd.append(c * Fs)
        back.append(-c * Ff)
    T = np.zeros(pts.shape, dtype=complex)
    for e, s in enumerate(kern.src):
        T[s] += fwd[e]
    for e, d in enumerate(kern.dst):
        T[d] += back[e]
    return T


def _norm_sq(kern, T):
    """Weighted L2 norm^2 sum_v w0 ||T_v||_F^2, one vertex at a time."""
    vals = np.empty(len(T))
    for v in range(len(T)):
        vals[v] = np.sum(T[v].real ** 2 + T[v].imag ** 2)
    return float(np.dot(kern.w0, vals))


def _moved(pts, s, X):
    """The points moved by s along X, a tangent field in the vertex frames:
    R e^{2 s X} R one vertex at a time (symspace.exph), then the stacked
    determinant normalization."""
    new = np.stack([ss._hermitize(mul(mul(R, ss.exph(2.0 * s * X[v])), R))
                    for v, (R, _) in enumerate(map(ss.roots, pts))])
    with np.errstate(all="ignore"):
        return hf._unit_det(new)


def _reference_explicit_flow(kern, pts, *, tol, max_iter):
    """The explicit flow that evaluates the energy and the per-edge tension
    of every candidate, and builds its report from the map it returns, its
    drift measured by ss.dist."""
    eye = np.eye(kern.n, dtype=complex)
    underflow = False
    E = hf.MapEval(kern, pts).energy
    step = 0.5 * kern.step_scale
    for it in range(1, max_iter + 1):
        T = _tension_frame(kern, pts)
        gsq = _norm_sq(kern, T)
        if np.sqrt(gsq) < tol:
            break
        accepted = False
        if 0.25 * step * gsq < 1e-13 * max(1.0, abs(E)):
            cand = _moved(pts, step, T)
            Ec = hf.MapEval(kern, cand).energy
            if (not np.array_equal(cand, pts)
                    and _norm_sq(kern, _tension_frame(kern, cand)) <= gsq * (1.0 + 1e-6)):
                pts, E = cand, Ec
                accepted = True
            else:
                step *= 0.5
                accepted = step > 1e-16
            if not accepted:
                underflow = True
                break
            continue
        while step > 1e-16:
            cand = _moved(pts, step, T)
            Ec = hf.MapEval(kern, cand).energy
            if Ec <= E - 0.25 * step * gsq:
                pts, E = cand, Ec
                step = min(step * 1.4, 1e8)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            underflow = True
            break
    tension = float(np.sqrt(_norm_sq(kern, _tension_frame(kern, pts))))
    drift = ss.dist(eye, pts[0])
    converged = bool(tension < tol)
    return pts, hf.FlowReport(E, tension, it, converged, drift,
                              converged or kern.rep.reductive, underflow,
                              "explicit")


def _unit_det_where(new):
    """hf._unit_det with its NaN branch over the whole stack (np.where)."""
    n = new.shape[-1]
    det = (new[:, 0, 0] * new[:, 1, 1] - new[:, 0, 1] * new[:, 1, 0]
           if n == 2 else np.linalg.det(new))
    scale = np.where(det.real > 0.0, np.abs(det), np.nan)
    return new / (scale ** (1.0 / n))[:, None, None]


@pytest.mark.parametrize("n", [2, 3])
def test_unit_det_equals_its_where_form(n):
    # _unit_det takes its NaN branch only when one min shows a determinant
    # at or below zero; on stacks that mix such points, non-finite ones and
    # positive ones it equals the np.where form bit for bit
    rng = np.random.default_rng(3)
    fast = slow = 0
    for trial in range(200):
        size = int(rng.integers(1, 7))
        P = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
        P = mul(P, ct(P)) + 0.1 * np.eye(n)         # Hermitian positive
        flip = rng.random(size) < (0.0 if trial % 2 else 0.3)
        P[flip, 0] *= -1.0                          # det < 0
        P[rng.random(size) < 0.1, 0, 0] = 0.0       # det of either sign
        P[rng.random(size) < (0.1 if trial % 4 == 3 else 0.0), -1, -1] = np.nan
        P[rng.random(size) < (0.1 if trial % 4 == 3 else 0.0), 0, -1] = np.inf
        with np.errstate(all="ignore"):
            got, want = hf._unit_det(P), _unit_det_where(P)
            det = (P[:, 0, 0] * P[:, 1, 1] - P[:, 0, 1] * P[:, 1, 0]
                   if n == 2 else np.linalg.det(P))
        assert np.array_equal(got.view(float), want.view(float), equal_nan=True)
        fast += bool(det.real.min() > 0.0)
        slow += not det.real.min() > 0.0
    assert fast > 0 and slow > 0


def test_rejected_trial_pays_for_its_energy_alone(monkeypatch):
    # 200 explicit plateau iterations from a given start: every trial map
    # builds its energy once, and the tension (with the roots, Z and Gram
    # parts it is summed from) is built only for the start and for each
    # accepted map; the run equals an uncounted one
    mesh = mc.build_circle(4)
    rep = rv.parabolic_circle_rep(MatrixGroup("sl", 2, "R"), mesh)
    kern = hf.FlowKernel(mesh, rep)
    pts0 = hf.constant_map(mesh, rep).points.astype(complex)
    args = dict(tol=1e-8, max_iter=200)
    ref_pts, ref_rpt = hf._explicit_flow(kern, kern.evaluate(pts0), **args)
    start = kern.evaluate(pts0)
    counts = dict.fromkeys(["trials", "energy", "tension", "accepted"], 0)

    def counted(name, fn):
        def wrapped(*a, **kw):
            counts[name] += 1
            return fn(*a, **kw)
        return wrapped

    descend = hf._descend

    def counted_descend(kern, ev, step, solver, **kw):
        def counted_step(cur):
            nxt = step(cur)
            counts["accepted"] += nxt is not None and nxt is not cur
            return nxt
        return descend(kern, ev, counted_step, solver, **kw)

    monkeypatch.setattr(hf.FlowKernel, "evaluate", counted("trials", hf.FlowKernel.evaluate))
    monkeypatch.setattr(hf.MapEval, "__init__", counted("energy", hf.MapEval.__init__))
    monkeypatch.setattr(hf.MapEval, "_tension", counted("tension", hf.MapEval._tension))
    monkeypatch.setattr(hf, "_descend", counted_descend)
    pts, rpt = hf._explicit_flow(kern, start, **args)
    assert counts["energy"] == counts["trials"] > counts["accepted"] > 0
    assert counts["tension"] == counts["accepted"] + 1
    assert np.array_equal(pts, ref_pts)
    assert dataclasses.asdict(rpt) == dataclasses.asdict(ref_rpt)


SL3R_LOGS = {"a": np.diag([0.3, -0.1, -0.2]), "b": np.diag([-0.2, 0.5, -0.3])}


def _reference_case(name):
    """(mesh, rep, start map, max_iter) of one reference-loop case."""
    rng = np.random.default_rng(2)
    if name == "parabolic_circle4":
        mesh = mc.build_circle(4)
        rep = rv.parabolic_circle_rep(MatrixGroup("sl", 2, "R"), mesh)
        return mesh, rep, hf.constant_map(mesh, rep), 2000
    if name == "hyperbolic_circle8":
        mesh = mc.build_circle(8)
        rep = rv.hyperbolic_circle_rep(MatrixGroup("sl", 2, "R"), mesh, 2.0)
    elif name == "sl2c_torus6_random":
        mesh = mc.build_torus(6, 6)
        rep = rv.torus_diag_rep(MatrixGroup("sl", 2, "C"), mesh, 0.4 + 0.3j,
                                -0.2 + 0.5j)
    elif name == "sl2r_genus2_k1":
        mesh = mc.build_genus2(1)
        rep = rv.genus2_fuchsian_rep(MatrixGroup("sl", 2, "R"), mesh)
        return mesh, rep, hf.constant_map(mesh, rep), 20000
    elif name == "gl1c_torus":
        mesh = mc.build_torus(6, 6)
        rep = rv.torus_gl1c_rep(MatrixGroup("gl1c"), mesh, 0.5 + 1.0j, -0.3 + 0.2j)
    else:
        mesh = mc.build_torus(4, 4)
        rep = rv.exp_family(MatrixGroup("sl", 3, "R"), mesh, SL3R_LOGS)
        # 500 of the 2824 iterations to convergence: each retraction takes
        # one scipy expm per vertex
        return mesh, rep, hf.random_map(mesh, rep, rng, 0.4), 500
    # random starts are not exactly Hermitian: the start drift goes through dist
    return mesh, rep, hf.random_map(mesh, rep, rng, 0.4), 20000


@pytest.mark.parametrize("name", ["parabolic_circle4", "hyperbolic_circle8",
                                  "sl2c_torus6_random", "sl2r_genus2_k1",
                                  "gl1c_torus", "sl3r_torus4"])
def test_explicit_flow_matches_reference_loop(name):
    mesh, rep, f0, max_iter = _reference_case(name)
    kern = hf.FlowKernel(mesh, rep)
    args = dict(tol=1e-8, max_iter=max_iter)
    pts, rpt = hf._explicit_flow(kern, kern.evaluate(f0.points.astype(complex)),
                                 **args)
    ref_pts, ref = _reference_explicit_flow(kern, f0.points.copy(), **args)
    assert np.array_equal(pts, ref_pts)
    assert dataclasses.asdict(rpt) == dataclasses.asdict(ref)
    assert rpt.iterations > 1


def _eval_rep(group, mesh):
    """_hessian_rep, plus SL(3,R): an upper-triangular circle image, the
    diagonal exponential torus family and the Fuchsian genus-2 generators
    in the upper-left block, conjugated off the block."""
    if group.n < 3:
        return _hessian_rep(group, mesh)
    kind = mesh.meta["kind"]
    if kind == "circle":
        return rv.circle_rep(group, mesh, np.array([[2.0, 1.0, 0.0],
                                                    [0.0, 1.0, 0.5],
                                                    [0.0, 0.0, 0.5]]))
    if kind == "torus":
        return rv.exp_family(group, mesh, SL3R_LOGS)
    block = {k: np.block([[M, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]])
             for k, M in hyp.fuchsian_generators().items()}
    h = np.array([[1.0, 0.3, -0.2], [0.0, 1.0, 0.4], [0.1, 0.0, 1.0]])
    h = h / np.cbrt(np.linalg.det(h))
    return rv.Representation.for_mesh(group, mesh, block).conjugate(h)


def _per_edge_energy_and_tension(kern, points):
    """Reference: energy and tension one edge at a time, from mc_edge and
    the squared distance (dist^2 for n = 2, the closed form; otherwise
    4 |log sigma|^2 of the SVD of the edge's Z = S_src g R_dst, from the
    roots of each vertex); the tension sums the source terms of all edges
    first, then the far-end terms, each carried back by liealg.mul."""
    roots = [ss.roots(P) for P in points]
    d2 = np.empty(len(kern.src))
    fwd = np.empty((len(kern.src),) + points.shape[1:], dtype=complex)
    for e, (s, d) in enumerate(zip(kern.src, kern.dst)):
        Q = act(kern.g[e], points[d])
        if kern.n == 2:
            d2[e] = dist(points[s], Q) * dist(points[s], Q)
        else:
            logs = ss.edge_svd(mul(mul(roots[s][1], kern.g[e]), roots[d][0]))[1]
            d2[e] = 4.0 * np.sum(logs ** 2)
        fwd[e] = 2.0 * kern.w1[e] * ss.mc_edge(points[s], Q)
    tau = np.zeros(points.shape, dtype=complex)
    for e, s in enumerate(kern.src):
        tau[s] += fwd[e]
    for e, d in enumerate(kern.dst):
        tau[d] += -mul(mul(kern.ginv[e], fwd[e]), kern.g[e])
    return 0.5 * float(np.dot(kern.w1, d2)), tau


@pytest.mark.parametrize("mesh_name", sorted(HESSIAN_MESHES))
@pytest.mark.parametrize("group_key", [("sl", 2, "R"), ("sl", 2, "C"),
                                       ("gl1c", 1, "C"), ("sl", 3, "R")])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 0.6),
       retracted=st.booleans())
def test_map_eval_matches_per_edge_loop(mesh_name, group_key, seed, scale,
                                        retracted):
    # the evaluation's energy and tension (in the vertex frames) equal the
    # per-edge loops, and the stacked origin_dist a flow reads its drift
    # from equals dist, bit for bit, on random points (often not exactly
    # Hermitian) and on retracted ones (exactly Hermitian)
    mesh = HESSIAN_MESHES[mesh_name]
    rep = _eval_rep(MatrixGroup(*group_key), mesh)
    kern = hf.FlowKernel(mesh, rep)
    pts = hf.random_map(mesh, rep, np.random.default_rng(seed), scale).points
    if retracted:
        _, tau = _per_edge_energy_and_tension(kern, pts)
        pts = hf.retract(pts, 0.25 * kern.step_scale * tau)
    E, _ = _per_edge_energy_and_tension(kern, pts)
    ev = kern.evaluate(pts)
    assert ev.energy == E
    assert np.array_equal(ev.tension_frame, _tension_frame(kern, pts))
    assert ss.origin_dist(pts)[0] == dist(np.eye(rep.group.n, dtype=complex), pts[0])
    assert ev.tension_sq == _norm_sq(kern, _tension_frame(kern, pts))


@pytest.mark.parametrize("mesh_name", sorted(HESSIAN_MESHES))
@pytest.mark.parametrize("group_key", [("sl", 2, "R"), ("sl", 2, "C"),
                                       ("gl1c", 1, "C"), ("sl", 3, "R")])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 0.6))
def test_beta_assembles_to_the_frame_tension(mesh_name, group_key, seed, scale):
    # the twisted complex's Maurer-Cartan cochain, half of log(Z Z^†) in the
    # source frames, is the 50-digit edge log taken in the source vertex
    # frame (reference.mp_edge_logs); summed as the tension is (2 w1 beta at
    # the source, minus Ad(Z^{-1}) of it at the far end) it is the 50-digit
    # tension in the vertex frames: the twisted layer and the flow state one
    # map, each against an evaluation that shares no array with them
    mesh = HESSIAN_MESHES[mesh_name]
    rep = _eval_rep(MatrixGroup(*group_key), mesh)
    f = hf.random_map(mesh, rep, np.random.default_rng(seed), scale)
    ctx = TwistedComplex(mesh, rep, f)
    k = ctx.kern
    beta, tau = ref.mp_edge_logs(k, f.points)
    assert np.abs(ctx.beta().values - beta).max() <= 1e-12 * np.abs(beta).max()
    fwd = 2.0 * k.w1[:, None, None] * ctx.beta().values
    T = np.zeros(f.points.shape, dtype=complex)
    np.add.at(T, k.src, fwd)
    np.add.at(T, k.dst, -mul(mul(ctx.Zinv, fwd), ctx.Z))
    assert np.abs(T - tau).max() <= 1e-12 * np.abs(tau).max()


@pytest.mark.parametrize("s", [10.0, 20.0, 40.0])
def test_sl3_far_beta_matches_mpmath(sl3r, s):
    # far out (diag(e^s, e^-s, 1), cond(P) = e^2s) the Maurer-Cartan
    # cochain read from the SVD frame of Z keeps its digits against the
    # 50-digit edge log in the source vertex frame
    rep, f0 = _sl3_elliptic_at(sl3r, s)
    ctx = TwistedComplex(f0.mesh, rep, f0)
    beta, _ = ref.mp_edge_logs(ctx.kern, f0.points)
    assert np.abs(ctx.beta().values - beta).max() <= 1e-12 * np.abs(beta).max()


@pytest.mark.parametrize("mesh_name", ["torus", "genus2"])
@pytest.mark.parametrize("group_key", [("sl", 2, "C"), ("sl", 3, "R")])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(0.05, 0.6))
@example(seed=755, scale=0.5625)
def test_energy_and_tension_conjugation_invariant(mesh_name, group_key, seed, scale):
    # h acts by the isometry P -> h P h^† and carries rho-equivariant maps to
    # h rho h^-1-equivariant ones, so E and the tension norm of (h.f, h.rho)
    # equal those of (f, rho); SL(2,C) takes random torus_diag parameters or
    # the Fuchsian generators, SL(3,R) the representations of _eval_rep
    mesh = HESSIAN_MESHES[mesh_name]
    group = MatrixGroup(*group_key)
    rng = np.random.default_rng(seed)
    if group.n == 3:
        rep = _eval_rep(group, mesh)
    elif mesh_name == "torus":
        alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rep = rv.torus_diag_rep(group, mesh, alpha, beta)
    else:
        rep = rv.genus2_fuchsian_rep(group, mesh)
    f = hf.random_map(mesh, rep, rng, scale)
    h = group.exp(group.random_alg(rng, scale))
    g = hf.EquivariantMap(mesh, rep.conjugate(h), act(h, f.points))
    E = hf.energy(f)
    # the bound follows the draw's conditioning (rounding_bound derives it):
    # a bound of 1e-10 E failed at the example seed 755, scale 0.5625 on the
    # torus (|dE| = 1.8e-7, E = 335, cond rho(a) = 6.4e3)
    bound = rounding_bound([f, g], E)
    assert abs(hf.energy(g) - E) <= bound
    assert abs(hf.tension_norm(g) - hf.tension_norm(f)) <= bound
    # h applied to the map but not to one generator's image is no conjugation
    images = dict(g.rep.images, **{mesh.generators[0]: rep.images[mesh.generators[0]]})
    broken = hf.EquivariantMap(mesh, rv.Representation.for_mesh(group, mesh, images),
                               g.points)
    assert abs(hf.energy(broken) - E) > bound



# ----------------------------------------------------------------------
# the SL(2) closed forms against a 50-digit evaluation (reference.py)

def _oracle_case(name):
    """(mesh, rep) of the oracle tests: circle 4 with the hyperbolic image
    in SL(2,R) and a non-unitary one in SL(2,C), _eval_rep's upper
    triangular image in SL(3,R) and SL(3,C), and torus 3 torus_diag."""
    if name == "torus3_sl2c":
        mesh = mc.build_torus(3, 3)
        return mesh, rv.torus_diag_rep(MatrixGroup("sl", 2, "C"), mesh,
                                       0.4 + 0.3j, -0.2 + 0.5j)
    mesh = mc.build_circle(4)
    return mesh, _eval_rep(MatrixGroup("sl", int(name[-2]), name[-1].upper()), mesh)


def _assert_matches_mpmath(kern, pts, hessian=False, frame=False):
    """Energy, tension field, tension norm (and Hessian) within 1e-10
    relative of the 50-digit evaluation; with frame, the tension field in
    the vertex frames (tension_frame, which the flow reads), else the field
    at the points summed from mc_edge one edge at a time
    (_per_edge_energy_and_tension)."""
    ev = kern.evaluate(pts)
    E, tau, tsq, tau_frame = ref.mp_energy_tension(kern, pts)
    assert abs(ev.energy - E) <= 1e-10 * E
    if frame:
        assert np.abs(ev.tension_frame - tau_frame).max() <= 1e-10 * np.abs(tau_frame).max()
    else:
        loop = _per_edge_energy_and_tension(kern, pts)[1]
        assert np.abs(loop - tau).max() <= 1e-10 * np.abs(tau).max()
    assert abs(ev.tension_sq - tsq) <= 1e-10 * tsq
    if hessian:
        H = ref.mp_hessian(kern, pts)
        assert np.abs(ev.hessian().toarray() - H).max() <= 1e-10 * np.abs(H).max()


@pytest.mark.parametrize("name, scale", [
    *[(n, s) for n in ("circle4_sl2r", "circle4_sl2c")
      for s in (0.05, 0.4, 2.0, 6.0, 10.0)],
    ("torus3_sl2c", 0.4), ("torus3_sl2c", 10.0)])
def test_energy_and_tension_match_mpmath(name, scale):
    # random maps out to scale 10, whose points lie up to 16 from I and miss
    # det 1 by up to 1e-5 (both evaluations read them as points of det 1);
    # the eigh path read such a circle-8 map at 16162 for 13719
    mesh, rep = _oracle_case(name)
    kern = hf.FlowKernel(mesh, rep)
    for seed in range(3 if mesh.nv == 4 else 1):
        pts = hf.random_map(mesh, rep, np.random.default_rng(seed), scale).points
        _assert_matches_mpmath(kern, pts)


@pytest.mark.parametrize("name, scale", [
    *[("circle4_sl3r", s) for s in (0.05, 0.4, 2.0, 4.0)],
    ("circle4_sl3c", 0.4), ("circle4_sl3c", 4.0)])
def test_sl3_energy_and_tension_match_mpmath(name, scale):
    # the SVD edge frame against the 50-digit log(S Q S).  The tension is
    # compared in the vertex frames: at the points its entries grow like
    # cond(P), and far out no float evaluation keeps their digits.  Random
    # points out to scale 4 (up to 11 from I, cond(P) up to 4e6) read to
    # 1e-11; at scale 6 (cond(P) 7e9) eigh of a float point leaves 3e-10
    mesh, rep = _oracle_case(name)
    pts = hf.random_map(mesh, rep, np.random.default_rng(2), scale).points
    _assert_matches_mpmath(hf.FlowKernel(mesh, rep), pts, frame=True)


@pytest.mark.parametrize("name", ["circle4_sl2r", "circle4_sl2c"])
@pytest.mark.parametrize("scale", [0.05, 0.4, 10.0])
def test_hessian_matches_mpmath(name, scale):
    # the closed-form Jacobi blocks against 50-digit second differences of
    # the energy along the geodesics
    mesh, rep = _oracle_case(name)
    pts = hf.random_map(mesh, rep, np.random.default_rng(3), scale).points
    _assert_matches_mpmath(hf.FlowKernel(mesh, rep), pts, hessian=True)


@pytest.mark.parametrize("s", [40.0, 45.0, 60.0])
def test_far_constant_start_matches_mpmath(sl2r, s):
    # diag(e^s, e^-s) on circle 4 with the elliptic image, up to 84.9 from
    # I: the small eigenvalue e^-s is far below eps times the large one
    circle = mc.build_circle(4)
    rep = rv.elliptic_circle_rep(sl2r, circle)
    _assert_matches_mpmath(hf.FlowKernel(circle, rep),
                           _constant_at(circle, rep, s).points, hessian=True)


@pytest.mark.parametrize("s", [20.0, 40.0])
def test_sl3_far_start_matches_mpmath(sl3r, s):
    # the constant SL(3,R) start at diag(e^s, e^-s, 1) with the elliptic
    # rotation: at e^20 eigh of S Q S read the edge distance 2.5 % short,
    # at e^40 22 % short
    rep, f0 = _sl3_elliptic_at(sl3r, s)
    _assert_matches_mpmath(hf.FlowKernel(f0.mesh, rep), f0.points, frame=True)


def test_sl2_flows_take_no_eigendecomposition(sl2r, sl2c, monkeypatch):
    # a parabolic SL(2,R) flow (Newton gives up, the explicit flow runs) and
    # a random SL(2,C) torus flow (Newton converges, Hessians included)
    circle = mc.build_circle(4)
    parabolic = rv.parabolic_circle_rep(sl2r, circle)
    torus = mc.build_torus(4, 4)
    diag = rv.torus_diag_rep(sl2c, torus)
    runs = [(parabolic, hf.constant_map(circle, parabolic), "explicit"),
            (diag, hf.random_map(torus, diag, np.random.default_rng(5)), "newton")]
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    for rep, f0, solver in runs:
        _, rpt = hf.flow(rep, f0, max_iter=200)
        assert rpt.solver == solver
    assert calls == []
