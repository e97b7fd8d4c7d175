import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from equivarlab import deform as df
from equivarlab import energyvar as ev
from equivarlab import harmonicflow as hf
from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab import twistedhodge as th
from equivarlab.liealg import MatrixGroup, ad_matrix, mul
from equivarlab.symspace import act
from equivarlab.twistedhodge import (PeriodMismatchError, SingularKKTError,
                                     TwistedCochain, TwistedComplex, _block_sparse)
from conftest import ALPHA, BETA, lsmr_g1, random_cochain
import reference as ref


def diag_cocycle(rep, a=(1.0, 0.0), b=(0.0, 0.5)):
    return rv.Cocycle(rep, {
        "a": np.diag([complex(*a), -complex(*a)]),
        "b": np.diag([complex(*b), -complex(*b)])})


def offdiag_cocycle(rep, s=0.6):
    """Valid upper-triangular cocycle family for a diagonal torus rep."""
    mu = {}
    for name in ("a", "b"):
        g = rep.images[name]
        mu[name] = g[0, 0] / g[1, 1]
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return rv.Cocycle(rep, {"a": (1.0 - mu["a"]) * s * E,
                            "b": (1.0 - mu["b"]) * s * E})


# ----------------------------------------------------------------------

def test_d_trivial_rep_constant(trivial_ctx):
    F = TwistedCochain(0, np.broadcast_to(
        np.diag([1.0, -1.0]).astype(complex),
        (trivial_ctx.mesh.nv, 2, 2)).copy())
    assert np.abs(trivial_ctx.d(F).values).max() < 1e-14


def test_d_squared_zero(diag_ctx, fuchsian_ctx, gl1c_ctx):
    rng = np.random.default_rng(0)
    for ctx in (diag_ctx, fuchsian_ctx, gl1c_ctx):
        F = random_cochain(ctx, 0, rng)
        assert np.abs(ctx.d(ctx.d(F)).values).max() < 1e-12


def test_codiff_adjunction(diag_ctx, fuchsian_ctx):
    rng = np.random.default_rng(1)
    for ctx in (diag_ctx, fuchsian_ctx):
        F = random_cochain(ctx, 0, rng)
        al = random_cochain(ctx, 1, rng)
        Ph = random_cochain(ctx, 2, rng)
        lhs = ctx.inner(ctx.d(F), al, 1)
        rhs = ctx.inner(F, ctx.codiff(al), 0)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
        lhs2 = ctx.inner(ctx.d(al), Ph, 2)
        rhs2 = ctx.inner(al, ctx.codiff(Ph), 1)
        assert abs(lhs2 - rhs2) < 1e-10 * max(1.0, abs(lhs2))


def coo_block_diag(blocks):
    """Reference: the block diagonal from COO triplets, which scipy sorts
    into CSR."""
    N, D = blocks.shape[0], blocks.shape[-1]
    i = np.arange(N)[:, None, None] * D
    rows = np.broadcast_to(i + np.arange(D)[:, None], blocks.shape)
    cols = np.broadcast_to(i + np.arange(D), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(N * D, N * D))


@pytest.mark.parametrize("D", [1, 3, 6, 8])
def test_block_diag_matches_coo_reference(D):
    # the block builder of d0 and d1, with every block on the diagonal
    blocks = np.random.default_rng(D).standard_normal((7, D, D))
    diag = np.arange(7)
    got, want = _block_sparse(diag, diag, blocks, (7, 7)), coo_block_diag(blocks)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


#: every operator a complex builds on first read, by name; "gram_inv1" reads
#: gram_inv(1)
OPERATORS = ("d0", "d1", "d0t", "d1t", "gram0", "gram_inv0", "gram1",
             "gram_inv1", "gram2", "gram_inv2", "A0", "kernel")


def read_operator(ctx, name):
    if name.startswith("gram") and name[-1].isdigit():
        return getattr(ctx, name[:-1])(int(name[-1]))
    return getattr(ctx, name)


def test_operators_independent_of_read_order(sl2c, torus66, genus2):
    # the operators read from each other; the order of first reads must not
    # change a bit of them (Fuchsian: no kernel; torus_diag: a 2-dim kernel)
    rng = np.random.default_rng(12)
    for mesh, rep in ((genus2, rv.genus2_fuchsian_rep(sl2c, genus2)),
                      (torus66, rv.torus_diag_rep(sl2c, torus66, ALPHA, BETA))):
        f = hf.random_map(mesh, rep, rng)
        fwd, back = TwistedComplex(mesh, rep, f), TwistedComplex(mesh, rep, f)
        got = {name: read_operator(fwd, name) for name in OPERATORS}
        want = {name: read_operator(back, name) for name in reversed(OPERATORS)}
        assert np.array_equal(fwd.beta().values, back.beta().values)
        for name in OPERATORS:
            a, b = got[name], want[name]
            if sp.issparse(a):
                assert np.array_equal(a.indptr, b.indptr), name
                assert np.array_equal(a.indices, b.indices), name
                a, b = a.data, b.data
            assert np.array_equal(a, b), name
        # the kept transposes multiply as the transposed views do
        for d, dt in ((fwd.d0, fwd.d0t), (fwd.d1, fwd.d1t)):
            x = rng.standard_normal(d.shape[0])
            X = rng.standard_normal((d.shape[0], 3))
            assert np.array_equal(dt @ x, d.T @ x)
            assert np.array_equal(dt @ X, d.T @ X)
    assert fwd.kernel_dim == 2


def zero_laden_block_sparse(row, col, blocks, shape):
    """Reference: the block operator with every entry of its blocks stored,
    exact zeros included, from COO triplets in stack order."""
    D = blocks.shape[-1]
    r = np.broadcast_to(row[:, None, None] * D + np.arange(D)[:, None], blocks.shape)
    c = np.broadcast_to(col[:, None, None] * D + np.arange(D), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), (r.ravel(), c.ravel())),
                         shape=(shape[0] * D, shape[1] * D))


def zero_laden(ctx, names, monkeypatch):
    """The named operators of a twin of ctx (same mesh, representation and
    points) whose block builders store every entry of their blocks."""
    with monkeypatch.context() as m:
        m.setattr(th, "_block_sparse", zero_laden_block_sparse)
        twin = TwistedComplex(ctx.mesh, ctx.rep,
                              hf.EquivariantMap(ctx.mesh, ctx.rep, ctx.points))
        return {name: read_operator(twin, name) for name in names}


def block_case(name, request):
    """A complex of each group the lab's tests use: the fixtures, SL(2,R) on
    circle 8 and SL(3,R) on torus 6 at random maps."""
    if name == "circle8_sl2r":
        mesh = request.getfixturevalue("circle8")
        rep = rv.hyperbolic_circle_rep(request.getfixturevalue("sl2r"), mesh, 2.0)
    elif name == "torus6_sl3r":
        mesh, group = request.getfixturevalue("torus66"), request.getfixturevalue("sl3r")
        X = group.random_alg(np.random.default_rng(5), 0.5)
        rep = rv.exp_family(group, mesh, {"a": X, "b": -0.5 * X})
    else:
        return request.getfixturevalue(name)
    return TwistedComplex(mesh, rep, hf.random_map(mesh, rep, np.random.default_rng(6)))


BLOCK_CASES = ["circle8_sl2r", "diag_ctx", "fuchsianC_ctx", "torus6_sl3r", "gl1c_ctx"]


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_operators_store_only_their_nonzeros(name, request, monkeypatch):
    # every block operator stores the nonzero entries of its blocks alone,
    # and holds and multiplies as the zero-laden build does, bit for bit
    ctx = block_case(name, request)
    names = [op for op in OPERATORS if op.startswith(("d", "gram"))]
    want = zero_laden(ctx, names + ["A0"], monkeypatch)
    rng = np.random.default_rng(13)
    for op in names:
        M, R = read_operator(ctx, op), want[op]
        assert M.nnz == np.count_nonzero(M.data), op
        R = R.copy()
        R.eliminate_zeros()
        a, b = M.sorted_indices(), R.sorted_indices()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), (op, attr)
        x = rng.standard_normal(M.shape[1])
        X = rng.standard_normal((M.shape[1], 3))
        assert np.array_equal(M @ x, want[op] @ x), op
        assert np.array_equal(M @ X, want[op] @ X), op
    # A0 holds the same entries; only their order within a column may differ
    a, b = ctx.A0.sorted_indices(), want["A0"].sorted_indices()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    x = rng.standard_normal(ctx.A0.shape[1])
    assert np.array_equal(ctx.A0 @ x, want["A0"] @ x)


@pytest.mark.parametrize("name", ["fuchsianC_ctx", "diag_ctx"])
def test_jacobi_dense_sym_matches_dense_symmetrization(name, request, monkeypatch):
    # the sparse symmetrization densified once gives the floats of the
    # zero-laden L^{-1} A0 L^{-T} densified first and symmetrized dense, for
    # the Cholesky factor L = W0^{1/2} of the diagonal G0
    ctx = request.getfixturevalue(name)
    A0 = zero_laden(ctx, ["A0"], monkeypatch)["A0"]
    w0 = np.asarray(ctx.mesh.vertex_weights)
    Linv = coo_block_diag((1.0 / np.sqrt(w0))[:, None, None] * np.eye(ctx.dim))
    S = (Linv @ (A0 @ Linv.T)).toarray()
    want = 0.5 * (S + S.T)
    J = ctx.jacobi_dense_sym()
    assert J.dtype == want.dtype and J.tobytes() == want.tobytes()
    assert np.array_equal(J, J.T)


LAW_TORUS = mc.build_torus(4, 4)
LAW_GENUS2 = mc.build_genus2(1)
#: (mesh, group) of the random representations: commuting exponentials on
#: the torus, the Fuchsian representation conjugated by h on genus 2
LAW_CASES = [(LAW_TORUS, MatrixGroup("sl", 2, "R")),
             (LAW_TORUS, MatrixGroup("sl", 2, "C")),
             (LAW_TORUS, MatrixGroup("sl", 3, "R")),
             (LAW_TORUS, MatrixGroup("gl1c")),
             (LAW_GENUS2, MatrixGroup("sl", 2, "R")),
             (LAW_GENUS2, MatrixGroup("sl", 2, "C"))]


@settings(max_examples=30, deadline=None)
@given(case=st.integers(0, len(LAW_CASES) - 1), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.05, 1.0))
def test_d_squared_and_adjunction_random(case, seed, scale):
    # d d = 0 and <d x, y> = <x, d* y> at random representations, random
    # (non-harmonic) maps and random cochains
    mesh, group = LAW_CASES[case]
    rng = np.random.default_rng(seed)
    if mesh is LAW_TORUS:
        X = group.random_alg(rng, scale)
        s = rng.standard_normal(2)
        rep = rv.exp_family(group, mesh, {"a": s[0] * X, "b": s[1] * X})
    else:
        rep = rv.genus2_fuchsian_rep(group, mesh).conjugate(
            group.exp(group.random_alg(rng, scale)))
    ctx = TwistedComplex(mesh, rep, hf.random_map(mesh, rep, rng, scale))
    F, al, Ph = (random_cochain(ctx, degree, rng) for degree in range(3))
    dF = ctx.d(F)
    # exact up to the relator residual of rep, relative to the terms summed
    terms = (abs(ctx.d1) @ np.abs(ctx.to_flat(dF.values))).max()
    assert np.abs(ctx.d(dF).values).max() \
        <= (1e-14 + max(rep.relator_residuals())) * terms
    for x, y, deg in ((F, al, 0), (al, Ph, 1)):
        dx = ctx.d(x)
        lhs = ctx.inner(dx, y, deg + 1)
        rhs = ctx.inner(x, ctx.codiff(y), deg)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, ctx.norm(dx, deg + 1) * ctx.norm(y, deg + 1))


def test_codiff_reduces_to_graph_divergence(trivial_ctx):
    # hand-assembled weighted divergence at the constant metric
    ctx = trivial_ctx
    mesh = ctx.mesh
    rng = np.random.default_rng(2)
    alpha = random_cochain(ctx, 1, rng)
    got = ctx.codiff(alpha).values
    expected = np.zeros_like(got)
    for i, e in enumerate(mesh.edges):
        expected[e.src] -= e.weight * alpha.values[i]
        expected[e.dst] += e.weight * alpha.values[i]
    expected /= np.asarray(mesh.vertex_weights)[:, None, None]
    assert np.abs(got - expected).max() < 1e-10


def test_dstar_beta_vanishes_at_harmonic_map(diag_ctx, fuchsian_ctx):
    for ctx in (diag_ctx, fuchsian_ctx):
        assert ctx.norm(ctx.codiff(ctx.beta()), 0) < 1e-6


def test_jacobi_constant_kernel_and_psd(trivial_ctx, diag_ctx):
    F = TwistedCochain(0, np.broadcast_to(
        np.diag([1.0, -1.0]).astype(complex),
        (trivial_ctx.mesh.nv, 2, 2)).copy())
    assert np.abs(trivial_ctx.codiff(trivial_ctx.d(F)).values).max() < 1e-14
    for ctx in (trivial_ctx, diag_ctx):
        spec = np.linalg.eigvalsh(ctx.jacobi_dense_sym())
        assert spec.min() > -1e-10


def test_kernel_dimension_matches_centralizer(diag_ctx, unitary_ctx,
                                              trivial_ctx, fuchsian_ctx,
                                              gl1c_ctx):
    # eigenvalue count of the symmetrized Jacobi operator cross-checks the
    # algebraically computed parallel-section basis: sections that are
    # constant in point coordinates (R_v K(v) S_v, back from the vertex
    # frames), G0-orthonormal, with d0 K = 0
    for ctx, expected in ((diag_ctx, 2), (unitary_ctx, 2), (trivial_ctx, 3),
                          (fuchsian_ctx, 0), (gl1c_ctx, 2)):
        K = ctx.kernel
        assert ctx.kernel_dim == expected
        for kap in ctx.kernel_sections():
            point = ctx.R @ kap.values @ ctx.S
            assert np.abs(point - point[0]).max() < 1e-12
        assert np.abs(ctx.d0 @ K).max(initial=0.0) < 1e-14
        assert np.abs(K.T @ (ctx.gram(0) @ K) - np.eye(expected)).max(initial=0.0) < 1e-12
        spec = np.linalg.eigvalsh(ctx.jacobi_dense_sym())
        cutoff = 1e-9 * spec.max()
        assert int(np.sum(spec < cutoff)) == expected


def test_kernel_cartan_splitting(diag_ctx, unitary_ctx, trivial_ctx):
    # projecting a kernel section to pointwise k/p parts (its anti-Hermitian
    # and Hermitian parts in the vertex frames) stays in the kernel
    for ctx in (diag_ctx, unitary_ctx, trivial_ctx):
        for kap in ctx.kernel_sections():
            star = np.conj(np.swapaxes(kap.values, -1, -2))
            for part in (0.5 * (kap.values - star), 0.5 * (kap.values + star)):
                Fp = TwistedCochain(0, part)
                assert np.abs(ctx.d(Fp).values).max() < 1e-8


def test_harmonic_rep_coboundary_is_zero(diag_ctx):
    rng = np.random.default_rng(3)
    c = rv.coboundary(diag_ctx.rep, diag_ctx.group.random_alg(rng))
    om, _ = diag_ctx.harmonic_rep(c)
    assert diag_ctx.norm(om, 1) < 1e-9


def test_harmonic_rep_flat_torus_constant(trivialC_ctx):
    # trivial rho: c(a) = xi, c(b) = 0 gives the uniform cochain on a-edges
    ctx = trivialC_ctx
    xi = np.diag([0.7, -0.7]).astype(complex)
    z = np.zeros_like(xi)
    c = rv.Cocycle(ctx.rep, {"a": xi, "b": z})
    om, _ = ctx.harmonic_rep(c)
    n = ctx.mesh.meta["n"]
    for i, e in enumerate(ctx.mesh.edges):
        target = xi / n if i < ctx.mesh.ne // 2 else z
        assert np.abs(om.values[i] - target).max() < 1e-10


def test_harmonic_rep_properties(diag_ctx, fuchsian_ctx, gl1c_ctx):
    rng = np.random.default_rng(4)
    for ctx, c in ((diag_ctx, diag_cocycle(diag_ctx.rep)),
                   (diag_ctx, offdiag_cocycle(diag_ctx.rep)),
                   (fuchsian_ctx, rv.cocycle_space_basis(fuchsian_ctx.rep)[0]),
                   (gl1c_ctx, rv.Cocycle(gl1c_ctx.rep,
                                         {"a": np.array([[0.3 - 0.2j]]),
                                          "b": np.array([[0.1 + 0.4j]])}))):
        om, xi = ctx.harmonic_rep(c)
        assert ctx.norm(ctx.codiff(om), 0) < 1e-9
        if ctx.mesh.nf:
            assert ctx.norm(ctx.d(om), 2) < 1e-9
        # L2-minimality in the class
        for _ in range(3):
            shift = ctx.d(random_cochain(ctx, 0, rng))
            assert ctx.norm(om, 1) <= ctx.norm(
                TwistedCochain(1, om.values + shift.values), 1) + 1e-12


def test_harmonic_rep_periods(trivialC_ctx):
    # integrating omega along the generator loop recovers c up to coboundary
    ctx = trivialC_ctx
    xi = np.array([[0.2, 0.5], [0.1, -0.2]], dtype=complex)
    c = rv.Cocycle(ctx.rep, {"a": xi, "b": 0 * xi})
    om, _ = ctx.harmonic_rep(c)
    n, m = ctx.mesh.meta["n"], ctx.mesh.meta["m"]
    # horizontal loop through vertex row 0: edges h(0,0) ... h(n-1,0)
    period = sum(om.values[i] for i in range(n))
    # trivial rep: coboundary of anything vanishes, period must equal c(a)
    assert np.abs(period - xi).max() < 1e-9


def test_primitive_circle_linear_jump(sl2r, circle8):
    # 1-d integration with the prescribed jump c(a) = s H
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    f, _ = hf.flow(rep, hf.constant_map(circle8, rep), tol=1e-10)
    ctx = TwistedComplex(circle8, rep, f)
    s = 0.9
    c = rv.Cocycle(rep, {"a": np.diag([s, -s]).astype(complex)})
    om, _ = ctx.harmonic_rep(c)
    F, defect = ctx.primitive(om, c)
    assert defect < 1e-9
    n = circle8.nv
    vals = F.values
    steps = [vals[(i + 1) % n] - vals[i] for i in range(n - 1)]
    for st in steps[1:]:
        assert np.abs(st - steps[0]).max() < 1e-9   # linear along the mesh


def test_primitive_affine_freedom_and_kernel_difference(diag_ctx):
    ctx = diag_ctx
    c = diag_cocycle(ctx.rep)
    om, _ = ctx.harmonic_rep(c)
    F1, _ = ctx.primitive(om, c)
    # independent least-squares route (plain lsmr on the same system)
    target = ctx.to_flat(om.values) - ctx.to_flat(ctx.seed_cochain(c).values)
    x2 = lsmr_g1(ctx, ctx.d0, target)
    F2 = ctx.from_flat(x2)
    diff = ctx.to_flat(F1.values - F2)
    resid = diff - ctx.kernel_project_flat(diff)
    assert np.sqrt(resid @ (ctx.gram(0) @ resid)) < 1e-8
    # adding a kernel element is again a primitive
    kap = ctx.kernel_sections()[0]
    shifted = TwistedCochain(0, F1.values + kap.values)
    d_sh = ctx.d(shifted)
    assert np.abs(d_sh.values - (om.values - ctx.seed_cochain(c).values)).max() < 1e-9


def test_primitive_period_mismatch_raises(diag_ctx):
    ctx = diag_ctx
    c = diag_cocycle(ctx.rep)
    om, _ = ctx.harmonic_rep(c)
    c2 = diag_cocycle(ctx.rep, a=(2.0, 0.4), b=(0.3, 0.1))
    with pytest.raises(PeriodMismatchError):
        ctx.primitive(om, c2)


def test_primitive_period_floor_from_both_sides(fuchsianC_ctx):
    # seed(c1) + delta seed(c2) misses the class of omega = H(seed(c1)) by
    # delta H(seed(c2)): a period defect of 1e-5, 100 times the 1e-7 floor,
    # is refused; one of 1e-9 is accepted
    ctx = fuchsianC_ctx
    c1, c2 = rv.cocycle_space_basis(ctx.rep)[:2]
    om, _ = ctx.harmonic_rep(c1)
    h2 = ctx.norm(ctx.harmonic_rep(c2)[0], 1)
    seed1, seed2 = ctx.seed_cochain(c1).values, ctx.seed_cochain(c2).values

    def target(defect):
        return TwistedCochain(1, seed1 + (defect / h2) * seed2)

    with pytest.raises(PeriodMismatchError) as err:
        ctx.primitive(om, target(1e-5))
    assert err.value.defect == pytest.approx(1e-5, rel=1e-6)
    _, defect = ctx.primitive(om, target(1e-9))
    assert defect == pytest.approx(1e-9, rel=1e-3)


def test_hodge_decomposition(diag_ctx, fuchsian_ctx, unitary_ctx, sl2r, torus66):
    # a torus with one face removed has a boundary, so ker d1^T is 0 there
    # while the trivial rep still has a 3-dimensional centralizer
    open_torus = mc.CoverMesh(torus66.generators, torus66.relations,
                              torus66.vertex_weights, torus66.edges,
                              torus66.faces[1:])
    rep = rv.trivial_rep(sl2r, open_torus)
    open_ctx = TwistedComplex(open_torus, rep, hf.constant_map(open_torus, rep))
    rng = np.random.default_rng(5)
    for ctx in (diag_ctx, fuchsian_ctx, unitary_ctx, open_ctx):
        alpha = random_cochain(ctx, 1, rng)
        ex, coex, harm = ctx.hodge_decompose(alpha)
        recon = ex.values + coex.values + harm.values - alpha.values
        assert ctx.norm(TwistedCochain(1, recon), 1) < 1e-8
        assert abs(ctx.inner(ex, coex, 1)) < 1e-8
        assert abs(ctx.inner(ex, harm, 1)) < 1e-8
        assert abs(ctx.inner(coex, harm, 1)) < 1e-8
        assert ctx.norm(ctx.d(harm), 2) < 1e-7
        assert ctx.norm(ctx.codiff(harm), 0) < 1e-7
        # the coexact part against the least-squares oracle
        M = ctx.gram_inv(1) @ ctx.d1.T
        rem = ctx.to_flat(alpha.values - ex.values)
        diff = ctx.to_flat(coex.values) - M @ lsmr_g1(ctx, M, rem)
        assert np.sqrt(diff @ (ctx.gram(1) @ diff)) < 1e-9


def test_degree2_kernel_is_killing_dual(diag_ctx, gl1c_ctx, unitary_ctx,
                                        trivial_ctx, trivialC_ctx, fuchsian_ctx,
                                        fuchsianC_ctx):
    # Poincare duality: the Killing duals of the parallel sections at the
    # face bases span ker d1^T, the kernel of A2 = d1 G1^{-1} d1^T
    for ctx in (diag_ctx, gl1c_ctx, unitary_ctx, trivial_ctx, trivialC_ctx,
                fuchsian_ctx, fuchsianC_ctx):
        A2, K2 = ctx._laplacian(2)
        assert np.abs(ctx.d1.T @ K2).max(initial=0.0) < 1e-12
        assert K2.shape[1] == ctx.kernel_dim
        assert np.abs(K2.T @ K2 - np.eye(ctx.kernel_dim)).max(initial=0.0) < 1e-12
        if A2.shape[0] <= 800:
            spec = np.linalg.eigvalsh(A2.toarray())
            assert int(np.sum(spec < 1e-9 * spec.max())) == ctx.kernel_dim


@pytest.mark.parametrize("degree", [0, 2])
@pytest.mark.parametrize("name", ["diag_ctx", "fuchsianC_ctx", "trivialC_ctx"])
def test_kkt_solve_matches_dense_solve(name, degree, request):
    # the sparse factor against LAPACK on the dense bordered matrix: a
    # bordering basis of dimension 2 (torus_diag), none (Fuchsian), 6 (trivial)
    ctx = request.getfixturevalue(name)
    A, K = ctx._laplacian(degree)
    k = K.shape[1]
    M = np.block([[A.toarray(), K], [K.T, np.zeros((k, k))]])
    rhs = np.random.default_rng(degree).standard_normal((A.shape[0], 3))
    want = np.linalg.solve(M, np.concatenate([rhs, np.zeros((k, 3))]))[:A.shape[0]]
    got = ctx._solve_kkt(degree, rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    one = ctx._solve_kkt(degree, rhs[:, 1])
    assert np.linalg.norm(got[:, 1] - one) <= 1e-12 * np.linalg.norm(one)


SINGULAR_MESHES = {"circle4": lambda: mc.build_circle(4),
                   "torus5": lambda: mc.build_torus(5, 5),
                   "torus6": lambda: mc.build_torus(6, 6),
                   "genus2_k1": lambda: mc.build_genus2(1)}
#: the kernel-bordered solves: the deflated degree-0 solve, and the Hodge
#: decomposition, which factors degree 0 before degree 2
SINGULAR_SOLVES = {
    "solve_deflated": lambda ctx: ctx._solve_kkt(0, np.zeros(ctx.mesh.nv * ctx.dim)),
    "hodge_decompose": lambda ctx: ctx.hodge_decompose(
        TwistedCochain(1, np.zeros((ctx.mesh.ne, 2, 2))))}


@pytest.mark.parametrize("solve", list(SINGULAR_SOLVES))
@pytest.mark.parametrize("mesh_key", list(SINGULAR_MESHES))
def test_singular_kkt_names_kernel_dim(sl2r, solve, mesh_key, monkeypatch):
    # a cutoff that admits no centralizer leaves the trivial rep's constant
    # sections in the KKT matrix: its factor is exactly singular on circle 4
    # and singular to rounding (pivot ratio about 1e-16) on the others
    monkeypatch.setattr(th, "KERNEL_RTOL", -1.0)
    mesh = SINGULAR_MESHES[mesh_key]()
    rep = rv.trivial_rep(sl2r, mesh)
    ctx = TwistedComplex(mesh, rep, hf.constant_map(mesh, rep))
    with pytest.raises(SingularKKTError, match="kernel_dim 0") as info:
        SINGULAR_SOLVES[solve](ctx)
    assert (info.value.kernel_dim, info.value.kernel_rtol) == (0, -1.0)
    if mesh.nf:
        with pytest.raises(SingularKKTError):
            ctx._kkt(2)


def mixed_mesh():
    """Torus 3 x 3 read from JSON, every square but the first cut into two
    triangles by a diagonal edge."""
    mesh = mc.build_torus(3, 3)
    data = json.loads(mesh.to_json())
    faces = data["faces"][:1]
    for f in mesh.faces[1:]:
        (h0, _), (v1, _), (h1, _), (v0, _) = f.steps
        a, b = mesh.edges[h0], mesh.edges[v1]
        diag = len(data["edges"])
        data["edges"].append({"src": a.src, "dst": b.dst, "weight": 1.0,
                              "label": mc.word_text(mc.reduce_word(a.label + b.label))})
        faces += [{"steps": [[h0, 1], [v1, 1], [diag, -1]], "weight": 18.0},
                  {"steps": [[diag, 1], [h1, -1], [v0, -1]], "weight": 18.0}]
    data["faces"] = faces
    return mc.CoverMesh.from_json(json.dumps(data))


def per_face_reference(ctx, av, bv):
    """d1 and bracket_wedge(a, b) by the per-face loop over boundary walks,
    with one rho(prefix word) evaluation and inversion per step, each step
    carried from the source frame of its edge to that of the face base by
    T = S_base rho(prefix) R_src."""
    D, n = ctx.dim, ctx.n
    d1 = np.zeros((ctx.mesh.nf * D, ctx.mesh.ne * D))
    wedge = np.zeros((ctx.mesh.nf, n, n), dtype=complex)
    for fi, face in enumerate(ctx.mesh.faces):
        ta, tb, word = [], [], ()
        e0, s0 = face.steps[0]
        base = ctx.mesh.edges[e0].src if s0 > 0 else ctx.mesh.edges[e0].dst
        for eid, sign in face.steps:
            lab = ctx.mesh.edges[eid].label
            if sign > 0:
                h = word
                word = mc.reduce_word(word + lab)
            else:
                word = mc.reduce_word(word + mc.invert_word(lab))
                h = word
            rho = ref.rho_word(ctx.rep, h)
            src = ctx.mesh.edges[eid].src
            g = mul(mul(ctx.S[base], rho), ctx.R[src])
            ginv = mul(mul(ctx.S[src], np.linalg.inv(rho)), ctx.R[base])
            d1[fi * D:(fi + 1) * D, eid * D:(eid + 1) * D] += \
                sign * ad_matrix(ctx.group, g, ginv)
            ta.append(sign * mul(mul(g, av[eid]), ginv))
            tb.append(sign * mul(mul(g, bv[eid]), ginv))
        acc = np.zeros((n, n), dtype=complex)
        run = np.zeros((n, n), dtype=complex)
        for j in range(len(face.steps)):
            if j:
                acc += mul(run, tb[j]) - mul(tb[j], run)
            run = run + ta[j]
        wedge[fi] = acc
    return d1, wedge


def test_face_table_matches_per_face_loop(sl2c, torus66, genus2):
    mixed = mixed_mesh()
    assert {len(f.steps) for f in mixed.faces} == {3, 4}
    rng = np.random.default_rng(9)
    for mesh, rep in ((torus66, rv.torus_diag_rep(sl2c, torus66, ALPHA, BETA)),
                      (genus2, rv.genus2_fuchsian_rep(sl2c, genus2)),
                      (mixed, rv.torus_diag_rep(sl2c, mixed, ALPHA, BETA))):
        ctx = TwistedComplex(mesh, rep, hf.random_map(mesh, rep, rng))
        a, b = random_cochain(ctx, 1, rng), random_cochain(ctx, 1, rng)
        d1, wedge = per_face_reference(ctx, a.values, b.values)
        got = ctx.bracket_wedge(a, b).values
        assert np.array_equal(got, wedge), np.abs(got - wedge).max()
        assert np.array_equal(ctx.d1.toarray(), d1), np.abs(ctx.d1.toarray() - d1).max()


def test_bracket_wedge_abelian_and_cartan(gl1c_ctx, diag_ctx):
    rng = np.random.default_rng(6)
    om = random_cochain(gl1c_ctx, 1, rng)
    assert np.abs(gl1c_ctx.bracket_wedge(om, om).values).max() == 0.0
    assert np.abs(gl1c_ctx.contract_star(om, om).values).max() == 0.0
    # values in a fixed Cartan line commute
    c = diag_cocycle(diag_ctx.rep)
    omd, _ = diag_ctx.harmonic_rep(c)
    assert np.abs(diag_ctx.bracket_wedge(omd, omd).values).max() < 1e-12


def test_contract_star_hand_value(trivial_ctx):
    # trivial rho on the torus, omega = e on all a-direction edges at f = I:
    # the contraction is the constant section [e^T, e] = diag(-1, 1)
    ctx = trivial_ctx
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    n = ctx.mesh.meta["n"]
    vals = np.zeros((ctx.mesh.ne, 2, 2), dtype=complex)
    vals[:ctx.mesh.ne // 2] = E / n
    om = TwistedCochain(1, vals)
    got = ctx.contract_star(om, om).values
    expected = np.diag([-1.0, 1.0]) / (n * n) * (n / n) \
        * ctx.mesh.edges[0].weight / ctx.mesh.vertex_weights[0]
    for v in range(ctx.mesh.nv):
        assert np.abs(got[v] - expected).max() < 1e-12
    assert np.abs(expected - np.diag([-1.0, 1.0])).max() < 1e-12


def test_contract_star_adjunction(diag_ctx, fuchsian_ctx):
    rng = np.random.default_rng(7)
    for ctx in (diag_ctx, fuchsian_ctx):
        om = random_cochain(ctx, 1, rng)
        al = random_cochain(ctx, 1, rng)
        xi = random_cochain(ctx, 0, rng)
        lhs = ctx.inner(ctx.bracket_section(om, xi), al, 1)
        rhs = ctx.inner(xi, ctx.contract_star(om, al), 0)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_contract_star_i_invariance(diag_ctx):
    # (i omega)* -| (i omega) = omega* -| omega, complex case
    c = offdiag_cocycle(diag_ctx.rep)
    om, _ = diag_ctx.harmonic_rep(c)
    om_i = TwistedCochain(1, 1j * om.values)
    a = diag_ctx.contract_star(om, om).values
    b = diag_ctx.contract_star(om_i, om_i).values
    assert np.abs(a - b).max() < 1e-13


def test_h_action_preserves_harmonicity(diag_ctx):
    # [omega, xi] stays harmonic for kernel sections xi
    ctx = diag_ctx
    c = offdiag_cocycle(ctx.rep)
    om, _ = ctx.harmonic_rep(c)
    for kap in ctx.kernel_sections():
        br = ctx.bracket_section(om, kap)
        assert ctx.norm(ctx.d(br), 2) < 1e-8
        assert ctx.norm(ctx.codiff(br), 0) < 1e-8


def test_maurer_cartan_refinement(sl2c):
    prev = None
    for n in (4, 8, 16):
        mesh = mc.build_torus(n, n)
        rep = rv.torus_diag_rep(sl2c, mesh, 0.4, -0.2)
        f = hf.curved_torus_map(mesh, rep, 0.3)
        ctx = TwistedComplex(mesh, rep, f)
        b = ctx.beta()
        res = TwistedCochain(2, ctx.d(b).values - ctx.bracket_wedge(b, b).values)
        val = ctx.norm(res, 2)
        if prev is not None:
            assert val < prev
        prev = val


def test_maurer_cartan_refinement_genus2_converged(sl2r):
    # on converged (curved) harmonic maps the residual also decreases
    vals = []
    for k in (1, 2, 3):
        mesh = mc.build_genus2(k)
        rep = rv.genus2_fuchsian_rep(sl2r, mesh)
        f, rpt = hf.flow(rep, hf.constant_map(mesh, rep), tol=1e-9,
                         max_iter=40000)
        assert rpt.converged
        ctx = TwistedComplex(mesh, rep, f)
        b = ctx.beta()
        res = TwistedCochain(2, ctx.d(b).values
                             - ctx.bracket_wedge(b, b).values)
        vals.append(ctx.norm(res, 2))
    assert vals[1] < vals[0] and vals[2] < vals[1]
    # empirical rate at least first order in h
    assert np.log2(vals[1] / vals[2]) > 0.9


# ----------------------------------------------------------------------
# conjugation sweep: the twisted layer in the vertex frames keeps its digits

def _rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]], dtype=complex)


def _sweep_h(cond):
    """h = R(0.3) diag(lam, 1/lam) R(0.7), cond(h) = lam^2."""
    lam = np.sqrt(cond)
    return _rotation(0.3) @ np.diag([lam, 1.0 / lam]).astype(complex) @ _rotation(0.7)


@pytest.fixture(scope="module")
def sweep_base(sl2c):
    """Genus-2 k = 2 Fuchsian SL(2,C), its harmonic map at flow_tol 1e-11,
    and the 2-jet of imaginary bending at scale 0.5."""
    mesh = mc.build_genus2(2)
    rep = rv.genus2_fuchsian_rep(sl2c, mesh)
    c, k = rv.bending_path(rep, 0.5, imaginary=True).jets()
    f, _ = hf.harmonic_map(rep, hf.constant_map(mesh, rep), tol=1e-11)
    return mesh, rep, c, k, f


def _sweep_leaves(base, cond):
    """The twisted-layer leaves of the psh, deform1, hodge and variation
    tasks at (h.f, h rho h^-1, Ad_h c, Ad_h k), the flow re-solved from h.f."""
    mesh, rep, c, k, f = base
    h = _sweep_h(cond)
    hinv = np.linalg.inv(h)
    rep_h = rep.conjugate(h)
    c_h = rv.Cocycle(rep_h, {g: h @ v @ hinv for g, v in c.values.items()})
    k_h = {g: h @ v @ hinv for g, v in k.items()}
    f_h, _ = hf.harmonic_map(rep_h, hf.EquivariantMap(mesh, rep_h, act(h, f.points)),
                             tol=1e-11)
    ctx = TwistedComplex(mesh, rep_h, f_h)
    psh = ev.psh_defect(ctx, c_h, k_h)
    fo = df.first_order(ctx, c_h)
    obs = df.obstruction_check(ctx, fo.omega)
    sol = df.solve_psi(ctx, c_h, k_h)
    return {"secvar": psh.secvar, "omega_sq": psh.omega_sq, "psh_relative": psh.relative,
            "first": ev.first_variation(ctx, sol.omega),
            "second": ev.second_variation(ctx, sol.psi, sol.omega),
            "residuals": fo.residuals, "defect": obs.defect, "scale": obs.scale,
            "orthogonal": obs.orthogonal, "kernel_dim": ctx.kernel_dim,
            "dstar_beta": ctx.norm(ctx.codiff(ctx.beta()), 0),
            "spectrum": np.linalg.eigvalsh(ctx.jacobi_dense_sym())[:4]}


@pytest.mark.parametrize("cond", [9.0, 49.0, 100.0])
def test_conjugation_sweep_keeps_the_twisted_leaves(sweep_base, cond):
    # each Z_e changes by unitary factors only, so the leaves agree with the
    # cond(h) = 1 run up to the rounding of the conjugated input, which grows
    # like cond(h)^2: measured E'' 7.5e-13 / 1.6e-10 / 4.7e-10 relative at
    # cond(h) = 9 / 49 / 100, where point coordinates gave 2.3e-10 / 4.5e-7
    # and refused the class at 100.  d omega is the closedness of the seed,
    # whose word values are rounded in point coordinates
    want, got = _sweep_leaves(sweep_base, 1.0), _sweep_leaves(sweep_base, cond)
    rel = 2e-13 * cond ** 2

    def close(key):
        return abs(got[key] - want[key]) <= rel * abs(want[key])
    for key in ("secvar", "second", "omega_sq", "scale"):
        assert close(key), (key, got[key], want[key])
    assert np.all(np.abs(got["spectrum"] - want["spectrum"]) <= rel * want["spectrum"])
    assert got["psh_relative"] <= 1e-11 and abs(got["first"]) <= 1e-12
    assert got["dstar_beta"] <= 2e-14 * cond ** 2
    for key, val in got["residuals"].items():
        assert val <= (4e-12 * cond ** 2 if key == "d_omega" else 1e-13), (key, val)
    assert (got["kernel_dim"], got["defect"], got["orthogonal"]) == (0, 0.0, True)


def test_conjugation_sweep_stops_at_the_group_check(sweep_base):
    # at cond(h) = 1e4 the conjugated generators have entries up to 6e4, so
    # their determinant is known to about 2e-7 only: the representation is
    # refused before any map or complex is built
    with pytest.raises(ValueError, match="not 1 for SL element"):
        _sweep_leaves(sweep_base, 1e4)
