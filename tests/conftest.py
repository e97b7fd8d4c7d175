import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from equivarlab.liealg import MatrixGroup
from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab import harmonicflow as hf
from equivarlab.twistedhodge import TwistedComplex

ALPHA = 0.4 + 0.3j
BETA = -0.2 + 0.5j


@pytest.fixture(scope="session")
def sl2r():
    return MatrixGroup("sl", 2, "R")


@pytest.fixture(scope="session")
def sl2c():
    return MatrixGroup("sl", 2, "C")


@pytest.fixture(scope="session")
def sl3r():
    return MatrixGroup("sl", 3, "R")


@pytest.fixture(scope="session")
def gl1c():
    return MatrixGroup("gl1c")


@pytest.fixture(scope="session")
def circle8():
    return mc.build_circle(8)


@pytest.fixture(scope="session")
def torus66():
    return mc.build_torus(6, 6)


@pytest.fixture(scope="session")
def genus2():
    return mc.build_genus2(2)


@pytest.fixture(scope="session")
def parabolic_run(tmp_path_factory):
    """(exit code, report, out dir) of the README parabolic flow: the
    40 000-iteration CLI run of test_cli.PARABOLIC_CFG from the constant
    map, checked against its golden, run once for every test that reads it."""
    from test_cli import PARABOLIC_CFG, run_cli
    return run_cli(tmp_path_factory.mktemp("parabolic"), "flow", PARABOLIC_CFG)


def converged(mesh, rep, tol=1e-10):
    f, rpt = hf.flow(rep, hf.constant_map(mesh, rep), tol=tol, max_iter=60000)
    assert rpt.converged, f"fixture flow failed: tension {rpt.tension}"
    return TwistedComplex(mesh, rep, f)


@pytest.fixture(scope="session")
def diag_ctx(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, ALPHA, BETA)
    return converged(torus66, rep)


@pytest.fixture(scope="session")
def gl1c_ctx(gl1c, torus66):
    rep = rv.torus_gl1c_rep(gl1c, torus66, 0.5 + 1.0j, -0.3 + 0.2j)
    return converged(torus66, rep)


@pytest.fixture(scope="session")
def unitary_ctx(sl2c, torus66):
    rep = rv.torus_unitary_rep(sl2c, torus66)
    return converged(torus66, rep)


@pytest.fixture(scope="session")
def trivial_ctx(sl2r, torus66):
    rep = rv.trivial_rep(sl2r, torus66)
    return TwistedComplex(torus66, rep, hf.constant_map(torus66, rep))


@pytest.fixture(scope="session")
def trivialC_ctx(sl2c, torus66):
    rep = rv.trivial_rep(sl2c, torus66)
    return TwistedComplex(torus66, rep, hf.constant_map(torus66, rep))


@pytest.fixture(scope="session")
def fuchsian_ctx(sl2r, genus2):
    rep = rv.genus2_fuchsian_rep(sl2r, genus2)
    return converged(genus2, rep)


@pytest.fixture(scope="session")
def fuchsianC_ctx(sl2c, genus2):
    rep = rv.genus2_fuchsian_rep(sl2c, genus2)
    return converged(genus2, rep)


def edge_conditioning(maps):
    """The largest cond(P) cond(Q) over the edges of the maps, where edge e
    compares P = f(src) with Q = rho(w_e) f(dst) rho(w_e)^†."""
    kappa = 0.0
    for f in maps:
        kern = hf.FlowKernel(f.mesh, f.rep)
        Q = np.einsum("eij,ejk,elk->eil", kern.g, f.points[kern.dst],
                      kern.g.conj())
        kappa = max(kappa, float(np.max(np.linalg.cond(f.points[kern.src])
                                        * np.linalg.cond(Q))))
    return kappa


def rounding_bound(maps, size):
    """Bound on the rounding of an energy-sized quantity of equivariant maps
    on one mesh, for comparing values that agree in exact arithmetic.

    Edge e compares P and Q through the log-eigenvalues of P^-1/2 Q P^-1/2.
    A backward-stable evaluation makes an absolute error of about
    eps |P^-1| |Q| in an eigenvalue, and the smallest eigenvalue is at least
    1 / (|P| |Q^-1|), so each log-eigenvalue is off by at most eps kappa_e,
    kappa_e = cond(P) cond(Q), and d_e by sqrt(n) eps kappa_e.  With kappa
    the largest kappa_e of all the maps (edge_conditioning) and W the sum of
    the edge weights, E = sum w_e d_e^2 / 2 moves by at most
    sqrt(n) eps kappa sum w_e d_e <= sqrt(n) eps kappa sqrt(2 W E)
    (Cauchy-Schwarz).  The tension and the variations sum w_e-weighted
    pairings of the same logarithms and frames, so they carry the same
    order.  max(1, size) keeps the rounding of the sums themselves in; the
    factor 16 covers sqrt(2n) and the eigensolver's constants.  The largest
    error seen was 0.4 eps kappa sqrt(W max(1, size)), over 1200 draws of
    the energy property per mesh and group and 180 of the variation
    property per path."""
    W = sum(e.weight for e in maps[0].mesh.edges)
    return (16.0 * np.finfo(float).eps * edge_conditioning(maps)
            * np.sqrt(W * max(1.0, size)))


def block_rounding_bound(A, B=None):
    """Entrywise bound on the rounding of the stacked product A B, or with B
    None of the inverse of A, for comparing two evaluations that agree in
    exact arithmetic.  An entry of an n x n product sums n products, so an
    evaluation is off by at most about n eps (|A| |B|) there (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 3.5).  A computed
    inverse is off by about n eps cond(A) |A^-1| (Higham, 14.1); the 2 x 2
    adjugate form loses 2 eps (|ad| + |bc|) / |det| <= 2 eps cond_F(A) in
    the determinant.  The factor 16 covers both evaluations and complex
    arithmetic, as in rounding_bound."""
    eps = np.finfo(float).eps
    n = A.shape[-1]
    if B is not None:
        return 16.0 * n * eps * (np.abs(A) @ np.abs(B))
    kappa = np.linalg.cond(A)[..., None, None]
    size = np.abs(np.linalg.inv(A)).max(axis=(-2, -1), keepdims=True)
    return 16.0 * n * eps * kappa * size


def random_cochain(ctx, degree, rng, scale=1.0):
    from equivarlab.twistedhodge import TwistedCochain
    ncells = (ctx.mesh.nv, ctx.mesh.ne, ctx.mesh.nf)[degree]
    vals = np.stack([ctx.group.random_alg(rng, scale) for _ in range(ncells)])
    return TwistedCochain(degree, vals)


def lsmr_g1(ctx, M, rhs):
    """Least-squares oracle: x minimizing |M x - rhs|_{G1}, by lsmr on the
    system scaled by G1^{1/2}, built blockwise from a stacked eigh."""
    w, U = np.linalg.eigh(ctx.kern.w1[:, None, None] * ctx.gram_vertex[ctx.kern.src])
    sq1 = sp.block_diag(list((U * np.sqrt(w)[:, None, :]) @ np.swapaxes(U, -1, -2)),
                        format="csr")
    x, istop = spla.lsmr(sq1 @ M, sq1 @ rhs, atol=1e-14, btol=1e-14,
                         maxiter=20000)[:2]
    assert istop != 7, "lsmr hit its iteration limit"
    return x
