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
def parabolic_plateau(sl2r):
    """(map, report) of the 40 000-iteration flow of the parabolic circle-4
    representation from the constant map, run once for every test that
    reads it."""
    circle = mc.build_circle(4)
    rep = rv.parabolic_circle_rep(sl2r, circle)
    return hf.flow(rep, hf.constant_map(circle, rep), max_iter=40000)


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
