"""Equivariant harmonic maps by a damped Riemannian Newton method, with the
explicit heat flow as the fallback for non-reductive representations.

A map assigns a symmetric-space point to every vertex of the fundamental
domain; evaluation across a labeled edge transports by the representation.
The discrete energy is

    E(f) = 1/2 sum_e w1(e) dist(f(u), rho(word_e) . f(v))^2

and the tension field is the metric negative gradient,

    tau(v) = 2 sum_{e at v} w1(e) mc_edge(f(v), transported neighbor),

so stepping f(v) -> exp_point(f(v), step * tau(v)) descends the energy.

The energy is geodesically convex, and its exact Hessian is a sum of
per-edge Jacobi-field blocks: in the eigenframe of beta_e = mc_edge at the
edge source, with T = |ad_beta_e|, each edge adds 4 w1 T coth T on both
endpoints and -4 w1 T / sinh T between them, the far endpoint carried to the
source by Ad_{e^{-beta_e} rho(w_e)}.  ``flow`` solves for the p-part of the
Newton step in orthonormal coordinates, damps the centralizer directions by
mu = 1e-2 min(1, |tau|) times the vertex mass, retracts with exp_point and
backtracks on the energy (on the tension once energy decrements fall below
float resolution).  When the Newton phase stalls, stops outside the drift
radius, meets a non-finite value or a singular factor, fails its line
search or spends its step budget, the explicit Armijo flow runs from the
start map instead; a parabolic (non-reductive) representation always ends
there.  A converged run certifies that rho is reductive; otherwise the
trace-form test ``repvar.Representation.reductive`` decides.  Every reader
of a harmonic map takes it from ``harmonic_map``, which refuses the rest.

FlowKernel holds only (mesh, representation) data: the per-edge arrays, the
deck words of the mesh (``CoverMesh.word_index``) evaluated once as one
``repvar.WordTable`` that the twisted complex reads too, the transports
rho(word_e) and their inverses per edge, and the Hessian's sparsity pattern.
A MapEval holds all the data of one map: the vertex frame (w, U, S =
P^{-1/2}) and the edge frame (logw, V) give the energy, and the edge logs,
the tension, its norm, the basepoint drift and the Newton model (tangent
fields, Hessian, Newton step) are read from them when asked for, with
R = P^{1/2} = U diag(sqrt w) U^† formed once for all of them.  The tension
norm needs no inverse: the fiber metric at P is the Frobenius one on S tau R.
The 2 x 2 products of the flow (transports, frames, the Newton model) go
through liealg.mul, broadcast arithmetic instead of one BLAS call per block.

Both phases run through one loop, ``_descend`` (exit, then one report of the
map it returns), with Newton and the explicit flow as its two step rules and
one backtracking search, ``_backtrack``.  A flow evaluates a complex copy of
its start map once, quietly, and both phases descend from that MapEval.  The
explicit flow's fixed-step polish rejects a candidate equal to the current
points: such a step moved nothing, and accepting it would repeat it until
max_iter.  The start and every candidate pass one gate, ``FlowKernel.evaluate``
(finite entries and energy); a candidate is evaluated energy first, and its
tension is built only once it is accepted (or a polish step accepts on it).
curved_torus_map builds the smooth test map of the refinement studies for
all vertices in one stacked pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import symspace as ss
from .liealg import ct, mul, p_basis
from .repvar import WordTable


@dataclass
class EquivariantMap:
    mesh: object
    rep: object
    points: np.ndarray     # (nv, n, n)


def constant_map(mesh, rep):
    """The map sending every vertex to the basepoint I."""
    n = rep.group.n
    pts = np.broadcast_to(np.eye(n, dtype=complex), (mesh.nv, n, n)).copy()
    return EquivariantMap(mesh, rep, pts)


def random_map(mesh, rep, rng, scale=0.4):
    """Vertices drawn by ``symspace.random_point``; every random start's scale."""
    pts = np.stack([ss.random_point(rep.group, rng, scale) for _ in range(mesh.nv)])
    return EquivariantMap(mesh, rep, pts)


def retract(points, X):
    """exp_point(points, X) with the determinant normalized to 1 for n > 1
    (GL(1,C) points are left alone); for n = 2 the determinant is a d - b c."""
    n = points.shape[-1]
    # an oversize step overflows; it comes back non-finite, silently
    with np.errstate(all="ignore"):
        new = ss.exp_point(points, X)
        if n > 1:
            det = (new[:, 0, 0] * new[:, 1, 1] - new[:, 0, 1] * new[:, 1, 0]
                   if n == 2 else np.linalg.det(new))
            new = new / (np.abs(det) ** (1.0 / n))[:, None, None]
    return new


class FlowKernel:
    """Cached per-(mesh, rep) edge arrays, word table and Hessian pattern."""

    def __init__(self, mesh, rep):
        self.mesh = mesh
        self.rep = rep
        self.n = rep.group.n
        self.src = np.array([e.src for e in mesh.edges])
        self.dst = np.array([e.dst for e in mesh.edges])
        self.w1 = np.array([e.weight for e in mesh.edges])
        self.words = WordTable(rep, mesh.word_index.words)
        idx = mesh.word_index.edge_word
        self.g = self.words.rho[idx]
        self.ginv = self.words.rho_inv[idx]
        self.w0 = np.asarray(mesh.vertex_weights)
        # Jacobi-style scale: stable explicit step is O(1) in this unit
        deg = np.zeros(mesh.nv)
        np.add.at(deg, self.src, 2.0 * self.w1)
        np.add.at(deg, self.dst, 2.0 * self.w1)
        self.step_scale = float(np.min(self.w0 / deg))

    # -- geometry ------------------------------------------------------
    def evaluate(self, points):
        """MapEval of points, or None when the map or its energy is not
        finite: the one gate of a flow's start and of every candidate."""
        if not np.isfinite(points).all():
            return None
        ev = MapEval(self, points)
        return ev if math.isfinite(ev.energy) else None

    # -- Newton step -----------------------------------------------------
    @cached_property
    def _pattern(self):
        """p-basis B, and the CSC pattern of the Hessian built once: the slot
        of every entry of the (src, src), (dst, dst), (src, dst) and
        (dst, src) edge blocks and of the vertex diagonals, row indices and
        column pointers."""
        B = p_basis(self.rep.group)
        dp = len(B)
        N = self.mesh.nv * dp
        k = np.arange(dp)
        s = self.src[:, None, None] * dp
        d = self.dst[:, None, None] * dp
        diag = np.arange(N)
        shape = (self.mesh.ne, dp, dp)
        rows = np.concatenate([np.broadcast_to(x + k[:, None], shape).ravel()
                               for x in (s, d, s, d)] + [diag])
        cols = np.concatenate([np.broadcast_to(x + k, shape).ravel()
                               for x in (s, d, d, s)] + [diag])
        uniq, slot = np.unique(cols * N + rows, return_inverse=True)
        indptr = np.searchsorted(uniq // N, np.arange(N + 1))
        return B, slot, uniq % N, indptr


class MapEval:
    """One evaluation of a map under a FlowKernel.

    One eigendecomposition of the vertex points gives S = P^{-1/2}; the
    log-eigendecomposition of S_src Q S_src, Q the transported far endpoint,
    gives the squared edge distances d2 and from them the energy.  The edge
    logs beta, the tension, its squared norm, the basepoint drift and the
    Newton model are built from the same arrays when asked for (beta, the
    tension, its norm and P^{1/2} once), so a rejected candidate pays for its
    energy alone and a Newton step takes no eigendecomposition of its own.
    """

    def __init__(self, kern, points):
        self.kern = kern
        self.points = points
        self.w, self.U, self.S = ss.point_frame(points)
        self.logw, self.V = ss.log_frame(self.S[kern.src],
                                         ss.act(kern.g, points[kern.dst]))
        # a sum of squares, which can differ from dist(P, Q)**2 in the last
        # bit; the energy is built on it
        self.d2 = np.sum(self.logw ** 2, axis=-1)
        self.energy = 0.5 * float(np.dot(kern.w1, self.d2))

    @cached_property
    def beta(self):
        """mc_edge(P_src, g P_dst g^†) per edge."""
        src = self.kern.src
        return ss.mc_from_frame(self.R[src], self.S[src], self.logw, self.V)

    @cached_property
    def tension(self):
        k = self.kern
        fwd = 2.0 * k.w1[:, None, None] * self.beta
        back = -mul(mul(k.ginv, fwd), k.g)
        tau = np.zeros(self.points.shape, dtype=np.result_type(self.points, k.g))
        np.add.at(tau, k.src, fwd)
        np.add.at(tau, k.dst, back)
        return tau

    @cached_property
    def tension_frame(self):
        """S tau R per vertex: the tension in the frame of the vertex, where
        the fiber metric at P is the Frobenius one."""
        return mul(mul(self.S, self.tension), self.R)

    @cached_property
    def tension_sq(self):
        """Weighted L2 norm^2 of the tension in the pointwise fiber metric,
        sum_v w0 ||S tau R||_F^2."""
        T = self.tension_frame
        vals = np.sum(T.real ** 2 + T.imag ** 2, axis=(-2, -1))
        return float(np.dot(self.kern.w0, vals))

    @property
    def drift(self):
        """dist(I, f(v0)), from the vertex eigenvalues."""
        return ss.origin_dist(self.points[0], self.w[0])

    # -- Newton model at this map ------------------------------------------
    @cached_property
    def R(self):
        """P^{1/2} per vertex, from the vertex frame."""
        return ss._spectral(self.U, np.sqrt(self.w))

    def tangent_field(self, x):
        """Tangent field sum_k x[v, k] R_v B_k R_v^{-1} (R_v = P_v^{1/2}) from
        orthonormal p-coordinates x (flat, vertex-major)."""
        B = self.kern._pattern[0]
        X = np.tensordot(x.reshape(len(self.points), len(B)), B, axes=1)
        return mul(mul(self.R, X), self.S)

    def hessian(self, mu=0.0):
        """Exact Hessian of the energy in orthonormal p-coordinates, plus mu
        times the vertex mass on the diagonal (sparse CSC).

        x @ H @ x is the second derivative of the energy along
        exp_point(points, s * tangent_field(x)) at s = 0.
        """
        k = self.kern
        B, slot, indices, indptr = k._pattern
        ne = len(k.src)
        R, S, logw, V = self.R, self.S, self.logw, self.V
        coth, csch = ss.ad_jacobi(logw)
        Vh = ct(V)
        # source basis in the eigenframe of beta, and the far basis carried
        # to the source: V^† e^{-beta~} S g R_dst = e^{-Lambda} V^† S g R_dst
        Ms = mul(mul(Vh[:, None], B), V[:, None]).reshape(ne, len(B), -1)
        Y = np.exp(-0.5 * logw)[..., None] * mul(mul(mul(Vh, S[k.src]), k.g),
                                                 R[k.dst])
        Md = mul(mul(Y[:, None], B), ct(Y)[:, None]).reshape(Ms.shape)
        coth = coth.reshape(ne, 1, -1)
        csch = csch.reshape(coth.shape)

        def pair(X, f, Z):
            # Re <X_k, f o Z_l>_F for every pair of basis elements
            return np.real((X.conj() * f) @ Z.swapaxes(1, 2))

        scale = 4.0 * k.w1[:, None, None]
        C = -scale * pair(Ms, csch, Md)
        vals = np.concatenate([(scale * pair(Ms, coth, Ms)).ravel(),
                               (scale * pair(Md, coth, Md)).ravel(),
                               C.ravel(), C.swapaxes(1, 2).ravel(),
                               np.repeat(mu * k.w0, len(B))])
        data = np.bincount(slot, weights=vals, minlength=len(indices))
        n_dof = len(indptr) - 1
        return sp.csc_matrix((data, indices, indptr), shape=(n_dof, n_dof))

    def newton_step(self, mu):
        """Damped Newton direction (H + mu W0) x = 2 t, t the orthonormal
        p-coordinates of the tension; returns the tangent field and 2 t . x
        (twice the model decrease), or None on a singular or non-finite
        solve."""
        B = self.kern._pattern[0]
        rhs = 2.0 * np.real(np.einsum("kij,vij->vk", B.conj(),
                                      self.tension_frame)).ravel()
        H = self.hessian(mu)
        if not np.isfinite(H.data).all():
            return None
        try:
            x = spla.splu(H).solve(rhs)
        except RuntimeError:        # exactly singular factor
            return None
        if not np.isfinite(x).all():
            return None
        return self.tangent_field(x), float(rhs @ x)


def energy(f):
    return MapEval(FlowKernel(f.mesh, f.rep), f.points).energy


def tension_norm(f):
    """Weighted L2 norm of the tension field; zero exactly at harmonic maps."""
    return float(np.sqrt(MapEval(FlowKernel(f.mesh, f.rep), f.points).tension_sq))


# ----------------------------------------------------------------------

@dataclass
class FlowReport:
    energy: float
    tension: float
    iterations: int
    converged: bool
    basepoint_drift: float
    reductive_suspected: bool
    step_underflow: bool
    solver: str     # "newton" or "explicit"; not in to_dict

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if k != "solver"}


#: Newton steps checked before the explicit flow takes over
NEWTON_STEPS = 50


def flow(rep, f0, *, tol=1e-8, max_iter=20000, drift_radius=ss.ATTAINED_RADIUS):
    """Harmonic map from f0: damped Riemannian Newton, explicit flow fallback.

    Convergence means the weighted tension norm drops below tol with the
    basepoint inside the drift radius and no vertex eigenvalue at the floor.
    The report describes the returned map; ``iterations`` counts loop passes,
    at most max_iter.  f0 is evaluated once, quietly, and refused if its energy
    is not finite; when the Newton phase does not converge, the explicit Armijo
    flow runs from that evaluation and returns its report, with the plateau
    energy of an unconverged run.  ``reductive_suspected`` is true when the run
    converged (a harmonic map exists only for a reductive rho) or when rho
    passes the trace-form test, ``Representation.reductive``.  A run needs
    max_iter >= 1 and a drift radius above zero (inf allows any drift); the
    defaults are every flow's, ``harmonic_map``'s too.
    """
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, not {max_iter}")
    if not drift_radius > 0:
        raise ValueError(f"drift_radius must be above zero, not {drift_radius}")
    kern = FlowKernel(f0.mesh, rep)
    with np.errstate(all="ignore"):
        start = kern.evaluate(np.array(f0.points, dtype=complex))
    if start is None:
        raise ValueError("start map has non-finite energy")
    args = dict(tol=tol, max_iter=max_iter, drift_radius=drift_radius)
    pts, report = _newton_flow(kern, start, **args)
    if not report.converged:
        pts, report = _explicit_flow(kern, start, **args)
    return EquivariantMap(f0.mesh, rep, pts), report


class FlowNotConverged(RuntimeError):
    def __init__(self, report):
        super().__init__(f"flow did not converge: tension {report.tension:.3e}")
        self.report = report


def harmonic_map(rep, f0, **flow_args):
    """(map, report) of a converged ``flow`` from f0, else FlowNotConverged
    with the report; the flow_args go to the flow, whose defaults stand."""
    f, report = flow(rep, f0, **flow_args)
    if not report.converged:
        raise FlowNotConverged(report)
    return f, report


def _descend(kern, ev, step, solver, *, tol, max_iter, drift_radius):
    """The loop of both phases from the start MapEval ev; (points, report).
    It stops once the tension is below tol or the basepoint is outside the
    drift radius, when step(ev) finds no next MapEval (None), or after
    max_iter passes, which ``iterations`` counts.  The report is read off
    the returned map: it is converged when that map passes the tension,
    drift and eigenvalue-floor tests, else reductive as rho's verdict says."""
    underflow = False
    for it in range(1, max_iter + 1):
        if math.sqrt(ev.tension_sq) < tol or ev.drift > drift_radius:
            break
        nxt = step(ev)
        if nxt is None:
            underflow = True
            break
        ev = nxt
    tension, drift = math.sqrt(ev.tension_sq), ev.drift
    converged = bool(tension < tol and drift <= drift_radius
                     and ev.w.min() > ss._EIG_FLOOR)
    return ev.points, FlowReport(ev.energy, tension, it, converged, drift,
                                 converged or kern.rep.reductive, underflow,
                                 solver)


def _backtrack(kern, points, X, s, floor, accept):
    """First candidate retract(points, s X) with accept(cand, s), halving s
    while it is above floor; (cand, s), or (None, s)."""
    while s > floor:
        cand = kern.evaluate(retract(points, s * X))
        if cand is not None and accept(cand, s):
            return cand, s
        s *= 0.5
    return None, s


def _newton_flow(kern, start, *, max_iter, **args):
    """Damped Riemannian Newton phase; (points, report), unconverged when
    the explicit flow has to take over."""
    slow = 0        # full steps in a row that cut |tau| by less than 4x

    def newton(ev):
        nonlocal slow
        E, gsq = ev.energy, ev.tension_sq
        found = ev.newton_step(1e-2 * min(1.0, math.sqrt(gsq)))
        if found is None:
            return None
        X, decrease = found
        # below float resolution of E, accept on a smaller tension instead
        polish = 0.5 * decrease < 1e-13 * max(1.0, abs(E))
        cand, alpha = _backtrack(
            kern, ev.points, X, 1.0, 1e-10,
            lambda c, a: (c.tension_sq < gsq if polish else
                          c.energy <= E - 1e-4 * a * decrease))
        slow = slow + 1 if alpha == 1.0 and cand.tension_sq > gsq / 16.0 else 0
        return None if slow == 2 else cand

    return _descend(kern, start, newton, "newton",
                    max_iter=min(max_iter, NEWTON_STEPS + 1), **args)


def _explicit_flow(kern, start, **args):
    """Energy-descent flow with Armijo backtracking; (points, report)."""
    step = 0.5 * kern.step_scale

    def armijo(ev):
        nonlocal step
        E, gsq = ev.energy, ev.tension_sq
        if 0.25 * step * gsq < 1e-13 * max(1.0, abs(E)):
            # energy decrements below float resolution: fixed-step polish
            # accepted on tension decrease instead (energy stays within
            # 1e-12); a candidate equal to the current points is no step,
            # and a rejection halves the step for the next iteration
            cand = kern.evaluate(retract(ev.points, step * ev.tension))
            if (cand is not None and not np.array_equal(cand.points, ev.points)
                    and cand.tension_sq <= gsq * (1.0 + 1e-6)):
                return cand
            step *= 0.5
            return ev if step > 1e-16 else None
        cand, step = _backtrack(kern, ev.points, ev.tension, step, 1e-16,
                                lambda c, s: c.energy <= E - 0.25 * s * gsq)
        step = min(step * 1.4, 1e8)
        return cand

    return _descend(kern, start, armijo, "explicit", **args)


def energy_of_rep(rep, mesh, *, n_starts=2, seed=0, **flow_args):
    """Energy infimum estimate over flows from n_starts >= 1 starts; (energy,
    reductive, best report), reductive if a start converged or rho.reductive.
    The flow_args (tol, max_iter, drift_radius) go to every flow."""
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, not {n_starts}")
    rng = np.random.default_rng(seed)
    reports = []
    for s in range(n_starts):
        f0 = constant_map(mesh, rep) if s == 0 else random_map(mesh, rep, rng)
        reports.append(flow(rep, f0, **flow_args)[1])
    best = min(reports, key=lambda r: r.energy)
    return best.energy, any(r.reductive_suspected for r in reports), best


def curved_torus_map(mesh, rep, amplitude=0.3):
    """Smooth equivariant non-geodesic test map on a torus mesh.

    s(x,y) = exp(xA) exp(yB) exp(a sin(2 pi x) sin(2 pi y) C) with A, B the
    generator logs of a commuting-exponential representation and C the
    symmetric off-diagonal unit (i for n = 1); the periodic factor is
    curvature-generating but equivariance-neutral.  All vertices are built
    at once, one stacked exponential per factor.  Used for refinement
    studies of the discrete Maurer-Cartan residual.
    """
    if mesh.meta.get("kind") != "torus":
        raise ValueError("curved test map needs a torus mesh")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude {amplitude} is not finite")
    if rep.logs is None:
        raise ValueError("curved test map needs an exp-family representation")
    n_, m_ = mesh.meta["n"], mesh.meta["m"]
    A = rep.logs["a"]
    B = rep.logs["b"]
    nd = rep.group.n
    if nd > 1 and max(abs(np.trace(A)), abs(np.trace(B))) > 1e-12:
        raise ValueError("curved test map needs traceless generator logs")
    C = np.zeros((nd, nd), dtype=complex)
    if nd >= 2:
        C[0, 1] = C[1, 0] = amplitude
    else:
        C[0, 0] = amplitude * 1j
    # vertex v = i + n j sits at (x, y) = (i / n, j / m)
    j, i = np.divmod(np.arange(mesh.nv), n_)
    x, y = i / n_, j / m_
    bump = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    s = ss._expm(x[:, None, None] * A) @ ss._expm(y[:, None, None] * B) \
        @ ss._expm(bump[:, None, None] * C)
    pts = s @ ct(s)
    if nd > 1:
        with np.errstate(all="ignore"):    # refused below, without a warning
            pts = pts / (np.abs(np.linalg.det(pts)) ** (1.0 / nd))[:, None, None]
    if not np.isfinite(pts).all():
        raise ValueError(f"curved test map at amplitude {amplitude} is not finite")
    return EquivariantMap(mesh, rep, pts)


def map_distance(f, g):
    """Sup over vertices of the pointwise symmetric-space distance."""
    return float(np.max(ss.dist(f.points, g.points)))
