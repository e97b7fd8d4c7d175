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
source by Ad_{e^{-beta_e} rho(w_e)}.  In the vertex frames these are the
frames U and V of the edge SVD Z = U Sigma V^† (``MapEval._svd_blocks``);
for n = 2, T is l on the complement of ker ad beta and 0 on it, so the
blocks need no eigenvectors (``MapEval._sl2_blocks``).  ``flow`` solves for
the p-part of the Newton step in orthonormal coordinates, damps the
centralizer directions by mu = 1e-2 min(1, |tau|) times the vertex mass,
moves each point along the step in its vertex frame (``MapEval.moved``)
and backtracks on the energy (on the tension once energy
decrements fall below float resolution).  When the Newton phase stalls,
meets a non-finite value or a singular factor, fails its line search or
spends its step budget, the explicit Armijo flow runs from the start map
instead; a parabolic (non-reductive) representation always ends there.
Both phases stop on the tension alone, and one rule says a map is too far
out: a run whose returned map has a vertex at or beyond
``symspace._FLOOR_DIST`` from I is not converged.  A converged run
certifies that rho is reductive; otherwise the trace-form test
``repvar.Representation.reductive`` decides.  Every reader of a harmonic
map takes it from ``harmonic_map``, which refuses the rest.

FlowKernel holds only (mesh, representation) data: the per-edge arrays, the
deck words of the mesh (``CoverMesh.word_index``) evaluated once as one
``repvar.WordTable`` that the twisted complex reads too, the transports
rho(word_e) and their inverses per edge, and the Hessian's sparsity pattern.
A MapEval holds one map in one form, the vertex frames, with one kernel for
every n, and the twisted complex reads its roots, edge matrices and frame.
The roots R = P^{1/2}, S = P^{-1/2} of the
vertices (``symspace.roots``) give each edge its frame Z = S_src g R_dst;
log(Z Z^†) and log(Z^† Z) are twice the edge log in the source and in the
far frame, so the tension in the vertex frames is a sum of them; and a step moves a
point to R e^{2X} R, X in the vertex frame, which is exp_point(P, R X S)
without its cancellation far out.  For n = 2 the closed forms of ``symspace`` give
the edge quantities with no eigendecomposition (``sl2_frame`` for the
energy, ``sl2_grams`` for the Gram parts of Z); for n = 1 and n >= 3 one
eigh per vertex gives the roots and ``symspace.edge_svd`` the SVD of Z.  The
tension norm needs no inverse: the fiber metric at P is the Frobenius one on
S tau R.  The 2 x 2 products of the flow (transports, frames, the Newton
model) are broadcast arithmetic instead of one BLAS call per block: the n = 2
energy and tension call liealg.mul2, which skips mul's shape check, and read
the transports' conjugate transposes from FlowKernel (``gh``), formed once.
On the 4-vertex circle an iteration costs numpy dispatch on 4-element
stacks, not arithmetic, so every product, branch and reduction there is paid
once per trial map or once per accepted map, and none of them changes a
float: the closed forms take their series or NaN branch only when one min
shows a value needs it.

Both phases run through one loop, ``_descend`` (exit, then one report of the
map it returns), with Newton and the explicit flow as its two step rules and
one backtracking search, ``_backtrack``.  A flow evaluates a complex copy of
its start map once, quietly, and both phases descend from that MapEval.  The
explicit flow's fixed-step polish rejects a candidate equal to the current
points: such a step moved nothing, and accepting it would repeat it until
max_iter.  The start and every candidate pass one gate, ``FlowKernel.evaluate``
(finite entries and energy, and a positive trace at every vertex, for n = 2
the sum of its two real diagonal entries); a candidate is evaluated energy
first, and its tension is built only on the first read of it, once it is
accepted (or a polish step or a Newton test reads it): for n = 2 that one
pass (``MapEval._tension``) forms the roots, Z, the Gram parts, l / sinh l,
the frame sum and its norm together.  curved_torus_map builds
the smooth test map of the refinement studies for all vertices in one
stacked pass, and refuses one whose points have lost their determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import symspace as ss
from .liealg import ct, mul, mul2, p_basis
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
    """Vertices drawn by ``symspace.random_points`` (one stacked draw, the
    points of one ``random_point`` per vertex in turn), the start of the CLI
    flow task's ``flow.start = "random"``; a far scale overflows quietly, and
    ``flow`` refuses the start."""
    with np.errstate(all="ignore"):
        pts = ss.random_points(rep.group, rng, mesh.nv, scale)
    return EquivariantMap(mesh, rep, pts)


def retract(points, X):
    """exp_point(points, X) with the determinant normalized to 1 for n > 1
    (GL(1,C) points are left alone); for n = 2 the determinant is a d - b c."""
    # an oversize step overflows; it comes back non-finite, silently
    with np.errstate(all="ignore"):
        return _unit_det(ss.exp_point(points, X))


def _unit_det(new):
    """new / |det new|^(1/n) for n > 1, under the caller's np.errstate.  A
    point whose determinant is not positive has left the symmetric space (a
    far Newton step can land on det -1 with a positive trace): it comes back
    NaN, as non-finite, so FlowKernel.evaluate refuses it."""
    n = new.shape[-1]
    if n > 1:
        det = (new[:, 0, 0] * new[:, 1, 1] - new[:, 0, 1] * new[:, 1, 0]
               if n == 2 else np.linalg.det(new))
        dr = det.real
        scale = (np.abs(det) if dr.min() > 0.0
                 else np.where(dr > 0.0, np.abs(det), np.nan))
        new = new / (scale ** (1.0 / n))[:, None, None]
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
        self.gh = ct(self.g)
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
        finite or a point has a trace at or below zero, so is not positive
        (an oversize step far out leaves R e^{2X} R no correct digit): the
        one gate of a flow's start and of every candidate."""
        if not np.isfinite(points).all():
            return None
        trace = (points[:, 0, 0].real + points[:, 1, 1].real if self.n == 2
                 else np.trace(points, axis1=1, axis2=2).real)
        if not trace.min() > 0.0:
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


#: MapEval attributes set by MapEval._tension on the first read of any
_TENSION_NAMES = frozenset({"roots", "Z", "frame", "tension_frame", "tension_sq"})


class MapEval:
    """One evaluation of a map under a FlowKernel, in the vertex frames.

    Every edge is read through Z = S_src g R_dst between the roots
    R = P^{1/2}, S = P^{-1/2} of its endpoints (symspace.roots): Z Z^† =
    S_src Q S_src for the transported far endpoint Q, so log(Z Z^†) is twice
    the edge log in the source frame and log(Z^† Z) in the far frame.  For
    n = 2 sl2_frame of (P_src, Q) gives the squared edge distances d2 = 2 l^2
    with no root, and the roots, Z and its Gram parts are formed with the
    tension, in one pass on the first read of any of them (_tension), so a
    rejected candidate pays for its energy alone; otherwise edge_svd factors
    Z = U Sigma V^† with the energy.  The tension, its
    norm, a move and the Newton model read the same arrays for
    every n; only the Jacobi blocks have an n = 2 closed form of their own.
    """

    def __init__(self, kern, points):
        self.kern = kern
        self.points = points
        if kern.n == 2:
            # sl2_frame(P_src, Q) of Q = act(g, P_dst), with the kernel's g^†
            Q = ss._hermitize(mul2(mul2(kern.g, points[kern.dst]), kern.gh))
            _, self.sh, self.ell = ss._sl2_split(mul2(Q, ss.adj(points[kern.src])))
            d = ss._SQRT2 * self.ell
            self.d2 = d * d
        else:
            R, S = self.roots = ss.roots(points)
            self.Z = mul(mul(S[kern.src], kern.g), R[kern.dst])
            self.U, self.logs, self.V = ss.edge_svd(self.Z)
            self.d2 = 4.0 * np.sum(self.logs ** 2, axis=-1)
            self.frame = (2.0, ss._spectral(self.U, self.logs),
                          ss._spectral(self.V, self.logs))
        self.energy = 0.5 * float(np.dot(kern.w1, self.d2))

    def __getattr__(self, name):
        # called only for a name not yet set: the tension's, built on first read
        if name not in _TENSION_NAMES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._tension()
        return vars(self)[name]

    def _tension(self):
        """Set the tension and, for n = 2, what it is summed from, in one pass:

        roots, (R, S) = (P^{1/2}, P^{-1/2}) per vertex (symspace.roots), and
        Z = S_src g R_dst per edge (for n != 2 __init__ sets both);
        frame, (c, Fs, Ff) per edge with log(Z Z^†) = c Fs and
        log(Z^† Z) = c Ff: l / sinh l and the traceless Gram parts of
        symspace.sl2_grams for n = 2, else (2, U log Sigma U^†,
        V log Sigma V^†) from __init__;
        tension_frame, S tau R per vertex: the tension in the frame of the
        vertex, where the fiber metric at P is the Frobenius one, summed in
        the vertex frames: an edge adds w1 log(Z Z^†) = 2 w1 S_src beta R_src
        at its source and minus w1 log(Z^† Z) = Z^{-1} (.) Z of it at its far
        end (S, R applied to a tension summed at the points would lose the
        digits of a far point);
        tension_sq, its weighted L2 norm^2 in the pointwise fiber metric,
        sum_v w0 ||S tau R||_F^2."""
        k = self.kern
        if k.n == 2:
            R, S = self.roots = ss.roots(self.points)
            self.Z = mul2(mul2(S[k.src], k.g), R[k.dst])
            self.frame = ss.sl2_csch(self.sh, self.ell), *ss.sl2_grams(self.Z)
        c, Fs, Ff = self.frame
        c = (k.w1 * c)[:, None, None]
        T = np.zeros(self.points.shape, dtype=complex)
        np.add.at(T, k.src, c * Fs)
        np.add.at(T, k.dst, -c * Ff)
        self.tension_frame = T
        self.tension_sq = float(np.dot(k.w0, np.sum(T.real ** 2 + T.imag ** 2,
                                                    axis=(-2, -1))))

    # -- Newton model at this map ------------------------------------------
    def _frame_field(self, x):
        """sum_k x[v, k] B_k per vertex: a tangent field in the vertex frames."""
        B = self.kern._pattern[0]
        return np.tensordot(x.reshape(len(self.points), len(B)), B, axes=1)

    def moved(self, s, X):
        """The points R e^{2 s X} R, X a tangent field in the vertex frames:
        exp_point(P, s R X S), without its cancellation far out."""
        R = self.roots[0]
        with np.errstate(all="ignore"):
            E = ss.exph(2.0 * s * X)
            return _unit_det(ss._hermitize(mul(mul(R, E), R)))

    def hessian(self, mu=0.0):
        """Exact Hessian of the energy in orthonormal p-coordinates, plus mu
        times the vertex mass on the diagonal (sparse CSC).

        x @ H @ x is the second derivative of the energy along
        moved(s, _frame_field(x)) at s = 0.
        """
        k = self.kern
        B, slot, indices, indptr = k._pattern
        src, far, cross = (self._sl2_blocks(B) if k.n == 2
                           else self._svd_blocks(B))
        scale = 4.0 * k.w1[:, None, None]
        C = -scale * cross
        vals = np.concatenate([(scale * src).ravel(), (scale * far).ravel(),
                               C.ravel(), C.swapaxes(1, 2).ravel(),
                               np.repeat(mu * k.w0, len(B))])
        data = np.bincount(slot, weights=vals, minlength=len(indices))
        n_dof = len(indptr) - 1
        return sp.csc_matrix((data, indices, indptr), shape=(n_dof, n_dof))

    def _sl2_blocks(self, B):
        """Per-edge (source, far, cross) Jacobi blocks over 4 w1 for n = 2,
        with no eigenvectors: with c and d the p-coordinates of H0 / |H0|
        and K0 / |K0| (symspace.sl2_grams) and U the unitary polar factor of
        Z, so that K0 = U^† H0 U, the source block is
        l coth l I + (1 - l coth l) c c^T, the far block the same in d, and
        the cross block (l / sinh l) Ad_U + (1 - l / sinh l) c d^T."""

        def unit(X):
            x = np.real(np.einsum("kij,eij->ek", B.conj(), X))
            norm = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
            return x / np.where(norm > 0.0, norm, 1.0)

        csch, H0, K0 = self.frame
        c, d = unit(H0), unit(K0)
        U = ss.sl2_unitary(self.Z)
        A = np.real(np.einsum("kij,elij->ekl", B.conj(),
                              mul(mul(U[:, None], B), ct(U)[:, None])))
        csch = csch[:, None, None]
        coth = csch * np.hypot(1.0, self.sh)[:, None, None]
        eye = np.eye(len(B))
        cc, dd, cd = (x[:, :, None] * y[:, None, :] for x, y in ((c, c), (d, d), (c, d)))
        return (coth * eye + (1.0 - coth) * cc, coth * eye + (1.0 - coth) * dd,
                csch * A + (1.0 - csch) * cd)

    def _svd_blocks(self, B):
        """Per-edge (source, far, cross) Jacobi blocks over 4 w1 in the SVD
        frames of Z = U Sigma V^†: U is the eigenframe of beta at the source
        and V the far frame, so the basis goes in as U^† B U and V^† B V, and
        T coth T and T / sinh T of T = |ad beta| (symspace.ad_jacobi of
        log sigma) act as Hadamard multipliers."""
        ne = len(self.kern.src)
        coth, csch = (f.reshape(ne, 1, -1) for f in ss.ad_jacobi(self.logs))
        Ms, Md = (mul(mul(ct(W)[:, None], B), W[:, None]).reshape(ne, len(B), -1)
                  for W in (self.U, self.V))

        def pair(X, f, Y):
            # Re <X_k, f o Y_l>_F for every pair of basis elements
            return np.real((X.conj() * f) @ Y.swapaxes(1, 2))

        return pair(Ms, coth, Ms), pair(Md, coth, Md), pair(Ms, csch, Md)

    def newton_step(self, mu):
        """Damped Newton direction (H + mu W0) x = 2 t, t the orthonormal
        p-coordinates of the tension; returns the tangent field of x in the
        vertex frames, the form ``moved`` takes, and 2 t . x (twice the
        model decrease), or None on a singular or non-finite solve."""
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
        return self._frame_field(x), float(rhs @ x)


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


def flow(rep, f0, *, tol=1e-8, max_iter=20000):
    """Harmonic map from f0: damped Riemannian Newton, explicit flow fallback.

    Convergence means the weighted tension norm drops below tol with no
    vertex at or beyond symspace._FLOOR_DIST from I.  The report describes
    the returned map; ``iterations`` counts loop passes, at most max_iter.
    f0 is evaluated once, quietly, and refused if its energy is not finite;
    when the Newton phase does not converge, the explicit Armijo flow runs
    from that evaluation and returns its report, with the plateau energy of
    an unconverged run.  ``reductive_suspected`` is true when the run
    converged (a harmonic map exists only for a reductive rho) or when rho
    passes the trace-form test, ``Representation.reductive``.  A run needs
    max_iter >= 1; the defaults are every flow's, ``harmonic_map``'s too.
    """
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, not {max_iter}")
    kern = FlowKernel(f0.mesh, rep)
    with np.errstate(all="ignore"):
        start = kern.evaluate(np.array(f0.points, dtype=complex))
    if start is None:
        raise ValueError("start map has non-finite energy")
    pts, report = _newton_flow(kern, start, tol=tol, max_iter=max_iter)
    if not report.converged:
        pts, report = _explicit_flow(kern, start, tol=tol, max_iter=max_iter)
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


def _descend(kern, ev, step, solver, *, tol, max_iter):
    """The loop of both phases from the start MapEval ev; (points, report).
    It stops once the tension is below tol, when step(ev) finds no next
    MapEval (None), or after max_iter passes, which ``iterations`` counts.
    The report is read off the returned map, with one origin_dist of its
    points: ``basepoint_drift`` is that of vertex 0, and the map is
    converged when its tension is below tol and no vertex lies at or beyond
    symspace._FLOOR_DIST; else reductive as rho's verdict says."""
    underflow = False
    for it in range(1, max_iter + 1):
        if math.sqrt(ev.tension_sq) < tol:
            break
        nxt = step(ev)
        if nxt is None:
            underflow = True
            break
        ev = nxt
    tension, far = math.sqrt(ev.tension_sq), ss.origin_dist(ev.points)
    converged = bool(tension < tol and far.max() < ss._FLOOR_DIST)
    return ev.points, FlowReport(ev.energy, tension, it, converged, float(far[0]),
                                 converged or kern.rep.reductive, underflow,
                                 solver)


def _backtrack(kern, ev, X, s, floor, accept):
    """First candidate ev.moved(s, X) with accept(cand, s), halving s while
    it is above floor; (cand, s), or (None, s)."""
    while s > floor:
        cand = kern.evaluate(ev.moved(s, X))
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
            kern, ev, X, 1.0, 1e-10,
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
            cand = kern.evaluate(ev.moved(step, ev.tension_frame))
            if (cand is not None and not np.array_equal(cand.points, ev.points)
                    and cand.tension_sq <= gsq * (1.0 + 1e-6)):
                return cand
            step *= 0.5
            return ev if step > 1e-16 else None
        cand, step = _backtrack(kern, ev, ev.tension_frame, step, 1e-16,
                                lambda c, s: c.energy <= E - 0.25 * s * gsq)
        step = min(step * 1.4, 1e8)
        return cand

    return _descend(kern, start, armijo, "explicit", **args)


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
    with np.errstate(all="ignore"):    # refused below, without a warning
        s = ss._expm(x[:, None, None] * A) @ ss._expm(y[:, None, None] * B) \
            @ ss._expm(bump[:, None, None] * C)
        pts = s @ ct(s)
        if nd > 1:
            pts = pts / (np.abs(np.linalg.det(pts)) ** (1.0 / nd))[:, None, None]
    if not np.isfinite(pts).all():
        raise ValueError(f"curved test map at amplitude {amplitude} is not finite")
    # a point's determinant is known to eps cond(P): past 1e-8 the map has
    # left SL(n) by more than any residual it is built to show
    lost = np.finfo(float).eps * float(np.linalg.cond(pts).max())
    if lost > 1e-8:
        raise ValueError(f"curved test map at amplitude {amplitude} has lost its "
                         f"determinant (eps cond(P) = {lost:.1e} > 1e-8)")
    return EquivariantMap(mesh, rep, pts)


def map_distance(f, g):
    """Sup over vertices of the pointwise symmetric-space distance."""
    return float(np.max(ss.dist(f.points, g.points)))
