"""Equivariant harmonic maps by discrete heat flow.

A map assigns a symmetric-space point to every vertex of the fundamental
domain; evaluation across a labeled edge transports by the representation.
The discrete energy is

    E(f) = 1/2 sum_e w1(e) dist(f(u), rho(word_e) . f(v))^2

and the tension field is the metric negative gradient,

    tau(v) = 2 sum_{e at v} w1(e) mc_edge(f(v), transported neighbor),

so stepping f(v) -> exp_point(f(v), step * tau(v)) descends the energy.
FlowKernel caches the per-edge arrays of a (mesh, representation) pair and
evaluates every edge at once through the stacked routines of symspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import symspace as ss
from .liealg import adjoint_at


@dataclass
class EquivariantMap:
    mesh: object
    rep: object
    points: np.ndarray     # (nv, n, n)

    def copy(self):
        return EquivariantMap(self.mesh, self.rep, self.points.copy())

    def point(self, v):
        return self.points[v]

    def to_json(self):
        import json
        pts = [[[[float(z.real), float(z.imag)] for z in row] for row in P]
               for P in self.points]
        return json.dumps({"points": pts}, sort_keys=True)

    @classmethod
    def from_json(cls, text, mesh, rep):
        import json
        arr = np.asarray(json.loads(text)["points"], dtype=float)
        pts = arr[..., 0] + 1j * arr[..., 1]
        if len(pts) != mesh.nv:
            raise ValueError("map JSON does not match the mesh size")
        return cls(mesh, rep, pts)


def constant_map(mesh, rep, P=None):
    n = rep.group.n
    if P is None:
        P = np.eye(n, dtype=complex)
    pts = np.broadcast_to(np.asarray(P, dtype=complex), (mesh.nv, n, n)).copy()
    return EquivariantMap(mesh, rep, pts)


def random_map(mesh, rep, rng, scale=0.5):
    pts = np.stack([ss.random_point(rep.group, rng, scale) for _ in range(mesh.nv)])
    return EquivariantMap(mesh, rep, pts)


class FlowKernel:
    """Cached per-(mesh, rep) edge arrays for batched energy and tension."""

    def __init__(self, mesh, rep):
        self.mesh = mesh
        self.rep = rep
        n = rep.group.n
        self.n = n
        ne = mesh.ne
        self.src = np.array([e.src for e in mesh.edges])
        self.dst = np.array([e.dst for e in mesh.edges])
        self.w1 = np.array([e.weight for e in mesh.edges])
        self.g = np.empty((ne, n, n), dtype=complex)
        for i, e in enumerate(mesh.edges):
            self.g[i] = rep.eval_word(e.label) if e.label else np.eye(n)
        self.ginv = np.linalg.inv(self.g)
        self.w0 = np.asarray(mesh.vertex_weights)
        # Jacobi-style scale: stable explicit step is O(1) in this unit
        deg = np.zeros(mesh.nv)
        np.add.at(deg, self.src, 2.0 * self.w1)
        np.add.at(deg, self.dst, 2.0 * self.w1)
        self.step_scale = float(np.min(self.w0 / deg))

    # -- geometry ------------------------------------------------------
    def edge_data(self, points):
        """Per-edge (beta, dist_sq): beta = mc_edge(P_src, g P_dst g^†)."""
        # square roots once per vertex, not once per edge
        R, S = ss.sqrt_pair(points)
        return ss.edge_log(R[self.src], S[self.src],
                           ss.act(self.g, points[self.dst]))

    def energy(self, points):
        _, d2 = self.edge_data(points)
        return 0.5 * float(np.dot(self.w1, d2))

    def energy_and_tension(self, points):
        beta, d2 = self.edge_data(points)
        E = 0.5 * float(np.dot(self.w1, d2))
        tau = np.zeros_like(points)
        fwd = 2.0 * self.w1[:, None, None] * beta
        back = -(self.ginv @ fwd @ self.g)
        np.add.at(tau, self.src, fwd)
        np.add.at(tau, self.dst, back)
        return E, tau

    def tension_norm_sq(self, points, tau):
        # weighted L2 norm^2 of tau w.r.t. the pointwise fiber metric
        vals = np.real(np.einsum("vij,vji->v", tau, adjoint_at(points, tau)))
        return float(np.dot(self.w0, np.maximum(vals, 0.0)))

    def retract(self, points, direction, step):
        new = ss.exp_point(points, step * direction)
        if self.n > 1:
            det = np.linalg.det(new)
            new = new / (np.abs(det) ** (1.0 / self.n))[:, None, None]
        return new


def edge_logs(f):
    """mc_edge values beta_e = mc_edge(f(src), transported f(dst)) per edge."""
    kern = FlowKernel(f.mesh, f.rep)
    beta, _ = kern.edge_data(f.points)
    return beta


def energy(f):
    return FlowKernel(f.mesh, f.rep).energy(f.points)


def tension(f):
    """Tension field tau(v); vanishing tau characterizes harmonicity."""
    _, tau = FlowKernel(f.mesh, f.rep).energy_and_tension(f.points)
    return tau


def tension_norm(f, tau=None):
    kern = FlowKernel(f.mesh, f.rep)
    if tau is None:
        _, tau = kern.energy_and_tension(f.points)
    return float(np.sqrt(kern.tension_norm_sq(f.points, tau)))


# ----------------------------------------------------------------------

@dataclass
class FlowReport:
    energy: float = np.nan
    tension: float = np.nan
    iterations: int = 0
    converged: bool = False
    basepoint_drift: float = 0.0
    reductive_suspected: bool = True
    step_underflow: bool = False
    energy_history: list = field(default_factory=list)
    drift_history: list = field(default_factory=list)

    def to_dict(self):
        return {
            "energy": self.energy, "tension": self.tension,
            "iterations": self.iterations, "converged": self.converged,
            "basepoint_drift": self.basepoint_drift,
            "reductive_suspected": self.reductive_suspected,
            "step_underflow": self.step_underflow,
        }


def flow(rep, f0, *, tol=1e-8, max_iter=20000, drift_radius=50.0,
         history_stride=25, kernel=None):
    """Energy-descent flow with Armijo backtracking.

    Convergence means the weighted tension norm drops below tol with the
    basepoint inside the drift radius.  A run that keeps lowering the energy
    while the basepoint escapes toward infinity (hard radius exit, or a
    steady drift trend at exhaustion) marks the representation as suspected
    non-reductive; the plateau energy is reported either way.
    """
    kern = kernel if kernel is not None else FlowKernel(f0.mesh, rep)
    pts = f0.points.copy()
    eye = np.eye(kern.n, dtype=complex)
    report = FlowReport()
    E, tau = kern.energy_and_tension(pts)
    E0 = E
    step = 0.5 * kern.step_scale
    report.energy_history.append(E)
    for it in range(1, max_iter + 1):
        gsq = kern.tension_norm_sq(pts, tau)
        tnorm = np.sqrt(gsq)
        drift = ss.dist(eye, pts[0])
        report.iterations = it
        report.basepoint_drift = drift
        if it % history_stride == 0 or it == 1:
            report.energy_history.append(E)
            report.drift_history.append(drift)
        if tnorm < tol:
            report.converged = drift <= drift_radius
            if not report.converged:
                report.reductive_suspected = False
            break
        if drift > drift_radius:
            report.reductive_suspected = False
            break
        accepted = False
        if 0.25 * step * gsq < 1e-13 * max(1.0, abs(E)):
            # energy decrements below float resolution: fixed-step polish
            # accepted on tension decrease instead (energy stays within 1e-12)
            cand = kern.retract(pts, tau, step)
            Ec, tauc = kern.energy_and_tension(cand)
            if kern.tension_norm_sq(cand, tauc) <= gsq * (1.0 + 1e-6):
                pts, E, tau = cand, Ec, tauc
                accepted = True
            else:
                step *= 0.5
                accepted = step > 1e-16
            if not accepted:
                report.step_underflow = True
                break
            continue
        while step > 1e-16:
            cand = kern.retract(pts, tau, step)
            Ec, tauc = kern.energy_and_tension(cand)
            if Ec <= E - 0.25 * step * gsq:
                pts, E, tau = cand, Ec, tauc
                step = min(step * 1.4, 1e8)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            report.step_underflow = True
            break
    report.energy = E
    report.tension = float(np.sqrt(kern.tension_norm_sq(pts, tau)))
    report.energy_history.append(E)
    # drift-trend heuristic at exhaustion: energy sinking, basepoint leaving
    if not report.converged and report.reductive_suspected:
        dh = report.drift_history
        if (len(dh) >= 4 and E < 0.25 * max(E0, 1e-300)
                and dh[-1] > dh[len(dh) // 2] + 0.2):
            report.reductive_suspected = False
    return EquivariantMap(f0.mesh, rep, pts), report


def energy_of_rep(rep, mesh, *, tol=1e-8, max_iter=20000, n_starts=2, seed=0,
                  drift_radius=50.0):
    """Energy infimum estimate over flows from several starts."""
    rng = np.random.default_rng(seed)
    kern = FlowKernel(mesh, rep)
    best_E = np.inf
    reductive = True
    best_report = None
    for s in range(n_starts):
        f0 = constant_map(mesh, rep) if s == 0 else random_map(mesh, rep, rng, 0.4)
        _, rep_out = flow(rep, f0, tol=tol, max_iter=max_iter,
                          drift_radius=drift_radius, kernel=kern)
        if rep_out.energy < best_E:
            best_E = rep_out.energy
            best_report = rep_out
        reductive = reductive and rep_out.reductive_suspected
    return best_E, reductive, best_report


def curved_torus_map(mesh, rep, amplitude=0.3, direction=None):
    """Smooth equivariant non-geodesic test map on a torus mesh.

    s(x,y) = exp(xA) exp(yB) exp(a sin(2 pi x) sin(2 pi y) C) with A, B the
    generator logs of a commuting-exponential representation; the periodic
    factor is curvature-generating but equivariance-neutral.  Used for
    refinement studies of the discrete Maurer-Cartan residual.
    """
    if mesh.meta.get("kind") != "torus":
        raise ValueError("curved test map needs a torus mesh")
    if rep.logs is None:
        raise ValueError("curved test map needs an exp-family representation")
    n_, m_ = mesh.meta["n"], mesh.meta["m"]
    A = rep.logs["a"]
    B = rep.logs["b"]
    group = rep.group
    if direction is None:
        nd = group.n
        direction = np.zeros((nd, nd), dtype=complex)
        if nd >= 2:
            direction[0, 1] = 1.0
            direction[1, 0] = 1.0
        else:
            direction[0, 0] = 1j
    C = amplitude * np.asarray(direction, dtype=complex)
    pts = np.empty((mesh.nv, group.n, group.n), dtype=complex)
    for j in range(m_):
        for i in range(n_):
            x, y = i / n_, j / m_
            s = group.exp(x * A) @ group.exp(y * B) \
                @ group.exp(np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * C)
            P = s @ np.conj(s).T
            if group.n > 1:
                P = P / np.abs(np.linalg.det(P)) ** (1.0 / group.n)
            pts[i + n_ * j] = P
    return EquivariantMap(mesh, rep, pts)


def normalize_basepoint(f):
    """Translate the map so that f(v0) = I (compare maps up to centralizer)."""
    g = ss.inv_sqrt_spd(f.points[0])
    pts = ss.act(g, f.points)
    return EquivariantMap(f.mesh, f.rep.conjugate(g), pts)


def map_distance(f, g):
    """Sup over vertices of the pointwise symmetric-space distance."""
    return float(np.max(ss.dist(f.points, g.points)))
