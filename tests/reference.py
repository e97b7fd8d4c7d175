"""Per-token references that the tests compare the library with.

``WordTable`` evaluates many words in lockstep; the functions here evaluate
one word one token at a time, through the group law of rho, the TG product
law of a cocycle and the 2-jet product law (``Jet2``, ``jet2_mul``,
``jet2_inv`` and ``jet2_identity``: the right-trivialized 2-jet group
G x g x g), doing the numpy operations of the table in their order, so that
the two agree to the last bit.
``psh_defect_independent`` solves the conjugate side of the
plurisubharmonicity identity by a second full psi solve, independently of
the companion construction that ``energyvar.psh_defect`` uses.
``fd_energy_derivatives_from_f0`` is the finite-difference oracle with every
sample started from f0, without the continuation predictor.
``critical_scan_per_cocycle`` is the critical scan with one seed and one
harmonic representative per basis cocycle, where ``energyvar.critical_scan``
seeds and solves the whole basis as one block.
``mp_energy_tension`` and ``mp_hessian`` evaluate the SL(2) or SL(3)
energy, its tension field, the tension norm and the Hessian in 50-digit
mpmath arithmetic, from the exact values of the float points and transports;
``mp_edge_logs`` gives the edge logs (the Maurer-Cartan cochain) and the
tension in the vertex frames the same way, for GL(1,C) too.
Every float point is read as a point of det 1, as the flow layer reads it
(for n = 2 P^{-1} = adj P and P^{1/2} = (P + I) / sqrt(tr P + 2); for
n = 3 the smallest eigenvalue of mpmath's ``eighe`` is the reciprocal of the
product of the others).  The energy and the tension field go through the
closed forms of ``symspace`` for n = 2 and through log(S Q S) by ``eighe``
for n = 3, with no SVD, and the tension norm and the Hessian through central
first and second differences of the energy along the geodesics
P -> P^{1/2} e^{2 sum x_k B_k} P^{1/2}, with no polar frame and no Jacobi
field.
``mp_log_dist`` is the distance by mpmath's matrix logarithm, which checks
the closed forms themselves on points of det 1.
``normalize_basepoint`` and ``shifted_pair`` are the transformations of the
uniqueness laws: maps compared up to the centralizer, and second-order pairs
shifted by kernel sections.  ``adjoint_at``, ``inner_at`` and ``norm_at`` are
the fiber metric at a point taken through a LAPACK inverse of the point,
independently of the Cartan split and of the vertex frames of the flow.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
import numpy as np

from equivarlab.deform import second_order
from equivarlab import harmonicflow as hf
from equivarlab.energyvar import (FD_STEPS, FDReport, PshReport, ScanReport,
                                  first_variation, omega_l2sq, second_variation)
from equivarlab import symspace as ss
from equivarlab.liealg import ad_action, p_basis
from equivarlab.meshcover import token_base, token_is_inverse
from equivarlab.repvar import cocycle_space_basis
from equivarlab.twistedhodge import TwistedCochain, _vals


def rho_word(rep, word):
    """rho(word) of a Representation."""
    g = rep.group.identity()
    for tok in word:
        m = rep.images.get(token_base(tok))
        if m is None:
            raise KeyError(f"unknown generator {tok!r}")
        g = g @ (np.linalg.inv(m) if token_is_inverse(tok) else m)
    return g


def _tg_generator(c, tok):
    base = token_base(tok)
    g = c.rep.images[base]
    v = c.values[base]
    if token_is_inverse(tok):
        ginv = np.linalg.inv(g)
        return ginv, -(ginv @ v @ g)
    return g, v


def cocycle_word(c, word):
    """Cocycle extension c(word) through the TG product law."""
    g = c.rep.group.identity()
    out = np.zeros((c.rep.group.n, c.rep.group.n), dtype=complex)
    for tok in word:
        h, d = _tg_generator(c, tok)
        out = out + g @ d @ np.linalg.inv(g)
        g = g @ h
    return out


# ----------------------------------------------------------------------
# second jets of the group: right-trivialized J^2 G = G x g x g

class Jet2(NamedTuple):
    """Right-trivialized 2-jet (g, xi, mu): g_t = (1 + t xi + t^2(mu+xi^2)/2) g."""
    g: np.ndarray
    xi: np.ndarray
    mu: np.ndarray


def jet2_identity(group):
    z = np.zeros((group.n, group.n), dtype=complex)
    return Jet2(group.identity(), z.copy(), z.copy())


def jet2_mul(a, b):
    """(g,xi,mu)(h,eta,nu) = (gh, xi + Ad_g eta, mu + Ad_g nu + [xi, Ad_g eta])."""
    if a.g.shape != b.g.shape:
        raise ValueError("jet2_mul of mismatched groups")
    ad_eta = ad_action(a.g, b.xi)
    # the commutator with @, as WordTable.jets takes it, not liealg.bracket
    return Jet2(a.g @ b.g,
                a.xi + ad_eta,
                a.mu + ad_action(a.g, b.mu) + (a.xi @ ad_eta - ad_eta @ a.xi))


def jet2_inv(a):
    """Inverse solved from the product law: (g^{-1}, -Ad_{g^{-1}} xi, -Ad_{g^{-1}} mu)."""
    ginv = np.linalg.inv(a.g)
    return Jet2(ginv, -(ginv @ a.xi @ a.g), -(ginv @ a.mu @ a.g))


def _jet_generator(jet, tok):
    base = token_base(tok)
    j = Jet2(jet.c.rep.images[base], jet.c.values[base], jet.k[base])
    return jet2_inv(j) if token_is_inverse(tok) else j


def jet_word(jet, word):
    """2-jet value (rho(word), c(word), k(word)) of a Jet2Cocycle."""
    j = Jet2(jet.c.rep.group.identity(),
             np.zeros((jet.c.rep.group.n,) * 2, dtype=complex),
             np.zeros((jet.c.rep.group.n,) * 2, dtype=complex))
    for tok in word:
        j = jet2_mul(j, _jet_generator(jet, tok))
    return j


def psh_defect_independent(ctx, c, k, rel_tol=1e-7):
    """The identity of ``energyvar.psh_defect`` with the conjugate side
    solved independently of the companion construction (a second full
    psi-solve along (ic, -k))."""
    so, _ = second_order(ctx, c, k, rel_tol=rel_tol)
    c_i = c.scaled(1j)
    k_neg = {name: -np.asarray(v) for name, v in k.items()}
    so_i, _ = second_order(ctx, c_i, k_neg, rel_tol=rel_tol)
    s1 = second_variation(ctx, so.psi, so.omega)
    s2 = second_variation(ctx, so_i.psi, so_i.omega)
    osq = omega_l2sq(ctx, so.omega)
    defect = abs(s1 + s2 - osq)
    return PshReport(s1, s2, osq, defect, defect / max(osq, 1e-300))


def critical_scan_per_cocycle(ctx):
    """``energyvar.critical_scan`` one basis cocycle at a time: its seed,
    its harmonic representative and its normalized first variation."""
    basis = cocycle_space_basis(ctx.rep)
    bnorm = np.sqrt(omega_l2sq(ctx, ctx.beta()))
    vals = []
    for c in basis:
        omega, _ = ctx.harmonic_rep(c)
        onorm = np.sqrt(omega_l2sq(ctx, omega))
        vals.append(abs(first_variation(ctx, omega)) / max(onorm * bnorm, 1e-12))
    return ScanReport(max(vals, default=0.0), vals, len(basis))


def fd_energy_derivatives_from_f0(path, mesh, f0, *, tol=1e-10):
    """``energyvar.fd_energy_derivatives`` with each sample re-solved from
    f0, in FD_STEPS order."""
    def energy_at(t):
        rep_t = path.at(t)
        start = hf.EquivariantMap(mesh, rep_t, f0.points.copy())
        return hf.harmonic_map(rep_t, start, tol=tol)[1].energy

    E0 = hf.energy(f0)
    firsts, seconds, table = [], [], []
    for h in FD_STEPS:
        ep, em = energy_at(h), energy_at(-h)
        firsts.append((ep - em) / (2.0 * h))
        seconds.append((ep - 2.0 * E0 + em) / (h * h))
        table.append({"h": h, "first": firsts[-1], "second": seconds[-1]})
    return FDReport((4.0 * firsts[-1] - firsts[-2]) / 3.0,
                    (4.0 * seconds[-1] - seconds[-2]) / 3.0, table)


def adjoint_at(P, X):
    """Metric adjoint X* = P X^† P^{-1} at the point P (stacks broadcast)."""
    P = np.asarray(P, dtype=complex)
    return P @ np.conj(np.swapaxes(X, -1, -2)) @ np.linalg.inv(P)


def inner_at(P, X, Y):
    """Fiber metric <X,Y>_P = Re tr(X (P Y^† P^{-1}))."""
    return float(np.real(np.trace(np.asarray(X) @ adjoint_at(P, Y))))


def norm_at(P, X):
    return float(np.sqrt(max(inner_at(P, X, X), 0.0)))


def normalize_basepoint(f):
    """Translate the map so that f(v0) = I (compare maps up to centralizer)."""
    g = ss.roots(f.points[0])[1]
    pts = ss.act(g, f.points)
    return hf.EquivariantMap(f.mesh, f.rep.conjugate(g), pts)


def shifted_pair(F, F2, xi_kernel, eta_kernel):
    """(F', F2') = (F + xi, F2 + [F, xi] + eta) for kernel sections xi, eta."""
    xiv = _vals(xi_kernel)
    etav = _vals(eta_kernel)
    Fv = _vals(F)
    return (TwistedCochain(0, Fv + xiv),
            TwistedCochain(0, _vals(F2) + (Fv @ xiv - xiv @ Fv) + etav))


# ----------------------------------------------------------------------
# 50-digit SL(2) and SL(3) oracle

MP_DPS = 50


def _digits(kern, points):
    """MP_DPS, and for n >= 3, whose log(S Q S) goes through eighe, twice
    the decades of the largest cond(P) on top: the eigenvalues of S Q S
    span about cond(P)^2 (70 decades from diag(e^40, e^-40, 1)), and the
    eigenvector of the smallest needs them all."""
    if kern.n == 2:
        return MP_DPS
    return MP_DPS + 2 * int(np.ceil(np.log10(np.linalg.cond(points).max())))


def _mp(A):
    """mpmath matrix of the exact values of an n x n float array."""
    n = len(A)
    return mpmath.matrix([[mpmath.mpc(complex(A[i, j])) for j in range(n)]
                          for i in range(n)])


def _mp_ct(A):
    return A.transpose_conj()


def _mp_adj(A):
    return mpmath.matrix([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])


def _mp_spectral(V, vals):
    """V diag(vals) V^†."""
    return V * mpmath.diag(vals) * _mp_ct(V)


def _mp_eigh(P):
    """Eigenvalues (a list) and eigenvectors of the Hermitian part of P."""
    E, V = mpmath.eighe((P + _mp_ct(P)) / 2)
    return [mpmath.re(x) for x in E], V


def _mp_unit(P):
    """Eigenvalues and eigenvectors of a point of det 1 as the flow reads it
    for n >= 3: its smallest eigenvalue is the reciprocal of the product of
    the others."""
    w, V = _mp_eigh(P)
    if len(w) > 1:      # a GL(1,C) point keeps its value
        k = min(range(len(w)), key=lambda i: w[i])
        w[k] = 1 / mpmath.fprod(w[:k] + w[k + 1:])
    return w, V


def _mp_point(P):
    """The float point P at MP_DPS digits, as the flow reads it: for n = 2
    its exact values (the closed forms read them as a point of det 1),
    otherwise rebuilt from _mp_unit."""
    Pm = _mp(P)
    if len(P) == 2:
        return Pm
    w, V = _mp_unit(Pm)
    return _mp_spectral(V, w)


def _mp_root(P):
    """P^{1/2} of a point read as det 1: (P + I) / sqrt(tr P + 2) for n = 2,
    otherwise from _mp_unit."""
    if P.rows == 2:
        return (P + mpmath.eye(2)) / mpmath.sqrt(mpmath.re(P[0, 0] + P[1, 1]) + 2)
    w, V = _mp_unit(P)
    return _mp_spectral(V, [mpmath.sqrt(x) for x in w])


def _mp_edge(P, Q):
    """(d^2 / 2, 2 mc_edge(P, Q)) of Hermitian mp points.  For n = 2 from N,
    the traceless part of Q adj(P), and l with sinh l = sqrt(-det N):
    (l^2, (l / sinh l) N).  Otherwise from L = log(S Q S), S = P^{-1/2}:
    (|L|^2 / 2, R L S)."""
    if P.rows == 2:
        M = Q * _mp_adj(P)
        a = (M[0, 0] - M[1, 1]) / 2
        N = mpmath.matrix([[a, M[0, 1]], [M[1, 0], -a]])
        q = mpmath.re(a * a + M[0, 1] * M[1, 0])
        ell = mpmath.asinh(mpmath.sqrt(max(q, mpmath.mpf(0))))
        return ell ** 2, (ell / mpmath.sinh(ell) if ell else mpmath.mpf(1)) * N
    R = _mp_root(P)
    S = mpmath.inverse(R)
    w, V = _mp_eigh(S * Q * S)
    logs = [mpmath.log(x) for x in w]
    return sum(x * x for x in logs) / 2, R * _mp_spectral(V, logs) * S


def _mp_transports(kern):
    g = [_mp(kern.g[e]) for e in range(len(kern.src))]
    return g, [mpmath.inverse(x) for x in g]


def _mp_energy(kern, pts, g):
    E = mpmath.mpf(0)
    for e, (s, d) in enumerate(zip(kern.src, kern.dst)):
        Q = g[e] * pts[d] * _mp_ct(g[e])
        E += mpmath.mpf(kern.w1[e]) * _mp_edge(pts[s], (Q + _mp_ct(Q)) / 2)[0]
    return E


def _floats(Ts, n):
    return np.array([[[complex(T[i, j]) for j in range(n)] for i in range(n)]
                     for T in Ts])


def _mp_fields(kern, pts, g, ginv):
    """(tension field, tension in the vertex frames, edge logs in the source
    frames) of mp points: the tension sums 2 w1 mc_edge(P_src, Q) at the
    source and minus its transport back at the far end; a frame value is
    S x R, S = R^{-1} and R the root of the point."""
    n = kern.n
    roots = [_mp_root(P) for P in pts]
    tau = [mpmath.zeros(n, n) for _ in pts]
    beta = []
    for e, (s, d) in enumerate(zip(kern.src, kern.dst)):
        Q = g[e] * pts[d] * _mp_ct(g[e])
        fwd = _mp_edge(pts[s], (Q + _mp_ct(Q)) / 2)[1]
        beta.append(mpmath.inverse(roots[s]) * fwd * roots[s] / 2)
        fwd = mpmath.mpf(kern.w1[e]) * fwd
        tau[s] += fwd
        tau[d] -= ginv[e] * fwd * g[e]
    return tau, [mpmath.inverse(R) * T * R for R, T in zip(roots, tau)], beta


def mp_energy_tension(kern, points):
    """(energy, tension field, tension norm^2, tension in the vertex frames)
    of an SL(2) or SL(3) map at _digits, as floats.  The norm^2 is
    sum_v w0 ||S tau R||_F^2, whose vertex terms are the p-coordinates -g/2
    of the gradient g of ``mp_gradient``; the last is S tau R per vertex,
    S = R^{-1} and R the root of the point."""
    n = kern.n
    with mpmath.workdps(_digits(kern, points)):
        pts = [_mp_point(P) for P in points]
        g, ginv = _mp_transports(kern)
        tau, frame, _ = _mp_fields(kern, pts, g, ginv)
        E = _mp_energy(kern, pts, g)
    t = -0.5 * mp_gradient(kern, points).reshape(len(points), -1)
    return (float(E), _floats(tau, n), float(np.dot(kern.w0, np.sum(t * t, axis=1))),
            _floats(frame, n))


def mp_edge_logs(kern, points):
    """(edge logs, tension) of an SL(2), SL(3) or GL(1,C) map at _digits, as
    floats, in the vertex frames: per edge mc_edge(P_src, Q) =
    (1/2) log(Q P_src^{-1}) at the source, S_src beta R_src, and per vertex
    the tension of ``mp_energy_tension`` in its frame."""
    with mpmath.workdps(_digits(kern, points)):
        pts = [_mp_point(P) for P in points]
        _, frame, beta = _mp_fields(kern, pts, *_mp_transports(kern))
    return _floats(beta, kern.n), _floats(frame, kern.n)


def _mp_exph(Y):
    """e^Y of a Hermitian traceless matrix: for n = 2 cosh(s) I + sinh(s)/s Y,
    s^2 = -det Y; otherwise from its eigendecomposition."""
    if Y.rows != 2:
        w, V = _mp_eigh(Y)
        return _mp_spectral(V, [mpmath.exp(x) for x in w])
    s = mpmath.sqrt(-(Y[0, 0] * Y[1, 1] - Y[0, 1] * Y[1, 0]))
    c = mpmath.sinh(s) / s if s else mpmath.mpf(1)
    return mpmath.cosh(s) * mpmath.eye(2) + c * Y


def _mp_geodesic_energy(kern, points):
    """F(shift) = energy at P_v -> R_v e^{2 sum_k x_vk B_k} R_v, x the sparse
    {dof: value} shift in vertex-major p-coordinates, at MP_DPS digits."""
    B = p_basis(kern.rep.group)
    dp = len(B)
    g, _ = _mp_transports(kern)
    Bm = [_mp(b) for b in B]
    roots = []
    for P in points:
        Pm = _mp(P)
        roots.append(_mp_root((Pm + _mp_ct(Pm)) / 2))

    def F(shift):
        pts = []
        for v, R in enumerate(roots):
            X = mpmath.zeros(kern.n, kern.n)
            for k in range(dp):
                X += 2 * shift.get(v * dp + k, 0) * Bm[k]
            pts.append(R * _mp_exph(X) * R)
        return _mp_energy(kern, pts, g)
    return F, len(points) * dp


def mp_gradient(kern, points, h=1e-20):
    """Gradient of the energy in orthonormal p-coordinates along the same
    geodesics as ``mp_hessian``, by central differences at _digits."""
    with mpmath.workdps(_digits(kern, points)):
        F, n = _mp_geodesic_energy(kern, points)
        h = mpmath.mpf(h)
        return np.array([float((F({i: h}) - F({i: -h})) / (2 * h)) for i in range(n)])


def mp_hessian(kern, points, h=1e-12):
    """Hessian of the energy in orthonormal p-coordinates (vertex-major, as
    ``MapEval.hessian``) by MP_DPS-digit central differences along
    P_v -> R_v e^{2 sum_k x_vk B_k} R_v, R_v the root of the exactly
    hermitized float point."""
    with mpmath.workdps(MP_DPS):
        F, n = _mp_geodesic_energy(kern, points)
        h = mpmath.mpf(h)

        E0 = F({})
        H = np.empty((n, n))
        for i in range(n):
            H[i, i] = float((F({i: h}) - 2 * E0 + F({i: -h})) / h ** 2)
            for j in range(i):
                val = (F({i: h, j: h}) - F({i: h, j: -h}) - F({i: -h, j: h})
                       + F({i: -h, j: -h})) / (4 * h * h)
                H[i, j] = H[j, i] = float(val)
        return H


def mp_log_dist(P, Q):
    """||log(P^{-1/2} Q P^{-1/2})||_F at MP_DPS digits, by mpmath's sqrtm
    and logm."""
    with mpmath.workdps(MP_DPS):
        Pm, Qm = (_mp(x) for x in (P, Q))
        S = mpmath.inverse(mpmath.sqrtm(Pm))
        L = mpmath.logm(S * Qm * S)
        return float(mpmath.sqrt(sum(abs(L[i, j]) ** 2 for i in range(2)
                                     for j in range(2))))
