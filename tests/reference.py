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
``normalize_basepoint`` and ``shifted_pair`` are the transformations of the
uniqueness laws: maps compared up to the centralizer, and second-order pairs
shifted by kernel sections.  ``adjoint_at``, ``inner_at`` and ``norm_at`` are
the fiber metric at a point taken through a LAPACK inverse of the point,
independently of the Cartan split and of the vertex frames of the flow.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from equivarlab.deform import second_order
from equivarlab import harmonicflow as hf
from equivarlab.energyvar import (FD_MAX_ITER, FD_STEPS, FDReport, PshReport,
                                  ScanReport, first_variation, omega_l2sq,
                                  second_variation)
from equivarlab import symspace as ss
from equivarlab.liealg import ad_action
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
        return hf.flow(rep_t, start, tol=tol, max_iter=FD_MAX_ITER)[1].energy

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
    g = ss.point_frame(f.points[0])[2]
    pts = ss.act(g, f.points)
    return hf.EquivariantMap(f.mesh, f.rep.conjugate(g), pts)


def shifted_pair(F, F2, xi_kernel, eta_kernel):
    """(F', F2') = (F + xi, F2 + [F, xi] + eta) for kernel sections xi, eta."""
    xiv = _vals(xi_kernel)
    etav = _vals(eta_kernel)
    Fv = _vals(F)
    return (TwistedCochain(0, Fv + xiv),
            TwistedCochain(0, _vals(F2) + (Fv @ xiv - xiv @ Fv) + etav))
