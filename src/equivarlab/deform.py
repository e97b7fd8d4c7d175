"""First- and second-order deformation pipelines.

First order: the harmonic representative omega of a cocycle class and its
equivariant primitive F give the tangent field v = F^[p].  Second order: a
valid jet (c, k) seeds a closed jet 1-cochain (omega, omega2^0); the 1-form

    psi = omega2^0 - [F^0, omega] + d eta,   J(eta) = -omega* -| omega - d* psi0

solves  d psi = -[omega, omega]  and  d* psi = -omega* -| omega  exactly when
the contraction omega* -| omega is orthogonal to the kernel fields; the
kernel component is the obstruction defect with its projection direction as
witness.  The pair (F, F2) is completed by a second twisted-primitive solve.

The transports go through ``liealg.mul``, the brackets through ``bracket``,
and every Cartan split passes a cached inverse to ``cartan_project``: the
point inverses of the complex, or the far-lift metric of the labeled-edge
check, inverted once for its five splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liealg import bracket, cartan_project, ct, inv, mul
from .repvar import Jet2Cocycle
from .twistedhodge import TwistedCochain, _vals


class ObstructedDeformationError(RuntimeError):
    """Second-order deformation refused: carries the ObstructionReport."""

    def __init__(self, report):
        super().__init__(
            f"obstructed: kernel component of omega* -| omega has norm "
            f"{report.defect:.3e} (|omega|^2 = {report.scale:.3e})")
        self.report = report


@dataclass
class ObstructionReport:
    orthogonal: bool
    defect: float
    scale: float
    witness: TwistedCochain | None     # not in to_dict
    contraction: TwistedCochain     # omega* -| omega; not in to_dict

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if k not in ("witness", "contraction")}


@dataclass
class FirstOrderDeformation:
    omega: TwistedCochain
    F: TwistedCochain
    v: np.ndarray
    residuals: dict = field(default_factory=dict)


@dataclass
class PsiSolution:
    omega: TwistedCochain
    F0: TwistedCochain
    omega2: TwistedCochain
    psi: TwistedCochain
    obstruction: ObstructionReport
    edge_jets: tuple        # (c(w_e), k(w_e)) from _edge_jets
    residuals: dict = field(default_factory=dict)


@dataclass
class SecondOrderDeformation:
    F: TwistedCochain
    F2: TwistedCochain
    psi: TwistedCochain
    v: np.ndarray
    w_beta: np.ndarray
    omega: TwistedCochain
    contraction: TwistedCochain     # omega* -| omega
    residuals: dict = field(default_factory=dict)


# ----------------------------------------------------------------------

def _edge_jets(ctx, c, k):
    """Stacked (c(w_e), k(w_e)) over the edges from the word table of the
    complex (after validating the jet); zero on unlabeled edges."""
    jet = Jet2Cocycle(c, k)
    words, idx = ctx.words, ctx.word_index.edge_word
    cw, kw = words.jets(words.stack(c.values), words.stack(jet.k))
    return cw[idx], kw[idx]


def _transport(ctx, vals):
    """Ad_{rho(w_e)} of per-vertex values at the edge targets."""
    return mul(mul(ctx.kern.g, vals[ctx.kern.dst]), ctx.kern.ginv)


def _jet_transport(cw, kw, A, B):
    """(F, F2) carried across edges by the jet (c(w_e), k(w_e)): (A + c,
    B + [c, A] + k), with A, B the transports of F, F2 at the edge targets."""
    return A + cw, B + bracket(cw, A) + kw


def _tangents(P, Pinv, F, F2):
    """Tangent fields (v, w) = (F^[p], F2^[p] + [F^[k], F^[p]]) of a pair
    (F, F2), split at the points P with inverses Pinv."""
    Fk, Fp = cartan_project(P, F, Pinv)
    _, F2p = cartan_project(P, F2, Pinv)
    return Fp, F2p + bracket(Fk, Fp)


def _omega_residuals(ctx, omega):
    """Norms of d omega and d* omega, which vanish for a harmonic omega."""
    return {"d_omega": ctx.norm(ctx.d(omega), 2),
            "dstar_omega": ctx.norm(ctx.codiff(omega), 0)}


def _psi_residuals(ctx, psi, omega, contraction):
    """Norms of d psi + [omega, omega] and d* psi + contraction, with the
    contraction omega* -| omega; both vanish when psi solves its equations."""
    return {"d_psi_plus_wedge": ctx.norm(TwistedCochain(
                2, ctx.d(psi).values + ctx.bracket_wedge(omega, omega).values), 2),
            "dstar_psi_plus_contract": ctx.norm(
                TwistedCochain(0, ctx.codiff(psi).values + contraction.values), 0)}


def first_order(ctx, c):
    """Harmonic first-order deformation data for the cocycle c."""
    seed = ctx.seed_cochain(c)
    omega, _ = ctx.harmonic_rep(seed)
    F, defect = ctx.primitive(omega, seed)
    _, v = cartan_project(ctx.points, F.values, ctx.points_inv)
    residuals = {
        "equivariance": defect,
        **_omega_residuals(ctx, omega),
        # J F = d* (omega - seed(c)) = -d* seed(c), through the primitive
        "jacobi_F": ctx.norm(ctx.codiff(ctx.d(F)).values + ctx.codiff(seed).values, 0),
    }
    return FirstOrderDeformation(omega, F, v, residuals)


def obstruction_check(ctx, omega, rel_tol=1e-7):
    """Is omega* -| omega orthogonal to the kernel fields?

    The defect is the weighted norm of the kernel projection, compared
    against rel_tol * ||omega||^2; the witness is the projection direction.
    The report carries the contraction, so that the psi solve reuses it.
    """
    q = ctx.contract_star(omega, omega)
    flat = ctx.to_flat(q.values)
    proj = ctx.kernel_project_flat(flat)
    defect = ctx.flat_norm(proj, 0)
    scale = max(ctx.inner(omega, omega, 1), 1e-300)
    # absolute floor keeps near-zero omega from flipping on float noise
    threshold = rel_tol * scale + 1e-12 * (1.0 + scale)
    witness = None
    if defect > 0:     # then proj, and so wit, is nonzero
        wit = ctx.from_flat(proj)
        witness = TwistedCochain(0, wit / np.abs(wit).max())
    return ObstructionReport(defect <= threshold, defect, scale, witness, q)


def solve_psi(ctx, c, k, *, rel_tol=1e-7, require_unobstructed=True):
    """Solve  d psi = -[omega, omega],  d* psi = -omega* -| omega.

    Follows the constructive route: omega2^0 from the (c,k)-seeded jet
    cochain, psi0 = omega2^0 - [F^0, omega], then a kernel-deflated Jacobi
    solve for eta and psi = psi0 + d eta.  The seed is read from the edge
    jets, so the word table makes one pass.
    """
    edge_jets = _edge_jets(ctx, c, k)
    seed = TwistedCochain(1, edge_jets[0])
    omega, xi = ctx.harmonic_rep(seed)
    F0, equiv_defect = ctx.primitive(omega, seed)
    obstruction = obstruction_check(ctx, omega, rel_tol)
    if require_unobstructed and not obstruction.orthogonal:
        raise ObstructedDeformationError(obstruction)

    # omega2^0 = k - [c, Ad_w xi(dst)]: the seed gauge-fixed by xi
    _, omega2_0 = _jet_transport(*edge_jets, -_transport(ctx, xi.values), 0.0)
    # omega2^0 - [F0, omega] = omega2^0 + [omega, F0]
    psi0 = TwistedCochain(1, omega2_0 + ctx.bracket_section(omega, F0).values)
    contr = obstruction.contraction
    rhs = TwistedCochain(0, -contr.values - ctx.codiff(psi0).values)
    eta = ctx.solve_jacobi(rhs)
    d_eta = ctx.d(eta)
    psi = TwistedCochain(1, psi0.values + d_eta.values)
    omega2 = TwistedCochain(1, omega2_0 + d_eta.values)
    residuals = {**_psi_residuals(ctx, psi, omega, contr),
                 "equivariance_F0": equiv_defect}
    return PsiSolution(omega, F0, omega2, psi, obstruction, edge_jets,
                       residuals)


def second_order(ctx, c, k, *, rel_tol=1e-7):
    """Equivariant pair (F, F2) of harmonic type and its tangent data.

    Raises ObstructedDeformationError when the contraction defect blocks the
    psi equations (the structured refusal carries the witness direction).
    """
    sol = solve_psi(ctx, c, k, rel_tol=rel_tol)
    omega, omega2, F0 = sol.omega, sol.omega2, sol.F0

    # second component: Ad_w F2(v) - F2(u) = omega2 - k - [c, Ad_w F0(v)]
    cw, kw = sol.edge_jets
    adF = _transport(ctx, F0.values)
    target = omega2.values - _jet_transport(cw, kw, adF, 0.0)[1]
    F2, defect2 = ctx._primitive_flat(ctx.to_flat(target))
    v, w_beta = _tangents(ctx.points, ctx.points_inv, F0.values, F2.values)

    residuals = dict(sol.residuals)
    residuals["equivariance_F2"] = defect2
    residuals["w_projection"] = _w_equivariance_residual(ctx, cw, kw, adF, F2, w_beta)
    so = SecondOrderDeformation(F0, F2, sol.psi, v, w_beta, omega,
                                sol.obstruction.contraction, residuals)
    return so, sol


def _w_equivariance_residual(ctx, cw, kw, adF, F2, w_beta):
    """Pointwise check of the labeled-edge transformation rule for the
    second-order tangent field (commuting-diagram projection); adF = Ad_w F."""
    lab = np.flatnonzero([bool(e.label) for e in ctx.mesh.edges])
    g = ctx.kern.g[lab]
    cw, kw = cw[lab], kw[lab]
    # metric at the far lift, inverted once for its five Cartan splits
    Q = mul(mul(g, ctx.points[ctx.kern.dst[lab]]), ct(g))
    Qinv = inv(Q)
    A = adF[lab]
    ck, cp = cartan_project(Q, cw, Qinv)
    _, Ap = cartan_project(Q, A, Qinv)
    _, kp = cartan_project(Q, kw, Qinv)
    lhs = _transport(ctx, w_beta)[lab] + kp \
        + 2.0 * bracket(ck, Ap) + bracket(ck, cp)
    _, rhs = _tangents(Q, Qinv, *_jet_transport(cw, kw, A, _transport(ctx, F2.values)[lab]))
    return float(np.abs(lhs - rhs).max(initial=0.0))


# ----------------------------------------------------------------------
# the companion pair of the complex-symmetry law, and the residuals of a pair

def companion_pair(ctx, so):
    """Companion (iF, -F2 - eta) with J(eta) = 2 omega* -| omega, valid along
    the jet (i c, -k) for complex groups."""
    if not ctx.group.is_complex:
        raise ValueError("companion pair needs a complex group")
    eta = ctx.solve_jacobi(TwistedCochain(0, 2.0 * so.contraction.values))
    F_t = TwistedCochain(0, 1j * so.F.values)
    F2_t = TwistedCochain(0, -so.F2.values - eta.values)
    psi_t = TwistedCochain(1, -so.psi.values - ctx.d(eta).values)
    return F_t, F2_t, psi_t, eta


def validate_pair(ctx, c, k, F, F2, psi_expected=None):
    """Residuals of an explicit pair (F, F2) against the defining relations.

    Reconstructs omega, omega2 and psi from the pair and checks harmonic-type
    and equivariance equations.
    """
    Fv, F2v = _vals(F), _vals(F2)
    Ft, F2t = _jet_transport(*_edge_jets(ctx, c, k),
                             _transport(ctx, Fv), _transport(ctx, F2v))
    src = ctx.kern.src
    om = TwistedCochain(1, Ft - Fv[src])
    # psi = omega2 - [F, omega] = omega2 + [omega, F], omega2 = F2t - F2(src)
    psi = TwistedCochain(1, F2t - F2v[src]
                         + ctx.bracket_section(om, TwistedCochain(0, Fv)).values)
    res = {**_omega_residuals(ctx, om),
           **_psi_residuals(ctx, psi, om, ctx.contract_star(om, om))}
    if psi_expected is not None:
        res["psi_match"] = float(np.abs(psi.values - _vals(psi_expected)).max())
    return res, om, psi
