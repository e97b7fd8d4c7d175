"""First and second variation of the energy, with finite-difference oracles.

With the half-log edge convention (mc_edge = log(QP^{-1})/2, so the edge
displacement is twice the mc norm) the derivatives of the discrete energy
along a representation path carry one model constant:

    dE/dt   = 4 sum_e w1 <omega_e, beta_e>
    d2E/dt2 ~ 4 sum_e w1 ( <psi_e, beta_e> + ||omega_e^[p]||^2 )

which is the L2 pairing of mc-normalized cochains rescaled by 4.  The second
is a consistent approximation, not the exact discrete value: it misses the
finite differences by 2.07e-2 (relative) on genus-2 k = 2 along real
bending, a gap that falls at second order in the mesh size.  Analytic values
are checked against central finite differences of re-solved harmonic maps
with Richardson extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import harmonicflow as hf
from . import symspace as ss
from .deform import companion_pair, second_order, solve_psi
from .liealg import cartan_project
from .repvar import cocycle_space_basis
from .twistedhodge import TwistedCochain, _vals

#: pairing scale from the mc_edge normalization (displacement = 2 mc values)
EDGE_PAIRING_SCALE = 4.0


def first_variation(ctx, omega):
    """dE/dt along the harmonic direction omega at the harmonic metric."""
    return EDGE_PAIRING_SCALE * ctx.inner(omega, ctx.beta(), 1)


def second_variation(ctx, psi, omega):
    """d2E/dt2 from the psi 1-form and the p-part of omega."""
    _, om_p = cartan_project(ctx.edge_points, _vals(omega),
                             ctx.edge_points_inv)
    pairing = ctx.inner(psi, ctx.beta(), 1)
    return EDGE_PAIRING_SCALE * (pairing + ctx.inner(om_p, om_p, 1))


def omega_l2sq(ctx, omega):
    """Squared L2 norm of a 1-cochain in the energy normalization."""
    return EDGE_PAIRING_SCALE * ctx.inner(omega, omega, 1)


# ----------------------------------------------------------------------

@dataclass
class PshReport:
    secvar: float
    secvar_conj: float
    omega_sq: float
    defect: float
    relative: float
    residuals: dict = field(default_factory=dict)     # not in to_dict

    def to_dict(self):
        return {k: v for k, v in vars(self).items() if k != "residuals"}


def psh_defect(ctx, c, k, rel_tol=1e-7):
    """| d2E(c) + d2E(ic) - ||omega||^2 |, the potential identity defect.

    The conjugate direction uses the companion construction
    (iF, -F2 - eta) with J(eta) = 2 omega* -| omega along (ic, -k).  The
    identity is not a check on psi: the psi pairings of the two sides cancel
    at a harmonic map; the d_psi_plus_wedge residual checks psi.
    """
    if not ctx.group.is_complex:
        raise ValueError("plurisubharmonicity defect needs a complex group")
    so, sol = second_order(ctx, c, k, rel_tol=rel_tol)
    _, _, psi_t, _ = companion_pair(ctx, so)
    omega_i = TwistedCochain(1, 1j * so.omega.values)
    s1 = second_variation(ctx, so.psi, so.omega)
    s2 = second_variation(ctx, psi_t, omega_i)
    osq = omega_l2sq(ctx, so.omega)
    defect = abs(s1 + s2 - osq)
    return PshReport(s1, s2, osq, defect, defect / max(osq, 1e-300),
                     dict(so.residuals))


# ----------------------------------------------------------------------

@dataclass
class ScanReport:
    max_normalized: float
    per_direction: list
    basis_size: int

    def to_dict(self):
        return dict(vars(self))


def critical_scan(ctx):
    """max over cocycle directions of |dE/dt| / (||omega|| ||beta||).

    Vanishing scan value characterizes critical points of the energy on the
    representation variety.  The basis cocycles are seeded in one pass of
    the word table and their harmonic representatives solved as one block.
    """
    basis = cocycle_space_basis(ctx.rep)
    words = ctx.words
    seeds = words.values(np.stack([words.stack(c.values) for c in basis]))
    edge_seeds = seeds[:, ctx.word_index.edge_word]
    a = ctx.group.to_coords(edge_seeds).reshape(len(basis), -1).T    # a seed per column
    omega = a - ctx._exact(a)[1]
    G1, b = ctx.gram(1), ctx.to_flat(ctx.beta().values)
    bnorm = np.sqrt(EDGE_PAIRING_SCALE * (b @ (G1 @ b)))
    onorm = np.sqrt(EDGE_PAIRING_SCALE * np.einsum("im,im->m", omega, G1 @ omega))
    fv = EDGE_PAIRING_SCALE * ((G1 @ b) @ omega)
    vals = np.abs(fv) / np.maximum(onorm * bnorm, 1e-12)
    return ScanReport(float(vals.max()), vals.tolist(), len(basis))


# ----------------------------------------------------------------------
# finite-difference oracles along representation paths

@dataclass
class FDReport:
    first: float
    second: float
    table: list


#: central-difference steps; Richardson extrapolation combines the last two
FD_STEPS = (1e-2, 5e-3, 2.5e-3)
#: iteration cap of each re-solved harmonic map
FD_MAX_ITER = 60000
#: first variations at most this fraction of the Cauchy-Schwarz bound
#: 4 ||omega|| ||beta|| are rounding noise (the scale of critical_scan)
FIRST_FLOOR = 1e-9


def _lagrange_at(t, nodes):
    """Value at t of the Lagrange polynomial through (0, 0) and the
    (t_j, X_j) of nodes."""
    ts = [0.0] + [tj for tj, _ in nodes]
    out = 0.0
    for j, (tj, X) in enumerate(nodes, start=1):
        weight = 1.0
        for m, tm in enumerate(ts):
            if m != j:
                weight *= (t - tm) / (tj - tm)
        out = out + weight * X
    return out


def fd_energy_derivatives(path, mesh, *, tol=1e-10, f0=None, E0=None):
    """Central finite differences of t -> E(rho_t) with Richardson
    extrapolation; each sample re-solves the harmonic map.

    Without f0 the harmonic map of rho_0 is solved from the constant map and
    E0 is read from its flow report; a caller that passes f0 may pass its
    energy E0 too, which otherwise is evaluated once more.

    The samples are solved in order of increasing |t| and warm started by
    continuation: every solved f_t is kept in log coordinates at f0,
    X_t = mc_edge(f0, f_t), and a new sample starts from
    exp_point(f0, X(t)), with X the Lagrange polynomial through X(0) = 0
    and the (at most two) solved samples nearest t.  The predictor reads
    only earlier samples; Newton corrects it to the same tolerance.
    """
    rep0 = path.rep0
    if f0 is None:
        f0, rpt0 = hf.flow(rep0, hf.constant_map(mesh, rep0), tol=tol,
                           max_iter=FD_MAX_ITER)
        E0 = rpt0.energy
    elif E0 is None:
        E0 = hf.energy(f0)
    energies = {}
    logs = []                   # (t, X_t) of the solved samples
    for t in sorted((s * h for h in FD_STEPS for s in (1.0, -1.0)), key=abs):
        nearest = sorted(logs, key=lambda node: abs(t - node[0]))[:2]
        if nearest:
            start = hf.retract(f0.points, _lagrange_at(t, nearest))
        else:
            start = f0.points.copy()
        rep_t = path.at(t)
        f_t, rpt = hf.flow(rep_t, hf.EquivariantMap(mesh, rep_t, start),
                           tol=tol, max_iter=FD_MAX_ITER)
        energies[t] = rpt.energy
        logs.append((t, ss.mc_edge(f0.points, f_t.points)))

    table = [{"h": h, "first": (energies[h] - energies[-h]) / (2.0 * h),
              "second": (energies[h] - 2.0 * E0 + energies[-h]) / (h * h)}
             for h in FD_STEPS]
    # Richardson on the last pair (central differences are O(h^2))
    coarse, fine = table[-2:]
    first, second = ((4.0 * fine[key] - coarse[key]) / 3.0 for key in ("first", "second"))
    return FDReport(first, second, table)


def variation_report(ctx, path, *, rel_tol=1e-7):
    """Analytic versus finite-difference variations along one path at the
    harmonic map of the complex.

    When both first variations sit below FIRST_FLOOR times the
    Cauchy-Schwarz bound 4 ||omega|| ||beta|| (a critical path), their
    ratio measures rounding noise: ``first_rel_err`` is then None and
    ``first_floor_limited`` is True."""
    c, k = path.jets()
    sol = solve_psi(ctx, c, k, rel_tol=rel_tol)
    analytic1 = first_variation(ctx, sol.omega)
    analytic2 = second_variation(ctx, sol.psi, sol.omega)
    omega_sq = omega_l2sq(ctx, sol.omega)
    f0 = hf.EquivariantMap(ctx.mesh, ctx.rep, ctx.points.copy())
    fd = fd_energy_derivatives(path, ctx.mesh, f0=f0, E0=ctx.map_eval.energy)
    floor = FIRST_FLOOR * np.sqrt(omega_sq * omega_l2sq(ctx, ctx.beta()))
    if max(abs(analytic1), abs(fd.first)) <= floor:
        first = {"first_rel_err": None, "first_floor_limited": True}
    else:
        first = {"first_rel_err": abs(analytic1 - fd.first) / max(abs(analytic1), 1e-12)}
    return {
        "analytic_first": analytic1,
        "omega_sq": omega_sq,
        "analytic_second": analytic2,
        "psi_residuals": sol.residuals,
        "fd_first": fd.first,
        "fd_second": fd.second,
        "fd_table": fd.table,
        **first,
        "second_rel_err": abs(analytic2 - fd.second) / max(abs(analytic2), 1e-12),
    }
