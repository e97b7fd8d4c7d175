"""Geometry of N = G/K in the positive-definite matrix model.

Points are SPD (resp. Hermitian positive definite) matrices with det 1 for
SL-type groups; for GL(1,C) they are 1x1 positive reals.  The group acts by
P -> g P g^†.  Edge logarithms follow the exact-transport convention

    mc_edge(P,Q) = (1/2) log(Q P^{-1}),

which is selfadjoint at P and satisfies exp_point(P, mc_edge(P,Q)) = Q.
With this normalization ||mc_edge(P,Q)||_P = dist(P,Q)/2.

The geometry routines (act, dist, geodesic, exp_point, mc_edge and the
spectral functions) broadcast over leading axes: a single point is a stack
of one, and a stack gives bit for bit the values of the per-point calls.

The frame routines split one evaluation into its eigendecompositions, so
that a caller pays for each once: point_frame gives the floored eigenvalues
w, the eigenvectors U and S = P^{-1/2} of P; log_frame gives the
log-eigenvalues and eigenvectors of S Q S; mc_from_frame builds mc_edge(P, Q)
from both, and origin_dist reads dist(I, P) from w.  The heat flow in
harmonicflow runs on them.

act, log_frame, mc_from_frame and exp_point multiply through liealg.mul,
which computes a 2 x 2 block by broadcast arithmetic instead of one BLAS call
per block; the eigendecompositions are numpy's eigh.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .liealg import mul

#: ||mc_edge(P,Q)||_P / dist(P,Q); fixed by the half-log normalization.
MC_EDGE_NORM_RATIO = 0.5

_EIG_FLOOR = 1e-14

#: distance from I within which translation_length's minimizer counts
ATTAINED_RADIUS = 50.0

_EYE2 = np.eye(2, dtype=complex)


def _ct(M):
    return M.conj().swapaxes(-1, -2)


def _hermitize(M):
    return 0.5 * (M + _ct(M))


def _eigh(P):
    w, U = np.linalg.eigh(P)
    return np.maximum(w, _EIG_FLOOR), U


def _spectral(U, vals):
    """U diag(vals) U^† over a stack."""
    return np.einsum("...ij,...j,...kj->...ik", U, vals, np.conj(U))


def _log_norm(logw):
    # vecdot, not a sum of squares: it equals np.linalg.norm bit for bit
    return np.sqrt(np.vecdot(logw, logw))


def point_frame(P):
    """Floored eigenvalues w, eigenvectors U and S = P^{-1/2} from one
    eigendecomposition of P."""
    w, U = _eigh(P)
    return w, U, _spectral(U, 1.0 / np.sqrt(w))


def inv_sqrt_spd(P):
    return point_frame(P)[2]


def origin_dist(P, w):
    """dist(I, P), read from the floored eigenvalues w of P.

    eigh reads one triangle of P, while dist hermitizes it first, so the two
    agree bit for bit only on an exactly Hermitian P.  Any other P, such as a
    random start, goes through dist.
    """
    if not np.array_equal(P, _ct(P)):
        return dist(np.eye(P.shape[-1], dtype=complex), P)
    return float(_log_norm(np.log(w)))


def power_spd(P, t):
    w, U = _eigh(P)
    return _spectral(U, np.power(w, t))


def exp_hermitian(H):
    H = 0.5 * (H + np.conj(H).T)
    w, U = np.linalg.eigh(H)
    return (U * np.exp(w)) @ np.conj(U).T


def _expm(X):
    """exp of a stack of traceless (sl) or 1x1 matrices; closed form for n <= 2."""
    n = X.shape[-1]
    if n == 1:
        return np.exp(X)
    if n == 2:
        # traceless 2x2: X^2 = -det(X) I, so e^X = cosh(s) I + sinh(s)/s X
        q = -(X[..., 0, 0] * X[..., 1, 1] - X[..., 0, 1] * X[..., 1, 0])
        s = np.sqrt(q.astype(complex))
        small = np.abs(s) < 1e-8
        c = np.cosh(s)
        s1 = np.where(small, 1.0, s)
        coef = np.where(small, 1.0 + q / 6.0, np.sinh(s1) / s1)
        return c[..., None, None] * _EYE2 + coef[..., None, None] * X
    return scipy.linalg.expm(X)


def act(g, P):
    """Isometric action P -> g P g^†."""
    g = np.asarray(g, dtype=complex)
    return _hermitize(mul(mul(g, P), _ct(g)))


def log_frame(S, Q):
    """Logarithms of the eigenvalues, and eigenvectors, of S Q S.

    With S = P^{-1/2} the logarithms give dist(P, Q) (see dist), and
    mc_from_frame builds mc_edge(P, Q) from them.
    """
    w, U = _eigh(_hermitize(mul(mul(S, Q), S)))
    return np.log(w), U


def mc_from_frame(w, U, S, logw, V):
    """mc_edge(P, Q) from point_frame(P) = (w, U, S) and log_frame(S, Q) =
    (logw, V)."""
    return 0.5 * mul(mul(_spectral(U, np.sqrt(w)), _spectral(V, logw)), S)


def dist(P, Q):
    """Invariant distance ||log(P^{-1/2} Q P^{-1/2})||_F."""
    d = _log_norm(log_frame(inv_sqrt_spd(P), Q)[0])
    return float(d) if d.ndim == 0 else d


def ad_jacobi(logw):
    """Jacobi-field multipliers T coth T and T / sinh T of T = |ad_beta|.

    logw are the log-eigenvalues of P^{-1/2} Q P^{-1/2}, so beta = mc_edge(P, Q)
    has eigenvalues logw / 2 and, in its eigenframe, |ad_beta| scales the
    (i, j) entry by T_ij = |logw_i - logw_j| / 2.  Returns the two Hadamard
    multipliers (both 1 at T = 0), stacked like logw with a trailing (n, n).
    """
    T = 0.5 * np.abs(logw[..., :, None] - logw[..., None, :])
    small = T < 1e-4
    Ts = np.where(small, 1.0, T)
    q = np.exp(-Ts)                  # e^{-T}: no overflow at large T
    den = -np.expm1(-2.0 * Ts)       # 1 - e^{-2T}
    T2 = T * T
    coth = np.where(small, 1.0 + T2 / 3.0, Ts * (1.0 + q * q) / den)
    csch = np.where(small, 1.0 - T2 / 6.0, 2.0 * Ts * q / den)
    return coth, csch


def geodesic(P, Q, t):
    """Geodesic from P (t=0) to Q (t=1)."""
    w, U, S = point_frame(P)
    R = _spectral(U, np.sqrt(w))
    M = S @ Q @ S
    return _hermitize(R @ power_spd(_hermitize(M), t) @ R)


def exp_point(P, X):
    """exp_point(P, X) = e^X P e^{X^†}; X should be selfadjoint at P and lie
    in the algebra (traceless unless n = 1)."""
    E = _expm(np.asarray(X, dtype=complex))
    return _hermitize(mul(mul(E, P), _ct(E)))


def mc_edge(P, Q):
    """Edge logarithm (1/2) log(Q P^{-1}), selfadjoint at P.

    Computed through the symmetric eigendecomposition of P^{-1/2} Q P^{-1/2}
    and conjugated back, which keeps the selfadjointness exact.
    """
    w, U, S = point_frame(P)
    return mc_from_frame(w, U, S, *log_frame(S, Q))


def random_point(group, rng, scale=0.5):
    """Random symmetric-space point for the given group."""
    n = group.n
    if n == 1:
        return np.array([[np.exp(scale * rng.standard_normal())]], dtype=complex)
    if group.field == "C":
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        A = rng.standard_normal((n, n)).astype(complex)
    H = scale * 0.5 * (A + np.conj(A).T)
    H = H - (np.trace(H) / n) * np.eye(n)
    return exp_hermitian(H)


def translation_length(g):
    """Infimum L of dist(P, g P g^†) over the symmetric space, and whether a
    point attains it.

    L = 2 (sum_i log^2 |lambda_i|)^{1/2} over the eigenvalues of g.  The
    infimum is attained exactly when g is semisimple, at P* = V V^† /
    |det V|^{2/n} for the eigenvectors V of g.  attained is True when that
    P* is finite, lies within ATTAINED_RADIUS of I and displaces by L to
    1e-8 max(1, L); the nearly parallel eigenvectors of a Jordan block fail
    the check.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    lam, V = np.linalg.eig(g)
    L = 2.0 * float(_log_norm(np.log(np.abs(lam))))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P = _hermitize(V @ _ct(V)) / np.abs(np.linalg.det(V)) ** (2.0 / n)
    attained = bool(
        np.all(np.isfinite(P))
        and dist(np.eye(n, dtype=complex), P) <= ATTAINED_RADIUS
        and abs(dist(P, act(g, P)) - L) <= 1e-8 * max(1.0, L))
    return L, attained
