"""Geometry of N = G/K in the positive-definite matrix model.

Points are SPD (resp. Hermitian positive definite) matrices with det 1 for
SL-type groups; for GL(1,C) they are 1x1 positive reals.  The group acts by
P -> g P g^†.  Edge logarithms follow the exact-transport convention

    mc_edge(P,Q) = (1/2) log(Q P^{-1}),

which is selfadjoint at P and satisfies exp_point(P, mc_edge(P,Q)) = Q.
With this normalization ||mc_edge(P,Q)||_P = dist(P,Q)/2.

The geometry routines (act, dist, exp_point, mc_edge and the
spectral functions) broadcast over leading axes: a single point is a stack
of one, and a stack gives bit for bit the values of the per-point calls.

For n = 2 every routine is in closed form and reads no eigendecomposition.
A Hermitian positive 2 x 2 point of det 1 has eigenvalues e^{+-a}, and its
adjugate adj(P) is its inverse.  M = Q adj(P) = Q P^{-1} has
eigenvalues e^{+-l} with dist(P, Q) = sqrt(2) l; with N = M - (tr M / 2) I
its traceless part, sinh l = sqrt(-det N) (sl2_frame), which a short edge
reads to full relative precision where arccosh(tr M / 2) loses half of the
digits, and log M = (l / sinh l) N (sl2_csch gives l / sinh l).  The roots
are P^{1/2} = (P + I) / sqrt(tr P + 2) and P^{-1/2} = adj(P^{1/2})
(sl2_root).
dist, mc_edge and origin_dist take these forms.  For Z = P^{-1/2} g Q^{1/2}
(the flow's edge frame, g the transport of the far endpoint Q) sl2_grams
gives the traceless parts of Z Z^† and Z^† Z and sl2_unitary the polar
factor of Z, and sl2_exph exponentiates a Hermitian traceless block in real
arithmetic; all of them are sums of products of entries, with no
cancellation far from I.  The closed forms with a series branch (sl2_exph
below s = 1e-8, sl2_csch below l = 1e-4) take it only when one min over the
stack shows that a value needs it; a stack with no such value (and no NaN,
whose min fails the test) reads the other branch alone, which gives the
same floats as the np.where form over the whole stack.

For n = 1 and n >= 3 the same quantities come from numpy's eigh, once per
point, and SVD, once per pair.  roots gives R = P^{1/2} and S = P^{-1/2},
exph e^X of a Hermitian X (for n = 2 both select the closed forms), and
edge_svd factors Z = S_P R_Q (the flow's S_src g R_dst) as U Sigma V^†:
dist(P, Q) = 2 |log sigma|, mc_edge(P, Q) = R_P U log Sigma U^† S_P, and
V log Sigma V^† is the same log in Q's frame.  A det-1 spectrum reads its
smallest value as the reciprocal of the product of the others (_unit_logs).

act, sl2_frame and exp_point multiply through liealg.mul (broadcast
arithmetic on a 2 x 2 block instead of one BLAS call per block), and
sl2_grams through liealg.mul2, its check-free 2 x 2 form; they transpose
through liealg.ct; the eigendecompositions and SVDs of n != 2 are numpy's.
random_points draws a stack of points with one stacked eigh, bit for bit
the points of as many random_point calls in turn.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .liealg import ct, mul, mul2

#: ||mc_edge(P,Q)||_P / dist(P,Q); fixed by the half-log normalization.
MC_EDGE_NORM_RATIO = 0.5

#: floor of _eigh's eigenvalues (an SL(n) point's smallest is read from det 1)
_EIG_FLOOR = 1e-14
#: dist(I, P) of a det-1 2 x 2 point whose small eigenvalue is _EIG_FLOOR:
#: the one "too far" radius.  A flow whose map ends with a vertex at or
#: beyond it from I, for any n, is not converged, and translation_length
#: counts a minimizer attained only within it
_FLOOR_DIST = -np.sqrt(2.0) * np.log(_EIG_FLOOR)

_EYE2 = np.eye(2, dtype=complex)
_SQRT2 = np.sqrt(2.0)
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _hermitize(M):
    return 0.5 * (M + M.swapaxes(-1, -2).conj())


def _eigh(P):
    w, U = np.linalg.eigh(P)
    return np.maximum(w, _EIG_FLOOR), U


def _spectral(U, vals):
    """U diag(vals) U^† over a stack."""
    return np.einsum("...ij,...j,...kj->...ik", U, vals, np.conj(U))


def _log_norm(logw):
    # vecdot, not a sum of squares: it equals np.linalg.norm bit for bit
    return np.sqrt(np.vecdot(logw, logw))


def _unit_logs(x, k):
    """log x of spectra whose product is 1 for n > 1 (an SL(n) point's
    eigenvalues, the singular values of S_P R_Q), the smallest, at index k,
    set to minus the sum of the others: its float value is known only to
    eps times the largest, which far out leaves it no digit."""
    with np.errstate(divide="ignore"):
        logs = np.log(x)
    if x.shape[-1] > 1:
        logs[..., k] = 0.0
        logs[..., k] = -np.sum(logs, axis=-1)
    return logs


def roots(P):
    """(R, S) = (P^{1/2}, P^{-1/2}) of points: sl2_root and its adjugate for
    n = 2, otherwise from one eigh of P (_eigh, which reads one triangle)
    with its smallest eigenvalue read from det P = 1 (_unit_logs)."""
    if P.shape[-1] == 2:
        R = sl2_root(P)
        return R, adj(R)
    w, U = _eigh(P)
    h = 0.5 * _unit_logs(w, 0)
    return _spectral(U, np.exp(h)), _spectral(U, np.exp(-h))


def edge_svd(Z):
    """(U, log sigma, V) of Z = U Sigma V^†, the smallest sigma read from
    |det Z| = 1 (_unit_logs).  For Z = S_P R_Q, U log Sigma U^† is half of
    log(S_P Q S_P) and V log Sigma V^† = Z^{-1} (U log Sigma U^†) Z."""
    U, sigma, Vh = np.linalg.svd(Z)
    return U, _unit_logs(sigma, -1), ct(Vh)


def origin_dist(P):
    """dist(I, P); for n = 2 in closed form without the product (a stack
    gives a stack)."""
    if P.shape[-1] == 2:
        # M = P adj(I) = P: dist(I, P) without the product, bit for bit
        d = _SQRT2 * _sl2_split(np.array(P))[2]
        return float(d) if d.ndim == 0 else d
    return dist(np.eye(P.shape[-1], dtype=complex), P)


def _expm(X):
    """exp of a stack of traceless (sl) or 1x1 matrices; closed form for n = 2, scipy otherwise."""
    if X.shape[-1] == 2:
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
    g, P = np.asarray(g, dtype=complex), np.asarray(P)
    return _hermitize(mul(mul(g, P), ct(g)))


def adj(P):
    """Adjugate of 2 x 2 blocks, P^{-1} at det 1: the diagonal swapped and
    the off-diagonal negated, entry by entry, so that no digit of a small
    diagonal entry is lost to tr(P) I - P."""
    A = -P
    A[..., 0, 0] = P[..., 1, 1]
    A[..., 1, 1] = P[..., 0, 0]
    return A


def sl2_root(P):
    """P^{1/2} = (P + I) / sqrt(tr P + 2) of det-1 2 x 2 points; its
    adjugate is P^{-1/2}."""
    return (P + _EYE2) / np.sqrt((P[..., 0, 0] + P[..., 1, 1]).real + 2.0)[..., None, None]


def sl2_frame(P, Q):
    """(N, sinh l, l) for det-1 2 x 2 points: N the traceless part of
    M = Q adj(P), whose eigenvalues are e^{+-l}, and sinh l = sqrt(-det N),
    so that dist(P, Q) = sqrt(2) l."""
    return _sl2_split(mul(np.asarray(Q), adj(np.asarray(P))))


def _traceless(M):
    """M - (tr M / 2) I of 2 x 2 blocks, in place, exactly traceless."""
    a = 0.5 * (M[..., 0, 0] - M[..., 1, 1])
    M[..., 0, 0] = a
    M[..., 1, 1] = -a
    return M


def _sl2_split(N):
    """sl2_frame of M = N, made traceless in place."""
    _traceless(N)
    a, b, c = N[..., 0, 0], N[..., 0, 1], N[..., 1, 0]
    # -det N = a^2 + b c, real; in real arithmetic, because numpy's complex
    # product of a stack and of a single value can differ in the last bit
    q = a.real * a.real - a.imag * a.imag + (b.real * c.real - b.imag * c.imag)
    sh = np.sqrt(np.maximum(q, 0.0))
    return N, sh, np.arcsinh(sh)


def sl2_grams(Z):
    """Traceless parts H0 of Z Z^† and K0 of Z^† Z, for 2 x 2 blocks Z of
    det 1.  With U = H^{-1/2} Z the unitary polar factor of Z (H = Z Z^†),
    K0 = U^† H0 U = Z^{-1} H0 Z; both are sums of products of entries of Z,
    so a far point keeps its digits."""
    Zh = ct(Z)
    return _traceless(mul2(Z, Zh)), _traceless(mul2(Zh, Z))


def sl2_unitary(Z):
    """The unitary polar factor U = (Z + adj(Z)^†) / sqrt(|Z|_F^2 + 2) of
    2 x 2 blocks Z of det 1, adj(Z)^† being Z turned by 180 degrees,
    conjugated, its off-diagonal negated."""
    norm2 = np.sum(Z.real * Z.real + Z.imag * Z.imag, axis=(-2, -1))
    return ((Z + _ADJ_SIGNS * np.conj(Z[..., ::-1, ::-1]))
            / np.sqrt(norm2 + 2.0)[..., None, None])


def exph(X):
    """e^X of Hermitian blocks X: sl2_exph for n = 2, otherwise from eigh."""
    if X.shape[-1] == 2:
        return sl2_exph(X)
    w, W = np.linalg.eigh(X)
    return _spectral(W, np.exp(w))


def sl2_exph(X):
    """e^X of Hermitian traceless 2 x 2 blocks X, in real arithmetic:
    cosh(s) I + (sinh(s) / s) X with s^2 = X_00^2 + |X_01|^2 = -det X."""
    q = X[..., 0, 0].real ** 2 + X[..., 0, 1].real ** 2 + X[..., 0, 1].imag ** 2
    s = np.sqrt(q)
    if s.min() >= 1e-8:
        coef = np.sinh(s) / s
    else:
        small = s < 1e-8
        s1 = np.where(small, 1.0, s)
        coef = np.where(small, 1.0 + q / 6.0, np.sinh(s1) / s1)
    return np.cosh(s)[..., None, None] * _EYE2 + coef[..., None, None] * X


def sl2_csch(sh, ell):
    """l / sinh l from sh = sinh l; the series 1 - l^2/6 below l = 1e-4."""
    if ell.min() >= 1e-4:
        return ell / sh
    small = ell < 1e-4
    return np.where(small, 1.0 - ell * ell / 6.0, ell / np.where(small, 1.0, sh))


def dist(P, Q):
    """Invariant distance ||log(P^{-1/2} Q P^{-1/2})||_F: sqrt(2) l of
    sl2_frame for n = 2, otherwise 2 |log sigma| of edge_svd."""
    Q = np.asarray(Q)
    if Q.shape[-1] == 2:
        d = _SQRT2 * sl2_frame(P, Q)[2]
    else:
        d = 2.0 * _log_norm(edge_svd(mul(roots(np.asarray(P))[1], roots(Q)[0]))[1])
    return float(d) if d.ndim == 0 else d


def ad_jacobi(lam):
    """Jacobi-field multipliers T coth T and T / sinh T of T = |ad_beta|.

    lam are the eigenvalues of beta = mc_edge(P, Q), the log sigma of
    edge_svd; in its eigenframe |ad_beta| scales the (i, j) entry by
    T_ij = |lam_i - lam_j|.  Returns the two Hadamard multipliers (both 1 at
    T = 0), stacked like lam with a trailing (n, n).
    """
    T = np.abs(lam[..., :, None] - lam[..., None, :])
    small = T < 1e-4
    Ts = np.where(small, 1.0, T)
    q = np.exp(-Ts)                  # e^{-T}: no overflow at large T
    den = -np.expm1(-2.0 * Ts)       # 1 - e^{-2T}
    T2 = T * T
    coth = np.where(small, 1.0 + T2 / 3.0, Ts * (1.0 + q * q) / den)
    csch = np.where(small, 1.0 - T2 / 6.0, 2.0 * Ts * q / den)
    return coth, csch


def exp_point(P, X):
    """exp_point(P, X) = e^X P e^{X^†}; X should be selfadjoint at P and lie
    in the algebra (traceless unless n = 1)."""
    E = _expm(np.asarray(X, dtype=complex))
    return _hermitize(mul(mul(E, np.asarray(P)), ct(E)))


def mc_edge(P, Q):
    """Edge logarithm (1/2) log(Q P^{-1}), selfadjoint at P.

    For n = 2 it is (l / 2 sinh l) N of sl2_frame(P, Q).  Otherwise it is
    R_P U log Sigma U^† S_P from edge_svd of S_P R_Q.
    """
    if np.shape(Q)[-1] == 2:
        N, sh, ell = sl2_frame(P, Q)
        return 0.5 * sl2_csch(sh, ell)[..., None, None] * N
    R, S = roots(np.asarray(P))
    U, logs, _ = edge_svd(mul(S, roots(np.asarray(Q))[0]))
    return mul(mul(R, _spectral(U, logs)), S)


def random_points(group, rng, count, scale=0.5):
    """A stack of count random symmetric-space points for the group: the
    Gaussian blocks of one point after another, in one draw from rng, then
    one stacked eigh of their traceless Hermitian parts H and one stacked
    (U e^w) U^†.  Each point is bit for bit the one a draw of that point
    alone would give (e^x for GL(1,C))."""
    n = group.n
    if n == 1:
        return np.exp(scale * rng.standard_normal(count)).astype(complex).reshape(count, 1, 1)
    if group.field == "C":
        draw = rng.standard_normal((count, 2, n, n))
        A = draw[:, 0] + 1j * draw[:, 1]
    else:
        A = rng.standard_normal((count, n, n)).astype(complex)
    H = scale * 0.5 * (A + np.conj(A).swapaxes(-1, -2))
    H = H - (np.trace(H, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)
    w, U = np.linalg.eigh(H)
    return (U * np.exp(w)[:, None, :]) @ np.conj(U).swapaxes(-1, -2)


def random_point(group, rng, scale=0.5):
    """Random symmetric-space point for the given group: random_points of
    one."""
    return random_points(group, rng, 1, scale)[0]


def translation_length(g):
    """Infimum L of dist(P, g P g^†) over the symmetric space, and whether a
    point attains it.

    L = 2 (sum_i log^2 |lambda_i|)^{1/2} over the eigenvalues of g.  The
    infimum is attained exactly when g is semisimple, at P* = V V^† /
    |det V|^{2/n} for the eigenvectors V of g.  attained is True when that
    P* is finite, lies within _FLOOR_DIST of I and displaces by L to
    1e-8 max(1, L); the nearly parallel eigenvectors of a Jordan block fail
    the check.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    lam, V = np.linalg.eig(g)
    L = 2.0 * float(_log_norm(np.log(np.abs(lam))))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P = _hermitize(V @ ct(V)) / np.abs(np.linalg.det(V)) ** (2.0 / n)
    attained = bool(
        np.all(np.isfinite(P))
        and dist(np.eye(n, dtype=complex), P) < _FLOOR_DIST
        and abs(dist(P, act(g, P)) - L) <= 1e-8 * max(1.0, L))
    return L, attained
