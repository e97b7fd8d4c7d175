"""Matrix Lie group/algebra kernel.

Supported groups: SL(n,R), SL(n,C) and GL(1,C) = C*.  The Lie algebra is
handled as a real vector space with a fixed basis that is orthonormal for
the base-point trace form <X,Y> = Re tr(X Y^†).  All pointwise Cartan data
(k/p projections, fiber metrics) is taken at a symmetric-space point P,
i.e. a positive definite matrix, via  X* = P X^† P^{-1}; the Cartan split,
the Gram matrix and the Ad coordinate matrix broadcast over stacks of
points, values and group elements.

``mul`` and ``inv`` are the stacked product and inverse of the per-cell
arithmetic.  numpy's stacked ``@`` and ``np.linalg.inv`` make one BLAS or
LAPACK call per block, which costs more than the arithmetic of a 2 x 2
block; for n = 2 both are written as broadcast elementwise arithmetic
instead, so every block of a stack is computed exactly as a stack of one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg


class MatrixGroup:
    """Group descriptor plus real-basis bookkeeping for its Lie algebra.

    kind "sl": SL(n, field) with field "R" or "C"; kind "gl1c": GL(1,C).
    """

    def __init__(self, kind="sl", n=2, field="R"):
        if kind not in ("sl", "gl1c"):
            raise ValueError(f"unknown group kind {kind!r}")
        if kind == "gl1c":
            n, field = 1, "C"
        if field not in ("R", "C"):
            raise ValueError(f"field must be 'R' or 'C', got {field!r}")
        if kind == "sl" and n < 2:
            raise ValueError("sl requires n >= 2")
        self.kind = kind
        self.n = int(n)
        self.field = field
        self.basis = self._build_basis()
        self.dim = len(self.basis)
        # flattened basis for vectorized coordinate maps
        self._basis_flat = self.basis.reshape(self.dim, -1)

    # ------------------------------------------------------------------
    @property
    def is_complex(self):
        return self.field == "C"

    @property
    def is_sl(self):
        return self.kind == "sl"

    def __repr__(self):
        if self.kind == "gl1c":
            return "MatrixGroup(GL(1,C))"
        return f"MatrixGroup(SL({self.n},{self.field}))"

    # ------------------------------------------------------------------
    def _build_basis(self):
        n = self.n
        if self.kind == "gl1c":
            return np.array([[[1.0 + 0j]], [[1j]]])
        mats = []
        # off-diagonal units, norm 1 for tr(X X^T)
        for i in range(n):
            for j in range(n):
                if i != j:
                    m = np.zeros((n, n), dtype=complex)
                    m[i, j] = 1.0
                    mats.append(m)
        # trace-free diagonals, Gram-Schmidt is explicit
        for k in range(1, n):
            d = np.zeros(n)
            d[:k] = 1.0
            d[k] = -k
            mats.append(np.diag(d).astype(complex) / np.sqrt(k + k * k))
        if self.field == "C":
            mats = mats + [1j * m for m in mats]
        return np.array(mats)

    # ------------------------------------------------------------------
    def to_coords(self, X):
        """Real coordinates of X (leading axes broadcast over a stack)."""
        X = np.asarray(X, dtype=complex)
        flat = X.reshape(X.shape[:-2] + (self.n * self.n,))
        # <X, B_k>_I = Re tr(X B_k^†) = Re sum_ij X_ij conj(B_k)_ij
        return np.real(flat @ np.conj(self._basis_flat).T)

    def from_coords(self, v):
        v = np.asarray(v, dtype=float)
        return np.tensordot(v, self.basis, axes=([-1], [0]))

    # ------------------------------------------------------------------
    def check_algebra(self, X, tol=1e-12):
        """Trace and realness constraints for algebra elements."""
        X = np.asarray(X)
        if X.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrix, got {X.shape}")
        if self.is_sl and abs(np.trace(X)) > tol * max(1.0, np.abs(X).max()):
            raise ValueError(f"trace {np.trace(X)} not zero for sl element")
        if self.field == "R" and np.abs(np.imag(X)).max() > tol:
            raise ValueError("sl(n,R) element has imaginary part")

    def check_group(self, g, tol=1e-9):
        g = np.asarray(g)
        if g.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrix, got {g.shape}")
        if not np.all(np.isfinite(g.real)) or not np.all(np.isfinite(np.imag(g))):
            raise ValueError("non-finite entries in group element")
        d = np.linalg.det(g)
        if self.is_sl and abs(d - 1.0) > tol:
            raise ValueError(f"determinant {d} not 1 for SL element")
        if abs(d) < 1e-12:
            raise ValueError("singular matrix is not a group element")
        if self.field == "R" and np.abs(np.imag(g)).max() > tol:
            raise ValueError("SL(n,R) element has imaginary part")

    def identity(self):
        return np.eye(self.n, dtype=complex)

    def exp(self, X):
        if self.n == 1:
            return np.exp(np.asarray(X, dtype=complex))
        return scipy.linalg.expm(np.asarray(X, dtype=complex))

    def random_alg(self, rng, scale=1.0):
        v = rng.standard_normal(self.dim) * scale
        return self.from_coords(v)


# ----------------------------------------------------------------------
# pointwise operations

def mul(A, B):
    """Stacked matrix product A @ B; for 2 x 2 blocks the sum of two
    broadcast outer products, column j of A times row j of B."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[-2:] != (2, 2) or B.shape[-2:] != (2, 2):
        return A @ B
    return A[..., :, 0, None] * B[..., None, 0, :] + A[..., :, 1, None] * B[..., None, 1, :]


def inv(A):
    """Stacked matrix inverse; for 2 x 2 blocks the adjugate over the
    determinant.  A zero or non-finite determinant raises
    np.linalg.LinAlgError, as np.linalg.inv does on a singular block."""
    A = np.asarray(A)
    if A.shape[-2:] != (2, 2):
        return np.linalg.inv(A)
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    with np.errstate(invalid="ignore", over="ignore"):
        det = a * d - b * c
    if not (np.isfinite(det).all() and (det != 0).all()):
        raise np.linalg.LinAlgError("Singular matrix")
    adj = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    return adj / det[..., None, None]


def bracket(X, Y):
    """Matrix commutator [X,Y] = XY - YX."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape != Y.shape:
        raise ValueError("bracket of mismatched shapes")
    return X @ Y - Y @ X


def ad_action(g, X):
    """Adjoint action g X g^{-1}."""
    g = np.asarray(g, dtype=complex)
    return g @ X @ np.linalg.inv(g)


def cartan_project(P, X, Pinv=None):
    """Split X = Xk + Xp into anti-selfadjoint and selfadjoint parts at P,
    with X* = P X^† P^{-1} taken through ``mul``; Pinv is P^{-1}, which a
    caller that splits many values at the same points inverts once."""
    if Pinv is None:
        Pinv = inv(P)
    Xs = mul(mul(P, np.conj(np.swapaxes(X, -1, -2))), Pinv)
    Xp = 0.5 * (X + Xs)
    Xk = 0.5 * (X - Xs)
    return Xk, Xp


def p_basis(group):
    """Frobenius-orthonormal basis (dp, n, n) of the selfadjoint part p of the
    algebra at the identity; R E_k R^{-1} with R = P^{1/2} is then a
    <.,.>_P-orthonormal basis of p at P."""
    n = group.n
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = np.sqrt(0.5)
            mats.append(m)
            if group.is_complex:
                mats.append(1j * (np.triu(m) - np.tril(m)))
    # the real diagonal elements of the basis are selfadjoint already
    mats += [B for B in group.basis if np.array_equal(B, np.diag(np.diag(B).real))]
    return np.array(mats)


def gram_at(group, P):
    """Gram matrix of the fiber metric at P in the group's real basis; a
    stack of points gives a stack of Grams."""
    P = np.asarray(P, dtype=complex)
    Pinv = np.linalg.inv(P)
    # adj(B_k) = P B_k^† P^{-1}, then G[j,k] = Re tr(B_j adj(B_k))
    adj = np.einsum("...ab,kcb,...cd->...kad", P, np.conj(group.basis), Pinv)
    G = np.real(np.einsum("jab,...kba->...jk", group.basis, adj))
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def ad_matrix(group, g):
    """Real coordinate matrix of X -> g X g^{-1}; a stack of group elements
    gives a stack of matrices."""
    g = np.asarray(g, dtype=complex)
    ginv = np.linalg.inv(g)
    conj = np.einsum("...ab,kbc,...cd->...kad", g, group.basis, ginv)
    return np.swapaxes(group.to_coords(conj), -1, -2).copy()


def nullspace(A, rtol=1e-9):
    """Orthonormal columns spanning the numerical nullspace of A (m, n): the
    right singular vectors with singular value <= rtol * max(s_0, 1), a cutoff
    anchored at the O(1) scale of transports.  With no rows, the identity."""
    m, n = A.shape
    if m == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    null_dim = int(np.sum(s <= rtol * max(s[0], 1.0))) + max(0, n - len(s))
    return vt[n - null_dim:].T


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
    return Jet2(a.g @ b.g,
                a.xi + ad_eta,
                a.mu + ad_action(a.g, b.mu) + bracket(a.xi, ad_eta))


def jet2_inv(a):
    """Inverse solved from the product law: (g^{-1}, -Ad_{g^{-1}} xi, -Ad_{g^{-1}} mu)."""
    ginv = np.linalg.inv(a.g)
    return Jet2(ginv, -(ginv @ a.xi @ a.g), -(ginv @ a.mu @ a.g))
