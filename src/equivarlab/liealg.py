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
``mul2`` is that 2 x 2 product without ``mul``'s shape check, for callers
that know the shape.
``ct``, the adjoint ``star`` and ``bracket`` state the rest of it once, the
last two through ``mul``; ``ad_action`` and ``repvar.WordTable`` keep ``@``,
on which the last bits of the reports depend.
"""

from __future__ import annotations

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
        """Finiteness, trace and realness constraints for algebra elements."""
        X = np.asarray(X)
        if X.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} matrix, got {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("non-finite entries in algebra element")
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
        with np.errstate(all="ignore"):     # an overflow is refused next
            d = np.linalg.det(g)
        if not np.isfinite(d):
            raise ValueError(f"determinant {d} of group element is not finite")
        if self.is_sl and abs(d - 1.0) > tol:
            raise ValueError(f"determinant {d} not 1 for SL element")
        if abs(d) < 1e-12:
            raise ValueError("singular matrix is not a group element")
        if self.field == "R" and np.abs(np.imag(g)).max() > tol:
            raise ValueError("SL(n,R) element has imaginary part")

    def identity(self):
        return np.eye(self.n, dtype=complex)

    def exp(self, X):
        # a far image overflows quietly; check_group refuses it
        with np.errstate(all="ignore"):
            return scipy.linalg.expm(np.asarray(X, dtype=complex))

    def random_alg(self, rng, scale=1.0):
        v = rng.standard_normal(self.dim) * scale
        return self.from_coords(v)


# ----------------------------------------------------------------------
# pointwise operations

def mul(A, B):
    """Stacked matrix product A @ B of arrays; for 2 x 2 blocks mul2."""
    if A.shape[-2:] != (2, 2) or B.shape[-2:] != (2, 2):
        return A @ B
    return mul2(A, B)


def mul2(A, B):
    """mul of stacks of 2 x 2 blocks, without the shape check: the sum of two
    broadcast outer products, column j of A times row j of B."""
    return A[..., :, 0, None] * B[..., None, 0, :] + A[..., :, 1, None] * B[..., None, 1, :]


def inv(A):
    """Stacked matrix inverse of an array; for 2 x 2 blocks the adjugate over
    the determinant.  A zero or non-finite determinant raises
    np.linalg.LinAlgError, as np.linalg.inv does on a singular block."""
    if A.shape[-2:] != (2, 2):
        return np.linalg.inv(A)
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    with np.errstate(invalid="ignore", over="ignore"):
        det = a * d - b * c
    if not (np.isfinite(det).all() and (det != 0).all()):
        raise np.linalg.LinAlgError("Singular matrix")
    adj = np.stack([np.stack([d, -b], axis=-1), np.stack([-c, a], axis=-1)], axis=-2)
    return adj / det[..., None, None]


def ct(M):
    """Stacked conjugate transpose M^† over the last two axes."""
    return np.asarray(M).swapaxes(-1, -2).conj()


def star(P, X, Pinv):
    """Stacked metric adjoint X* = P X^† P^{-1}, with Pinv = P^{-1}."""
    return mul(mul(P, ct(X)), Pinv)


def bracket(X, Y):
    """Stacked matrix commutator [X,Y] = XY - YX of equal shapes."""
    X, Y = np.asarray(X), np.asarray(Y)
    if X.shape != Y.shape:
        raise ValueError("bracket of mismatched shapes")
    return mul(X, Y) - mul(Y, X)


def ad_action(g, X):
    """Adjoint action g X g^{-1}."""
    g = np.asarray(g, dtype=complex)
    return g @ X @ np.linalg.inv(g)


def cartan_project(P, X, Pinv=None):
    """Split X = Xk + Xp into anti-selfadjoint and selfadjoint parts at P,
    with X* = ``star(P, X, Pinv)``; Pinv is P^{-1}, which a caller that
    splits many values at the same points inverts once."""
    P = np.asarray(P)
    if Pinv is None:
        Pinv = inv(P)
    Xs = star(P, X, Pinv)
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


def ad_matrix(group, g, ginv):
    """Real coordinate matrix of X -> g X g^{-1}, given g^{-1}; a stack of
    group elements gives a stack of matrices."""
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
