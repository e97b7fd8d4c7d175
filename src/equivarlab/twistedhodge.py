"""Twisted cochain calculus of the adjoint local system with the metric
induced by a harmonic map.

Cochains store one algebra value per cell (vertex/edge/face); all edge values
live at the edge source, and crossing a labeled edge transports by Ad of the
representation.  The coboundary on sections is

    (dF)(e: u -> v) = Ad_{rho(w_e)} F(v) - F(u),

on 1-cochains the signed, word-transported sum over the face boundary walk.
The Gram matrix G_k of degree k is block diagonal: each cell's weight times
the metric Gram at its base vertex (the vertex, the edge source, the face
base).  Codifferentials are Gram adjoints, d* = G_{k-1}^{-1} d^T G_k on real
coordinates, and the Jacobi operator is J = d* d on sections; its kernel is
the centralizer algebra h = H^0 of the adjoint system, computed
algebraically: the vectors fixed by Ad of every generator, constant over the
vertices.

Both Hodge Laplacians, A0 = d0^T G1 d0 on sections and A2 = d1 G1^{-1} d1^T
on 2-cochains (the normal equations of the coexact part of the Hodge
decomposition), are solved by one sparse LU factor of the Laplacian bordered
by a basis of its kernel.  The kernel of A0 is h; that of A2 is ker d1^T =
H^2, which Poincare duality under the Killing form Re tr(XY) gives on a
closed oriented surface as the Killing duals of the parallel sections at the
face base points.

The bordered matrix is symmetric, so SuperLU factors it in its symmetric
mode: a minimum-degree ordering of A + A^T, applied to rows and columns
alike, with diagonal pivots kept down to 0.1 of their column's largest
entry.  On torus 48 SL(2,C) at a harmonic map that factors A0 in 43 ms with
0.83 M nonzeros of fill, where the default COLAMD column ordering took
169 ms and 2.9 M (at one BLAS thread).  At threshold 0 the zero
block of the border is pivoted on (pivot ratio about 1e-32, solutions far
off); at 1.0 pivots leave the diagonal and the factor is slower.  A factor
whose smallest pivot is below 1e-10 of the largest is reported as singular.
The pivots are read from a throwaway factor, because a factor that hands out
U keeps a copy of it for its lifetime: reading them from the kept factor
raised the peak RSS of the ``deform_at_map`` benchmark from 102-104 to
103-118 MB, and two symmetric-mode factors cost less than one COLAMD factor
did.  The transposes d0^T and d1^T are built once, as CSR, and every solve
takes one flat right-hand side (N,) or a block (N, m) of them.

Transports come from the deck-word table of the flow kernel, which
evaluates the word list of the mesh (``CoverMesh.word_index``: edge labels,
generators, face prefix words, with the face walks stacked) once; the same
table gives the cocycle seeds and the edge 2-jets of the deformation
pipeline, all words in one vectorized pass per token position.  A complex
builds each operator from that table the first time it is read and keeps
it, so a study that reads only d1, the degree-2 Gram and beta builds nothing
else; beta and the energy come from one MapEval, and the period bound of a
primitive from its conditioning.

The nonlinear pieces (the face cup product, the contraction omega* -|
alpha through the adjoint ``liealg.star``, the bracket with a section) take
``liealg.bracket``, one broadcast product per stack instead of one BLAS call
per block.  The inverses of the vertex points (``points_inv``, through
``liealg.inv``) are taken once per complex and the edge-source inverses
(``edge_points_inv``) are read from them; the Cartan splits of the tangent
fields and of the second variation pass them to ``liealg.cartan_project``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .harmonicflow import FlowKernel, MapEval
from .liealg import ad_matrix, bracket, gram_at, inv, mul, nullspace, star
from .symspace import act

#: nullspace cutoff (relative to max(s_0, 1)) below which a direction counts
#: as Ad-fixed by every generator, that is as a centralizer direction
KERNEL_RTOL = 1e-9


class PeriodMismatchError(ValueError):
    """Raised when a closed 1-cochain does not represent the target class."""

    def __init__(self, defect):
        super().__init__(f"period defect {defect:.3e}: cochain class does not "
                         f"match the cocycle class")
        self.defect = defect


class LinearSolverError(RuntimeError):
    """A factorization of the twisted calculus failed; the subclasses carry
    the solver status."""


class SingularKKTError(LinearSolverError):
    """The kernel-deflated KKT matrix is singular: the SVD cutoff KERNEL_RTOL
    most likely misjudged the centralizer dimension kernel_dim."""

    def __init__(self, kernel_dim, kernel_rtol):
        super().__init__(f"singular KKT matrix with kernel_dim {kernel_dim} "
                         f"(kernel_rtol {kernel_rtol:.1e})")
        self.kernel_dim = kernel_dim
        self.kernel_rtol = kernel_rtol


@dataclass
class TwistedCochain:
    degree: int
    values: np.ndarray      # (ncells, n, n)


def _vals(x):
    return x.values if isinstance(x, TwistedCochain) else np.asarray(x)


def _block_sparse(row, col, blocks, shape):
    """CSR matrix of shape (shape[0] D, shape[1] D) holding the stacked D x D
    blocks at the block positions (row[i], col[i]); entries enter in stack
    order, so repeated positions are summed in that order."""
    D = blocks.shape[-1]
    r = np.broadcast_to(row[:, None, None] * D + np.arange(D)[:, None], blocks.shape)
    c = np.broadcast_to(col[:, None, None] * D + np.arange(D), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), (r.ravel(), c.ravel())),
                         shape=(shape[0] * D, shape[1] * D))


def _block_diag(blocks):
    """CSR matrix with the stacked square blocks on its diagonal, written
    row by row: block row i * D + a holds row a of block i in the columns
    i * D .. i * D + D - 1."""
    N, D = blocks.shape[0], blocks.shape[-1]
    cols = np.broadcast_to(np.arange(N)[:, None, None] * D + np.arange(D), blocks.shape)
    return sp.csr_matrix((blocks.ravel(), cols.ravel(), np.arange(0, N * D * D + 1, D)),
                         shape=(N * D, N * D))


# ----------------------------------------------------------------------

class TwistedComplex:
    """Twisted calculus for (mesh, representation, metric map).

    Every operator (d0, d1, their transposes d0t and d1t, the Gram matrices
    gram(k) and their inverses gram_inv(k), A0, the kernel sections, beta
    and the inverses of the vertex and edge-source points) is built from the
    deck-word table the first time it is read and kept for the life of the
    complex, so a caller pays only for the operators it reads.
    """

    def __init__(self, mesh, rep, f):
        self.mesh = mesh
        self.rep = rep
        self.group = rep.group
        self.points = f.points
        self.dim = self.group.dim
        self.n = self.group.n

        # per-edge src, dst, w1, rho(w_e) and its inverse, and the word table
        self.kern = FlowKernel(mesh, rep)
        self.words = self.kern.words
        self.word_index = mesh.word_index
        # metric at the edge sources, where 1-cochain values live
        self.edge_points = self.points[self.kern.src]
        self._gram, self._gram_inv, self._kkt_lu = {}, {}, {}

    # -- coordinates ----------------------------------------------------
    def to_flat(self, values):
        return self.group.to_coords(np.asarray(values)).ravel()

    def from_flat(self, flat):
        return self.group.from_coords(np.asarray(flat).reshape(-1, self.dim))

    # -- metric ---------------------------------------------------------
    @cached_property
    def gram_vertex(self):
        return gram_at(self.group, self.points)

    def _gram_blocks(self, k):
        """Gram blocks of the degree-k cells: the cell weight times the vertex
        Gram at the base vertex of the cell (the vertex, the edge source, the
        face base)."""
        if k == 0:
            weight, base = self.mesh.vertex_weights, slice(None)
        elif k == 1:
            weight, base = self.kern.w1, self.kern.src
        else:
            weight = [f.weight for f in self.mesh.faces]
            base = self.word_index.face_base
        return np.asarray(weight)[:, None, None] * self.gram_vertex[base]

    def gram(self, k):
        """Block-diagonal Gram matrix of the degree-k cochains."""
        if k not in self._gram:
            self._gram[k] = _block_diag(self._gram_blocks(k))
        return self._gram[k]

    def gram_inv(self, k):
        """Inverse of gram(k), from the inverses of its blocks."""
        if k not in self._gram_inv:
            self._gram_inv[k] = _block_diag(np.linalg.inv(self._gram_blocks(k)))
        return self._gram_inv[k]

    @cached_property
    def points_inv(self):
        return inv(self.points)

    @cached_property
    def edge_points_inv(self):
        return self.points_inv[self.kern.src]

    # -- transports and differentials ---------------------------------------
    @cached_property
    def _Ad(self):
        """Ad matrices of every word of the table."""
        return ad_matrix(self.group, self.words.rho, self.words.rho_inv)

    @cached_property
    def d0(self):
        D, T = self.dim, self._Ad[self.word_index.edge_word]
        return _block_sparse(
            np.repeat(np.arange(self.mesh.ne), 2),
            np.stack([self.kern.dst, self.kern.src], axis=1).ravel(),
            np.stack([T, np.broadcast_to(-np.eye(D), T.shape)], axis=1).reshape(-1, D, D),
            (self.mesh.ne, self.mesh.nv))

    @cached_property
    def d1(self):
        idx = self.word_index
        step = idx.face_sign != 0
        return _block_sparse(
            np.nonzero(step)[0], idx.face_eid[step],
            idx.face_sign[step][:, None, None] * self._Ad[idx.face_word[step]],
            (self.mesh.nf, self.mesh.ne))

    @cached_property
    def d0t(self):
        """d0^T as CSR; its products equal those of d0.T bit for bit."""
        return self.d0.T.tocsr()

    @cached_property
    def d1t(self):
        """d1^T as CSR; its products equal those of d1.T bit for bit."""
        return self.d1.T.tocsr()

    @cached_property
    def A0(self):
        return (self.d0.T @ self.gram(1) @ self.d0).tocsc()

    # -- kernel h = H^0 ---------------------------------------------------
    @cached_property
    def kernel(self):
        """G0-orthonormal basis of parallel sections (the centralizer algebra):
        the vectors fixed by Ad of every generator, hence of every deck word,
        constant over the vertices in the chosen-lift trivialization."""
        D, nv = self.dim, self.mesh.nv
        gens = self._Ad[self.word_index.gen_word]
        basis0 = nullspace((gens - np.eye(D)).reshape(-1, D), KERNEL_RTOL)
        # G0-orthonormalize; every vertex takes the same product, bit for bit
        K = np.tile(basis0, (nv, 1))
        M = K.T @ (self.gram(0) @ K)
        w, U = np.linalg.eigh(0.5 * (M + M.T))
        keep = w > 1e-12 * max(w.max(initial=0.0), 1.0)
        K = np.tile(basis0 @ (U[:, keep] / np.sqrt(w[keep])), (nv, 1))
        resid = np.abs(self.d0 @ K).max(initial=0.0)
        if resid > 1e-8:
            raise RuntimeError(f"constant sections not parallel: {resid}")
        return K

    @property
    def kernel_dim(self):
        return self.kernel.shape[1]

    def kernel_sections(self):
        """Kernel basis as matrix-valued 0-cochains."""
        return [TwistedCochain(0, self.from_flat(self.kernel[:, j]))
                for j in range(self.kernel_dim)]

    def kernel_project_flat(self, flat):
        coeff = self.kernel.T @ (self.gram(0) @ flat)
        return self.kernel @ coeff

    # -- operators --------------------------------------------------------
    def d(self, coch):
        k = coch.degree
        if k not in (0, 1):
            raise ValueError("d is defined on degrees 0 and 1")
        out = getattr(self, f"d{k}") @ self.to_flat(coch.values)
        return TwistedCochain(k + 1, self.from_flat(out))

    def codiff(self, coch):
        k = coch.degree - 1
        if k not in (0, 1):
            raise ValueError("codifferential is defined on degrees 1 and 2")
        out = self.gram_inv(k) @ (getattr(self, f"d{k}t")
                                  @ (self.gram(k + 1) @ self.to_flat(coch.values)))
        return TwistedCochain(k, self.from_flat(out))

    def jacobi_dense_sym(self):
        """G0-symmetrized dense Jacobi operator (similar to J), for spectra."""
        Linv = _block_diag(np.linalg.inv(np.linalg.cholesky(self._gram_blocks(0))))
        S = (Linv @ (self.A0 @ Linv.T)).toarray()
        return 0.5 * (S + S.T)

    # -- inner products ----------------------------------------------------
    def inner(self, a, b, degree):
        return float(self.to_flat(_vals(a)) @ (self.gram(degree) @ self.to_flat(_vals(b))))

    def norm(self, a, degree):
        return self.flat_norm(self.to_flat(_vals(a)), degree)

    def flat_norm(self, x, degree):
        """Gram norm of the flat degree-k cochain x."""
        return float(np.sqrt(max(x @ (self.gram(degree) @ x), 0.0)))

    # -- solves -------------------------------------------------------------
    def _laplacian(self, degree):
        """Hodge Laplacian of degree 0 or 2 on coordinates, with the basis of
        its kernel that borders it in the KKT matrix."""
        if degree == 0:
            return self.A0, self.kernel
        A2 = (self.d1 @ self.gram_inv(1) @ self.d1t).tocsc()
        # Killing duals Re tr(K B_j) of the parallel sections at the face bases
        basis = self.group.basis
        killing = np.real(np.einsum("jab,kba->jk", basis, basis))
        K = self.kernel.reshape(self.mesh.nv, self.dim, -1)[self.word_index.face_base]
        Q = np.linalg.svd((killing @ K).reshape(A2.shape[0], -1), full_matrices=False)[0]
        # all of them lie in ker d1^T on a closed oriented surface, none when
        # the faces leave a boundary
        _, s, vt = np.linalg.svd(self.d1t @ Q, full_matrices=False)
        return A2, Q @ vt[s <= 1e-8].T

    def _kkt(self, degree):
        """Sparse LU factor of the kernel-bordered Laplacian of a degree."""
        if degree not in self._kkt_lu:
            A, K = self._laplacian(degree)
            if K.shape[1]:
                Z = sp.csr_matrix((K.shape[1], K.shape[1]))
                M = sp.bmat([[A, sp.csr_matrix(K)],
                             [sp.csr_matrix(K.T), Z]], format="csc")
            else:
                M = A

            # M is symmetric: see the module docstring for the settings
            def factor():
                return spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                                 options={"SymmetricMode": True})
            try:
                # a factor that hands out U keeps a copy of it for its
                # lifetime, so the pivots are read from a throwaway factor
                pivots = np.abs(factor().U.diagonal())
                lu = factor()
            except RuntimeError as exc:     # exactly singular factor
                raise SingularKKTError(self.kernel_dim, KERNEL_RTOL) from exc
            if pivots.min() <= 1e-10 * pivots.max():    # numerically singular
                raise SingularKKTError(self.kernel_dim, KERNEL_RTOL)
            self._kkt_lu[degree] = lu
        return self._kkt_lu[degree]

    def _solve_kkt(self, degree, rhs):
        """Solve A x = rhs for the Laplacian A of a degree, with x orthogonal
        to the bordering kernel basis; rhs is (N,) or a block (N, m)."""
        lu = self._kkt(degree)
        k = lu.shape[0] - len(rhs)      # rows of the bordering kernel basis
        border = np.zeros((k,) + rhs.shape[1:])
        return lu.solve(np.concatenate([rhs, border]))[:len(rhs)]

    def solve_jacobi(self, rhs):
        """Least-squares solve J xi = rhs (rhs a 0-cochain), kernel-deflated."""
        b = self.gram(0) @ self.to_flat(_vals(rhs))
        x = self._solve_kkt(0, b - self.gram(0) @ self.kernel_project_flat(
            self.to_flat(_vals(rhs))))
        return TwistedCochain(0, self.from_flat(x))

    def _exact(self, a):
        """Exact part of the flat 1-cochain a (or of each column of a block):
        the kernel-deflated x with A0 x = d0^T G1 a, and d0 x, its
        G1-orthogonal projection onto im d0."""
        x = self._solve_kkt(0, self.d0t @ (self.gram(1) @ a))
        return x, self.d0 @ x

    # -- cocycle seeding and harmonic representatives -----------------------
    def seed_cochain(self, c):
        """Closed 1-cochain with edge values c(word_e); represents {c}.  A
        seed cochain passed for c is returned as it is."""
        if isinstance(c, TwistedCochain):
            return c
        vals = self.words.values(self.words.stack(c.values))
        return TwistedCochain(1, vals[self.word_index.edge_word])

    def harmonic_rep(self, c):
        """Harmonic 1-cochain representing the class of the cocycle c (or of
        its seed cochain).

        Returns (omega, xi) with omega = seed - d xi and d* omega = 0.
        """
        a = self.to_flat(self.seed_cochain(c).values)
        x, exact = self._exact(a)
        return (TwistedCochain(1, self.from_flat(a - exact)),
                TwistedCochain(0, self.from_flat(x)))

    def primitive(self, omega, c):
        """Section F with dF = omega - seed(c), i.e. a c-equivariant primitive
        of omega on the cover (c a cocycle or its seed cochain); raises
        PeriodMismatchError when the G1 norm of the defect exceeds
        max(1e-7, eps edge_conditioning), i.e. when the classes of omega and
        c differ.  Solutions form an affine space over the kernel."""
        F, defect = self._primitive_flat(
            self.to_flat(_vals(omega)) - self.to_flat(self.seed_cochain(c).values))
        if defect > max(1e-7, np.finfo(float).eps * self.edge_conditioning):
            raise PeriodMismatchError(defect)
        return F, defect

    @cached_property
    def edge_conditioning(self):
        """The largest cond(f(src)) cond(rho(w_e) f(dst) rho(w_e)^†) over the
        edges: the period defect of a matching class grows with it (0.07 eps
        times it at 1.5e11 on a genus-2 conjugate)."""
        Q = act(self.kern.g, self.points[self.kern.dst])
        return float(np.max(np.linalg.cond(self.edge_points) * np.linalg.cond(Q)))

    def _primitive_flat(self, target):
        """Kernel-deflated least-squares section F with dF ~ target (a flat
        1-cochain), and the G1 norm of the defect dF - target."""
        x, exact = self._exact(target)
        return TwistedCochain(0, self.from_flat(x)), self.flat_norm(exact - target, 1)

    # -- Hodge decomposition -------------------------------------------------
    def hodge_decompose(self, alpha):
        """alpha = d xi + d* Phi + harmonic, mutually Gram-orthogonal."""
        a = self.to_flat(_vals(alpha))
        _, exact = self._exact(a)
        rem = a - exact
        if self.mesh.nf:
            # Psi minimizes || G1^{-1} d1^T Psi - rem ||_{G1}: A2 Psi = d1 rem
            Psi = self._solve_kkt(2, self.d1 @ rem)
            coexact = self.gram_inv(1) @ (self.d1t @ Psi)
        else:
            coexact = np.zeros_like(rem)
        harm = rem - coexact
        return tuple(TwistedCochain(1, self.from_flat(x)) for x in (exact, coexact, harm))

    # -- nonlinear pieces ------------------------------------------------------
    def bracket_wedge(self, a, b):
        """Ordered cup product [a, b] on faces: sum_{j<i} [a_j~, b_i~] of the
        transported boundary values; satisfies d psi0 = -[omega,omega] exactly
        for the jet-seeded psi0."""
        fw, eid = self.word_index.face_word, self.word_index.face_eid
        g, ginv = self.words.rho[fw], self.words.rho_inv[fw]
        sign = self.word_index.face_sign[..., None, None]
        ta = sign * mul(mul(g, _vals(a)[eid]), ginv)
        tb = sign * mul(mul(g, _vals(b)[eid]), ginv)
        acc = np.zeros((self.mesh.nf, self.n, self.n), dtype=complex)
        run = np.zeros_like(acc)
        for j in range(eid.shape[1]):
            if j:
                acc += bracket(run, tb[:, j])
            run = run + ta[:, j]
        return TwistedCochain(2, acc)

    def contract_star(self, a, b):
        """Contraction a* -| b: per vertex (1/w0) sum over out-edges of
        w1 [a_e^[p] - a_e^[k], b_e]; Gram-adjoint to xi -> [a, xi]."""
        a_star = star(self.edge_points, _vals(a), self.edge_points_inv)
        out = np.zeros((self.mesh.nv, self.n, self.n), dtype=complex)
        contrib = self.kern.w1[:, None, None] * bracket(a_star, _vals(b))
        np.add.at(out, self.kern.src, contrib)
        out /= np.asarray(self.mesh.vertex_weights)[:, None, None]
        return TwistedCochain(0, out)

    def bracket_section(self, a, xi):
        """1-cochain [a, xi] with the section evaluated at edge sources."""
        return TwistedCochain(1, bracket(_vals(a), _vals(xi)[self.kern.src]))

    @cached_property
    def map_eval(self):
        """The MapEval of the points: the energy and the edge logarithms."""
        return MapEval(self.kern, self.points)

    def beta(self):
        """Edge logarithms of the metric map (its Maurer-Cartan cochain); the
        values are read-only."""
        beta = self.map_eval.beta
        beta.flags.writeable = False
        return TwistedCochain(1, beta)


