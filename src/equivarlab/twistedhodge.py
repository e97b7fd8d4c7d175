"""Twisted cochain calculus of the adjoint local system with the metric
induced by a harmonic map.

Cochains store one algebra value per cell (vertex/edge/face); all edge values
live at the edge source, and crossing a labeled edge transports by Ad of the
representation.  The coboundary on sections is

    (dF)(e: u -> v) = Ad_{rho(w_e)} F(v) - F(u),

on 1-cochains the signed, word-transported sum over the face boundary walk.
Codifferentials are Gram adjoints (G0^{-1} d0^T G1 on real coordinates), and
the Jacobi operator is J = d* d on sections; its kernel is the centralizer
algebra h = H^0 of the adjoint system, computed algebraically and used to
deflate the linear solves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .harmonicflow import FlowKernel
from .liealg import ad_matrix, adjoint_at, gram_at
from .meshcover import invert_word, reduce_word


class PeriodMismatchError(ValueError):
    """Raised when a closed 1-cochain does not represent the target class."""

    def __init__(self, defect):
        super().__init__(f"period defect {defect:.3e}: cochain class does not "
                         f"match the cocycle class")
        self.defect = defect


class LinearSolverError(RuntimeError):
    """A factorization or an iterative solve of the twisted calculus failed;
    the subclasses carry the solver status."""


class SingularKKTError(LinearSolverError):
    """The kernel-deflated KKT matrix is singular: the SVD cutoff kernel_rtol
    most likely misjudged the centralizer dimension kernel_dim."""

    def __init__(self, kernel_dim, kernel_rtol):
        super().__init__(f"singular KKT matrix with kernel_dim {kernel_dim} "
                         f"(kernel_rtol {kernel_rtol:.1e})")
        self.kernel_dim = kernel_dim
        self.kernel_rtol = kernel_rtol


class IterationLimitError(LinearSolverError):
    """An iterative solve stopped at its iteration limit."""

    def __init__(self, solver, istop, iterations):
        super().__init__(f"{solver} hit its iteration limit after {iterations} "
                         f"iterations (istop {istop})")
        self.solver = solver
        self.istop = istop
        self.iterations = iterations


@dataclass
class TwistedCochain:
    degree: int
    values: np.ndarray      # (ncells, n, n)

    def copy(self):
        return TwistedCochain(self.degree, self.values.copy())

    def to_json(self, complex_entries=True):
        vals = []
        for M in self.values:
            if complex_entries:
                vals.append([[[float(z.real), float(z.imag)] for z in row]
                             for row in M])
            else:
                vals.append([[float(z.real) for z in row] for row in M])
        return json.dumps({"degree": self.degree, "values": vals}, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        arr = np.asarray(data["values"], dtype=float)
        if arr.ndim == 4:
            vals = arr[..., 0] + 1j * arr[..., 1]
        else:
            vals = arr.astype(complex)
        return cls(int(data["degree"]), vals)


def _vals(x):
    return x.values if isinstance(x, TwistedCochain) else np.asarray(x)


# ----------------------------------------------------------------------

class TwistedComplex:
    """Assembled twisted calculus for (mesh, representation, metric map)."""

    def __init__(self, mesh, rep, f, kernel_rtol=1e-9):
        self.mesh = mesh
        self.rep = rep
        self.group = rep.group
        self.points = f.points if hasattr(f, "points") else np.asarray(f)
        self.kernel_rtol = kernel_rtol
        self.dim = self.group.dim
        n = self.group.n
        self.n = n

        # per-edge src, dst, w1, rho(w_e) and its inverse; also computes beta()
        self.kern = FlowKernel(mesh, rep)
        # metric at the edge sources, where 1-cochain values live
        self.edge_points = self.points[self.kern.src]
        self._word_cache = {}
        self.edge_words = [e.label for e in mesh.edges]
        self.edge_T = np.stack([self._admat(w) for w in self.edge_words])

        # face boundary walks with prefix transport words
        self.face_steps = []
        for face in mesh.faces:
            steps = []
            word = ()
            for eid, sign in face.steps:
                lab = mesh.edges[eid].label
                if sign > 0:
                    h = word
                    word = reduce_word(word + lab)
                else:
                    word = reduce_word(word + invert_word(lab))
                    h = word
                steps.append((eid, sign, h))
            self.face_steps.append(tuple(steps))

        self._assemble_grams()
        self._assemble_d()
        self.A0 = (self.d0.T @ self.G1 @ self.d0).tocsc()
        self.kernel = self._kernel_fields(kernel_rtol)
        self._kkt_lu = None

    # -- words ----------------------------------------------------------
    def _rho(self, word):
        key = ("g", word)
        if key not in self._word_cache:
            self._word_cache[key] = self.rep.eval_word(word)
        return self._word_cache[key]

    def _admat(self, word):
        key = ("A", word)
        if key not in self._word_cache:
            self._word_cache[key] = ad_matrix(self.group, self._rho(word))
        return self._word_cache[key]

    # -- coordinates ----------------------------------------------------
    def to_flat(self, values):
        return self.group.to_coords(np.asarray(values)).ravel()

    def from_flat(self, flat, ncells):
        return self.group.from_coords(np.asarray(flat).reshape(ncells, self.dim))

    # -- metric ---------------------------------------------------------
    def _assemble_grams(self):
        mesh = self.mesh
        gram_v = gram_at(self.group, self.points)
        self.gram_vertex = gram_v
        w0 = np.asarray(mesh.vertex_weights)
        self.G0 = sp.block_diag([w0[v] * gram_v[v] for v in range(mesh.nv)],
                                format="csr")
        self.G0inv = sp.block_diag(
            [np.linalg.inv(w0[v] * gram_v[v]) for v in range(mesh.nv)],
            format="csr")
        self.G1 = sp.block_diag(
            [e.weight * gram_v[e.src] for e in mesh.edges], format="csr")
        self.G1inv = sp.block_diag(
            [np.linalg.inv(e.weight * gram_v[e.src]) for e in mesh.edges],
            format="csr")
        if mesh.nf:
            bases = [self.mesh.edges[f.steps[0][0]].src if f.steps[0][1] > 0
                     else self.mesh.edges[f.steps[0][0]].dst
                     for f in mesh.faces]
            self.face_base = bases
            self.G2 = sp.block_diag(
                [f.weight * gram_v[b] for f, b in zip(mesh.faces, bases)],
                format="csr")
        else:
            self.face_base = []
            self.G2 = sp.csr_matrix((0, 0))

    # -- differentials --------------------------------------------------
    def _assemble_d(self):
        mesh, D = self.mesh, self.dim
        ii, jj = np.meshgrid(np.arange(D), np.arange(D), indexing="ij")

        def add_block(store, r, c, B):
            store[0].extend((r * D + ii).ravel())
            store[1].extend((c * D + jj).ravel())
            store[2].extend(np.asarray(B).ravel())

        store0 = ([], [], [])
        for i, e in enumerate(mesh.edges):
            add_block(store0, i, e.dst, self.edge_T[i])
            add_block(store0, i, e.src, -np.eye(D))
        self.d0 = sp.csr_matrix((store0[2], (store0[0], store0[1])),
                                shape=(mesh.ne * D, mesh.nv * D))

        store1 = ([], [], [])
        for fi, steps in enumerate(self.face_steps):
            for eid, sign, h in steps:
                add_block(store1, fi, eid, sign * self._admat(h))
        self.d1 = sp.csr_matrix((store1[2], (store1[0], store1[1])),
                                shape=(mesh.nf * D, mesh.ne * D))

    # -- kernel h = H^0 ---------------------------------------------------
    def _kernel_fields(self, rtol):
        """G0-orthonormal basis of parallel sections (the centralizer algebra),
        built from Ad-fixed vectors at the base vertex and parallel transport
        along a spanning tree."""
        D = self.dim
        gens = [self._admat((g,)) for g in self.mesh.generators]
        if gens:
            stack = np.vstack([A - np.eye(D) for A in gens])
            u, s, vt = np.linalg.svd(stack)
            # transports are O(1), so anchor the cutoff at absolute scale 1
            smax = max(s[0], 1.0) if len(s) else 1.0
            null_dim = int(np.sum(s <= rtol * smax)) + max(0, D - len(s))
            basis0 = vt[D - null_dim:].T if null_dim else np.zeros((D, 0))
        else:
            basis0 = np.eye(D)
        if basis0.shape[1] == 0:
            return np.zeros((self.mesh.nv * D, 0))
        # parallel extension over a BFS tree
        ext = np.zeros((self.mesh.nv, D, basis0.shape[1]))
        seen = np.zeros(self.mesh.nv, dtype=bool)
        ext[0] = basis0
        seen[0] = True
        frontier = [0]
        adjacency = {}
        for i, e in enumerate(self.mesh.edges):
            adjacency.setdefault(e.src, []).append((i, +1, e.dst))
            adjacency.setdefault(e.dst, []).append((i, -1, e.src))
        Tinv = np.linalg.inv(self.edge_T)
        while frontier:
            nxt = []
            for u in frontier:
                for eid, direction, v in adjacency.get(u, ()):
                    if seen[v]:
                        continue
                    # F(src) = T F(dst): forward crossing uses T^{-1}
                    ext[v] = (Tinv[eid] if direction > 0 else self.edge_T[eid]) @ ext[u]
                    seen[v] = True
                    nxt.append(v)
            frontier = nxt
        K = np.concatenate([ext[v] for v in range(self.mesh.nv)], axis=0)
        # G0-orthonormalize
        M = K.T @ (self.G0 @ K)
        w, U = np.linalg.eigh(0.5 * (M + M.T))
        keep = w > 1e-12 * max(w.max(), 1.0)
        K = K @ (U[:, keep] / np.sqrt(w[keep]))
        resid = np.abs(self.d0 @ K).max() if K.size else 0.0
        if resid > 1e-8:
            raise RuntimeError(f"parallel extension inconsistent: {resid}")
        return K

    @property
    def kernel_dim(self):
        return self.kernel.shape[1]

    def kernel_sections(self):
        """Kernel basis as matrix-valued 0-cochains."""
        return [TwistedCochain(0, self.from_flat(self.kernel[:, j], self.mesh.nv))
                for j in range(self.kernel_dim)]

    def kernel_project_flat(self, flat):
        if self.kernel_dim == 0:
            return np.zeros_like(flat)
        coeff = self.kernel.T @ (self.G0 @ flat)
        return self.kernel @ coeff

    # -- operators --------------------------------------------------------
    def d(self, coch):
        vals = _vals(coch)
        deg = coch.degree if isinstance(coch, TwistedCochain) else \
            (0 if len(vals) == self.mesh.nv else 1)
        if deg == 0:
            out = self.d0 @ self.to_flat(vals)
            return TwistedCochain(1, self.from_flat(out, self.mesh.ne))
        if deg == 1:
            out = self.d1 @ self.to_flat(vals)
            return TwistedCochain(2, self.from_flat(out, self.mesh.nf))
        raise ValueError("d is defined on degrees 0 and 1")

    def codiff(self, coch):
        vals = _vals(coch)
        deg = coch.degree if isinstance(coch, TwistedCochain) else \
            (1 if len(vals) == self.mesh.ne else 2)
        if deg == 1:
            out = self.G0inv @ (self.d0.T @ (self.G1 @ self.to_flat(vals)))
            return TwistedCochain(0, self.from_flat(out, self.mesh.nv))
        if deg == 2:
            out = self.G1inv @ (self.d1.T @ (self.G2 @ self.to_flat(vals)))
            return TwistedCochain(1, self.from_flat(out, self.mesh.ne))
        raise ValueError("codifferential is defined on degrees 1 and 2")

    def jacobi(self, coch):
        return self.codiff(self.d(coch))

    def jacobi_dense_sym(self):
        """G0-symmetrized dense Jacobi operator (similar to J), for spectra."""
        inv_blocks = [np.linalg.inv(np.linalg.cholesky(
            self.mesh.vertex_weights[v] * self.gram_vertex[v]))
            for v in range(self.mesh.nv)]
        Linv = sp.block_diag(inv_blocks, format="csr")
        S = (Linv @ (self.A0 @ Linv.T)).toarray()
        return 0.5 * (S + S.T)

    # -- inner products ----------------------------------------------------
    def inner(self, a, b, degree):
        G = (self.G0, self.G1, self.G2)[degree]
        return float(self.to_flat(_vals(a)) @ (G @ self.to_flat(_vals(b))))

    def norm(self, a, degree):
        return float(np.sqrt(max(self.inner(a, a, degree), 0.0)))

    # -- solves -------------------------------------------------------------
    def _kkt(self):
        if self._kkt_lu is None:
            K = self.kernel
            if K.shape[1]:
                Z = sp.csr_matrix((K.shape[1], K.shape[1]))
                M = sp.bmat([[self.A0, sp.csr_matrix(K)],
                             [sp.csr_matrix(K.T), Z]], format="csc")
            else:
                M = self.A0
            try:
                self._kkt_lu = spla.splu(M)
            except RuntimeError as exc:     # exactly singular factor
                raise SingularKKTError(self.kernel_dim, self.kernel_rtol) from exc
        return self._kkt_lu

    def solve_deflated(self, rhs_flat):
        """Solve A0 x = rhs with x G0-orthogonal to the kernel fields."""
        lu = self._kkt()
        k = self.kernel.shape[1]
        if k:
            sol = lu.solve(np.concatenate([rhs_flat, np.zeros(k)]))
            return sol[:-k]
        return lu.solve(rhs_flat)

    def solve_jacobi(self, rhs):
        """Least-squares solve J xi = rhs (rhs a 0-cochain), kernel-deflated."""
        b = self.G0 @ self.to_flat(_vals(rhs))
        x = self.solve_deflated(b - self.G0 @ self.kernel_project_flat(
            self.to_flat(_vals(rhs))))
        return TwistedCochain(0, self.from_flat(x, self.mesh.nv))

    # -- cocycle seeding and harmonic representatives -----------------------
    def seed_cochain(self, c):
        """Closed 1-cochain with edge values c(word_e); represents {c}."""
        vals = np.zeros((self.mesh.ne, self.n, self.n), dtype=complex)
        by_word = {}            # many edges cross the same side word
        for i, w in enumerate(self.edge_words):
            if w:
                if w not in by_word:
                    by_word[w] = c.eval_word(w)
                vals[i] = by_word[w]
        return TwistedCochain(1, vals)

    def harmonic_rep(self, c):
        """Harmonic 1-cochain representing the class of the cocycle c.

        Returns (omega, xi) with omega = seed - d xi and d* omega = 0.
        """
        omega0 = self.seed_cochain(c)
        rhs = self.d0.T @ (self.G1 @ self.to_flat(omega0.values))
        x = self.solve_deflated(rhs)
        om = self.to_flat(omega0.values) - self.d0 @ x
        omega = TwistedCochain(1, self.from_flat(om, self.mesh.ne))
        xi = TwistedCochain(0, self.from_flat(x, self.mesh.nv))
        return omega, xi

    def primitive(self, omega, c, tol=1e-7):
        """Section F with dF = omega - seed(c), i.e. a c-equivariant primitive
        of omega on the cover; raises PeriodMismatchError when the classes of
        omega and c differ.  Solutions form an affine space over the kernel."""
        target = self.to_flat(_vals(omega)) - self.to_flat(self.seed_cochain(c).values)
        x = self.solve_deflated(self.d0.T @ (self.G1 @ target))
        resid = self.d0 @ x - target
        defect = float(np.sqrt(max(resid @ (self.G1 @ resid), 0.0)))
        if defect > tol:
            raise PeriodMismatchError(defect)
        return TwistedCochain(0, self.from_flat(x, self.mesh.nv)), defect

    # -- Hodge decomposition -------------------------------------------------
    def _g1_sqrt(self):
        if not hasattr(self, "_g1_sqrt_cache"):
            blocks = []
            for e in self.mesh.edges:
                w, U = np.linalg.eigh(e.weight * self.gram_vertex[e.src])
                blocks.append((U * np.sqrt(np.maximum(w, 1e-300))) @ U.T)
            self._g1_sqrt_cache = sp.block_diag(blocks, format="csr")
        return self._g1_sqrt_cache

    def hodge_decompose(self, alpha):
        """alpha = d xi + d* Phi + harmonic, mutually Gram-orthogonal."""
        a = self.to_flat(_vals(alpha))
        xi = self.solve_deflated(self.d0.T @ (self.G1 @ a))
        exact = self.d0 @ xi
        rem = a - exact
        if self.mesh.nf:
            # minimize || G1^{-1} d1^T Psi - rem ||_{G1}
            sq1 = self._g1_sqrt()
            M = (sq1 @ (self.G1inv @ self.d1.T)).tocsr()
            sol, istop, itn = spla.lsmr(M, sq1 @ rem, atol=1e-14, btol=1e-14,
                                        maxiter=20000)[:3]
            if istop == 7:
                raise IterationLimitError("lsmr", istop, itn)
            coexact = self.G1inv @ (self.d1.T @ sol)
        else:
            coexact = np.zeros_like(rem)
        harm = rem - coexact
        return (TwistedCochain(1, self.from_flat(exact, self.mesh.ne)),
                TwistedCochain(1, self.from_flat(coexact, self.mesh.ne)),
                TwistedCochain(1, self.from_flat(harm, self.mesh.ne)))

    # -- nonlinear pieces ------------------------------------------------------
    def bracket_wedge(self, a, b):
        """Ordered cup product [a, b] on faces: sum_{j<i} [a_j~, b_i~] of the
        transported boundary values; satisfies d psi0 = -[omega,omega] exactly
        for the jet-seeded psi0."""
        av = _vals(a)
        bv = _vals(b)
        out = np.zeros((self.mesh.nf, self.n, self.n), dtype=complex)
        for fi, steps in enumerate(self.face_steps):
            ta, tb = [], []
            for eid, sign, h in steps:
                g = self._rho(h)
                ginv = np.linalg.inv(g)
                ta.append(sign * (g @ av[eid] @ ginv))
                tb.append(sign * (g @ bv[eid] @ ginv))
            acc = np.zeros((self.n, self.n), dtype=complex)
            run = np.zeros((self.n, self.n), dtype=complex)
            for j in range(len(steps)):
                if j:
                    acc += run @ tb[j] - tb[j] @ run
                run = run + ta[j]
            out[fi] = acc
        return TwistedCochain(2, out)

    def contract_star(self, a, b):
        """Contraction a* -| b: per vertex (1/w0) sum over out-edges of
        w1 [a_e^[p] - a_e^[k], b_e]; Gram-adjoint to xi -> [a, xi]."""
        av = _vals(a)
        bv = _vals(b)
        star = adjoint_at(self.edge_points, av)
        out = np.zeros((self.mesh.nv, self.n, self.n), dtype=complex)
        contrib = self.kern.w1[:, None, None] * (star @ bv - bv @ star)
        np.add.at(out, self.kern.src, contrib)
        out /= np.asarray(self.mesh.vertex_weights)[:, None, None]
        return TwistedCochain(0, out)

    def bracket_section(self, a, xi):
        """1-cochain [a, xi] with the section evaluated at edge sources."""
        av = _vals(a)
        xv = _vals(xi)[self.kern.src]
        return TwistedCochain(1, av @ xv - xv @ av)

    def beta(self):
        """Edge logarithms of the metric map (its Maurer-Cartan cochain)."""
        return TwistedCochain(1, self.kern.edge_data(self.points)[0])


