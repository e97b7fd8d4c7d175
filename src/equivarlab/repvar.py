"""Representations of the mesh group and their first/second order jets.

A first-order deformation is a cocycle c with c(gh) = c(g) + Ad_{rho(g)} c(h);
a second-order deformation is a pair (c, k).  Both are validated by evaluating
the relator words in the 2-jet group G x g x g with product

    (g, xi, mu) (h, eta, nu) = (gh, xi + Ad_g eta, mu + Ad_g nu + [xi, Ad_g eta]),

so a jet datum is valid exactly when every relator evaluates to (I, 0, 0).

``WordTable`` evaluates many words at once: it stores them as padded token
arrays with rho of every prefix, and runs the TG and 2-jet product laws for
all words in lockstep, one vectorized step per token position; the
per-token references it agrees with bit for bit live in
``tests/reference.py``.  A representation caches its relator table; the
flow kernel evaluates the deck words of a mesh as one table.

A path t -> rho_t (``RepPath``) is its generator images at t and its jets
(c, k) at t = 0, both set by the constructor of its family.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hyperbolic as hyp
from .liealg import MatrixGroup, ad_action, bracket, nullspace
from .meshcover import token_is_inverse, token_base


@dataclass
class Representation:
    group: MatrixGroup
    generators: tuple
    images: dict
    relations: tuple = ()
    #: generator logarithms A with images exp(A), set by exp_family
    logs: dict | None = None

    def __post_init__(self):
        self.images = {k: np.asarray(v, dtype=complex) for k, v in self.images.items()}
        for name in self.generators:
            if name not in self.images:
                raise ValueError(f"missing image for generator {name!r}")
            self.group.check_group(self.images[name])

    @cached_property
    def relator_table(self):
        """WordTable of the relators, built on first use."""
        return WordTable(self, self.relations)

    def relator_residuals(self):
        eye = self.group.identity()
        return [float(np.abs(g - eye).max()) for g in self.relator_table.rho]

    def validate(self, tol=1e-8):
        res = self.relator_residuals()
        return max(res, default=0.0) <= tol

    def conjugate(self, h):
        hinv = np.linalg.inv(h)
        logs = None if self.logs is None else \
            {k: h @ A @ hinv for k, A in self.logs.items()}
        return Representation(self.group, self.generators,
                              {k: h @ m @ hinv for k, m in self.images.items()},
                              self.relations, logs)

    @classmethod
    def for_mesh(cls, group, mesh, images):
        return cls(group, mesh.generators, images, mesh.relations)


# ----------------------------------------------------------------------

@dataclass
class Cocycle:
    rep: Representation
    values: dict

    def __post_init__(self):
        self.values = {k: np.asarray(v, dtype=complex) for k, v in self.values.items()}
        for name in self.rep.generators:
            if name not in self.values:
                raise ValueError(f"missing cocycle value for generator {name!r}")
            self.rep.group.check_algebra(self.values[name])

    def relator_residuals(self):
        table = self.rep.relator_table
        return [float(np.abs(v).max()) for v in table.values(table.stack(self.values))]

    def validate(self, tol=1e-8):
        return max(self.relator_residuals(), default=0.0) <= tol

    def scaled(self, s):
        return Cocycle(self.rep, {k: s * v for k, v in self.values.items()})


class WordTable:
    """Words in the generators, evaluated in lockstep.

    Each word is stored as padded token arrays: ``token`` (the generator
    slot, plus the number of generators for an inverse token), ``live``
    (false on padding), and rho of the prefix before each token (its inverse
    ``prefix_inv`` is built on first use).  Every method takes one vectorized
    step per token position for all words at once, doing the numpy
    operations of a per-token loop over one word in their order; padded
    steps are selected away rather than added as zeros (which would turn
    -0.0 into 0.0), so each value is the one a per-token evaluation of its
    word gives, to the last bit.  ``rho`` holds rho(w) of every word and
    ``rho_inv`` its inverse (on first use); ``values`` and ``jets`` map
    stacked generator values (see ``stack``) to the cocycle and 2-jet
    values.
    """

    def __init__(self, rep, words):
        self.rep = rep
        gens = {name: i for i, name in enumerate(rep.generators)}
        n = rep.group.n
        L = max(map(len, words), default=0)
        self.token = np.zeros((len(words), L), dtype=int)
        self.live = np.zeros((len(words), L), dtype=bool)
        for i, word in enumerate(words):
            for j, tok in enumerate(word):
                if token_base(tok) not in gens:
                    raise KeyError(f"unknown generator {tok!r}")
                self.token[i, j] = gens[token_base(tok)] + len(gens) * token_is_inverse(tok)
                self.live[i, j] = True
        self._g = np.array([rep.images[name] for name in rep.generators],
                           dtype=complex).reshape(len(gens), n, n)
        self._ginv = np.linalg.inv(self._g)
        h = np.concatenate([self._g, self._ginv])
        g = np.repeat(rep.group.identity()[None], len(words), axis=0)
        self.prefix = np.empty((len(words), L, n, n), dtype=complex)
        for j in range(L):
            self.prefix[:, j] = g
            g = np.where(self.live[:, j, None, None], g @ h[self.token[:, j]], g)
        self.rho = g

    @cached_property
    def rho_inv(self):
        return np.linalg.inv(self.rho)

    @cached_property
    def prefix_inv(self):
        return np.linalg.inv(self.prefix)

    def stack(self, values):
        """Generator values of a dict, stacked in generator order."""
        n = self.rep.group.n
        return np.array([values[name] for name in self.rep.generators],
                        dtype=complex).reshape(-1, n, n)

    def _tokens(self, C):
        """Token values of stacked generator values C (..., ngens, n, n):
        C for a generator, -Ad_{g^-1} C for its inverse."""
        return np.concatenate([C, -(self._ginv @ C @ self._g)], axis=-3)

    def _step(self, j, X):
        """Ad_{rho(prefix)} of the token values X at position j."""
        return self.prefix[:, j] @ X[..., self.token[:, j], :, :] @ self.prefix_inv[:, j]

    def values(self, C):
        """Cocycle values c(w) of every word, (..., nwords, n, n), from
        stacked generator values C (..., ngens, n, n)."""
        D = self._tokens(np.asarray(C, dtype=complex))
        c = np.zeros(D.shape[:-3] + self.rho.shape, dtype=complex)
        for j in range(self.live.shape[1]):
            c = np.where(self.live[:, j, None, None], c + self._step(j, D), c)
        return c

    def jets(self, C, K):
        """2-jet values (c(w), k(w)) of every word from stacked generator
        values C and K, by the product law of the 2-jet group."""
        D = self._tokens(np.asarray(C, dtype=complex))
        E = self._tokens(np.asarray(K, dtype=complex))
        xi = np.zeros(np.broadcast_shapes(D.shape[:-3], E.shape[:-3])
                      + self.rho.shape, dtype=complex)
        mu = xi.copy()
        for j in range(self.live.shape[1]):
            live = self.live[:, j, None, None]
            ad_eta = self._step(j, D)
            mu = np.where(live, mu + self._step(j, E) + (xi @ ad_eta - ad_eta @ xi), mu)
            xi = np.where(live, xi + ad_eta, xi)
        return xi, mu


def coboundary(rep, xi):
    """delta(xi): gamma -> xi - Ad_rho(gamma) xi, always a cocycle."""
    return Cocycle(rep, {name: xi - ad_action(rep.images[name], xi)
                         for name in rep.generators})


@dataclass
class Jet2Cocycle:
    c: Cocycle
    k: dict

    def __post_init__(self):
        self.k = {key: np.asarray(v, dtype=complex) for key, v in self.k.items()}
        rep = self.c.rep
        for name in rep.generators:
            if name not in self.k:
                raise ValueError(f"missing second-order value for {name!r}")
            rep.group.check_algebra(self.k[name])

    def relator_residuals(self):
        rep = self.c.rep
        table = rep.relator_table
        xi, mu = table.jets(table.stack(self.c.values), table.stack(self.k))
        eye = rep.group.identity()
        return [float(max(np.abs(g - eye).max(), np.abs(x).max(), np.abs(m).max()))
                for g, x, m in zip(table.rho, xi, mu)]

    def validate(self, tol=1e-8):
        return max(self.relator_residuals(), default=0.0) <= tol


# ----------------------------------------------------------------------
# analytic representation paths and their jets

@dataclass
class RepPath:
    """A family t -> rho_t: ``images(t)`` gives the generator images at t,
    and ``c``, ``k`` the jets per generator at t = 0 in the right
    trivialization, c = drho rho^-1 and k = d2rho rho^-1 - c^2."""
    rep0: Representation
    images: Callable[[float], dict]
    c: dict
    k: dict

    def at(self, t):
        if t == 0.0:
            return self.rep0
        return Representation(self.rep0.group, self.rep0.generators,
                              self.images(t), self.rep0.relations)

    def jets(self):
        """(c as a Cocycle at rep0, k)."""
        return Cocycle(self.rep0, self.c), self.k


def commuting_exp_path(rep0, B, C=None):
    """rho_t(gen) = exp(A + tB + t^2 C/2); all A, B, C must commute."""
    if rep0.logs is None:
        raise ValueError("commuting_exp_path needs a rep built by exp_family")
    gens = rep0.generators
    missing = [name for name in gens if name not in B]
    if missing:
        raise ValueError(f"commuting_exp path: B gives no value for generators {missing}")
    A = rep0.logs
    B = {k: np.asarray(v, dtype=complex) for k, v in B.items()}
    C = {k: np.asarray(v, dtype=complex) for k, v in (C or {}).items()}
    mats = [*A.values(), *B.values(), *C.values()]
    for i, X in enumerate(mats):
        for Y in mats[i + 1:]:
            if np.abs(bracket(X, Y)).max() > 1e-10:
                raise ValueError("commuting_exp family requires commuting data")
    return RepPath(
        rep0,
        lambda t: {name: rep0.group.exp(A[name] + t * B[name] + 0.5 * t * t
                                        * C.get(name, 0.0 * A[name]))
                   for name in gens},
        {name: B[name] for name in gens},
        {name: C.get(name, 0.0 * B[name]) for name in gens})


def exp_family(group, mesh, logs):
    """Representation gen -> exp(A_gen); remembers the logs for paths."""
    logs = {k: np.asarray(v, dtype=complex) for k, v in logs.items()}
    return Representation(group, mesh.generators,
                          {k: group.exp(A) for k, A in logs.items()},
                          mesh.relations, logs)


def _conjugating_path(rep0, xi, moved):
    """Conjugate the images of the generators in ``moved`` by exp(t xi),
    with jets c = xi - Ad xi and k = [Ad xi, xi] there and 0 elsewhere."""
    gens = rep0.generators

    def images(t):
        g = rep0.group.exp(t * xi)
        ginv = np.linalg.inv(g)
        return {name: g @ rep0.images[name] @ ginv if name in moved
                else rep0.images[name] for name in gens}

    adx = {name: ad_action(rep0.images[name], xi) for name in moved}
    return RepPath(rep0, images,
                   {name: xi - adx[name] if name in moved else np.zeros_like(xi)
                    for name in gens},
                   {name: bracket(adx[name], xi) if name in moved else np.zeros_like(xi)
                    for name in gens})


def conjugation_path(rep0, xi):
    return _conjugating_path(rep0, np.asarray(xi, dtype=complex), rep0.generators)


def bending_path(rep0, scale=0.5, imaginary=True):
    """Bend a genus-2 representation along the separating curve [a1,b1].

    Conjugates a2, b2 by exp(t xi) with xi in the centralizer of the
    commutator h = [rho(a1), rho(b1)]; for Fuchsian reps in SL(2,C) the
    imaginary axis direction gives the classical bending family.
    """
    if not {"a1", "b1", "a2", "b2"} <= set(rep0.generators):
        raise ValueError("bending needs a genus-2 representation with "
                         "generators a1, b1, a2 and b2")
    a1, b1 = rep0.images["a1"], rep0.images["b1"]
    h = a1 @ b1 @ np.linalg.inv(a1) @ np.linalg.inv(b1)
    n = rep0.group.n
    axis = h - (np.trace(h) / n) * np.eye(n)
    nrm = np.abs(axis).max()
    if nrm < 1e-12:
        raise ValueError("commutator is central, no bending axis")
    xi = scale * axis / nrm
    if imaginary:
        if not rep0.group.is_complex:
            raise ValueError("imaginary bending requires a complex group")
        xi = 1j * xi
    return _conjugating_path(rep0, xi, {"a2", "b2"})


# ----------------------------------------------------------------------
# built-in representations

def circle_rep(group, mesh, matrix):
    return Representation.for_mesh(group, mesh, {"a": np.asarray(matrix, dtype=complex)})


def hyperbolic_circle_rep(group, mesh, lam=2.0):
    return circle_rep(group, mesh, np.diag([lam, 1.0 / lam]).astype(complex))


def parabolic_circle_rep(group, mesh):
    return circle_rep(group, mesh, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def elliptic_circle_rep(group, mesh, theta=0.7):
    c, s = np.cos(theta), np.sin(theta)
    return circle_rep(group, mesh, np.array([[c, -s], [s, c]], dtype=complex))


def torus_diag_rep(group, mesh, alpha, beta):
    """Z^2 -> SL(2,C), rho(a) = exp(diag(alpha,-alpha)), same for b."""
    return exp_family(group, mesh, {
        "a": np.diag([alpha, -alpha]),
        "b": np.diag([beta, -beta]),
    })


def torus_gl1c_rep(group, mesh, z1, z2):
    return exp_family(group, mesh, {
        "a": np.array([[z1]]),
        "b": np.array([[z2]]),
    })


def trivial_rep(group, mesh):
    eye = group.identity()
    return Representation.for_mesh(group, mesh,
                                   {name: eye.copy() for name in mesh.generators})


def torus_unitary_rep(group, mesh, theta1=0.6, theta2=-0.35):
    """Commuting rotations; fixes the basepoint of the symmetric space."""
    return exp_family(group, mesh, {
        "a": np.array([[1j * theta1, 0], [0, -1j * theta1]]) if group.n == 2
        else np.array([[1j * theta1]]),
        "b": np.array([[1j * theta2, 0], [0, -1j * theta2]]) if group.n == 2
        else np.array([[1j * theta2]]),
    })


def genus2_fuchsian_rep(group, mesh):
    """Side-pairing generators of the regular octagon in SL(2,R) or SL(2,C)."""
    gens = hyp.fuchsian_generators()
    return Representation.for_mesh(group, mesh, gens)


# ----------------------------------------------------------------------

def cocycle_space_basis(rep):
    """Basis of Z^1(Gamma, g) by SVD of the linearized relator map.

    The map c -> (relator values of the TG extension) is linear in the
    generator values; its nullspace is the cocycle space.
    """
    group = rep.group
    gens = list(rep.generators)
    dim = group.dim
    ncols = dim * len(gens)
    L = np.zeros((0, ncols))
    if rep.relations:
        # column gi * dim + bi: the unit cocycle with value basis[bi] at gens[gi]
        units = np.zeros((len(gens), dim, len(gens), group.n, group.n), dtype=complex)
        for gi in range(len(gens)):
            units[gi, :, gi] = group.basis
        vals = rep.relator_table.values(units.reshape(ncols, len(gens),
                                                      group.n, group.n))
        # coordinates one value at a time: a stacked product rounds differently
        coords = np.array([[group.to_coords(v) for v in col] for col in vals])
        L = coords.transpose(1, 2, 0).reshape(-1, ncols)
    basis_vecs = nullspace(L)
    out = []
    for j in range(basis_vecs.shape[1]):
        vec = basis_vecs[:, j]
        vals = {}
        for gi, name in enumerate(gens):
            vals[name] = group.from_coords(vec[gi * dim:(gi + 1) * dim])
        out.append(Cocycle(rep, vals))
    return out
