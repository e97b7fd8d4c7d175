"""Fundamental-domain cell complexes with deck-transformation labels.

A CoverMesh stores the quotient complex of a closed manifold: weighted
vertices, oriented weighted edges carrying a deck word (empty for interior
edges), and faces given by boundary walks of signed edge steps.  An edge
u -> v with word w means that the lift of the edge at the chosen lift of u
ends at w . (chosen lift of v).

``CoverMesh.word_index`` lists, each once, the deck words that the flow
kernel and the twisted complex read, with the stacked face boundary walks.

``as_real`` and ``as_integer`` state the number rules of every JSON value
the lab reads: mesh files here, and every number of a CLI config.

Builders: the circle (Gamma = Z), the flat torus (Z^2) and the genus-2
surface: the 16-triangle fan of the regular hyperbolic octagon, each face of
the quotient split 1-to-4 once per level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import hyperbolic as hyp

# ----------------------------------------------------------------------
# words over the generator alphabet: tuples of tokens, capitalized first
# letter means inverse ("A1" is the inverse of "a1")


def flip_token(tok):
    return (tok[0].upper() if tok[0].islower() else tok[0].lower()) + tok[1:]


def token_base(tok):
    return tok[0].lower() + tok[1:]


def token_is_inverse(tok):
    return tok[0].isupper()


def parse_word(text):
    if not isinstance(text, str):
        raise TypeError(f"a word is a string of tokens, got {text!r}")
    if not text:
        return ()
    return tuple(text.split())


def word_text(word):
    return " ".join(word)


def invert_word(word):
    return tuple(flip_token(t) for t in reversed(word))


def reduce_word(word):
    out = []
    for tok in word:
        if out and out[-1] == flip_token(tok):
            out.pop()
        else:
            out.append(tok)
    return tuple(out)


def cyclic_reduce(word):
    word = reduce_word(word)
    while len(word) >= 2 and word[0] == flip_token(word[-1]):
        word = word[1:-1]
    return word


def is_relator_or_identity(word, relations):
    """True if the freely reduced word is empty or a cyclic rotation of a
    relator or of an inverse relator."""
    w = cyclic_reduce(word)
    if not w:
        return True
    for rel in relations:
        for r in (tuple(rel), invert_word(rel)):
            if len(r) == len(w):
                doubled = r + r
                for k in range(len(r)):
                    if doubled[k:k + len(w)] == w:
                        return True
    return False


# ----------------------------------------------------------------------
# the number rules of every JSON value the lab reads (meshes and CLI configs)


def as_real(x):
    """x as a float; a bool or a string is not a number, and an integer
    beyond the float range does not fit one: both raise ValueError."""
    if isinstance(x, (bool, str)):
        raise ValueError(f"{x!r} is not a number")
    try:
        return float(x)
    except OverflowError as exc:
        raise ValueError(f"number out of the float range: {exc}") from exc


def as_integer(x):
    """x as an int; what as_real refuses and a non-finite or non-integral
    number raise."""
    if not np.isfinite(as_real(x)) or int(x) != x:
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _as_list(x):
    """x, which must be a list: a string would read as its characters."""
    if not isinstance(x, list):
        raise TypeError(f"{x!r} is not a list")
    return x


def _check_weights(kind, weights):
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"non-finite {kind} weight")
    if np.any(w <= 0):
        raise ValueError(f"non-positive {kind} weight")


# ----------------------------------------------------------------------

class Edge(NamedTuple):
    src: int
    dst: int
    label: tuple
    weight: float


class Face(NamedTuple):
    steps: tuple          # ((edge_id, sign), ...)
    weight: float


class WordIndex(NamedTuple):
    """The distinct deck words of a mesh (edge labels, then generators, then
    face prefix words), their ids per edge and per generator, and the face
    walks padded with sign-0 steps: step j of face f crosses edge face_eid
    with sign face_sign, and rho(words[face_word]) carries it to face_base."""
    words: tuple
    edge_word: np.ndarray
    gen_word: np.ndarray
    face_eid: np.ndarray
    face_sign: np.ndarray
    face_word: np.ndarray
    face_base: np.ndarray


@dataclass
class CoverMesh:
    generators: tuple
    relations: tuple
    vertex_weights: np.ndarray
    edges: list
    faces: list
    meta: dict = field(default_factory=dict)

    @property
    def nv(self):
        return len(self.vertex_weights)

    @property
    def ne(self):
        return len(self.edges)

    @property
    def nf(self):
        return len(self.faces)

    @cached_property
    def word_index(self):
        """WordIndex of the mesh, built on first use."""
        words = {}

        def word_id(w):
            return words.setdefault(w, len(words))

        edge_word = np.array([word_id(e.label) for e in self.edges], dtype=int)
        gen_word = np.array([word_id((g,)) for g in self.generators], dtype=int)
        L = max((len(f.steps) for f in self.faces), default=0)
        eid, sign, prefix = (np.zeros((self.nf, L), dtype=int) for _ in range(3))
        base = np.zeros(self.nf, dtype=int)
        for fi, face in enumerate(self.faces):
            e0, s0 = face.steps[0]
            base[fi] = self.edges[e0].src if s0 > 0 else self.edges[e0].dst
            word = ()
            for j, (e, s) in enumerate(face.steps):
                lab = self.edges[e].label
                if s > 0:
                    h, word = word, reduce_word(word + lab)
                else:
                    word = h = reduce_word(word + invert_word(lab))
                eid[fi, j], sign[fi, j], prefix[fi, j] = e, s, word_id(h)
        return WordIndex(tuple(words), edge_word, gen_word, eid, sign, prefix,
                         base)

    def face_word(self, face):
        """Deck word read along the boundary walk of a face."""
        word = []
        for eid, sign in face.steps:
            lab = self.edges[eid].label
            word.extend(lab if sign > 0 else invert_word(lab))
        return tuple(word)

    def check(self):
        """Structural invariants: distinct generators, relations over them,
        ranges, finite positive weights, step chains, face words."""
        gens = self.generators
        if len(set(gens)) != len(gens) or not all(isinstance(g, str) for g in gens):
            raise ValueError(f"generators {gens} are not distinct strings")
        for rel in self.relations:
            if any(token_base(tok) not in gens for tok in rel):
                raise ValueError(f"relation {word_text(rel)!r} is not a generator word")
        _check_weights("vertex", self.vertex_weights)
        _check_weights("edge", [e.weight for e in self.edges])
        _check_weights("face", [f.weight for f in self.faces])
        if abs(float(np.sum(self.vertex_weights)) - 1.0) > 1e-9:
            raise ValueError("vertex weights do not sum to 1")
        for e in self.edges:
            if not (0 <= e.src < self.nv and 0 <= e.dst < self.nv):
                raise ValueError(f"edge {e.src} -> {e.dst} leaves the {self.nv} vertices")
            if any(token_base(tok) not in self.generators for tok in e.label):
                raise ValueError(f"edge label {word_text(e.label)!r} is not a generator word")
        for f in self.faces:
            if not f.steps:
                raise ValueError("face has no steps")
            for eid, sign in f.steps:
                if not 0 <= eid < self.ne or sign not in (1, -1):
                    raise ValueError(f"face step ({eid}, {sign}) is not (edge id, +1 or -1)")
            for (eid, sign), (eid2, sign2) in zip(f.steps, f.steps[1:] + f.steps[:1]):
                a = self.edges[eid]
                b = self.edges[eid2]
                end = a.dst if sign > 0 else a.src
                start = b.src if sign2 > 0 else b.dst
                if end != start:
                    raise ValueError("face boundary walk is not a closed chain")
            if not is_relator_or_identity(self.face_word(f), self.relations):
                raise ValueError(f"face word {self.face_word(f)} is not a relator")
        return True

    # ------------------------------------------------------------------
    def to_json(self):
        return json.dumps({
            "generators": list(self.generators),
            "relations": [word_text(r) for r in self.relations],
            "vertex_weights": [float(w) for w in self.vertex_weights],
            "edges": [{"src": e.src, "dst": e.dst,
                       "label": word_text(e.label), "weight": e.weight}
                      for e in self.edges],
            "faces": [{"steps": [[eid, sign] for eid, sign in f.steps],
                       "weight": f.weight} for f in self.faces],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"mesh JSON does not parse: {exc}") from exc
        try:
            mesh = cls(
                generators=tuple(_as_list(data["generators"])),
                relations=tuple(parse_word(r) for r in _as_list(data["relations"])),
                vertex_weights=np.array([as_real(w) for w in data["vertex_weights"]]),
                edges=[Edge(as_integer(e["src"]), as_integer(e["dst"]),
                            parse_word(e["label"]), as_real(e["weight"]))
                       for e in data["edges"]],
                faces=[Face(tuple((as_integer(a), as_integer(b)) for a, b in f["steps"]),
                            as_real(f["weight"])) for f in data["faces"]],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"mesh JSON has wrong shape: {exc}") from exc
        mesh.check()
        return mesh


# ----------------------------------------------------------------------

#: most cells (vertices + edges + faces) a built mesh may have, far above the
#: finest meshes the lab studies (genus-2 k = 6: 49 150; torus 96 x 96: 36 864)
MAX_CELLS = 10 ** 6


def _within_budget(cells, name):
    """Refuse the mesh called name when its cells, counted from the build
    function's arguments before any cell is built, are more than MAX_CELLS."""
    if cells > MAX_CELLS:
        raise ValueError(f"{name} has more than {MAX_CELLS} cells "
                         f"(vertices, edges and faces)")


def build_circle(n):
    """Cycle mesh for Gamma = Z at unit circumference: w0 = 1/n, w1 = n."""
    if n < 3:
        raise ValueError("circle mesh needs n >= 3")
    _within_budget(2 * n, f"circle mesh n = {n}")
    edges = []
    for i in range(n):
        label = ("a",) if i == n - 1 else ()
        edges.append(Edge(i, (i + 1) % n, label, float(n)))
    return CoverMesh(
        generators=("a",),
        relations=(),
        vertex_weights=np.full(n, 1.0 / n),
        edges=edges,
        faces=[],
        meta={"kind": "circle", "n": n},
    )


def build_torus(n, m):
    """Flat unit-square torus, n x m grid; relator a b a^-1 b^-1."""
    if n < 3 or m < 3:
        raise ValueError("torus mesh needs n, m >= 3")
    _within_budget(4 * n * m, f"torus mesh {n} x {m}")

    def vid(i, j):
        return (i % n) + n * (j % m)

    edges = []
    # horizontal edges first (ids i + n*j), then vertical (n*m + i + n*j)
    for j in range(m):
        for i in range(n):
            label = ("a",) if i == n - 1 else ()
            edges.append(Edge(vid(i, j), vid(i + 1, j), label, n / m))
    for j in range(m):
        for i in range(n):
            label = ("b",) if j == m - 1 else ()
            edges.append(Edge(vid(i, j), vid(i, j + 1), label, m / n))

    faces = []
    for j in range(m):
        for i in range(n):
            steps = ((vid(i, j), +1), (n * m + vid(i + 1, j), +1),
                     (vid(i, j + 1), -1), (n * m + vid(i, j), -1))
            faces.append(Face(steps, float(n * m)))

    return CoverMesh(
        generators=("a", "b"),
        relations=(("a", "b", "A", "B"),),
        vertex_weights=np.full(n * m, 1.0 / (n * m)),
        edges=edges,
        faces=faces,
        meta={"kind": "torus", "n": n, "m": m},
    )


# ----------------------------------------------------------------------
# genus 2: the regular hyperbolic octagon, refined on the quotient
#
# A face is three corner lifts (class, deck word w, disk point z), the lift
# being w . (representative of the class), and one key per side i -> i+1;
# faces sharing a quotient edge share its key.


def _corner_words():
    """Deck word of every octagon corner relative to corner 0 (BFS)."""
    words = {0: ()}
    rels = hyp.corner_relations()
    frontier = [0]
    while frontier:
        nxt = []
        for tok, s, d in rels:
            if s in words and d not in words:
                words[d] = (tok,) + words[s]
                nxt.append(d)
            if d in words and s not in words:
                words[s] = (flip_token(tok),) + words[d]
                nxt.append(s)
        frontier = nxt
    assert len(words) == 8
    return {k: reduce_word(w) for k, w in words.items()}


@cache
def _deck_maps():
    """SU(1,1) matrix of every generator token and of its inverse."""
    maps = hyp.side_pairings()
    return {**maps, **{flip_token(g): np.linalg.inv(m) for g, m in maps.items()}}


def _deck_apply(word, z):
    for tok in reversed(word):
        z = hyp.mobius_apply(_deck_maps()[tok], z)
    return z


def _octagon_fan():
    """Level 1: the 16 triangles center - corner - side midpoint; returns
    the class count and faces.  Classes: the corners 0, the center 1, the
    midpoints of primary side p and of its pair 2 + PRIMARY_SIDES.index(p).
    The pair's midpoint is the deck image of p's, and the pairing reverses
    the side, so the pair's half at its first corner is p's second half."""
    corners = hyp.octagon_corners()
    words = _corner_words()
    corner = [(0, words[c], z) for c, z in enumerate(corners)]
    mid, halves = {}, {}
    for i, p in enumerate(hyp.PRIMARY_SIDES):
        q = hyp.PAIR_OF[p]
        z = hyp.geodesic_midpoint(corners[p], corners[(p + 1) % 8])
        w = hyp.secondary_point_word(p)
        mid[p], mid[q] = (2 + i, (), z), (2 + i, w, _deck_apply(w, z))
        halves[p], halves[q] = ((p, 0), (p, 1)), ((p, 1), (p, 0))
    center = (1, (), 0j)
    faces = []
    for c in range(8):
        nxt = (c + 1) % 8
        faces.append(((center, corner[c], mid[c]),
                      (("spoke", c), halves[c][0], ("radius", c))))
        faces.append(((center, mid[c], corner[nxt]),
                      (("radius", c), halves[c][1], ("spoke", nxt))))
    return 6, faces


def _refine(nv, faces):
    """Split every face 1-to-4; returns the new class count and faces.

    Quotient edges are numbered by first crossing, and the midpoint of edge e
    is class nv + e.  It is made at e's first crossing, as the geodesic
    midpoint of that face's corner lifts (word ()).  A later crossing carries
    it by the deck word that moves an end's first lift onto its lift there,
    read at both ends (the two agree in the group) and the shorter kept.  A
    half of e is keyed by (e, its end's class) and an inner edge by (face,
    the corner it faces), so no two words are ever compared."""
    mids = {}                # side key -> (class, {end class: first word}, z)
    out = []
    for fi, (lifts, keys) in enumerate(faces):
        m = []
        for s, key in enumerate(keys):
            a, b = lifts[s], lifts[(s + 1) % 3]
            if key not in mids:
                mids[key] = (nv + len(mids), {a[0]: a[1], b[0]: b[1]},
                             hyp.geodesic_midpoint(a[2], b[2]))
                word = ()
            else:
                first = mids[key][1]
                word = reduce_word(a[1] + invert_word(first[a[0]]))
                if word:
                    word = min(word, reduce_word(b[1] + invert_word(first[b[0]])),
                               key=len)
            cls, _, z = mids[key]
            m.append((cls, word, _deck_apply(word, z)))
        P, Q, R = lifts
        mPQ, mQR, mRP = m
        ePQ, eQR, eRP = (mids[key][0] - nv for key in keys)
        out += [((P, mPQ, mRP), ((ePQ, P[0]), (fi, "P"), (eRP, P[0]))),
                ((mPQ, Q, mQR), ((ePQ, Q[0]), (eQR, Q[0]), (fi, "Q"))),
                ((mRP, mQR, R), ((fi, "R"), (eQR, R[0]), (eRP, R[0]))),
                ((mPQ, mQR, mRP), ((fi, "Q"), (fi, "R"), (fi, "P")))]
    return nv + len(mids), out


def build_genus2(k=1):
    """Genus-2 mesh: the 16-triangle octagon fan, each face split 1-to-4
    k-1 times on the quotient (``_refine``).

    One pass over the last level's faces assembles the mesh.  At its first
    crossing a -> b an edge is added as class(a) -> class(b) with deck word
    w_a^-1 w_b.  No edge joins two vertices of one class, so a step crosses
    its edge with sign +1 exactly when the edge's source class is the
    step's first class.

    Vertex and edge weights come from hyperbolic triangle areas and edge
    lengths (length-squared weights), normalized to total measure 1.
    """
    if k < 1:
        raise ValueError("subdivision depth must be >= 1")
    # 16 4^(k-1) faces, 3/2 as many edges and, by Euler's formula at genus 2,
    # E - F - 2 vertices; depth 20 is already over the budget, so a deeper
    # one is counted as depth 20
    _within_budget(48 * 4 ** (min(k, 20) - 1) - 2, f"genus2 mesh k = {k}")
    nv, tris = _octagon_fan()
    for _ in range(k - 1):
        nv, tris = _refine(nv, tris)
    edge_ids = {}
    edges = []                   # [src, dst, label, area, length]
    vertex_area = np.zeros(nv)
    faces = []
    total_area = 0.0
    for lifts, keys in tris:
        A = hyp.triangle_area(*(z for _, _, z in lifts))
        total_area += A
        for cls, _, _ in lifts:
            vertex_area[cls] += A / 3.0
        steps = []
        for s, key in enumerate(keys):
            (ca, wa, za), (cb, wb, zb) = lifts[s], lifts[(s + 1) % 3]
            eid = edge_ids.setdefault(key, len(edges))
            if eid == len(edges):
                edges.append([ca, cb, reduce_word(invert_word(wa) + wb), 0.0,
                              hyp.dist_disk(za, zb)])
            edges[eid][3] += A / 3.0
            steps.append((eid, +1 if edges[eid][0] == ca else -1))
        faces.append((tuple(steps), A))

    edge_list = [Edge(s, d, lab, (area / (length ** 2)) / total_area)
                 for (s, d, lab, area, length) in edges]
    face_list = [Face(steps, total_area / A) for steps, A in faces]

    return CoverMesh(
        generators=("a1", "b1", "a2", "b2"),
        relations=(("a1", "b1", "A1", "B1", "a2", "b2", "A2", "B2"),),
        vertex_weights=vertex_area / total_area,
        edges=edge_list,
        faces=face_list,
        meta={"kind": "genus2", "k": k, "total_area": total_area},
    )
