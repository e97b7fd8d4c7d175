"""Fundamental-domain cell complexes with deck-transformation labels.

A CoverMesh stores the quotient complex of a closed manifold: weighted
vertices, oriented weighted edges carrying a deck word (empty for interior
edges), and faces given by boundary walks of signed edge steps.  An edge
u -> v with word w means that the lift of the edge at the chosen lift of u
ends at w . (chosen lift of v).

``CoverMesh.word_index`` lists, each once, the deck words that the flow
kernel and the twisted complex read, with the stacked face boundary walks.

Builders: the circle (Gamma = Z), the flat torus (Z^2) and the genus-2
surface discretized as a subdivided regular hyperbolic octagon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
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
        """Structural invariants: ranges, weights, step chains, face words."""
        if abs(float(np.sum(self.vertex_weights)) - 1.0) > 1e-9:
            raise ValueError("vertex weights do not sum to 1")
        if np.any(self.vertex_weights <= 0):
            raise ValueError("non-positive vertex weight")
        for e in self.edges:
            if not (0 <= e.src < self.nv and 0 <= e.dst < self.nv):
                raise ValueError(f"edge {e.src} -> {e.dst} leaves the {self.nv} vertices")
            if any(token_base(tok) not in self.generators for tok in e.label):
                raise ValueError(f"edge label {word_text(e.label)!r} is not a generator word")
            if e.weight <= 0:
                raise ValueError("non-positive edge weight")
        for f in self.faces:
            if f.weight <= 0:
                raise ValueError("non-positive face weight")
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
                generators=tuple(data["generators"]),
                relations=tuple(parse_word(r) for r in data["relations"]),
                vertex_weights=np.asarray(data["vertex_weights"], dtype=float),
                edges=[Edge(int(e["src"]), int(e["dst"]),
                            parse_word(e["label"]), float(e["weight"]))
                       for e in data["edges"]],
                faces=[Face(tuple((int(a), int(b)) for a, b in f["steps"]),
                            float(f["weight"])) for f in data["faces"]],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"mesh JSON has wrong shape: {exc}") from exc
        mesh.check()
        return mesh


# ----------------------------------------------------------------------

def build_circle(n):
    """Cycle mesh for Gamma = Z at unit circumference: w0 = 1/n, w1 = n."""
    if n < 3:
        raise ValueError("circle mesh needs n >= 3")
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
# genus 2: subdivided regular hyperbolic octagon

class _DomainVertex(NamedTuple):
    z: complex
    kind: str          # "interior" | "boundary" | "corner"
    side: int          # boundary: side index; corner: corner index
    t: float           # boundary: dyadic parameter along the side


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


_PRIMARY_OF = {q: p for p, q in hyp.PAIR_OF.items()}


def _primary_point(side, t):
    """(primary side, parameter) of the point at t on `side`: the point at t
    on a secondary side is the pairing image of the primary point at 1 - t."""
    if side in _PRIMARY_OF:
        return _PRIMARY_OF[side], 1.0 - t
    return side, t


class _OctagonComplex:
    """Geometric octagon triangulation plus quotient bookkeeping.

    Boundary points live once, in a table keyed by (primary side, t) and
    seeded with the corners at t = 0 and t = 1.  A new boundary point is the
    geodesic midpoint of its two parents' table points; on a secondary side
    the side pairing carries it across."""

    def __init__(self, depth):
        self.verts = []          # _DomainVertex records
        self._mid = {}           # unordered vertex pair -> midpoint
        self._side_z = {}        # (primary side, t) -> point of that side
        corners = hyp.octagon_corners()
        # per primary side p: the deck map carrying side p onto its pair
        maps = hyp.side_pairings()
        self._pair_map = {}
        for p in hyp.PRIMARY_SIDES:
            name = hyp.SIDE_LABELS[p]
            g = maps[name]
            self._pair_map[p] = np.linalg.inv(g) if name.startswith("a") else g
            self._side_z[p, 0.0] = corners[p]
            self._side_z[p, 1.0] = corners[(p + 1) % 8]
        self.corner_ids = [self._add(_DomainVertex(z, "corner", k, 0.0))
                           for k, z in enumerate(corners)]
        center = self._add(_DomainVertex(0j, "interior", -1, 0.0))
        mids = [self._midpoint(self.corner_ids[k], self.corner_ids[(k + 1) % 8])
                for k in range(8)]
        tris = []
        for k in range(8):
            tris.append((center, self.corner_ids[k], mids[k]))
            tris.append((center, mids[k], self.corner_ids[(k + 1) % 8]))
        for _ in range(depth - 1):
            tris = self._subdivide(tris)
        self.triangles = tris

    # -- vertex store ---------------------------------------------------
    def _add(self, v):
        self.verts.append(v)
        return len(self.verts) - 1

    # -- subdivision ----------------------------------------------------
    def boundary_edge(self, i, j):
        """(side, t_i, t_j) of the domain edge i-j if it lies on the octagon
        boundary, else None.  Corner k is side k at t = 0 and side k - 1 at
        t = 1."""
        def on_sides(v):
            if v.kind == "corner":
                return {v.side: 0.0, (v.side - 1) % 8: 1.0}
            return {v.side: v.t} if v.kind == "boundary" else {}

        a, b = on_sides(self.verts[i]), on_sides(self.verts[j])
        common = a.keys() & b.keys()
        if not common:
            return None
        side = common.pop()
        return side, a[side], b[side]

    def _midpoint(self, i, j):
        """Midpoint of the domain edge i-j, made once per edge: the two
        triangles on an interior edge share it."""
        key = (min(i, j), max(i, j))
        if key not in self._mid:
            edge = self.boundary_edge(i, j)
            if edge is None:
                z = hyp.geodesic_midpoint(self.verts[i].z, self.verts[j].z)
                v = _DomainVertex(z, "interior", -1, 0.0)
            else:
                side, ti, tj = edge
                t = 0.5 * (ti + tj)
                p, tp = _primary_point(side, t)
                if (p, tp) not in self._side_z:
                    self._side_z[p, tp] = hyp.geodesic_midpoint(
                        self._side_z[_primary_point(side, ti)],
                        self._side_z[_primary_point(side, tj)])
                z = self._side_z[p, tp]
                if p != side:
                    z = hyp.mobius_apply(self._pair_map[p], z)
                v = _DomainVertex(z, "boundary", side, t)
            self._mid[key] = self._add(v)
        return self._mid[key]

    def _subdivide(self, tris):
        out = []
        for (p, q, r) in tris:
            mpq = self._midpoint(p, q)
            mqr = self._midpoint(q, r)
            mrp = self._midpoint(r, p)
            out.extend([(p, mpq, mrp), (mpq, q, mqr),
                        (mrp, mqr, r), (mpq, mqr, mrp)])
        return out

    # -- quotient -------------------------------------------------------
    def quotient_class_key(self, i):
        v = self.verts[i]
        if v.kind == "corner":
            return ("corner",)
        if v.kind == "boundary":
            return ("boundary",) + _primary_point(v.side, v.t)
        return ("interior", i)

    def delta_word(self, i, corner_words):
        """Deck word w with  position(i) = w . position(representative)."""
        v = self.verts[i]
        if v.kind == "corner":
            return corner_words[v.side]
        if v.kind == "boundary" and v.side in _PRIMARY_OF:
            return hyp.secondary_point_word(_PRIMARY_OF[v.side])
        return ()


def build_genus2(k=1):
    """Genus-2 mesh from the regular hyperbolic octagon, subdivided k-1 times.

    One pass over the domain triangles builds the quotient.  Each triangle
    side is looked up by its edge key (identified octagon sides share one);
    at its first crossing i -> j the edge is added as qv[i] -> qv[j] with
    deck word delta(i)^-1 delta(j).  No domain edge joins two vertices of
    one class, so a step i -> j crosses its edge with sign +1 exactly when
    the edge's source class is qv[i].  Subdivision makes the midpoint of a
    domain edge once, keyed by its vertex pair; a boundary midpoint is made
    from its two parents' points on the primary side.

    Vertex and edge weights come from hyperbolic triangle areas and edge
    lengths (length-squared weights), normalized to total measure 1.
    """
    if k < 1:
        raise ValueError("subdivision depth must be >= 1")
    octo = _OctagonComplex(k)
    corner_words = _corner_words()
    class_of = {}
    qv = [class_of.setdefault(octo.quotient_class_key(i), len(class_of))
          for i in range(len(octo.verts))]
    deltas = [octo.delta_word(i, corner_words) for i in range(len(octo.verts))]

    # identified boundary edges share a key
    def edge_key(i, j):
        edge = octo.boundary_edge(i, j)
        if edge is None:
            return ("interior", min(i, j), max(i, j))
        side, ti, tj = edge
        (p, ti), (_, tj) = _primary_point(side, ti), _primary_point(side, tj)
        return ("boundary", p, min(ti, tj), max(ti, tj))

    edge_ids = {}
    edges = []                   # [src, dst, label, area, length]
    vertex_area = np.zeros(len(class_of))
    faces = []
    total_area = 0.0
    for (p, q, r) in octo.triangles:
        zp, zq, zr = octo.verts[p].z, octo.verts[q].z, octo.verts[r].z
        A = hyp.triangle_area(zp, zq, zr)
        total_area += A
        for i in (p, q, r):
            vertex_area[qv[i]] += A / 3.0
        steps = []
        for (i, j) in ((p, q), (q, r), (r, p)):
            eid = edge_ids.setdefault(edge_key(i, j), len(edges))
            if eid == len(edges):
                edges.append([qv[i], qv[j],
                              reduce_word(invert_word(deltas[i]) + deltas[j]),
                              0.0, hyp.dist_disk(octo.verts[i].z, octo.verts[j].z)])
            edges[eid][3] += A / 3.0
            steps.append((eid, +1 if edges[eid][0] == qv[i] else -1))
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
