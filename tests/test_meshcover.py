import collections
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivarlab import meshcover as mc
from equivarlab import repvar as rv
import reference as ref


def test_word_utilities():
    w = mc.parse_word("a b A1")
    assert w == ("a", "b", "A1")
    assert mc.invert_word(w) == ("a1", "B", "A")
    assert mc.reduce_word(("a", "A", "b")) == ("b",)
    assert mc.cyclic_reduce(("b", "a", "B")) == ("a",)
    assert mc.word_text(w) == "a b A1"


def test_circle_counts_and_weights():
    m = mc.build_circle(4)
    m.check()
    assert m.nv == 4 and m.ne == 4 and m.nf == 0
    assert sum(1 for e in m.edges if e.label) == 1
    assert abs(float(np.sum(m.vertex_weights)) - 1.0) < 1e-12
    m2 = mc.build_circle(8)
    assert abs(float(np.sum(m2.vertex_weights)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        mc.build_circle(2)


def test_torus_counts_and_face_words():
    n, m_ = 5, 4
    mesh = mc.build_torus(n, m_)
    mesh.check()
    assert mesh.ne == 2 * n * m_
    assert mesh.nf == n * m_
    words = {mc.reduce_word(mesh.face_word(f)) for f in mesh.faces}
    assert words == {(), ("a", "b", "A", "B")}
    with pytest.raises(ValueError):
        mc.build_torus(2, 5)


@pytest.mark.parametrize("build, args", [
    (mc.build_circle, (3,)), (mc.build_circle, (11,)), (mc.build_torus, (3, 5)),
    (mc.build_torus, (6, 6)), (mc.build_genus2, (1,)), (mc.build_genus2, (3,))])
def test_cell_budget_counts_the_built_cells(monkeypatch, build, args):
    # the budget counts nv + ne + nf from the arguments, before the mesh is
    # built: a budget of exactly that many cells admits the mesh, one less
    # refuses it
    mesh = build(*args)
    cells = mesh.nv + mesh.ne + len(mesh.faces)
    monkeypatch.setattr(mc, "MAX_CELLS", cells)
    assert build(*args).nv == mesh.nv
    monkeypatch.setattr(mc, "MAX_CELLS", cells - 1)
    with pytest.raises(ValueError, match=f"has more than {cells - 1} cells"):
        build(*args)


def test_torus_label_consistency_under_rep(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.3 + 0.2j, 0.1 - 0.4j)
    eye = np.eye(2)
    for f in torus66.faces:
        g = ref.rho_word(rep, torus66.face_word(f))
        assert np.abs(g - eye).max() < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_genus2_structure(k):
    mesh = mc.build_genus2(k)
    mesh.check()
    assert mesh.nv - mesh.ne + mesh.nf == -2      # Euler characteristic
    assert abs(mesh.meta["total_area"] - 4.0 * np.pi) < 1e-8  # Gauss-Bonnet
    assert abs(float(np.sum(mesh.vertex_weights)) - 1.0) < 1e-12
    # the face step signs rest on it: no edge joins two vertices of one class
    assert all(e.src != e.dst for e in mesh.edges)


@pytest.mark.parametrize("k, digest, area_hex", [
    (1, "821c942631259c78c57cb57b27c611c09b14decfdad82266494075ff5fab549d",
     "0x1.921fb54442d16p+3"),
    (2, "f5cf7e6a51b0559c73eaa184e237c630800f752a11a54498894fbabb57e6c698",
     "0x1.921fb54442d14p+3"),
    (3, "ba4ed6962f274fb22d823d1c1ea239ecee6b696829232989cd9fe4e80403e61d",
     "0x1.921fb54442d12p+3"),
    (4, "8bddeaa632a7165162a9f7b7f4c997018115fb94b741ee1ebcb751d40fe8bcf4",
     "0x1.921fb54442d19p+3"),
    (5, "9fe54594ea4136e267534b8cda628e582e207ba2481fad5bdef9049e93842ca5",
     "0x1.921fb54442cfbp+3"),
])
def test_genus2_mesh_is_pinned(k, digest, area_hex):
    # every genus-2 report, golden and bench figure reads these meshes; a
    # change to them is a change of discretization and moves all of those
    mesh = mc.build_genus2(k)
    assert hashlib.sha256(mesh.to_json().encode()).hexdigest() == digest
    assert mesh.meta["total_area"].hex() == area_hex


def test_genus2_paired_side_words():
    # secondary-side boundary points carry single-generator deck words,
    # mutually inverse between the a-type and b-type pairing conventions
    from equivarlab import hyperbolic as hyp
    for p in hyp.PRIMARY_SIDES:
        w = hyp.secondary_point_word(p)
        assert len(w) == 1
        name = hyp.SIDE_LABELS[p]
        if name.startswith("a"):
            assert w[0] == name[0].upper() + name[1:]
        else:
            assert w[0] == name


def test_genus2_fuchsian_relator(sl2r, genus2):
    rep = rv.genus2_fuchsian_rep(sl2r, genus2)
    assert max(rep.relator_residuals()) < 1e-8
    for f in genus2.faces:
        g = ref.rho_word(rep, genus2.face_word(f))
        assert np.abs(g - np.eye(2)).max() < 1e-10


def test_genus2_refinement_preserves_group_and_weight():
    # level k + 1 splits every face of level k 1-to-4: level k's classes come
    # first, no edge joins two of them, and the midpoint of level-k edge
    # e = (u -> v, w) is class nv_k + e, joined to u and to v by one edge
    # each, whose words read u -> m -> v reduce to w
    meshes = [mc.build_genus2(k) for k in range(1, 6)]
    for m1, m2 in zip(meshes, meshes[1:]):
        assert m1.generators == m2.generators
        assert m1.relations == m2.relations
        assert abs(float(np.sum(m2.vertex_weights)) - 1.0) < 1e-12
        assert m2.nf == 4 * m1.nf
        assert m2.nv == m1.nv + m1.ne
        words = collections.defaultdict(list)    # (a, b) -> words read a -> b
        for e in m2.edges:
            assert max(e.src, e.dst) >= m1.nv
            words[e.src, e.dst].append(e.label)
            words[e.dst, e.src].append(mc.invert_word(e.label))
        for mid, e in enumerate(m1.edges, start=m1.nv):
            (first,), (second,) = words[e.src, mid], words[mid, e.dst]
            assert mc.reduce_word(first + second) == e.label


def test_gram_scaling_under_refinement():
    # w0 ~ cell volume, w1 ~ volume / length^2: refinement n -> 2n scales
    # vertex weights by 1/4 and keeps flat-torus edge weights fixed
    m1, m2 = mc.build_torus(4, 4), mc.build_torus(8, 8)
    assert abs(m1.vertex_weights[0] / m2.vertex_weights[0] - 4.0) < 1e-12
    assert abs(m1.edges[0].weight - m2.edges[0].weight) < 1e-12
    assert abs(m2.faces[0].weight / m1.faces[0].weight - 4.0) < 1e-12


def test_mesh_json_roundtrip(genus2):
    text = genus2.to_json()
    mesh = mc.CoverMesh.from_json(text)
    mesh.check()
    assert mesh.nv == genus2.nv and mesh.ne == genus2.ne and mesh.nf == genus2.nf
    assert mesh.to_json() == text


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["circle", "torus", "genus2"]), n=st.integers(3, 9),
       m=st.integers(3, 9), k=st.integers(1, 3))
def test_builder_mesh_json_round_trip(kind, n, m, k):
    # every builder mesh passes check() and reads back to the same JSON
    mesh = {"circle": lambda: mc.build_circle(n),
            "torus": lambda: mc.build_torus(n, m),
            "genus2": lambda: mc.build_genus2(k)}[kind]()
    assert mesh.check()
    text = mesh.to_json()
    assert mc.CoverMesh.from_json(text).to_json() == text


#: (mesh, JSON path, value, error): one corrupted entry of the torus 3x3 or
#: circle 4 mesh, and the words of the ValueError that refuses it.  Each got
#: past from_json's checks once, into a traceback, scipy's message or a
#: silent misread (a sign-0 step is the padding of the stacked face walks)
MESH_CORRUPTIONS = [
    ("torus", ("faces", 0, "steps", 0, 0), 99, "face step (99, 1)"),
    ("torus", ("faces", 0, "steps", 2, 1), 0, "face step (3, 0)"),
    ("torus", ("faces", 0, "steps"), [], "face has no steps"),
    ("torus", ("edges", 0, "label"), 5, "a word is a string"),
    ("circle", ("edges", 0, "label"), "z", "edge label 'z' is not a generator word"),
    ("circle", ("edges", 0, "dst"), 99, "edge 0 -> 99 leaves the 4 vertices"),
    ("circle", ("edges", 0, "dst"), -1, "edge 0 -> -1 leaves the 4 vertices"),
    ("circle", ("vertex_weights", 0), 0.5, "vertex weights do not sum to 1"),
    ("circle", ("vertex_weights",), [0.5, 0.5, 0.25, -0.25], "non-positive vertex weight"),
    ("circle", ("edges", 0, "weight"), 0.0, "non-positive edge weight"),
    ("torus", ("faces", 0, "steps", 0, 0), 1, "face boundary walk is not a closed chain"),
    ("torus", ("vertex_weights", 0), float("nan"), "non-finite vertex weight"),
    ("torus", ("edges", 0, "weight"), float("nan"), "non-finite edge weight"),
    ("torus", ("faces", 0, "weight"), float("nan"), "non-finite face weight"),
    ("torus", ("edges", 0, "weight"), float("inf"), "non-finite edge weight"),
    ("torus", ("faces", 0, "weight"), float("inf"), "non-finite face weight"),
    ("circle", ("edges", 0, "src"), 0.7, "0.7 is not an integer"),
    ("torus", ("faces", 0, "steps", 0, 1), 1.5, "1.5 is not an integer"),
    ("circle", ("edges", 0, "weight"), "3", "'3' is not a number"),
    ("circle", ("edges", 0, "weight"), True, "True is not a number"),
    ("circle", ("vertex_weights", 0), "0.25", "'0.25' is not a number"),
    ("torus", ("generators",), "ab", "'ab' is not a list"),
    ("circle", ("relations",), "a", "'a' is not a list"),
    ("torus", ("generators",), ["a", "b", "a"], "are not distinct strings"),
    ("torus", ("relations",), ["a b A B", "z"], "relation 'z' is not a generator word"),
    ("circle", ("edges", 0, "src"), float("inf"), "inf is not an integer"),
    ("torus", ("faces", 0, "steps", 0, 1), float("inf"), "inf is not an integer"),
    ("circle", ("edges", 0, "weight"), 10 ** 400, "number out of the float range"),
]
MESH_CORRUPTION_IDS = ["step-edge-id", "step-sign", "empty-face",
                       "label-not-a-string", "label-not-a-generator", "dst-too-large",
                       "dst-negative", "weights-not-summing-to-1", "vertex-weight-negative",
                       "edge-weight-zero", "open-face-walk", "vertex-weight-nan",
                       "edge-weight-nan", "face-weight-nan", "edge-weight-inf",
                       "face-weight-inf", "src-fraction", "step-sign-fraction",
                       "weight-string", "weight-bool", "vertex-weight-string",
                       "generators-string", "relations-string", "generators-repeated",
                       "relation-not-a-generator-word", "src-inf", "step-sign-inf",
                       "edge-weight-overflow"]


def corrupted_mesh_json(mesh_name, path, value):
    mesh = mc.build_torus(3, 3) if mesh_name == "torus" else mc.build_circle(4)
    data = json.loads(mesh.to_json())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(data)


@pytest.mark.parametrize("mesh_name, path, value, error", MESH_CORRUPTIONS,
                         ids=MESH_CORRUPTION_IDS)
def test_mesh_json_corruption_refused(mesh_name, path, value, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        mc.CoverMesh.from_json(corrupted_mesh_json(mesh_name, path, value))


def test_mesh_json_malformed():
    with pytest.raises(ValueError):
        mc.CoverMesh.from_json("{not json")
    with pytest.raises(ValueError):
        mc.CoverMesh.from_json('{"generators": ["a"]}')


def test_face_chain_validation():
    mesh = mc.build_torus(3, 3)
    bad = mc.CoverMesh(mesh.generators, mesh.relations, mesh.vertex_weights,
                       mesh.edges,
                       [mc.Face(((0, 1), (1, 1), (2, 1)), 1.0)])
    with pytest.raises(ValueError):
        bad.check()


def test_gram_data_accessor(torus66, genus2):
    # the diagonal mass data of the builders is strictly positive; its
    # refinement scaling is test_gram_scaling_under_refinement
    for mesh in (torus66, genus2):
        assert np.min(mesh.vertex_weights) > 0
        assert min(e.weight for e in mesh.edges) > 0
        assert min(f.weight for f in mesh.faces) > 0


def test_mesh_json_rejects_a_negative_face_weight(torus66):
    data = json.loads(torus66.to_json())
    data["faces"][3]["weight"] = -2.0
    with pytest.raises(ValueError, match="non-positive face weight"):
        mc.CoverMesh.from_json(json.dumps(data))
