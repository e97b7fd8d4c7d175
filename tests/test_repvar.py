import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivarlab import meshcover as mc
from equivarlab import repvar as rv
from equivarlab.liealg import MatrixGroup, bracket
import reference as ref
from reference import Jet2, jet2_inv, jet2_mul
from test_symspace import JORDAN3, _conjugated

E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_eval_word_and_empty_cocycle(sl2r, circle8):
    rep = rv.hyperbolic_circle_rep(sl2r, circle8, 2.0)
    g = ref.rho_word(rep, ("a", "a", "A"))
    assert np.abs(g - rep.images["a"]).max() < 1e-12
    c = rv.Cocycle(rep, {"a": np.diag([1.0, -1.0]).astype(complex)})
    assert np.abs(ref.cocycle_word(c, ())).max() == 0.0
    with pytest.raises(KeyError):
        ref.rho_word(rep, ("z",))


def test_coboundary_is_exact_cocycle(sl2c, torus66):
    rng = np.random.default_rng(0)
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    xi = sl2c.random_alg(rng)
    c = rv.coboundary(rep, xi)
    assert c.validate(1e-12)
    # the cocycle law holds on arbitrary words, not only relators
    w = ("a", "b", "A", "b")
    lhs = ref.cocycle_word(c, w)
    g1 = ref.rho_word(rep, w)
    rhs = xi - g1 @ xi @ np.linalg.inv(g1)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_diagonal_family_cocycle(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4, 0.7)
    c = rv.Cocycle(rep, {"a": np.diag([0.2, -0.2]).astype(complex),
                         "b": np.diag([0.5j, -0.5j])})
    assert max(c.relator_residuals()) < 1e-14


def test_jet_residual_levels(sl2r, torus66):
    triv = rv.trivial_rep(sl2r, torus66)
    F = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    c = rv.Cocycle(triv, {"a": E, "b": F})
    jet = rv.Jet2Cocycle(c, {"a": 0 * E, "b": 0 * E})
    assert max(c.relator_residuals()) < 1e-12           # c passes
    assert max(jet.relator_residuals()) > 1.0           # (c,k) fails
    assert c.validate() and not jet.validate()
    expected = 2.0 * np.abs(bracket(E, F)).max()
    assert abs(max(jet.relator_residuals()) - expected) < 1e-12


def test_trivial_jet_condition_is_commutator(sl2r, torus66):
    # for the trivial representation on Z^2, (c, k) is valid iff [c(a), c(b)] = 0
    rng = np.random.default_rng(1)
    triv = rv.trivial_rep(sl2r, torus66)
    for _ in range(5):
        X = sl2r.random_alg(rng)
        lam = rng.standard_normal()
        c_good = rv.Cocycle(triv, {"a": X, "b": lam * X})
        jet = rv.Jet2Cocycle(c_good, {"a": 0 * X, "b": 0 * X})
        assert jet.validate(1e-10)
        Y = sl2r.random_alg(rng)
        if np.abs(bracket(X, Y)).max() > 1e-6:
            c_bad = rv.Cocycle(triv, {"a": X, "b": Y})
            jet_bad = rv.Jet2Cocycle(c_bad, {"a": 0 * X, "b": 0 * X})
            assert not jet_bad.validate(1e-8)
            resid = ref.jet_word(jet_bad, triv.relations[0]).mu
            assert np.abs(resid - 2.0 * bracket(X, Y)).max() < 1e-10


def test_zero_jet_always_passes(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    z = np.zeros((2, 2), dtype=complex)
    c = rv.Cocycle(rep, {"a": z, "b": z})
    jet = rv.Jet2Cocycle(c, {"a": z, "b": z})
    assert jet.validate(1e-15)


def test_jet_reduction(sl2c, torus66):
    # a valid (c, k) restricts to a valid c
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    path = rv.commuting_exp_path(
        rep, {"a": np.diag([1.0, -1.0]).astype(complex),
              "b": np.diag([0.5j, -0.5j])},
        {"a": np.diag([0.3, -0.3]).astype(complex),
         "b": np.diag([0.1, -0.1]).astype(complex)})
    c, k = path.jets()
    assert rv.Jet2Cocycle(c, k).validate(1e-10)
    assert c.validate(1e-10)


def test_path_jets_conjugation(sl2c, torus66):
    rng = np.random.default_rng(2)
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    xi = sl2c.random_alg(rng, 0.4)
    path = rv.conjugation_path(rep, xi)
    c, k = path.jets()
    cob = rv.coboundary(rep, xi)
    for name in rep.generators:
        assert np.abs(c.values[name] - cob.values[name]).max() < 1e-13
    assert rv.Jet2Cocycle(c, k).validate(1e-10)
    # second jet against finite differences of the actual path
    h = 1e-5
    for name in rep.generators:
        gp = path.at(h).images[name]
        gm = path.at(-h).images[name]
        g0 = rep.images[name]
        d1 = (gp - gm) / (2 * h) @ np.linalg.inv(g0)
        d2 = (gp - 2 * g0 + gm) / (h * h) @ np.linalg.inv(g0)
        assert np.abs(d1 - c.values[name]).max() < 1e-8
        assert np.abs(d2 - d1 @ d1 - k[name]).max() < 1e-5


def test_path_jets_axis_family(sl2r, circle8):
    s = 0.8
    rep = rv.exp_family(sl2r, circle8, {"a": np.diag([s, -s]).astype(complex)})
    path = rv.commuting_exp_path(rep, {"a": np.diag([1.0, -1.0]).astype(complex)})
    c, k = path.jets()
    assert np.abs(c.values["a"] - np.diag([1.0, -1.0])).max() < 1e-14
    assert np.abs(k["a"]).max() == 0.0


def test_constant_path_jets(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4, 0.7)
    z = {"a": np.zeros((2, 2), dtype=complex), "b": np.zeros((2, 2), dtype=complex)}
    path = rv.commuting_exp_path(rep, z)
    c, k = path.jets()
    assert np.abs(c.values["a"]).max() == 0.0
    assert np.abs(k["b"]).max() == 0.0


def test_bending_path(sl2c, genus2):
    rep = rv.genus2_fuchsian_rep(sl2c, genus2)
    path = rv.bending_path(rep, 0.4)
    c, k = path.jets()
    assert rv.Jet2Cocycle(c, k).validate(1e-8)
    for t in (0.05, -0.08):
        assert path.at(t).validate(1e-8)
    # bending fixes the first handle
    assert np.abs(c.values["a1"]).max() == 0.0
    assert np.abs(c.values["b1"]).max() == 0.0
    assert np.abs(c.values["a2"]).max() > 1e-3


PATH_TS = (1e-2, -5e-3, 2.5e-3)
PIN_XI = np.array([[0.1 + 0.2j, -0.3 + 0.05j], [0.25j, -0.1 - 0.2j]])
PIN_B = {"a": np.diag([1.0, -1.0]).astype(complex), "b": np.diag([0.5j, -0.5j])}
PIN_C = {"a": np.diag([0.3, -0.3]).astype(complex), "b": np.diag([-0.1, 0.1]).astype(complex)}
#: sha256 of the images at PATH_TS and the jets (c, k), in generator order
PATH_PINS = {
    "commuting_C":
        "c3532cc57215279d624843291727e769752626b8686d8fd2aa279d28c7a64b6f",
    "commuting":
        "3784af852a9d25dae47d86feb13ad7da0fb6517efe89996ae8b311dac1b459f3",
    "conjugation":
        "6d584161fb9de140c1145d38e279b24cda04b0fc8b57c69c41799c02d5fe1753",
    "bend_real":
        "ba3e37b157919e57e95038599f509519f4c1fe17422c3e2eac170fbbddd5c224",
    "bend_imag":
        "ad7062688c0a834c307611390cdb7206a72aed0dfab23b43c01cab9a728bb719",
}


def _path_digest(path):
    digest = hashlib.sha256()
    gens = path.rep0.generators
    for t in PATH_TS:
        images = path.at(t).images
        for name in gens:
            digest.update(np.ascontiguousarray(images[name]).tobytes())
    c, k = path.jets()
    for name in gens:
        digest.update(np.ascontiguousarray(c.values[name]).tobytes())
        digest.update(np.ascontiguousarray(k[name]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("variant", sorted(PATH_PINS))
def test_path_families_are_pinned(variant, sl2c, torus66, genus2):
    # every bit of the images and jets, signs of zero included
    diag = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    fuchsian = rv.genus2_fuchsian_rep(sl2c, genus2)
    path = {
        "commuting_C": lambda: rv.commuting_exp_path(diag, PIN_B, PIN_C),
        "commuting": lambda: rv.commuting_exp_path(diag, PIN_B),
        "conjugation": lambda: rv.conjugation_path(diag, PIN_XI),
        "bend_real": lambda: rv.bending_path(fuchsian, 0.5, imaginary=False),
        "bend_imag": lambda: rv.bending_path(fuchsian, 0.4, imaginary=True),
    }[variant]()
    assert path.at(0.0) is path.rep0
    assert _path_digest(path) == PATH_PINS[variant]


def test_commuting_family_rejects_noncommuting(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4, 0.7)
    with pytest.raises(ValueError):
        rv.commuting_exp_path(rep, {"a": E, "b": E.T.copy()})


def test_cocycle_space_dimensions(sl2r, sl2c, gl1c, circle8, torus66, genus2):
    assert len(rv.cocycle_space_basis(
        rv.hyperbolic_circle_rep(sl2r, circle8))) == 3
    assert len(rv.cocycle_space_basis(
        rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j))) == 8
    assert len(rv.cocycle_space_basis(
        rv.genus2_fuchsian_rep(sl2r, genus2))) == 9
    assert len(rv.cocycle_space_basis(
        rv.torus_gl1c_rep(gl1c, torus66, 0.5, 0.2j))) == 4
    for c in rv.cocycle_space_basis(rv.genus2_fuchsian_rep(sl2r, genus2)):
        assert c.validate(1e-7)


def test_conjugate_carries_exp_family_logs(sl2c, torus66):
    rep = rv.torus_diag_rep(sl2c, torus66, 0.4 + 0.3j, -0.2 + 0.5j)
    B = {"a": np.diag([1.0, -1.0]).astype(complex), "b": np.diag([0.5j, -0.5j])}
    h = np.array([[1.0, 0.7], [0.3j, 1.0 + 0.21j]])
    hinv = np.linalg.inv(h)
    path = rv.commuting_exp_path(rep, B)
    path_h = rv.commuting_exp_path(rep.conjugate(h),
                                   {k: h @ v @ hinv for k, v in B.items()})
    for t in (0.3, -0.5):
        for name in rep.generators:
            want = h @ path.at(t).images[name] @ hinv
            assert np.abs(path_h.at(t).images[name] - want).max() < 1e-12
    assert rv.trivial_rep(sl2c, torus66).conjugate(h).logs is None


# ----------------------------------------------------------------------
# the word table against the per-token evaluations

TABLE_GROUPS = (MatrixGroup("sl", 2, "R"), MatrixGroup("sl", 2, "C"),
                MatrixGroup("sl", 3, "R"), MatrixGroup("gl1c"))
GENS = ("a", "b", "c")


def random_element(group, rng):
    return group.exp(group.random_alg(rng, 0.25))


def random_jet(group, rng):
    return Jet2(random_element(group, rng), group.random_alg(rng), group.random_alg(rng))


def close(x, y, scale):
    return np.abs(x - y).max() <= 1e-12 * max(1.0, scale)


words_st = st.lists(st.lists(st.sampled_from(GENS + tuple(g.upper() for g in GENS)),
                             max_size=8).map(tuple), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(gi=st.integers(0, len(TABLE_GROUPS) - 1), ngens=st.integers(1, len(GENS)),
       seed=st.integers(0, 2 ** 32 - 1), words=words_st)
def test_word_table_matches_per_token_loops(gi, ngens, seed, words):
    group = TABLE_GROUPS[gi]
    rng = np.random.default_rng(seed)
    gens = GENS[:ngens]
    rep = rv.Representation(group, gens, {g: random_element(group, rng) for g in gens})
    # every token must name a generator; the empty word pads the shortest row
    words = [tuple(t for t in w if t.lower() in gens) for w in words] + [()]
    table = rv.WordTable(rep, words)
    C = np.stack([np.stack([group.random_alg(rng) for _ in gens]) for _ in range(2)])
    K = np.stack([group.random_alg(rng) for _ in gens])
    values = table.values(C)
    xi, mu = table.jets(C[0], K)
    for b in range(2):
        c = rv.Cocycle(rep, dict(zip(gens, C[b])))
        for i, w in enumerate(words):
            assert np.array_equal(values[b, i], ref.cocycle_word(c, w))
    jet = rv.Jet2Cocycle(rv.Cocycle(rep, dict(zip(gens, C[0]))), dict(zip(gens, K)))
    for i, w in enumerate(words):
        assert np.array_equal(table.rho[i], ref.rho_word(rep, w))
        j = ref.jet_word(jet, w)
        assert np.array_equal(xi[i], j.xi) and np.array_equal(mu[i], j.mu)
    # the cocycle law c(uv) = c(u) + Ad_rho(u) c(v) on the drawn words,
    # relative to the size of the terms Ad_rho(prefix) d summed on each side
    u, v = words[0], words[-2] if len(words) > 1 else words[0]
    law = rv.WordTable(rep, [u, v, u + v])
    cu, cv, cuv = law.values(C[0])
    g = law.rho[0]

    def cond(m):
        return np.abs(m).max() * np.abs(np.linalg.inv(m)).max()

    def terms(i):
        return sum(map(cond, law.prefix[i])) * max(map(cond, rep.images.values())) \
            * np.abs(C[0]).max()
    assert close(cuv, cu + g @ cv @ np.linalg.inv(g),
                 terms(2) + terms(0) + cond(g) * terms(1))


@settings(max_examples=60, deadline=None)
@given(gi=st.integers(0, len(TABLE_GROUPS) - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_jet2_product_laws(gi, seed):
    group = TABLE_GROUPS[gi]
    rng = np.random.default_rng(seed)
    a, b, c = (random_jet(group, rng) for _ in range(3))
    left = jet2_mul(jet2_mul(a, b), c)
    right = jet2_mul(a, jet2_mul(b, c))
    for x, y in zip(left, right):
        assert close(x, y, np.abs(x).max())
    one = jet2_mul(jet2_inv(a), a)
    scale = max(np.abs(m).max() for m in a)
    assert close(one.g, group.identity(), scale)
    assert close(one.xi, 0.0, scale) and close(one.mu, 0.0, scale)


def test_relator_residuals_match_per_token_loop(
        diag_ctx, gl1c_ctx, unitary_ctx, trivial_ctx, trivialC_ctx, fuchsian_ctx,
        fuchsianC_ctx, sl3r, torus66):
    # the cached relator table gives the residuals of one ref.rho_word per
    # relator; the SL(3,R) images do not commute, so its residual is large
    rng = np.random.default_rng(7)
    sl3 = rv.Representation.for_mesh(sl3r, torus66, {
        g: random_element(sl3r, rng) for g in torus66.generators})
    reps = [ctx.rep for ctx in (diag_ctx, gl1c_ctx, unitary_ctx, trivial_ctx,
                                trivialC_ctx, fuchsian_ctx, fuchsianC_ctx)] + [sl3]
    for rep in reps:
        eye = rep.group.identity()
        want = [float(np.abs(ref.rho_word(rep, r) - eye).max()) for r in rep.relations]
        assert rep.relator_residuals() == want
        assert rep.relator_table is rep.relator_table
    assert sl3.relator_residuals()[0] > 1e-3


def _basis_per_column(rep, rtol=1e-9):
    """The cocycle-space basis from one ref.cocycle_word per (relator,
    column), the per-token reference of cocycle_space_basis."""
    group, gens, dim = rep.group, list(rep.generators), rep.group.dim
    ncols = dim * len(gens)
    L = np.zeros((dim * len(rep.relations), ncols))
    for ridx, rel in enumerate(rep.relations):
        for col in range(ncols):
            gi, bi = divmod(col, dim)
            vals = {name: np.zeros((group.n, group.n), dtype=complex) for name in gens}
            vals[gens[gi]] = group.basis[bi]
            L[ridx * dim:(ridx + 1) * dim, col] = group.to_coords(
                ref.cocycle_word(rv.Cocycle(rep, vals), rel))
    _, s, vt = np.linalg.svd(L)
    null_dim = int(np.sum(s <= rtol * max(s[0], 1.0))) + max(0, ncols - len(s))
    return vt[ncols - null_dim:].T


def test_cocycle_space_basis_matches_per_column_loop(
        diag_ctx, gl1c_ctx, unitary_ctx, trivial_ctx, trivialC_ctx, fuchsian_ctx,
        fuchsianC_ctx, sl3r, torus66):
    sl3 = rv.exp_family(sl3r, torus66, {"a": np.diag([0.3, 0.1, -0.4]),
                                        "b": np.diag([-0.2, 0.5, -0.3])})
    reps = [ctx.rep for ctx in (diag_ctx, gl1c_ctx, unitary_ctx, trivial_ctx,
                                trivialC_ctx, fuchsian_ctx, fuchsianC_ctx)] + [sl3]
    for rep in reps:
        group, dim = rep.group, rep.group.dim
        want = _basis_per_column(rep)
        got = rv.cocycle_space_basis(rep)
        assert len(got) == want.shape[1] > 0
        for j, c in enumerate(got):
            for gi, name in enumerate(rep.generators):
                assert np.array_equal(
                    c.values[name], group.from_coords(want[gi * dim:(gi + 1) * dim, j]))


# ----------------------------------------------------------------------
# reductivity by Dickson's criterion: the trace form on the image algebra

CIRCLE4 = mc.build_circle(4)
TORUS4 = mc.build_torus(4, 4)
GENUS2 = mc.build_genus2(1)
SL2R, SL2C, SL3R = (MatrixGroup("sl", 2, "R"), MatrixGroup("sl", 2, "C"),
                    MatrixGroup("sl", 3, "R"))


def _verdict_case(name):
    """(rep, reductive) of one fixture: Jordan blocks are not semisimple,
    the rest are."""
    if name == "jordan_sl2r":
        return rv.parabolic_circle_rep(SL2R, CIRCLE4), False
    if name == "jordan_sl2c":
        return rv.circle_rep(SL2C, CIRCLE4, [[-1.0, 0.5 + 2.0j], [0.0, -1.0]]), False
    if name == "jordan_pair_torus":
        return rv.Representation.for_mesh(SL2R, TORUS4, {
            "a": [[1.0, 1.0], [0.0, 1.0]], "b": [[1.0, -0.3], [0.0, 1.0]]}), False
    if name == "jordan3":
        return rv.circle_rep(SL3R, CIRCLE4, JORDAN3), False
    if name == "diagonal":
        return rv.torus_diag_rep(SL2C, TORUS4, 0.4 + 0.3j, -0.2 + 0.5j), True
    if name == "elliptic":
        return rv.elliptic_circle_rep(SL2R, CIRCLE4), True
    if name == "semisimple3":
        return rv.circle_rep(SL3R, CIRCLE4,
                             _conjugated(np.diag([2.0, 2.0, 0.25])).real), True
    if name == "torus_unitary":
        return rv.torus_unitary_rep(SL2C, TORUS4), True
    if name == "gl1c":
        return rv.torus_gl1c_rep(MatrixGroup("gl1c"), TORUS4, 0.5 + 1.0j,
                                 -0.3 + 0.2j), True
    group = SL2R if name == "fuchsian_sl2r" else SL2C
    return rv.genus2_fuchsian_rep(group, GENUS2), True


VERDICT_CASES = ("jordan_sl2r", "jordan_sl2c", "jordan_pair_torus", "jordan3",
                 "diagonal", "elliptic", "semisimple3", "torus_unitary", "gl1c",
                 "fuchsian_sl2r", "fuchsian_sl2c")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(VERDICT_CASES), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.0, 0.5))
def test_reductive_verdict_is_conjugation_invariant(name, seed, scale):
    # the image algebra of h rho h^-1 is h A h^-1, semisimple exactly when A
    # is; the margin moves with the conditioning of h but stays on its side
    rep, want = _verdict_case(name)
    h = rep.group.exp(rep.group.random_alg(np.random.default_rng(seed), scale))
    for r in (rep, rep.conjugate(h)):
        assert r.reductive is want
        assert (r.trace_form_margin > 1e-6) if want else (r.trace_form_margin < 1e-12)


@pytest.mark.parametrize("eps, reductive", [(1e-2, True), (1e-3, True),
                                            (1e-4, True), (1e-5, False)])
def test_trace_form_margin_near_parabolic(eps, reductive):
    # [[1 + e, 1], [0, 1 / (1 + e)]] is diagonalizable, so rho is reductive;
    # its algebra is spanned by I and X = [[d, 1], [0, -d]], d about e, and
    # the margin is 2 d^2 / (1 + 2 d^2).  Below e of about 2e-5 it falls
    # under TRACE_FORM_MARGIN: a band where the verdict reads non-reductive
    rep = rv.circle_rep(SL2R, CIRCLE4, [[1.0 + eps, 1.0], [0.0, 1.0 / (1.0 + eps)]])
    d = 0.5 * ((1.0 + eps) - 1.0 / (1.0 + eps))
    margin = 2.0 * d * d / (1.0 + 2.0 * d * d)
    assert abs(rep.trace_form_margin - margin) <= 1e-4 * margin
    assert abs(rep.trace_form_margin - 2.0 * eps * eps) <= 2.0 * eps * 2.0 * eps * eps
    assert rep.reductive is reductive
