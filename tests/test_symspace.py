import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivarlab.liealg import MatrixGroup, ad_action, cartan_project, gram_at
from equivarlab.symspace import (MC_EDGE_NORM_RATIO, act, dist,
                                 exp_hermitian, exp_point, geodesic, mc_edge,
                                 random_point, translation_length)
from reference import adjoint_at, norm_at

SL2C = MatrixGroup("sl", 2, "C")
SL2R = MatrixGroup("sl", 2, "R")
STACK_GROUPS = (SL2R, SL2C, MatrixGroup("sl", 3, "R"), MatrixGroup("gl1c"))


def golden_section_translation_length(g, lo=-12.0, hi=12.0, tol=1e-12):
    """Independent oracle: displacement minimized over the diagonal axis."""
    g = np.asarray(g, dtype=complex)

    def phi(u):
        P = np.diag([np.exp(u), np.exp(-u)]).astype(complex)
        return dist(P, act(g, P))

    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = phi(d)
    return phi(0.5 * (a + b))


def test_act_examples():
    P = random_point(SL2C, np.random.default_rng(0))
    assert np.abs(act(np.eye(2), P) - P).max() < 1e-14
    g = np.diag([2.0, 0.5]).astype(complex)
    assert np.abs(act(g, np.eye(2, dtype=complex)) - np.diag([4.0, 0.25])).max() < 1e-14
    Q = act(g, act(np.linalg.inv(g), P))
    assert dist(P, Q) < 1e-10


def test_dist_examples():
    P = random_point(SL2C, np.random.default_rng(1))
    assert dist(P, P) < 1e-12
    assert abs(dist(np.eye(2, dtype=complex), np.diag([4.0, 0.25]).astype(complex))
               - 2.0 * np.sqrt(2.0) * np.log(2.0)) < 1e-12


def test_dist_triangle_inequality_sampled():
    rng = np.random.default_rng(2)
    for _ in range(20):
        P, Q, R = (random_point(SL2C, rng) for _ in range(3))
        slack = dist(P, Q) + dist(Q, R) - dist(P, R)
        assert slack >= -1e-10


def test_dist_g_invariance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        P, Q = random_point(SL2C, rng), random_point(SL2C, rng)
        g = SL2C.exp(SL2C.random_alg(rng, 0.5))
        assert abs(dist(act(g, P), act(g, Q)) - dist(P, Q)) < 1e-9


def test_geodesic_endpoints_and_midpoint():
    rng = np.random.default_rng(4)
    P, Q = random_point(SL2C, rng), random_point(SL2C, rng)
    assert dist(geodesic(P, Q, 0.0), P) < 1e-10
    assert dist(geodesic(P, Q, 1.0), Q) < 1e-10
    M = geodesic(P, Q, 0.5)
    assert abs(dist(P, M) - dist(M, Q)) < 1e-9


def test_exp_point_examples():
    P = random_point(SL2C, np.random.default_rng(5))
    assert dist(exp_point(P, np.zeros((2, 2))), P) < 1e-12
    s = 0.37
    Q = exp_point(np.eye(2, dtype=complex), np.diag([s, -s]).astype(complex))
    assert np.abs(Q - np.diag([np.exp(2 * s), np.exp(-2 * s)])).max() < 1e-12


def test_mc_edge_examples():
    rng = np.random.default_rng(6)
    P = random_point(SL2C, rng)
    assert np.abs(mc_edge(P, P)).max() < 1e-12
    L = mc_edge(np.eye(2, dtype=complex), np.diag([4.0, 0.25]).astype(complex))
    assert np.abs(L - np.diag([np.log(2.0), -np.log(2.0)])).max() < 1e-12


def test_mc_edge_transport_identity_and_selfadjoint():
    rng = np.random.default_rng(7)
    for _ in range(5):
        P, Q = random_point(SL2C, rng), random_point(SL2C, rng)
        b = mc_edge(P, Q)
        assert dist(exp_point(P, b), Q) < 1e-9
        assert np.abs(adjoint_at(P, b) - b).max() < 1e-10


def test_mc_edge_norm_ratio_frozen():
    # ||mc_edge(P,Q)||_P = dist(P,Q) / 2 with the half-log convention
    rng = np.random.default_rng(8)
    for _ in range(5):
        P, Q = random_point(SL2R, rng), random_point(SL2R, rng)
        ratio = norm_at(P, mc_edge(P, Q)) / dist(P, Q)
        assert abs(ratio - MC_EDGE_NORM_RATIO) < 1e-10


def test_mc_edge_antisymmetry_after_transport():
    rng = np.random.default_rng(9)
    from scipy.linalg import expm
    for _ in range(5):
        P, Q = random_point(SL2C, rng), random_point(SL2C, rng)
        b = mc_edge(P, Q)
        back = mc_edge(Q, P)
        assert np.abs(ad_action(expm(b), back) + b).max() < 1e-8


def test_translation_length_identity():
    L, attained = translation_length(np.eye(2, dtype=complex))
    assert L < 1e-10 and attained


def test_translation_length_hyperbolic_vs_golden_section():
    g = np.diag([2.0, 0.5]).astype(complex)
    L, attained = translation_length(g)
    assert attained
    oracle = golden_section_translation_length(g)
    assert abs(L - oracle) < 1e-6
    assert abs(L - 2.0 * np.sqrt(2.0) * np.log(2.0)) < 1e-6


def test_translation_length_parabolic_not_attained():
    L, attained = translation_length(np.array([[1.0, 1.0], [0.0, 1.0]],
                                              dtype=complex))
    assert not attained
    assert L < 1e-3


def test_translation_length_conjugation_invariance():
    rng = np.random.default_rng(10)
    g = np.diag([1.7, 1 / 1.7]).astype(complex)
    h = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
    h = h / np.sqrt(abs(np.linalg.det(h)))
    L1, _ = translation_length(g)
    L2, _ = translation_length((h @ g @ np.linalg.inv(h)).astype(complex))
    assert abs(L1 - L2) < 1e-6


def _reference_translation_length(g, *, tol=1e-8, max_iter=20000, radius=50.0,
                                  n_restarts=2):
    """Independent oracle: Riemannian gradient descent on the squared
    displacement from I with restarts, every displacement, edge log and
    drift computed from scratch by dist and mc_edge.  attained is False when
    the gradient stalls while the basepoint escapes the radius."""
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    rng = np.random.default_rng(0)
    ginv = np.linalg.inv(g)
    best = None
    for start in range(n_restarts):
        if start == 0:
            P = np.eye(n, dtype=complex)
        else:
            H = 0.1 * rng.standard_normal((n, n))
            H = 0.5 * (H + H.T) - np.trace(H) / n * np.eye(n)
            P = exp_hermitian(H.astype(complex))
        val = dist(P, act(g, P)) ** 2
        step = 0.25
        attained = False
        for _ in range(max_iter):
            beta = mc_edge(P, act(g, P))
            dirn = beta + ad_action(ginv, -beta)
            gnorm = norm_at(P, dirn)
            drift = dist(np.eye(n, dtype=complex), P)
            if gnorm < tol:
                attained = drift <= radius
                break
            if drift > radius:
                attained = False
                break
            accepted = False
            while step > 1e-14:
                P_new = exp_point(P, step * dirn)
                val_new = dist(P_new, act(g, P_new)) ** 2
                if val_new <= val - 0.25 * step * gnorm ** 2:
                    P, val = P_new, val_new
                    step = min(step * 1.5, 64.0)
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                attained = gnorm < 1e-6 and drift <= radius
                break
        cand = (float(np.sqrt(max(val, 0.0))), attained)
        if best is None or cand[0] < best[0] - 1e-12 or (
                abs(cand[0] - best[0]) <= 1e-12 and cand[1]):
            best = cand
    return best


def _conjugated(g, seed=10):
    n = g.shape[0]
    h = np.eye(n) + 0.5 * np.random.default_rng(seed).standard_normal((n, n))
    h = h / abs(np.linalg.det(h)) ** (1.0 / n)
    return (h @ g @ np.linalg.inv(h)).astype(complex)


@pytest.mark.parametrize("g, max_iter", [
    (np.eye(2, dtype=complex), 20000),
    (np.diag([2.0, 0.5]).astype(complex), 20000),
    (np.diag([1.7, 1 / 1.7]).astype(complex), 20000),
    (_conjugated(np.diag([1.7, 1 / 1.7])), 20000),
    # the plateau: 2000 of the 20000 iterations keep the reference cheap
    (np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), 2000),
])
def test_translation_length_matches_reference_loop(g, max_iter):
    L, attained = translation_length(g)
    L_ref, attained_ref = _reference_translation_length(g, max_iter=max_iter)
    if attained_ref:
        assert abs(L - L_ref) <= 1e-6 and attained
    else:
        # the descent stalls on its plateau above the infimum
        assert not attained and L <= L_ref


JORDAN3 = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]])
JORDAN3_L = 2.0 * np.sqrt(2.0 * np.log(2.0) ** 2 + np.log(4.0) ** 2)


@pytest.mark.parametrize("g, attained_want", [
    (JORDAN3, False),
    (_conjugated(np.diag([2.0, 2.0, 0.25])), True),
], ids=["jordan_block", "semisimple"])
def test_translation_length_sl3_repeated_eigenvalue(g, attained_want):
    # the same eigenvalues, with and without a Jordan block
    L, attained = translation_length(g)
    assert abs(L - JORDAN3_L) <= 1e-12
    assert attained is attained_want


def test_translation_length_near_parabolic_attained():
    # diagonalizable, with eigenvectors 2e-9 apart: P* sits at distance 29.3
    # from I and displaces by exactly L
    eps = 1e-9
    L, attained = translation_length(np.array([[1.0 + eps, 1.0],
                                               [0.0, 1.0 / (1.0 + eps)]]))
    assert attained
    assert abs(L - 2.0 * np.sqrt(2.0) * np.log1p(eps)) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(gi=st.integers(0, len(STACK_GROUPS) - 1), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.05, 1.5))
def test_translation_length_is_a_lower_bound_and_invariant(gi, seed, scale):
    group = STACK_GROUPS[gi]
    rng = np.random.default_rng(seed)
    g = group.exp(group.random_alg(rng, scale))
    L, _ = translation_length(g)
    for _ in range(5):
        P = random_point(group, rng, 1.0)
        assert L <= dist(P, act(g, P)) + 1e-9 * max(1.0, L)
    h = group.exp(group.random_alg(rng))
    L_h, _ = translation_length(h @ g @ np.linalg.inv(h))
    assert abs(L_h - L) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(gi=st.integers(0, len(STACK_GROUPS) - 1), seed=st.integers(0, 2 ** 32 - 1),
       size=st.integers(1, 4), scale=st.floats(0.05, 1.0))
def test_scalar_is_a_stack_of_one(gi, seed, size, scale):
    # stacked calls give bit for bit the per-point values
    group = STACK_GROUPS[gi]
    rng = np.random.default_rng(seed)
    P, Q = (np.stack([random_point(group, rng, scale) for _ in range(size)])
            for _ in range(2))
    X = np.stack([group.random_alg(rng) for _ in range(size)])
    B = mc_edge(P, Q)
    stacked = {"mc_edge": B, "dist": dist(P, Q), "exp_point": exp_point(P, B),
               "cartan_project": np.stack(cartan_project(P, X), axis=1),
               "gram_at": gram_at(group, P)}
    for i in range(size):
        single = {"mc_edge": mc_edge(P[i], Q[i]), "dist": dist(P[i], Q[i]),
                  "exp_point": exp_point(P[i], B[i]),
                  "cartan_project": np.stack(cartan_project(P[i], X[i])),
                  "gram_at": gram_at(group, P[i])}
        for name, value in single.items():
            assert np.array_equal(stacked[name][i], value), name
    assert np.abs(stacked["exp_point"] - Q).max() < 1e-9 * max(1.0, np.abs(Q).max())
