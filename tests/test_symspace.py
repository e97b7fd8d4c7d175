import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from equivarlab.liealg import (MatrixGroup, ad_action, bracket, cartan_project,
                               gram_at, inv, star)
from equivarlab.symspace import (MC_EDGE_NORM_RATIO, _expm, act, dist,
                                 exp_point, mc_edge, random_point, random_points,
                                 sl2_csch, sl2_exph, translation_length)
from reference import adjoint_at, mp_log_dist, norm_at

SL2C = MatrixGroup("sl", 2, "C")
SL2R = MatrixGroup("sl", 2, "R")
STACK_GROUPS = (SL2R, SL2C, MatrixGroup("sl", 3, "R"), MatrixGroup("gl1c"))


def test_one_by_one_exponentials_are_np_exp():
    # GL(1,C) exponentiates through scipy's expm, which must take a stack of
    # 1x1 blocks to np.exp bit for bit, or every gl1c report moves
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 1, 1)) + 1j * rng.standard_normal((50, 1, 1))
    for A in (X, X[0]):
        assert np.array_equal(MatrixGroup("gl1c").exp(A), np.exp(A))
        assert np.array_equal(_expm(A), np.exp(A))


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


@pytest.mark.parametrize("group", [SL2R, SL2C], ids=["sl2r", "sl2c"])
@pytest.mark.parametrize("t", [1.0, 1e-4, 1e-8, 1e-12])
def test_dist_matches_matrix_logarithm(group, t):
    # the closed form sqrt(2) asinh(sqrt(-det N)) against mpmath's logm at 50
    # digits, down to edges of length 1e-12, where it keeps an absolute
    # error of eps (arccosh(tr M / 2) would keep sqrt(eps))
    rng = np.random.default_rng(11)
    for scale in (0.3, 1.0):
        P = random_point(group, rng, scale)
        X = group.random_alg(rng, 0.3)
        Q = exp_point(P, t * (P @ np.conj(X).T + X @ P) @ np.linalg.inv(P) / 2)
        ref = mp_log_dist(P, Q)
        # the float points miss det 1 by eps cond, which logm reads and the
        # closed form does not: the relative part of the bound
        assert abs(dist(P, Q) - ref) <= 1e-15 + 1e-13 * ref


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
            P = scipy.linalg.expm(H.astype(complex))
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
    X, Y = (np.stack([group.random_alg(rng) for _ in range(size)]) for _ in range(2))
    B = mc_edge(P, Q)
    stacked = {"mc_edge": B, "dist": dist(P, Q), "exp_point": exp_point(P, B),
               "cartan_project": np.stack(cartan_project(P, X), axis=1),
               "gram_at": gram_at(group, P), "bracket": bracket(X, Y),
               "star": star(P, X, inv(P))}
    for i in range(size):
        single = {"mc_edge": mc_edge(P[i], Q[i]), "dist": dist(P[i], Q[i]),
                  "exp_point": exp_point(P[i], B[i]),
                  "cartan_project": np.stack(cartan_project(P[i], X[i])),
                  "gram_at": gram_at(group, P[i]), "bracket": bracket(X[i], Y[i]),
                  "star": star(P[i], X[i], inv(P[i]))}
        for name, value in single.items():
            assert np.array_equal(stacked[name][i], value), name
    assert np.abs(stacked["exp_point"] - Q).max() < 1e-9 * max(1.0, np.abs(Q).max())


# ----------------------------------------------------------------------
# closed forms: a branch is taken only where one min shows a value needs it

#: magnitudes on both sides of every branch of the closed forms
MAGNITUDES = (0.0, 1e-12, 1e-9, 3e-5, 0.3, 4.0, 800.0, np.inf, np.nan)


def _mixed(rng, shape, nonfinite):
    """Random values of random magnitudes: each a sign times a MAGNITUDES
    entry, the non-finite ones only when nonfinite."""
    mags = np.array(MAGNITUDES[:len(MAGNITUDES) - (0 if nonfinite else 2)])
    return rng.choice(mags, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _bitwise_equal(a, b):
    # NaN equals NaN; complex arrays compare their real and imaginary parts
    a, b = np.asarray(a), np.asarray(b)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        a, b = a.astype(complex).view(float), b.astype(complex).view(float)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def _exph_where(X):
    """sl2_exph with both of its branches over the whole stack (np.where)."""
    q = X[..., 0, 0].real ** 2 + X[..., 0, 1].real ** 2 + X[..., 0, 1].imag ** 2
    s = np.sqrt(q)
    small = s < 1e-8
    s1 = np.where(small, 1.0, s)
    coef = np.where(small, 1.0 + q / 6.0, np.sinh(s1) / s1)
    return np.cosh(s)[..., None, None] * np.eye(2, dtype=complex) + coef[..., None, None] * X


def _csch_where(sh, ell):
    """sl2_csch with both of its branches over the whole stack (np.where)."""
    small = ell < 1e-4
    return np.where(small, 1.0 - ell * ell / 6.0, ell / np.where(small, 1.0, sh))


@pytest.mark.parametrize("nonfinite", [False, True])
def test_sl2_closed_forms_equal_their_where_forms(nonfinite):
    # sl2_exph and sl2_csch skip the series branch when no value needs it;
    # on stacks that mix values on both sides of each branch (s < 1e-8,
    # l < 1e-4), and non-finite ones, they equal the np.where forms bit for
    # bit, on single blocks too
    rng = np.random.default_rng(11)
    fast = slow = 0
    for trial in range(300):
        size = () if trial % 10 == 0 else (int(rng.integers(1, 7)),)
        a, b, c = (_mixed(rng, size, nonfinite) for _ in range(3))
        if trial % 3 == 0:      # far from the small branches
            a = a + 2.0
        elif trial % 3 == 2:    # zero blocks, where the series is 1 and sinh s / s is NaN
            zero = rng.random(size) < 0.5
            a, b, c = (np.where(zero, 0.0, x) for x in (a, b, c))
        X = np.zeros(size + (2, 2), dtype=complex)
        X.real[..., 0, 0], X.real[..., 1, 1] = a, -a
        X.real[..., 0, 1], X.real[..., 1, 0] = b, b
        X.imag[..., 0, 1], X.imag[..., 1, 0] = c, -c
        ell = np.abs(_mixed(rng, size, nonfinite)) + (1.0 if trial % 3 == 1 else 0.0)
        with np.errstate(all="ignore"):
            sh = np.sinh(ell)
            assert _bitwise_equal(sl2_exph(X), _exph_where(X))
            assert _bitwise_equal(sl2_csch(sh, ell), _csch_where(sh, ell))
            s = np.sqrt(a * a + b * b + c * c)
        fast += bool(np.min(s) >= 1e-8)
        slow += bool(np.any(s < 1e-8))
    assert fast > 0 and slow > 0


@pytest.mark.parametrize("group", [SL2R, SL2C, MatrixGroup("sl", 3, "R"),
                                   MatrixGroup("sl", 3, "C"), MatrixGroup("gl1c")],
                         ids=lambda g: f"{g.kind}{g.n}{g.field}")
def test_random_points_are_the_per_point_draws(group):
    # one stacked eigh and (U e^w) U^† give bit for bit the points of one
    # draw per point in turn (the formula below), NaN equal to NaN where a
    # far scale overflows
    def per_point(rng, scale):
        n = group.n
        if n == 1:
            return np.array([[np.exp(scale * rng.standard_normal())]], dtype=complex)
        if group.field == "C":
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            A = rng.standard_normal((n, n)).astype(complex)
        H = scale * 0.5 * (A + np.conj(A).T)
        H = H - (np.trace(H) / n) * np.eye(n)
        w, U = np.linalg.eigh(H)
        return (U * np.exp(w)) @ np.conj(U).T

    for seed in range(12):
        for scale in (0.05, 0.4, 3.0, 12.0, 16.0):
            for count in (1, 7):
                with np.errstate(all="ignore"):
                    rng = np.random.default_rng(seed)
                    ref = np.stack([per_point(rng, scale) for _ in range(count)])
                    got = random_points(group, np.random.default_rng(seed), count, scale)
                    one = random_point(group, np.random.default_rng(seed), scale)
                assert _bitwise_equal(got, ref)
                assert _bitwise_equal(one, ref[0])
