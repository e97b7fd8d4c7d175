import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equivarlab.liealg import (MatrixGroup, ad_action, bracket,
                               cartan_project, inv, gram_at, ad_matrix, mul)
from conftest import block_rounding_bound
from reference import (Jet2, adjoint_at, inner_at, jet2_identity, jet2_inv,
                       jet2_mul)

E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
F = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
H = np.diag([1.0, -1.0]).astype(complex)


def test_bracket_sl2_relation():
    assert np.abs(bracket(E, F) - H).max() == 0.0


def test_bracket_antisymmetry():
    X = np.array([[0.3, -1.2], [0.7, -0.3]], dtype=complex)
    assert np.abs(bracket(X, X)).max() == 0.0


def test_bracket_shape_mismatch():
    with pytest.raises(ValueError):
        bracket(E, np.eye(3))


@pytest.mark.parametrize("field", ["R", "C"])
def test_jacobi_identity(field):
    group = MatrixGroup("sl", 3, field)
    rng = np.random.default_rng(0)
    for _ in range(5):
        X, Y, Z = (group.random_alg(rng) for _ in range(3))
        resid = bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X)) \
            + bracket(Z, bracket(X, Y))
        assert np.abs(resid).max() < 1e-12


def test_ad_diagonal():
    g = np.diag([2.0, 0.5]).astype(complex)
    assert np.abs(ad_action(g, E) - 4.0 * E).max() < 1e-14


def test_ad_identity():
    assert np.abs(ad_action(np.eye(2), E) - E).max() == 0.0


def test_ad_composition_and_inverse():
    rng = np.random.default_rng(1)
    group = MatrixGroup("sl", 2, "C")
    for _ in range(4):
        g = group.exp(group.random_alg(rng, 0.5))
        h = group.exp(group.random_alg(rng, 0.5))
        X = group.random_alg(rng)
        lhs = ad_action(g @ h, X)
        rhs = ad_action(g, ad_action(h, X))
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.abs(ad_action(g, ad_action(np.linalg.inv(g), X)) - X).max() < 1e-12


AD_GROUPS = (MatrixGroup("sl", 2, "R"), MatrixGroup("sl", 2, "C"),
             MatrixGroup("sl", 3, "R"), MatrixGroup("gl1c"))


@settings(max_examples=80, deadline=None)
@given(gi=st.integers(0, len(AD_GROUPS) - 1), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(0.05, 1.5))
def test_ad_matrix_is_ad_equivariant(gi, seed, scale):
    # ad_matrix builds d0 and the kernel: in coordinates it must act as
    # X -> g X g^-1, and so preserve the bracket
    group = AD_GROUPS[gi]
    rng = np.random.default_rng(seed)
    g = group.exp(group.random_alg(rng, scale))
    X, Y = group.random_alg(rng), group.random_alg(rng)
    A = ad_matrix(group, g, np.linalg.inv(g))
    want = group.to_coords(g @ X @ np.linalg.inv(g))
    assert np.abs(A @ group.to_coords(X) - want).max() \
        <= 1e-10 * max(1.0, np.abs(want).max())
    ad_X, ad_Y = (group.from_coords(A @ group.to_coords(Z)) for Z in (X, Y))
    lhs = A @ group.to_coords(bracket(X, Y))
    rhs = group.to_coords(bracket(ad_X, ad_Y))
    assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(lhs).max())


# ----------------------------------------------------------------------

def _random_jet(group, rng):
    return Jet2(group.exp(group.random_alg(rng, 0.4)),
                group.random_alg(rng), group.random_alg(rng))


def test_jet2_identity_element(sl2r):
    rng = np.random.default_rng(2)
    a = _random_jet(sl2r, rng)
    e = jet2_identity(sl2r)
    for prod in (jet2_mul(a, e), jet2_mul(e, a)):
        assert np.abs(prod.g - a.g).max() < 1e-14
        assert np.abs(prod.xi - a.xi).max() < 1e-14
        assert np.abs(prod.mu - a.mu).max() < 1e-14


def test_jet2_inverse_from_product_law(sl2c):
    rng = np.random.default_rng(3)
    a = _random_jet(sl2c, rng)
    p = jet2_mul(a, jet2_inv(a))
    assert np.abs(p.g - np.eye(2)).max() < 1e-12
    assert np.abs(p.xi).max() < 1e-12
    assert np.abs(p.mu).max() < 1e-12
    q = jet2_mul(jet2_inv(a), a)
    assert np.abs(q.mu).max() < 1e-12


def test_jet2_associativity(sl2c):
    rng = np.random.default_rng(4)
    for _ in range(4):
        a, b, c = (_random_jet(sl2c, rng) for _ in range(3))
        lhs = jet2_mul(jet2_mul(a, b), c)
        rhs = jet2_mul(a, jet2_mul(b, c))
        assert np.abs(lhs.g - rhs.g).max() < 1e-12
        assert np.abs(lhs.xi - rhs.xi).max() < 1e-12
        assert np.abs(lhs.mu - rhs.mu).max() < 1e-12


def test_jet2_reduces_to_tangent_group_product(sl2r):
    # with mu = nu = 0 the first two slots follow (g,xi)(h,eta) = (gh, xi+Ad_g eta)
    rng = np.random.default_rng(5)
    z = np.zeros((2, 2), dtype=complex)
    a = Jet2(sl2r.exp(sl2r.random_alg(rng, 0.4)), sl2r.random_alg(rng), z)
    b = Jet2(sl2r.exp(sl2r.random_alg(rng, 0.4)), sl2r.random_alg(rng), z)
    p = jet2_mul(a, b)
    assert np.abs(p.g - a.g @ b.g).max() < 1e-14
    assert np.abs(p.xi - (a.xi + ad_action(a.g, b.xi))).max() < 1e-14


def test_jet2_matches_curve_jets(sl2r):
    # jets of an analytic curve multiply like the curves themselves
    rng = np.random.default_rng(6)
    X1, M1 = sl2r.random_alg(rng), sl2r.random_alg(rng)
    X2, M2 = sl2r.random_alg(rng), sl2r.random_alg(rng)

    def curve(X, M, t):
        return (np.eye(2) + t * X + 0.5 * t * t * (M + X @ X)) @ np.eye(2)

    h = 1e-5
    prod = lambda t: curve(X1, M1, t) @ curve(X2, M2, t)
    g0 = prod(0.0)
    dg = (prod(h) - prod(-h)) / (2 * h)
    d2g = (prod(h) - 2 * g0 + prod(-h)) / (h * h)
    xi_fd = dg @ np.linalg.inv(g0)
    mu_fd = d2g @ np.linalg.inv(g0) - xi_fd @ xi_fd
    j = jet2_mul(Jet2(np.eye(2, dtype=complex), X1, M1),
                 Jet2(np.eye(2, dtype=complex), X2, M2))
    assert np.abs(j.xi - xi_fd).max() < 1e-8
    assert np.abs(j.mu - mu_fd).max() < 1e-5


# ----------------------------------------------------------------------

def test_adjoint_at_identity_is_conjugate_transpose():
    X = np.array([[0.2, 1.5], [-0.7, -0.2]]) + 1j * np.array([[0.1, 0.0], [0.4, -0.1]])
    assert np.abs(adjoint_at(np.eye(2), X) - np.conj(X).T).max() < 1e-14
    _, Xp = cartan_project(np.eye(2), X)
    assert np.abs(Xp - 0.5 * (X + np.conj(X).T)).max() < 1e-14


def test_adjoint_at_diagonal_example():
    # hand computation of P e^T P^{-1} at P = diag(4, 1/4):
    # the (2,1) entry is P_22 * P^{-1}_11 = (1/4)(1/4) = 1/16
    P = np.diag([4.0, 0.25]).astype(complex)
    assert np.abs(adjoint_at(P, E) - F / 16.0).max() < 1e-12
    assert np.abs(adjoint_at(np.diag([0.25, 4.0]).astype(complex), E)
                  - 16.0 * F).max() < 1e-12


def test_adjoint_involution_and_split(sl2c):
    rng = np.random.default_rng(7)
    from equivarlab.symspace import random_point
    for _ in range(5):
        P = random_point(sl2c, rng)
        X = sl2c.random_alg(rng)
        assert np.abs(adjoint_at(P, adjoint_at(P, X)) - X).max() < 1e-12
        Xk, Xp = cartan_project(P, X)
        assert np.abs(Xk + Xp - X).max() < 1e-13
        assert np.abs(adjoint_at(P, Xp) - Xp).max() < 1e-12
        assert np.abs(adjoint_at(P, Xk) + Xk).max() < 1e-12


def test_cartan_orthogonality(sl2c):
    rng = np.random.default_rng(8)
    from equivarlab.symspace import random_point
    for _ in range(5):
        P = random_point(sl2c, rng)
        Xk, _ = cartan_project(P, sl2c.random_alg(rng))
        _, Yp = cartan_project(P, sl2c.random_alg(rng))
        assert abs(inner_at(P, Xk, Yp)) < 1e-10


def test_adjoint_anticommutes_with_i(sl2c):
    rng = np.random.default_rng(9)
    from equivarlab.symspace import random_point
    P = random_point(sl2c, rng)
    X = sl2c.random_alg(rng)
    assert np.abs(adjoint_at(P, 1j * X) + 1j * adjoint_at(P, X)).max() < 1e-13


def test_fiber_metric_positive_and_ad_invariant(sl2c):
    rng = np.random.default_rng(10)
    from equivarlab.symspace import random_point, act
    P = random_point(sl2c, rng)
    G = gram_at(sl2c, P)
    w = np.linalg.eigvalsh(G)
    assert w.min() > 0
    g = sl2c.exp(sl2c.random_alg(rng, 0.4))
    X, Y = sl2c.random_alg(rng), sl2c.random_alg(rng)
    lhs = inner_at(act(g, P), ad_action(g, X), ad_action(g, Y))
    assert abs(lhs - inner_at(P, X, Y)) < 1e-10 * max(1.0, abs(lhs))


def test_coords_roundtrip_all_groups():
    rng = np.random.default_rng(11)
    for group in (MatrixGroup("sl", 2, "R"), MatrixGroup("sl", 3, "C"),
                  MatrixGroup("gl1c")):
        X = group.random_alg(rng)
        v = group.to_coords(X)
        assert v.shape == (group.dim,)
        assert np.abs(group.from_coords(v) - X).max() < 1e-14
        g = group.exp(group.random_alg(rng, 0.3))
        A = ad_matrix(group, g, np.linalg.inv(g))
        assert A.shape == (group.dim, group.dim)


def test_algebra_checks():
    sl2r = MatrixGroup("sl", 2, "R")
    with pytest.raises(ValueError):
        sl2r.check_algebra(np.eye(2))          # nonzero trace
    with pytest.raises(ValueError):
        sl2r.check_algebra(1j * H)             # imaginary part in sl(2,R)
    with pytest.raises(ValueError):
        sl2r.check_group(np.diag([2.0, 1.0]))  # det != 1
    with pytest.raises(ValueError, match="imaginary part"):
        sl2r.check_group(np.diag([1j, -1j]))   # det 1, but not in SL(2,R)


# ----------------------------------------------------------------------
# the stacked product and inverse

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), is_complex=st.booleans(), size=st.integers(1, 400),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_mul_and_inv_agree_with_numpy(n, is_complex, size, seed):
    rng = np.random.default_rng(seed)

    def blocks():
        A = rng.standard_normal((size, n, n))
        return A + 1j * rng.standard_normal((size, n, n)) if is_complex else A
    A, B = blocks(), blocks()
    prod, Ainv = mul(A, B), inv(A)
    want_prod, want_inv = A @ B, np.linalg.inv(A)
    assert prod.dtype == want_prod.dtype and Ainv.dtype == want_inv.dtype
    if n != 2:
        # every other size falls back to numpy, bit for bit
        assert np.array_equal(prod, want_prod) and np.array_equal(Ainv, want_inv)
    assert np.all(np.abs(prod - want_prod) <= block_rounding_bound(A, B))
    assert np.all(np.abs(Ainv - want_inv) <= block_rounding_bound(A))
    # a stack of one gives the stacked result bit for bit
    for i in range(size):
        assert np.array_equal(mul(A[i], B[i]), prod[i])
        assert np.array_equal(inv(A[i]), Ainv[i])


@pytest.mark.parametrize("block", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]],
                                   [[np.nan, 0.0], [0.0, 1.0]],
                                   [[1.0, np.inf], [0.0, 1.0]]],
                         ids=["rank-one", "zero", "nan", "inf"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_inv_raises_on_a_singular_block(block, dtype):
    # a zero or non-finite determinant raises numpy's LinAlgError, like
    # np.linalg.inv on a singular block, for a single block and in a stack
    bad = np.array(block, dtype=dtype)
    with pytest.raises(np.linalg.LinAlgError):
        inv(bad)
    with pytest.raises(np.linalg.LinAlgError):
        inv(np.stack([np.eye(2, dtype=dtype), bad, np.eye(2, dtype=dtype)]))

