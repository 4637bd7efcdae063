import numpy as np
import pytest

from fredet.quadrature import (MAX_NODES, clenshaw_curtis, gauss_legendre, lobatto_vander,
                               rectangle, singular_moments, spectral_ops)


def _monomial_exact(k):
    # int_{-1}^{1} x^k dx
    return 0.0 if k % 2 else 2.0 / (k + 1)


def test_gauss_legendre_exactness_to_2n_minus_1():
    for n in (2, 5, 8, 12):
        rule = gauss_legendre(n)
        for k in range(2 * n):
            got = rule.weights @ rule.nodes**k
            assert abs(got - _monomial_exact(k)) < 1e-12, (n, k)


def test_gauss_legendre_basic_structure():
    rule = gauss_legendre(16)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 2.0) < 1e-14
    # symmetry of nodes and weights
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
    assert np.allclose(rule.weights, rule.weights[::-1], atol=1e-15)


def test_gauss_legendre_mapped_interval():
    rule = gauss_legendre(10, 0.0, 1.0)
    assert abs(rule.weights @ rule.nodes**3 - 0.25) < 1e-14
    assert rule.a == 0.0 and rule.b == 1.0


def test_gauss_legendre_single_node_is_midpoint():
    rule = gauss_legendre(1, 2.0, 4.0)
    assert abs(rule.nodes[0] - 3.0) < 1e-15
    assert abs(rule.weights[0] - 2.0) < 1e-15


def test_gauss_legendre_rule_is_cached_and_mapped():
    rule = gauss_legendre(12, 0.0, 1.0)
    again = gauss_legendre(12, 0.0, 1.0)
    assert np.array_equal(rule.nodes, again.nodes) and np.array_equal(rule.weights, again.weights)
    rule.nodes[0] = 5.0   # a caller's rule is its own copy of the cached one
    assert gauss_legendre(12, 0.0, 1.0).nodes[0] == again.nodes[0]
    # [0, 1] is the same affine map of the cached [-1, 1] rule, bit for bit
    ref = gauss_legendre(12)
    assert np.array_equal(again.nodes, 0.5 + 0.5 * ref.nodes)
    assert np.array_equal(again.weights, 0.5 * ref.weights)


def test_gauss_legendre_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(MAX_NODES + 1)
    with pytest.raises(ValueError):
        gauss_legendre(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 0.0, np.inf)


def test_rectangle_validation():
    for n in (0, MAX_NODES + 1):
        with pytest.raises(ValueError):
            rectangle(n)
    with pytest.raises(ValueError):
        rectangle(4, 1.0, 1.0)


def test_rectangle_midpoints():
    rule = rectangle(4, 0.0, 1.0)
    assert np.allclose(rule.nodes, [0.125, 0.375, 0.625, 0.875], atol=1e-15)
    assert np.allclose(rule.weights, 0.25, atol=1e-15)
    # midpoint rule is exact on affine functions
    assert abs(rule.weights @ (3.0 * rule.nodes - 1.0) - 0.5) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
def test_clenshaw_curtis_exact_to_degree_n_minus_1_or_n(n):
    # n nodes interpolate degree n-1 exactly; at odd n, degree n is odd about
    # the midpoint and integrates to zero by symmetry
    a, b = 0.5, 2.0
    rule = clenshaw_curtis(n, a, b)
    t = (2.0 * rule.nodes - (a + b)) / (b - a)  # the nodes mapped back onto [-1, 1]
    for k in range(n if n % 2 == 0 else n + 1):
        got = rule.weights @ t**k * 2.0 / (b - a)
        assert abs(got - _monomial_exact(k)) <= 1e-13, (n, k)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 64, 65, 320, 512])
def test_clenshaw_curtis_weights_positive_symmetric_and_sum_to_length(n):
    rule = clenshaw_curtis(n, -0.5, 3.0)
    assert (rule.a, rule.b) == (-0.5, 3.0)
    assert np.all(rule.weights > 0)
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert abs(rule.weights.sum() - 3.5) <= 1e-14 * 3.5
    assert rule.nodes[0] == -0.5 and rule.nodes[-1] == 3.0


def test_clenshaw_curtis_two_and_three_nodes_are_trapezoid_and_simpson():
    trap = clenshaw_curtis(2, 0.0, 1.0)
    assert np.array_equal(trap.nodes, [0.0, 1.0])
    assert np.allclose(trap.weights, [0.5, 0.5], rtol=0, atol=1e-16)
    simpson = clenshaw_curtis(3, 0.0, 2.0)
    assert np.array_equal(simpson.nodes, [0.0, 1.0, 2.0])
    assert np.allclose(simpson.weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_clenshaw_curtis_nodes_are_the_spectral_points():
    for n in (2, 3, 9, 24, 65, 320):
        points = spectral_ops(n).points
        assert np.array_equal(clenshaw_curtis(n).nodes, points)
        assert np.array_equal(clenshaw_curtis(n, 0.0, 1.0).nodes, 0.5 + 0.5 * points)


def test_clenshaw_curtis_weights_match_the_cosine_sum():
    # w_j = c_j/N (1 - sum_{k=1}^{N/2} b_k cos(2 k theta_j)/(4k^2 - 1)), theta_j = j pi/N,
    # c_j = 1 at the ends and 2 inside, b_k = 1 at k = N/2 and 2 below
    for n in (6, 7, 128):
        big = n - 1
        theta = np.pi * np.arange(n) / big
        k = np.arange(1, big // 2 + 1)
        bk = np.where(2 * k == big, 1.0, 2.0)
        c = np.full(n, 2.0)
        c[[0, -1]] = 1.0
        want = c / big * (1.0 - np.cos(2.0 * np.outer(theta, k)) @ (bk / (4.0 * k**2 - 1.0)))
        assert np.max(np.abs(clenshaw_curtis(n).weights - want)) <= 1e-15, n


def test_clenshaw_curtis_validation():
    for n in (0, 1, MAX_NODES + 1):
        with pytest.raises(ValueError):
            clenshaw_curtis(n)
    with pytest.raises(ValueError):
        clenshaw_curtis(4, 1.0, 0.0)


def test_spectral_points_are_lobatto():
    ops = spectral_ops(9)
    assert ops.points[0] == -1.0 and ops.points[-1] == 1.0
    assert np.all(np.diff(ops.points) > 0)
    assert ops.points[4] == 0.0  # midpoint snapped exactly
    assert np.allclose(ops.C @ ops.Cinv, np.eye(9), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 9, 16, 65, 512])
def test_closed_form_cinv_inverts_c(n):
    # Cinv = (2/(n-1)) H C^T H is exact, so it is the left inverse of C to rounding.
    # C @ Cinv is not checked at this bound: chebvander's recurrence leaves C itself
    # up to ~3e-12 off T_k(x_m) at n = 512, and the right product shows that, not Cinv
    _, C, Cinv = lobatto_vander(n)
    assert np.max(np.abs(Cinv @ C - np.eye(n))) <= 1e-13


def test_closed_form_cinv_matches_a_40_digit_inverse():
    mpmath = pytest.importorskip("mpmath")
    n = 17
    _, C, Cinv = lobatto_vander(n)
    with mpmath.workdps(40):
        exact = np.array((mpmath.matrix(C.tolist()) ** -1).tolist(), dtype=float)
    assert np.max(np.abs(Cinv - exact)) <= 1e-15


def test_spectral_integration_exact_on_low_degree():
    for n in (6, 11):
        ops = spectral_ops(n)
        left = ops.C @ ops.Sl @ ops.Cinv
        right = ops.C @ ops.Sr @ ops.Cinv
        x = ops.points
        for k in range(n - 1):  # degrees 0 .. n-2
            q = x**k
            lo = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            hi = (1.0 - x ** (k + 1)) / (k + 1)
            assert np.max(np.abs(left @ q - lo)) < 1e-10, (n, k)
            assert np.max(np.abs(right @ q - hi)) < 1e-10, (n, k)


def test_spectral_ops_validation():
    with pytest.raises(ValueError):
        spectral_ops(1)


# independently computed with 30-digit adaptive quadrature, then frozen
_MOMENTS_HALF_037 = [3.9283907687826778, 0.71783999113133712, -1.9320731865198559,
                     -1.3178495043616891, -0.015291190609417304, 1.0337500475310162,
                     0.56738942608330389, -0.45638003109771375]
_MOMENTS_03_M02 = [2.8450209388454848, -0.1695675826842114, -1.3195826497599117,
                   0.31746794857183952, 0.19818117329127391, -0.31587409606641403]
_MOMENTS_HALF_10 = [2.8284271247461898, 0.94280904158206291, -0.18856180831641242,
                    0.080812203564176177]


def test_singular_moments_frozen_oracle_values():
    assert np.allclose(singular_moments(0.5, 0.37, 8), _MOMENTS_HALF_037, atol=1e-10)
    assert np.allclose(singular_moments(0.3, -0.2, 6), _MOMENTS_03_M02, atol=1e-10)
    assert np.allclose(singular_moments(0.5, 1.0, 4), _MOMENTS_HALF_10, atol=1e-10)


def test_singular_moments_closed_forms():
    # beta_0(x) = ((1+x)^(1-a) + (1-x)^(1-a)) / (1-a) on [-1, 1]
    for alpha in (0.5, 0.3, 0.75):
        for x in (-0.9, -0.2, 0.0, 0.37, 1.0):
            b0 = ((1 + x) ** (1 - alpha) + (1 - x) ** (1 - alpha)) / (1 - alpha)
            assert abs(singular_moments(alpha, x, 1)[0] - b0) < 1e-10, (alpha, x)
    # beta_1 for alpha = 1/2: x*beta_0 + (2/3)((1-x)^(3/2) - (1+x)^(3/2))
    for x in (-0.6, 0.0, 0.37, 1.0):
        b0 = 2.0 * ((1 + x) ** 0.5 + (1 - x) ** 0.5)
        b1 = x * b0 + (2.0 / 3.0) * ((1 - x) ** 1.5 - (1 + x) ** 1.5)
        assert abs(singular_moments(0.5, x, 2)[1] - b1) < 1e-10, x


def test_singular_moments_alpha_zero_is_plain_chebyshev_integral():
    # int_{-1}^{1} T_j: 2, 0, -2/3, 0, -2/15
    got = singular_moments(0.0, 0.3, 5)
    assert np.allclose(got, [2.0, 0.0, -2.0 / 3.0, 0.0, -2.0 / 15.0], atol=1e-12)


def test_singular_moments_symmetry_at_center():
    mom = singular_moments(0.5, 0.0, 8)
    assert np.allclose(mom[1::2], 0.0, atol=1e-10)  # odd polynomials cancel
    assert abs(mom[0] - 4.0) < 1e-10
    assert abs(mom[2] - (-12.0 / 5.0)) < 1e-10


def test_singular_moments_validation():
    with pytest.raises(ValueError):
        singular_moments(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        singular_moments(-0.1, 0.0, 4)
    with pytest.raises(ValueError):
        singular_moments(0.5, 2.0, 4)
    with pytest.raises(ValueError):
        singular_moments(0.5, 0.0, 0)
    for bad in (1.5, np.nan):  # one bad point in an array of rows
        with pytest.raises(ValueError):
            singular_moments(0.5, np.array([-0.5, 0.0, bad, 0.5]), 4)
    with pytest.raises(ValueError):
        singular_moments(0.5, np.zeros((2, 2)), 4)


def test_singular_moments_shapes_and_rows():
    assert singular_moments(0.5, np.array(0.2), 5).shape == (5,)
    assert singular_moments(0.5, 0.2, 5).shape == (5,)
    for alpha in (0.5, 0.3):
        xs = spectral_ops(9).points
        rows = singular_moments(alpha, xs, 7)
        assert rows.shape == (9, 7)
        for x, row in zip(xs, rows):
            assert np.array_equal(row, singular_moments(alpha, x, 7)), (alpha, x)


def _oracle_moments(alpha, x, n, a, b, pieces=4):
    """beta_j(x) for j < n by tanh-sinh quadrature on mpmath's 30-digit nodes.

    Each side of y = x is integrated in t = |x-y|^(1-alpha), which turns
    |x-y|^(-alpha) dy into dt / (1-alpha): the integrand is T_j alone, with
    no weight.  y = x +- t^(1/(1-alpha)) runs over the side ever faster as t
    grows, so t is broken where |x-y| crosses each of `pieces` equal parts
    of the side.  yhat is found in mpmath at every node, and the n
    integrands share the nodes, summed in double precision, level by level
    until a level changes no moment by more than 1e-14 of the largest.
    """
    mpmath = pytest.importorskip("mpmath")
    from mpmath.calculus.quadrature import TanhSinh
    with mpmath.workdps(30):
        rule = TanhSinh(mpmath.mp)
        e, x, a, b = (mpmath.mpf(v) for v in (1 - mpmath.mpf(alpha), x, a, b))
        beta = np.zeros(n)
        for side, length in ((-1, x - a), (1, b - x)):
            breaks = [(length * k / pieces) ** e for k in range(pieces + 1)]
            for lo, hi in zip(breaks[:-1], breaks[1:]):
                if lo == hi:
                    continue
                total = None
                for degree in range(1, 12):  # each level adds the nodes halfway between the last
                    nodes = rule.get_nodes(lo, hi, degree, mpmath.mp.prec)
                    yhat = np.array([float((2 * (x + side * t ** (1 / e)) - a - b) / (b - a))
                                     for t, _ in nodes])
                    t_vals = np.polynomial.chebyshev.chebvander(yhat, n - 1)
                    step = np.array([float(w) for _, w in nodes]) @ t_vals * 2.0**-degree
                    prev, total = total, step if total is None else step + 0.5 * total
                    if prev is not None and (np.max(np.abs(total - prev))
                                             <= 1e-14 * np.max(np.abs(total))):
                        break
                else:
                    raise AssertionError(f"tanh-sinh did not settle on [{lo}, {hi}]")
                beta += total / float(e)
        return beta


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999])
def test_singular_moments_match_mpmath_oracle(alpha):
    a, b = -1.0, 1.0
    for x in (a, a + 1e-3, 0.3, b - 1e-3, b):
        ref = _oracle_moments(alpha, x, 17, a, b)
        for n in (1, 2, 17):
            got = singular_moments(alpha, x, n, a, b)
            err = np.max(np.abs(got - ref[:n])) / np.max(np.abs(ref[:n]))
            assert err < 1e-12, (x, n, err)


def _recurrence_moments(alpha, x, n, dps=40):
    """beta_j(x) on [-1, 1] for j < n from the U_j-moment recurrence run in mpmath:
    nu_0 = (P + Q)/e, (j + e) nu_j = 2 j x nu_{j-1} - (j - e) nu_{j-2} + 2 (P + (-1)^j Q),
    beta_0 = nu_0, beta_j = (nu_j - nu_{j-2})/2 with nu_{-1} = 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        e, x = 1 - mpmath.mpf(alpha), mpmath.mpf(x)
        p, q = (1 - x) ** e, (1 + x) ** e
        nu = [mpmath.mpf(0), (p + q) / e]  # nu_-1, nu_0
        for j in range(1, n):
            nu.append((2 * j * x * nu[-1] - (j - e) * nu[-2] + 2 * (p + (-1) ** j * q)) / (j + e))
        beta = [nu[1]] + [(nu[j + 1] - nu[j - 1]) / 2 for j in range(1, n)]
        return np.array([float(v) for v in beta])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_singular_moments_stable_at_large_n(alpha):
    # every 8th Lobatto row of an n = 256 matrix, both ends included, where
    # nu_j grows like j^(2 alpha - 1) for alpha > 1/2
    n = 256
    points = spectral_ops(n).points
    picked = np.r_[0:n:8, n - 1]
    got = singular_moments(alpha, points[picked], n)
    for x, row in zip(points[picked], got):
        ref = _recurrence_moments(alpha, x, n)
        assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref)), (alpha, x)
