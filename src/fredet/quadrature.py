"""Quadrature rules and Chebyshev spectral operators for 1-D integral equations."""

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

MAX_NODES = 4096


@dataclass(frozen=True)
class QuadRule:
    """Interpolatory quadrature rule on [a, b] with strictly increasing nodes."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SpectralOps:
    """Chebyshev collocation operators on n Lobatto points.

    points  ascending Chebyshev-Lobatto points on [-1, 1]
    C       Vandermonde C[m, k] = T_k(points[m])
    Cinv    inverse of C (samples -> Chebyshev coefficients), in closed form
    Sl      coefficient-space antiderivative vanishing at -1
    Sr      coefficient-space antiderivative of -f vanishing at +1,
            i.e. C @ Sr @ Cinv maps samples of q to samples of int_x^1 q
    """

    points: np.ndarray
    C: np.ndarray
    Cinv: np.ndarray
    Sl: np.ndarray
    Sr: np.ndarray


def _check_interval(a: float, b: float):
    if not (np.isfinite(a) and np.isfinite(b)) or not a < b:
        raise ValueError(f"need finite a < b, got a={a}, b={b}")


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0) -> QuadRule:
    """Gauss-Legendre rule with n nodes on [a, b].

    Nodes are found by Newton iteration on the Legendre recurrence from the
    asymptotic guesses cos(pi*(4k-1)/(4n+2)), tolerance 1e-15, at most 100
    sweeps.  Exact for polynomials of degree <= 2n-1.  The rule on [-1, 1] is
    computed once per n and mapped affinely onto [a, b].
    """
    _check_interval(a, b)
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"n must be in [1, {MAX_NODES}], got {n}")
    x, w = _gl_rule(n)
    half = 0.5 * (b - a)
    return QuadRule(a, b, 0.5 * (a + b) + half * x, half * w)


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError("Gauss-Legendre Newton iteration did not converge")
    x = 0.5 * (x - x[::-1])  # enforce symmetry exactly
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def rectangle(n: int, a: float = -1.0, b: float = 1.0) -> QuadRule:
    """Midpoint rule with n equal cells on [a, b]."""
    _check_interval(a, b)
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"n must be in [1, {MAX_NODES}], got {n}")
    h = (b - a) / n
    nodes = a + h * (np.arange(n) + 0.5)
    return QuadRule(a, b, nodes, np.full(n, h))


def clenshaw_curtis(n: int, a: float = -1.0, b: float = 1.0) -> QuadRule:
    """Clenshaw-Curtis rule with n >= 2 nodes on [a, b].

    The nodes are the Chebyshev-Lobatto points of spectral_ops(n), mapped
    affinely onto [a, b]; the weights integrate their polynomial interpolant
    exactly, so the rule is exact for degree <= n-1 (n for odd n).  The
    weights are the inverse real FFT of the moments int T_k = 2/(1-k^2) of
    the even k (Waldvogel 2006): O(n log n), all positive, and made exactly
    symmetric.
    """
    _check_interval(a, b)
    if not 2 <= n <= MAX_NODES:
        raise ValueError(f"n must be in [2, {MAX_NODES}], got {n}")
    w = np.empty(n)
    w[:-1] = np.fft.irfft(2.0 / (1.0 - np.arange(0, n, 2.0) ** 2), n - 1)
    w[0] *= 0.5
    w[-1] = w[0]
    half = 0.5 * (b - a)
    return QuadRule(a, b, 0.5 * (a + b) + half * _lobatto_points(n),
                    half * (0.5 * (w + w[::-1])))


def _lobatto_points(n: int) -> np.ndarray:
    """The n >= 2 ascending Chebyshev-Lobatto points -cos(pi j/(n-1)) on [-1, 1],
    with the ends and, for odd n, the midpoint exact."""
    j = np.arange(n)
    points = -np.cos(np.pi * j / (n - 1))
    points[np.abs(points) < 1e-15] = 0.0
    points[0], points[-1] = -1.0, 1.0
    return points


def _antiderivative_rows(n: int) -> np.ndarray:
    """Rows 1..n-1 of the Chebyshev antiderivative map (row 0 left as zero).

    From int T_0 = T_1, int T_1 = (T_0 + T_2)/4 and, for k >= 2,
    int T_k = T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)); the T_n output of the
    last input coefficient is dropped, which is why sample-space
    integration is exact only up to degree n-2.
    """
    raw = np.zeros((n, n))
    raw[1, 0] = 1.0
    if n > 2:
        raw[1, 2] = -0.5
    for k in range(2, n):
        raw[k, k - 1] = 1.0 / (2 * k)
        if k + 1 < n:
            raw[k, k + 1] = -1.0 / (2 * k)
    return raw


def lobatto_vander(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """points, C and Cinv of spectral_ops(n) (n >= 2), without Sl or Sr.

    Cinv = (2/(n-1)) H C^T H, H = diag(1/2, 1, ..., 1, 1/2), exactly, by discrete
    Chebyshev orthogonality on the Lobatto points (Mason and Handscomb 2003, 4.6).
    """
    if not 2 <= n <= MAX_NODES:
        raise ValueError(f"n must be in [2, {MAX_NODES}], got {n}")
    points = _lobatto_points(n)
    C = np.polynomial.chebyshev.chebvander(points, n - 1)
    h = np.ones(n)
    h[0] = h[-1] = 0.5
    return points, C, (2.0 / (n - 1)) * (h[:, None] * C.T * h[None, :])


def spectral_ops(n: int) -> SpectralOps:
    """Chebyshev-Lobatto collocation operators of size n (n >= 2).

    C @ Sl @ Cinv applied to samples of a polynomial q of degree <= n-2
    yields samples of int_{-1}^x q; C @ Sr @ Cinv yields int_x^1 q.
    """
    points, C, Cinv = lobatto_vander(n)
    raw = _antiderivative_rows(n)
    signs = (-1.0) ** np.arange(1, n)
    Sl = raw.copy()
    Sl[0, :] = -signs @ raw[1:, :]  # constant row: antiderivative vanishes at -1
    Sr = -raw
    Sr[0, :] = np.sum(raw[1:, :], axis=0)  # vanishes at +1 instead
    return SpectralOps(points, C, Cinv, Sl, Sr)


def singular_moments(alpha: float, x, n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Moments beta_j(x) = int_a^b |x-y|^(-alpha) T_j(yhat) dy for j < n.

    yhat is y mapped affinely onto [-1, 1], and xhat likewise.  With
    e = 1 - alpha, P = (1 - xhat)^e and Q = (1 + xhat)^e, the moments
    nu_j = int_-1^1 |xhat-y|^(-alpha) U_j(y) dy of the second-kind
    Chebyshev polynomials satisfy, exactly,

        nu_-1 = 0,  nu_0 = (P + Q)/e,
        (j + e) nu_j = 2 j xhat nu_{j-1} - (j - e) nu_{j-2} + 2 (P + (-1)^j Q),

    from integrating by parts with T_j' = j U_{j-1} and
    y U_{j-1} = (U_j + U_{j-2})/2 (modified moments: Piessens and Branders,
    BIT 13, 1973).  T_0 = U_0, T_1 = U_1/2 and T_j = (U_j - U_{j-2})/2 give
    beta_j = ((b-a)/2)^e mu_j with mu_0 = nu_0 and mu_j = (nu_j - nu_{j-2})/2.

    Near xhat = +-1 and for alpha > 1/2, nu_j grows like j^(2 alpha - 1)
    while mu_j stays bounded, so mu_j taken as a difference of nu_j would
    lose about log10(j) digits.  The recurrence therefore runs on
    g_j = nu_j - s nu_{j-1}, s = sign(xhat) (Reinsch's modification):

        (j + e) g_j = 2 j (xhat - s) nu_{j-1} + s (j - e) g_{j-1} + 2 (P + (-1)^j Q),
        nu_j = s nu_{j-1} + g_j,   mu_j = (g_j + s g_{j-1})/2,

    where xhat - s is -(1 - xhat) or 1 + xhat, both taken from the distance
    to an end.  alpha >= 1 is not integrable and is rejected.

    x is a scalar, giving shape (n,), or a 1-D array of points, giving shape
    (len(x), n).  The recurrence runs over all rows at once: O(n) flops per
    row, and every operation is elementwise, so a row's bits do not depend on
    how many rows are passed.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    _check_interval(a, b)
    if n < 1:
        raise ValueError("n must be at least 1")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"x must be a scalar or a 1-D array, got shape {xs.shape}")
    rows = xs.reshape(-1)
    inside = (a <= rows) & (rows <= b)  # False for NaN
    if not np.all(inside):
        raise ValueError(f"x={rows[~inside][0]} outside [{a}, {b}]")

    e = 1.0 - alpha
    scale = 2.0 / (b - a)
    left, right = scale * (rows - a), scale * (b - rows)  # 1 + xhat and 1 - xhat, both >= 0
    # libm pow on each row, so that P and Q do not depend on numpy's choice of vector loop
    p = np.array([v ** e for v in right.tolist()])
    q = np.array([v ** e for v in left.tolist()])
    forcing = (2.0 * (p + q), 2.0 * (p - q))  # 2 (P + (-1)^j Q) at even and odd j
    upper = right <= left
    sign = np.where(upper, 1.0, -1.0)
    shift = 2.0 * np.where(upper, -right, left)  # 2 (xhat - s)
    nu = (p + q) / e
    g = nu
    mu = np.empty((n, rows.size))
    mu[0] = nu
    for j in range(1, n):
        sg = sign * g
        g = (j * shift * nu + (j - e) * sg + forcing[j % 2]) / (j + e)
        mu[j] = 0.5 * (g + sg)
        nu = sign * nu + g
    out = (0.5 * (b - a)) ** e * mu.T
    return out if xs.ndim else out[0]
