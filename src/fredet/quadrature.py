"""Quadrature rules and Chebyshev spectral operators for 1-D integral equations."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_NODES = 4096

# quadrature points per block in singular_moments; the working set is O(_MOMENT_BLOCK)
_MOMENT_BLOCK = 1 << 15


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
    Cinv    inverse of C (samples -> Chebyshev coefficients)
    Sl      coefficient-space antiderivative vanishing at -1
    Sr      coefficient-space antiderivative of -f vanishing at +1,
            i.e. C @ Sr @ Cinv maps samples of q to samples of int_x^1 q
    """

    n: int
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


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    if n == 1:
        x = np.zeros(1)
        dp = np.ones(1)  # P_1' = 1
    else:
        k = np.arange(1, n + 1)
        x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(100):
            p0 = np.ones_like(x)
            p1 = x.copy()
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        else:
            raise RuntimeError("Gauss-Legendre Newton iteration did not converge")
        x = 0.5 * (x - x[::-1])  # enforce symmetry exactly
        p0 = np.ones_like(x)
        p1 = x.copy()
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        dp = n * (x * p1 - p0) / (x * x - 1.0)
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


def spectral_ops(n: int) -> SpectralOps:
    """Chebyshev-Lobatto collocation operators of size n (n >= 2).

    C @ Sl @ Cinv applied to samples of a polynomial q of degree <= n-2
    yields samples of int_{-1}^x q; C @ Sr @ Cinv yields int_x^1 q.
    """
    if not 2 <= n <= MAX_NODES:
        raise ValueError(f"n must be in [2, {MAX_NODES}], got {n}")
    points = _lobatto_points(n)
    C = np.polynomial.chebyshev.chebvander(points, n - 1)
    Cinv = np.linalg.inv(C)  # LU-backed; n is small enough for this to be stable

    raw = _antiderivative_rows(n)
    signs = (-1.0) ** np.arange(1, n)
    Sl = raw.copy()
    Sl[0, :] = -signs @ raw[1:, :]  # constant row: antiderivative vanishes at -1
    Sr = -raw
    Sr[0, :] = np.sum(raw[1:, :], axis=0)  # vanishes at +1 instead
    return SpectralOps(n, points, C, Cinv, Sl, Sr)


def _gl01(npts: int):
    """The cached npts-point Gauss-Legendre rule (_gl_rule), mapped onto [0, 1]."""
    x, w = _gl_rule(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def singular_moments(alpha: float, x, n: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """Moments beta_j(x) = int_a^b |x-y|^(-alpha) T_j(yhat) dy for j < n.

    yhat is y mapped affinely onto [-1, 1].  The integral is split at y = x
    and the substitution t = s^(1/(1-alpha)) removes the singularity on each
    side; composite Gauss-Legendre panels, geometrically graded toward s = 0,
    integrate the smooth remainder.  alpha >= 1 is not integrable and is
    rejected.

    x is a scalar, giving shape (n,), or a 1-D array of points, giving shape
    (len(x), n).  All rows are done in one blocked pass: one Chebyshev
    three-term recurrence over both sides of every row in a block, so N rows
    cost O(N^3) flops for the fixed rules used here, and the working set stays
    O(_MOMENT_BLOCK) quadrature points (at least one row).
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

    q = 1.0 / (1.0 - alpha)
    q_int = int(round(q)) if abs(q - round(q)) < 1e-12 and q <= 4.5 else 0
    if q_int:
        # integrand is a polynomial of degree q*(n-1) in s: one exact panel
        u01, w01 = _gl01(q_int * (n - 1) // 2 + 8)
        frac = np.array([0.0, 1.0])
    else:
        # graded panels: [0, r^M] then [r^m, r^(m-1)] up to s_top, r = 1/4, M = 24.
        # T_j(yhat(s^q)) gets steeper with q on the top panel; the sqrt(q) term
        # stays within 3e-14 of a refined rule for alpha <= 0.95, n <= 256
        npts = max(24, n // 2 + 16, math.ceil(math.sqrt(q) * (n / 2 + 8)))
        if npts > MAX_NODES:
            raise ValueError(f"alpha={alpha} is too close to 1 for n={n}: the graded rule "
                             f"needs {npts} > {MAX_NODES} nodes per panel")
        u01, w01 = _gl01(npts)
        frac = np.concatenate(([0.0], 0.25 ** np.arange(24, -1, -1.0)))
    row_points = 2 * (frac.size - 1) * u01.size
    step = max(1, _MOMENT_BLOCK // row_points)
    out = np.empty((rows.size, n))
    for start in range(0, rows.size, step):
        out[start:start + step] = _moments_block(rows[start:start + step], n, alpha, q,
                                                 a, b, frac, u01, w01)
    return out if xs.ndim else out[0]


def _moments_block(xs, n, alpha, q, a, b, frac, u01, w01) -> np.ndarray:
    """singular_moments rows for the points xs: panels in s scaled to each side."""
    length = np.stack((xs - a, b - xs), axis=1)  # left and right of each x
    # libm pow, not numpy's vector pow, which is an ulp off more often and
    # would move every panel edge of that side
    s_top = np.array([v ** (1.0 - alpha) for v in length.ravel().tolist()]).reshape(length.shape)
    edges = s_top[:, :, None] * frac  # zero-length side: zero weights, nodes at y = x
    lo, width = edges[:, :, :-1, None], np.diff(edges)[:, :, :, None]
    s = (lo + width * u01).reshape(xs.size, -1)
    ws = (width * w01).reshape(xs.size, -1)
    side = np.repeat([-1.0, 1.0], s.shape[1] // 2)
    yhat = (2.0 * (xs[:, None] + side * s**q) - (a + b)) / (b - a)

    # T_0 = 1, T_1 = yhat, T_{j+1} = 2 yhat T_j - T_{j-1}, as chebvander does;
    # each row's weighted sum is its own dot product, whatever the block size
    y2 = 2.0 * yhat
    t_prev, t = np.ones_like(yhat), yhat
    scratch = np.empty_like(yhat)
    beta = np.empty((n, xs.size))
    beta[0] = (ws[:, None, :] @ t_prev[:, :, None])[:, 0, 0]
    for j in range(1, n):
        if j > 1:
            np.multiply(y2, t, out=scratch)
            np.subtract(scratch, t_prev, out=t_prev)
            t_prev, t = t, t_prev
        beta[j] = (ws[:, None, :] @ t[:, :, None])[:, 0, 0]
    return q * beta.T
