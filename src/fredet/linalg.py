"""Dense linear algebra: matrix validation, trace powers, eigenvalues, and
log det(I + zH) over many z on a once-reduced Hessenberg form.  A real matrix
stays real throughout; only a complex one takes complex arithmetic."""

import math

import numpy as np

# Hard cap on matrix dimension; assemblies beyond this are a config mistake.
MAX_DIM = 2048

_LOG_HUGE = 709.0  # log of the largest finite double, minus slack

# z values per block in hessenberg_logdet; the working set is O(_LOGDET_CHUNK * N)
_LOGDET_CHUNK = 256

# elimination steps per block in _hessenberg_logdet_block: the rows before a block
# are read through one matrix product and rescaled once per block
_LOGDET_STEPS = 8

# cap on the baby steps s in _trace_powers; its working set is O(s N^2)
_TRACE_BABY_STEPS = 8


class DetOverflowError(ArithmeticError):
    """|det(I + zA)| exceeded the double-precision range."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square matrix with finite entries: float64 when its dtype
    has no imaginary part, complex128 otherwise.

    The dtype decides, not the values: a complex matrix whose imaginary parts
    are all zero stays complex128.  An input that already has its dtype and
    is contiguous is returned as it is, not copied.
    """
    m = np.asarray(a)
    m = np.ascontiguousarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds MAX_DIM={MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def trace_powers(a, jmax: int) -> np.ndarray:
    """[tr(A), tr(A^2), ..., tr(A^jmax)] by baby steps and giant steps.

    About 2 sqrt(jmax) matrix products up to jmax = 64 and jmax/8 + 5 beyond,
    instead of jmax - 2 (see _trace_powers).  A trace of a product is an
    elementwise sum, tr(BC) = sum(B * C^T), so the highest power is never
    formed: jmax = 2 needs no matrix product at all, jmax = 3 one.  The traces
    have the matrix's dtype: a real matrix's powers and traces stay float64.
    """
    return _trace_powers(as_complex_matrix(a), jmax)


def _trace_powers(m: np.ndarray, jmax: int) -> np.ndarray:
    """trace_powers of a matrix that as_complex_matrix has already validated.

    Up to jmax = 3 by repeated multiplication, the last trace as
    sum(A^(jmax-1) * A^T).  Beyond, by baby steps and giant steps (Paterson
    and Stockmeyer 1973): s = min(ceil(sqrt(jmax)), _TRACE_BABY_STEPS) baby
    powers (A^r)^T, r = 1..s, are kept as the rows of one s x N^2 array, and
    each giant power A^(is) gives tr(A^(is+r)) = sum(A^(is) * (A^r)^T) for all
    r at once, one matrix-vector product.  That is s - 1 + ceil(jmax/s) - 2
    matrix products instead of jmax - 2, with a working set of (s + 2) N^2.
    """
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    out = np.empty(jmax, dtype=m.dtype)
    if jmax <= 3:
        p = m
        out[0] = np.trace(p)
        for j in range(1, jmax - 1):
            p = p @ m
            out[j] = np.trace(p)
        if jmax > 1:
            out[jmax - 1] = np.sum(p * m.T)
        return out
    n = m.shape[0]
    s = min(math.isqrt(jmax - 1) + 1, _TRACE_BABY_STEPS)
    baby = np.empty((s, n, n), dtype=m.dtype)  # baby[r-1] = (A^r)^T = (A^T)^r
    baby[0] = m.T
    for r in range(1, s):
        np.matmul(baby[r - 1], baby[0], out=baby[r])
    out[:s] = np.trace(baby, axis1=1, axis2=2)
    rows = baby.reshape(s, n * n)
    step = baby[s - 1].T  # A^s
    giant = np.ascontiguousarray(step)
    for i in range(s, jmax, s):  # giant = A^i
        k = min(s, jmax - i)
        out[i:i + k] = rows[:k] @ giant.ravel()
        if i + s < jmax:
            giant = giant @ step
    return out


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues as a complex128 array, sorted by nonincreasing modulus.

    Backed by LAPACK's balanced Hessenberg reduction with shifted QR, real
    (dgeev) for a real matrix, whose complex eigenvalues then come in exact
    conjugate pairs, and complex (zgeev) otherwise; non-convergence surfaces
    as LinAlgError rather than silent garbage.  The contract is
    solver-agnostic: eigenvalue sums must reproduce trace_powers and the
    product must reproduce det_p(a, 1, z).
    """
    m = as_complex_matrix(a)
    lam = np.linalg.eigvals(m).astype(np.complex128, copy=False)
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order]


def hessenberg(a) -> np.ndarray:
    """Upper Hessenberg H with A = Q H Q* for a unitary Q, by Householder reflections.

    Entries below the subdiagonal are exact zeros.  Q is not formed: H serves
    det(I + zA) = det(I + zH).  H has the dtype of as_complex_matrix(a): a
    real matrix is reduced in real arithmetic and gives a real H.  The work
    array is H transposed, so the columns H[:, k+1:] that reflector k
    changes, from the left and from the right, are one contiguous block,
    updated by one rank-2 product.
    """
    m = as_complex_matrix(a)
    g = m.T.copy()  # g = H^T
    n = g.shape[0]
    v = np.zeros(n, dtype=g.dtype)  # the reflector, zero above row k + 1
    e = np.empty((2, n), dtype=g.dtype)
    for k in range(n - 2):
        x = g[k, k + 1:]  # H[k+1:, k]
        x0 = x[0].item()
        norm = math.sqrt(np.vdot(x, x).real)
        if norm == 0.0:
            continue
        # I - beta v v* with beta = 2 / |v|^2 maps x to -phase(x_0) |x| e_1; the
        # sign avoids cancellation
        phase = x0 / abs(x0) if x0 != 0 else 1.0
        vk = v[k + 1:]
        vk[:] = x
        vk[0] += phase * norm
        beta = 1.0 / (norm * (norm + abs(x0)))
        blk = g[k + 1:]  # H[:, k+1:]^T
        # from the left, H[k+1:, k+1:] -= beta v (v* H[k+1:, k+1:]); then from the
        # right, H[:, k+1:] -= beta (H[:, k+1:] v) v*; both as blk -= d @ e
        d = np.empty((n - k - 1, 2), dtype=g.dtype)
        d[:, 0] = blk @ v.conj()
        np.multiply(vk.conj(), beta, out=d[:, 1])
        np.multiply(v, beta, out=e[0])
        e[1] = vk @ blk
        e[1] -= (vk @ d[:, 0]) * e[0]
        blk -= d @ e
        x[0] = -phase * norm
        x[1:] = 0.0
        v[k + 1] = 0.0
    return np.ascontiguousarray(g.T)


def hessenberg_logdet(h, zs) -> np.ndarray:
    """log det(I + zH) for every z in zs, for an upper Hessenberg H.

    Each value is log|det| + i arg(det) on some branch of the argument, with
    real part -inf where the determinant is exactly zero.  Gaussian
    elimination with partial pivoting between rows k and k+1, each combined
    row rescaled by a factor of modulus 1, so the pivot choice needs no
    branch.  Only row k+1 has an entry left of the diagonal,
    so a z costs O(N^2); the z are eliminated together, in blocks of
    _LOGDET_CHUNK so the working set stays O(_LOGDET_CHUNK * N).  A real H
    (every built-in kernel gives one) is never upcast: its products with the
    complex weights run in real arithmetic on their float64 view, and only a
    complex H takes complex products.  This is an LU determinant, not an
    eigenvalue product, so det_p's eigenvalue route stays independent of it.
    """
    h = np.asarray(h)
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    out = np.empty(zs.size, dtype=np.complex128)
    for start in range(0, zs.size, _LOGDET_CHUNK):
        out[start:start + _LOGDET_CHUNK] = _hessenberg_logdet_block(
            h, zs[start:start + _LOGDET_CHUNK])
    return out


def _hessenberg_logdet_block(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    # The row being eliminated is held as its weights w over the rows of I + zH
    # (one column of w per z), so its entry in column k is w[k] + z (h[:k+1, k] . w[:k+1]).
    # Step k combines that row (entry r in column k) with row k + 1 (entry b) into
    # (r row_k+1 - b row) / s, s = max(|r|, |b|): partial pivoting up to a factor of
    # modulus 1, and a factor s of the determinant.  So w[:k+1] *= -b / s and
    # w[k+1] = r / s.  The last row's entry carries the phase.
    #
    # The steps go in blocks of S = _LOGDET_STEPS.  A block that starts at step k0
    # reads the rows before it only through g = H[:k0, k0:k0+S]^T w[:k0], one matrix
    # product, and rescales them only through F, the product of its S factors
    # -b / s, applied to w[:k0] once at its end.  Step t of the block reads the
    # window y[t:t+S+2] = [g[t:], F, w[k0:k0+t+1]], in which coef[k] picks g[t] and
    # h[k0:k+1, k], and rescales all of it but g[t], which it has used up.  Every
    # rescale factor has modulus at most 1, so no weight grows, and nothing is ever
    # divided by a product of them.
    n, m, S = h.shape[0], z.size, _LOGDET_STEPS
    real = not np.iscomplexobj(h)
    # a real H multiplies the float64 view of the complex rows: (re, im) pairs
    flat = (lambda a: a.view(np.float64)) if real else (lambda a: a)
    ht = np.ascontiguousarray(h.T, dtype=np.float64 if real else np.complex128)
    neg_sub = -np.diagonal(h, -1).astype(np.complex128)
    abs_sub, abs_z = np.abs(neg_sub), np.abs(z)
    k = np.arange(n)[:, None]
    cols = k + np.arange(1 - S, 1)  # rows k-S+1..k of column k of H
    coef = np.zeros((n, S + 2), dtype=ht.dtype)
    coef[:, 0] = 1.0
    coef[:, 2:] = np.where(cols >= k - k % S, ht[k, np.maximum(cols, 0)], 0.0)

    w = np.empty((n, m), dtype=np.complex128)
    w[0] = 1.0
    y = np.zeros((2 * S + 2, m), dtype=np.complex128)
    r = np.empty(m, dtype=np.complex128)
    r_flat = flat(r)
    f = np.empty(m, dtype=np.complex128)
    neg_b = np.empty((S, m), dtype=np.complex128)
    abs_b = np.empty((S, m))
    piv = np.zeros((S, m), dtype=np.complex128)  # the block's s, complex so division needs no cast
    scale = np.empty((n, m))
    # per step t of a block: the window it reads (flat), the part it rescales, the
    # newest row and the next row
    steps = [(flat(y[t:t + S + 2]), y[t + 1:t + S + 2], y[S + t + 1], y[S + t + 2])
             for t in range(S)]
    with np.errstate(all="ignore"):  # s = 0 (det = 0) fills its column with nan
        for k0 in range(0, n - 1, S):
            k1 = min(k0 + S, n - 1)
            nb = k1 - k0
            np.matmul(ht[k0:k1, :k0], flat(w[:k0]), out=flat(y[:nb]))
            y[nb:S] = 0.0
            y[S] = 1.0
            y[S + 1] = w[k0]
            np.multiply.outer(neg_sub[k0:k1], z, out=neg_b[:nb])
            np.multiply.outer(abs_sub[k0:k1], abs_z, out=abs_b[:nb])
            for (win, rest, cur, new), c, sc, s, ab, nbk in zip(
                    steps, coef[k0:k1], piv, piv.real, abs_b, neg_b):
                np.dot(c, win, out=r_flat)
                r *= z
                r += cur
                np.abs(r, out=s)
                np.maximum(s, ab, out=s)
                np.divide(nbk, sc, out=f)
                rest *= f
                np.divide(r, sc, out=new)
            w[:k0] *= y[S]
            w[k0:k1 + 1] = y[S + 1:S + nb + 2]
            scale[k0:k1] = piv[:nb].real
        last = w[n - 1] + z * (ht[n - 1] @ flat(w)).view(np.complex128)
        np.abs(last, out=scale[n - 1])
        out = np.log(scale).sum(axis=0) + 1j * np.angle(last)
    return np.where((scale == 0).any(axis=0), complex(-np.inf), out)
