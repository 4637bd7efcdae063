"""Dense linear algebra: matrix validation, trace powers, eigenvalues, and
log det(I + zH) over many z on a once-reduced Hessenberg form.  A real matrix
stays real throughout; only a complex one takes complex arithmetic."""

import math

import numpy as np

# Hard cap on matrix dimension; assemblies beyond this are a config mistake.
MAX_DIM = 2048

_LOG_HUGE = 709.0  # log of the largest finite double, minus slack

_TINY = np.finfo(np.float64).tiny  # the smallest normal double

# z values per block in hessenberg_logdet; the working set is O(_LOGDET_CHUNK * N)
_LOGDET_CHUNK = 256

# elimination steps per block in _hessenberg_logdet_block: the rows before a block
# are read through one matrix product and rescaled once per block
_LOGDET_STEPS = 8

# cap on the baby steps s in _trace_powers; its working set is O(s N^2)
_TRACE_BABY_STEPS = 8

# _tridiagonalize takes reflectors _TRIDIAGONAL_PANEL at a time while the part left to
# reduce has at least order _TRIDIAGONAL_CROSSOVER.  Measured on green ngl and sign rect
# S, one BLAS thread: a panel of 32 in place of 32 single steps at order r takes 1.05x
# their time at r = 96, 0.98-1.03x at 128, 0.91x at 160 and 0.87x at 256.  The whole
# reduction takes 19 ms at N = 400 with the crossover at 256 and 16 ms at 160, against
# 40 ms unblocked, and 0.13 s at N = 800 either way, against 0.64 s.  256 keeps every
# order up to 200 (the bench locate discs, the example searches) bit for bit as the
# single steps give it.  Panels of 16, 32 and 64 take the same time up to N = 800;
# at N = 1500, 0.85 s with 32 against 1.0 s with 64.
_TRIDIAGONAL_CROSSOVER = 256
_TRIDIAGONAL_PANEL = 32


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
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
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
    jmax = 0 gives the empty array, the traces det_p's correction reads at p = 1.
    """
    out = np.empty(jmax, dtype=m.dtype)
    if jmax == 0:
        return out
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
    array is H^T, in which the columns H[:, k+1:] that reflector k changes are
    one contiguous block, updated by one rank-2 product; H is returned as its
    transposed view (Fortran order), which _hessenberg_logdet_block reads.
    """
    m = as_complex_matrix(a)
    g = m.T.copy()  # g = H^T
    n = g.shape[0]
    v = np.zeros(n, dtype=g.dtype)  # the reflector, zero above row k + 1
    e = np.empty((2, n), dtype=g.dtype)
    for k in range(n - 2):
        v[k] = 0.0  # reflector k is zero above row k + 1; row k may hold an older entry
        x = g[k, k + 1:]  # H[k+1:, k]
        x0 = g.item(k, k + 1)
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
    return g.T


def _tridiagonalize(m: np.ndarray, skew: bool) -> tuple:
    """The tridiagonal T with m = Q T Q^T for an orthogonal Q, m real,
    C-contiguous and symmetric (skew False) or skew (skew True), by Householder
    reflections (Golub & Van Loan, Matrix Computations, 4th ed., 2013, section
    8.3), as the tuple (diag, sup, sub) of its diagonal, superdiagonal
    T[k, k+1] and subdiagonal T[k+1, k].  m is the work array and is left
    overwritten; nothing validates or copies it: its one caller,
    determinants._reduce, has checked that it is finite and of its kind.

    Each reflector is read from row k, which is column k (negated if skew).  T
    is exactly of m's kind: sub is sup itself, or -sup if skew, whose diag is
    exactly zero.  While the part left to reduce has order
    _TRIDIAGONAL_CROSSOVER or more, its reflectors are taken _TRIDIAGONAL_PANEL
    at a time (_tridiagonal_panel); the rest, and all of a smaller m, one at a
    time (_tridiagonal_steps).
    """
    n = m.shape[0]
    diag = np.empty(n)
    sup = np.zeros(max(n - 1, 0))
    k0, rest = 0, m
    while n - k0 >= _TRIDIAGONAL_CROSSOVER:
        update = _tridiagonal_panel(m, k0, skew, diag, sup)
        k0 += _TRIDIAGONAL_PANEL
        # the single steps run twice as fast on the contiguous update as on m's square
        rest = m[k0:, k0:] if n - k0 >= _TRIDIAGONAL_CROSSOVER else update
        np.subtract(m[k0:, k0:], update, out=rest)
    _tridiagonal_steps(rest, skew, sup[k0:])
    if skew:
        return np.zeros(n), sup, -sup
    diag[k0:] = rest.diagonal()
    return diag, sup, sup


def _reflector(x: np.ndarray, u: np.ndarray):
    """T[k, k+1] = -sign(x_0) |x| for the row x = A[k, k+1:], with u (which may be x
    itself) set to the Householder vector scaled so that I - u u^T maps x to
    -sign(x_0) |x| e_1; None, u not written, where x is zero.  The sign avoids
    cancellation."""
    x0 = x.item(0)
    norm = math.sqrt(np.dot(x, x))
    if norm == 0.0:
        return None
    sign = -1.0 if x0 < 0 else 1.0
    scale = 1.0 / math.sqrt(norm * (norm + abs(x0)))
    np.multiply(x, scale, out=u)
    u[0] = (x0 + sign * norm) * scale
    return -sign * norm


def _tridiagonal_steps(m: np.ndarray, skew: bool, sup: np.ndarray):
    """Reduce m, real symmetric or skew, to tridiagonal form in place, one
    reflector at a time (LAPACK's dsytd2), and write T[k, k+1] to sup.

    Only the three diagonals of m are left meaningful.  With u the reflector of
    _reflector, step k is one matrix-vector product p = A u over the rows below
    row k and the update A -= w u^T + sigma u w^T, w = p - (u^T p / 2) u, as one
    rank-2 product: two passes over A to hessenberg's three.  u and p are kept
    zero-padded to length N, so the update covers whole rows of A, one
    contiguous block, where the trailing square alone would be a strided one
    (about 4x slower to update at N=64).  u^T p = u^T A u is zero for a skew A,
    whose update then takes p alone.
    """
    n = m.shape[0]
    q = np.zeros((3, n))  # rows p, u, r
    p, u, r = q
    left = q[:2].T  # columns p, u
    right = q[1:]  # rows u, r
    prod = np.empty_like(m)
    for k in range(n - 2):
        u[k] = r[k] = 0.0  # zero at and above row k; left over from step k - 1
        uk = u[k + 1:]
        coupling = _reflector(m[k, k + 1:], uk)
        if coupling is None:
            continue
        rows = m[k + 1:]
        pk = p[k + 1:]
        np.dot(rows, u, out=pk)
        # w u^T + sigma u w^T = p u^T + u r^T for r = sigma p - (u^T p) u
        rk = r[k + 1:]
        if skew:
            np.negative(pk, out=rk)
        else:
            np.multiply(uk, -np.dot(uk, pk), out=rk)
            rk += pk
        block = prod[:n - k - 1]
        np.dot(left[k + 1:], right, out=block)
        rows -= block
        sup[k] = coupling
    if n > 1:
        sup[-1] = m[-2, -1]


def _tridiagonal_panel(m: np.ndarray, k0: int, skew: bool, diag: np.ndarray, sup: np.ndarray):
    """Steps k0 to k0 + _TRIDIAGONAL_PANEL - 1 of _tridiagonal_steps on m, in the
    blocked form of LAPACK's dlatrd/dsytrd.

    Row k is read as A[k, k:] less the updates of the panel's earlier steps, and
    p = A u as one matrix-vector product with the trailing square of A less
    their share.  m is not written: the trailing square's update, Y^T Z with Y
    having rows w_j and sigma u_j and Z rows u_j and w_j, is returned.  diag[k]
    and sup[k] take T[k, k] and T[k, k+1] for the panel's steps.
    """
    n = m.shape[0]
    sigma = -1.0 if skew else 1.0
    nb = _TRIDIAGONAL_PANEL
    y = np.zeros((2 * nb, n))  # rows w_j, sigma u_j
    z = np.zeros((2 * nb, n))  # rows u_j, w_j
    for j in range(nb):
        k = k0 + j
        row = m[k, k:] - y[:2 * j, k] @ z[:2 * j, k:]
        diag[k] = row[0]
        u = row[1:]
        coupling = _reflector(u, u)
        if coupling is None:
            continue
        w = m[k + 1:, k + 1:] @ u
        w -= y[:2 * j, k + 1:].T @ (z[:2 * j, k + 1:] @ u)
        # w = p - (u^T p / 2) u; u^T p is zero for a skew A
        if not skew:
            w += (-0.5 * np.dot(u, w)) * u
        y[2 * j, k + 1:] = w
        y[2 * j + 1, k + 1:] = sigma * u
        z[2 * j, k + 1:] = u
        z[2 * j + 1, k + 1:] = w
        sup[k] = coupling
    k1 = k0 + nb
    return y[:, k1:].T @ z[:, k1:]


def hessenberg_logdet(h, zs) -> np.ndarray:
    """log det(I + zH) for every z in zs, for an upper Hessenberg H.

    Each value is log|det| + i arg(det) on some branch of the argument, with
    real part -inf where the determinant is exactly zero.  The form of h picks
    the elimination.  A tridiagonal H given as the 3-tuple (diag, sup, sub) of
    its diagonals, the form prepare keeps for a real symmetric or skew Nystrom
    operator, takes _tridiagonal_logdet_block, O(N) per z.  Any other h, a
    tridiagonal matrix included, is read as a matrix by np.asarray (so a 3 x 3
    one is not given as a tuple) and takes Gaussian elimination with partial
    pivoting between rows k and k+1, each combined row rescaled by a factor of
    modulus 1, so the pivot choice needs no branch.  Only row k+1 has an entry left of the diagonal, so a z
    costs O(N^2); H^T is read in C order, a view of the Fortran-ordered H that
    hessenberg returns.  Either way the z are eliminated together, in blocks of
    _LOGDET_CHUNK so the working set stays O(_LOGDET_CHUNK * N).  A real H
    (every built-in kernel gives one) is never upcast: in the O(N^2)
    elimination its products with the complex weights run in real arithmetic
    on their float64 view, and only a complex H takes complex products.  This
    is an LU determinant, not an eigenvalue product, so det_p's eigenvalue
    route stays independent of it.
    """
    block = (_tridiagonal_logdet_block if isinstance(h, tuple) and len(h) == 3
             else _hessenberg_logdet_block)
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    out = np.empty(zs.size, dtype=np.complex128)
    for start in range(0, zs.size, _LOGDET_CHUNK):
        out[start:start + _LOGDET_CHUNK] = block(h, zs[start:start + _LOGDET_CHUNK])
    return out


def _tridiagonal_logdet_block(h: tuple, z: np.ndarray) -> np.ndarray:
    """hessenberg_logdet of a tridiagonal H, the tuple h = (diag, sup, sub) of its
    diagonals, at the z of one block, by the pivots of I + zH without row
    exchanges (_tridiagonal_pivots), O(N) per z.

    Stability: the pivots follow the ratio recurrence
    d_k = (1 + z a_k) - z^2 e_(k-1) / d_(k-1), with a = diag and
    e_k = sup[k] sub[k] = H[k, k+1] H[k+1, k].  Each entry is read once, so
    the computed pivots are the exact pivots of a tridiagonal matrix whose
    diagonal entries 1 + z a_k and coupling products z^2 e_k carry relative
    perturbations of a few rounding units.  The determinant of a tridiagonal matrix depends on
    nothing else, so the result is the exact determinant of such a neighbour
    of I + zH, however small a pivot gets: no growth factor enters, unlike
    unpivoted elimination of a full matrix.  A block where a quotient
    overflows or meets a zero pivot, so that some value is not finite, is
    eliminated again at those z with the guard of _tridiagonal_pivots.  Each
    z takes one complex log of its pivots' product (_pivot_logs), and only a
    product out of the normal double range the sum of its pivots' logs.
    """
    with np.errstate(all="ignore"):
        out = _pivot_logs(_tridiagonal_pivots(h, z, guarded=False))
        redo = ~np.isfinite(out)
        if redo.any():
            out[redo] = _pivot_logs(_tridiagonal_pivots(h, z[redo], guarded=True))
    return out


def _tridiagonal_pivots(h: tuple, z: np.ndarray, guarded: bool) -> np.ndarray:
    """The N x m pivots of I + zH, H tridiagonal and h = (diag, sup, sub) its
    diagonals, one column per z, whose product is det(I + zH).

    Row k starts as 1 + z a_k, and q[k] as z^2 e_k; step k turns q[k-1] into
    the quotient z^2 e_(k-1) / d_(k-1) and subtracts it from row k.  Guarded,
    a pivot with |d_(k-1)| <= tiny |z^2 e_(k-1)| (tiny the smallest normal
    double), where the quotient would overflow or d_(k-1) is zero, is taken as
    exactly zero.  Like the pivmin of LAPACK's dstebz, that changes a diagonal
    entry by less than the rounding of z^2 e_(k-1).  Rows k-1 and k then form
    a 2 x 2 block whose determinant is exactly -z^2 e_(k-1): row k-1 takes
    that factor, row k the factor 1, and row k+1 starts afresh, since the
    leading minor through row k-1 vanishes.  With e_(k-1) = 0 the factor is 0:
    the matrix splits there and its determinant is exactly zero.
    """
    a, sup, sub = h
    d = np.multiply.outer(a, z)
    d += 1.0
    q = np.multiply.outer(sup * sub, z * z)
    if not guarded:
        for qk, dk, dnext in zip(q, d, d[1:]):  # q[k-1], d[k-1], d[k], bound once
            qk /= dk
            dnext -= qk
        return d
    # where z^2 overflows, z^2 e_k as the product of z H's two couplings
    q = np.where(np.isfinite(q), q, np.multiply.outer(sup, z) * np.multiply.outer(sub, z))
    closed = np.zeros(z.size, dtype=bool)  # row k-1 closed a 2 x 2 block
    for k in range(1, a.size):
        pair = ~closed & (np.abs(d[k - 1]) <= _TINY * np.abs(q[k - 1]))
        quotient = np.where(closed | pair, 0.0, q[k - 1] / d[k - 1])
        d[k - 1, pair] = -q[k - 1, pair]
        d[k] -= quotient
        d[k, pair] = 1.0
        closed = pair
    return d


def _pivot_logs(d: np.ndarray) -> np.ndarray:
    """log of the product of each column of the pivots d, -inf where a pivot is zero.

    Each column takes one complex log of its product.  Only a column whose product
    is zero, below the smallest normal double or not finite takes the sum of the
    real logs of its pivots' moduli plus i times the phase of the product of their
    unit phasors, which neither overflows nor underflows.
    """
    prod = np.multiply.reduce(d, axis=0)
    out = np.log(prod)
    mag = np.abs(prod)
    redo = ~((mag >= _TINY) & (mag < np.inf))
    if redo.any():
        d = d[:, redo]
        mod = np.abs(d)
        sums = np.log(mod).sum(axis=0) + 1j * np.angle(np.prod(d / mod, axis=0))
        out[redo] = np.where((mod == 0).any(axis=0), complex(-np.inf), sums)
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
    h = np.asarray(h)
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
