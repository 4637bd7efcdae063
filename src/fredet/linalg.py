"""Dense complex linear algebra: matrix validation, trace powers, eigenvalues,
and log det(I + zH) over many z on a once-reduced Hessenberg form."""

import numpy as np

# Hard cap on matrix dimension; assemblies beyond this are a config mistake.
MAX_DIM = 2048

_LOG_HUGE = 709.0  # log of the largest finite double, minus slack

# z values per block in hessenberg_logdet; the working set is O(_LOGDET_CHUNK * N)
_LOGDET_CHUNK = 256


class DetOverflowError(ArithmeticError):
    """|det(I + zA)| exceeded the double-precision range."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
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
    """[tr(A), tr(A^2), ..., tr(A^jmax)] by repeated multiplication.

    The last trace is tr(A^(jmax-1) A) = sum(A^(jmax-1) * A^T), so A^jmax is
    never formed: jmax = 2 needs no matrix product at all.
    """
    return _trace_powers(as_complex_matrix(a), jmax)


def _trace_powers(m: np.ndarray, jmax: int) -> np.ndarray:
    """trace_powers of a matrix that as_complex_matrix has already validated."""
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    out = np.empty(jmax, dtype=np.complex128)
    p = m
    out[0] = np.trace(p)
    for j in range(1, jmax - 1):
        p = p @ m
        out[j] = np.trace(p)
    if jmax > 1:
        out[jmax - 1] = np.sum(p * m.T)
    return out


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues, sorted by nonincreasing modulus.

    Backed by LAPACK's balanced Hessenberg reduction with shifted QR;
    non-convergence surfaces as LinAlgError rather than silent garbage.
    The contract is solver-agnostic: eigenvalue sums must reproduce
    trace_powers and the product must reproduce det_p(a, 1, z).
    """
    m = as_complex_matrix(a)
    lam = np.linalg.eigvals(m)
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order]


def hessenberg(a) -> np.ndarray:
    """Upper Hessenberg H with A = Q H Q* for a unitary Q, by Householder reflections.

    Entries below the subdiagonal are exact zeros.  Q is not formed: H serves
    det(I + zA) = det(I + zH).  A matrix without imaginary part is reduced in
    real arithmetic and gives a real H.
    """
    m = as_complex_matrix(a)
    h = m.real.copy() if not m.imag.any() else m.copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1:, k]
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        # I - v v* with |v|^2 = 2 maps x to -phase(x_0) |x| e_1; the sign avoids cancellation
        v = x.copy()
        v[0] += (x[0] / abs(x[0]) if x[0] != 0 else 1.0) * norm
        v *= np.sqrt(2.0) / np.linalg.norm(v)
        h[k + 1:, k:] -= v[:, None] * (v.conj() @ h[k + 1:, k:])
        h[:, k + 1:] -= (h[:, k + 1:] @ v)[:, None] * v.conj()
        h[k + 2:, k] = 0.0
    return h


def hessenberg_logdet(h, zs) -> np.ndarray:
    """log det(I + zH) for every z in zs, for an upper Hessenberg H.

    Each value is log|det| + i arg(det) on some branch of the argument, with
    real part -inf where the determinant is exactly zero.  Gaussian
    elimination with row pivoting: at step k, rows k and k+1 swap when that
    gives the larger pivot.  Only row k+1 has an entry left of the diagonal,
    so a z costs O(N^2); the z are eliminated together, in blocks of
    _LOGDET_CHUNK so the working set stays O(_LOGDET_CHUNK * N).  This is an
    LU determinant, not an eigenvalue product, so det_p's eigenvalue route
    stays independent of it.
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
    # A step scales the weights by at most 1 and sets the weight of row k + 1.
    n = h.shape[0]
    w = np.zeros((n, z.size), dtype=np.complex128)
    w[0] = 1.0
    pivots = np.empty((n, z.size), dtype=np.complex128)
    with np.errstate(all="ignore"):  # where() discards the quotients it does not pick
        for k in range(n - 1):
            r = w[k] + z * (h[:k + 1, k] @ w[:k + 1])
            b = z * h[k + 1, k]  # the entry of row k + 1 left of its diagonal
            swap = np.abs(b) > np.abs(r)
            pivots[k] = np.where(swap, -b, r)  # a swap flips the sign of the determinant
            # after a swap the row is row k minus its multiple of row k + 1; a zero
            # pivot (det = 0) leaves row k + 1 itself
            w[:k + 1] *= np.where(swap, 1.0, np.where(r != 0, -b / r, 0.0))
            w[k + 1] = np.where(swap, -r / b, 1.0)
        pivots[n - 1] = w[n - 1] + z * (h[:, n - 1] @ w)
        return np.log(np.abs(pivots)).sum(axis=0) + 1j * np.angle(pivots).sum(axis=0)
