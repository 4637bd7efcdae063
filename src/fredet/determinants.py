"""Regularized determinants det_p(I + zK) of discrete operators, by three routes."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_LOG_HUGE, DetOverflowError, _trace_powers, _tridiagonalize,
                     as_complex_matrix, hessenberg, hessenberg_logdet)

# W^(1/2) K W^(-1/2) counts as symmetric (skew) when no entry of S - S* (S + S*) exceeds
# this share of its largest entry.  The scaling alone leaves at most 6.5e-16 on the
# built-in symmetric and skew kernels (abs_pow_iter2 with zero_diag included) for
# N = 2..2048, so 45 rounding units keep a margin of 15 while a kernel whose evaluation
# is not symmetric to rounding stays on K
SYMMETRY_TOL = 1e-14


@dataclass(frozen=True)
class DetValue:
    """det_p(I + zK) from one of the three routes; compare routes by value."""

    value: complex


def _matrix_of(op) -> np.ndarray:
    return as_complex_matrix(getattr(op, "matrix", op))


def _check_p(p: int):
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")


def _finite(z):
    """z (a number or an array) as given; ValueError names its first value that is not finite."""
    bad = np.extract(~np.isfinite(z), z)
    if bad.size:
        raise ValueError(f"z must be finite, got {bad[0]}")
    return z


def _finish(p: int, z, phase, logdet, traces):
    """det_p(I + zK) = phase exp(logdet + sum_{j<p} (-z)^j traces[j-1] / j), for one z
    or an array of them, from a factored det(I + zK) = phase exp(logdet): slogdet's,
    lu_slogdet's, or phase 1 and hessenberg_logdet's complex log.  The sum is taken
    by Horner's rule in -z from 0j, (...(traces[p-2]/(p-1) (-z) + traces[p-3]/(p-2))
    (-z) + ... + traces[0]) (-z), so no power of z is formed and a large p whose
    det_p is in range gives it.  Exactly 0 where logdet is -inf (I + zK singular);
    DetOverflowError when a value leaves the double range, or is nan: finite K and
    z give nan only where a step of the elimination, or a power trace, overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # traces that overflowed give nan
        tail = 0j
        for j in range(p - 1, 0, -1):
            tail = (tail + traces[j - 1] / j) * -z
        w = logdet + tail
    top = np.max(np.real(w), initial=-np.inf)
    if np.isnan(top):
        raise DetOverflowError(f"det_{p} overflowed the double range as it was formed")
    if top > _LOG_HUGE:
        raise DetOverflowError(f"|det_{p}| ~ exp({top:.4g}) is out of double range")
    return np.where(np.real(w) == -np.inf, 0.0, phase * np.exp(w))


def _lu_slogdet(m: np.ndarray, w):
    """(phase, log|det|) of a new I + wK from one LU (numpy.linalg.slogdet), in float64
    when K and w are both real, complex128 otherwise.  An entry of wK or a step of the
    LU that overflows gives no warning, and leaves a nan or inf for the caller to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = (w.real if w.imag == 0 else w) * m
        shifted.flat[::m.shape[0] + 1] += 1.0
        return np.linalg.slogdet(shifted)


def _lu_dets(m: np.ndarray, z: complex, traces, ps) -> list:
    """det_p(I + zK) for every p in ps from one LU of I + zK (_lu_slogdet); _finish
    refuses the nan or inf that an overflow leaves."""
    phase, logabs = _lu_slogdet(m, z)
    return [complex(_finish(p, z, phase, logabs, traces)) for p in ps]


def det_p(op, p: int, z) -> DetValue:
    """det_p(I + zK) = det(I + zK) * exp(sum_{j<p} (-z)^j tr(K^j) / j).

    Computed from an LU determinant and explicit low-order traces, with the
    magnitude carried in log space; the plain determinant is the p = 1 case.
    The trace correction is summed by Horner's rule in -z (_finish), so any
    p >= 1 whose det_p is in the double range gives it, however large p and
    |z|^p are; DetOverflowError otherwise.  A real K at a real z is factored
    in real arithmetic; a non-real z, or a complex K, takes the complex LU.
    """
    m = _matrix_of(op)
    _check_p(p)
    z = _finite(complex(z))
    return DetValue(_lu_dets(m, z, _trace_powers(m, p - 1), (p,))[0])


@dataclass(frozen=True)
class PreparedDet:
    """det_p(I + zK) at many z on one reduction of K; made by prepare.

    matrix is the validated K, hess an upper Hessenberg H with
    det(I + zK) = det(I + z 2^log2_scale H): a tridiagonal H as the tuple
    (diag, sup, sub) of its three diagonals, as a real symmetric or skew
    Nystrom operator or a tridiagonal K gives it (see prepare), else
    hessenberg's Fortran-ordered view; hessenberg_logdet picks its
    elimination by that form.  log2_scale is 0, and H has the determinants of
    K itself, unless K is so large or so small that its reduction would leave
    the double range (_log2_scale).  It holds no p: values takes p, as det_p
    does.  It can stand for K wherever an operator is taken: det_p reads
    matrix, and locate_eigs samples logdet instead of reducing K again,
    polishes with lu_slogdet, asks real_zeros whether its zeros are real, and
    finishes its residuals from one more lu_slogdet call.
    """

    matrix: np.ndarray
    hess: np.ndarray | tuple
    log2_scale: int

    def logdet(self, zs) -> np.ndarray:
        """log det(I + zK) for every z in zs, as hessenberg_logdet gives it for H at
        z 2^log2_scale, with real part -inf where I + zK is exactly singular.
        ValueError at a z not finite.  DetOverflowError where z 2^log2_scale leaves
        the double range, or where a value is nan or has real part +inf, which an
        overflowed elimination leaves; either names the z given."""
        zs = _finite(np.asarray(zs, dtype=np.complex128).ravel())
        with np.errstate(over="ignore"):
            scaled = _times_power_of_two(zs, self.log2_scale) if self.log2_scale else zs
        bad = ~np.isfinite(scaled)
        if bad.any():
            raise DetOverflowError(f"z 2^{self.log2_scale} is out of double range"
                                   f" at z = {zs[bad][0]}")
        logs = hessenberg_logdet(self.hess, scaled)
        bad = np.isnan(logs) | (logs.real == np.inf)
        if bad.any():
            raise DetOverflowError(f"det(I + zK) overflowed the double range at z = {zs[bad][0]}")
        return logs

    def lu_slogdet(self, ws):
        """The phases and the log-moduli of det(I + wK) for every w of the array ws, as
        the two rows of one complex128 array (log-moduli with imaginary part 0), each
        from one LU of I + wK itself (_lu_slogdet), matrix read unscaled: in float64
        where K and w are both real.  A singular I + wK gives phase 0 and log-modulus
        -inf.  The rows unpack as _finish's phase and logdet."""
        # reshaped so that no w still gives two columns
        return np.array([_lu_slogdet(self.matrix, w) for w in ws], np.complex128).reshape(-1, 2).T

    @property
    def real_zeros(self) -> bool:
        """Whether every zero of det(I + wH) is real and simple, read from the structure of H.

        They are when H is real, tridiagonal (kept as the tuple (diag, sup, sub) of its
        diagonals) and every coupling product H[k, k+1] H[k+1, k] = sup[k] sub[k] is
        positive: then H = D T D^-1 with D a positive diagonal and T real, symmetric and
        unreduced, whose eigenvalues are real and distinct (Parlett, The Symmetric
        Eigenvalue Problem, 1980, ch. 7).  prepare makes such an H for green and
        bernoulli on ngl, rect and smooth ncc, and for abs_pow_iter2 with zero_diag.
        """
        h = self.hess
        return isinstance(h, tuple) and not np.iscomplexobj(h[0]) and bool((h[1] * h[2] > 0).all())

    def values(self, p: int, zs) -> np.ndarray:
        """det_p(I + zK) for every z in zs, finished as det_p is (_finish, one Horner
        sum in -z for all of zs) with the p-1 traces of matrix: exactly 0 where I + zK
        is singular, DetOverflowError past the double range, ValueError at a z not
        finite, or for a p that is not a positive integer, before any elimination."""
        _check_p(p)
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        return _finish(p, zs, 1.0, self.logdet(zs), _trace_powers(self.matrix, p - 1))


def prepare(op) -> PreparedDet:
    """det(I + zK) prepared for many z and any p: K validated once and reduced
    once to Hessenberg form (_reduce).

    A real operator whose quadrature weights W are all positive (op.weights,
    the plain Nystrom schemes) is reduced through S = W^(1/2) K W^(-1/2),
    which has the determinants of K, when S is finite and symmetric or skew to
    SYMMETRY_TOL: green and bernoulli, and sign and abs_pow_iter2 with
    zero_diag.  Its symmetric (skew) part (S + S^T)/2 ((S - S^T)/2), a change
    no larger than SYMMETRY_TOL admits, is reduced by linalg._tridiagonalize
    to a tridiagonal form exactly of that kind, kept as its three diagonals:
    couplings that mirror each other bit for bit, and an exactly zero diagonal
    for a skew S.  PreparedDet.values then costs O(N) per z, past the p-1
    traces it takes once per call, and the form keeps about 3N floats.  Any
    other operator or matrix, a complex weighted one included, is reduced as
    it is by linalg.hessenberg and costs O(N^2) per z, unless its H is
    tridiagonal, which is kept as its three diagonals too.  The general
    reduction costs about as much as 6-17 single-z det_p calls at a complex z,
    the tridiagonal one 3-7 (N = 32-800).  It is still an LU determinant, not the eigenvalue
    route, so the three det_p routes stay independent; the values agree with
    det_p to rounding, not bit for bit, since det_p factors I + zK itself.
    matrix is K either way.  A matrix or operator is reduced on every call, a
    PreparedDet never again: it comes back as it is, so a caller that
    evaluates one operator in several places, at one p or several, passes the
    PreparedDet along.  A K whose reduction would leave the double range is
    reduced as 2^-e K for the power of two that _log2_scale picks, and its
    values read H at z 2^e; any other K is reduced as it is.
    """
    if isinstance(op, PreparedDet):
        return op
    m = _matrix_of(op)
    e = _log2_scale(m)
    hess = _reduce(_times_power_of_two(m, -e) if e else m, getattr(op, "weights", None))
    return PreparedDet(m, hess, e)


def _log2_scale(m: np.ndarray) -> int:
    """The e with which prepare reduces 2^-e K: 0 where K's reduction keeps its
    products normal doubles as it is, else the e of least size that does.  With
    N max|K| < 2^e, the Householder reductions form products of three numbers of
    size N max|K| (a squared norm times an entry), and of one such number and the
    squared norm of a column that may be only rounding residue, down to 2^-104 of
    it: all normal for e in [low, high].  So z 2^e leaves the double range only
    where an entry of z K does (for any N below 2^338)."""
    e = math.frexp(float(np.abs(m).max()))[1] + m.shape[0].bit_length()  # N max|K| < 2^e
    info = np.finfo(np.float64)
    # N max|K| >= 2^(e-2): 3 e < maxexp, and 3 (e-2) - 4 nmant >= minexp
    high, low = (info.maxexp - 1) // 3, 2 - (-info.minexp - 4 * info.nmant) // 3
    return e - min(max(e, low), high)


def _times_power_of_two(a: np.ndarray, e: int) -> np.ndarray:
    """A new a 2^e, exact wherever it stays a normal double; a is a contiguous float64 or
    complex128 array."""
    return np.ldexp(a.view(np.float64), e).view(a.dtype)


def _reduce(m: np.ndarray, weights):
    """The Hessenberg form prepare keeps: _tridiagonalize's (diag, sup, sub) of the part
    _symmetric_part returns, if any; else hessenberg(K), kept as its Fortran-ordered view,
    or as copies of its three diagonals where its nonzeros all lie on them."""
    part = _symmetric_part(m, weights)
    if part is not None:
        return _tridiagonalize(*part)
    h = hessenberg(m)
    bands = tuple(h.diagonal(k).copy() for k in (0, 1, -1))
    return h if np.count_nonzero(h) > sum(map(np.count_nonzero, bands)) else bands


def _symmetric_part(m: np.ndarray, weights):
    """(part, skew), part the symmetric (skew False) or skew part of S = W^(1/2) K W^(-1/2)
    in one new buffer, where K is real, the weights are all positive and S is finite and
    symmetric or skew to SYMMETRY_TOL; else None.  S is freed on return, before any
    reduction."""
    if (np.iscomplexobj(m) or weights is None or weights.shape != m.shape[:1]
            or not np.all(weights > 0)):
        return None
    root = np.sqrt(weights)
    with np.errstate(over="ignore", invalid="ignore"):  # an S not finite is refused below
        s = m * np.outer(root, 1.0 / root)
    part = np.empty_like(s)
    bound = SYMMETRY_TOL * np.abs(s).max()
    for skew, other, keep in ((False, np.subtract, np.add), (True, np.add, np.subtract)):
        if np.isfinite(bound) and np.abs(other(s, s.T, out=part)).max() <= bound:
            return np.multiply(keep(s, s.T, out=part), 0.5, out=part), skew
    return None


def _newton_identities(s) -> np.ndarray:
    """[e_0, ..., e_n], the coefficients of prod_j (1 + z x_j), from the power sums
    s = [s_1, ..., s_n], s_k = sum_j x_j^k: k e_k = sum_{i<=k} (-1)^(i-1) e_{k-i} s_i.
    The series route runs it on power traces, the root search on contour moments."""
    e = np.zeros(len(s) + 1, dtype=np.complex128)
    e[0] = 1.0
    for k in range(1, len(s) + 1):
        e[k] = np.sum((-1.0) ** np.arange(k) * e[k - 1::-1] * s[:k]) / k
    return e


def plemelj_coeffs(op, p: int, n_max: int) -> np.ndarray:
    """The array [a_0, ..., a_n_max] of Taylor coefficients of det_p(I + zK)
    about z = 0, from power traces.

    Newton's identities (_newton_identities) on nu_j = tr(K^j) for j >= p and
    nu_j = 0 for j < p: zeroing the traces below p is what removes the first
    p-1 Taylor terms of log det.  For an N x N matrix and p = 1 the
    coefficients vanish beyond n = N; for p > 1 the series of the exponential
    factor does not end.  DetOverflowError where a coefficient leaves the
    double range.
    """
    m = _matrix_of(op)
    _check_p(p)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    nu = np.array(_trace_powers(m, n_max), dtype=np.complex128)
    nu[: p - 1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _newton_identities(nu)
    if not np.all(np.isfinite(coeffs)):
        raise DetOverflowError(f"a Taylor coefficient of det_{p} is out of double range")
    return coeffs


def det_series_eval(coeffs, z) -> DetValue:
    """sum_n coeffs[n] z^n by Horner's scheme, for the array plemelj_coeffs returns.
    DetOverflowError where the sum leaves the double range."""
    z = _finite(complex(z))
    acc = 0.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for c in coeffs[::-1]:
            acc = acc * z + c
    if not np.isfinite(acc):
        raise DetOverflowError(f"the series at z = {z} is out of double range")
    return DetValue(complex(acc))


def det_from_eigs(eigs, p: int, z) -> DetValue:
    """det_p as the eigenvalue product prod_k (1 + z l_k) exp(sum_{j<p} (-z l_k)^j / j).
    DetOverflowError where it leaves the double range, or a term of its sum does."""
    _check_p(p)
    lam = np.asarray(eigs, dtype=np.complex128).ravel()
    z = _finite(complex(z))
    factors = 1.0 + z * lam
    if np.any(factors == 0):
        return DetValue(0.0 + 0.0j)
    w = np.log(factors)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, p):
            w = w + (-z * lam) ** j / j
        total = np.sum(w)
    if np.isnan(total):
        raise DetOverflowError(f"det_{p} overflowed the double range as it was formed")
    if total.real > _LOG_HUGE:
        raise DetOverflowError(f"|det_{p}| ~ exp({total.real:.4g}) is out of double range")
    return DetValue(complex(np.exp(total)))


def identity_residuals(a, z) -> dict:
    """Consistency residuals of the exact even/odd determinant factorizations.

    For any matrix A and scalar z:
        det_1(I - z^2 A^2) = det_2(I - zA) det_2(I + zA)
        det_2(I - z^2 A^2) = det_3(I - zA) det_3(I + zA)
        det_2(I - z^2 A^2) = det_4(I - zA) det_4(I + zA)
    Each residual is |lhs - rhs| / (|lhs| + |rhs| + 1).  I - zA, I + zA and
    I - z^2 A^2 are factored once each, and each LU serves all its det_p.  A real
    A is squared in real arithmetic.
    """
    z = _finite(complex(z))
    m = as_complex_matrix(a)
    m2 = as_complex_matrix(m @ m)
    lhs = _lu_dets(m2, -z * z, _trace_powers(m2, 1), (1, 2, 2))
    traces = _trace_powers(m, 3)
    minus, plus = _lu_dets(m, -z, traces, (2, 3, 4)), _lu_dets(m, z, traces, (2, 3, 4))
    names = ("det1_sq_vs_det2", "det2_sq_vs_det3", "det2_sq_vs_det4")
    return {name: abs(u - v * w) / (abs(u) + abs(v * w) + 1.0)
            for name, u, v, w in zip(names, lhs, minus, plus)}
