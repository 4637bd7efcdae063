"""Regularized determinants det_p(I + zK) of discrete operators, by three routes."""

from dataclasses import dataclass

import numpy as np

from .linalg import (_LOG_HUGE, DetOverflowError, _trace_powers, as_complex_matrix, hessenberg,
                     hessenberg_logdet)

LU_TRACE = "LU_TRACE"
SERIES = "SERIES"
EIG_PRODUCT = "EIG_PRODUCT"


@dataclass(frozen=True)
class DetValue:
    z: complex
    p: int
    value: complex
    route: str


@dataclass(frozen=True)
class DetSeries:
    """Taylor coefficients of z -> det_p(I + zK) about z = 0.

    traces[j-1] holds the power trace actually fed to the recursion: tr(K^j)
    for j >= p and 0 for j < p, which is what removes the first p-1 Taylor
    terms of log det.
    """

    p: int
    coeffs: np.ndarray
    traces: np.ndarray


def _matrix_of(op) -> np.ndarray:
    return as_complex_matrix(getattr(op, "matrix", op))


def _check_p(p: int):
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")


def det_p(op, p: int, z) -> DetValue:
    """det_p(I + zK) = det(I + zK) * exp(sum_{j<p} (-z)^j tr(K^j) / j).

    Computed from an LU determinant and explicit low-order traces, with the
    magnitude carried in log space; the plain determinant is the p = 1 case.
    """
    m = _matrix_of(op)
    _check_p(p)
    z = complex(z)
    if z == 0:
        return DetValue(z, p, 1.0 + 0.0j, LU_TRACE)
    shifted = z * m
    shifted.flat[::m.shape[0] + 1] += 1.0
    phase, logabs = np.linalg.slogdet(shifted)
    if phase == 0:
        return DetValue(z, p, 0.0 + 0.0j, LU_TRACE)
    corr = 0.0 + 0.0j
    if p > 1:
        nu = _trace_powers(m, p - 1)
        corr = sum((-z) ** j * nu[j - 1] / j for j in range(1, p))
    w = logabs + corr
    if w.real > _LOG_HUGE:
        raise DetOverflowError(f"|det_{p}| ~ exp({w.real:.4g}) is out of double range")
    return DetValue(z, p, complex(phase * np.exp(w)), LU_TRACE)


@dataclass(frozen=True)
class PreparedDet:
    """det_p(I + zK) at many z on one reduction of K; made by prepare.

    matrix is the validated K, hess an upper Hessenberg H with
    det(I + zK) = det(I + zH), and traces[j-1] = tr(K^j) for j < p.  It can
    stand for K wherever an operator is taken: det_p and locate_eigs read
    matrix, and locate_eigs reuses hess instead of reducing K again.
    """

    p: int
    matrix: np.ndarray
    hess: np.ndarray
    traces: np.ndarray

    def values(self, zs) -> np.ndarray:
        """det_p(I + zK) for every z in zs, with det_p's semantics: exactly 0 where
        I + zK is singular, and DetOverflowError when a value leaves the double range."""
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        w = hessenberg_logdet(self.hess, zs)  # real part -inf where singular
        for j in range(1, self.p):
            w += (-zs) ** j * self.traces[j - 1] / j
        top = w.real.max(initial=-np.inf)
        if top > _LOG_HUGE:
            raise DetOverflowError(f"|det_{self.p}| ~ exp({top:.4g}) is out of double range")
        return np.where(w.real == -np.inf, 0.0, np.exp(w))


def prepare(op, p: int) -> PreparedDet:
    """det_p(I + zK) prepared for many z: K validated once, its p-1 trace
    corrections computed once, and K reduced once to Hessenberg form.

    The reduction costs about as much as 4-16 single-z det_p calls (N = 32-800);
    PreparedDet.values then costs O(N^2) per z (linalg.hessenberg_logdet).
    That is still an LU determinant, not the eigenvalue route, so the three
    det_p routes stay independent; the values agree with det_p to rounding,
    not bit for bit, since det_p factors I + zK itself.  Every call reduces K
    again: a caller that evaluates one operator in several places passes the
    PreparedDet along.
    """
    _check_p(p)
    m = _matrix_of(op)
    traces = _trace_powers(m, p - 1) if p > 1 else np.zeros(0, dtype=np.complex128)
    return PreparedDet(p, m, hessenberg(m), traces)


def plemelj_coeffs(op, p: int, n_max: int) -> DetSeries:
    """Taylor coefficients a_0..a_n_max of det_p(I + zK) from power traces.

    Newton-identity recursion: n a_n = sum_{j=0}^{n-1} (-1)^(n-j+1) a_j nu_{n-j},
    with nu_j = tr(K^j) zeroed out for j < p.  For an N x N matrix the
    coefficients vanish beyond n = N.
    """
    m = _matrix_of(op)
    _check_p(p)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    nu = np.zeros(n_max, dtype=np.complex128)
    if n_max >= 1:
        nu[:] = _trace_powers(m, n_max)
        nu[: p - 1] = 0.0
    coeffs = np.zeros(n_max + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    parity = (-1.0) ** np.arange(n_max + 1)
    for n in range(1, n_max + 1):
        s = np.sum(coeffs[:n] * parity[:n] * nu[n - 1 :: -1])
        coeffs[n] = -parity[n] * s / n
    return DetSeries(p, coeffs, nu)


def det_series_eval(series: DetSeries, z) -> DetValue:
    """Evaluate the coefficient series by Horner's scheme."""
    z = complex(z)
    acc = 0.0 + 0.0j
    for c in series.coeffs[::-1]:
        acc = acc * z + c
    return DetValue(z, series.p, acc, SERIES)


def det_from_eigs(eigs, p: int, z) -> DetValue:
    """det_p as the eigenvalue product prod_k (1 + z l_k) exp(sum_{j<p} (-z l_k)^j / j)."""
    _check_p(p)
    lam = np.asarray(eigs, dtype=np.complex128).ravel()
    z = complex(z)
    if lam.size == 0:
        return DetValue(z, p, 1.0 + 0.0j, EIG_PRODUCT)
    factors = 1.0 + z * lam
    if np.any(factors == 0):
        return DetValue(z, p, 0.0 + 0.0j, EIG_PRODUCT)
    w = np.log(factors)
    for j in range(1, p):
        w = w + (-z * lam) ** j / j
    total = np.sum(w)
    if total.real > _LOG_HUGE:
        raise DetOverflowError(f"|det_{p}| ~ exp({total.real:.4g}) is out of double range")
    return DetValue(z, p, complex(np.exp(total)), EIG_PRODUCT)


def identity_residuals(a, z) -> dict:
    """Consistency residuals of the exact even/odd determinant factorizations.

    For any matrix A and scalar z:
        det_1(I - z^2 A^2) = det_2(I - zA) det_2(I + zA)
        det_2(I - z^2 A^2) = det_3(I - zA) det_3(I + zA)
        det_2(I - z^2 A^2) = det_4(I - zA) det_4(I + zA)
    Each residual is |lhs - rhs| / (|lhs| + |rhs| + 1).
    """
    m = as_complex_matrix(a)
    m2 = m @ m
    z = complex(z)
    zz = z * z

    def val(mat, p, arg):
        return det_p(mat, p, arg).value

    det2_sq = val(m2, 2, -zz)
    pairs = {
        "det1_sq_vs_det2": (val(m2, 1, -zz), val(m, 2, -z) * val(m, 2, z)),
        "det2_sq_vs_det3": (det2_sq, val(m, 3, -z) * val(m, 3, z)),
        "det2_sq_vs_det4": (det2_sq, val(m, 4, -z) * val(m, 4, z)),
    }
    return {name: abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0) for name, (lhs, rhs) in pairs.items()}
