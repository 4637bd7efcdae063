"""Regularized determinants det_p(I + zK) of discrete operators, by three routes."""

from dataclasses import dataclass

import numpy as np

from .linalg import (_LOG_HUGE, DetOverflowError, _trace_powers, as_complex_matrix, hessenberg,
                     hessenberg_logdet)


@dataclass(frozen=True)
class DetValue:
    """det_p(I + zK) from one of the three routes; compare routes by value."""

    value: complex


def _matrix_of(op) -> np.ndarray:
    return as_complex_matrix(getattr(op, "matrix", op))


def _check_p(p: int):
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")


def _low_traces(m: np.ndarray, p: int) -> np.ndarray:
    """[tr(K), ..., tr(K^(p-1))], the traces det_p's correction reads; empty for p = 1."""
    return _trace_powers(m, p - 1) if p > 1 else np.zeros(0, dtype=np.complex128)


def _finish(p: int, z, phase, logdet, traces):
    """det_p(I + zK) = phase exp(logdet + sum_{j<p} (-z)^j traces[j-1] / j), for one z
    or an array of them, from a factored det(I + zK) = phase exp(logdet): slogdet's,
    or phase 1 and hessenberg_logdet's complex log.  Exactly 0 where logdet is -inf
    (I + zK singular); DetOverflowError when a value leaves the double range.
    """
    w = logdet + sum(((-z) ** j * traces[j - 1] / j for j in range(1, p)), 0j)
    top = np.max(np.real(w), initial=-np.inf)
    if top > _LOG_HUGE:
        raise DetOverflowError(f"|det_{p}| ~ exp({top:.4g}) is out of double range")
    return np.where(np.real(w) == -np.inf, 0.0, phase * np.exp(w))


def _lu_dets(m: np.ndarray, z: complex, traces, ps) -> list:
    """det_p(I + zK) for every p in ps from one LU of I + zK (numpy.linalg.slogdet)."""
    shifted = z * m
    shifted.flat[::m.shape[0] + 1] += 1.0
    phase, logabs = np.linalg.slogdet(shifted)
    return [complex(_finish(p, z, phase, logabs, traces)) for p in ps]


def det_p(op, p: int, z) -> DetValue:
    """det_p(I + zK) = det(I + zK) * exp(sum_{j<p} (-z)^j tr(K^j) / j).

    Computed from an LU determinant and explicit low-order traces, with the
    magnitude carried in log space; the plain determinant is the p = 1 case.
    """
    m = _matrix_of(op)
    _check_p(p)
    z = complex(z)
    if z == 0:
        return DetValue(1.0 + 0.0j)
    return DetValue(_lu_dets(m, z, _low_traces(m, p), (p,))[0])


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
        """det_p(I + zK) for every z in zs, finished as det_p is (_finish): exactly 0
        where I + zK is singular, and DetOverflowError when a value leaves the double range."""
        zs = np.asarray(zs, dtype=np.complex128).ravel()
        return _finish(self.p, zs, 1.0, hessenberg_logdet(self.hess, zs), self.traces)


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
    return PreparedDet(p, m, hessenberg(m), _low_traces(m, p))


def plemelj_coeffs(op, p: int, n_max: int) -> np.ndarray:
    """The array [a_0, ..., a_n_max] of Taylor coefficients of det_p(I + zK)
    about z = 0, from power traces.

    Newton-identity recursion: n a_n = sum_{j=0}^{n-1} (-1)^(n-j+1) a_j nu_{n-j},
    with nu_j = tr(K^j) for j >= p and nu_j = 0 for j < p: zeroing the traces
    below p is what removes the first p-1 Taylor terms of log det.  For an
    N x N matrix the coefficients vanish beyond n = N.
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
    return coeffs


def det_series_eval(coeffs, z) -> DetValue:
    """sum_n coeffs[n] z^n by Horner's scheme, for the array plemelj_coeffs returns."""
    z = complex(z)
    acc = 0.0 + 0.0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return DetValue(acc)


def det_from_eigs(eigs, p: int, z) -> DetValue:
    """det_p as the eigenvalue product prod_k (1 + z l_k) exp(sum_{j<p} (-z l_k)^j / j)."""
    _check_p(p)
    lam = np.asarray(eigs, dtype=np.complex128).ravel()
    z = complex(z)
    if lam.size == 0:
        return DetValue(1.0 + 0.0j)
    factors = 1.0 + z * lam
    if np.any(factors == 0):
        return DetValue(0.0 + 0.0j)
    w = np.log(factors)
    for j in range(1, p):
        w = w + (-z * lam) ** j / j
    total = np.sum(w)
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
    I - z^2 A^2 are factored once each, and each LU serves all its det_p.
    """
    m = as_complex_matrix(a)
    m2 = as_complex_matrix(m @ m)
    z = complex(z)
    lhs = _lu_dets(m2, -z * z, _low_traces(m2, 2), (1, 2, 2))
    traces = _low_traces(m, 4)
    minus, plus = _lu_dets(m, -z, traces, (2, 3, 4)), _lu_dets(m, z, traces, (2, 3, 4))
    names = ("det1_sq_vs_det2", "det2_sq_vs_det3", "det2_sq_vs_det4")
    return {name: abs(u - v * w) / (abs(u) + abs(v * w) + 1.0)
            for name, u, v, w in zip(names, lhs, minus, plus)}
