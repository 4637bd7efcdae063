"""Eigenvalue location from determinant zeros: contour moments plus an Aberth polish."""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .determinants import det_p
from .linalg import as_complex_matrix

MAX_CONTOUR_SAMPLES = 2**16
TAIL_TOL = 1e-12          # settled contour: top-half Fourier coefficients of the de-wound log
MAX_DISC_ROOTS = 8        # a disc holding more zeros splits into seven half-radius discs,
MIN_SPLIT_RADIUS = 1e-3   # unless its radius is below this, relative to 1 + |center|
CLUSTER_TOL = 1e-6        # polished zeros this close (relative) are one estimate
_LOG_GUARD = np.log(1e-13)
_POLISH_STEPS = 30


class ZeroOnContourError(RuntimeError):
    """A determinant value on the sampling contour was indistinguishable from zero."""


class RefinementError(RuntimeError):
    """Newton refinement failed; .last holds the last iterate when available."""

    def __init__(self, msg, last=None):
        super().__init__(msg)
        self.last = last


@dataclass(frozen=True)
class EigenEstimate:
    """A determinant zero z_root and the eigenvalue estimate lam = 1/z_root."""

    z_root: complex
    lam: complex
    residual: float
    mult_estimate: int = 1


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(err) against log(n)."""

    slope: float
    intercept: float
    r_squared: float
    points: Tuple[Tuple[float, float], ...]


def _log_samples(logfun, center, radius, fractions):
    return np.array([logfun(center + radius * np.exp(2j * np.pi * t)) for t in fractions],
                    dtype=np.complex128)


def _dewound_spectrum(logs):
    """Winding number n and Fourier coefficients of g(theta) = log f - n i theta.

    The phase is unwrapped from its increments between neighbouring samples,
    so g is periodic; coeffs[q] / coeffs[m - q] hold frequencies +q / -q.
    """
    m = logs.size
    steps = np.angle(np.exp(1j * np.diff(logs.imag, append=logs.imag[0])))
    n = int(np.rint(np.sum(steps) / (2.0 * np.pi)))
    phase = logs.imag[0] + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    theta = 2.0 * np.pi * np.arange(m) / m
    return n, np.fft.fft(logs.real + 1j * (phase - n * theta)) / m


def _sample_circle(logfun, center, radius: float, samples: int):
    """Winding number of f on a circle and the spectrum of its de-wound log.

    logfun(z) is log f(z) on any branch.  The m = samples points double, the
    odd points added, until the winding number agrees with the previous level
    and the top half of the spectrum (|q| > m/4) has decayed to TAIL_TOL of
    the largest nonconstant coefficient (or of 1).  A sample with |f| within
    1e-13 of the largest raises ZeroOnContourError; no settled level by
    MAX_CONTOUR_SAMPLES raises RefinementError.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples}")
    m = int(samples)
    logs = _log_samples(logfun, center, radius, np.arange(m) / m)
    prev = None
    while True:
        if not logs.real.min() > logs.real.max() + _LOG_GUARD:
            raise ZeroOnContourError(f"|f| falls to {np.exp(logs.real.min() - logs.real.max()):.3g}"
                                     f" of its maximum on contour radius {radius:.3g}")
        n, coeffs = _dewound_spectrum(logs)
        mags = np.abs(coeffs)
        tail = mags[m // 4 + 1: m - m // 4].max()
        if n == prev and tail <= TAIL_TOL * max(1.0, mags[1:].max()):
            return n, coeffs
        if 2 * m > MAX_CONTOUR_SAMPLES:
            raise RefinementError(f"contour did not settle within {MAX_CONTOUR_SAMPLES} samples")
        new = np.empty(2 * m, dtype=np.complex128)
        new[0::2] = logs
        new[1::2] = _log_samples(logfun, center, radius, (np.arange(m) + 0.5) / m)
        logs, m, prev = new, 2 * m, n


def count_zeros(detfun: Callable, center, radius: float, samples: int = 256) -> int:
    """Number of zeros (with multiplicity) of detfun inside a disc.

    The winding number of detfun on the circle, from the sampler that
    locate_eigs uses: the sample count doubles until two consecutive counts
    agree and the Fourier tail of the de-wound log has decayed.  A contour
    value within 1e-13 of zero relative to the largest sample raises
    ZeroOnContourError, and no settled count within 2^16 samples raises
    RefinementError.
    """
    def logfun(z):
        v = complex(detfun(z))
        return complex(np.log(abs(v)), np.angle(v)) if v != 0 else complex(-np.inf, 0.0)

    return _sample_circle(logfun, complex(center), radius, samples)[0]


def refine_zero(detfun: Callable, z0, tol: float = 1e-10) -> EigenEstimate:
    """Newton iteration on detfun with central-difference derivatives.

    Steps are backtracked until the residual decreases, so |detfun| falls
    monotonically over accepted iterates.  Failure modes: divergence beyond
    |z| = 1e6, a dead derivative, or no convergence within 50 iterations;
    each raises RefinementError with the last iterate attached.
    """
    z = complex(z0)
    fz = detfun(z)
    for _ in range(50):
        if abs(z) > 1e6:
            raise RefinementError("iterates diverged", last=_estimate(z, fz))
        h = 1e-6 * (1.0 + abs(z))
        deriv = (detfun(z + h) - detfun(z - h)) / (2.0 * h)
        if deriv == 0:
            raise RefinementError("derivative vanished", last=_estimate(z, fz))
        step = fz / deriv
        scale = 1.0
        moved = False
        for _ in range(25):
            zc = z - scale * step
            fc = detfun(zc)
            if abs(fc) < abs(fz):
                z, fz = zc, fc
                moved = True
                break
            scale *= 0.5
        if not moved:
            if abs(step) <= tol * (1.0 + abs(z)):
                return _estimate(z, fz)
            raise RefinementError("residual stopped decreasing", last=_estimate(z, fz))
        if abs(scale * step) <= tol * (1.0 + abs(z)):
            return _estimate(z, fz)
    raise RefinementError("iteration cap reached", last=_estimate(z, fz))


def _estimate(z: complex, fz: complex) -> EigenEstimate:
    lam = 1.0 / z if z != 0 else complex("inf")
    return EigenEstimate(z, lam, abs(fz))


# hexagonal half-radius covering: the six offsets at distance sqrt(3)/2 * r
# plus the center disc cover the parent disc exactly
_HEX = np.sqrt(3.0) / 2.0 * np.exp(2j * np.pi * np.arange(6) / 6.0)

# outward-only contour retries, so the nominal disc stays covered
_BUMPS = (1.0, 1.0093, 1.0217, 1.0341)


def _roots_from_moments(coeffs, n: int) -> np.ndarray:
    """Roots w_j (scaled to the unit disc) from the de-wound log spectrum.

    The coefficient at frequency -k is -s_k / k with s_k = sum_j w_j^k;
    Newton's identities turn s_1..s_n into the monic polynomial with roots w_j.
    """
    k = np.arange(1, n + 1)
    s = -k * coeffs[coeffs.size - k]
    e = np.zeros(n + 1, dtype=np.complex128)
    e[0] = 1.0
    for j in range(1, n + 1):
        e[j] = np.sum((-1.0) ** np.arange(j) * e[j - 1::-1] * s[:j]) / j
    return np.roots(e * (-1.0) ** np.arange(n + 1))


def _aberth(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Simultaneous Newton (Aberth) steps on all zeros of det(I + zB) at once.

    f'/f = tr((I + zB)^{-1} B) by Jacobi's formula; subtracting the pull of
    the other iterates, sum_{j != k} 1 / (z_k - z_j), keeps near-coincident
    zeros from collapsing onto one another.  An exactly singular I + z_k B
    means z_k is a zero and it stays put.
    """
    eye = np.eye(b.shape[0], dtype=np.complex128)
    for _ in range(_POLISH_STEPS):
        steps = np.zeros_like(z)
        for k, zk in enumerate(z):
            try:
                dlog = np.trace(np.linalg.solve(eye + zk * b, b))
            except np.linalg.LinAlgError:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                denom = dlog - np.sum(1.0 / (zk - np.delete(z, k)))
                step = 1.0 / denom
            if np.isfinite(step):
                steps[k] = step
        z = z - steps
        if np.all(np.abs(steps) <= 1e-12 * (1.0 + np.abs(z))):
            break
    return z


def _disc_zeros(b: np.ndarray, center: complex, radius: float, samples: int) -> np.ndarray:
    """Polished zeros of det(I + zB) with |z - center| <= radius (1 + 1e-9)."""
    eye = np.eye(b.shape[0], dtype=np.complex128)

    def logdet(z):
        phase, logabs = np.linalg.slogdet(eye + z * b)
        return complex(logabs, np.angle(phase)) if phase != 0 else complex(-np.inf, 0.0)

    for bump in _BUMPS:
        try:
            n, coeffs = _sample_circle(logdet, center, radius * bump, samples)
            break
        except ZeroOnContourError:
            continue
    else:
        raise ZeroOnContourError(f"determinant vanishes near every contour tried at {center}")

    if n > MAX_DISC_ROOTS and radius > MIN_SPLIT_RADIUS * (1.0 + abs(center)):
        # each child keeps the zeros nearest its own center (lowest index on ties),
        # so a zero in the overlap of two children is reported once
        centers = center + radius * np.concatenate(([0.0], _HEX))
        kept = []
        for i, c in enumerate(centers):
            for z in _disc_zeros(b, c, 0.5 * radius, samples):
                d = np.abs(z - centers)
                if np.flatnonzero(d <= d.min() + 1e-9 * radius)[0] == i:
                    kept.append(z)
        zeros = np.array(kept, dtype=np.complex128)
    else:
        zeros = _aberth(b, center + radius * bump * _roots_from_moments(coeffs, n))
        if not np.all(np.abs(zeros - center) <= radius * bump * (1.0 + 1e-9)):
            raise RefinementError(f"polished zeros left the contour of radius {radius * bump:.3g}"
                                  f" around {center}")
    return zeros[np.abs(zeros - center) <= radius * (1.0 + 1e-9)]


def _clusters(zeros) -> list:
    groups = []
    for z in sorted(zeros, key=abs):
        for g in groups:
            if any(abs(z - w) <= CLUSTER_TOL * (1.0 + abs(z)) for w in g):
                g.append(z)
                break
        else:
            groups.append([z])
    return groups


def locate_eigs(op, p: int, center, radius: float, sign: int = -1,
                samples: int = 64) -> list:
    """All zeros of z -> det_p(I + sign*z*K_N) in a disc, as EigenEstimates.

    The zeros of det_p are those of det(I + sign*z*K_N), since the exp(poly)
    factor has none.  One sampled circle gives the count n and the power sums
    of the zeros (contour moments, Delves & Lyness 1967); Newton's identities
    turn these into starting values, and simultaneous Newton steps polish them.
    Only a disc holding more than MAX_DISC_ROOTS zeros splits into seven
    half-radius discs.  Zeros still within CLUSTER_TOL of each other after
    the polish form one estimate whose mult_estimate is the cluster size, and
    residual is |det_p| there.  With the default sign = -1 the reported
    eigenvalue is lam = 1/z_root.
    """
    m = as_complex_matrix(getattr(op, "matrix", op))
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    center = complex(center)
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")

    ests = []
    for group in _clusters(_disc_zeros(sign * m, center, radius, samples)):
        z = complex(np.mean(group))
        # I + s z K is singular at z = -1/(s lam), so lam = -s / z
        ests.append(EigenEstimate(z, -sign / z, abs(det_p(m, p, sign * z).value), len(group)))
    return sorted(ests, key=lambda e: abs(e.z_root))


def fit_order(ns, errs) -> OrderFit:
    """Fit log(err) = slope * log(n) + intercept by least squares (>= 4 points)."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ns.shape != errs.shape or ns.ndim != 1:
        raise ValueError("ns and errs must be 1-D arrays of equal length")
    if ns.size < 4:
        raise ValueError(f"need at least 4 points to fit an order, got {ns.size}")
    if np.any(ns <= 0) or np.any(errs <= 0):
        raise ValueError("ns and errs must be positive")
    x = np.log(ns)
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return OrderFit(float(slope), float(intercept), r2, tuple(zip(x.tolist(), y.tolist())))
