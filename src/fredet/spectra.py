"""Eigenvalue location from determinant zeros: contour moments plus an Aberth polish."""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .determinants import PreparedDet, det_p, prepare
from .linalg import hessenberg_logdet

MAX_CONTOUR_SAMPLES = 2**16
MOMENT_TOL = 1e-10        # settled contour: moment coefficients agree between two levels
CLUSTER_TOL = 1e-6        # polished zeros this close (relative) are one estimate
_LOG_GUARD = np.log(1e-13)
_POLISH_STEPS = 200       # an m-fold zero converges linearly, by (m - 1) / (m + 1) per step


class ZeroOnContourError(RuntimeError):
    """A determinant value on the sampling contour was indistinguishable from zero."""


class RefinementError(RuntimeError):
    """Newton refinement failed; .last holds the last iterate when available."""

    def __init__(self, msg, last=None):
        super().__init__(msg)
        self.last = last


@dataclass(frozen=True)
class EigenEstimate:
    """A determinant zero z_root and the eigenvalue estimate lam = 1/z_root.

    residual is |det_p| at z_root.  It is not scale-free: |det_p| grows with
    |z| along the axis, so equally accurate roots can have residuals many
    decades apart.  step = |dz| / (1 + |z|) is the size of the last Newton
    step that placed z_root, relative to it, and so is the scale-free
    accuracy signal; for a cluster it is the largest step among its members.
    locate_eigs sets it; it is nan where no polish step was recorded, as in
    refine_zero's estimates.
    """

    z_root: complex
    lam: complex
    residual: float
    mult_estimate: int = 1
    step: float = float("nan")


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(err) against log(n)."""

    slope: float
    intercept: float
    r_squared: float


def _log_samples(logfun, center, radius, fractions):
    return logfun(center + radius * np.exp(2j * np.pi * fractions))


def _dewound_spectrum(logs, radius):
    """Winding number n and Fourier coefficients of g(theta) = log f - n i theta.

    The phase is unwrapped from its increments between neighbouring samples,
    so g is periodic; coeffs[q] / coeffs[m - q] hold frequencies +q / -q.
    A non-finite sample, or one with |f| below 1e-13 of the smaller of its two
    circular neighbours, raises ZeroOnContourError: the circle passes through
    a zero.  Growth along the circle, however steep, is not such a dip.
    """
    if not np.all(np.isfinite(logs)):
        raise ZeroOnContourError(f"f vanishes or is not finite on contour radius {radius:.3g}")
    mags = logs.real
    ring = np.concatenate((mags[-1:], mags, mags[:1]))  # circular neighbours in one copy
    dip = mags - np.minimum(ring[:-2], ring[2:])
    if not dip.min() > _LOG_GUARD:
        raise ZeroOnContourError(f"|f| falls to {np.exp(dip.min()):.3g} of its neighbours"
                                 f" on contour radius {radius:.3g}")
    m = logs.size
    steps = np.angle(np.exp(1j * np.diff(logs.imag, append=logs.imag[0])))
    n = int(np.rint(np.sum(steps) / (2.0 * np.pi)))
    phase = logs.imag[0] + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    theta = 2.0 * np.pi * np.arange(m) / m
    return n, np.fft.fft(logs.real + 1j * (phase - n * theta)) / m


def _sample_circle(logfun, center, radius: float):
    """Winding number of f on a circle and the spectrum of its de-wound log.

    logfun(zs) is log f at every point of the array zs, each on any branch,
    with real part -inf where f is zero.  The first call evaluates the two
    coarsest levels, 64 and 128 points, in one batch; each later level
    doubles the count with the odd points.  Sampling stops once the winding
    number n repeats from one level to the next and the coefficients at
    frequencies -1..-max(n, 1), the only ones the contour moments read, agree
    with the previous level to MOMENT_TOL of max(1, their largest modulus)
    while still below the previous level's Nyquist frequency.  A sample that
    is not finite, or that dips below 1e-13 of both its neighbours, raises
    ZeroOnContourError (see _dewound_spectrum); no settled level by
    MAX_CONTOUR_SAMPLES raises RefinementError.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    m = 128
    logs = _log_samples(logfun, center, radius, np.arange(m) / m)
    prev_n, prev = _dewound_spectrum(logs[0::2], radius)
    while True:
        n, coeffs = _dewound_spectrum(logs, radius)
        k = np.arange(1, max(n, 1) + 1)
        if n == prev_n and k[-1] < m // 4:
            moments = coeffs[m - k]
            drift = np.abs(moments - prev[m // 2 - k]).max()
            if drift <= MOMENT_TOL * max(1.0, np.abs(moments).max()):
                return n, coeffs
        if 2 * m > MAX_CONTOUR_SAMPLES:
            raise RefinementError(f"contour did not settle within {MAX_CONTOUR_SAMPLES} samples")
        new = np.empty(2 * m, dtype=np.complex128)
        new[0::2] = logs
        new[1::2] = _log_samples(logfun, center, radius, (np.arange(m) + 0.5) / m)
        logs, m, prev_n, prev = new, 2 * m, n, coeffs


def count_zeros(detfun: Callable, center, radius: float) -> int:
    """Number of zeros (with multiplicity) of detfun inside a disc.

    The winding number of detfun on the circle, from the sampler that
    locate_eigs uses: the first batch is 128 points, and the count
    doubles until two consecutive winding numbers n agree and the de-wound
    log's coefficients at frequencies -1..-max(n, 1) agree to MOMENT_TOL, so
    an empty disc still has to settle its first moment.  A contour value that
    is zero or not finite, or below 1e-13 of both its neighbouring samples,
    raises ZeroOnContourError, and no settled count within 2^16 samples
    raises RefinementError.  Unlike locate_eigs, the circle is never moved.
    """
    def logfun(zs):
        vals = np.array([complex(detfun(z)) for z in zs])
        with np.errstate(divide="ignore"):
            return np.log(np.abs(vals)) + 1j * np.angle(vals)

    return _sample_circle(logfun, complex(center), radius)[0]


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


# outward-only contour retries for a circle that meets or nearly meets a zero,
# so the nominal disc stays covered
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


def _aberth(k: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Simultaneous Newton (Aberth) steps on all zeros of det(I + wK) at once.

    f'/f = tr((I + wK)^{-1} K) by Jacobi's formula, taken as
    (N - tr((I + wK)^{-1})) / w from one inverse, since
    (I + wK)^{-1} wK = I - (I + wK)^{-1}: K is read as it is, real or
    complex, and never cast (tr K at w = 0).  Subtracting the pull of the
    other iterates, sum_{j != i} 1 / (w_i - w_j), keeps near-coincident
    zeros from collapsing onto one another.  An exactly singular I + w_i K
    means w_i is a zero and it stays put.  The polish ends once every step is
    within 1e-12 (1 + |w_i|) and returns the zeros with each one's last step
    relative to it, |dw| / (1 + |w|); it raises RefinementError when that has
    not happened after _POLISH_STEPS steps.
    """
    n = k.shape[0]
    for _ in range(_POLISH_STEPS):
        steps = np.zeros_like(w)
        for i, wi in enumerate(w):
            shifted = wi * k
            shifted.flat[::n + 1] += 1.0
            try:
                inv_trace = np.trace(np.linalg.inv(shifted))
            except np.linalg.LinAlgError:
                continue
            dlog = (n - inv_trace) / wi if wi != 0 else np.trace(k)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = 1.0 / (dlog - np.sum(1.0 / (wi - np.delete(w, i))))
            steps[i] = step if np.isfinite(step) else 0.0
        w = w - steps
        size, scale = np.abs(steps), 1.0 + np.abs(w)
        if np.all(size <= 1e-12 * scale):
            return w, size / scale
    raise RefinementError(f"polish of {w.size} zeros did not settle within {_POLISH_STEPS}"
                          f" steps (last step {np.abs(steps).max():.3g})")


def _clusters(zeros) -> list:
    """Indices into zeros, grouped by chains of zeros within CLUSTER_TOL (relative)."""
    groups = []
    for i in sorted(range(len(zeros)), key=lambda i: abs(zeros[i])):
        z = zeros[i]
        for g in groups:
            if any(abs(z - zeros[j]) <= CLUSTER_TOL * (1.0 + abs(z)) for j in g):
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def locate_eigs(op, p: int, center, radius: float, sign: int = -1) -> list:
    """All zeros of z -> det_p(I + sign*z*K_N) in a disc, as EigenEstimates.

    The zeros of det_p are those of det(I + sign*z*K_N), since the exp(poly)
    factor has none.  K_N is validated and reduced to Hessenberg form H once,
    by determinants.prepare, or taken from op when op is a PreparedDet.  sign
    maps the disc in and the roots out: the search runs in w = sign*z on
    det(I + wK_N), reading K_N and H exactly as prepared, so no N x N copy of
    either is made, and negation is exact.  The contour samples
    log det(I + wH) in batches at O(N^2) per point, in real arithmetic when H
    is real (linalg.hessenberg_logdet); this is still an LU determinant, not
    the eigenvalue route, so the three det_p routes stay independent.  Every
    disc is one sampled circle.  A circle that passes through a zero
    (ZeroOnContourError) or whose moments do not settle (RefinementError) is
    moved outward through _BUMPS, so the nominal disc stays covered; when no
    radius resolves, ZeroOnContourError names the radii tried.  The circle
    gives the count n and the power sums of the zeros (contour moments,
    Delves & Lyness 1967); its sample count doubles only until n and those n
    moments settle, since the polish sets the final digits.  Newton's
    identities turn the moments into starting values for all n zeros, and
    simultaneous Newton steps on the unreduced K_N polish them together.  The
    polish converges or raises RefinementError.  Zeros still within
    CLUSTER_TOL of each other after the polish form one estimate whose
    mult_estimate is the cluster size; residual is |det_p| there, and step
    the largest last polish step |dz| / (1 + |z|) among the cluster's zeros,
    at most 1e-12 since the polish converged.  Estimates come by |z_root|,
    ties within CLUSTER_TOL by imaginary, then real part.  With the default
    sign = -1 the reported eigenvalue is lam = 1/z_root.  A center or radius
    that is not finite, or a radius that is not positive, raises ValueError.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    center = complex(center)
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")

    prep = op if isinstance(op, PreparedDet) else prepare(op, 1)
    logdet = lambda zs: hessenberg_logdet(prep.hess, sign * zs)
    for bump in _BUMPS:
        contour = radius * bump
        try:
            n, coeffs = _sample_circle(logdet, center, contour)
            break
        except (ZeroOnContourError, RefinementError):
            continue
    else:
        tried = ", ".join(f"{radius * b:.6g}" for b in _BUMPS)
        raise ZeroOnContourError(f"no contour around {center} resolved its zeros;"
                                 f" radii tried: {tried}")
    w, steps = _aberth(prep.matrix, sign * (center + contour * _roots_from_moments(coeffs, n)))
    zeros = sign * w
    if not np.all(np.abs(zeros - center) <= contour * (1.0 + 1e-9)):
        raise RefinementError(f"polished zeros left the contour of radius {contour:.3g}"
                              f" around {center}")

    inside = np.abs(zeros - center) <= radius * (1.0 + 1e-9)
    zeros, steps = zeros[inside], steps[inside]
    ests = []
    for group in _clusters(zeros):
        z = complex(np.mean(zeros[group]))
        # I + s z K is singular at z = -1/(s lam), so lam = -s / z
        ests.append(EigenEstimate(z, -sign / z, abs(det_p(prep.matrix, p, sign * z).value),
                                  len(group), float(steps[group].max())))
    return _ordered(ests)


def _ordered(ests) -> list:
    """Estimates by |z_root|; moduli within CLUSTER_TOL of the first of their run
    go by imaginary, then real part, so a conjugate pair keeps one order."""
    by_modulus = sorted(ests, key=lambda e: abs(e.z_root))
    lead = []
    for e in by_modulus:
        r = abs(e.z_root)
        lead.append(lead[-1] if lead and r - lead[-1] <= CLUSTER_TOL * (1.0 + lead[-1]) else r)
    ranked = sorted(zip(lead, by_modulus), key=lambda t: (t[0], t[1].z_root.imag, t[1].z_root.real))
    return [e for _, e in ranked]


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
    return OrderFit(float(slope), float(intercept), r2)
