"""Eigenvalue location from determinant zeros: contour moments plus a Borsch-Supan polish."""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .determinants import _check_p, _lu_dets, _newton_identities, _trace_powers, prepare

MAX_CONTOUR_SAMPLES = 2**16
MOMENT_TOL = 1e-10        # settled contour: moment coefficients agree between two levels
_STEP_TOL = 1e-12         # the polish ends once every step is this small (relative)
_LOG_GUARD = np.log(1e-13)
# an m-fold zero converges linearly, by (m - 1) / (m + 1) per step: 0.80 for the nine
# coincident zeros of test_locate_eigs_ninefold_root_is_one_estimate, which settle in 96
_POLISH_STEPS = 200
_POWER_BLOCK = 2**16      # complex powers u^q that _exterior_log holds at once


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
    decades apart.  step = |dz| / (1 + |z|) is the size of the last polish
    step that placed z_root, relative to it, and so is the scale-free
    accuracy signal; for a cluster it is the largest step among its members.
    Polished zeros within pi times the larger of their steps form one
    cluster: an m-fold zero's iterates sit (m - 1) sin(pi / m) steps apart,
    below pi for every m.  locate_eigs sets it; it is nan where no polish
    step was recorded, as in refine_zero's estimates.
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


def _dewound_spectrum(logs, radius):
    """Winding number n and Fourier coefficients of g(theta) = log f - n i theta.

    The phase is unwrapped from its increments between neighbouring samples,
    so g is periodic; coeffs[q] / coeffs[m - q] hold frequencies +q / -q.
    A non-finite sample, or one with |f| below 1e-13 of the smaller of its two
    circular neighbours, raises ZeroOnContourError: the circle passes through
    a zero.  Growth along the circle, however steep, is not such a dip.
    """
    if not np.isfinite(logs).all():
        raise ZeroOnContourError(f"f vanishes or is not finite on contour radius {radius:.3g}")
    mags, args = logs.real, logs.imag
    ring = np.concatenate((mags[-1:], mags, mags[:1]))  # circular neighbours in one copy
    dip = mags - np.minimum(ring[:-2], ring[2:])
    if not dip.min() > _LOG_GUARD:
        raise ZeroOnContourError(f"|f| falls to {np.exp(dip.min()):.3g} of its neighbours"
                                 f" on contour radius {radius:.3g}")
    m = logs.size
    steps = np.angle(np.exp(1j * (np.concatenate((args[1:], args[:1])) - args)))
    n = round(steps.sum() / (2.0 * np.pi))
    g = np.empty(m, dtype=np.complex128)  # log f - n i theta, dewound
    g.real = mags
    phase = g.imag
    phase[0] = 0.0
    np.cumsum(steps[:-1], out=phase[1:])
    phase += args[0]
    phase -= n * (2.0 * np.pi * np.arange(m) / m)
    return n, np.fft.fft(g) / m


def _disc(center, radius):
    """center as a complex; ValueError unless it is finite and radius is positive and finite."""
    center = complex(center)
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    return center


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
    m = 128
    logs = logfun(center + radius * np.exp(2j * np.pi * (np.arange(m) / m)))
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
        new[1::2] = logfun(center + radius * np.exp(2j * np.pi * ((np.arange(m) + 0.5) / m)))
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
    A center or radius that is not finite, or a radius that is not positive,
    raises ValueError.
    """
    center = _disc(center, radius)

    def logfun(zs):
        vals = np.array([complex(detfun(z)) for z in zs])
        with np.errstate(divide="ignore"):
            return np.log(np.abs(vals)) + 1j * np.angle(vals)

    return _sample_circle(logfun, center, radius)[0]


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


def _exterior_log(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """log G(u) = c_0 + sum_{q=1}^{m/2-1} c_q u^q at u clamped to |u| <= 1.

    coeffs is _sample_circle's spectrum of the de-wound log of f on the unit
    circle in u; its nonnegative frequencies are the log of the factor G of f
    that has no zero inside.  The powers u^q are formed in blocks of at most
    _POWER_BLOCK values, so their table stays bounded whatever m and the
    number of u.
    """
    u = u / np.maximum(1.0, np.abs(u))
    pos = coeffs[1:coeffs.size // 2]
    out = np.full(u.shape, coeffs[0])
    width = max(1, _POWER_BLOCK // max(u.size, 1))
    lead = np.ones_like(u)
    for q0 in range(0, pos.size, width):
        q1 = min(q0 + width, pos.size)
        block = lead[:, None] * np.cumprod(np.repeat(u[:, None], q1 - q0, axis=1), axis=1)
        out += block @ pos[q0:q1]
        lead = block[:, -1]
    return out


def _polish(lu: Callable, center: complex, radius: float, coeffs: np.ndarray,
            z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Simultaneous Borsch-Supan steps on all zeros of a function F in a circle.

    lu(z) is (phase, log|F|) at every point of the array z: for locate_eigs the
    phases and log-moduli of det(I + sign z K), one LU each, from
    PreparedDet.lu_slogdet.  The circle is the one _sample_circle read coeffs
    from, u = (z - center) / radius.  On it F = Q G, where G =
    exp(_exterior_log) has no zero inside and Q(u) = prod_j (u - u_j) is monic
    with exactly the n interior zeros, so the Weierstrass corrections
    W_i = Q(u_i) / prod_{j != i} (u_i - u_j) take one call of lu per step and
    no inverse.  Each zero moves by
    z_i -= radius W_i / (1 + sum_{j != i} W_j / (u_i - u_j)) (Borsch-Supan
    1963), in z so it keeps its relative precision; a step that would carry an
    iterate out of the circle is cut short (_within_circle), though the full
    step still decides when the polish ends.  Real starts z (float64)
    stand for real zeros: each takes only the real part of its step, so z stays
    real and, for a real K, every LU is a float64 one.  G sets only how fast the
    steps converge: their fixed points are the zeros of whatever lu evaluates,
    for locate_eigs the LU determinant of K itself.  A phase of 0 (F(z_i) = 0
    exactly, as an exactly singular I + sign z_i K gives) makes W_i = 0, and
    z_i stays put.  The polish ends once every step is within _STEP_TOL (1 + |z_i|) and
    returns the zeros with each one's last step relative to it,
    |dz| / (1 + |z|); it raises RefinementError on a step that is not finite
    (coincident iterates, or a correction past the double range), or when
    it has not ended after _POLISH_STEPS steps.
    """
    real = not np.iscomplexobj(z)
    for _ in range(_POLISH_STEPS):
        phase, logabs = lu(z)
        u = (z - center) / radius
        gaps = u[:, None] - u
        gaps.flat[::z.size + 1] = 1.0
        with np.errstate(all="ignore"):
            corr = phase * np.exp(logabs - _exterior_log(coeffs, u) - np.log(gaps).sum(axis=1))
            pull = corr / gaps
            pull.flat[::z.size + 1] = 0.0
            steps = radius * corr / (1.0 + pull.sum(axis=1))
        if real:
            steps = steps.real
        if not np.all(np.isfinite(steps)):
            raise RefinementError(f"polish of {z.size} zeros took a step that is not finite")
        # the full step, not the share taken, decides when the polish has ended
        z = z - steps * _within_circle(u, steps / radius)
        size, scale = np.abs(steps), 1.0 + np.abs(z)
        if np.all(size <= _STEP_TOL * scale):
            return z, size / scale
    raise RefinementError(f"polish of {z.size} zeros did not settle within {_POLISH_STEPS}"
                          f" steps (last step {np.abs(steps).max():.3g})")


def _within_circle(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per iterate, the share t of its step u -> u - d that _polish takes: half the
    way to where the step leaves the unit circle, for a step that crosses the circle
    and ends outside it; 1 for any other step (the scalar 1 when no step ends outside).

    Every zero of Q lies in the circle and G is read on it only (_exterior_log
    clamps |u| to 1), so a step that leaves it has no meaning.  From near a
    crowded zero the Weierstrass correction can throw an iterate far out, where
    it diverges: on the sine kernel s = 8 and 10, N = 64, disc 2±1, 8 and 24 of
    120 symmetric perturbations of K_N at rounding level raised RefinementError
    with full steps, none with steps cut here.  Near a zero the step ends
    inside, so the fixed points are those of the full steps.
    """
    out = np.abs(u - d) > 1.0
    if not out.any():
        return 1.0
    dd = np.abs(d) ** 2
    out &= dd > 0.0
    u, d, dd = u[out], d[out], dd[out]
    du = (np.conj(u) * d).real
    disc = du * du + dd * (1.0 - np.abs(u) ** 2)
    leave = (du + np.sqrt(np.maximum(disc, 0.0))) / dd  # larger root of |u - t d| = 1
    t = np.ones(out.shape)
    t[out] = np.where((disc >= 0.0) & (leave > 0.0) & (leave < 1.0), 0.5 * leave, 1.0)
    return t


def _clusters(zeros, steps) -> list:
    """Indices into zeros, grouped by chains of zeros the polish left unresolved.

    Two polished zeros chain when |z_i - z_j| <= pi max(step_i, step_j) (1 + |z|),
    steps being _polish's last relative steps.  The polish converges on an m-fold
    zero with its m iterates on a regular m-gon of radius r, and the Borsch-Supan
    step moves each by 2r / (m + 1), so a last step s leaves neighbours
    (m - 1) sin(pi / m) s apart, below pi s for every m.  Zeros the polish has
    resolved stay apart however close they are.
    """
    groups = []
    for i in sorted(range(len(zeros)), key=lambda i: abs(zeros[i])):
        z = zeros[i]
        for g in groups:
            if any(abs(z - zeros[j]) <= np.pi * max(steps[i], steps[j]) * (1.0 + abs(z))
                   for j in g):
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def locate_eigs(op, p: int, center, radius: float, sign: int = -1) -> list:
    """All zeros of z -> det_p(I + sign*z*K_N) in a disc, as EigenEstimates.

    The zeros of det_p are those of det(I + sign*z*K_N), since the exp(poly)
    factor has none.  K_N is validated and reduced to Hessenberg form H once,
    by determinants.prepare, which keeps the reduction of a PreparedDet.  sign
    enters only as the scalar sign*z: K_N and H are read exactly as prepared,
    so no N x N copy of either is made, and negation is exact.  The contour
    samples log det(I + sign z H) in batches (PreparedDet.logdet): at
    O(N) per point where H is tridiagonal, as prepare makes it for a real
    symmetric or skew Nystrom operator and keeps it (as its three diagonals,
    so no sample scans H for it), and at O(N^2) per point otherwise, in real
    arithmetic when H is real.  This is still an LU determinant, not the
    eigenvalue route, so the three det_p routes stay independent.  Every
    disc is one sampled circle.  A circle that passes through a zero
    (ZeroOnContourError) or whose moments do not settle (RefinementError) is
    moved outward through _BUMPS, so the nominal disc stays covered; when no
    radius resolves, ZeroOnContourError names the radii tried.  A sample that
    an overflowed elimination leaves nan or +inf raises DetOverflowError
    from the first circle, which no bump would cure.  The circle
    gives the count n and the power sums of the zeros (contour moments,
    Delves & Lyness 1967); its sample count doubles only until n and those n
    moments settle, since the polish sets the final digits.  Newton's
    identities (shared with the series route) turn the moments into starting
    values for all n zeros, the roots of sum_k (-1)^k e_k u^(n-k) on the
    circle's scale u = (z - center) / radius.  The polish (_polish) then
    takes simultaneous Borsch-Supan steps on all of them, each from one LU
    determinant of the unreduced I + sign z K_N per zero and step, read
    through the PreparedDet (PreparedDet.lu_slogdet at sign z), with the
    zero-free factor that the circle's nonnegative frequencies give divided
    out; it takes no inverse.  Where the prepared form shows every zero to be
    real and simple (PreparedDet.real_zeros: H real and tridiagonal with
    positive couplings), the starts are projected onto the real
    axis and the polish keeps them there, so a real K_N is factored in
    float64 at every step and for every residual.  Skew operators (negative
    couplings), singular and split-kernel ncc operators and general matrices
    keep the complex polish.  The polish converges or raises RefinementError,
    re-raised with the zero count n and the largest start |u|, which past 1
    says that zeros crowd the circle; a polished zero that leaves the circle
    raises it too.
    Zeros the polish left unresolved, within pi times the larger of their
    last relative steps of each other (_clusters), form one estimate whose
    mult_estimate is the cluster size; pi is above the (m - 1) sin(pi / m)
    last steps that separate the iterates of an m-fold zero, which the
    polish leaves on a regular m-gon.  Zeros it resolved stay apart,
    however close.  residual is |det_p| there, one LU finished with the p-1
    traces of K_N that the search takes once, and step the largest last
    polish step |dz| / (1 + |z|) among the cluster's zeros, at most
    _STEP_TOL since the polish converged.  It does not certify a defective
    multiple zero: J_3(0.5) under the orthogonal similarities of seeds
    0..39, disc 2±1, gives three simple roots 1.2e-5 to 2.2e-5 from z = 2
    with step <= 1e-12 for 3 seeds and RefinementError for 37.  Estimates
    come by |z_root|, ties within _STEP_TOL by imaginary, then real part.
    With the default sign = -1 the reported eigenvalue is lam = 1/z_root.  A
    p that is not a positive integer, a center or radius that is not finite,
    or a radius that is not positive raises ValueError, before anything is
    searched.
    """
    _check_p(p)
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    center = _disc(center, radius)

    prep = prepare(op)
    traces = _trace_powers(prep.matrix, p - 1)  # for the residuals
    for bump in _BUMPS:
        contour = radius * bump
        try:
            n, coeffs = _sample_circle(lambda zs: prep.logdet(sign * zs), center, contour)
            break
        except (ZeroOnContourError, RefinementError):
            continue
    else:
        tried = ", ".join(f"{radius * b:.6g}" for b in _BUMPS)
        raise ZeroOnContourError(f"no contour around {center} resolved its zeros;"
                                 f" radii tried: {tried}")
    k = np.arange(n + 1)  # c_{-k} = -s_k / k, s_k the k-th power sum of the scaled zeros
    u = np.roots(_newton_identities(-k[1:] * coeffs[coeffs.size - k[1:]]) * (-1.0) ** k)
    starts = center + contour * u
    if prep.real_zeros:
        # rounding can make a conjugate pair a +- ib of two close real zeros; it goes
        # to a +- b, not twice to a (found by ==, not np.unique, whose first call
        # adds 1.5 MB of resident pages to a search)
        real = starts.real
        coincide = np.count_nonzero(real[:, None] == real) > real.size
        starts = real + starts.imag if coincide else real
    try:
        zeros, steps = _polish(lambda zs: prep.lu_slogdet(sign * zs), center, contour, coeffs, starts)
    except RefinementError as exc:
        reach = np.abs(u).max()
        where = "crowd the circle" if reach > 1.0 else "lie in the circle"
        raise RefinementError(f"{n} zeros {where} of radius {contour:.3g} around {center}:"
                              f" starts reach |u| = {reach:.4g}; {exc}") from exc
    if not np.all(np.abs(zeros - center) <= contour * (1.0 + 1e-9)):
        raise RefinementError(f"polished zeros left the contour of radius {contour:.3g}"
                              f" around {center}")

    inside = np.abs(zeros - center) <= radius * (1.0 + 1e-9)
    zeros, steps = zeros[inside], steps[inside]
    ests = []
    for group in _clusters(zeros, steps):
        z = complex(np.mean(zeros[group]))
        # I + s z K is singular at z = -1/(s lam), so lam = -s / z
        residual = abs(_lu_dets(prep.matrix, sign * z, traces, (p,))[0])
        ests.append(EigenEstimate(z, -sign / z, residual, len(group), float(steps[group].max())))
    return _ordered(ests)


def _ordered(ests) -> list:
    """Estimates by |z_root|; moduli within _STEP_TOL of the first of their run
    go by imaginary, then real part, so a conjugate pair keeps one order."""
    by_modulus = sorted(ests, key=lambda e: abs(e.z_root))
    lead = []
    for e in by_modulus:
        r = abs(e.z_root)
        lead.append(lead[-1] if lead and r - lead[-1] <= _STEP_TOL * (1.0 + lead[-1]) else r)
    ranked = sorted(zip(lead, by_modulus), key=lambda t: (t[0], t[1].z_root.imag, t[1].z_root.real))
    return [e for _, e in ranked]


def fit_order(ns, errs) -> OrderFit:
    """The least-squares slope of log(err) on log(n); ValueError unless there are
    at least 4 points, all positive and finite."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ns.shape != errs.shape or ns.ndim != 1:
        raise ValueError("ns and errs must be 1-D arrays of equal length")
    if ns.size < 4:
        raise ValueError(f"need at least 4 points to fit an order, got {ns.size}")
    if not np.all(np.isfinite(ns) & np.isfinite(errs) & (ns > 0) & (errs > 0)):
        raise ValueError("ns and errs must be positive and finite")
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    return OrderFit(float(slope))
