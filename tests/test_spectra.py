import tracemalloc
import warnings

import numpy as np
import pytest

import fredet.determinants
import fredet.linalg
import fredet.spectra
from fredet.determinants import det_p, prepare
from fredet.discretize import DiscreteOperator, assemble, assemble_nystrom, assemble_singular
from fredet.kernels import KernelSpec, registry
from fredet.linalg import DetOverflowError, hessenberg, hessenberg_logdet
from fredet.quadrature import gauss_legendre
from fredet.spectra import (OrderFit, RefinementError, ZeroOnContourError, _sample_circle,
                            count_zeros, fit_order, locate_eigs, refine_zero)


def test_count_zeros_cosh():
    f = lambda z: np.cosh(2.0 * z)
    assert count_zeros(f, 0.0, 1.0) == 2    # +-i pi/4
    assert count_zeros(f, 0.0, 0.5) == 0
    assert count_zeros(f, 0.0, 2.5) == 4    # +-i pi/4, +-3i pi/4


def test_count_zeros_with_multiplicity():
    f = lambda z: (z - 0.3) ** 2 * (z + 0.4)
    assert count_zeros(f, 0.0, 1.0) == 3


def test_count_zeros_zero_on_contour():
    with pytest.raises(ZeroOnContourError):
        count_zeros(lambda z: z - 1.0, 0.0, 1.0)


def test_count_zeros_unresolved_contour_raises():
    # a zero 1e-9 inside the circle: no sample dips below the guard, but the
    # moments cannot settle within MAX_CONTOUR_SAMPLES
    with pytest.raises(RefinementError):
        count_zeros(lambda z: z - (1.0 - 1e-9), 0.0, 1.0)


def test_count_zeros_validation():
    f = lambda z: z
    with pytest.raises(ValueError):
        count_zeros(f, 0.0, -1.0)


def test_refine_zero_simple_root():
    est = refine_zero(np.sin, 3.0)
    assert abs(est.z_root - np.pi) < 1e-10
    assert est.residual < 1e-12
    assert abs(est.lam - 1.0 / np.pi) < 1e-10


def test_refine_zero_double_root():
    f = lambda z: (2.0 - 2.0 * np.cos(np.sqrt(complex(z)))) / z
    target = 4.0 * np.pi**2
    try:
        est = refine_zero(f, 39.0)
    except RefinementError as exc:
        est = exc.last
    assert abs(est.z_root - target) / target < 1e-6


def test_refine_zero_no_root_raises_with_last():
    with pytest.raises(RefinementError) as info:
        refine_zero(np.exp, 1.0)
    assert info.value.last is not None


def test_locate_eigs_diagonal_spectrum():
    ests = locate_eigs(np.diag([1.0, 0.5, 0.25]), 1, 2.2, 2.1)
    roots = sorted(e.z_root.real for e in ests)
    assert np.allclose(roots, [1.0, 2.0, 4.0], atol=1e-8)
    lams = sorted((e.lam.real for e in ests), reverse=True)
    assert np.allclose(lams, [1.0, 0.5, 0.25], atol=1e-8)
    assert all(e.mult_estimate == 1 for e in ests)


def test_locate_eigs_reports_multiplicity():
    ests = locate_eigs(np.diag([0.5, 0.5, 0.2]), 1, 2.0, 1.5)
    assert len(ests) == 1
    assert abs(ests[0].z_root - 2.0) < 1e-8
    assert ests[0].mult_estimate == 2


def test_locate_eigs_separates_close_roots():
    # roots 2 and 1/0.5005 = 1.998002 are 2e-3 apart: two estimates, not one
    ests = locate_eigs(np.diag([0.5, 0.5005, 0.2]), 1, 2.0, 1.5)
    assert len(ests) == 2
    roots = sorted(e.z_root.real for e in ests)
    assert np.allclose(roots, [1.0 / 0.5005, 2.0], rtol=1e-13, atol=0.0)
    assert all(e.mult_estimate == 1 for e in ests)


@pytest.mark.parametrize("kmax, center, radius, inside", [
    (14, 6.5, 6.0, 12),     # roots z = 1..12 of 1..14
    (40, 20.5, 20.0, 40),   # every root z = 1..40
], ids=["12", "40"])
def test_locate_eigs_crowded_disc(kmax, center, radius, inside):
    # one contour holds all the roots; each is reported exactly once
    lam = 1.0 / np.arange(1.0, kmax + 1.0)
    assert count_zeros(lambda z: np.prod(1.0 - z * lam), center, radius) == inside
    ests = locate_eigs(np.diag(lam), 1, center, radius)
    roots = sorted(e.z_root.real for e in ests)
    assert len(roots) == inside
    assert np.allclose(roots, np.arange(1.0, inside + 1.0), rtol=1e-12, atol=0.0)
    assert all(e.mult_estimate == 1 for e in ests)
    assert max(abs(e.z_root.imag) for e in ests) < 1e-12


def test_locate_eigs_crowded_random_disc():
    # 56 zeros of det(I + zA) in |z| < 3, each found once against -1/eigvals
    a = np.random.default_rng(0).normal(size=(64, 64)) / 8.0
    expect = -1.0 / np.linalg.eigvals(a)
    expect = expect[np.abs(expect) < 3.0]
    assert expect.size == 56
    ests = locate_eigs(a, 1, 0.0, 3.0, sign=1)
    assert len(ests) == expect.size
    assert all(e.mult_estimate == 1 for e in ests)
    for e in ests:
        assert np.min(np.abs(expect - e.z_root)) <= 1e-12 * abs(e.z_root)
    for z in expect:
        assert min(abs(z - e.z_root) for e in ests) <= 1e-12 * abs(z)


def test_locate_eigs_samples_one_contour(monkeypatch):
    # the twelve zeros of this disc all come from a single circle
    radii = []
    sample = fredet.spectra._sample_circle
    monkeypatch.setattr(fredet.spectra, "_sample_circle",
                        lambda logfun, center, radius: radii.append(radius)
                        or sample(logfun, center, radius))
    ests = locate_eigs(np.diag(1.0 / np.arange(1.0, 15.0)), 1, 6.5, 6.0)
    assert len(ests) == 12
    assert radii == [6.0]


def test_locate_eigs_ninefold_root_is_one_estimate():
    # nine coincident roots come from one disc's moments; the polish converges
    # on them linearly and the cluster rule makes them one estimate, on a rotated
    # matrix and on an exactly diagonal one, which takes the general path
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(12, 12)))
    rotated = q @ np.diag([0.5] * 9 + [0.3, 0.2, 0.1]) @ q.T
    for a, center, radius in ((rotated, 2.0, 1.0), (np.diag([0.5] * 9 + [0.1]), 0.0, 5.0)):
        ests = locate_eigs(a, 1, center, radius)
        assert len(ests) == 1
        assert ests[0].mult_estimate == 9
        assert abs(ests[0].z_root - 2.0) < 1e-6


def test_locate_eigs_defective_root_raises():
    # a Jordan block J_3(0.5) has a triple zero at z = 2; in floating point
    # det(I - zA) is flat to rounding within about eps^(1/3) of it, so the
    # polish wanders there and must say so.  This similarity raises under
    # 2-ulp perturbations of every entry, too
    q, _ = np.linalg.qr(np.random.default_rng(15).normal(size=(3, 3)))
    a = q @ (0.5 * np.eye(3) + np.eye(3, k=1)) @ q.T
    with pytest.raises(RefinementError):
        locate_eigs(a, 1, 2.0, 1.0)


def test_locate_eigs_order_and_sign_agree():
    # det_p and det_1 share their zeros; sign = +1 reflects them through 0
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) / np.sqrt(8.0)
    base = locate_eigs(a, 1, 0.0, 3.0, sign=1)
    assert len(base) >= 2
    for p in (2, 3):
        other = locate_eigs(a, p, 0.0, 3.0, sign=1)
        assert len(other) == len(base)
        for f in other:
            assert min(abs(f.z_root - e.z_root) for e in base) <= 1e-12 * abs(f.z_root)
            assert abs(f.lam - (-1.0 / f.z_root)) <= 1e-12 * abs(f.lam)
    flipped = locate_eigs(a, 1, 0.0, 3.0, sign=-1)
    assert len(flipped) == len(base)
    for e in flipped:
        assert min(abs(e.z_root + b.z_root) for b in base) <= 1e-12 * abs(e.z_root)


def test_locate_eigs_positive_sign_convention():
    # I + z A singular at z = -1/lam, so lam = -1/z_root
    ests = locate_eigs(np.diag([-0.5]), 1, 2.0, 1.5, sign=1)
    assert len(ests) == 1
    assert abs(ests[0].z_root - 2.0) < 1e-8
    assert abs(ests[0].lam - (-0.5)) < 1e-8


def test_locate_eigs_root_on_nominal_contour():
    # the root sits exactly on the first contour; the retry bumps past it
    ests = locate_eigs(np.diag([0.5]), 1, 0.0, 2.0)
    assert len(ests) == 1
    assert abs(ests[0].z_root - 2.0) <= 1e-12


@pytest.mark.parametrize("d, found", [(1e-15, True), (1e-13, True), (1e-12, True),
                                      (1e-10, True), (1e-8, False)])
def test_locate_eigs_root_near_nominal_contour(d, found):
    # a root 2 d outside the first contour: that circle either dips at the
    # root or cannot settle its moments, and the retry bumps past it.  The
    # bumped circle holds the root; it is reported only inside the nominal disc
    root = 2.0 * (1.0 + d)
    ests = locate_eigs(np.diag([1.0 / root]), 1, 0.0, 2.0)
    assert len(ests) == found
    assert all(abs(e.z_root - root) <= 1e-12 for e in ests)


def test_locate_eigs_names_radii_tried(monkeypatch):
    # a circle that never settles is retried outward; the final error says where
    def unsettled(logfun, center, radius):
        raise RefinementError("contour did not settle")
    monkeypatch.setattr(fredet.spectra, "_sample_circle", unsettled)
    with pytest.raises(ZeroOnContourError, match="radii tried: 2, 2.0186, 2.0434, 2.0682"):
        locate_eigs(np.diag([0.5]), 1, 0.0, 2.0)


def test_locate_eigs_refuses_polished_zeros_off_the_contour(monkeypatch):
    # a polish whose zeros leave the circle it was started in is not trusted
    monkeypatch.setattr(fredet.spectra, "_polish",
                        lambda lu, center, radius, coeffs, z: (z + 3.0 * radius,
                                                               np.zeros(z.size)))
    with pytest.raises(RefinementError, match="polished zeros left the contour of radius 5"):
        locate_eigs(np.diag([0.5]), 1, 0.0, 5.0)


def test_locate_eigs_refuses_an_overflowed_elimination(monkeypatch):
    # det(I - zK) = (1 - z)(1 - z/2) has no zero near the circle, but K is reduced as
    # 2^-685 K and z 2^685 times its coupling overflows: every sample is nan, which
    # the first contour refuses as an overflow, not as a zero on the circle
    radii = []
    sample = fredet.spectra._sample_circle
    monkeypatch.setattr(fredet.spectra, "_sample_circle",
                        lambda logfun, center, radius: radii.append(radius)
                        or sample(logfun, center, radius))
    with pytest.raises(DetOverflowError, match="overflowed the double range at z = "):
        locate_eigs(np.array([[1.0, 1e308], [0.0, 0.5]]), 1, 0.0, 3.0)
    assert radii == [3.0]


def test_polish_converges_to_the_zeros_of_the_function_it_evaluates():
    # F(z) = (z - 0.5)(z + 0.3 - 0.4i)(z - 0.2 + 0.6i) exp(0.7 z) with no matrix behind
    # it: from slightly perturbed starts, the polish lands on F's zeros
    zeros = np.array([0.5, -0.3 + 0.4j, 0.2 - 0.6j])

    def logf(z):
        return np.log(z[:, None] - zeros).sum(axis=1) + 0.7 * z

    def lu(z):
        # slogdet's convention at an exact zero, which an iterate can reach: phase 0
        f = np.prod(z[:, None] - zeros, axis=1) * np.exp(0.7 * z)
        mag = np.abs(f)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mag == 0.0, 0.0, f / mag), np.log(mag)

    n, coeffs = _sample_circle(logf, 0.0, 1.0)
    assert n == zeros.size
    starts = zeros + np.array([1e-3, -2e-3j, 1.5e-3 + 1e-3j])
    got, steps = fredet.spectra._polish(lu, 0.0, 1.0, coeffs, starts)
    assert np.all(np.abs(got - zeros) <= 1e-13)
    assert np.all(steps <= fredet.spectra._STEP_TOL)


def test_locate_eigs_empty_region():
    assert locate_eigs(np.diag([0.5]), 1, 10.0, 3.0) == []


def test_locate_eigs_validation():
    with pytest.raises(ValueError):
        locate_eigs(np.eye(2), 1, 0.0, -1.0)
    with pytest.raises(ValueError):
        locate_eigs(np.eye(2), 1, 0.0, 1.0, sign=2)


_NON_FINITE_DISCS = pytest.mark.parametrize("center, radius", [
    (complex(np.nan, 0.0), 1.0),
    (complex(0.0, np.inf), 1.0),
    (0.0, np.inf),
    (0.0, np.nan),
], ids=["center_nan", "center_inf", "radius_inf", "radius_nan"])


@_NON_FINITE_DISCS
def test_locate_eigs_rejects_non_finite_disc(center, radius):
    with pytest.raises(ValueError, match="finite"):
        locate_eigs(np.diag([0.5]), 1, center, radius)


@_NON_FINITE_DISCS
def test_count_zeros_rejects_non_finite_disc(center, radius):
    # refused before any sample, so no numpy RuntimeWarning (an error in this suite)
    with pytest.raises(ValueError, match="finite"):
        count_zeros(lambda z: z - 0.5, center, radius)


@pytest.mark.parametrize("p", [0, -1, 1.5, True])
@pytest.mark.parametrize("center, radius", [(10.0, 3.0), (0.0, 3.0)], ids=["empty", "one_root"])
def test_locate_eigs_rejects_bad_p_on_any_disc(p, center, radius):
    # p is checked first, also for a PreparedDet, which skips prepare's check,
    # and on a disc without zeros, where no residual is ever computed
    k = np.diag([0.5])
    for op in (k, prepare(k)):
        with pytest.raises(ValueError, match="p must be a positive integer"):
            locate_eigs(op, p, center, radius)


def test_locate_eigs_validates_k_and_computes_its_traces_once(monkeypatch):
    op = assemble_nystrom(registry("green"), gauss_legendre(64, 0.0, 1.0))
    checks, traces = [], []
    check, trace_powers = fredet.determinants.as_complex_matrix, fredet.spectra._trace_powers
    monkeypatch.setattr(fredet.determinants, "as_complex_matrix",
                        lambda m: checks.append(m.shape) or check(m))
    monkeypatch.setattr(fredet.spectra, "_trace_powers",
                        lambda m, j: traces.append(j) or trace_powers(m, j))
    # z = (k pi)^2 for k = 1..12 lie in 720 +- 719; (13 pi)^2 ~ 1668 does not
    ests = locate_eigs(op, 2, 720.0, 719.0)
    assert len(ests) == 12 and checks == [(64, 64)] and traces == [1]
    # a PreparedDet is not validated again; the search computes its traces once
    prep = prepare(op)
    del checks[:], traces[:]
    assert locate_eigs(prep, 2, 720.0, 719.0) == ests
    assert checks == [] and traces == [1]
    monkeypatch.undo()
    # each residual keeps the bits of a det_p call at its root
    assert all(e.residual == abs(det_p(op, 2, -e.z_root).value) for e in ests)


def test_locate_eigs_samples_contours_without_slogdet(monkeypatch):
    # the contours are sampled on the Hessenberg form; the slogdet calls are the
    # polish, one LU per root and step, and the residual of each reported estimate:
    # the three roots settle in one step, so each takes two
    op = assemble_nystrom(registry("green"), gauss_legendre(64, 0.0, 1.0))
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: calls.append(m.shape) or slogdet(m))
    ests = locate_eigs(op, 1, 50.0, 49.0)
    lam = np.linalg.eigvals(op.matrix)
    expect = np.sort((1.0 / lam[np.abs(1.0 / lam - 50.0) < 49.0]).real)
    assert np.allclose(sorted(e.z_root.real for e in ests), expect, rtol=1e-12, atol=0.0)
    assert len(ests) == 3
    assert len(calls) == 2 * len(ests)


def test_contour_past_one_chunk_matches_unchunked(monkeypatch):
    # a zero near 0.97, just inside the unit circle, makes the sampler double
    # well past one evaluation block; the block size must not change the samples
    h = hessenberg(np.diag([-1.0 / 0.97, 0.3, -0.2]) + 0.01)
    logfun = lambda zs: hessenberg_logdet(h, zs)
    n, coeffs = _sample_circle(logfun, 0.0, 1.0)
    assert n == 1
    assert coeffs.size > 4 * fredet.linalg._LOGDET_CHUNK
    monkeypatch.setattr(fredet.linalg, "_LOGDET_CHUNK", 2**16)
    n_whole, whole = _sample_circle(logfun, 0.0, 1.0)
    assert n_whole == n
    assert np.allclose(whole, coeffs, rtol=0.0, atol=1e-15)


def test_zero_just_inside_contour_is_found():
    # a zero 1e-3 inside the unit circle: the moments settle only after many
    # doublings, and the polished root is exact
    ests = locate_eigs(np.diag([1.0 / 0.999, 0.2]), 1, 0.0, 1.0)
    assert len(ests) == 1
    assert abs(ests[0].z_root - 0.999) <= 1e-12


def test_zero_just_outside_contour_is_not_reported():
    # a zero 1e-3 outside the unit circle is not counted; the one at 0.2 is
    a = np.diag([1.0 / 1.001, 5.0])
    assert count_zeros(lambda z: np.linalg.det(np.eye(2) - z * a), 0.0, 1.0) == 1
    ests = locate_eigs(a, 1, 0.0, 1.0)
    assert len(ests) == 1
    assert abs(ests[0].z_root - 0.2) <= 1e-12


def test_empty_disc_still_settles_first_moment():
    # n = 0 repeats from the first level on, but a zero 1e-3 outside the circle
    # aliases into c_{-1}: sampling goes on until that coefficient has settled
    sizes = []
    logfun = lambda zs: sizes.append(zs.size) or np.log(zs - 1.001)
    n, coeffs = _sample_circle(logfun, 0.0, 1.0)
    assert n == 0
    assert sum(sizes) == coeffs.size > 128
    assert abs(coeffs[-1]) <= fredet.spectra.MOMENT_TOL


@pytest.mark.parametrize("zeros", [[], [0.5, -0.3 + 0.4j, 0.7j, -0.6 - 0.2j, 0.1, 0.2 - 0.8j]],
                         ids=["none", "six"])
def test_contour_starts_recover_zeros_from_exact_moments(monkeypatch, zeros):
    # the de-wound log of prod_j (w - w_j) on the unit circle has the coefficient
    # c_{-k} = -s_k / k, s_k = sum_j w_j^k; fed those exactly in place of the
    # sampled ones, the starting values handed to the polish are the zeros
    zeros = np.array(zeros, dtype=np.complex128)
    m = 64
    coeffs = np.zeros(m, dtype=np.complex128)
    for k in range(1, zeros.size + 1):
        coeffs[m - k] = -np.sum(zeros**k) / k
    starts = []
    monkeypatch.setattr(fredet.spectra, "_sample_circle", lambda *_: (zeros.size, coeffs))
    polish = lambda lu, center, radius, coeffs, z: starts.append(z) or (z, np.zeros(z.size))
    monkeypatch.setattr(fredet.spectra, "_polish", polish)
    locate_eigs(np.eye(2), 1, 0.0, 1.0, sign=1)
    assert starts[0].size == zeros.size
    for z in zeros:
        assert np.min(np.abs(starts[0] - z)) <= 1e-12


def test_first_call_fetches_two_levels():
    sizes = []
    logfun = lambda zs: sizes.append(zs.size) or np.log(zs - 0.25)
    assert _sample_circle(logfun, 0.0, 1.0)[0] == 1
    assert sizes == [128]


def test_locate_eigs_orders_conjugate_pair():
    # a real matrix with eigenvalues 0.5 +- 0.5i: its zeros z = 1 -+ i have one
    # modulus, so the negative imaginary part comes first, whatever the rounding
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4)))
    a = q @ np.array([[0.5, -0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.2, 0], [0, 0, 0, 0.1]]) @ q.T
    for mat in (a, a.T):
        ests = locate_eigs(mat, 1, 0.0, 2.0)
        assert [e.mult_estimate for e in ests] == [1, 1]
        assert np.allclose([e.z_root for e in ests], [1.0 - 1.0j, 1.0 + 1.0j], rtol=1e-12, atol=0.0)


def _counted_logdet(monkeypatch):
    sizes = []
    logdet = fredet.determinants.hessenberg_logdet
    monkeypatch.setattr(fredet.determinants, "hessenberg_logdet",
                        lambda h, zs: sizes.append(np.size(zs)) or logdet(h, zs))
    return sizes


def test_locate_budget_on_bench_discs(monkeypatch):
    # the three discs of the locate benchmark, unjittered: the contour stops
    # once the moments settle, and the first two levels come in one batch
    sizes = _counted_logdet(monkeypatch)

    def nystrom(name, scheme, zero_diag=False):
        return assemble(registry(name), scheme, 64, zero_diag=zero_diag)

    cases = [(nystrom("green", "ngl"), 1, 50.0, 49.0, 3),
             (nystrom("bernoulli", "ngl"), 1, 4.0 * np.pi**2, 10.0, 2),
             (nystrom("sign", "rect", zero_diag=True), 2, 0.0, 1.2, 2)]
    budget = []
    for op, p, center, radius, roots in cases:
        sizes.clear()
        assert len(locate_eigs(op, p, center, radius)) == roots
        budget.append((sum(sizes), len(sizes)))
    assert budget == [(256, 2), (128, 1), (128, 1)]   # 512 samples in 4 calls


def test_circle_through_a_root_bumps_at_once(monkeypatch):
    # the circle of the disc z_1/2 +- z_1/2 passes through the first root of the
    # N = 128 Green's-function determinant; the dip of that sample below its
    # neighbours rejects the first batch, so the retry costs 128 samples, not 2^16
    sizes = _counted_logdet(monkeypatch)
    op = assemble_nystrom(registry("green"), gauss_legendre(128, 0.0, 1.0))
    z1 = 1.0 / np.linalg.eigvals(op.matrix)
    z1 = z1[np.argmin(np.abs(z1))].real
    ests = locate_eigs(op, 1, z1 / 2.0, z1 / 2.0)
    assert len(ests) == 1
    assert abs(ests[0].z_root - z1) <= 1e-12 * z1
    assert (sum(sizes), len(sizes)) == (4224, 7)


def test_steep_contour_is_trusted():
    # |f| spans far more than 1e-13 along this circle, with no zero near it
    logfun = lambda zs: np.log(np.exp(30.0 * zs) * (zs - 0.5))
    n, _ = _sample_circle(logfun, 0.0, 1.0)
    assert n == 1


def test_locate_eigs_many_root_green_disc(monkeypatch):
    # 17 zeros of the N = 128 Green's-function determinant in one disc
    sizes = _counted_logdet(monkeypatch)
    op = assemble_nystrom(registry("green"), gauss_legendre(128, 0.0, 1.0))
    expect = 1.0 / np.linalg.eigvals(op.matrix)
    expect = expect[np.abs(expect - 1500.0) < 1499.0]
    assert expect.size == 17
    ests = locate_eigs(op, 1, 1500.0, 1499.0)
    assert len(ests) == 17
    for e in ests:
        assert np.min(np.abs(expect - e.z_root)) <= 1e-12 * abs(e.z_root)
    for z in expect:
        assert min(abs(z - e.z_root) for e in ests) <= 1e-12 * abs(z)
    assert sum(sizes) == 8192


def test_locate_eigs_reuses_a_prepared_reduction(monkeypatch):
    calls = []
    reduce = fredet.determinants._reduce
    monkeypatch.setattr(fredet.determinants, "_reduce",
                        lambda m, w: calls.append(1) or reduce(m, w))
    op = assemble_nystrom(registry("green"), gauss_legendre(64, 0.0, 1.0))
    first = locate_eigs(op, 1, 50.0, 49.0)
    second = locate_eigs(op.matrix, 1, 50.0, 49.0)
    assert len(calls) == 2  # one reduction per call, operator or raw matrix
    assert len(first) == 3
    # the operator is reduced through its symmetric W^(1/2) K W^(-1/2), the raw matrix
    # as it is: two reductions of one determinant, so the roots agree to rounding
    assert len(second) == 3
    for a, b in zip(first, second):
        assert abs(a.z_root - b.z_root) <= 1e-12 * abs(b.z_root)
    # a PreparedDet is searched on its own reduction, on either sign
    prep = prepare(op)
    assert [e.z_root for e in locate_eigs(prep, 1, 50.0, 49.0)] == [e.z_root for e in first]
    assert len(locate_eigs(prep, 2, -50.0, 49.0, sign=1)) == 3
    assert len(calls) == 3


def test_step_is_scale_free_where_the_residual_is_not():
    # the nine zeros of det_3 on abs_pow in |z| < 1.5 are all accurate, but
    # |det_3| grows along the axis, so their residuals spread over more than eight
    # decades; the last polish step, relative to |z|, is small for every one of them
    op = assemble_singular(registry("abs_pow"), 64)
    ests = locate_eigs(op, 3, 0.0, 1.5)
    expect = 1.0 / np.linalg.eigvals(op.matrix)
    assert len(ests) == 9
    for e in ests:
        assert np.min(np.abs(expect - e.z_root)) <= 1e-13 * abs(e.z_root)
        assert 0.0 <= e.step <= 1e-12
    residuals = [e.residual for e in ests]
    assert min(residuals) < 1e-15 and max(residuals) > 1e8 * min(residuals)


def test_locate_eigs_polishes_sixteen_roots_of_one_disc():
    # disc 0 +- 2 on abs_pow holds 16 zeros of det_3; the Newton-identity starts
    # are off by up to 0.07 of the radius, and the polish, which divides out the
    # zero-free factor the contour measured, still takes each to its own zero
    op = assemble_singular(registry("abs_pow"), 64)
    expect = 1.0 / np.linalg.eigvals(op.matrix)
    ests = locate_eigs(op, 3, 0.0, 2.0)
    assert len(ests) == np.sum(np.abs(expect) < 2.0) == 16
    assert all(e.mult_estimate == 1 for e in ests)
    for e in ests:
        assert np.min(np.abs(expect - e.z_root)) <= 1e-13 * abs(e.z_root)


@pytest.mark.parametrize("radius", [2.5, 3.0])
def test_locate_eigs_crowded_circle_raises_typed_error(radius):
    # on discs 0 +- 2.5 and 0 +- 3 the zeros nearest the circle lie under 2% of the
    # radius on either side of it; the polish gives up with RefinementError, and
    # no overflow or invalid value escapes on the way
    op = assemble_singular(registry("abs_pow"), 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RefinementError, match=r"zeros crowd the circle .*: starts reach \|u\| = 1\."):
            locate_eigs(op, 3, 0.0, radius)


def test_cluster_step_is_the_largest_of_its_members(monkeypatch):
    # _polish returns the zeros z and each one's relative last step
    polished = []
    polish = fredet.spectra._polish
    monkeypatch.setattr(fredet.spectra, "_polish",
                        lambda *args: polished.append(polish(*args)) or polished[-1])
    ests = locate_eigs(np.diag([0.5, 0.5, 0.25]), 1, 0.0, 5.0)
    assert [e.mult_estimate for e in ests] == [2, 1]
    (zeros, rel), = polished
    double = np.abs(zeros - 2.0) < 1e-3
    assert ests[0].step == rel[double].max()
    assert ests[1].step == rel[~double].max()
    assert all(0.0 <= e.step <= 1e-12 for e in ests)


def test_search_makes_no_matrix_sized_copies():
    # K and H are read as prepared: besides I + wK and its LU in the polish,
    # no N x N array is made, neither a signed copy of K or H, nor an identity,
    # nor a complex copy of the real K
    n = 256
    prep = prepare(assemble_nystrom(registry("green"), gauss_legendre(n, 0.0, 1.0)))
    tracemalloc.start()
    try:
        ests = locate_eigs(prep, 1, 50.0, 49.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ests) == 3
    assert peak <= 3 * 16 * n * n


def _orientation_case(name):
    if name == "random8":
        return np.random.default_rng(3).normal(size=(8, 8)) / np.sqrt(8.0), 1, 0.0, 3.0
    if name == "random64":  # 56 zeros in one disc
        return np.random.default_rng(0).normal(size=(64, 64)) / 8.0, 1, 0.0, 3.0
    if name == "abs_pow":
        return assemble_singular(registry("abs_pow"), 64).matrix, 3, 0.0, 1.5
    return assemble(registry("sign"), "rect", 100, zero_diag=True).matrix, 2, 0.0, 1.5


@pytest.mark.parametrize("name", ["random8", "random64", "abs_pow", "sign_rect"])
def test_sign_flips_the_matrix_bit_for_bit(name):
    # det_p(I + z A) = det_p(I - z (-A)); sign moves only scalars and negation is
    # exact, so both searches take the same steps and report the same bits
    a, p, center, radius = _orientation_case(name)
    plus = locate_eigs(a, p, center, radius, sign=1)
    minus = locate_eigs(-a, p, center, radius)
    assert len(plus) == len(minus) > 0
    for u, v in zip(plus, minus):
        assert (u.z_root, u.residual, u.step, u.mult_estimate) == \
            (v.z_root, v.residual, v.step, v.mult_estimate)
        assert u.lam == -v.lam


@pytest.mark.parametrize("name", ["random64", "abs_pow", "sign_rect"])
def test_real_k_and_its_complex_copy_give_the_same_roots(name):
    # a real K is sampled and polished in real storage, its complex copy in complex
    # arithmetic; the roots agree to 1e-14 relative
    a, p, center, radius = _orientation_case(name)
    real = locate_eigs(a, p, center, radius)
    cplx = locate_eigs(a.astype(np.complex128), p, center, radius)
    assert len(real) == len(cplx) > 0
    for u, v in zip(real, cplx):
        assert abs(u.z_root - v.z_root) <= 1e-14 * abs(v.z_root)
        assert u.mult_estimate == v.mult_estimate


def test_fit_order_recovers_exact_power_law():
    ns = np.array([10, 20, 40, 80, 160])
    errs = 3.0 * ns.astype(float) ** -2.0
    fit = fit_order(ns, errs)
    assert isinstance(fit, OrderFit)
    assert abs(fit.slope - (-2.0)) < 1e-12


def test_fit_order_validation():
    with pytest.raises(ValueError):
        fit_order([10, 20, 40], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        fit_order([10, 20, 40, 80], [1.0, 0.5, 0.25, 0.0])
    with pytest.raises(ValueError):
        fit_order([10, 20], [1.0, 0.5, 0.2, 0.1])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            fit_order([1, 2, 3, 4], [1.0, bad, 1.0, 1.0])


def _slogdet_dtypes(monkeypatch):
    """The dtype of every operand np.linalg.slogdet is handed from here on."""
    seen = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: seen.append(m.dtype) or slogdet(m))
    return seen


# operator, p, disc centre and radius
_ARITHMETIC_CASES = {
    "green-ngl": (lambda: assemble(registry("green"), "ngl", 64), 1, 50.0, 49.0),
    "bernoulli-ngl": (lambda: assemble(registry("bernoulli"), "ngl", 64), 1, 4 * np.pi**2, 10.0),
    "bernoulli-ncc": (lambda: assemble(registry("bernoulli"), "ncc", 64), 1, 4 * np.pi**2, 10.0),
    "sign-rect": (lambda: assemble(registry("sign"), "rect", 64, zero_diag=True), 2, 0.0, 1.2),
    "abs_pow-singular": (lambda: assemble_singular(registry("abs_pow"), 64), 3, 0.0, 1.5),
    "green-ncc": (lambda: assemble(registry("green"), "ncc", 64), 1, 50.0, 49.0),
    "diagonal": (lambda: np.diag([0.5, 0.5, 0.2]), 1, 0.0, 6.0),
}


@pytest.mark.parametrize("name", ["green-ngl", "bernoulli-ngl", "bernoulli-ncc"])
def test_symmetric_searches_factor_in_float64(monkeypatch, name):
    # W^(1/2) K W^(-1/2) is symmetric, so its tridiagonal form has positive couplings
    # and real, simple zeros: every polish and residual LU factors I + s x K in float64,
    # and the roots match the general, complex search on the raw matrix
    make, p, center, radius = _ARITHMETIC_CASES[name]
    op = make()
    seen = _slogdet_dtypes(monkeypatch)
    ests = locate_eigs(op, p, center, radius)
    monkeypatch.undo()
    assert ests and set(seen) == {np.dtype(np.float64)}
    assert all(e.z_root.imag == 0.0 and e.lam.imag == 0.0 for e in ests)
    seen = _slogdet_dtypes(monkeypatch)
    raw = locate_eigs(op.matrix, p, center, radius)
    assert np.dtype(np.complex128) in seen
    assert len(raw) == len(ests)
    for u, v in zip(ests, raw):
        assert abs(u.z_root - v.z_root) <= 1e-12 * abs(v.z_root)


def _raising(message):
    """A stand-in that raises AssertionError, which no search catches, as it
    might a LinAlgError from a singular matrix."""
    def spy(*args, **kwargs):
        raise AssertionError(message)
    return spy


def _gap_to_eigs(op, ests):
    """The largest relative distance from an estimate to the nearest 1/lam of K."""
    expect = 1.0 / np.linalg.eigvals(getattr(op, "matrix", op))
    return max(np.min(np.abs(expect - e.z_root)) / abs(e.z_root) for e in ests)


def test_green_search_at_n400_is_tridiagonal_float64_and_inverse_free(monkeypatch):
    # green ngl N = 400, 17 real roots in 1500 +- 1499: past the panel crossover the
    # form is still tridiagonal, the polish and residuals factor float64 matrices and
    # take no inverse, and the roots are K's and the general search's on the raw matrix
    assert 200 < fredet.linalg._TRIDIAGONAL_CROSSOVER <= 400
    green = assemble(registry("green"), "ngl", 400)
    monkeypatch.setattr(np.linalg, "inv", _raising("the polish took an inverse"))
    monkeypatch.setattr(fredet.determinants, "hessenberg",
                        _raising("a symmetric operator took linalg.hessenberg"))
    seen = _slogdet_dtypes(monkeypatch)
    tri = locate_eigs(green, 1, 1500.0, 1499.0)
    assert set(seen) == {np.dtype(np.float64)}
    monkeypatch.setattr(fredet.determinants, "hessenberg", hessenberg)
    assert len(tri) == 17
    assert all(e.z_root.imag == 0.0 for e in tri)
    assert _gap_to_eigs(green, tri) <= 1e-12
    full = locate_eigs(green.matrix, 1, 1500.0, 1499.0)
    assert len(full) == 17
    assert max(abs(a.z_root - b.z_root) / abs(b.z_root) for a, b in zip(tri, full)) <= 1e-12


def test_complex_polish_searches_take_no_inverse(monkeypatch):
    # sign rect, skew, on either side of the panel crossover, with no general reduction:
    # its roots are imaginary, so its polish factors complex matrices; abs_pow singular
    # takes the general path.  Each root is 1/lam of K to 1e-12
    monkeypatch.setattr(np.linalg, "inv", _raising("the polish took an inverse"))
    monkeypatch.setattr(fredet.determinants, "hessenberg",
                        _raising("a skew operator took linalg.hessenberg"))
    for n in (200, 400):
        sign = assemble(registry("sign"), "rect", n, zero_diag=True)
        ests = locate_eigs(sign, 2, 0.0, 1.2)
        assert len(ests) == 2, n
        assert _gap_to_eigs(sign, ests) <= 1e-12, n
    monkeypatch.setattr(fredet.determinants, "hessenberg", hessenberg)
    singular = assemble(registry("abs_pow"), "singular", 64)
    ests = locate_eigs(singular, 3, 0.0, 2.0)
    assert len(ests) == 16
    assert _gap_to_eigs(singular, ests) <= 1e-12


@pytest.mark.parametrize("name", ["green-ngl", "sign-rect"])
def test_tridiagonal_searches_never_rescan_the_form(monkeypatch, name):
    # prepare records that the form it made is tridiagonal, so neither a contour
    # sample nor the test for real zeros scans the N x N form for that again
    make, p, center, radius = _ARITHMETIC_CASES[name]
    op = make()

    def triu(*args, **kwargs):
        raise AssertionError("np.triu scanned a form")

    monkeypatch.setattr(np, "triu", triu)
    assert locate_eigs(op, p, center, radius)
    assert np.all(np.isfinite(prepare(op).values(p, [0.5, 0.3j])))


@pytest.mark.parametrize("name", ["sign-rect", "abs_pow-singular", "green-ncc", "diagonal"])
def test_other_searches_polish_in_complex_arithmetic(monkeypatch, name):
    # a skew operator (negative couplings), the singular and split-kernel schemes
    # and a raw diagonal matrix (zero couplings) keep the complex polish
    make, p, center, radius = _ARITHMETIC_CASES[name]
    op = make()
    seen = _slogdet_dtypes(monkeypatch)
    assert locate_eigs(op, p, center, radius)
    assert set(seen) == {np.dtype(np.complex128)}


def _wilkinson_w21():
    """Wilkinson's W_21^+: diagonal |-10..10|, couplings 1; its top two eigenvalues
    differ by 7.1e-14."""
    return np.diag(np.abs(np.arange(-10.0, 11.0))) + np.eye(21, k=1) + np.eye(21, k=-1)


@pytest.mark.parametrize("center, radius", [(1.0 / 10.7462, 0.05), (0.0, 0.2)])
def test_near_double_real_zeros_are_one_estimate(center, radius):
    # W_21^+ takes the float64 polish; only its two closest pairs of zeros, 6.7e-15
    # and 6.1e-12 apart (relative), are left unresolved by it and come back as one
    # estimate with mult_estimate 2; the pairs 8.7e-10 apart and more are resolved
    # and stay two simple estimates: 6 estimates of 8 zeros on the first disc, 9 of
    # 11 on the second, each within 1e-11 of as many zeros as it counts
    w = _wilkinson_w21()
    zeros = 1.0 / np.linalg.eigvalsh(w)
    assert prepare(w).real_zeros
    ests = locate_eigs(w, 1, center, radius)
    inside = zeros[np.abs(zeros - center) < radius]
    assert [e.mult_estimate for e in ests] == [2, 2] + [1] * (inside.size - 4)
    for e in ests:
        assert e.z_root.imag == 0.0
        nearest = np.sort(np.abs(inside - e.z_root))
        assert nearest[e.mult_estimate - 1] <= 1e-11 * abs(e.z_root)


@pytest.mark.parametrize("s", [8.0, 10.0])
def test_sine_kernel_near_multiple_zeros_come_back_simple(s):
    # the sine kernel sinc(x - y) on [0, s] has eigenvalues crowding just below 1,
    # the closest 6.2e-13 from it at s = 10; the polish resolves each of them, so
    # each is its own simple estimate
    op = assemble(KernelSpec(0.0, s, k1=lambda x, y: np.sinc(x - y)), "ngl", 64)
    root = np.sqrt(op.weights)
    zeros = 1.0 / np.linalg.eigvalsh(root[:, None] * op.matrix / root)
    ests = locate_eigs(op, 1, 2.0, 1.0)
    assert len(ests) == int(s)
    assert all(e.mult_estimate == 1 for e in ests)
    for e in ests:
        assert np.min(np.abs(zeros - e.z_root)) <= 1e-13 * abs(e.z_root)


@pytest.mark.parametrize("s", [8.0, 10.0])
def test_crowded_zeros_survive_rounding_level_changes_of_k(s):
    # the sine kernel's crowded zeros near the circle: a step from near them can throw
    # an iterate far out of the circle, where it diverged before steps were cut to stay
    # in it (seed 11 at s = 8 and seed 5 at s = 10 among these raised RefinementError);
    # every symmetric perturbation of K at rounding level keeps every zero simple
    op = assemble(KernelSpec(0.0, s, k1=lambda x, y: np.sinc(x - y)), "ngl", 64)
    root = np.sqrt(op.weights)
    for seed in range(12):
        e = np.random.default_rng(seed).normal(size=op.matrix.shape) * 2e-16
        e = (e + e.T) / 2.0 * np.abs(op.matrix).max()
        k = op.matrix + e * np.outer(1.0 / root, root)  # S + E, E symmetric
        zeros = 1.0 / np.linalg.eigvalsh(root[:, None] * k / root)
        ests = locate_eigs(DiscreteOperator(k, op.nodes, op.weights), 1, 2.0, 1.0)
        assert [e.mult_estimate for e in ests] == [1] * int(s), seed
        for est in ests:
            assert np.min(np.abs(zeros - est.z_root)) <= 1e-13 * abs(est.z_root), seed


def test_steps_that_would_leave_the_circle_stop_half_way_to_it():
    # half the way to where a step leaves the unit circle, from inside it or through
    # it from outside; a step that ends inside, or one that never enters, in full
    u = np.array([0.5, -0.9 + 0.1j, 1.5, 0.5, 1.5])
    d = np.array([-1.0, -0.5j, 3.0, 0.2, -1.0])
    t = fredet.spectra._within_circle(u, d)
    assert t[0] == 0.25  # leaves at u - 0.5 d = 1
    assert 0.0 < t[1] < 0.5 and abs(abs(u[1] - 2.0 * t[1] * d[1]) - 1.0) <= 1e-15
    assert abs(t[2] - 5.0 / 12.0) <= 1e-15  # enters at t = 1/6, leaves at t = 5/6
    assert t[3] == t[4] == 1.0


def _rotated(vals, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(vals), len(vals))))
    return q @ np.diag(vals) @ q.T


@pytest.mark.parametrize("a, center, radius, m", [
    (np.diag([0.5, 0.5, 0.25]), 0.0, 5.0, 2),
    (_rotated([0.5] * 9 + [0.3, 0.2, 0.1], 1), 2.0, 1.0, 9),
    (_rotated([0.5] * 3 + [0.25], 2), 2.0, 1.0, 3)], ids=["double", "ninefold", "triple"])
def test_unresolved_zeros_sit_on_a_polygon_of_the_last_step(monkeypatch, a, center, radius, m):
    # the polish leaves an m-fold zero's iterates on a regular m-gon whose
    # neighbours lie (m - 1) sin(pi / m) last steps apart, below the pi by which
    # _clusters chains them into one estimate
    polished = []
    polish = fredet.spectra._polish
    monkeypatch.setattr(fredet.spectra, "_polish",
                        lambda *args: polished.append(polish(*args)) or polished[-1])
    ests = locate_eigs(a, 1, center, radius)
    assert ests[0].mult_estimate == m
    (zeros, rel), = polished
    member = np.abs(zeros - 2.0) < 1e-3
    assert fredet.spectra._clusters(zeros, rel)[0] == sorted(np.flatnonzero(member),
                                                              key=lambda i: abs(zeros[i]))
    z, step = zeros[member], rel[member]
    assert np.all(step <= fredet.spectra._STEP_TOL)
    gaps = np.abs(z[:, None] - z)
    np.fill_diagonal(gaps, np.inf)
    ratio = gaps.min(axis=1) / (1.0 + np.abs(z)) / step
    assert np.allclose(ratio, (m - 1) * np.sin(np.pi / m), rtol=1e-3, atol=0.0)


def test_coincident_projected_starts_stay_apart(monkeypatch):
    # det(I - zT) = 5 (z - z_1)(z - z_2) for T = [[2, 1], [1, 3]]; moments fed in as
    # those of the conjugate pair 0.5 +- 0.3i put both starts on 0.5 once projected
    # onto the real axis, so the guard places them at 0.5 +- 0.3, and the polish
    # takes each to its own zero
    t = np.array([[2.0, 1.0], [1.0, 3.0]])
    pair = np.array([0.5 + 0.3j, 0.5 - 0.3j])
    m = 64
    coeffs = np.zeros(m, dtype=np.complex128)
    coeffs[0] = np.log(5.0)  # the zero-free factor G = 5 on the unit circle
    for k in (1, 2):
        coeffs[m - k] = -np.sum(pair**k) / k
    monkeypatch.setattr(fredet.spectra, "_sample_circle", lambda *_: (2, coeffs))
    starts = []
    polish = fredet.spectra._polish
    monkeypatch.setattr(fredet.spectra, "_polish",
                        lambda *args: starts.append(args[-1]) or polish(*args))
    ests = locate_eigs(t, 1, 0.0, 1.0)
    assert np.allclose(np.sort(starts[0]), [0.2, 0.8], rtol=0.0, atol=1e-12)
    assert np.isrealobj(starts[0])
    expect = np.sort(1.0 / np.linalg.eigvalsh(t))
    assert [e.mult_estimate for e in ests] == [1, 1]
    assert np.allclose([e.z_root for e in ests], expect, rtol=1e-14, atol=0.0)
