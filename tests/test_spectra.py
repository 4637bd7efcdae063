import tracemalloc

import numpy as np
import pytest

import fredet.determinants
import fredet.linalg
import fredet.spectra
from fredet.determinants import prepare
from fredet.discretize import assemble, assemble_nystrom, assemble_singular
from fredet.kernels import registry
from fredet.linalg import hessenberg, hessenberg_logdet
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
    # on them linearly and the cluster rule makes them one estimate
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(12, 12)))
    a = q @ np.diag([0.5] * 9 + [0.3, 0.2, 0.1]) @ q.T
    ests = locate_eigs(a, 1, 2.0, 1.0)
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


def test_locate_eigs_empty_region():
    assert locate_eigs(np.diag([0.5]), 1, 10.0, 3.0) == []


def test_locate_eigs_validation():
    with pytest.raises(ValueError):
        locate_eigs(np.eye(2), 1, 0.0, -1.0)
    with pytest.raises(ValueError):
        locate_eigs(np.eye(2), 1, 0.0, 1.0, sign=2)


@pytest.mark.parametrize("center, radius", [
    (complex(np.nan, 0.0), 1.0),
    (complex(0.0, np.inf), 1.0),
    (0.0, np.inf),
    (0.0, np.nan),
], ids=["center_nan", "center_inf", "radius_inf", "radius_nan"])
def test_locate_eigs_rejects_non_finite_disc(center, radius):
    with pytest.raises(ValueError, match="finite"):
        locate_eigs(np.diag([0.5]), 1, center, radius)


def test_locate_eigs_samples_contours_without_slogdet(monkeypatch):
    # the contours are sampled on the Hessenberg form; the only slogdet calls
    # left are the residual det_p of each reported estimate
    op = assemble_nystrom(registry("green"), gauss_legendre(64, 0.0, 1.0))
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: calls.append(m.shape) or slogdet(m))
    ests = locate_eigs(op, 1, 50.0, 49.0)
    lam = np.linalg.eigvals(op.matrix)
    expect = np.sort((1.0 / lam[np.abs(1.0 / lam - 50.0) < 49.0]).real)
    assert np.allclose(sorted(e.z_root.real for e in ests), expect, rtol=1e-12, atol=0.0)
    assert len(calls) == len(ests) == 3


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
    logdet = fredet.spectra.hessenberg_logdet
    monkeypatch.setattr(fredet.spectra, "hessenberg_logdet",
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
    reduce = fredet.determinants.hessenberg
    monkeypatch.setattr(fredet.determinants, "hessenberg", lambda m: calls.append(1) or reduce(m))
    op = assemble_nystrom(registry("green"), gauss_legendre(64, 0.0, 1.0))
    first = locate_eigs(op, 1, 50.0, 49.0)
    second = locate_eigs(op.matrix, 1, 50.0, 49.0)
    assert len(calls) == 2  # one reduction per call, operator or raw matrix
    assert len(first) == 3
    assert [e.z_root for e in first] == [e.z_root for e in second]
    # a PreparedDet is searched on its own reduction, on either sign
    prep = prepare(op, 2)
    assert [e.z_root for e in locate_eigs(prep, 1, 50.0, 49.0)] == [e.z_root for e in first]
    assert len(locate_eigs(prep, 2, -50.0, 49.0, sign=1)) == 3
    assert len(calls) == 3


def test_step_is_scale_free_where_the_residual_is_not():
    # the nine zeros of det_3 on abs_pow in |z| < 1.5 are all accurate, but
    # |det_3| grows along the axis, so their residuals run over eleven decades;
    # the last polish step, relative to |z|, is small for every one of them
    op = assemble_singular(registry("abs_pow"), 64)
    ests = locate_eigs(op, 3, 0.0, 1.5)
    expect = 1.0 / np.linalg.eigvals(op.matrix)
    assert len(ests) == 9
    for e in ests:
        assert np.min(np.abs(expect - e.z_root)) <= 1e-13 * abs(e.z_root)
        assert 0.0 <= e.step <= 1e-12
    residuals = [e.residual for e in ests]
    assert min(residuals) < 1e-15 and max(residuals) > 1e-5


def test_cluster_step_is_the_largest_of_its_members(monkeypatch):
    # _aberth polishes w = sign * z and returns each zero's relative last step
    polished = []
    aberth = fredet.spectra._aberth
    monkeypatch.setattr(fredet.spectra, "_aberth",
                        lambda k, w: polished.append(aberth(k, w)) or polished[-1])
    ests = locate_eigs(np.diag([0.5, 0.5, 0.25]), 1, 0.0, 5.0)
    assert [e.mult_estimate for e in ests] == [2, 1]
    (zeros, rel), = polished
    double = np.abs(zeros + 2.0) < 1e-3  # z = 2 is w = -2 at the default sign = -1
    assert ests[0].step == rel[double].max()
    assert ests[1].step == rel[~double].max()
    assert all(0.0 <= e.step <= 1e-12 for e in ests)


def test_search_makes_no_matrix_sized_copies():
    # K and H are read as prepared: besides I + wK and its inverse in the polish,
    # no N x N array is made, neither a signed copy of K or H, nor an identity,
    # nor a complex copy of the real K
    n = 256
    prep = prepare(assemble_nystrom(registry("green"), gauss_legendre(n, 0.0, 1.0)), 1)
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
    assert abs(fit.intercept - np.log(3.0)) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_order_validation():
    with pytest.raises(ValueError):
        fit_order([10, 20, 40], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        fit_order([10, 20, 40, 80], [1.0, 0.5, 0.25, 0.0])
    with pytest.raises(ValueError):
        fit_order([10, 20], [1.0, 0.5, 0.2, 0.1])
