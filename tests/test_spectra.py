import numpy as np
import pytest

from fredet.spectra import (_HEX, MAX_DISC_ROOTS, OrderFit, RefinementError,
                            ZeroOnContourError, count_zeros, fit_order, locate_eigs,
                            refine_zero)


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
    # a zero 1e-9 inside the circle: |f| stays above the guard, but the
    # Fourier tail cannot decay within MAX_CONTOUR_SAMPLES
    with pytest.raises(RefinementError):
        count_zeros(lambda z: z - (1.0 - 1e-9), 0.0, 1.0)


def test_count_zeros_validation():
    f = lambda z: z
    with pytest.raises(ValueError):
        count_zeros(f, 0.0, -1.0)
    with pytest.raises(ValueError):
        count_zeros(f, 0.0, 1.0, samples=32)


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


def test_locate_eigs_splits_crowded_disc():
    # 12 of 14 roots z = 1..14 lie in the disc, more than one disc resolves,
    # so the search splits; each root is reported exactly once
    lam = 1.0 / np.arange(1.0, 15.0)
    assert count_zeros(lambda z: np.prod(1.0 - z * lam), 6.5, 6.0) == 12 > MAX_DISC_ROOTS
    ests = locate_eigs(np.diag(lam), 1, 6.5, 6.0)
    roots = sorted(e.z_root.real for e in ests)
    assert len(roots) == 12
    assert np.allclose(roots, np.arange(1.0, 13.0), rtol=1e-12, atol=0.0)
    assert all(e.mult_estimate == 1 for e in ests)
    assert max(abs(e.z_root.imag) for e in ests) < 1e-12


def test_locate_eigs_ninefold_root_is_one_estimate():
    # splitting cannot separate coincident roots; below MIN_SPLIT_RADIUS the
    # disc takes all nine from its moments and the polish clusters them
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(12, 12)))
    a = q @ np.diag([0.5] * 9 + [0.3, 0.2, 0.1]) @ q.T
    ests = locate_eigs(a, 1, 2.0, 1.0)
    assert len(ests) == 1
    assert ests[0].mult_estimate == 9
    assert abs(ests[0].z_root - 2.0) < 1e-6


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
    assert abs(ests[0].z_root - 2.0) < 1e-8


def test_locate_eigs_empty_region():
    assert locate_eigs(np.diag([0.5]), 1, 10.0, 3.0) == []


def test_locate_eigs_validation():
    with pytest.raises(ValueError):
        locate_eigs(np.eye(2), 1, 0.0, -1.0)
    with pytest.raises(ValueError):
        locate_eigs(np.eye(2), 1, 0.0, 1.0, sign=2)


def test_hex_covering_geometry():
    # center disc plus six offset discs of half radius cover the unit disc
    centers = np.concatenate(([0.0 + 0.0j], _HEX))
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    for r in (1.0, 0.9, 0.6):
        pts = r * np.exp(1j * theta)
        dist = np.min(np.abs(pts[:, None] - centers[None, :]), axis=1)
        assert dist.max() <= 0.5 + 1e-12


def test_fit_order_recovers_exact_power_law():
    ns = np.array([10, 20, 40, 80, 160])
    errs = 3.0 * ns.astype(float) ** -2.0
    fit = fit_order(ns, errs)
    assert isinstance(fit, OrderFit)
    assert abs(fit.slope - (-2.0)) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12
    assert len(fit.points) == 5


def test_fit_order_validation():
    with pytest.raises(ValueError):
        fit_order([10, 20, 40], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        fit_order([10, 20, 40, 80], [1.0, 0.5, 0.25, 0.0])
    with pytest.raises(ValueError):
        fit_order([10, 20], [1.0, 0.5, 0.2, 0.1])
