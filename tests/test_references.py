import numpy as np

from fredet.references import (REFERENCES, _abs_pow_eigs, det_bernoulli, det_green,
                               det_iter2_p2, det_sign_p2)


def test_green_reference_matches_closed_form():
    assert abs(det_green(1.0) - np.sin(1.0)) < 1e-14
    assert abs(det_green(np.pi**2)) < 1e-14
    # negative axis: sin(i a)/(i a) = sinh(a)/a
    assert abs(det_green(-4.0) - np.sinh(2.0) / 2.0) < 1e-13
    z = 2.0 + 1.5j
    s = np.sqrt(z)
    assert abs(det_green(z) - np.sin(s) / s) < 1e-13
    assert abs(det_green(0.0) - 1.0) < 1e-15


def test_bernoulli_reference_matches_closed_form():
    assert abs(det_bernoulli(1.0) - (2.0 - 2.0 * np.cos(1.0))) < 1e-14
    assert abs(det_bernoulli(4.0 * np.pi**2)) < 1e-14
    z = -3.0 + 0.7j
    s = np.sqrt(z)
    assert abs(det_bernoulli(z) - (2.0 - 2.0 * np.cos(s)) / z) < 1e-13
    # stable near the origin where the closed form cancels
    z = 1e-8
    assert abs(det_bernoulli(z) - (1.0 - z / 12.0)) < 1e-12


def test_sign_reference():
    for z in (0.0, 1.0, -0.5, 0.3 + 0.4j):
        assert abs(det_sign_p2(z) - np.cosh(2.0 * z)) < 1e-15


def test_iter2_reference_frozen_value_and_grid_drift():
    # frozen from the same eigen-product at the default reference size
    assert abs(det_iter2_p2(0.01) - 0.987758139338767) < 1e-6
    drift = abs(det_iter2_p2(0.01, n_ref=256) - det_iter2_p2(0.01, n_ref=512))
    assert drift < 5e-6


def test_iter2_reference_cache_is_consistent():
    a = det_iter2_p2(0.02)
    b = det_iter2_p2(0.02)
    assert a == b


def test_iter2_reference_eigenvalues_are_cached_read_only():
    lam = _abs_pow_eigs(16)
    assert _abs_pow_eigs(16) is lam
    assert not lam.flags.writeable


def test_reference_registry_shape():
    assert set(REFERENCES) == {"green", "bernoulli", "sign", "abs_pow_iter2"}
    assert REFERENCES["green"][1] == 1
    assert REFERENCES["bernoulli"][1] == 1
    assert REFERENCES["sign"][1] == 2
    assert REFERENCES["abs_pow_iter2"][1] == 2
    for fn, _ in REFERENCES.values():
        assert callable(fn)
