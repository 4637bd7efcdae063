import math

import numpy as np
import pytest

from fredet.determinants import det_from_eigs
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


# 1e-8 and 0 near the origin, the zeros pi^2 and 4 pi^2, the positive axis where a
# term-by-term series cancels catastrophically, points off it, and the negative axis
# from either side of the cut of sqrt
_ORACLE_ZS = [0.0, 1e-8, 1.0, np.pi**2, 4 * np.pi**2, 40 + 30j, 100.0, 400.0, 1000.0, 1500.0,
              3000.0, 1500 + 200j, -50.0, -400.0, complex(-3.0, -0.0)]


@pytest.mark.parametrize("z", _ORACLE_ZS, ids=str)
def test_green_and_bernoulli_match_a_40_digit_oracle(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        w = mpmath.sqrt(mpmath.mpc(z))
        sinc = lambda v: mpmath.sin(v) / v if v else mpmath.mpf(1)
        exact = {det_green: complex(sinc(w)), det_bernoulli: complex(sinc(w / 2) ** 2)}
    for ref, want in exact.items():
        err = abs(ref(z) - want)
        assert err <= 1e-13 * max(abs(want), 1e-2), (ref.__name__, z, err, want)


def test_green_and_bernoulli_raise_where_they_overflow():
    # sinh(700)/700 is finite, sinh(1400)/1400 is not; (sinh(700)/700)^2 is not either
    assert math.isclose(det_green(-700.0**2).real, math.sinh(700.0) / 700.0, rel_tol=1e-13)
    for ref in (det_green, det_bernoulli):
        with pytest.raises(ValueError, match="not finite"):
            ref(-1400.0**2)
        with pytest.raises(ValueError, match="not finite"):
            ref(complex(0.0, 2e6))


def test_sign_reference():
    for z in (0.0, 1.0, -0.5, 0.3 + 0.4j):
        assert abs(det_sign_p2(z) - np.cosh(2.0 * z)) < 1e-15


def test_iter2_reference_frozen_value_and_grid_drift():
    # frozen from the same eigen-product at its reference size, N = 512
    assert abs(det_iter2_p2(0.01) - 0.987758139338767) < 1e-6
    lam = _abs_pow_eigs(256)
    drift = abs(det_from_eigs(lam * lam, 2, -0.01).value - det_iter2_p2(0.01))
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
