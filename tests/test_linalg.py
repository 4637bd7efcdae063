import numpy as np
import pytest

from fredet.determinants import det_p
from fredet.linalg import (MAX_DIM, DetOverflowError, as_complex_matrix, eigenvalues,
                           trace_powers)


def test_as_complex_matrix_coerces_nested_lists():
    m = as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    assert m[1, 0] == 3 + 0j


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError, match="square"):
        as_complex_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        as_complex_matrix(np.ones(4))
    with pytest.raises(ValueError):
        as_complex_matrix(np.ones((0, 0)))


def test_as_complex_matrix_rejects_oversized():
    big = np.zeros((MAX_DIM + 1, MAX_DIM + 1))
    with pytest.raises(ValueError, match="MAX_DIM"):
        as_complex_matrix(big)


def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix([[np.inf]])


def test_det_shifted_at_zero_is_exactly_one():
    v = det_p(np.random.default_rng(0).normal(size=(5, 5)), 1, 0.0).value
    assert v == 1.0 + 0.0j


def test_det_shifted_diagonal_product():
    d = np.array([0.5, -0.3, 2.0, 0.0])
    z = 0.7 - 0.2j
    expect = np.prod(1.0 + z * d)
    assert abs(det_p(np.diag(d), 1, z).value - expect) < 1e-14 * abs(expect)


def test_det_shifted_singular_matrix_returns_zero():
    # I + 1*(-I) is the zero matrix
    assert det_p(-np.eye(3), 1, 1.0).value == 0.0 + 0.0j


def test_det_shifted_overflow_raises():
    # (1 + 20)^300 ~ exp(913), past the double range
    with pytest.raises(DetOverflowError):
        det_p(20.0 * np.eye(300), 1, 1.0)


def test_trace_powers_small_matrix():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = trace_powers(a, 3)
    assert abs(t[0] - 5.0) < 1e-15
    assert abs(t[1] - np.trace(a @ a)) < 1e-13
    assert abs(t[2] - np.trace(a @ a @ a)) < 1e-12


def test_trace_powers_match_eigenvalue_sums():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    lam = eigenvalues(a)
    t = trace_powers(a, 5)
    for j in range(1, 6):
        assert abs(t[j - 1] - np.sum(lam**j)) < 1e-10 * max(1.0, abs(t[j - 1]))


def test_trace_powers_rejects_bad_jmax():
    with pytest.raises(ValueError):
        trace_powers(np.eye(2), 0)


def test_eigenvalues_sorted_by_modulus():
    lam = eigenvalues(np.diag([0.1, -3.0, 2.0, 0.5]))
    assert np.all(np.diff(np.abs(lam)) <= 1e-14)
    assert abs(lam[0] - (-3.0)) < 1e-14


def test_eigenvalue_product_reproduces_determinant():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) / 3.0
    z = 1.3 + 0.4j
    lam = eigenvalues(a)
    expect = np.prod(1.0 + z * lam)
    assert abs(det_p(a, 1, z).value - expect) < 1e-12 * abs(expect)
