import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredet.linalg
from fredet.determinants import det_p
from fredet.discretize import assemble_ncc, assemble_nystrom, assemble_singular
from fredet.kernels import registry
from fredet.linalg import (MAX_DIM, as_complex_matrix, eigenvalues, hessenberg,
                           hessenberg_logdet, trace_powers)
from fredet.quadrature import gauss_legendre, rectangle


def test_as_complex_matrix_coerces_nested_lists():
    # a real input becomes float64, a complex one complex128: the dtype decides
    m = as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)
    assert m[1, 0] == 3.0
    c = as_complex_matrix([[1, 2j], [3, 4]])
    assert c.dtype == np.complex128
    assert c[0, 1] == 2j


def test_as_complex_matrix_keeps_a_complex_matrix_complex():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(5, 5)) + 1e-3j * rng.normal(size=(5, 5))
    m = as_complex_matrix(a)
    assert m.dtype == np.complex128
    assert np.array_equal(m, a)
    # the dtype decides, not the values: zero imaginary parts stay complex128
    assert as_complex_matrix(a.real.astype(np.complex128)).dtype == np.complex128
    assert hessenberg(a.real.astype(np.complex128)).dtype == np.complex128
    assert hessenberg(a.real).dtype == np.float64
    # a contiguous matrix of the right dtype is validated, not copied
    r = np.ascontiguousarray(a.real)
    assert as_complex_matrix(r) is r


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


@pytest.mark.parametrize("jmax", [1, 2, 3, 5])
def test_trace_powers_match_repeated_products(jmax):
    # the last trace comes from an elementwise product with A^T, not from A^jmax
    rng = np.random.default_rng(12)
    a = (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))) / np.sqrt(80.0)
    t = trace_powers(a, jmax)
    assert t.shape == (jmax,)
    p = np.eye(40, dtype=np.complex128)
    for j in range(1, jmax + 1):
        p = p @ a
        assert abs(t[j - 1] - np.trace(p)) <= 1e-13 * max(1.0, abs(np.trace(p)))


def _trace_power_cases():
    """A random complex matrix of spectral radius about 1, and built-in kernels."""
    rng = np.random.default_rng(13)
    yield "random", (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) / np.sqrt(128.0)
    yield "green-ngl", assemble_nystrom(registry("green"), gauss_legendre(48, 0.0, 1.0)).matrix
    yield "bernoulli-ncc", assemble_ncc(registry("bernoulli"), 40).matrix
    yield "sign-rect", assemble_nystrom(registry("sign"), rectangle(64, -1.0, 1.0),
                                        zero_diag=True).matrix
    yield "abs_pow-singular", assemble_singular(registry("abs_pow"), 32).matrix


@pytest.mark.parametrize("jmax", [1, 2, 3, 4, 5, 16, 17, 64, 65])
def test_trace_powers_match_products_and_eigenvalue_sums(jmax):
    # baby-step/giant-step traces against one product per power and against
    # sum(lam^j), each to 1e-12 of sum(|lam|^j)
    for name, a in _trace_power_cases():
        t = trace_powers(a, jmax)
        assert t.shape == (jmax,)
        lam = eigenvalues(a)
        p = np.eye(a.shape[0], dtype=np.complex128)
        for j in range(1, jmax + 1):
            p = p @ a
            scale = np.sum(np.abs(lam) ** j)
            assert abs(t[j - 1] - np.trace(p)) <= 1e-12 * scale, (name, j)
            assert abs(t[j - 1] - np.sum(lam**j)) <= 1e-12 * scale, (name, j)


def test_trace_powers_up_to_three_keep_their_expression():
    # jmax <= 3 (every p <= 4 trace correction of det_p) stays bit for bit
    for _, a in _trace_power_cases():
        m = as_complex_matrix(a)
        square = m @ m
        want = {1: [np.trace(m)], 2: [np.trace(m), np.sum(m * m.T)],
                3: [np.trace(m), np.trace(square), np.sum(square * m.T)]}
        for jmax, w in want.items():
            assert np.array_equal(trace_powers(m, jmax), np.array(w, dtype=np.complex128))


def test_trace_powers_of_tiny_and_nilpotent_matrices():
    assert np.array_equal(trace_powers([[0.5]], 20), 0.5 ** np.arange(1, 21))
    shift = np.eye(9, k=1)  # nilpotent: every power trace is zero
    assert np.array_equal(trace_powers(shift, 40), np.zeros(40))


def test_trace_powers_working_set_stays_within_the_baby_step_cap():
    # jmax = 400 would take s = 20 baby steps uncapped; the cap keeps the
    # working set near (s + 2) N^2 complex entries, s = _TRACE_BABY_STEPS
    n = 64
    m = as_complex_matrix(_random_matrix(n, 5, True))
    tracemalloc.start()
    try:
        fredet.linalg._trace_powers(m, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (fredet.linalg._TRACE_BABY_STEPS + 4) * n * n * 16


def test_real_trace_powers_stay_real():
    # a real matrix keeps its baby and giant powers, and its traces, in float64
    n = 64
    m = as_complex_matrix(_random_matrix(n, 5, False))
    tracemalloc.start()
    try:
        t = fredet.linalg._trace_powers(m, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.dtype == np.float64
    assert peak <= (fredet.linalg._TRACE_BABY_STEPS + 4) * n * n * 8
    c = trace_powers(m.astype(np.complex128), 400)
    assert np.all(np.abs(t - c) <= 1e-12 * np.abs(c).max())


def _real_eigenvalue_cases():
    yield "random", np.random.default_rng(22).normal(size=(64, 64)) / 8.0
    yield "green-ncc", assemble_ncc(registry("green"), 40).matrix
    yield "sign-rect", assemble_nystrom(registry("sign"), rectangle(64, -1.0, 1.0),
                                        zero_diag=True).matrix
    yield "abs_pow-singular", assemble_singular(registry("abs_pow"), 32).matrix


def test_real_eigenvalues_come_in_exact_conjugate_pairs():
    # a real matrix takes the real solver: its non-real eigenvalues pair up bit for
    # bit, and the spectrum matches the complex solver's to 1e-12 of its radius
    for name, a in _real_eigenvalue_cases():
        assert a.dtype == np.float64
        lam = eigenvalues(a)
        assert lam.dtype == np.complex128
        assert np.array_equal(np.sort_complex(lam), np.sort_complex(lam.conj())), name
        ref = eigenvalues(a.astype(np.complex128))
        gap = np.abs(lam[:, None] - ref[None, :])
        tol = 1e-12 * np.abs(ref).max()
        assert gap.min(axis=1).max() <= tol and gap.min(axis=0).max() <= tol, name


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


def _random_matrix(n, seed, cplx):
    rng = np.random.default_rng(seed)
    if cplx:
        return (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / (4.0 * np.sqrt(n))
    return rng.normal(size=(n, n)) / (2.0 * np.sqrt(n))


# real or complex matrices of spectral norm about 1: for |z| <= 1/2 the matrix
# I + zA is well conditioned, so two LU routes agree to rounding
_MATRICES = st.builds(_random_matrix, st.sampled_from([1, 2, 3, 17, 64]),
                      st.integers(0, 2**32 - 1), st.booleans())
_REAL_MATRICES = st.builds(_random_matrix, st.sampled_from([1, 2, 3, 17, 64]),
                           st.integers(0, 2**32 - 1), st.just(False))
_HALF_DISC = st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                       st.floats(0.0, 0.5), st.floats(0.0, 1.0))
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _assert_logdet_matches(got, m):
    """got is log det(m) on some branch: modulus and phase agree with slogdet to 1e-12."""
    sign, logabs = np.linalg.slogdet(m)
    if sign == 0:
        assert got.real == -np.inf
        return
    assert abs(got.real - logabs) <= 1e-12 * max(1.0, abs(logabs))
    assert abs(np.exp(1j * got.imag) - sign) <= 1e-12


@_PROPERTY
@given(a=_MATRICES)
def test_hessenberg_is_hessenberg_and_similar(a):
    h = hessenberg(a)
    assert h.shape == a.shape
    assert np.isrealobj(h) == np.isrealobj(a)
    assert not np.tril(h, -2).any()
    fro = np.linalg.norm(a)
    assert abs(np.trace(h) - np.trace(a)) <= 1e-12 * fro
    assert abs(np.linalg.norm(h) - fro) <= 1e-12 * fro


@_PROPERTY
@given(a=_MATRICES, z=_HALF_DISC)
def test_hessenberg_logdet_matches_slogdet(a, z):
    n = a.shape[0]
    h = hessenberg(a)
    at_zero, at_z = hessenberg_logdet(h, [0.0, z])
    assert at_zero == 0.0
    _assert_logdet_matches(at_z, np.eye(n) + z * a)
    # a last row of I - H/2 that is exactly zero: still Hessenberg, exactly singular
    h[-1] = 0.0
    h[-1, -1] = 2.0
    singular, = hessenberg_logdet(h, [-0.5])
    assert singular.real == -np.inf
    _assert_logdet_matches(singular, np.eye(n) - 0.5 * h)


def test_hessenberg_logdet_zero_pivot_and_swap():
    # an upper triangular matrix is already Hessenberg; I - H/2 has a zero pivot
    # at step 1 with a zero below it, so the determinant is exactly zero
    a = np.triu(np.random.default_rng(4).normal(size=(5, 5)))
    a[1, 1] = 2.0
    h = hessenberg(a)
    assert np.array_equal(h, a)
    assert hessenberg_logdet(h, [-0.5])[0].real == -np.inf
    # I + H = [[0, 1], [1, 0]] needs the row swap: det = -1
    got, = hessenberg_logdet(np.array([[-1.0, 1.0], [1.0, -1.0]]), [1.0])
    assert abs(got.real) <= 1e-15
    assert abs(np.exp(1j * got.imag) + 1.0) <= 1e-15


@_PROPERTY
@given(a=_REAL_MATRICES, z=_HALF_DISC)
def test_real_hessenberg_logdet_matches_its_complex_copy(a, z):
    # a real H is eliminated in real arithmetic, a complex one in complex
    # arithmetic: the determinants agree to rounding
    h = hessenberg(a)
    assert h.dtype == np.float64
    zs = np.array([0.0, z, np.conj(z), -z, 0.5j, -0.5])
    real, cplx = hessenberg_logdet(h, zs), hessenberg_logdet(h.astype(complex), zs)
    assert np.all(np.abs(np.exp(real) - np.exp(cplx)) <= 1e-13 * np.abs(np.exp(cplx)))
    # the exactly singular last row of test_hessenberg_logdet_matches_slogdet
    h[-1] = 0.0
    h[-1, -1] = 2.0
    for hh in (h, h.astype(complex)):
        singular, = hessenberg_logdet(hh, [-0.5])
        assert singular.real == -np.inf


class _ProductDtypes:
    """Stands for numpy in fredet.linalg and records the operand dtypes of its
    matrix products."""

    def __init__(self):
        self.seen = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def _record(self, fn, a, b, **kw):
        self.seen.add((np.asarray(a).dtype, np.asarray(b).dtype))
        return fn(a, b, **kw)

    def dot(self, a, b, **kw):
        return self._record(np.dot, a, b, **kw)

    def matmul(self, a, b, **kw):
        return self._record(np.matmul, a, b, **kw)


def test_real_hessenberg_products_run_in_real_arithmetic(monkeypatch):
    # the real branch multiplies float64 by float64: no row of H is upcast
    h = hessenberg(_random_matrix(40, 3, False))
    zs = np.exp(2j * np.pi * np.arange(32) / 32)
    want = hessenberg_logdet(h.astype(complex), zs)
    seen = {}
    for kind, hh in (("real", h), ("complex", h.astype(complex))):
        rec = _ProductDtypes()
        monkeypatch.setattr(fredet.linalg, "np", rec)
        got = hessenberg_logdet(hh, zs)
        monkeypatch.undo()
        seen[kind] = rec.seen
        assert np.all(np.abs(np.exp(got) - np.exp(want)) <= 1e-13 * np.abs(np.exp(want)))
    f8, c16 = np.dtype(np.float64), np.dtype(np.complex128)
    assert seen["real"] == {(f8, f8)}
    assert seen["complex"] == {(c16, c16)}


def test_hessenberg_logdet_of_triangular_matrix_over_several_blocks():
    # every subdiagonal entry is zero, so each step rescales the rows before it
    # by exactly zero; the determinant is still the product of 1 + z h_kk
    n = 5 * fredet.linalg._LOGDET_STEPS + 3
    a = np.triu(np.random.default_rng(8).normal(size=(n, n))) / 4.0
    zs = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    for h in (a, a.astype(complex)):
        got = hessenberg_logdet(h, zs)
        want = np.prod(1.0 + np.multiply.outer(zs, np.diagonal(a)), axis=1)
        assert np.all(np.abs(np.exp(got) - want) <= 1e-13 * np.abs(want))
    # a zero pivot in the third block with nothing below it: exactly singular
    a[2 * fredet.linalg._LOGDET_STEPS + 1, 2 * fredet.linalg._LOGDET_STEPS + 1] = 2.0
    assert hessenberg_logdet(a, [-0.5])[0].real == -np.inf
