import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredet.linalg
from fredet.determinants import det_p, prepare
from fredet.discretize import assemble_ncc, assemble_nystrom, assemble_singular
from fredet.kernels import registry
from fredet.linalg import (MAX_DIM, _tridiagonalize, as_complex_matrix, eigenvalues,
                           hessenberg, hessenberg_logdet, trace_powers)
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


def test_zero_trace_powers_are_empty():
    # p = 1 reads no trace: the private helper gives the empty array of the matrix's dtype
    for m in (np.eye(3), np.eye(3, dtype=np.complex128)):
        t = fredet.linalg._trace_powers(m, 0)
        assert t.shape == (0,) and t.dtype == m.dtype


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


def _sparse_matrix(n, density, seed, cplx):
    """_random_matrix with all but about a fraction density of its entries exactly zero,
    so that some columns reach the Hessenberg reduction already reduced."""
    a = _random_matrix(n, seed, cplx)
    a[np.random.default_rng(seed + 1).uniform(size=(n, n)) >= density] = 0.0
    return a


# an already-reduced column after a reflector comes up in about 1 of 100 of these
_SPARSE_MATRICES = st.builds(_sparse_matrix, st.integers(4, 7),
                             st.sampled_from([0.15, 0.25, 0.35]),
                             st.integers(0, 2**32 - 2), st.booleans())
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


def _assert_hessenberg_det_matches(a, h):
    """det(I + zH) equals det(I + zA) to 1e-12 relative at a few z: H is similar to A,
    which trace and Frobenius norm alone do not show."""
    n = a.shape[0]
    for z in (0.5, -1.3, 0.7 + 0.9j):
        want = np.linalg.det(np.eye(n) + z * a)
        got = np.linalg.det(np.eye(n) + z * h)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (z, got, want)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(a=_SPARSE_MATRICES)
def test_hessenberg_of_a_sparse_matrix_keeps_its_determinant(a):
    # exact zeros make some columns already reduced, which skips their reflector;
    # such a column is rare enough to need many examples
    h = hessenberg(a)
    assert not np.tril(h, -2).any()
    _assert_hessenberg_det_matches(a, h)


def test_hessenberg_after_an_already_reduced_column():
    # nilpotent: det(I + zA) = 1.  Column 0 is reduced by a reflector, column 1 is
    # then already reduced, and column 2's reflector must not read the one before
    a = np.zeros((5, 5))
    a[1, 3] = a[2, 0] = a[4, 1] = 1.0
    h = hessenberg(a)
    _assert_hessenberg_det_matches(a, h)
    assert det_p(a, 1, 0.5).value == 1.0
    assert prepare(a).values(1, [0.5])[0] == 1.0


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


def _tridiagonal(n, seed, kind):
    """An n x n tridiagonal matrix of one of four kinds: real symmetric, real skew,
    real general or complex general."""
    rng = np.random.default_rng(seed)
    diag, sup, sub = rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n - 1)
    if kind == "symmetric":
        sub = sup
    elif kind == "skew":
        diag, sub = 0.0 * diag, -sup
    elif kind == "complex":
        diag = diag + 1j * rng.normal(size=n)
        sup = sup + 1j * rng.normal(size=n - 1)
        sub = sub + 1j * rng.normal(size=n - 1)
    return (np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)) / 2.0


def _bands(t):
    """The tuple (diag, sup, sub) of the three diagonals of a tridiagonal matrix t, the
    form hessenberg_logdet eliminates in O(N) per z."""
    return tuple(np.diagonal(t, k).copy() for k in (0, 1, -1))


def _dense(t):
    """The tridiagonal matrix whose three diagonals are the tuple t = (diag, sup, sub)."""
    diag, sup, sub = t
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


_TRIDIAGONALS = st.builds(_tridiagonal, st.sampled_from([1, 2, 3, 9, 40, 300]),
                          st.integers(0, 2**32 - 1),
                          st.sampled_from(["symmetric", "skew", "general", "complex"]))
# on the real and the imaginary axis, and off both
_AXES_AND_OFF = st.one_of(st.floats(-0.9, 0.9).map(complex),
                          st.floats(-0.9, 0.9).map(lambda y: 1j * y), _HALF_DISC)


@_PROPERTY
@given(t=_TRIDIAGONALS, z=_AXES_AND_OFF)
def test_tridiagonal_logdet_matches_slogdet_and_the_hessenberg_elimination(t, z):
    # hessenberg_logdet takes the O(N) elimination for every tridiagonal H given as its
    # diagonals; it agrees with LAPACK's LU and with the pivoted O(N^2) elimination of
    # the same H given as a matrix
    n = t.shape[0]
    got, = hessenberg_logdet(_bands(t), [z])
    _assert_logdet_matches(got, np.eye(n) + z * t)
    hess, = hessenberg_logdet(t, [z])
    assert abs(got.real - hess.real) <= 1e-12 * max(1.0, abs(hess.real))
    assert abs(np.exp(1j * (got.imag - hess.imag)) - 1.0) <= 1e-12


def test_hessenberg_logdet_picks_the_elimination_by_the_form_s_type(monkeypatch):
    seen = []
    for name in ("_tridiagonal_logdet_block", "_hessenberg_logdet_block"):
        block = getattr(fredet.linalg, name)
        monkeypatch.setattr(fredet.linalg, name,
                            lambda h, z, name=name, block=block: seen.append(name) or block(h, z))
    # a 3-tuple of diagonals takes the O(N) elimination; a 2-D array the full one, even
    # a tridiagonal array, whose structure is never read from it
    t = _tridiagonal(6, 1, "symmetric")
    got = [hessenberg_logdet(h, [0.5]) for h in (_bands(t), t, t.tolist())]
    assert seen == ["_tridiagonal_logdet_block"] + 2 * ["_hessenberg_logdet_block"]
    assert abs(np.exp(got[0] - got[1]) - 1.0) <= 1e-14 and got[1] == got[2]
    # prepare reads the structure once from the reduced form and keeps a tridiagonal one
    # as its diagonals: one entry above the band, however small, keeps the full form
    bands = prepare(t).hess
    assert isinstance(bands, tuple)
    assert all(np.array_equal(b, want) for b, want in zip(bands, _bands(hessenberg(t))))
    t[0, 2] = 1e-300
    assert isinstance(prepare(t).hess, np.ndarray)


def test_tridiagonal_logdet_through_a_vanishing_leading_minor():
    # at z = 1 the leading 2 x 2 minor of I + T is exactly zero, the determinant is not:
    # the second pivot is 0, and the next row's quotient would divide by it
    t = np.diag([1.0, -0.875, 2.0, 3.0]) + np.diag([0.5, 0.7, 0.2], 1) + np.diag([0.5, 0.7, 0.2], -1)
    i_t = np.eye(4) + t
    assert np.linalg.det(i_t[:2, :2]) == 0.0
    for h in (t, t.astype(complex)):
        got, = hessenberg_logdet(_bands(h), [1.0])
        assert np.isfinite(got)
        _assert_logdet_matches(got, i_t)
    # a zero first pivot: I + H = [[0, 1], [1, 0]], det = -1
    got, = hessenberg_logdet(_bands(np.array([[-1.0, 1.0], [1.0, -1.0]])), [1.0])
    assert abs(got.real) <= 1e-15 and abs(np.exp(1j * got.imag) + 1.0) <= 1e-15
    # a first pivot 2^-52, past which the quotient 1e300 / 2^-52 would overflow:
    # det = 2^-52 - 1e300
    got, = hessenberg_logdet(_bands(np.array([[-1.0 + 2.0**-52, 1e150], [1e150, 0.0]])), [1.0])
    assert abs(got.real - np.log(1e300)) <= 1e-15 * np.log(1e300)
    assert abs(np.exp(1j * got.imag) + 1.0) <= 1e-15


def test_tridiagonal_logdet_of_an_exactly_singular_matrix_is_minus_inf():
    # the same matrix split after its vanishing leading minor: det = 0 exactly
    t = np.diag([1.0, -0.875, 2.0, 3.0]) + np.diag([0.5, 0.0, 0.2], 1) + np.diag([0.5, 0.7, 0.2], -1)
    assert np.linalg.slogdet(np.eye(4) + t)[0] == 0.0
    # and a zero last pivot, as in test_hessenberg_logdet_matches_slogdet
    last = _tridiagonal(9, 3, "symmetric")
    last[-1, -2] = 0.0
    last[-1, -1] = 2.0
    for h in (t, t.astype(complex)):
        assert hessenberg_logdet(_bands(h), [1.0])[0] == complex(-np.inf)
    got = hessenberg_logdet(_bands(last), [-0.5, 0.25])
    assert got[0] == complex(-np.inf) and np.isfinite(got[1])


# n, diagonal, coupling and the z of each case: pivots near 1e20 whose product
# overflows, pivots near 2^-48 whose product is subnormal, about 1e-318, or
# underflows to zero, and a second pivot 1 - z^2 / 4 that is exactly zero
_PAST_THE_PRODUCT_RANGE = {
    "overflow": (16, 1e20, 1.0, [2.0, 2.0 + 1e-4j]),
    "subnormal": (22, -0.5 + 2.0**-49, 1e-40, [2.0, 2.0 + 1e-15j]),
    "underflow": (23, -0.5 + 2.0**-49, 1e-40, [2.0, 2.0 + 1e-15j]),
    "zero": (2, 0.0, 0.5, [2.0, -2.0]),
}


@pytest.mark.parametrize("kind", sorted(_PAST_THE_PRODUCT_RANGE))
def test_tridiagonal_logdet_past_the_product_range_matches_slogdet(kind):
    # each z takes one log of its pivots' product; a product that overflows, is
    # subnormal or is zero takes the sum of the pivots' logs instead, -inf for zero
    n, diag, coupling, zs = _PAST_THE_PRODUCT_RANGE[kind]
    t = np.diag(np.full(n, diag)) + coupling * (np.eye(n, k=1) + np.eye(n, k=-1))
    zs = np.array(zs)
    with np.errstate(all="ignore"):
        mag = np.abs(np.prod(fredet.linalg._tridiagonal_pivots(_bands(t), zs, guarded=False),
                             axis=0))
    assert {"overflow": np.all(mag == np.inf),
            "subnormal": np.all((0.0 < mag) & (mag < np.finfo(float).tiny))}.get(kind, np.all(mag == 0.0))
    for z, got in zip(zs, hessenberg_logdet(_bands(t), zs)):
        sign, logabs = np.linalg.slogdet(np.eye(n) + z * t)
        if kind == "zero":
            assert sign == 0.0 and got == complex(-np.inf)
        else:
            assert abs(np.exp(got - logabs - 1j * np.angle(sign)) - 1.0) <= 1e-12


def _symmetric(n, seed, skew):
    """A random real symmetric (skew False) or skew matrix of spectral norm about 1,
    exactly of its kind."""
    a = _random_matrix(n, seed, False)
    return (a - a.T) / 2.0 if skew else (a + a.T) / 2.0


def _spectrum(a, skew):
    """The eigenvalues of a symmetric a, or of -i a (Hermitian) for a skew one, ascending."""
    return np.linalg.eigvalsh(-1j * a if skew else a)


def _assert_tridiagonal_of_its_kind(t, skew):
    """t is the tuple (diag, sup, sub) of a real tridiagonal form of order n, exactly
    symmetric or skew: sub is sup itself, or -sup bit for bit and a zero diagonal if
    skew."""
    diag, sup, sub = t
    assert diag.dtype == sup.dtype == sub.dtype == np.float64
    assert diag.shape == (sup.size + 1,) and sub.shape == sup.shape
    if skew:
        assert np.array_equal(sub, -sup) and not diag.any()
    else:
        assert sub is sup


_CROSSOVER = fredet.linalg._TRIDIAGONAL_CROSSOVER


def _backward_tol(a):
    """How far the eigenvalues of a tridiagonal form may lie from those of a: 16 eps ||a||_F.

    The computed T is exactly unitarily similar to a + E with ||E||_F a small multiple
    of eps ||a||_F (Golub & Van Loan, Matrix Computations, 4th ed., 2013, section 8.3),
    and eigvalsh adds a backward error of the same kind on a and on T; by Weyl's
    inequality each moves an eigenvalue by at most its norm.  The largest gap seen on
    the cases here is 6.3 eps ||a||_F (n = 255, symmetric, one BLAS thread)."""
    return 16.0 * np.finfo(np.float64).eps * np.linalg.norm(a)


# below the crossover every reflector is taken on its own; from it on, panels of them
@pytest.mark.parametrize("n", [1, 2, 3, 64, _CROSSOVER - 1, _CROSSOVER, 257, 400])
@pytest.mark.parametrize("skew", [False, True], ids=["hermitian-real", "skew-real"])
def test_tridiagonalize_keeps_the_eigenvalues(n, skew):
    a = _symmetric(n, n, skew)
    t = _tridiagonalize(a.copy(), skew)
    _assert_tridiagonal_of_its_kind(t, skew)
    want = _spectrum(a, skew)
    tol = _backward_tol(a)
    assert np.abs(_spectrum(_dense(t), skew) - want).max() <= tol
    # the couplings b of the form give its eigenvalues on their own: a skew T with
    # couplings b, -b is i times the symmetric one with couplings b, zero diagonal
    linalg = pytest.importorskip("scipy.linalg")
    got = linalg.eigh_tridiagonal(t[0], t[1], eigvals_only=True)
    assert np.abs(got - want).max() <= tol


@_PROPERTY
@given(n=st.sampled_from([1, 2, 3, 17, 64]), seed=st.integers(0, 2**32 - 1),
       skew=st.booleans(), z=_HALF_DISC)
def test_tridiagonalize_is_a_similarity_of_its_kind(n, seed, skew, z):
    a = _symmetric(n, seed, skew)
    t = _tridiagonalize(a.copy(), skew)
    _assert_tridiagonal_of_its_kind(t, skew)
    want = _spectrum(a, skew)
    assert np.abs(_spectrum(_dense(t), skew) - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)
    eye = np.eye(n)
    _assert_logdet_matches(hessenberg_logdet(t, [z])[0], eye + z * a)


def _one_at_a_time(monkeypatch, a, skew):
    """_tridiagonalize of a copy of a with no panel, whatever the order of a."""
    with monkeypatch.context() as patch:
        patch.setattr(fredet.linalg, "_TRIDIAGONAL_CROSSOVER", MAX_DIM + 1)
        return _tridiagonalize(a.copy(), skew)


@pytest.mark.parametrize("n", [_CROSSOVER, 400])
@pytest.mark.parametrize("skew", [False, True], ids=["hermitian-real", "skew-real"])
def test_blocked_and_unblocked_forms_have_the_same_determinants(monkeypatch, n, skew):
    # the panels reorder the rounding, so the two forms differ, but det(I + zT) agrees
    # to 1e-13 relative on and off the axes
    a = _symmetric(n, n + 1, skew)
    blocked, unblocked = _tridiagonalize(a.copy(), skew), _one_at_a_time(monkeypatch, a, skew)
    assert not np.array_equal(_dense(blocked), _dense(unblocked))
    zs = np.array([0.4, 0.3j, 0.25 + 0.2j, -0.1 - 0.45j])
    got, want = hessenberg_logdet(blocked, zs), hessenberg_logdet(unblocked, zs)
    assert np.abs(np.exp(got - want) - 1.0).max() <= 1e-13


def test_panels_run_only_from_the_crossover_on(monkeypatch):
    panels = []
    panel = fredet.linalg._tridiagonal_panel

    def spy(m, k0, *rest):
        panels.append((m.shape[0], k0))
        return panel(m, k0, *rest)

    monkeypatch.setattr(fredet.linalg, "_tridiagonal_panel", spy)
    for skew in (False, True):
        _tridiagonalize(_symmetric(_CROSSOVER - 1, 3, skew), skew)
    prepare(assemble_nystrom(registry("green"), gauss_legendre(_CROSSOVER - 1, 0.0, 1.0)))
    assert panels == []
    _tridiagonalize(_symmetric(_CROSSOVER, 3, False), False)
    # panels while the part left has the crossover's order; the rest one at a time
    width = fredet.linalg._TRIDIAGONAL_PANEL
    assert panels == [(_CROSSOVER, 0)]
    panels.clear()
    _tridiagonalize(_symmetric(400, 3, True), True)
    assert panels == [(400, k0) for k0 in range(0, 400 - _CROSSOVER + 1, width)]


def test_tridiagonalize_splits_at_an_exactly_decoupled_block():
    # no coupling between the blocks: the last row of the first block has nothing right
    # of the diagonal once that block is reduced, so its reflector is skipped and must
    # not read the step before.  At order 12 one reflector at a time; at order 300,
    # split after row 19, inside the first panel
    width = fredet.linalg._TRIDIAGONAL_PANEL
    for n, split, kinds in ((12, 5, [False]), (_CROSSOVER + 44, width - 12, [False, True])):
        for skew in kinds:
            a = np.zeros((n, n))
            a[:split, :split] = _symmetric(split, 1, skew)
            a[split:, split:] = _symmetric(n - split, 2, skew)
            t = _tridiagonalize(a.copy(), skew)
            _assert_tridiagonal_of_its_kind(t, skew)
            assert t[1][split - 1] == t[2][split - 1] == 0.0
            for block in (slice(0, split), slice(split, n)):
                want = _spectrum(a[block, block], skew)
                got = _spectrum(_dense(t)[block, block], skew)
                assert np.abs(got - want).max() <= _backward_tol(a[block, block]), (n, skew)
