import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fredet.determinants
import fredet.linalg
from fredet.determinants import (_newton_identities, det_from_eigs, det_p, det_series_eval,
                                 identity_residuals, plemelj_coeffs, prepare)
from fredet.discretize import (DiscreteOperator, assemble, assemble_ncc, assemble_nystrom,
                               assemble_singular)
from fredet.kernels import from_config, registry
from fredet.linalg import DetOverflowError, eigenvalues, hessenberg, trace_powers
from fredet.quadrature import gauss_legendre, rectangle
from fredet.spectra import locate_eigs


def test_det_p_at_zero_is_one():
    v = det_p(np.ones((4, 4)), 3, 0.0)
    assert v.value == 1.0 + 0.0j


def test_det_p_rejects_bad_p():
    # a bool is no order, though Python counts True as the integer 1
    for p in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            det_p(np.eye(2), p, 1.0)
        with pytest.raises(ValueError):
            prepare(np.eye(2)).values(p, [0.5])


def test_det_p_diagonal_closed_forms():
    d = np.array([0.4, -0.2, 0.1])
    a = np.diag(d)
    z = 0.8 + 0.3j
    plain = np.prod(1.0 + z * d)
    assert abs(det_p(a, 1, z).value - plain) < 1e-14
    # det_2 = det_1 * exp(-z tr)
    expect2 = plain * np.exp(-z * d.sum())
    assert abs(det_p(a, 2, z).value - expect2) < 1e-13


def test_det_p_order_chain():
    rng = np.random.default_rng(3)
    a = (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))) / 5.0
    z = -0.9 + 1.1j
    nu = trace_powers(a, 4)
    for p in (2, 3, 4):
        lhs = det_p(a, p, z).value
        rhs = det_p(a, p - 1, z).value * np.exp((-z) ** (p - 1) * nu[p - 2] / (p - 1))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)), p


def test_det_p_ratio_p3_over_p2():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5)) / 4.0
    z = 1.7
    nu2 = trace_powers(a, 2)[1]
    ratio = det_p(a, 3, z).value / det_p(a, 2, z).value
    assert abs(ratio - np.exp(z * z * nu2 / 2.0)) < 1e-10


def test_det_p_conjugate_symmetry_for_real_matrices():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(6, 6)) / 3.0
    z = 0.6 + 0.8j
    for p in (1, 2, 3):
        v = det_p(a, p, z).value
        vc = det_p(a, p, np.conj(z)).value
        assert abs(vc - np.conj(v)) < 1e-13 * max(1.0, abs(v))


def test_det_p_overflow():
    with pytest.raises(DetOverflowError):
        det_p(10.0 * np.eye(400), 1, 10.0)


def test_det_p_at_zero_is_exactly_one():
    v = det_p(np.random.default_rng(0).normal(size=(5, 5)), 1, 0.0).value
    assert v == 1.0 + 0.0j


def test_det_p_diagonal_product():
    d = np.array([0.5, -0.3, 2.0, 0.0])
    z = 0.7 - 0.2j
    expect = np.prod(1.0 + z * d)
    assert abs(det_p(np.diag(d), 1, z).value - expect) < 1e-14 * abs(expect)


def test_det_p_singular_matrix_returns_zero():
    # I + 1*(-I) is the zero matrix
    assert det_p(-np.eye(3), 1, 1.0).value == 0.0 + 0.0j


def test_det_p_overflow_raises():
    # (1 + 20)^300 ~ exp(913), past the double range
    with pytest.raises(DetOverflowError):
        det_p(20.0 * np.eye(300), 1, 1.0)
    # 1e10 * 1e308 is inf in I + zK, and the LU of it nan: the refusal is all that
    # surfaces, under the suite's error filter for RuntimeWarning too
    with pytest.raises(DetOverflowError, match="overflowed the double range"):
        det_p([[0.0, 1e308], [0.0, 0.0]], 1, 1e10)
    # the eigenvalue product's correction sums 3^j / j and (-2)^j / j past the range
    with pytest.raises(DetOverflowError, match="overflowed the double range"):
        det_from_eigs([2.0, -3.0], 2000, 1.0)
    with pytest.raises(DetOverflowError, match="out of double range"):
        det_series_eval(plemelj_coeffs(np.diag([0.5, 0.25]), 1, 2), 1e300)
    # K's power traces leave the range long before j = 100000, or 2000
    op = assemble(registry("abs_pow"), "singular", 8)
    for det in (lambda: det_p(op, 100000, 1.0), lambda: prepare(op).values(100000, [1.0]),
                lambda: locate_eigs(op, 100000, 0.0, 1.1)):
        with pytest.raises(DetOverflowError, match="overflowed the double range"):
            det()
    with pytest.raises(DetOverflowError, match="Taylor coefficient"):
        plemelj_coeffs(op, 1, 2000)


def test_large_p_stays_finite():
    # det_2000(I + 2K) = 1 for K = 0.1 I, though (-2)^j alone leaves the double range
    # past j = 1023: the correction is summed by Horner's rule, with no power of z
    k = 0.1 * np.eye(2)
    assert abs(det_p(k, 2000, 2.0).value - 1.0) <= 1e-14
    (v,) = prepare(k).values(2000, [2.0])
    assert abs(v - 1.0) <= 1e-14
    assert abs(det_from_eigs([0.1, 0.1], 2000, 2.0).value - 1.0) <= 1e-14


def test_plemelj_coeffs_are_elementary_symmetric():
    d = np.array([0.5, -0.25, 0.125, 1.0])
    coeffs = plemelj_coeffs(np.diag(d), 1, 6)
    # det(I + zD) = prod(1 + z d_k): coefficients are elementary symmetric polys
    e1 = d.sum()
    e2 = sum(d[i] * d[j] for i in range(4) for j in range(i + 1, 4))
    e3 = sum(d[i] * d[j] * d[k] for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
    e4 = d.prod()
    assert np.allclose(coeffs[:5], [1.0, e1, e2, e3, e4], atol=1e-12)
    assert np.max(np.abs(coeffs[5:])) < 1e-12  # terminates past the dimension
    # complex entries, against prod_j (z + x_j) read backwards
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)
    expected = np.poly(-x)
    coeffs = plemelj_coeffs(np.diag(x), 1, x.size)
    assert np.max(np.abs(coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_plemelj_coeffs_scalar_p2():
    # (1 + zc) exp(-zc) = 1 - c^2 z^2 / 2 + c^3 z^3 / 3 - ...
    c = 0.7
    coeffs = plemelj_coeffs(np.array([[c]]), 2, 3)
    assert abs(coeffs[0] - 1.0) < 1e-15
    assert coeffs[1] == 0.0  # nu_1 suppressed for p = 2
    assert abs(coeffs[2] - (-c * c / 2.0)) < 1e-14
    assert abs(coeffs[3] - (c**3 / 3.0)) < 1e-14


_UNIT_DISC = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(x=st.lists(_UNIT_DISC, min_size=0, max_size=12))
def test_newton_identities_give_the_elementary_symmetric_polynomials(x):
    # prod_j (1 + z x_j) = prod_j (z + x_j) read backwards, whose coefficients
    # np.poly(-x) lists from z^n down
    x = np.array(x, dtype=np.complex128)
    sums = [np.sum(x**k) for k in range(1, x.size + 1)]
    expected = np.poly(-x)
    assert np.max(np.abs(_newton_identities(sums) - expected)) <= 1e-12 * np.max(np.abs(expected))


_NON_FINITE = [complex("nan"), complex("inf"), complex(0.0, float("nan"))]


@pytest.mark.parametrize("z", _NON_FINITE, ids=["nan", "inf", "nanj"])
def test_every_route_refuses_a_non_finite_z(z):
    a = 0.5 * np.diag([1.0, -0.5, 0.25])
    routes = {
        "det_p": lambda: det_p(a, 2, z),
        "values": lambda: prepare(a).values(2, [0.5, z]),
        "logdet": lambda: prepare(a).logdet([0.5, z]),
        "det_series_eval": lambda: det_series_eval(plemelj_coeffs(a, 2, 3), z),
        "det_from_eigs": lambda: det_from_eigs(np.diag(a), 2, z),
        "identity_residuals": lambda: identity_residuals(a, z),
    }
    for name, route in routes.items():
        with pytest.raises(ValueError, match="z must be finite") as err:
            route()
        assert str(err.value).endswith(str(z)), name


def test_plemelj_coeffs_validation():
    with pytest.raises(ValueError):
        plemelj_coeffs(np.eye(2), 1, -1)


def test_det_series_eval_horner():
    value = det_series_eval(np.array([1.0, 2.0, 3.0], dtype=complex), 2.0).value
    assert value == 17.0 + 0.0j and type(value) is complex


def test_det_from_eigs_basics():
    assert det_from_eigs([], 2, 1.0).value == 1.0 + 0.0j
    assert det_from_eigs([0.5], 1, -2.0).value == 0.0 + 0.0j
    v = det_from_eigs([0.5, -0.25], 1, 1.0)
    assert abs(v.value - 1.5 * 0.75) < 1e-14
    with pytest.raises(ValueError):
        det_from_eigs([0.5], 0, 1.0)
    with pytest.raises(DetOverflowError):
        det_from_eigs(np.full(400, 10.0), 1, 10.0)


def test_det_from_eigs_analytic_spectrum_reproduces_cosh():
    # lam = +-4i/((2k+1)pi): det_2(I - zK) = cosh(2z)
    k = np.arange(10000)
    lam = 4j / ((2 * k + 1) * np.pi)
    lam = np.concatenate([lam, -lam])
    v = det_from_eigs(lam, 2, -1.0).value
    assert abs(v - np.cosh(2.0)) < 1e-3


def _identity_residuals_by_det_p(a, z):
    # the identities composed from eight separate det_p calls
    a2 = a @ a
    sq1, sq2 = det_p(a2, 1, -z * z).value, det_p(a2, 2, -z * z).value
    pair = {p: det_p(a, p, -z).value * det_p(a, p, z).value for p in (2, 3, 4)}
    return {name: abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)
            for name, lhs, rhs in (("det1_sq_vs_det2", sq1, pair[2]),
                                   ("det2_sq_vs_det3", sq2, pair[3]),
                                   ("det2_sq_vs_det4", sq2, pair[4]))}


def test_identity_residuals_on_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) / 3.0
        z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        res = identity_residuals(a, z)
        assert set(res) == {"det1_sq_vs_det2", "det2_sq_vs_det3", "det2_sq_vs_det4"}
        assert max(res.values()) < 1e-12
        composed = _identity_residuals_by_det_p(a, z)
        for name, r in res.items():
            assert abs(r - composed[name]) <= 1e-15, name


def test_identity_residuals_factor_each_matrix_once(monkeypatch):
    # I - zA, I + zA and I - z^2 A^2: one slogdet each serves every det_p
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: calls.append(1) or slogdet(m))
    a = np.random.default_rng(5).normal(size=(6, 6)) / 3.0
    identity_residuals(a, 0.4 - 0.9j)
    assert len(calls) == 3


def test_discretization_error_route_independent():
    # on the jump kernel both LU and series routes carry the same O(1/N) error
    spec = registry("sign")
    errs = {}
    for n in (30, 60):
        op = assemble_nystrom(spec, rectangle(n, -1.0, 1.0), zero_diag=True)
        coeffs = plemelj_coeffs(op, 2, n)
        e_lu = abs(det_p(op, 2, -1.0).value - np.cosh(2.0))
        e_se = abs(det_series_eval(coeffs, -1.0).value - np.cosh(2.0))
        assert abs(e_lu - e_se) < 1e-6
        errs[n] = e_lu
    assert errs[60] < errs[30] <= 0.25
    assert errs[60] <= 0.15


def _operator_cases():
    for name, schemes in (("green", ("ngl", "ncc", "rect")),
                          ("bernoulli", ("ngl", "ncc", "rect")),
                          ("sign", ("rect",)),
                          ("abs_pow", ("singular",)),
                          ("abs_pow_iter2", ("rect",))):
        for scheme in schemes:
            yield name, scheme


def _build(name, scheme, n):
    return assemble(registry(name), scheme, n, zero_diag=name in ("sign", "abs_pow_iter2"))


def test_assemble_is_the_direct_builder_bit_for_bit():
    direct = {
        "ngl": lambda spec, n, zd: assemble_nystrom(spec, gauss_legendre(n, *spec.domain),
                                                    zero_diag=zd),
        "rect": lambda spec, n, zd: assemble_nystrom(spec, rectangle(n, *spec.domain),
                                                     zero_diag=zd),
        "ncc": lambda spec, n, zd: assemble_ncc(spec, n),
        "singular": lambda spec, n, zd: assemble_singular(spec, n),
    }
    for name, scheme in _operator_cases():
        spec = registry(name)
        flags = (False, True) if scheme in ("ngl", "rect") else (False,)
        if name == "abs_pow_iter2":
            flags = (True,)  # its log singularity on the diagonal must be dropped
        for zero_diag in flags:
            for n in (2, 9, 32):
                got = assemble(spec, scheme, n, zero_diag=zero_diag)
                want = direct[scheme](spec, n, zero_diag)
                assert np.array_equal(got.matrix, want.matrix), (name, scheme, zero_diag, n)
                assert np.array_equal(got.nodes, want.nodes), (name, scheme, zero_diag, n)


def test_three_routes_agree_on_discretized_operators():
    # LU vs eigenvalue product must agree everywhere; the truncated series is
    # compared only where its own coefficients certify convergence: the tail
    # is negligible, the coefficient sum neither swamps the value (roundoff
    # amplification) nor falls below it (truncation too early).
    zgrid = [complex(re, im) for re in np.linspace(-1, 1, 5) for im in np.linspace(-1, 1, 5)]
    guarded_counts = {}
    for name, scheme in _operator_cases():
        guarded = 0
        for n in (8, 16, 32, 64):
            op = _build(name, scheme, n)
            lam = eigenvalues(op.matrix)
            for p in (1, 2, 3):
                coeffs = plemelj_coeffs(op, p, n + 32)
                mags = np.abs(coeffs)
                for z in zgrid:
                    v_lu = det_p(op, p, z).value
                    v_ei = det_from_eigs(lam, p, z).value
                    scale = max(abs(v_lu), abs(v_ei), 1e-300)
                    assert abs(v_lu - v_ei) / scale < 1e-8, (name, scheme, n, p, z)
                    pows = np.abs(z) ** np.arange(mags.size)
                    kappa = mags @ pows
                    tail = mags[-8:] @ pows[-8:]
                    if (tail <= 1e-10 * abs(v_lu) and kappa <= 1e5 * abs(v_lu)
                            and abs(v_lu) <= 2.0 * kappa):
                        guarded += 1
                        v_se = det_series_eval(coeffs, z).value
                        rel = abs(v_lu - v_se) / max(abs(v_lu), 1e-300)
                        assert rel < 1e-8, (name, scheme, n, p, z)
        guarded_counts[(name, scheme)] = guarded

    # the guard must not be vacuous
    for (name, scheme), count in guarded_counts.items():
        assert count >= 8, (name, scheme, count)
        if name in ("green", "bernoulli"):
            assert count >= 250, (name, scheme, count)


# example 3's 9 x 9 grid on [-1, 1]^2
EX3_GRID = [complex(re, im) for re in np.linspace(-1.0, 1.0, 9) for im in np.linspace(-1.0, 1.0, 9)]


def test_prepared_values_match_eigenvalue_route_on_example3_grid():
    op = assemble_nystrom(registry("sign"), rectangle(200, -1.0, 1.0), zero_diag=True)
    lam = eigenvalues(op.matrix)
    got = prepare(op).values(2, [-z for z in EX3_GRID])
    assert got.shape == (81,)
    for z, v in zip(EX3_GRID, got):
        want = det_from_eigs(lam, 2, -z).value
        assert abs(v - want) <= 1e-12 * abs(want), z


def test_prepared_values_keep_det_p_semantics():
    for p in (1, 2, 3):
        prep = prepare(np.diag([2.0, 0.5]))
        zero, one = prep.values(p, [-0.5, 0.0])
        assert zero == 0.0          # I + zA is exactly singular
        assert one == 1.0 + 0.0j
        assert det_p(prep, p, -0.5).value == 0.0
    big = np.diag(np.full(100, 1e4))  # |det(I + A)| ~ 1e400
    with pytest.raises(DetOverflowError):
        prepare(big).values(1, [0.5, 1.0])
    with pytest.raises(DetOverflowError):
        det_p(big, 1, 1.0)
    with pytest.raises(ValueError):
        prepare(np.eye(2)).values(0, [0.5])


def test_prepare_reduces_on_every_call_and_stands_for_its_operator(monkeypatch):
    calls = []
    reduce = fredet.determinants._reduce
    monkeypatch.setattr(fredet.determinants, "_reduce",
                        lambda m, w: calls.append(1) or reduce(m, w))
    op = assemble_nystrom(registry("green"), gauss_legendre(16, 0.0, 1.0))
    first, second = prepare(op), prepare(op)
    assert len(calls) == 2
    assert all(np.array_equal(u, v) for u, v in zip(first.hess, second.hess))
    assert np.array_equal(first.matrix, op.matrix)
    assert det_p(second, 3, 0.4 - 0.2j) == det_p(op, 3, 0.4 - 0.2j)


def _never(*args):
    raise AssertionError("called on a PreparedDet")


# where the prepared values of abs_pow singular at N = 64 are compared with det_p
_WEAKLY_SINGULAR_ZS = [r * np.exp(1j * t) for r in (0.3, 0.9, 1.4) for t in np.linspace(0.1, 6.0, 7)]


def test_prepare_keeps_a_prepared_reduction(monkeypatch):
    op = assemble_singular(registry("abs_pow"), 64)
    prep = prepare(op)
    assert prepare(prep) is prep
    want = {p: [det_p(op, p, z).value for z in _WEAKLY_SINGULAR_ZS] for p in (1, 2, 3, 4)}
    # one reduction serves every p: nothing is validated or reduced again
    monkeypatch.setattr(fredet.determinants, "as_complex_matrix", _never)
    monkeypatch.setattr(fredet.determinants, "_reduce", _never)
    for p, dets in want.items():
        for z, v, w in zip(_WEAKLY_SINGULAR_ZS, prep.values(p, _WEAKLY_SINGULAR_ZS), dets):
            assert abs(v - w) <= 1e-13 * abs(w), (p, z)
    # a p that is not a positive integer is refused before any elimination
    monkeypatch.setattr(fredet.determinants, "hessenberg_logdet", _never)
    with pytest.raises(ValueError, match="p must be a positive integer, got 0"):
        prep.values(0, _WEAKLY_SINGULAR_ZS)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_single_z_det_p_is_the_slogdet_expression(monkeypatch, p):
    # det_p(I + zK) at one z factors I + zK itself: no Hessenberg reduction,
    # and the same bits as slogdet plus the trace correction summed by Horner's
    # rule in -z from 0j; the real K at the real z = -1 is factored in float64,
    # the non-real z in complex128
    monkeypatch.setattr(fredet.determinants, "hessenberg", None)
    op = assemble_nystrom(registry("sign"), rectangle(40, -1.0, 1.0), zero_diag=True)
    m = op.matrix
    assert m.dtype == np.float64
    nu = trace_powers(m, p - 1) if p > 1 else []
    for z, dtype in ((0.3 - 0.7j, np.complex128), (-1.0, np.float64), (2.5j, np.complex128)):
        shifted = np.eye(40) + z * m
        assert shifted.dtype == dtype
        phase, logabs = np.linalg.slogdet(shifted)
        corr = 0j
        for j in range(p - 1, 0, -1):
            corr = (corr + nu[j - 1] / j) * -z
        assert det_p(op, p, z).value == complex(phase * np.exp(logabs + corr))


@pytest.mark.parametrize("p", [3, 4])
def test_prepared_values_match_det_p_on_weakly_singular_matrix(p):
    op = assemble_singular(registry("abs_pow"), 64)
    got = prepare(op).values(p, _WEAKLY_SINGULAR_ZS)
    for z, v in zip(_WEAKLY_SINGULAR_ZS, got):
        want = det_p(op, p, z).value
        assert abs(v - want) <= 1e-13 * abs(want), z


def test_det_p_factors_in_float64_only_when_k_and_z_are_real(monkeypatch):
    factored = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: factored.append(m.dtype) or slogdet(m))
    k = _build("green", "ngl", 12).matrix
    for a, z in ((k, 0.5), (k, 0.5 + 0j), (k, 0.5 - 0.1j), (k.astype(np.complex128), 0.5)):
        det_p(a, 2, z)
    assert factored == [np.float64, np.float64, np.complex128, np.complex128]


def _correction_size(traces, z):
    """sum_j |z|^j |tr K^j| / j: the size of det_p's trace correction, whose rounding
    sets how far two sums of the same traces can move a value, relative to it."""
    return sum(abs(z) ** j * abs(t) / j for j, t in enumerate(traces, 1))


@pytest.mark.parametrize("name, scheme", list(_operator_cases()))
def test_complex_z_det_p_keeps_the_complex_lu(name, scheme):
    # at a non-real z a real K takes the same complex LU as its complex copy: the
    # plain determinant keeps its bits; for p >= 2 only the summation order of the
    # real traces differs, so the values agree to the rounding of the correction
    k = _build(name, scheme, 40).matrix
    c = k.astype(np.complex128)
    traces = trace_powers(c, 3)
    for z in (0.3 - 0.7j, -0.6 + 0.2j, 0.9j):
        assert det_p(k, 1, z).value == det_p(c, 1, z).value, z
        for p in (2, 3, 4):
            want = det_p(c, p, z).value
            tol = 1e-14 * (1.0 + _correction_size(traces[:p - 1], z))
            assert abs(det_p(k, p, z).value - want) <= tol * abs(want), (z, p)


@pytest.mark.parametrize("name, scheme", list(_operator_cases()))
def test_prepared_values_agree_on_a_real_k_and_its_complex_copy(name, scheme):
    # a real H is eliminated in real arithmetic, its complex copy in complex
    # arithmetic; inside the zero-free disc |z| rho(K) < 1 the values agree to 1e-14
    k = _build(name, scheme, 40).matrix
    c = k.astype(np.complex128)
    radius = 1.0 / np.abs(eigenvalues(k)).max()
    zs = [r * radius * np.exp(1j * t) for r in (0.25, 0.5, 0.9) for t in np.linspace(0.1, 6.0, 7)]
    traces = trace_powers(c, 2)
    for p in (1, 2, 3):
        prep = prepare(k)
        assert prep.hess.dtype == np.float64
        got, want = prep.values(p, zs), prepare(c).values(p, zs)
        for z, u, v in zip(zs, got, want):
            tol = 1e-14 * (1.0 + _correction_size(traces[:p - 1], z))
            assert abs(u - v) <= tol * abs(v), (p, z)


def _dense(t):
    """The tridiagonal matrix whose three diagonals are the tuple t = (diag, sup, sub)."""
    diag, sup, sub = t
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


_SYMMETRIC_OR_SKEW = {
    "green ngl": (registry("green"), "ngl", False),
    "bernoulli ngl": (registry("bernoulli"), "ngl", False),
    "sign rect zero_diag": (registry("sign"), "rect", True),
    "bernoulli ncc (Clenshaw-Curtis)": (registry("bernoulli"), "ncc", False),
}


@pytest.mark.parametrize("case", sorted(_SYMMETRIC_OR_SKEW))
def test_symmetric_and_skew_nystrom_operators_prepare_a_tridiagonal_form(case):
    spec, scheme, zero_diag = _SYMMETRIC_OR_SKEW[case]
    op = assemble(spec, scheme, 48, zero_diag)
    assert op.weights is not None and np.all(op.weights > 0)
    prep = prepare(op)
    assert isinstance(prep.hess, tuple)
    # matrix stays K; only the reduction is of W^(1/2) K W^(-1/2)
    assert prep.matrix is op.matrix
    # the values at 50 z, on and off the axes, are det_2 by its own LU to rounding
    rng = np.random.default_rng(5)
    zs = np.concatenate((rng.uniform(-30, 30, 20), 1j * rng.uniform(-30, 30, 10),
                         rng.uniform(-30, 30, 20) + 1j * rng.uniform(-30, 30, 20)))
    got = prep.values(2, zs)
    want = np.array([det_p(op, 2, z).value for z in zs])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("scheme", ["rect", "ngl"])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_iterated_kernel_operators_prepare_a_tridiagonal_form(scheme, n):
    # abs_pow_iter2's one closed form is symmetric in floating point, so with
    # zero_diag W^(1/2) K W^(-1/2) is symmetric to the scaling's rounding.  N = 1024
    # is reduced in panels, and checked at eight z to keep its LUs few
    op = assemble(registry("abs_pow_iter2"), scheme, n, True)
    prep = prepare(op)
    assert isinstance(prep.hess, tuple)
    rng = np.random.default_rng(n)
    zs = (np.linspace(-3.0, 3.0, 8) + 0.5j if n == 1024
          else rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20))
    got = prep.values(2, zs)
    want = np.array([det_p(op, 2, z).value for z in zs])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("name, scheme, n, skew", [
    ("green", "ngl", 400, False), ("sign", "rect", 200, True), ("sign", "rect", 400, True)],
    ids=["green-ngl-400", "sign-rect-200", "sign-rect-400"])
def test_tridiagonal_form_keeps_the_eigenvalues_of_s(monkeypatch, name, scheme, n, skew):
    # T has the eigenvalues of S = W^(1/2) K W^(-1/2) (of -i S, Hermitian, if S is
    # skew) to 1e-13 of the largest, in panels at N = 400 and one reflector at a time
    # at N = 200
    assert 200 < fredet.linalg._TRIDIAGONAL_CROSSOVER <= 400
    monkeypatch.setattr(fredet.determinants, "hessenberg", _never)
    op = assemble(registry(name), scheme, n, skew)
    prep = prepare(op)
    assert isinstance(prep.hess, tuple)
    t = _dense(prep.hess)
    root = np.sqrt(op.weights)
    s = root[:, None] * op.matrix / root
    want = np.linalg.eigvalsh(-1j * s if skew else (s + s.T) / 2)
    got = np.linalg.eigvalsh(-1j * t if skew else t)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _weighted(s_matrix, n):
    """A hand-built weighted operator whose W^(1/2) K W^(-1/2) is s_matrix, on the
    Gauss-Legendre weights of n points."""
    rule = gauss_legendre(n, 0.0, 1.0)
    root = np.sqrt(rule.weights)
    return DiscreteOperator(s_matrix * np.outer(1.0 / root, root), rule.nodes, rule.weights)


def _complex_hermitian(n, skew):
    # spectral norm about 1, so I + zS is well conditioned for |z| <= 1/2
    rng = np.random.default_rng(n)
    a = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / (2.0 * np.sqrt(n))
    return (a - a.conj().T) / 2.0 if skew else (a + a.conj().T) / 2.0


_TRIDIAGONAL_CASES = {
    "green ngl": lambda: assemble(registry("green"), "ngl", 64),
    "sign rect zero_diag": lambda: assemble(registry("sign"), "rect", 64, True),
    # rank one, and its first node x = 0 gives a zero row: the first reflector is skipped
    "x y ncc": lambda: assemble(from_config({"expr": {"k": "x * y"}, "domain": [0, 1]}),
                                "ncc", 24),
}


@pytest.mark.parametrize("case", sorted(_TRIDIAGONAL_CASES))
def test_prepared_tridiagonal_form_has_the_determinants_of_k(monkeypatch, case):
    # symmetric and skew operators never reach the general Hessenberg reduction; their
    # tridiagonal form has det(I + zK) to 1e-13 relative, on and off the axes, where
    # I + zK is well conditioned
    op = _TRIDIAGONAL_CASES[case]()
    monkeypatch.setattr(fredet.determinants, "hessenberg", _never)
    # K is validated once; its symmetric or skew part is reduced in its own buffer
    validated, checked = [], fredet.linalg.as_complex_matrix
    for module in (fredet.determinants, fredet.linalg):
        monkeypatch.setattr(module, "as_complex_matrix",
                            lambda a: validated.append(a) or checked(a))
    t = prepare(op).hess
    assert len(validated) == 1
    assert isinstance(t, tuple) and all(b.dtype == op.matrix.dtype for b in t)
    h = _dense(t)
    n = h.shape[0]
    for z in (0.4 + 0.3j, -0.3 + 0.4j, 0.5j, -0.5):
        sign, logabs = np.linalg.slogdet(np.eye(n) + z * op.matrix)
        got_sign, got_logabs = np.linalg.slogdet(np.eye(n) + z * h)
        assert abs(got_logabs - logabs) <= 1e-13 and abs(got_sign - sign) <= 1e-13, z


def _complex_copy(op):
    return DiscreteOperator(op.matrix.astype(np.complex128), op.nodes, op.weights)


# operator, disc centre and radius
_COMPLEX_WEIGHTED = {
    "complex hermitian": (lambda: _weighted(_complex_hermitian(40, False), 40), 0.0, 1.5),
    "complex skew-hermitian": (lambda: _weighted(_complex_hermitian(40, True), 40), 0.0, 1.5),
    # S is symmetric as well as Hermitian, in complex128
    "complex copy of green ngl": (lambda: _complex_copy(assemble(registry("green"), "ngl", 64)),
                                  50.0, 49.0),
}


@pytest.mark.parametrize("case", list(_COMPLEX_WEIGHTED))
def test_complex_weighted_operators_keep_the_full_form(monkeypatch, case):
    # only a real S is tridiagonalized: a complex K keeps hessenberg's full form, which
    # has det(I + zK) to 1e-13 relative and gives locate_eigs the roots of K's raw matrix
    make, centre, radius = _COMPLEX_WEIGHTED[case]
    op = make()
    calls, reduce = [], fredet.determinants.hessenberg
    monkeypatch.setattr(fredet.determinants, "hessenberg", lambda a: calls.append(a) or reduce(a))
    prep = prepare(op)
    assert len(calls) == 1 and isinstance(prep.hess, np.ndarray)
    n = op.matrix.shape[0]
    zs = np.array([0.4 + 0.3j, -0.3 + 0.4j, 0.5j, -0.5])
    want = np.array([np.linalg.det(np.eye(n) + z * op.matrix) for z in zs])
    assert np.all(np.abs(prep.values(1, zs) - want) <= 1e-13 * np.abs(want))
    got = locate_eigs(op, 1, centre, radius)
    raw = locate_eigs(op.matrix, 1, centre, radius)
    assert len(got) == len(raw) > 0
    assert all(abs(u.z_root - v.z_root) <= 1e-12 * abs(v.z_root) for u, v in zip(got, raw))


def test_x_y_kernel_form_skips_its_zero_row():
    diag, sup, sub = prepare(_TRIDIAGONAL_CASES["x y ncc"]()).hess
    assert diag[0] == sup[0] == sub[0] == 0.0


def test_skew_forms_come_out_exact():
    # sign with zero_diag: W^(1/2) K W^(-1/2) is skew, and its prepared form is exactly
    # the form of a skew matrix: zero diagonal, couplings b_k and -b_k bit for bit
    for n in (64, 200):
        diag, sup, sub = prepare(assemble(registry("sign"), "rect", n, True)).hess
        assert diag.dtype == sup.dtype == np.float64
        assert not diag.any()
        assert np.array_equal(sub, -sup)
        assert np.all(sup != 0.0)


# kernel, scheme, zero_diag and whether prepare makes a tridiagonal form
_PREPARE_CASES = {
    "green ngl": ("green", "ngl", False, True),
    "sign rect zero_diag": ("sign", "rect", True, True),
    "abs_pow singular": ("abs_pow", "singular", False, False),
    "green ncc": ("green", "ncc", False, False),
}
# the peak of one prepare, in units of N^2 entries of K, on each path.  Tridiagonal: S,
# one buffer for its symmetric or skew part and |S - S^T| (3.00 measured at N = 400, 3.09
# at N = 64; 6.26-6.38 when S took five N x N arrays).  General: H^T and the rank-2
# product of hessenberg (2.01-2.10; 2.13-2.19 with a copy of H and an N x N scan of it)
_PREPARE_PEAK = {True: 4.2, False: 2.2}


@pytest.mark.parametrize("n", [64, 400])
@pytest.mark.parametrize("case", sorted(_PREPARE_CASES))
def test_prepare_builds_each_form_once(case, n):
    name, scheme, zero_diag, tridiagonal = _PREPARE_CASES[case]
    op = assemble(registry(name), scheme, n, zero_diag)
    tracemalloc.start()
    try:
        prep = prepare(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(prep.hess, tuple) == tridiagonal
    units = peak / (n * n * op.matrix.itemsize)
    assert units <= _PREPARE_PEAK[tridiagonal], units


@pytest.mark.parametrize("n", [64, 400])
@pytest.mark.parametrize("case", ["green ngl", "sign rect zero_diag"])
def test_prepare_keeps_o_n_floats_for_a_tridiagonal_form(case, n):
    # T is kept as its three diagonals: besides K, assembled before tracing starts,
    # what prepare keeps is at most 8N floats, where an N x N T took N^2
    name, scheme, zero_diag, _ = _PREPARE_CASES[case]
    op = assemble(registry(name), scheme, n, zero_diag)
    tracemalloc.start()
    try:
        prep = prepare(op)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(prep.hess, tuple)
    assert kept <= 8 * n * 8, kept / (8 * n)


@pytest.mark.parametrize("op, zs", [
    # S's symmetric part (S + S^T) / 2 would overflow in its sum
    (DiscreteOperator(np.array([[1e308, 2e307], [2e307, 1e308]]), np.array([0.0, 1.0]),
                      np.array([1.0, 1.0])), [1e-309, 2e-309j, -3e-309 + 1e-309j]),
    # a squared Householder norm would overflow, or underflow
    (np.full((4, 4), 2e307) + 1e308 * np.eye(4), [1e-309, 3e-309, 1e-309 + 2e-309j]),
    (np.full((4, 4), 2e-307) + 1e-306 * np.eye(4), [1e305, 1e306, -2e305j]),
    # a squared norm of rounding residue times an entry would underflow
    (np.ldexp(np.full((4, 4), 0.2) + np.eye(4), -330),
     [2.0 ** 330, 3 * 2.0 ** 330, -2j * 2.0 ** 330]),
    # scaled no further than the reduction needs, so z 2^e stays finite wherever z K
    # does, though its square (read by the tridiagonal elimination) does not
    (np.array([[0.0, 1e308], [0.0, 0.0]]), [0.25, 1.7, -1e-300, 0.5j]),
], ids=["symmetric", "general", "general_tiny", "residue_tiny", "nilpotent"])
def test_operators_near_the_ends_of_the_double_range_are_reduced_scaled(op, zs):
    # K is reduced as 2^-e K and its values read at z 2^e, e a power of two that
    # keeps the reduction's products normal: finite values, det_p's to rounding
    prep = prepare(op)
    assert prep.log2_scale != 0
    got = prep.values(1, zs)
    want = np.array([det_p(op, 1, z).value for z in zs])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_a_z_whose_scaled_value_leaves_the_double_range_overflows():
    # z 2^e = 2^1024 leaves the double range, and with it z K
    prep = prepare(np.full((4, 4), 2e307) + 1e308 * np.eye(4))
    with pytest.raises(DetOverflowError, match="out of double range"):
        prep.values(1, [1e-309, np.ldexp(1.0, 1024 - prep.log2_scale)])


def test_a_tridiagonal_form_at_a_z_whose_square_overflows():
    # z^2 overflows, but z T's couplings and their product do not
    op = np.array([[1e-80, 1e-300], [1e-300, 1e-80]])
    prep = prepare(op)
    assert prep.log2_scale == 0 and isinstance(prep.hess, tuple)
    zs = [1e160, 1e200, -1e180j]
    got = prep.values(1, zs)
    want = np.array([det_p(op, 1, z).value for z in zs])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_an_elimination_that_overflows_raises_instead_of_giving_nan():
    # |det| ~ exp(958) leaves the double range inside the tridiagonal elimination
    op = DiscreteOperator(np.array([[1e308, 2e307], [2e307, 1e308]]), np.array([0.0, 1.0]),
                          np.array([1.0, 1.0]))
    with pytest.raises(DetOverflowError, match="double range"):
        prepare(op).values(1, [1e-309, 1e-100])


def test_operators_of_moderate_size_are_reduced_as_they_are():
    for op in (assemble(registry("green"), "ngl", 400), assemble(registry("green"), "ncc", 64),
               1e100 * np.ones((8, 8)), 1e-70 * np.ones((8, 8)), np.zeros((3, 3))):
        prep = prepare(op)
        assert prep.log2_scale == 0
        m = getattr(op, "matrix", op)
        if isinstance(prep.hess, np.ndarray):
            assert np.array_equal(prep.hess, hessenberg(m))


@pytest.mark.parametrize("bad", [np.inf, np.nan, "ratio"])
def test_weights_that_are_not_finite_keep_the_full_form(bad):
    # a weight that is inf or nan, or two whose ratio is past the double range (the
    # square roots of 5e-324 and 1e300), leaves S with an entry that is not finite:
    # K is reduced as it is, and its values are det_p's
    op = assemble(registry("green"), "ngl", 24)
    weights = op.weights.copy()
    weights[:2] = (5e-324, 1e300) if bad == "ratio" else (bad, 1.0)
    op = DiscreteOperator(op.matrix, op.nodes, weights)
    prep = prepare(op)
    assert isinstance(prep.hess, np.ndarray)
    assert np.array_equal(prep.hess, hessenberg(op.matrix))
    zs = np.array([3.0, -2.5, 1.0 + 4.0j])
    want = np.array([det_p(op, 2, z).value for z in zs])
    assert np.all(np.abs(prep.values(2, zs) - want) <= 1e-12 * np.abs(want))


def test_weighted_operators_that_are_neither_symmetric_nor_skew_keep_the_full_form():
    # x y^2 is neither symmetric nor antisymmetric, so W^(1/2) K W^(-1/2) is neither.
    # Like a raw matrix and a split ncc or singular operator, it is reduced as it is
    spec = from_config({"expr": {"k": "x * y * y"}, "domain": [0, 1]})
    ops = [assemble(spec, "ngl", 24), assemble(registry("green"), "ncc", 24),
           assemble(registry("abs_pow"), "singular", 24)]
    raw = assemble(registry("green"), "ngl", 24).matrix
    assert ops[0].weights is not None
    assert ops[1].weights is None and ops[2].weights is None
    for op in ops + [raw]:
        prep = prepare(op)
        m = getattr(op, "matrix", op)
        assert np.array_equal(prep.hess, hessenberg(m))
        assert np.triu(prep.hess, 2).any()
        # kept as hessenberg returns it, the transposed layout the sampler reads
        assert prep.hess.flags.f_contiguous
