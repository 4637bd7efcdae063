import numpy as np
import pytest

import fredet.determinants
from fredet.determinants import (det_from_eigs, det_p, det_series_eval, identity_residuals,
                                 plemelj_coeffs, prepare)
from fredet.discretize import assemble, assemble_ncc, assemble_nystrom, assemble_singular
from fredet.kernels import registry
from fredet.linalg import DetOverflowError, eigenvalues, trace_powers
from fredet.quadrature import gauss_legendre, rectangle


def test_det_p_at_zero_is_one():
    v = det_p(np.ones((4, 4)), 3, 0.0)
    assert v.value == 1.0 + 0.0j


def test_det_p_rejects_bad_p():
    for p in (0, -1, 1.5):
        with pytest.raises(ValueError):
            det_p(np.eye(2), p, 1.0)


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


def test_plemelj_coeffs_scalar_p2():
    # (1 + zc) exp(-zc) = 1 - c^2 z^2 / 2 + c^3 z^3 / 3 - ...
    c = 0.7
    coeffs = plemelj_coeffs(np.array([[c]]), 2, 3)
    assert abs(coeffs[0] - 1.0) < 1e-15
    assert coeffs[1] == 0.0  # nu_1 suppressed for p = 2
    assert abs(coeffs[2] - (-c * c / 2.0)) < 1e-14
    assert abs(coeffs[3] - (c**3 / 3.0)) < 1e-14


def test_plemelj_coeffs_validation():
    with pytest.raises(ValueError):
        plemelj_coeffs(np.eye(2), 1, -1)


def test_det_series_eval_horner():
    assert det_series_eval(np.array([1.0, 2.0, 3.0], dtype=complex), 2.0).value == 17.0 + 0.0j


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
    got = prepare(op, 2).values([-z for z in EX3_GRID])
    assert got.shape == (81,)
    for z, v in zip(EX3_GRID, got):
        want = det_from_eigs(lam, 2, -z).value
        assert abs(v - want) <= 1e-12 * abs(want), z


def test_prepared_values_keep_det_p_semantics():
    for p in (1, 2, 3):
        prep = prepare(np.diag([2.0, 0.5]), p)
        zero, one = prep.values([-0.5, 0.0])
        assert zero == 0.0          # I + zA is exactly singular
        assert one == 1.0 + 0.0j
        assert det_p(prep, p, -0.5).value == 0.0
    big = np.diag(np.full(100, 1e4))  # |det(I + A)| ~ 1e400
    with pytest.raises(DetOverflowError):
        prepare(big, 1).values([0.5, 1.0])
    with pytest.raises(DetOverflowError):
        det_p(big, 1, 1.0)
    with pytest.raises(ValueError):
        prepare(np.eye(2), 0)


def test_prepare_reduces_on_every_call_and_stands_for_its_operator(monkeypatch):
    calls = []
    reduce = fredet.determinants.hessenberg
    monkeypatch.setattr(fredet.determinants, "hessenberg", lambda m: calls.append(1) or reduce(m))
    op = assemble_nystrom(registry("green"), gauss_legendre(16, 0.0, 1.0))
    first, second = prepare(op, 1), prepare(op, 3)
    assert len(calls) == 2
    assert np.array_equal(first.hess, second.hess)
    assert np.array_equal(first.matrix, op.matrix)
    assert det_p(second, 3, 0.4 - 0.2j) == det_p(op, 3, 0.4 - 0.2j)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_single_z_det_p_is_the_slogdet_expression(monkeypatch, p):
    # det_p(I + zK) at one z factors I + zK itself: no Hessenberg reduction,
    # and the same bits as slogdet plus the explicit trace correction; the real
    # K at the real z = -1 is factored in float64, the non-real z in complex128
    monkeypatch.setattr(fredet.determinants, "hessenberg", None)
    op = assemble_nystrom(registry("sign"), rectangle(40, -1.0, 1.0), zero_diag=True)
    m = op.matrix
    assert m.dtype == np.float64
    nu = trace_powers(m, p - 1) if p > 1 else []
    for z, dtype in ((0.3 - 0.7j, np.complex128), (-1.0, np.float64), (2.5j, np.complex128)):
        shifted = np.eye(40) + z * m
        assert shifted.dtype == dtype
        phase, logabs = np.linalg.slogdet(shifted)
        corr = sum(((-z) ** j * nu[j - 1] / j for j in range(1, p)), 0j)
        assert det_p(op, p, z).value == complex(phase * np.exp(logabs + corr))


@pytest.mark.parametrize("p", [3, 4])
def test_prepared_values_match_det_p_on_weakly_singular_matrix(p):
    op = assemble_singular(registry("abs_pow"), 64)
    zs = [r * np.exp(1j * t) for r in (0.3, 0.9, 1.4) for t in np.linspace(0.1, 6.0, 7)]
    got = prepare(op, p).values(zs)
    for z, v in zip(zs, got):
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
        prep = prepare(k, p)
        assert prep.hess.dtype == np.float64
        got, want = prep.values(zs), prepare(c, p).values(zs)
        for z, u, v in zip(zs, got, want):
            tol = 1e-14 * (1.0 + _correction_size(traces[:p - 1], z))
            assert abs(u - v) <= tol * abs(v), (p, z)
