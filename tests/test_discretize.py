import dataclasses
import warnings

import numpy as np
import pytest

import fredet.discretize
from fredet.determinants import det_p
from fredet.discretize import SCHEMES, assemble, assemble_ncc, assemble_nystrom, assemble_singular
from fredet.kernels import KernelSpec, from_config, registry
from fredet.linalg import MAX_DIM, as_complex_matrix, trace_powers
from fredet.quadrature import (QuadRule, clenshaw_curtis, gauss_legendre, rectangle,
                              singular_moments, spectral_ops)


def test_nystrom_rectangle_hand_computed():
    op = assemble_nystrom(registry("bernoulli"), rectangle(2, 0.0, 1.0))
    off = 1.0 / 12.0 - 0.25 + 0.125
    expect = 0.5 * np.array([[1.0 / 12.0, off], [off, 1.0 / 12.0]])
    assert np.allclose(op.matrix, expect, atol=1e-15)
    assert np.allclose(op.nodes, [0.25, 0.75], atol=1e-15)


def test_nystrom_sign_zero_diag_two_by_two():
    op = assemble_nystrom(registry("sign"), rectangle(2, -1.0, 1.0), zero_diag=True)
    assert np.allclose(op.matrix, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_nystrom_sign_without_zero_diag_keeps_lower_branch():
    op = assemble_nystrom(registry("sign"), rectangle(3, -1.0, 1.0))
    h = 2.0 / 3.0
    assert np.allclose(np.diag(op.matrix), h, atol=1e-15)


def test_nystrom_gauss_legendre_green_determinant():
    op = assemble_nystrom(registry("green"), gauss_legendre(16, 0.0, 1.0))
    val = det_p(op, 1, -1.0).value
    assert abs(val - np.sin(1.0)) < 1e-3


def test_nystrom_rejects_singular_kernel_and_domain_mismatch():
    with pytest.raises(ValueError, match="singular"):
        assemble_nystrom(registry("abs_pow"), gauss_legendre(8, -1.0, 1.0))
    with pytest.raises(ValueError, match="domain"):
        assemble_nystrom(registry("green"), gauss_legendre(8, -1.0, 1.0))


@pytest.mark.parametrize("rule", [gauss_legendre, rectangle])
def test_nystrom_refuses_an_infinite_diagonal_without_zero_diag(rule):
    # abs_pow_iter2 is log-singular at x = y: one ValueError naming zero_diag,
    # and no numpy warning from evaluating the diagonal
    spec = registry("abs_pow_iter2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"zero_diag \(--zero-diag\)"):
            assemble_nystrom(spec, rule(8, -1.0, 1.0))
    assert np.all(np.isfinite(assemble_nystrom(spec, rule(8, -1.0, 1.0), zero_diag=True).matrix))


def test_ncc_sign_kernel_acts_as_odd_integrator():
    # int_{-1}^{x} 1 dy - int_{x}^{1} 1 dy = 2x, exact for the interpolant
    op = assemble_ncc(registry("sign"), 16)
    got = (op.matrix @ np.ones(16)).real
    assert np.max(np.abs(got - 2.0 * op.nodes)) < 1e-8


def test_ncc_green_is_spectrally_accurate():
    op = assemble_ncc(registry("green"), 32)
    # z = pi^2 is a determinant zero of the continuous operator
    assert abs(det_p(op, 1, -np.pi**2).value) < 1e-8


def test_ncc_accepts_smooth_kernel():
    op = assemble_ncc(registry("bernoulli"), 24)
    val = det_p(op, 1, -1.0).value
    assert abs(val - (2.0 - 2.0 * np.cos(1.0))) < 1e-3


def _split_ncc_formula(spec, n, lu=False):
    """The split-kernel formula (b-a)/2 [(C Sl Cinv) o K1 + (C Sr Cinv) o K2], spelt out;
    k2 = k1 for a smooth kernel.  With lu, Cinv is np.linalg.inv(C), not the closed form."""
    ops = spectral_ops(n)
    cinv = np.linalg.inv(ops.C) if lu else ops.Cinv
    half = 0.5 * (spec.b - spec.a)
    nodes = 0.5 * (spec.a + spec.b) + half * ops.points
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    k2 = spec.k2 if spec.k2 is not None else spec.k1
    lower_int = ops.C @ ops.Sl @ cinv
    upper_int = ops.C @ ops.Sr @ cinv
    k1_vals = np.asarray(spec.k1(x, y), dtype=float)
    k2_vals = np.asarray(k2(x, y), dtype=float)
    return as_complex_matrix(half * (lower_int * k1_vals + upper_int * k2_vals)), nodes


def test_ncc_split_kernel_is_the_spectral_formula():
    # the grid benchmark's green N = 320 matrix among them; the formula takes an LU
    # inverse, whose rounding, about 2e-13 of the largest entry at N = 320, is most
    # of the gap
    for name, n in (("green", 320), ("green", 512), ("green", 15), ("sign", 16), ("sign", 9)):
        op = assemble_ncc(registry(name), n)
        want, nodes = _split_ncc_formula(registry(name), n, lu=True)
        assert np.max(np.abs(op.matrix - want)) <= 1e-12 * np.max(np.abs(want)), (name, n)
        assert np.array_equal(op.nodes, nodes)


@pytest.mark.parametrize("n", [6, 7, 12, 13])
def test_ncc_lower_and_upper_operators_exact_through_degree_n_minus_2(n):
    # k1 = 1, k2 = 0 leaves the lower operator, int_-1^x; k1 = 0, k2 = 1 the upper
    # one, int_x^1; each is exact on polynomials of degree <= n-2, at odd and even n
    ops = {}
    for side, k1, k2 in (("lower", "1 + 0*x*y", "0*x*y"), ("upper", "0*x*y", "1 + 0*x*y")):
        spec = from_config({"expr": {"k1": k1, "k2": k2}, "domain": [-1.0, 1.0]})
        ops[side] = assemble_ncc(spec, n)
    x = ops["lower"].nodes
    for k in range(n - 1):
        lo = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        hi = (1.0 - x ** (k + 1)) / (k + 1)
        assert np.max(np.abs(ops["lower"].matrix @ x**k - lo)) <= 1e-13, (n, k)
        assert np.max(np.abs(ops["upper"].matrix @ x**k - hi)) <= 1e-13, (n, k)


@pytest.mark.parametrize("n", [2, 3, 15, 16, 64, 65])
def test_ncc_smooth_kernel_is_nystrom_on_clenshaw_curtis(n):
    for spec in (registry("bernoulli"), from_config({"expr": {"k": "exp(-abs(x - y))"},
                                                     "domain": [-1.0, 2.0]})):
        op = assemble_ncc(spec, n)
        want = assemble_nystrom(spec, clenshaw_curtis(n, spec.a, spec.b))
        assert np.array_equal(op.matrix, want.matrix) and np.array_equal(op.nodes, want.nodes)
        assert np.array_equal(op.nodes, _split_ncc_formula(spec, n)[1])


def test_ncc_smooth_kernel_matches_the_split_formula_at_even_n():
    # the two integration operators add up to one repeated row, the Clenshaw-Curtis
    # weights; with the closed-form Cinv the two agree to ~3e-15 of the largest
    # entry at n = 320 (3e-13 with an LU inverse)
    spec = registry("bernoulli")
    for n in (2, 16, 64, 320):
        got = assemble_ncc(spec, n).matrix
        want = _split_ncc_formula(spec, n)[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n


def test_ncc_smooth_kernel_at_odd_n_is_exact_where_the_split_formula_is_not():
    # with k = 1 each row integrates u over [-1, 1].  For u = T_{n-1} the split
    # formula drops the T_n/(2n) term of its antiderivative, which at odd n leaves
    # its rows short by exactly 1/n; the rule is exact to degree n
    spec = from_config({"expr": {"k": "1 + 0*x*y"}, "domain": [-1.0, 1.0]})
    for n in (3, 5, 15, 65):
        op = assemble_ncc(spec, n)
        t = np.cos((n - 1) * np.arccos(op.nodes))
        exact = 2.0 / (1.0 - (n - 1) ** 2)
        assert np.max(np.abs(op.matrix.real @ t - exact)) <= 1e-13, n
        old = _split_ncc_formula(spec, n)[0].real
        assert np.max(np.abs(old @ t - (exact - 1.0 / n))) <= 1e-12, n


def test_nystrom_takes_any_rule_two_point_trapezoid():
    # nodes -1 and 1 with weights 1: sign is +1 on and below the diagonal, -1 above
    trapezoid = QuadRule(-1.0, 1.0, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    op = assemble_nystrom(registry("sign"), trapezoid)
    assert np.array_equal(op.matrix, [[1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(op.nodes, [-1.0, 1.0])


def test_assemble_rejects_unknown_scheme_small_n_and_misplaced_zero_diag():
    spec = registry("green")
    assert SCHEMES == ("ngl", "rect", "ncc", "singular")
    with pytest.raises(ValueError, match="unknown scheme 'simpson'"):
        assemble(spec, "simpson", 8)
    for scheme in SCHEMES:
        with pytest.raises(ValueError, match="n must be >= 2, got 1"):
            assemble(spec, scheme, 1)
    for scheme, kernel in (("ncc", spec), ("singular", registry("abs_pow"))):
        with pytest.raises(ValueError, match=f"zero-diag.* not {scheme}"):
            assemble(kernel, scheme, 8, zero_diag=True)


def _never(*args, **kwargs):
    raise AssertionError("called before the size was checked")


def test_assemble_rejects_n_past_max_dim_before_building(monkeypatch):
    for name in ("gauss_legendre", "rectangle", "clenshaw_curtis", "spectral_ops",
                 "lobatto_vander"):
        monkeypatch.setattr(fredet.discretize, name, _never)
    for scheme in SCHEMES:
        kernel = registry("abs_pow" if scheme == "singular" else "green")
        with pytest.raises(ValueError, match=f"n={MAX_DIM + 1} exceeds MAX_DIM={MAX_DIM}"):
            assemble(kernel, scheme, MAX_DIM + 1)
        with pytest.raises(AssertionError, match="before the size was checked"):
            assemble(kernel, scheme, MAX_DIM)  # the largest size gets past the check


def test_ncc_rejects_singular_kernel():
    with pytest.raises(ValueError, match="singular"):
        assemble_ncc(registry("abs_pow"), 8)


def test_singular_assembly_row_sums_match_moment_closed_form():
    # with h == 1 each row sums to beta_0(x_i) exactly
    for alpha in (0.5, 0.3):
        op = assemble_singular(registry("abs_pow", {"alpha": alpha}), 24)
        got = (op.matrix @ np.ones(24)).real
        expect = ((1 + op.nodes) ** (1 - alpha) + (1 - op.nodes) ** (1 - alpha)) / (1 - alpha)
        assert np.max(np.abs(got - expect)) < 1e-10, alpha


def test_singular_assembly_row_sums_stay_bounded():
    # sup_x int |x-y|^(-1/2) dy = 4 on [-1, 1]; discrete rows must not blow up
    sups = [np.abs(assemble_singular(registry("abs_pow"), n).matrix).sum(axis=1).max()
            for n in (16, 64, 256)]
    assert max(sups) < 4.0 + 1e-6


def test_singular_assembly_trace_of_square_converges():
    # tr(K^2) = int int |x-y|^(-2a) = 2 * 2^(2-2a) / ((1-2a)(2-2a)) for a = 0.3
    closed = 2.0 * 2.0**1.4 / (0.4 * 1.4)
    rels = []
    for n in (32, 64, 128):
        m = assemble_singular(registry("abs_pow", {"alpha": 0.3}), n).matrix
        tr2 = trace_powers(m, 2)[1].real
        rels.append(abs(tr2 - closed) / closed)
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 3.5e-2


@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("n", [16, 64, 257])
def test_singular_assembly_is_the_spectral_ops_formula_bit_for_bit(alpha, n):
    # assemble_singular builds its points and Cinv as spectral_ops does, without Sl and Sr
    spec = registry("abs_pow", {"alpha": alpha})
    ops = spectral_ops(n)
    nodes = ops.points  # the kernel's interval is [-1, 1]
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    expect = (singular_moments(alpha, nodes, n) @ ops.Cinv) * spec.h(x, y)
    op = assemble_singular(spec, n)
    assert np.array_equal(op.nodes, nodes)
    assert np.array_equal(op.matrix, expect)


def test_singular_assembly_rejects_nonsingular_kernel():
    with pytest.raises(ValueError, match="singular"):
        assemble_singular(registry("green"), 8)


def test_operator_has_one_row_and_node_per_rule_node():
    op = assemble_nystrom(registry("green"), gauss_legendre(7, 0.0, 1.0))
    assert op.matrix.shape == (7, 7)
    assert op.nodes.shape == (7,)


# every built-in kernel on every scheme that takes it; abs_pow_iter2 only with zero_diag
_BUILTIN_ASSEMBLIES = ([(name, scheme, zd) for name in ("green", "bernoulli", "sign")
                        for scheme in ("ngl", "rect", "ncc")
                        for zd in ((False,) if scheme == "ncc" else (False, True))]
                       + [("abs_pow", "singular", False), ("abs_pow_iter2", "ngl", True),
                          ("abs_pow_iter2", "rect", True)])


@pytest.mark.parametrize("name, scheme, zero_diag", _BUILTIN_ASSEMBLIES)
@pytest.mark.parametrize("n", [2, 33])
def test_builtin_kernels_assemble_a_float64_matrix(name, scheme, zero_diag, n):
    # a real kernel gives a real K_N, 8 bytes an entry: no assembly ends in a complex copy
    spec = registry(name)
    op = assemble(spec, scheme, n, zero_diag)
    assert op.matrix.dtype == np.float64
    assert op.matrix.nbytes == 8 * n * n
    if scheme in ("ngl", "rect"):
        # the broadcast values are the per-triangle formula bit for bit: k1 on j <= i
        # (y <= x on ascending nodes), k2 above, each evaluated on gathered entries
        rule = (gauss_legendre if scheme == "ngl" else rectangle)(n, *spec.domain)
        x, w = rule.nodes, rule.weights
        want = np.zeros((n, n))
        lower = np.tril_indices(n, -1 if zero_diag else 0)
        upper = np.triu_indices(n, 1)
        want[lower] = spec.k1(x[lower[0]], x[lower[1]]) * w[lower[1]]
        want[upper] = (spec.k2 or spec.k1)(x[upper[0]], x[upper[1]]) * w[upper[1]]
        assert np.array_equal(op.matrix, want)


@pytest.mark.parametrize("expr", [{"k1": "1", "k2": "log(abs(x - y))"},
                                  {"k1": "log(abs(x - y))", "k2": "1"}])
def test_ncc_refuses_a_branch_that_is_not_finite_on_the_diagonal(expr):
    # ncc evaluates both branches at x = y; the N diagonal values are checked
    # quietly (a RuntimeWarning fails this suite) and refused in one message
    spec = from_config({"expr": expr, "domain": [0.0, 1.0]})
    with pytest.raises(ValueError, match="where ncc evaluates both of its branches; ngl or"
                                         r" rect with zero_diag \(--zero-diag\) drop"):
        assemble_ncc(spec, 8)


@pytest.mark.parametrize("spec", [
    registry("abs_pow_iter2"),
    from_config({"expr": {"k": "log(abs(x - y))"}, "domain": [0.0, 1.0]}),
], ids=["abs_pow_iter2", "log_expr"])
def test_ncc_refuses_a_smooth_kernel_not_finite_on_the_diagonal(spec):
    # smooth ncc is Clenshaw-Curtis Nystrom, whose nodes hold the diagonal; ncc takes
    # no zero_diag, so the refusal names the schemes that do
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"not finite on the diagonal x = y; ngl or rect"
                                             r" with zero_diag \(--zero-diag\) drop it"):
            assemble(spec, "ncc", 8)


def _counted(calls, tag, fn):
    """fn, appending (tag, shape of its first argument) to calls on every call."""
    return lambda x, y: calls.append((tag, np.shape(x))) or fn(x, y)


def test_smooth_kernel_values_come_from_one_call_on_the_node_grid():
    spec = from_config({"expr": {"k": "log(abs(x - y)) + 2"}, "domain": [0.0, 1.0]})
    calls = []
    counted = dataclasses.replace(spec, k1=_counted(calls, "k1", spec.k1))
    rule = gauss_legendre(16, 0.0, 1.0)
    # zero_diag drops the log singularity on the diagonal quietly
    op = assemble_nystrom(counted, rule, zero_diag=True)
    # one call on the broadcast pair nodes[:, None], nodes[None, :]
    assert calls == [("k1", (16, 1))]
    x, y = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    off = ~np.eye(16, dtype=bool)
    weights = np.broadcast_to(rule.weights, (16, 16))
    assert np.array_equal(op.matrix[off], spec.k1(x[off], y[off]) * weights[off])
    assert np.all(np.diagonal(op.matrix) == 0.0)
    # a kernel that returns one number for the whole grid is broadcast over it
    for zero_diag in (False, True):
        const = assemble_nystrom(from_config({"expr": {"k": "2"}, "domain": [0.0, 1.0]}), rule,
                                 zero_diag=zero_diag)
        want = np.tile(2.0 * rule.weights, (16, 1))
        if zero_diag:
            np.fill_diagonal(want, 0.0)
        assert np.array_equal(const.matrix, want)


def test_split_and_singular_kernel_values_come_from_one_call_per_branch():
    calls = []
    green = registry("green")
    split = dataclasses.replace(green, k1=_counted(calls, "k1", green.k1),
                                k2=_counted(calls, "k2", green.k2))
    for zero_diag in (False, True):
        calls.clear()
        assemble_nystrom(split, gauss_legendre(16, 0.0, 1.0), zero_diag=zero_diag)
        # without zero_diag, the diagonal pre-check reads k1 on the N diagonal points first
        assert calls == [("k1", (16,))] * (not zero_diag) + [("k1", (16, 1)), ("k2", (16, 1))]
    calls.clear()
    abs_pow = registry("abs_pow")
    assemble_singular(dataclasses.replace(abs_pow, h=_counted(calls, "h", abs_pow.h)), 16)
    assert calls == [("h", (16, 1))]


@pytest.mark.parametrize("scheme", ["ngl", "rect"])
@pytest.mark.parametrize("zero_diag", [False, True])
def test_split_kernel_not_finite_off_its_side_assembles_quietly(scheme, zero_diag):
    # each branch is nan on the other's side; those values are never read, so no
    # RuntimeWarning leaks (the suite turns one into an error) and K_N is finite
    spec = from_config({"expr": {"k1": "sqrt(x - y)", "k2": "sqrt(y - x)"}, "domain": [0, 1]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = assemble(spec, scheme, 16, zero_diag)
    x = op.nodes
    w = (gauss_legendre if scheme == "ngl" else rectangle)(16, 0.0, 1.0).weights
    assert np.array_equal(op.matrix, np.sqrt(np.abs(x[:, None] - x[None, :])) * w)


def test_a_complex_kernel_value_fails_instead_of_losing_its_imaginary_part():
    # K_N is float64, so a complex kernel value is refused with ValueError on every
    # scheme, whether or not numpy's ComplexWarning is an error; the value may lie
    # only off the diagonal, where no pre-check reads it
    cplx, real = (lambda x, y: x + 1j * y), (lambda x, y: x * y)
    smooth, split, upper = (KernelSpec(0.0, 1.0, k1=cplx), KernelSpec(0.0, 1.0, k1=cplx, k2=cplx),
                            KernelSpec(0.0, 1.0, k1=real, k2=cplx))
    cases = [(spec, scheme, zero_diag) for spec in (smooth, split, upper)
             for scheme, zero_diag in (("ngl", False), ("rect", False), ("ncc", False),
                                       ("ngl", True), ("rect", True))]
    cases += [(KernelSpec(0.0, 1.0, alpha=0.5, h=cplx), "singular", False)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec, scheme, zero_diag in cases:
            with pytest.raises(ValueError, match="kernel values must be real"):
                assemble(spec, scheme, 8, zero_diag)


@pytest.mark.parametrize("cfg, scheme", [
    ({"expr": {"h": "log(x)"}, "domain": [0, 1], "alpha": 0.5}, "singular"),
    ({"expr": {"k1": "sqrt(x - y)", "k2": "sqrt(y - x)"}, "domain": [0, 1]}, "ncc"),
], ids=["log_h_singular", "sqrt_split_ncc"])
def test_a_kernel_not_finite_where_it_is_read_fails_quietly(cfg, scheme):
    # log(0) at the node x = 0, and a branch read on the other's side (ncc
    # reads both branches on the whole grid): ValueError, and no RuntimeWarning
    spec = from_config(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="finite"):
            assemble(spec, scheme, 8)
    assert caught == []


def _doubling(x, y):
    """A kernel that writes into its first argument."""
    x *= 2.0
    return x + y


def _sine_into_y(x, y):
    """A kernel that writes into its second argument through numpy's out."""
    return np.sin(x, out=y)


@pytest.mark.parametrize("fields", [{"k1": _doubling}, {"k1": _doubling, "k2": _sine_into_y},
                                    {"k1": lambda x, y: x * y, "k2": _sine_into_y}],
                         ids=["smooth", "split", "split_k2"])
@pytest.mark.parametrize("zero_diag", [False, True])
def test_a_kernel_that_writes_into_the_nodes_raises_on_ngl(fields, zero_diag):
    rule = gauss_legendre(4, 0.0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        assemble_nystrom(KernelSpec(0.0, 1.0, **fields), rule, zero_diag=zero_diag)
    assert np.array_equal(rule.nodes, gauss_legendre(4, 0.0, 1.0).nodes)


@pytest.mark.parametrize("scheme, fields", [
    ("ncc", {"k1": _doubling, "k2": lambda x, y: x * y}),
    ("ncc", {"k1": lambda x, y: x * y, "k2": _doubling}),
    ("ncc", {"k1": lambda x, y: x * y, "k2": _sine_into_y}),
    ("singular", {"h": _doubling, "alpha": 0.5}),
], ids=["ncc_k1", "ncc_k2", "ncc_k2_out", "singular_h"])
def test_a_kernel_that_writes_into_the_nodes_raises_on_ncc_and_singular(scheme, fields):
    # the nodes and cached spectral operators these schemes build from stay as they
    # were: a well-behaved kernel assembles the same matrix before and after
    good = registry("green" if scheme == "ncc" else "abs_pow")
    before = assemble(good, scheme, 8)
    with pytest.raises(ValueError, match="read-only"):
        assemble(KernelSpec(good.a, good.b, **fields), scheme, 8)
    after = assemble(good, scheme, 8)
    assert np.array_equal(after.matrix, before.matrix)
    assert np.array_equal(after.nodes, before.nodes)
