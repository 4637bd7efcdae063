import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fredet.discretize import assemble_nystrom
from fredet.kernels import (_EXPR_FUNCS, KERNEL_NAMES, KernelSpec, from_config,
                            has_diagonal_jump, load_kernel_file, parse_expr, registry)
from fredet.quadrature import QuadRule, gauss_legendre


def test_registry_names_and_domains():
    assert set(KERNEL_NAMES) == {"green", "bernoulli", "sign", "abs_pow", "abs_pow_iter2"}
    assert registry("green").domain == (0.0, 1.0)
    assert registry("bernoulli").domain == (0.0, 1.0)
    for name in ("sign", "abs_pow", "abs_pow_iter2"):
        assert registry(name).domain == (-1.0, 1.0)
    with pytest.raises(ValueError, match="unknown kernel"):
        registry("nope")
    for name in KERNEL_NAMES:  # only abs_pow takes a parameter
        if name != "abs_pow":
            with pytest.raises(ValueError, match="unknown params"):
                registry(name, {"alpha": 0.5})


def test_green_kernel_values():
    g = registry("green")
    assert abs(g.k1(0.7, 0.3) - 0.3 * 0.3) < 1e-15  # y(1-x) below
    assert abs(g.k2(0.3, 0.7) - 0.3 * 0.3) < 1e-15  # x(1-y) above
    assert abs(g.k1(0.5, 0.5) - 0.25) < 1e-15       # continuous on the diagonal
    assert abs(g.k2(0.5, 0.5) - 0.25) < 1e-15


def test_bernoulli_kernel_values():
    b = registry("bernoulli")
    d = 0.25 - 0.75
    expect = 1.0 / 12.0 - 0.5 * abs(d) + 0.5 * d * d
    assert abs(b.k1(0.25, 0.75) - expect) < 1e-15
    assert abs(b.k1(0.25, 0.75) - b.k1(0.75, 0.25)) < 1e-15
    assert abs(b.k1(0.4, 0.4) - 1.0 / 12.0) < 1e-15


def test_sign_kernel_values():
    s = registry("sign")
    assert s.k1(0.5, -0.5) == 1.0
    assert s.k2(-0.5, 0.5) == -1.0
    # the diagonal belongs to the lower branch: a one-node rule at x = 0.2 reads k1
    one_node = QuadRule(-1.0, 1.0, np.array([0.2]), np.array([1.0]))
    assert assemble_nystrom(s, one_node).matrix[0, 0] == 1.0


def test_abs_pow_kernel():
    k = registry("abs_pow")
    assert k.alpha == 0.5
    assert abs(0.5 ** -k.alpha * k.h(0.5, 0.0) - np.sqrt(2.0)) < 1e-14
    k3 = registry("abs_pow", {"alpha": 0.3})
    assert k3.alpha == 0.3 and k3.h(0.5, 0.0) == 1.0
    with pytest.raises(ValueError, match="alpha"):
        registry("abs_pow", {"alpha": 1.0})
    with pytest.raises(ValueError, match="params"):
        registry("abs_pow", {"beta": 2})


# oracle values from 30-digit adaptive quadrature of
# int_{-1}^{1} |x-s|^(-1/2) |s-y|^(-1/2) ds, frozen
_ITER2_POINTS = [
    (0.3, -0.5, 6.2620861980001434),
    (0.7, 0.2, 7.0104988266798580),
    (-0.25, 0.75, 5.6708155406814112),
]


def test_iter2_kernel_matches_integral_oracle():
    k = registry("abs_pow_iter2")
    for x, y, expect in _ITER2_POINTS:
        lo, hi = min(x, y), max(x, y)
        assert abs(k.k1(hi, lo) - expect) < 1e-12, (x, y)  # below the diagonal
        assert abs(k.k1(lo, hi) - expect) < 1e-12  # above: the iterated kernel is symmetric


def test_iter2_kernel_corner_closed_forms():
    k = registry("abs_pow_iter2")
    assert abs(k.k1(-1.0, 1.0) - np.pi) < 1e-12
    expect = np.pi + 2.0 * np.log(1.0 + np.sqrt(2.0))
    assert abs(k.k1(-1.0, 0.0) - expect) < 1e-12


def test_iter2_kernel_is_accurate_at_both_corners():
    # near x = y = -1 and x = y = 1 the closed form's two branch formulas,
    # 2 +- (x + y) - 2 sqrt((1 +- x)(1 +- y)), cancel; the kernel must not.  The
    # pairs are neighbouring Gauss-Legendre nodes of N = 1024 in each corner
    mpmath = pytest.importorskip("mpmath")
    k = registry("abs_pow_iter2").k1
    nodes = gauss_legendre(1024, -1.0, 1.0).nodes
    with mpmath.workdps(40):
        for x, y in ((nodes[1], nodes[2]), (nodes[-2], nodes[-3]), (nodes[0], nodes[1])):
            for u, v in ((x, y), (y, x)):
                mu, mv = mpmath.mpf(u), mpmath.mpf(v)
                want = mpmath.pi + 2 * mpmath.log((mpmath.sqrt(1 + mu) + mpmath.sqrt(1 + mv))
                                                  * (mpmath.sqrt(1 - mu) + mpmath.sqrt(1 - mv))
                                                  / abs(mu - mv))
                assert abs(k(u, v) - want) <= 1e-14 * want, (u, v)


def test_iter2_kernel_is_symmetric_bit_for_bit():
    k = registry("abs_pow_iter2").k1
    x = np.random.default_rng(11).uniform(-1.0, 1.0, 300)
    with np.errstate(all="ignore"):  # the grid's own diagonal is log-singular
        grid = k(x[:, None], x[None, :])
    assert np.array_equal(grid, grid.T)
    assert np.array_equal(k(x[:-1], x[1:]), k(x[1:], x[:-1]))


def test_has_diagonal_jump():
    assert not has_diagonal_jump(registry("green"))
    assert not has_diagonal_jump(registry("bernoulli"))
    assert has_diagonal_jump(registry("sign"))
    assert has_diagonal_jump(registry("abs_pow"))
    assert not has_diagonal_jump(registry("abs_pow", {"alpha": 0.0}))
    assert has_diagonal_jump(registry("abs_pow_iter2"))  # log blow-up at y -> x


def test_has_diagonal_jump_sees_a_smooth_kernel_not_finite_on_the_diagonal():
    # probed quietly: a RuntimeWarning fails this suite
    assert has_diagonal_jump(from_config({"expr": {"k": "log(abs(x - y))"}, "domain": [0, 1]}))
    assert not has_diagonal_jump(from_config({"expr": {"k": "abs(x - y)"}, "domain": [0, 1]}))


def test_parse_expr_evaluates_vectorized():
    f = parse_expr("x*y + sin(pi*x)")
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([1.0, 2.0, 3.0])
    expect = x * y + np.sin(np.pi * x)
    assert np.allclose(f(x, y), expect, atol=1e-14)
    g = parse_expr("exp(-abs(x - y)) / 2")
    assert abs(g(0.3, -0.2) - np.exp(-0.5) / 2) < 1e-14


@pytest.mark.parametrize("src", [
    "__import__('os')",
    "x.real",
    "x[0]",
    "x < y",
    "'a'",
    "f(x)",
    "lambda: 1",
    "x if y else 0",
    "x ; y",
    "x % y",
    "exp(x, key=1)",
    "sin()",
    "sin(x, y)",
    "sin(*x)",
    "sin + x",
    "1j * x",
    pytest.param("-" * 100000 + "x", id="minus_chain_100000"),
    pytest.param("x*" + "9" * 400, id="int_literal_400_digits"),
])
def test_parse_expr_rejects(src):
    with pytest.raises(ValueError):
        parse_expr(src)


@pytest.mark.parametrize("unit, depth", [("x+", 199999), ("-", 100000)],
                         ids=["sum_chain", "minus_chain"])
def test_long_bad_expression_message_quotes_a_prefix(unit, depth):
    src = unit * depth + "x"
    with pytest.raises(ValueError, match=r"^bad kernel expression '[-x+]{60}'\.\.\.: ") as exc:
        parse_expr(src)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("src, pattern", [
    ("q" * 100000, r"^unknown name 'q{60}'\.\.\. in kernel expression$"),
    ('"' + "a" * 100000 + '"', r"^non-numeric literal in kernel expression: 'a{60}'\.\.\.$"),
    ("-" * 100000 + "x", r"^bad kernel expression '-{60}'\.\.\.: \S"),
], ids=["long_name", "long_literal", "minus_chain"])
def test_long_refusals_quote_a_prefix_and_give_a_reason(src, pattern):
    with pytest.raises(ValueError, match=pattern) as exc:
        parse_expr(src)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("cfg", [
    {"name": "q" * 100000},
    {"name": list(range(100000)), "domain": [0, 1]},
    {"name": "green", "q" * 100000: 1},
    {"expr": {"k": "x"}, "domain": list(range(100000))},
    {"expr": {"k": list(range(100000))}, "domain": [0, 1]},
    {"name": "abs_pow", "alpha": "9" * 100000},
], ids=["name", "name_with_domain", "field", "domain", "expr", "alpha"])
def test_long_config_values_are_quoted_as_a_prefix(cfg):
    with pytest.raises(ValueError) as exc:
        from_config(cfg)
    assert len(str(exc.value)) < 200


def test_a_name_that_is_not_a_string_is_an_unknown_kernel():
    for name in ([1], {"a": 1}, None):
        with pytest.raises(ValueError, match="unknown kernel"):
            registry(name)


def test_short_bad_expression_message_quotes_the_whole_source():
    src = "x+" * 29 + "x*"
    with pytest.raises(ValueError) as exc:
        parse_expr(src)
    assert str(exc.value).startswith(f"bad kernel expression {src!r}: ")


def test_constant_parts_are_float64():
    # no Python int or float arithmetic: 1/0 is inf and 9**9**9 overflows at once
    x = np.array([0.25, 0.5])
    with np.errstate(all="ignore"):
        assert np.all(parse_expr("x + 1/0")(x, x) == np.inf)
        assert np.all(parse_expr("x * 9**9**9")(x, x) == np.inf)
        assert np.all(np.isnan(parse_expr("x * (-1)**0.5")(x, x)))
    assert type(parse_expr("2")(x, x)) is np.float64


def test_two_argument_call_is_refused_before_the_nodes_are_read():
    # numpy reads a second argument as `out`: sin(x, y) would write into the rule's nodes
    rule = gauss_legendre(4, 0.0, 1.0)
    before = rule.nodes.tobytes()
    with pytest.raises(ValueError, match="one argument"):
        assemble_nystrom(from_config({"expr": {"k": "sin(x, y)"}, "domain": [0, 1]}), rule)
    assert rule.nodes.tobytes() == before


def _expressions(depth):
    # depth <= 3 with small integer literals keeps every integer part of the oracle below
    # 2**53, where Python int and float64 arithmetic round alike
    leaves = st.one_of(st.sampled_from(["x", "y"]),
                       st.sampled_from(["pi", "e", "0", "1", "2", "3", "7", "9", "0.5", "1.25"]))
    if depth == 0:
        return leaves
    sub = _expressions(depth - 1)
    return st.one_of(
        leaves,
        st.builds("{}({})".format, st.sampled_from(sorted(_EXPR_FUNCS)), sub),
        st.builds("{}({})".format, st.sampled_from(["-", "+"]), sub),
        st.builds("({}) {} ({})".format, sub, st.sampled_from(["+", "-", "*", "/"]), sub),
        st.builds("({})**{}".format, sub, st.sampled_from(["2", "3", "0.5", "-1", "1.5", "0"])))


_ORACLE_ENV = {"__builtins__": {}, **_EXPR_FUNCS, "pi": np.pi, "e": np.e}
_X, _Y = np.linspace(-1.0, 1.0, 7)[:, None], np.linspace(0.1, 2.0, 5)[None, :]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(src=_expressions(3))
def test_parse_expr_matches_python_eval_bit_for_bit(src):
    # the sign of a zero is the one difference: -0 is 0 as a Python int, -0.0 in float64
    with np.errstate(all="ignore"):
        try:
            want = np.asarray(eval(src, _ORACLE_ENV, {"x": _X, "y": _Y}))
        except (ArithmeticError, ValueError):
            return
        got = np.asarray(parse_expr(src)(_X, _Y))
    if want.dtype.kind not in "iuf" or not np.all(np.isfinite(want)):
        return
    assert got.dtype == np.float64 and got.shape == want.shape
    assert (got + 0.0).tobytes() == (want.astype(np.float64) + 0.0).tobytes(), src


def test_from_config_registry_route():
    spec = from_config({"name": "abs_pow", "alpha": 0.25})
    assert spec.form == "singular" and spec.alpha == 0.25


def test_from_config_expression_routes():
    smooth = from_config({"expr": {"k": "x*y"}, "domain": [0, 1]})
    assert smooth.form == "smooth" and smooth.k1(0.5, 0.4) == 0.2
    split = from_config({"expr": {"k1": "1 + 0*x", "k2": "-1 + 0*x"}, "domain": [-1, 1]})
    assert split.form == "split"
    assert split.k1(0.5, -0.5) == 1.0 and split.k2(-0.5, 0.5) == -1.0
    sing = from_config({"expr": {"h": "1 + 0*x"}, "domain": [-1, 1], "alpha": 0.5})
    assert sing.form == "singular"
    assert abs(0.5 ** -sing.alpha * sing.h(0.5, 0.0) - np.sqrt(2.0)) < 1e-14


@pytest.mark.parametrize("cfg,msg", [
    ({}, "exactly one"),
    ({"name": "green", "expr": {"k": "x"}, "domain": [0, 1]}, "exactly one"),
    ({"expr": {"k": "x*y"}}, "domain"),
    ({"expr": {"k": "x*y"}, "domain": [1, 0]}, "domain"),
    ({"expr": {"h": "x*y"}, "domain": [0, 1]}, "alpha"),
    ({"expr": {"k1": "x"}, "domain": [0, 1]}, "keys"),
    ({"name": "green", "scale": 2}, "unknown"),
    ("green", "mapping"),
    ({"name": "abs_pow_iter2", "alpha": 0.3}, "unknown params"),
    ({"name": "green", "domain": [0, 2]}, "fixed domain"),
    ({"expr": {"k": "x*y"}, "domain": [0, 1], "alpha": 0.3}, "alpha"),
    ({"expr": {"k": "x"}, "domain": [0, 1, 7]}, "domain"),
    ({"expr": {"k": "x"}, "domain": ["0", "1"]}, "domain"),
    ({"expr": {"k": "x"}, "domain": [0, float("inf")]}, "domain"),
    ({"name": "abs_pow", "alpha": "0.3"}, "real number"),
    ({"expr": {"k": 5}, "domain": [0, 1]}, "string"),
])
def test_from_config_rejects(cfg, msg):
    with pytest.raises(ValueError, match=msg):
        from_config(cfg)


_F = parse_expr("x")

# the form of each built-in kernel, from the callables it holds
_REGISTRY_FORMS = {"green": "split", "bernoulli": "smooth", "sign": "split",
                   "abs_pow": "singular", "abs_pow_iter2": "smooth"}


def test_form_follows_the_callables():
    assert {name: registry(name).form for name in KERNEL_NAMES} == _REGISTRY_FORMS
    assert tuple(_REGISTRY_FORMS) == KERNEL_NAMES
    assert "form" not in {f.name for f in dataclasses.fields(KernelSpec)}
    assert len(dataclasses.fields(KernelSpec)) == 7
    assert KernelSpec(0.0, 1.0, k1=_F).form == "smooth"
    assert KernelSpec(0.0, 1.0, k1=_F, k2=_F).form == "split"
    assert KernelSpec(0.0, 1.0, h=_F, alpha=0.3).form == "singular"


@pytest.mark.parametrize("a, b, fields, msg", [
    (0.0, 1.0, {"k2": _F}, "k1 and k2"),
    (0.0, 1.0, {"k1": _F, "h": _F}, "k1 and k2"),
    (0.0, 1.0, {}, "k1 and k2"),
    (0.0, 1.0, {"k1": _F, "alpha": 0.3}, "only to a singular"),
    (0.0, 1.0, {"h": _F, "alpha": 1.0}, "alpha"),
    (0.0, 1.0, {"h": _F, "alpha": True}, "alpha"),
    (1.0, 0.0, {"k1": _F}, "domain"),
    (0.0, 0.0, {"k1": _F}, "domain"),
    (0.0, float("inf"), {"k1": _F}, "domain"),
    (float("nan"), 1.0, {"k1": _F}, "domain"),
    ("0", 1.0, {"k1": _F}, "domain"),
], ids=["k2_without_k1", "k1_and_h", "no_callable", "alpha_without_h", "alpha_one",
        "alpha_bool", "reversed", "empty", "infinite", "nan", "string"])
def test_kernel_spec_refuses_what_is_no_kernel(a, b, fields, msg):
    with pytest.raises(ValueError, match=msg):
        KernelSpec(a, b, **fields)


def test_load_kernel_file_round_trip(tmp_path):
    path = tmp_path / "kern.json"
    path.write_text(json.dumps({"expr": {"k": "x + y"}, "domain": [0, 2]}))
    spec = load_kernel_file(str(path))
    assert spec.domain == (0.0, 2.0)
    assert spec.k1(0.5, 1.0) == 1.5


def test_load_kernel_file_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        load_kernel_file(str(path))


def test_kernel_spec_is_frozen():
    spec = registry("green")
    with pytest.raises(Exception):
        spec.a = 2.0
    assert isinstance(spec, KernelSpec)
