import json

import numpy as np
import pytest

from fredet.discretize import assemble_nystrom
from fredet.kernels import (KERNEL_NAMES, KernelSpec, from_config, has_diagonal_jump,
                            load_kernel_file, parse_expr, registry)
from fredet.quadrature import QuadRule


def test_registry_names_and_domains():
    assert set(KERNEL_NAMES) == {"green", "bernoulli", "sign", "abs_pow", "abs_pow_iter2"}
    assert registry("green").domain == (0.0, 1.0)
    assert registry("bernoulli").domain == (0.0, 1.0)
    for name in ("sign", "abs_pow", "abs_pow_iter2"):
        assert registry(name).domain == (-1.0, 1.0)
    with pytest.raises(ValueError, match="unknown kernel"):
        registry("nope")


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
        assert abs(k.k2(lo, hi) - expect) < 1e-12  # above: the iterated kernel is symmetric


def test_iter2_kernel_corner_closed_forms():
    k = registry("abs_pow_iter2")
    assert abs(k.k2(-1.0, 1.0) - np.pi) < 1e-12
    expect = np.pi + 2.0 * np.log(1.0 + np.sqrt(2.0))
    assert abs(k.k2(-1.0, 0.0) - expect) < 1e-12


def test_has_diagonal_jump():
    assert not has_diagonal_jump(registry("green"))
    assert not has_diagonal_jump(registry("bernoulli"))
    assert has_diagonal_jump(registry("sign"))
    assert has_diagonal_jump(registry("abs_pow"))
    assert not has_diagonal_jump(registry("abs_pow", {"alpha": 0.0}))
    assert has_diagonal_jump(registry("abs_pow_iter2"))  # log blow-up at y -> x


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
])
def test_parse_expr_rejects(src):
    with pytest.raises(ValueError):
        parse_expr(src)


def test_from_config_registry_route():
    spec = from_config({"name": "abs_pow", "alpha": 0.25})
    assert spec.form == "singular" and spec.alpha == 0.25


def test_from_config_expression_routes():
    smooth = from_config({"expr": {"k": "x*y"}, "domain": [0, 1]})
    assert smooth.form == "smooth" and smooth.k1(0.5, 0.4) == 0.2
    split = from_config({"expr": {"k1": "1 + 0*x", "k2": "-1 + 0*x"}, "domain": [-1, 1]})
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
])
def test_from_config_rejects(cfg, msg):
    with pytest.raises(ValueError, match=msg):
        from_config(cfg)


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
