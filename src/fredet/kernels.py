"""Kernel specifications: built-in registry, expression kernels, JSON config."""

import ast
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SMOOTH = "smooth"
SPLIT = "split"
SINGULAR = "singular"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel k(x, y) on the square [a, b]^2.

    form selects the shape:
      smooth    k1 is the kernel on the whole square
      split     k1 on a <= y <= x (diagonal included), k2 on x < y <= b
      singular  k(x, y) = |x - y|^(-alpha) * h(x, y), 0 <= alpha < 1
    Callables are numpy-vectorized in both arguments.
    """

    a: float
    b: float
    form: str
    k1: Optional[Callable] = None
    k2: Optional[Callable] = None
    alpha: float = 0.0
    h: Optional[Callable] = None
    name: str = ""

    @property
    def domain(self):
        return (self.a, self.b)


def _ones(x, y):
    return np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape)


def _neg_ones(x, y):
    return -np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape)


def _green_lower(x, y):
    return y * (1.0 - x)


def _green_upper(x, y):
    return x * (1.0 - y)


def _bernoulli(x, y):
    d = np.asarray(x) - np.asarray(y)
    return 1.0 / 12.0 - 0.5 * np.abs(d) + 0.5 * d * d


def _iter2_lower(x, y):
    # closed form of int |x-s|^(-1/2) |s-y|^(-1/2) ds on [-1, 1] for y <= x;
    # diverges logarithmically as y -> x
    sp = np.sqrt((1.0 + x) * (1.0 + y))
    sm = np.sqrt((1.0 - x) * (1.0 - y))
    return -np.log(2.0 + x + y - 2.0 * sp) + np.pi + np.log(2.0 - x - y + 2.0 * sm)


def _iter2_upper(x, y):
    sp = np.sqrt((1.0 + x) * (1.0 + y))
    sm = np.sqrt((1.0 - x) * (1.0 - y))
    return -np.log(2.0 - x - y - 2.0 * sm) + np.pi + np.log(2.0 + x + y + 2.0 * sp)


def registry(name: str, params: Optional[dict] = None) -> KernelSpec:
    """Built-in kernels by name.

    green           y(1-x) / x(1-y) on [0, 1], continuous with a derivative jump
    bernoulli       1/12 - |x-y|/2 + (x-y)^2/2 on [0, 1]
    sign            +1 below the diagonal, -1 above, on [-1, 1]
    abs_pow         |x-y|^(-alpha) on [-1, 1]; params={"alpha": ...}, default 1/2
    abs_pow_iter2   closed-form square of abs_pow(1/2); log-singular diagonal
    """
    params = dict(params or {})
    alpha = params.pop("alpha", 0.5)
    if params:
        raise ValueError(f"unknown kernel params: {sorted(params)}")
    if name == "green":
        return KernelSpec(0.0, 1.0, SPLIT, k1=_green_lower, k2=_green_upper, name=name)
    if name == "bernoulli":
        return KernelSpec(0.0, 1.0, SMOOTH, k1=_bernoulli, name=name)
    if name == "sign":
        return KernelSpec(-1.0, 1.0, SPLIT, k1=_ones, k2=_neg_ones, name=name)
    if name == "abs_pow":
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        return KernelSpec(-1.0, 1.0, SINGULAR, alpha=alpha, h=_ones, name=name)
    if name == "abs_pow_iter2":
        return KernelSpec(-1.0, 1.0, SPLIT, k1=_iter2_lower, k2=_iter2_upper, name=name)
    raise ValueError(f"unknown kernel {name!r}")


KERNEL_NAMES = ("green", "bernoulli", "sign", "abs_pow", "abs_pow_iter2")

# interior points at which has_diagonal_jump compares the two branches
_JUMP_PROBES = 13


def has_diagonal_jump(spec: KernelSpec) -> bool:
    """True if the kernel is discontinuous (or singular) across the diagonal."""
    if spec.form == SINGULAR:
        return spec.alpha > 0.0
    if spec.form == SMOOTH:
        return False
    eps = 1e-7 * (spec.b - spec.a)
    xs = np.linspace(spec.a, spec.b, _JUMP_PROBES + 2)[1:-1]
    # a diverging branch value on the diagonal is an expected outcome here
    with np.errstate(divide="ignore", invalid="ignore"):
        for x in xs:
            lo = spec.k1(x, x)
            hi = spec.k2(x, min(x + eps, spec.b))
            if not (np.isfinite(lo) and np.isfinite(hi)):
                return True
            if abs(lo - hi) > 1e-5 * (1.0 + abs(lo) + abs(hi)):
                return True
    return False


# --- expression kernels ----------------------------------------------------

_EXPR_FUNCS = {
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "asin": np.arcsin,
    "acos": np.arccos,
    "atan": np.arctan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}
_EXPR_NAMES = {"x", "y", "pi", "e"}
_EXPR_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def parse_expr(src: str) -> Callable:
    """Compile an arithmetic expression in x and y to a vectorized callable.

    Grammar: +, -, *, /, ** with numeric literals, names x, y, pi, e and
    calls to abs/exp/log/sqrt/trig/hyperbolic functions.  Anything else is
    rejected at parse time.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad kernel expression {src!r}: {exc}") from None
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Constant, ast.Load)):
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ValueError(f"non-numeric literal in kernel expression: {node.value!r}")
            continue
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            if not isinstance(node.op, _EXPR_OPS):
                raise ValueError(f"operator {type(node.op).__name__} not allowed in kernel expression")
            continue
        if isinstance(node, _EXPR_OPS):
            continue
        if isinstance(node, ast.Name):
            if node.id not in _EXPR_NAMES and node.id not in _EXPR_FUNCS:
                raise ValueError(f"unknown name {node.id!r} in kernel expression")
            continue
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
                raise ValueError("only abs/exp/log/sqrt/trig calls allowed in kernel expression")
            if node.keywords:
                raise ValueError("keyword arguments not allowed in kernel expression")
            continue
        raise ValueError(f"{type(node).__name__} not allowed in kernel expression")
    code = compile(tree, "<kernel>", "eval")
    env = {"__builtins__": {}, "pi": np.pi, "e": np.e, **_EXPR_FUNCS}

    def kernel_fn(x, y):
        return eval(code, env, {"x": x, "y": y})

    return kernel_fn


def from_config(cfg: dict) -> KernelSpec:
    """Build a KernelSpec from a JSON-style mapping.

    Either {"name": <registry name>, "alpha": ...} or
    {"expr": {"k": ...} | {"k1": ..., "k2": ...} | {"h": ...},
     "domain": [a, b], "alpha": ...}.
    """
    if not isinstance(cfg, dict):
        raise ValueError("kernel config must be a mapping")
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    expr = cfg.pop("expr", None)
    domain = cfg.pop("domain", None)
    alpha = cfg.pop("alpha", None)
    if cfg:
        raise ValueError(f"unknown kernel config fields: {sorted(cfg)}")
    if (name is None) == (expr is None):
        raise ValueError("kernel config needs exactly one of 'name' or 'expr'")
    if name is not None:
        params = {} if alpha is None else {"alpha": alpha}
        return registry(name, params)

    if not isinstance(expr, dict):
        raise ValueError("'expr' must be a mapping of expression strings")
    if domain is None:
        raise ValueError("expression kernels require 'domain': [a, b]")
    try:
        a, b = float(domain[0]), float(domain[1])
    except (TypeError, ValueError, IndexError):
        raise ValueError(f"bad domain {domain!r}, expected [a, b]") from None
    if not a < b:
        raise ValueError(f"bad domain [{a}, {b}]")

    keys = set(expr)
    if keys == {"k"}:
        return KernelSpec(a, b, SMOOTH, k1=parse_expr(expr["k"]), name="expr")
    if keys == {"k1", "k2"}:
        return KernelSpec(a, b, SPLIT, k1=parse_expr(expr["k1"]), k2=parse_expr(expr["k2"]), name="expr")
    if keys == {"h"}:
        if alpha is None:
            raise ValueError("singular expression kernels require 'alpha'")
        alpha = float(alpha)
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        return KernelSpec(a, b, SINGULAR, alpha=alpha, h=parse_expr(expr["h"]), name="expr")
    raise ValueError("'expr' must have keys {'k'}, {'k1','k2'} or {'h'}")


def load_kernel_file(path: str) -> KernelSpec:
    """Read a kernel config JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return from_config(cfg)
