"""Kernel specifications: built-in registry, expression kernels, JSON config."""

import ast
import inspect
import json
import math
import operator
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional

import numpy as np

SMOOTH = "smooth"
SPLIT = "split"
SINGULAR = "singular"

# which of (k1, k2, h) a spec holds -> its form
_FORMS = {(True, False, False): SMOOTH, (True, True, False): SPLIT, (False, False, True): SINGULAR}


def _is_real(v):
    return isinstance(v, Real) and not isinstance(v, bool)


def _quote(value) -> str:
    """repr(value) for a refusal, cut to 60 characters plus ...; a str is cut before its repr."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 60 else f"{value[:60]!r}..."
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}..."


@dataclass(frozen=True)
class KernelSpec:
    """A kernel k(x, y) on the square [a, b]^2, a < b finite.

    The form follows from the callables set, and no other set is valid:
      smooth    k1 alone: the kernel on the whole square
      split     k1 and k2: k1 on a <= y <= x (diagonal included), k2 on x < y <= b
      singular  h alone: k(x, y) = |x - y|^(-alpha) * h(x, y)
    alpha is a real number in [0, 1), nonzero only with h.  An invalid spec
    raises ValueError.  Callables are numpy-vectorized in both arguments and
    return real values: assembly refuses a complex one with ValueError.
    """

    a: float
    b: float
    k1: Optional[Callable] = None
    k2: Optional[Callable] = None
    alpha: float = 0.0
    h: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        if self.form is None:
            got = [f for f in ("k1", "k2", "h") if getattr(self, f) is not None]
            raise ValueError(f"a kernel holds k1 (smooth), k1 and k2 (split) or h (singular), "
                             f"got {got}")
        if not (_is_real(self.alpha) and 0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must be a real number in [0, 1), got {_quote(self.alpha)}")
        if self.alpha and self.h is None:
            raise ValueError(f"alpha applies only to a singular kernel (h), got {self.alpha!r}")
        if not (_is_real(self.a) and _is_real(self.b) and math.isfinite(self.a)
                and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"bad domain [{self.a!r}, {self.b!r}], expected finite a < b")

    @property
    def form(self):
        """smooth, split or singular; None for a set of callables that is no form."""
        return _FORMS.get((self.k1 is not None, self.k2 is not None, self.h is not None))

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


def _iter2(x, y):
    # closed form of int |x-s|^(-1/2) |s-y|^(-1/2) ds on [-1, 1], free of cancellation
    # and symmetric in floating point; diverges logarithmically as y -> x
    p = np.sqrt(1.0 + x) + np.sqrt(1.0 + y)
    m = np.sqrt(1.0 - x) + np.sqrt(1.0 - y)
    return np.pi + 2.0 * np.log(p * m / np.abs(x - y))


_REGISTRY = {
    "green": lambda: KernelSpec(0.0, 1.0, k1=_green_lower, k2=_green_upper, name="green"),
    "bernoulli": lambda: KernelSpec(0.0, 1.0, k1=_bernoulli, name="bernoulli"),
    "sign": lambda: KernelSpec(-1.0, 1.0, k1=_ones, k2=_neg_ones, name="sign"),
    "abs_pow": lambda alpha=0.5: KernelSpec(-1.0, 1.0, alpha=alpha, h=_ones, name="abs_pow"),
    "abs_pow_iter2": lambda: KernelSpec(-1.0, 1.0, k1=_iter2, name="abs_pow_iter2"),
}

KERNEL_NAMES = tuple(_REGISTRY)


def registry(name: str, params: Optional[dict] = None) -> KernelSpec:
    """Built-in kernels by name.

    green           y(1-x) / x(1-y) on [0, 1], continuous with a derivative jump
    bernoulli       1/12 - |x-y|/2 + (x-y)^2/2 on [0, 1]
    sign            +1 below the diagonal, -1 above, on [-1, 1]
    abs_pow         |x-y|^(-alpha) on [-1, 1]; params={"alpha": ...}, default 1/2
    abs_pow_iter2   pi + 2 log((sqrt(1+x) + sqrt(1+y)) (sqrt(1-x) + sqrt(1-y)) / |x-y|)
                    on [-1, 1], the kernel of abs_pow(1/2) squared; log-singular diagonal

    Only abs_pow takes a parameter; any other raises ValueError.
    """
    if not isinstance(name, str) or name not in _REGISTRY:
        raise ValueError(f"unknown kernel {_quote(name)}")
    build = _REGISTRY[name]
    params = params or {}
    unknown = set(params) - set(inspect.signature(build).parameters)
    if unknown:
        raise ValueError(f"unknown params for kernel {name!r}: {_quote(sorted(unknown))}")
    return build(**params)


# interior points at which has_diagonal_jump probes the diagonal
_JUMP_PROBES = 13


def has_diagonal_jump(spec: KernelSpec) -> bool:
    """True if the kernel is discontinuous across the diagonal or not finite on it:
    a singular kernel with alpha > 0, a smooth one whose k1 is not finite at a probe
    point (x, x), or a split one whose branches are not finite there or disagree."""
    if spec.form == SINGULAR:
        return spec.alpha > 0.0
    eps = 1e-7 * (spec.b - spec.a)
    xs = np.linspace(spec.a, spec.b, _JUMP_PROBES + 2)[1:-1]
    # a diverging value on the diagonal is an expected outcome here
    with np.errstate(all="ignore"):
        lo = spec.k1(xs, xs)
        if spec.form == SMOOTH:
            return not np.all(np.isfinite(lo))
        hi = spec.k2(xs, np.minimum(xs + eps, spec.b))
        near = np.abs(lo - hi) <= 1e-5 * (1.0 + np.abs(lo) + np.abs(hi))
    return not np.all(np.isfinite(lo) & np.isfinite(hi) & near)


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
_EXPR_NAMES = {"x": lambda x, y: x, "y": lambda x, y: y,
               "pi": lambda x, y: np.float64(np.pi), "e": lambda x, y: np.float64(np.e)}
# operator.pow, not np.power: ndarray ** scalar keeps numpy's x**2 and x**0.5 fast paths
_EXPR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv, ast.Pow: operator.pow, ast.USub: operator.neg,
             ast.UAdd: operator.pos}


def _build(node) -> Callable:
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric literal in kernel expression: {_quote(node.value)}")
        value = np.float64(node.value)
        return lambda x, y: value
    if isinstance(node, ast.Name):
        if node.id not in _EXPR_NAMES:
            raise ValueError(f"unknown name {_quote(node.id)} in kernel expression")
        return _EXPR_NAMES[node.id]
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS:
            raise ValueError("only abs/exp/log/sqrt/trig calls allowed in kernel expression")
        if node.keywords:
            raise ValueError("keyword arguments not allowed in kernel expression")
        if len(node.args) != 1:
            raise ValueError(f"{node.func.id}() takes one argument, got {len(node.args)}")
        fn, arg = _EXPR_FUNCS[node.func.id], _build(node.args[0])
        return lambda x, y: fn(arg(x, y))
    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) not in _EXPR_OPS:
        raise ValueError(f"operator {type(node.op).__name__} not allowed in kernel expression")
    if isinstance(node, ast.UnaryOp):
        op, arg = _EXPR_OPS[type(node.op)], _build(node.operand)
        return lambda x, y: op(arg(x, y))
    if isinstance(node, ast.BinOp):
        op, left, right = _EXPR_OPS[type(node.op)], _build(node.left), _build(node.right)
        return lambda x, y: op(left(x, y), right(x, y))
    raise ValueError(f"{type(node).__name__} not allowed in kernel expression")


def parse_expr(src: str) -> Callable:
    """Build a vectorized callable from an arithmetic expression in x and y.

    Grammar: +, -, *, /, ** with numeric literals, names x, y, pi, e and
    one-argument calls to abs/exp/log/sqrt/trig/hyperbolic functions.  Anything
    else is rejected here.  Arithmetic is float64 numpy: 1/0 is inf, not an error.
    A refusal quotes at most the first 60 characters of the source or name at fault."""
    if not isinstance(src, str):
        raise ValueError(f"kernel expression must be a string, got {_quote(src)}")
    try:
        return _build(ast.parse(src, mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError, OverflowError) as exc:
        reason = str(exc) or "nested too deeply to parse"  # the parser's stack overflow
        raise ValueError(f"bad kernel expression {_quote(src)}: {reason}") from None


_EXPR_KEYS = ({"k"}, {"k1", "k2"}, {"h"})


def from_config(cfg: dict) -> KernelSpec:
    """Build a KernelSpec from a JSON-style mapping.

    Either {"name": <registry name>} ("alpha" only with abs_pow) or
    {"expr": {"k": ...} | {"k1": ..., "k2": ...} | {"h": ...},
     "domain": [a, b], "alpha": ...} ("alpha" required with h, refused without).
    """
    if not isinstance(cfg, dict):
        raise ValueError("kernel config must be a mapping")
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    expr = cfg.pop("expr", None)
    domain = cfg.pop("domain", None)
    alpha = cfg.pop("alpha", None)
    if cfg:
        raise ValueError(f"unknown kernel config fields: {_quote(sorted(cfg))}")
    if (name is None) == (expr is None):
        raise ValueError("kernel config needs exactly one of 'name' or 'expr'")
    if name is not None:
        if domain is not None:
            raise ValueError(f"kernel {_quote(name)} has a fixed domain; "
                             "'domain' is for 'expr' kernels")
        return registry(name, {} if alpha is None else {"alpha": alpha})

    if not isinstance(expr, dict) or set(expr) not in _EXPR_KEYS:
        raise ValueError("'expr' must have keys {'k'}, {'k1','k2'} or {'h'}")
    if domain is None:
        raise ValueError("expression kernels require 'domain': [a, b]")
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2 and all(map(_is_real, domain))):
        raise ValueError(f"bad domain {_quote(domain)}, expected [a, b]")
    if ("h" in expr) != (alpha is not None):
        raise ValueError("'alpha' is required with an 'h' expression and refused without one")
    fields = {"k1" if key == "k" else key: parse_expr(src) for key, src in expr.items()}
    return KernelSpec(float(domain[0]), float(domain[1]), alpha=0.0 if alpha is None else alpha,
                      name="expr", **fields)


def load_kernel_file(path: str) -> KernelSpec:
    """Read a kernel config JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: not a readable JSON file ({exc})") from None
    return from_config(cfg)
