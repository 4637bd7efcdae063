"""Assembly of discrete operators: plain Nystrom, spectral split-kernel, product quadrature."""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kernels import SINGULAR, SMOOTH, SPLIT, KernelSpec
from .linalg import as_complex_matrix
from .quadrature import QuadRule, SpectralOps, singular_moments, spectral_ops

NGL = "NGL"
RECT = "RECT"
NCC = "NCC"
SINGULAR_SCHEME = "SINGULAR"

_SCHEME_BY_RULE = {"gauss_legendre": NGL, "rectangle": RECT}


@dataclass(frozen=True)
class DiscreteOperator:
    """An n x n collocation matrix standing in for the integral operator.

    matrix[i, j] approximates the action weight of node j on node i, so that
    (matrix @ u_samples) approximates (K u)(nodes).  zero_diag records that
    the diagonal was dropped, which turns the plain determinant of I - z*K_N
    into an approximation of the Hilbert-Schmidt-regularized one.
    """

    matrix: np.ndarray
    nodes: np.ndarray
    scheme: str
    domain: Tuple[float, float]
    zero_diag: bool = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _split_values(spec: KernelSpec, x: np.ndarray, y: np.ndarray, skip_diag: bool) -> np.ndarray:
    """Branch-dispatched kernel values on a node grid; optionally skip x == y."""
    out = np.zeros(np.broadcast(x, y).shape)
    if spec.form == SMOOTH:
        lower = np.ones(out.shape, dtype=bool)
    else:
        lower = y <= x
    if skip_diag:
        lower &= y != x
    upper = ~lower
    if skip_diag:
        upper &= y != x
    if np.any(lower):
        out[lower] = spec.k1(x[lower], y[lower])
    if np.any(upper):
        k2 = spec.k1 if spec.form == SMOOTH else spec.k2
        out[upper] = k2(x[upper], y[upper])
    return out


def assemble_nystrom(spec: KernelSpec, rule: QuadRule, zero_diag: bool = False) -> DiscreteOperator:
    """Plain Nystrom matrix K_N[i, j] = w_j * k(x_i, x_j) on the rule's nodes.

    Singular kernels are rejected: pointwise weights cannot see the
    non-integrable factor, use assemble_singular instead.
    """
    if spec.form == SINGULAR:
        raise ValueError("singular kernel passed to assemble_nystrom; use assemble_singular")
    if not (abs(rule.a - spec.a) < 1e-12 and abs(rule.b - spec.b) < 1e-12):
        raise ValueError(f"rule on [{rule.a}, {rule.b}] does not match kernel domain [{spec.a}, {spec.b}]")
    nodes = rule.nodes
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    vals = _split_values(spec, x, y, skip_diag=zero_diag)
    matrix = vals * rule.weights[None, :]
    if zero_diag:
        np.fill_diagonal(matrix, 0.0)
    scheme = _SCHEME_BY_RULE.get(rule.kind, NGL)
    return DiscreteOperator(as_complex_matrix(matrix), nodes, scheme, (spec.a, spec.b), zero_diag)


def assemble_ncc(spec: KernelSpec, n: int) -> DiscreteOperator:
    """Split-kernel spectral collocation matrix on n Chebyshev-Lobatto nodes.

    Row m approximates int_a^x_m k1(x_m, y) u(y) dy + int_x_m^b k2(x_m, y) u(y) dy
    by Chebyshev interpolation of the sampled integrand and exact integration
    of the interpolant:

        K_N = (b - a)/2 * [ (C Sl Cinv) o K1 + (C Sr Cinv) o K2 ],   o = Hadamard

    A smooth kernel is accepted as k1 = k2 = k.  Both branches must be
    evaluable on the closed square.
    """
    if spec.form == SINGULAR:
        raise ValueError("singular kernel passed to assemble_ncc; use assemble_singular")
    ops = spectral_ops(n)
    a, b = spec.a, spec.b
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * ops.points
    lower_int = ops.C @ ops.Sl @ ops.Cinv
    upper_int = ops.C @ ops.Sr @ ops.Cinv
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    k2 = spec.k1 if spec.form == SMOOTH else spec.k2
    k1_vals = np.asarray(spec.k1(x, y), dtype=float)
    k2_vals = np.asarray(k2(x, y), dtype=float)
    matrix = half * (lower_int * k1_vals + upper_int * k2_vals)
    return DiscreteOperator(as_complex_matrix(matrix), nodes, NCC, (a, b))


def assemble_singular(spec: KernelSpec, n: int) -> DiscreteOperator:
    """Product-quadrature matrix for k(x, y) = |x-y|^(-alpha) h(x, y).

    The singular factor is integrated exactly against the Chebyshev basis:
    row weights w(x)^T = beta(x)^T C^{-1}, where beta_j(x) are the moments
    of |x-y|^(-alpha) against T_j and C is the Chebyshev Vandermonde on the
    nodes.  Entry (i, j) is w_j(x_i) h(x_i, x_j).
    """
    if spec.form != SINGULAR:
        raise ValueError("assemble_singular requires a singular kernel spec")
    ops = spectral_ops(n)
    a, b = spec.a, spec.b
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * ops.points
    moments = np.empty((n, n))
    for i, xi in enumerate(nodes):
        moments[i] = singular_moments(spec.alpha, xi, n, a, b)
    weights = moments @ ops.Cinv
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    matrix = weights * np.asarray(spec.h(x, y), dtype=float)
    return DiscreteOperator(as_complex_matrix(matrix), nodes, SINGULAR_SCHEME, (a, b))
