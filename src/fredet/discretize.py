"""Assembly of discrete operators: plain Nystrom, spectral split-kernel, product quadrature."""

from dataclasses import dataclass

import numpy as np

from .kernels import SINGULAR, SMOOTH, KernelSpec
from .linalg import as_complex_matrix
from .quadrature import (QuadRule, clenshaw_curtis, gauss_legendre, rectangle, singular_moments,
                         spectral_ops)

# the discretization schemes, by the names the CLI's --scheme takes
SCHEMES = ("ngl", "rect", "ncc", "singular")


@dataclass(frozen=True)
class DiscreteOperator:
    """An n x n collocation matrix standing in for the integral operator.

    matrix[i, j] approximates the action weight of node j on node i, so that
    (matrix @ u_samples) approximates (K u)(nodes).
    """

    matrix: np.ndarray
    nodes: np.ndarray


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

    zero_diag drops the diagonal, which turns the plain determinant of
    I - z*K_N into an approximation of the Hilbert-Schmidt-regularized one.
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
    return DiscreteOperator(as_complex_matrix(matrix), nodes)


def assemble_ncc(spec: KernelSpec, n: int) -> DiscreteOperator:
    """Chebyshev collocation matrix on n Chebyshev-Lobatto nodes, scheme "ncc".

    A split kernel: row m approximates
    int_a^x_m k1(x_m, y) u(y) dy + int_x_m^b k2(x_m, y) u(y) dy
    by Chebyshev interpolation of the sampled integrand and exact integration
    of the interpolant:

        K_N = (b - a)/2 * [ (C Sl Cinv) o K1 + (C Sr Cinv) o K2 ],   o = Hadamard

    Both branches must be evaluable on the closed square.  This path keeps
    spectral_ops, with its LU inverse Cinv, and the two N x N products above
    bit for bit: a variant with a closed-form Cinv and one product gave the
    same matrices to rounding, but left the malloc heap in a state that took
    about 1200 minor page faults per later N = 400 det_p call, and the
    benchmark's grid pass (this matrix at N = 320 and a rectangle-rule one
    at N = 400) ran about 25% longer (2-vCPU VM, numpy 2.4.6, OpenBLAS).

    A smooth kernel is plain Nystrom on the Clenshaw-Curtis rule of the same
    nodes: the two integration operators then add up to one repeated row,
    the Clenshaw-Curtis weights, so no spectral operator is built.  At even
    n that is the split formula with k1 = k2 = k, to rounding; at odd n the
    split formula integrates only to degree n-2, while the rule is exact to
    degree n.
    """
    if spec.form == SINGULAR:
        raise ValueError("singular kernel passed to assemble_ncc; use assemble_singular")
    if spec.form == SMOOTH:
        return assemble_nystrom(spec, clenshaw_curtis(n, spec.a, spec.b))
    ops = spectral_ops(n)
    a, b = spec.a, spec.b
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * ops.points
    lower_int = ops.C @ ops.Sl @ ops.Cinv
    upper_int = ops.C @ ops.Sr @ ops.Cinv
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    k1_vals = np.asarray(spec.k1(x, y), dtype=float)
    k2_vals = np.asarray(spec.k2(x, y), dtype=float)
    matrix = half * (lower_int * k1_vals + upper_int * k2_vals)
    return DiscreteOperator(as_complex_matrix(matrix), nodes)


def assemble_singular(spec: KernelSpec, n: int) -> DiscreteOperator:
    """Product-quadrature matrix for k(x, y) = |x-y|^(-alpha) h(x, y).

    The singular factor is integrated exactly against the Chebyshev basis:
    row weights w(x)^T = beta(x)^T C^{-1}, where beta_j(x) are the moments
    of |x-y|^(-alpha) against T_j and C is the Chebyshev Vandermonde on the
    nodes.  Entry (i, j) is w_j(x_i) h(x_i, x_j).  The moments of all n rows
    come from one blocked singular_moments call: O(n^3) flops, working set
    O(block) quadrature points.
    """
    if spec.form != SINGULAR:
        raise ValueError("assemble_singular requires a singular kernel spec")
    ops = spectral_ops(n)
    a, b = spec.a, spec.b
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * ops.points
    weights = singular_moments(spec.alpha, nodes, n, a, b) @ ops.Cinv
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    matrix = weights * np.asarray(spec.h(x, y), dtype=float)
    return DiscreteOperator(as_complex_matrix(matrix), nodes)


def assemble(spec: KernelSpec, scheme: str, n: int, zero_diag: bool = False) -> DiscreteOperator:
    """K_N of spec on n nodes by one of SCHEMES.

    ngl and rect are plain Nystrom on the n-point Gauss-Legendre and midpoint
    rules of the kernel's interval, and only they take zero_diag; ncc is
    assemble_ncc and singular is assemble_singular.  n < 2, an unknown
    scheme, or zero_diag with ncc or singular raises ValueError.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme == "ngl":
        return assemble_nystrom(spec, gauss_legendre(n, *spec.domain), zero_diag=zero_diag)
    if scheme == "rect":
        return assemble_nystrom(spec, rectangle(n, *spec.domain), zero_diag=zero_diag)
    if zero_diag:
        raise ValueError(f"zero_diag (--zero-diag) only applies to ngl and rect, not {scheme}")
    if scheme == "ncc":
        return assemble_ncc(spec, n)
    return assemble_singular(spec, n)
