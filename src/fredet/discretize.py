"""Assembly of discrete operators: plain Nystrom, spectral split-kernel, product quadrature."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import SINGULAR, SMOOTH, KernelSpec
from .linalg import MAX_DIM, as_complex_matrix
from .quadrature import (QuadRule, clenshaw_curtis, gauss_legendre, lobatto_vander, rectangle,
                         singular_moments, spectral_ops)

# the discretization schemes, by the names the CLI's --scheme takes
SCHEMES = ("ngl", "rect", "ncc", "singular")


@dataclass(frozen=True)
class DiscreteOperator:
    """An n x n collocation matrix standing in for the integral operator.

    matrix[i, j] approximates the action weight of node j on node i, so that
    (matrix @ u_samples) approximates (K u)(nodes).  weights are the
    quadrature weights w_j of a plain Nystrom matrix, matrix[i, j] =
    k(x_i, x_j) w_j (the ngl and rect schemes, and ncc with a smooth kernel),
    and None where the scheme has no such diagonal weights (ncc with a split
    kernel, singular).  determinants.prepare reads them to find a symmetric
    or skew W^(1/2) K W^(-1/2).
    """

    matrix: np.ndarray
    nodes: np.ndarray
    weights: Optional[np.ndarray] = None


def _real_values(k, x, y) -> np.ndarray:
    """k(x, y) as float64 on the broadcast grid of x and y, for every kernel call here.
    Evaluated quietly: a value that is not finite is refused where it is read (the
    diagonal pre-checks, then as_complex_matrix).  A complex value raises ValueError.
    k sees read-only views, so a kernel that writes into x or y raises ValueError
    and leaves the nodes as they were."""
    x, y = (np.broadcast_to(v, v.shape) for v in (x, y))
    with np.errstate(all="ignore"):
        vals = np.asarray(k(x, y))
    if np.iscomplexobj(vals):
        raise ValueError(f"kernel values must be real, got {vals.dtype} values")
    return np.broadcast_to(vals.astype(float, copy=False), np.broadcast(x, y).shape)


def _kernel_values(spec: KernelSpec, nodes: np.ndarray, skip_diag: bool) -> np.ndarray:
    """A smooth or split kernel's N x N float64 values on the node grid, one call per
    branch on the broadcast pair x = nodes[:, None], y = nodes[None, :]: k1 on the
    whole grid, or k1 on y <= x and k2 above it.  With skip_diag the diagonal x == y
    is zero, whatever the kernel gives there.  Values a branch gives off its own side
    and a dropped diagonal are never read; every value kept still has to pass
    as_complex_matrix's finiteness check."""
    x, y = nodes[:, None], nodes[None, :]
    vals = _real_values(spec.k1, x, y)
    if spec.k2 is not None:
        vals = np.where(y <= x, vals, _real_values(spec.k2, x, y))
    out = np.array(vals)
    if skip_diag:
        np.fill_diagonal(out, 0.0)
    return out


def assemble_nystrom(spec: KernelSpec, rule: QuadRule, zero_diag: bool = False) -> DiscreteOperator:
    """Plain Nystrom matrix K_N[i, j] = w_j * k(x_i, x_j) on the rule's nodes.

    zero_diag drops the diagonal, which turns the plain determinant of
    I - z*K_N into an approximation of the Hilbert-Schmidt-regularized one.
    Without it, a kernel that is not finite on the diagonal (abs_pow_iter2)
    raises ValueError before the matrix is built.  Singular kernels are
    rejected: pointwise weights cannot see the non-integrable factor, use
    assemble_singular instead.  The operator carries the rule's weights.
    """
    if spec.form == SINGULAR:
        raise ValueError("singular kernel passed to assemble_nystrom; use assemble_singular")
    if not (abs(rule.a - spec.a) < 1e-12 and abs(rule.b - spec.b) < 1e-12):
        raise ValueError(f"rule on [{rule.a}, {rule.b}] does not match kernel domain [{spec.a}, {spec.b}]")
    nodes = rule.nodes
    if not zero_diag and not np.all(np.isfinite(_real_values(spec.k1, nodes, nodes))):
        raise ValueError(f"kernel {spec.name or '(unnamed)'} is not finite on the diagonal"
                         " x = y; ngl or rect with zero_diag (--zero-diag) drop it")
    matrix = _kernel_values(spec, nodes, skip_diag=zero_diag) * rule.weights[None, :]
    return DiscreteOperator(as_complex_matrix(matrix), nodes, rule.weights)


def assemble_ncc(spec: KernelSpec, n: int) -> DiscreteOperator:
    """Chebyshev collocation matrix on n Chebyshev-Lobatto nodes, scheme "ncc".

    A split kernel: row m approximates
    int_a^x_m k1(x_m, y) u(y) dy + int_x_m^b k2(x_m, y) u(y) dy
    by Chebyshev interpolation of the sampled integrand and exact integration
    of the interpolant:

        K_N = (b - a)/2 * [ L o K1 + U o K2 ],   o = Hadamard,
        L = C Sl Cinv,   U = C Sr Cinv = 1 w^T - L,   w^T = (Sl[0] + Sr[0]) Cinv

    (1 a column of ones), since Sl + Sr is zero outside its constant row:
    each row of L + U is w^T, the integral over [-1, 1].  With Cinv in closed
    form, the two products of L are the O(N^3) steps.

    Both branches must be evaluable on the closed square: a branch that is
    not finite on the diagonal x = y raises ValueError, checked on the N
    diagonal points before any N x N array is built.

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
    if not all(np.all(np.isfinite(_real_values(k, nodes, nodes))) for k in (spec.k1, spec.k2)):
        raise ValueError(f"kernel {spec.name or '(unnamed)'} is not finite on the diagonal x = y,"
                         " where ncc evaluates both of its branches; ngl or rect with zero_diag"
                         " (--zero-diag) drop the diagonal")
    lower = ops.C @ ops.Sl @ ops.Cinv
    upper = ((ops.Sl[0] + ops.Sr[0]) @ ops.Cinv)[None, :] - lower
    x, y = nodes[:, None], nodes[None, :]
    matrix = half * (lower * _real_values(spec.k1, x, y) + upper * _real_values(spec.k2, x, y))
    return DiscreteOperator(as_complex_matrix(matrix), nodes)


def assemble_singular(spec: KernelSpec, n: int) -> DiscreteOperator:
    """Product-quadrature matrix for k(x, y) = |x-y|^(-alpha) h(x, y).

    The singular factor is integrated exactly against the Chebyshev basis:
    row weights w(x)^T = beta(x)^T C^{-1}, where beta_j(x) are the moments
    of |x-y|^(-alpha) against T_j and C is the Chebyshev Vandermonde on the
    nodes.  Entry (i, j) is w_j(x_i) h(x_i, x_j).  The moments of all n rows
    come from one singular_moments call, O(n^2) flops in all, and C^{-1} is
    in closed form; the product with C^{-1} is the one O(n^3) step.
    """
    if spec.form != SINGULAR:
        raise ValueError("assemble_singular requires a singular kernel spec")
    points, _, cinv = lobatto_vander(n)
    a, b = spec.a, spec.b
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * points
    weights = singular_moments(spec.alpha, nodes, n, a, b) @ cinv
    matrix = weights * _real_values(spec.h, nodes[:, None], nodes[None, :])
    return DiscreteOperator(as_complex_matrix(matrix), nodes)


def assemble(spec: KernelSpec, scheme: str, n: int, zero_diag: bool = False) -> DiscreteOperator:
    """K_N of spec on n nodes by one of SCHEMES.

    ngl and rect are plain Nystrom on the n-point Gauss-Legendre and midpoint
    rules of the kernel's interval, and only they take zero_diag; ncc is
    assemble_ncc and singular is assemble_singular.  n < 2, n > MAX_DIM, an
    unknown scheme, or zero_diag with ncc or singular raises ValueError
    before anything is built.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > MAX_DIM:  # before any grid: as_complex_matrix would refuse K_N only once it is built
        raise ValueError(f"n={n} exceeds MAX_DIM={MAX_DIM}")
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
