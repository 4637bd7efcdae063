"""Analytic reference determinants d(z) = det_p(I - zK) for the built-in kernels."""

import cmath
from functools import lru_cache

import numpy as np

from . import discretize, kernels, linalg
from .determinants import det_from_eigs


def _finite(value: complex, z) -> complex:
    """value, a reference determinant at z; ValueError if it is not finite."""
    if not cmath.isfinite(value):
        raise ValueError(f"reference determinant is not finite in double precision at z = {z}")
    return value


def _sinc_power(z, k: int) -> complex:
    """(sin v / v)^k at v = sqrt(z)/k, 1 at z = 0, exact to rounding; even in v, so either
    root serves.  ValueError where it overflows double precision (|Im sqrt z| >~ 710)."""
    v = cmath.sqrt(complex(z)) / k
    try:
        value = (cmath.sin(v) / v if v else 1.0 + 0.0j) ** k
    except OverflowError:
        value = cmath.inf
    return _finite(value, z)


def det_green(z) -> complex:
    """d(z) = sin(w)/w, w = sqrt z, for the green kernel."""
    return _sinc_power(z, 1)


def det_bernoulli(z) -> complex:
    """d(z) = (sin(w/2) / (w/2))^2 = (2 - 2 cos w)/z, w = sqrt z, for the bernoulli kernel."""
    return _sinc_power(z, 2)


def det_sign_p2(z) -> complex:
    """d_2(z) = cosh(2z) for the sign kernel with zeroed diagonal.  ValueError where it
    overflows double precision (|Re z| >~ 355)."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.cosh(2.0 * complex(z)))
    return _finite(value, z)


@lru_cache(maxsize=8)
def _abs_pow_eigs(n_ref: int) -> np.ndarray:
    """Read-only eigenvalues of the product-quadrature abs_pow(1/2) matrix of size n_ref."""
    op = discretize.assemble(kernels.registry("abs_pow", {"alpha": 0.5}), "singular", n_ref)
    lam = linalg.eigenvalues(op.matrix)
    lam.flags.writeable = False
    return lam


def det_iter2_p2(w) -> complex:
    """Reference det_2(I - w K^2) for K the abs_pow(1/2) operator on [-1, 1].

    There is no elementary closed form; the value is the full eigenvalue
    product built from the product-quadrature discretization of K at N = 512,
    using l(K^2) = l(K)^2.
    """
    lam = _abs_pow_eigs(512)
    return det_from_eigs(lam * lam, 2, -complex(w)).value


# name -> (reference callable in the det(I - zK) convention, required p)
REFERENCES = {
    "green": (det_green, 1),
    "bernoulli": (det_bernoulli, 1),
    "sign": (det_sign_p2, 2),
    "abs_pow_iter2": (det_iter2_p2, 2),
}
