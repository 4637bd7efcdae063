"""Analytic reference determinants d(z) = det_p(I - zK) for the built-in kernels."""

from functools import lru_cache

import numpy as np

from . import discretize, kernels, linalg
from .determinants import det_from_eigs


def _entire_series(z, s: int) -> complex:
    """sum_k (s+1)! (-z)^k / (2k+s+1)! for s = 0 or 1, summed term by term.

    Each term is the previous one times -z / ((2k+s)(2k+s+1)).  The series is
    entire, so it sidesteps the square-root branch cut and grids crossing the
    negative real axis evaluate cleanly.
    """
    z = complex(z)
    term = 1.0 + 0.0j
    total = term
    for k in range(1, 400):
        term *= -z / ((2.0 * k + s) * (2.0 * k + s + 1.0))
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            return total
    raise ValueError(f"reference series did not converge at z = {z}")


def det_green(z) -> complex:
    """d(z) = sin(sqrt z)/sqrt z for the green kernel: sum_k (-z)^k / (2k+1)!."""
    return _entire_series(z, 0)


def det_bernoulli(z) -> complex:
    """d(z) = (2 - 2 cos(sqrt z))/z for the bernoulli kernel: sum_k 2 (-z)^k / (2k+2)!."""
    return _entire_series(z, 1)


def det_sign_p2(z) -> complex:
    """d_2(z) = cosh(2z) for the sign kernel with zeroed diagonal."""
    return complex(np.cosh(2.0 * complex(z)))


@lru_cache(maxsize=8)
def _abs_pow_eigs(n_ref: int) -> np.ndarray:
    """Read-only eigenvalues of the product-quadrature abs_pow(1/2) matrix of size n_ref."""
    op = discretize.assemble(kernels.registry("abs_pow", {"alpha": 0.5}), "singular", n_ref)
    lam = linalg.eigenvalues(op.matrix)
    lam.flags.writeable = False
    return lam


def det_iter2_p2(w, n_ref: int = 512) -> complex:
    """Reference det_2(I - w K^2) for K the abs_pow(1/2) operator on [-1, 1].

    There is no elementary closed form; the value is the full eigenvalue
    product built from the product-quadrature discretization of K at a large
    reference size, using l(K^2) = l(K)^2.
    """
    lam = _abs_pow_eigs(n_ref)
    return det_from_eigs(lam * lam, 2, -complex(w)).value


# name -> (reference callable in the det(I - zK) convention, required p)
REFERENCES = {
    "green": (det_green, 1),
    "bernoulli": (det_bernoulli, 1),
    "sign": (det_sign_p2, 2),
    "abs_pow_iter2": (det_iter2_p2, 2),
}
