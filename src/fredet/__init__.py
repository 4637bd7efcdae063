"""Fredholm determinants of 1-D integral operators.

Discretize a kernel on an interval (Gauss-Legendre, midpoint or
Clenshaw-Curtis Nystrom, split-kernel Chebyshev collocation, or product
quadrature for weakly singular kernels), evaluate regularized determinants
det_p(I + zK) by three independent routes, check the exact even/odd
factorization identities, and locate eigenvalues as reciprocals of
determinant zeros.
"""

from .determinants import (DetSeries, DetValue, PreparedDet, det_from_eigs, det_p,
                           det_series_eval, identity_residuals, plemelj_coeffs, prepare)
from .discretize import (SCHEMES, DiscreteOperator, assemble, assemble_ncc, assemble_nystrom,
                         assemble_singular)
from .kernels import KernelSpec, from_config, load_kernel_file, registry
from .linalg import as_complex_matrix, eigenvalues, trace_powers
from .quadrature import (QuadRule, SpectralOps, clenshaw_curtis, gauss_legendre, rectangle,
                         singular_moments, spectral_ops)
from .spectra import (EigenEstimate, OrderFit, count_zeros, fit_order,
                      locate_eigs, refine_zero)

__version__ = "0.1.0"
