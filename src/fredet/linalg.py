"""Dense complex linear algebra: matrix validation, trace powers, eigenvalues."""

import numpy as np

# Hard cap on matrix dimension; assemblies beyond this are a config mistake.
MAX_DIM = 2048

_LOG_HUGE = 709.0  # log of the largest finite double, minus slack


class DetOverflowError(ArithmeticError):
    """|det(I + zA)| exceeded the double-precision range."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds MAX_DIM={MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def trace_powers(a, jmax: int) -> np.ndarray:
    """[tr(A), tr(A^2), ..., tr(A^jmax)] by repeated multiplication."""
    m = as_complex_matrix(a)
    if jmax < 1:
        raise ValueError("jmax must be at least 1")
    out = np.empty(jmax, dtype=np.complex128)
    p = m
    out[0] = np.trace(p)
    for j in range(1, jmax):
        p = p @ m
        out[j] = np.trace(p)
    return out


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues, sorted by nonincreasing modulus.

    Backed by LAPACK's balanced Hessenberg reduction with shifted QR;
    non-convergence surfaces as LinAlgError rather than silent garbage.
    The contract is solver-agnostic: eigenvalue sums must reproduce
    trace_powers and the product must reproduce det_p(a, 1, z).
    """
    m = as_complex_matrix(a)
    lam = np.linalg.eigvals(m)
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order]
