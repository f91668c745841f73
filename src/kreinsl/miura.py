"""Quadratic derivative map u -> u' + u^2, represented through a primitive.

The image potential q = tau' + tau^2 of a merely square-integrable tau is a
distribution, so it is stored as the primitive

    sigma(x) = tau(x) + int_0^x tau(s)^2 ds,

whose distributional derivative is q.  Two primitives describe the same
potential exactly when they differ by a constant matrix, which makes
equality testable without ever differentiating grid data.
"""

from __future__ import annotations

import numpy as np

from .core import MatrixGrid, ValidationError, trapezoid_weights


def _cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    inc = (values[:-1] + values[1:]) * (h / 2.0)
    out = np.zeros_like(values)
    np.cumsum(inc, axis=0, out=out[1:])
    return out


def miura(tau: MatrixGrid) -> MatrixGrid:
    """Primitive of tau' + tau^2 on the grid of tau.

    sigma(x_i) = tau(x_i) plus the cumulative trapezoid of the matrix
    square of tau; sigma(0) = tau(0).
    """
    sq = tau.values @ tau.values
    sigma = tau.values + _cumulative_trapezoid(sq, tau.spec.h)
    return MatrixGrid(tau.r, tau.spec, sigma, hermitian=tau.hermitian)


def miura_equals(a: MatrixGrid, b: MatrixGrid, tol: float) -> bool:
    """Whether two primitives represent the same potential within tol.

    Compares sup over the grid of the spectral norm of
    (sigma_a - sigma_b) - mean(sigma_a - sigma_b), the mean being the
    trapezoid average; centering removes the constant-of-integration
    freedom and is insensitive to boundary quadrature artifacts.
    """
    if a.r != b.r or a.spec != b.spec:
        raise ValidationError("primitives live on different grids")
    d = a.values - b.values
    w = trapezoid_weights(a.spec)
    mean = np.einsum("i,iab->ab", w, d)
    dev = np.linalg.norm(d - mean, ord=2, axis=(-2, -1)).max()
    return bool(dev <= tol)
