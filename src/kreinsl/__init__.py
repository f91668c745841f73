"""Spectral toolkit for matrix Sturm-Liouville operators on [0, 1].

Direct problem: eigenvalues and matrix norming constants of the
quasi-derivative operator pair built from a square-integrable matrix
potential.  Inverse problem: reconstruction of the potential from spectral
data through Krein's accelerant and the associated convolution equation.
"""

from .core import (
    GridSpec,
    MatrixGrid,
    TriangularKernel,
    SquareKernel,
    SpectralData,
    BoundaryValues,
    trapezoid_weights,
    g2_norm,
    load_matrix_grid,
    save_matrix_grid,
    load_spectral_data,
    save_spectral_data,
    KreinslError,
    ParseError,
    ValidationError,
    ConfigurationError,
    PoleProximityError,
    ExtractionError,
    ConsistencyError,
    CoverageError,
    NotAnAccelerantError,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "MatrixGrid",
    "TriangularKernel",
    "SquareKernel",
    "SpectralData",
    "BoundaryValues",
    "trapezoid_weights",
    "g2_norm",
    "load_matrix_grid",
    "save_matrix_grid",
    "load_spectral_data",
    "save_spectral_data",
    "KreinslError",
    "ParseError",
    "ValidationError",
    "ConfigurationError",
    "PoleProximityError",
    "ExtractionError",
    "ConsistencyError",
    "CoverageError",
    "NotAnAccelerantError",
    "__version__",
]
