"""Accelerant synthesis from spectral data and the even/odd kernel pair.

The accelerant of a discrete spectral measure sum alpha_j delta_{lambda_j}
is the truncated cosine series

    H_N(x) = 2 sum_{lambda_j <= pi(N+1/2)} cos(2 lambda_j x) alpha_j
             - I - 2 sum_{n=1}^N cos(2 pi n x) I,

the tail of the reference measure (unit mass at every pi n plus half at 0)
being subtracted bin by bin.  Each bin's data terms are paired with the
matching reference frequency and accumulated locally: the paired
differences are the square-summable objects, while the two global sums
individually look divergent, so bin-local evaluation avoids the large
cancellations a naive two-pass summation would incur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CoverageError,
    GridSpec,
    MatrixGrid,
    SpectralData,
    SquareKernel,
    ValidationError,
    bin_index,
    trapezoid_weights,
)


@dataclass
class BinDecomposition:
    """Per-bin bookkeeping of a spectral dataset up to bin n_bins.

    For each bin n = 1..n_bins: `members[n-1]` holds the indices j of the
    entries with lambda_j in bin n, `beta[n-1] = I - sum alpha_j` the mass
    defect, and `tilde[n-1]` the frequency offsets lambda_j - pi n.
    """

    r: int
    n_bins: int
    members: list[list[int]]
    beta: np.ndarray
    tilde: list[np.ndarray]


def coverage_bins(data: SpectralData) -> int:
    """Highest bin reached by the data (0 when only lambda = 0 is present)."""
    top = float(data.lambdas[-1])
    return bin_index(top) if top > 0 else 0


def bin_decompose(data: SpectralData, n_bins: int) -> BinDecomposition:
    """Exact binning of the entries with lambda_j <= pi (n_bins + 1/2).

    Raises CoverageError when the data stops short of bin n_bins, since
    trailing empty bins would contribute spurious unit defects; interior
    empty bins are legal (the dataset may genuinely lack lines there) and
    get a unit defect.
    """
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")
    top = coverage_bins(data)
    if n_bins > top:
        raise CoverageError(
            f"data reaches bin {top} but {n_bins} bins were requested; "
            "supply more spectral lines or lower the truncation"
        )
    eye = np.eye(data.r)
    members: list[list[int]] = [[] for _ in range(n_bins)]
    start = 1 if data.includes_zero else 0
    for j in range(start, len(data)):
        lam = float(data.lambdas[j])
        n = bin_index(lam)
        if n <= n_bins:
            members[n - 1].append(j)
    beta = np.empty((n_bins, data.r, data.r), dtype=complex)
    tilde: list[np.ndarray] = []
    for n in range(1, n_bins + 1):
        idx = members[n - 1]
        tilde.append(np.asarray(data.lambdas[idx] - np.pi * n, dtype=float))
        beta[n - 1] = eye - data.alphas[idx].sum(axis=0)
    return BinDecomposition(r=data.r, n_bins=n_bins, members=members,
                            beta=beta, tilde=tilde)


def prepend_unit_mass(data: SpectralData) -> SpectralData:
    """Complete a reduced dataset with the (0, I) entry."""
    eye = np.eye(data.r, dtype=complex)
    return SpectralData(
        r=data.r,
        lambdas=np.concatenate([[0.0], data.lambdas]),
        alphas=np.concatenate([eye[None], data.alphas]),
        includes_zero=True,
    )


def build_accelerant(data: SpectralData, spec: GridSpec, n_bins: int) -> MatrixGrid:
    """Accelerant samples H(x_i) on [0, 1]; the even extension is implicit.

    The series needs the (0, alpha_0) entry: a reduced dataset is completed
    here with the unit mass at zero (prepend_unit_mass), so every caller
    may pass either kind.  The output is Hermitized, which is exact for
    the Hermitian data this type admits.
    """
    if not data.includes_zero:
        data = prepend_unit_mass(data)
    dec = bin_decompose(data, n_bins)
    x = spec.points()
    eye = np.eye(data.r)
    h = np.zeros((spec.m + 1, data.r, data.r), dtype=complex)
    h += 2.0 * data.alphas[0] - eye
    for n in range(1, n_bins + 1):
        idx = dec.members[n - 1]
        term = np.zeros_like(h)
        if idx:
            cosines = np.cos(2.0 * np.outer(data.lambdas[idx], x))
            term += 2.0 * np.einsum("ji,jab->iab", cosines, data.alphas[idx])
        term -= 2.0 * np.cos(2.0 * np.pi * n * x)[:, None, None] * eye
        h += term
    h = (h + np.conj(np.swapaxes(h, -1, -2))) / 2.0
    return MatrixGrid(data.r, spec, h, hermitian=True)


def tail_proxy(data: SpectralData, spec: GridSpec, n_bins: int, *,
               h_full: MatrixGrid | None = None) -> float:
    """L2 distance between the accelerants at n_bins and n_bins // 2 bins.

    A small value indicates the truncated cosine series has stabilized;
    there is no proven rate, so the proxy is reported rather than tested
    against a bound.  A caller that already holds the n_bins accelerant
    passes it as h_full, and only the half-truncation one is built.
    """
    if n_bins < 2:
        return float("nan")
    if h_full is None:
        h_full = build_accelerant(data, spec, n_bins)
    h_half = build_accelerant(data, spec, n_bins // 2)
    w = trapezoid_weights(spec)
    diff = np.linalg.norm(h_full.values - h_half.values, ord=2, axis=(-2, -1)) ** 2
    return float(np.sqrt(diff @ w))


def _half_grid_values(h: MatrixGrid) -> np.ndarray:
    """H at k h/2 for k = 0..2m: grid samples plus linear midpoints."""
    v = h.values
    m = h.spec.m
    out = np.empty((2 * m + 1,) + v.shape[1:], dtype=complex)
    out[::2] = v
    out[1::2] = (v[:-1] + v[1:]) / 2.0
    return out


def build_heo(h: MatrixGrid) -> tuple[SquareKernel, SquareKernel]:
    """Even/odd kernel pair on the grid square.

    H_e(x, t) = [H((x-t)/2) + H((x+t)/2)] / 2 and
    H_o(x, t) = [H((x-t)/2) - H((x+t)/2)] / 2, using evenness for negative
    arguments.  The half-sum and half-difference arguments land on half-grid
    points, so only linear midpoint interpolation is ever needed.
    """
    m = h.spec.m
    half = _half_grid_values(h)
    i = np.arange(m + 1)
    diff_idx = np.abs(i[:, None] - i[None, :])
    sum_idx = i[:, None] + i[None, :]
    a = half[diff_idx]
    b = half[sum_idx]
    he = (a + b) / 2.0
    ho = (a - b) / 2.0
    return (SquareKernel(h.r, h.spec, he), SquareKernel(h.r, h.spec, ho))
