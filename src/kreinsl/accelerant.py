"""Accelerant synthesis from spectral data and the even/odd kernel pair.

The accelerant of a discrete spectral measure sum alpha_j delta_{lambda_j}
is the truncated cosine series

    H_N(x) = 2 sum_{lambda_j <= pi(N+1/2)} cos(2 lambda_j x) alpha_j
             - I - 2 sum_{n=1}^N cos(2 pi n x) I,

the tail of the reference measure (unit mass at every pi n plus half at 0)
being subtracted bin by bin.  `accelerant_terms` is the one place that
bins the data and lists these K cosine terms; synthesis here and the
characterization checks in `validation` read that list.  Each bin's data
terms are paired with the matching reference frequency and accumulated
locally: the paired differences are the square-summable objects, while
the two global sums individually look divergent, so bin-local evaluation
avoids the large cancellations a naive two-pass summation would incur.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CoverageError,
    GridSpec,
    MatrixGrid,
    SpectralData,
    SquareKernel,
    ValidationError,
    _unchecked,
    bin_index,
    trapezoid_weights,
)


def covered_bins(data: SpectralData, n_bins: int) -> tuple[int, bool]:
    """The truncation the data support, and whether it is below n_bins:
    (n_bins, False) when the data reach bin n_bins, else the highest bin
    they reach (0 when only lambda = 0 is present) and True."""
    top = float(data.lambdas[-1])
    reached = bin_index(top) if top > 0 else 0
    return (n_bins, False) if n_bins <= reached else (reached, True)


def prepend_unit_mass(data: SpectralData) -> SpectralData:
    """Complete a reduced dataset with the (0, I) entry."""
    eye = np.eye(data.r, dtype=complex)
    return _unchecked(SpectralData, data.r, np.concatenate([[0.0], data.lambdas]),
                      np.concatenate([eye[None], data.alphas]), True)


def accelerant_terms(data: SpectralData, n_bins: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The K cosine terms of the accelerant truncated at bin n_bins:
    H(x) = sum_k A_k cos(2 w_k x).  Returns (w, A, starts).

    w is 0, then the lambda_j of bins 1..n_bins in order, then pi n for
    n = 1..n_bins; A is 2 alpha_0 - I, then 2 alpha_j, then -2I.  Bin n's
    data terms are the slice starts[n-1]:starts[n] (empty when the data
    lack lines there) and its reference term is starts[n_bins] + n - 1.
    A reduced dataset is completed here with the unit mass at zero
    (prepend_unit_mass).  The data are sorted, so one binning by
    `bin_index` finds every slice.

    Raises CoverageError when the data stop short of bin n_bins, since
    trailing empty bins would contribute spurious unit defects; interior
    empty bins are legal (the dataset may genuinely lack lines there) and
    get a unit defect.
    """
    if n_bins < 1:
        raise ValidationError(f"n_bins must be >= 1, got {n_bins}")
    top, short = covered_bins(data, n_bins)
    if short:
        raise CoverageError(
            f"data reaches bin {top} but {n_bins} bins were requested; "
            "supply more spectral lines or lower the truncation"
        )
    if not data.includes_zero:
        data = prepend_unit_mass(data)
    r = data.r
    eye = np.eye(r)
    bins = bin_index(data.lambdas[1:])
    starts = 1 + np.searchsorted(bins, np.arange(1, n_bins + 2))
    stop = starts[-1]
    freq = np.concatenate([[0.0], data.lambdas[1:stop],
                           np.pi * np.arange(1, n_bins + 1)])
    coef = np.concatenate([(2.0 * data.alphas[0] - eye)[None],
                           2.0 * data.alphas[1:stop],
                           np.broadcast_to(-2.0 * eye, (n_bins, r, r))])
    return freq, coef, starts


def build_accelerant(data: SpectralData, spec: GridSpec, n_bins: int) -> MatrixGrid:
    """Accelerant samples H(x_i) on [0, 1]; the even extension is implicit.

    Sums the terms of accelerant_terms (which completes reduced data) bin
    by bin.  The output is Hermitized, which is exact for the Hermitian
    data this type admits.
    """
    freq, coef, starts = accelerant_terms(data, n_bins)
    x = spec.points()
    h = np.zeros((spec.m + 1, data.r, data.r), dtype=complex)
    h += coef[0]
    for n in range(1, n_bins + 1):
        k = slice(starts[n - 1], starts[n])
        ref = starts[-1] + n - 1
        term = np.zeros_like(h)
        term += np.einsum("ji,jab->iab", np.cos(2.0 * np.outer(freq[k], x)),
                          coef[k])
        term += np.cos(2.0 * freq[ref] * x)[:, None, None] * coef[ref]
        h += term
    h = (h + np.conj(np.swapaxes(h, -1, -2))) / 2.0
    return _unchecked(MatrixGrid, data.r, spec, h, True)


def tail_proxy(data: SpectralData, spec: GridSpec, n_bins: int, *,
               h_full: MatrixGrid | None = None) -> float | None:
    """L2 distance between the accelerants at n_bins and n_bins // 2 bins.

    A small value indicates the truncated cosine series has stabilized;
    there is no proven rate, so the proxy is reported rather than tested
    against a bound, and is None below 2 bins, where there is no half
    truncation.  A caller that already holds the n_bins accelerant passes
    it as h_full, and only the half-truncation one is built.
    """
    if n_bins < 2:
        return None
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
