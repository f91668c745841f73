"""Reproducible synthetic potentials for tests and benchmarking.

Randomness comes from SplitMix64 so that the draw sequence can be
reproduced from the seed alone in any language:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output z xor (z >> 31)

Each output maps to a double in [-1, 1) via (z >> 11) / 2^53 * 2 - 1.
"""

from __future__ import annotations

import numpy as np

from .core import GridSpec, MatrixGrid, _unchecked

_MASK = (1 << 64) - 1


def splitmix64_uniforms(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [-1, 1) from the SplitMix64 stream of `seed`."""
    state = seed & _MASK
    out = np.empty(count)
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z = z ^ (z >> 31)
        out[i] = (z >> 11) / float(1 << 53) * 2.0 - 1.0
    return out


def fourier_tau(r: int, order: int, scale: float, seed: int,
                spec: GridSpec) -> MatrixGrid:
    """Smooth Hermitian potential from a seeded truncated Fourier series.

    Coefficient matrices C_k (k = 0..order) are drawn entry by entry in
    row-major order, real part before imaginary part, from the SplitMix64
    stream.  The potential is the pointwise Hermitian part of
    scale * sum_k C_k exp(2 pi i k x), sampled on the grid.
    """
    draws = splitmix64_uniforms(seed, 2 * (order + 1) * r * r)
    coeffs = (draws[0::2] + 1j * draws[1::2]).reshape(order + 1, r, r)
    x = spec.points()
    phases = np.exp(2j * np.pi * np.outer(np.arange(order + 1), x))
    f = np.einsum("ki,kab->iab", phases, coeffs)
    tau = scale * (f + np.conj(np.swapaxes(f, -1, -2))) / 2.0
    return _unchecked(MatrixGrid, r, spec, tau, True)
