"""Coefficients of the CF4 scheme's exponentials, shared by the
eigenbasis loop (direct._eigen_sweep) and the product chain (chain.py).

A factor's 2 x 2 blocks are exp([[-d, v], [-v, d]]) = [[c - s d, s v],
[-s v, c + s d]], with c and s the cosh and sinhc of sqrt(d^2 - v^2).
lambda enters only through v = h lambda / 2, so the lambda-derivatives
follow from the closed forms of dc/dv and ds/dv and are those of the
discrete scheme.  Elementwise, every coefficient is formed in place on a
few arrays per block, each step in a fixed order with a per-element
scaling, so a value is the same bytes whatever else shares its array.
"""

from __future__ import annotations

import math

import numpy as np


def _cosh_sinhc(m: np.ndarray, mul=np.multiply):
    """cosh(sqrt(M)) and sinh(sqrt(M))/sqrt(M), elementwise (in place on
    two arrays) or, with mul the product of (..., r, r, L) blocks
    (chain._mul), of those blocks.

    Taylor series after scaling each element (each block) by its own 4^-s
    to norm at most 1/4, then s double-angle steps C <- 2C^2 - I, S <- S C.
    Both series are entire in M, so no square roots or eigendecompositions
    are needed and the sign of M is free.  Eight terms bound the remainder
    by 1e-18 at that norm; as s and the length are per element, every
    value is the same bytes whatever else shares its array.
    """
    blocks = mul is not np.multiply
    one, nrm = 1.0, np.abs(m)
    if blocks:
        one = np.eye(m.shape[-2])[:, :, None]
        nrm = nrm.sum(axis=-2).max(axis=-2)
    z, steps = m, 0
    if np.max(nrm, initial=0.0) >= 0.25:
        # the least s with 4^(s-1) >= 2^e > nrm, from nrm's exponent e
        steps = np.maximum((np.frexp(nrm)[1] + 3) // 2, 0)
        if blocks:
            steps = steps[..., None, None, :]
        z = m * np.ldexp(1.0, -2 * steps)
    del nrm
    cs = [one / math.factorial(n) if blocks
          else np.full_like(z, 1 / math.factorial(n)) for n in (14, 15)]
    for n in range(13, -1, -1):  # C takes the even n, S the odd
        if blocks:
            cs[n % 2] = one / math.factorial(n) + mul(z, cs[n % 2])
        else:
            np.add(np.multiply(z, cs[n % 2], out=cs[n % 2]),
                   1 / math.factorial(n), out=cs[n % 2])
    c, s = cs
    for j in range(int(np.max(steps, initial=0))):
        more = steps > j
        if blocks:
            s, c = (np.where(more, mul(s, c), s),
                    np.where(more, 2.0 * mul(c, c) - one, c))
        else:
            np.multiply(s, c, out=s, where=more)
            np.multiply(c, c, out=c, where=more)
            np.multiply(2.0, c, out=c, where=more)
            np.subtract(c, 1.0, out=c, where=more)
    return c, s


def _sinhc_slope(z: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d/dz of sinh(sqrt z)/sqrt z, elementwise, given c = cosh(sqrt z) and
    s = sinh(sqrt z)/sqrt z; z is overwritten.

    The closed form (c - s) / (2 z) cancels as z -> 0, so for |z| <= 1 the
    Taylor series sum_k k z^(k-1) / (2k+1)! is summed instead (ten terms
    leave a remainder below 1e-21).
    """
    t = np.full_like(z, 10 / math.factorial(21))
    for k in range(9, 0, -1):
        np.add(np.multiply(z, t, out=t), k / math.factorial(2 * k + 1), out=t)
    big = np.abs(z) > 1.0
    if np.any(big):
        np.multiply(2.0, z, out=z, where=big)
        np.subtract(c, s, out=t, where=big)
        np.divide(t, z, out=t, where=big)
    return t


def _scalar_coefficients(d, v, dv: float, deriv, pack):
    """[pack(c, s d, s v)] for the blocks exp([[-d, v], [-v, d]]),
    broadcast over d and v; with deriv, the same three differentiated in
    lambda follow, packed as a second entry.  Five arrays of the
    broadcast shape hold every step; pack copies out of them."""
    z = d * d - v * v
    c, s = _cosh_sinhc(z)
    if deriv:
        t = _sinhc_slope(z, c, s)
    su, sv = np.multiply(s, d, out=z), s * v
    out = [pack(c, su, sv)]
    if deriv:
        # dc/dv = -v s and ds/dv = -2 v ds/dz, with dv/dlam = dv
        s_v = np.multiply(-2.0 * v, t, out=t)
        np.multiply(np.multiply(dv, s_v, out=su), d, out=su)
        np.add(s, np.multiply(v, s_v, out=sv), out=sv)
        out.append(pack(np.multiply(-dv * v, s, out=c), su,
                        np.multiply(dv, sv, out=sv)))
    return out
