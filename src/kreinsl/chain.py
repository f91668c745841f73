"""The product chain over cells: propagation of scalar and non-Hermitian
tau by products of whole runs of CF4 sub-steps.

At r = 1, and for non-Hermitian tau at r > 1, a CF4 factor is a dense
2r x 2r matrix per lambda, [[C - S hu, S v], [-S v, C + S hu]] with C, S
the functions cosh and sinhc of hu^2 - v^2 (coefficients._cosh_sinhc).
Applied one at a time, every factor costs one Python step, about 25 us at
r = 1 whatever the batch.  Here the sub-steps (sub-step s is factor s // sub
taken with hu / sub, direct._lift_plan) go in runs of one length n that
tau alone fixes: a power of two, at most the lift stride, _RUN and the
sweep's length.  A block of whole runs is formed at once as (sub-step,
2r, 2r, lambda) leaves, lambda last so that every matrix product is a few
elementwise products (_mul), and the leaves of every run are multiplied
pairwise in log2(n) steps, vectorized over the runs and lambdas: one
Python step applies a whole run, and psi is lifted after it.  The last
run is padded with identity leaves, exact since I P = P.  The batch is
taken in chunks of as many lambdas as the leaves of one run fit in
direct._BLOCK_BYTES, and a chunk's blocks hold as many runs as fit there
too.  Every operation is elementwise in the sub-step and the lambda, and
runs end where tau alone puts them, so a lambda's W(1), dW/dlambda and
lifted phase do not depend on the lambdas around it, and memory does not
grow with m or L.
"""

from __future__ import annotations

import numpy as np

from .coefficients import _cosh_sinhc, _scalar_coefficients
from .direct import _BLOCK_BYTES, _lifted

# Longest run: 16 real lambdas per chunk at r = 1 at this length.  A
# sweep's traced peak is a few arrays of leaves, 0.57-0.75 MB at r = 1.
_RUN = 256


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks (..., n, k, L) and (..., k, p, L), lambda last."""
    out = a[..., :, :1, :] * b[..., :1, :, :]
    for j in range(1, a.shape[-2]):
        out += a[..., :, j:j + 1, :] * b[..., j:j + 1, :, :]
    return out


def _runs(x: np.ndarray, dx: np.ndarray | None):
    """Products of runs of leaves x (runs, n, 2r, 2r, L), n a power of
    two, leaf 0 acting first, by pairwise products in log2(n) steps; with
    dx, the leaves' lambda-derivatives, also the products' derivatives,
    else None."""
    while x.shape[1] > 1:
        first, then = x[:, 0::2], x[:, 1::2]
        if dx is not None:
            dx = _mul(dx[:, 1::2], first) + _mul(then, dx[:, 0::2])
        x = _mul(then, first)
    return x[:, 0], (None if dx is None else dx[:, 0])


def _factor(c, su, sv) -> np.ndarray:
    """[[C - S hu, S v], [-S v, C + S hu]] from (n, r, r, L) blocks, or
    at r = 1 from (n, L) scalars."""
    if c.ndim == 2:
        c, su, sv = (p[:, None, None] for p in (c, su, sv))
    r = c.shape[1]
    out = np.empty((c.shape[0], 2 * r, 2 * r, c.shape[-1]),
                   dtype=np.result_type(c, su, sv))
    np.subtract(c, su, out=out[:, :r, :r])
    out[:, :r, r:] = sv
    np.negative(sv, out=out[:, r:, :r])
    np.add(c, su, out=out[:, r:, r:])
    return out


def _leaves(gen, at, v, dv: float, deriv: bool):
    """The (n, 2r, 2r, L) matrices of sub-steps of the factors at, from
    the generators of one sub-step per factor, gen = (d,) at r = 1 or
    (hu, hu^2), and with deriv (r = 1) their lambda-derivatives."""
    if len(gen) == 1:
        out = _scalar_coefficients(gen[0][at], v, dv, deriv, _factor)
    else:
        hu, hu2 = (g[at, :, :, None] for g in gen)
        c, s = _cosh_sinhc(hu2 - np.eye(hu.shape[1])[:, :, None] * (v * v),
                           _mul)
        out = [_factor(c, _mul(s, hu), s * v)]
    return out[0], (out[1] if deriv else None)


def chain_sweep(fac, v, dv: float, ncol: int, nder: int, sub: int,
                stride: int):
    """direct._sweep by products: (out, arg), out (L, 2r, ncol + nder)
    with the nder derivative columns of the frame last, arg the lifted
    psi at x = 1 (direct._lifted) or None; sub is the sub-steps per
    factor and stride the sub-steps per lift, 0 for no lift.

    Per chunk of lambdas the accumulator (2r, ncol, L) and its derivative
    (2r, nder, L) take one product (value and derivative) per run, and
    the leaves are formed in blocks of whole runs under _BLOCK_BYTES.
    """
    r = fac.tau.r
    L = v.size
    steps = fac.hu.shape[0] * sub
    # the one run length: the largest power of two within the lift
    # stride, _RUN and the sweep; the last run is padded
    n = 1 << (min(stride or steps, _RUN, steps).bit_length() - 1)
    padded = -(-steps // n) * n
    run_bytes = n * 4 * r * r * np.result_type(
        v, fac.hu if fac.d is None else fac.d).itemsize
    chunk = max(1, _BLOCK_BYTES // run_bytes)
    # non-Hermitian tau is never lifted, so sub = 1 at r > 1
    gen = (fac.d / sub,) if r == 1 else (fac.hu, fac.hu @ fac.hu)
    out = np.empty((L, 2 * r, ncol + nder), dtype=complex)
    arg = np.zeros(L) if stride else None
    for start in range(0, L, chunk):
        part = slice(start, start + chunk)
        vp = v[part]
        block = n * max(1, _BLOCK_BYTES // (run_bytes * vp.size))
        acc = np.zeros((2 * r, ncol, vp.size))
        acc[range(ncol), range(ncol)] = 1.0
        dacc = np.zeros((2 * r, nder, vp.size))
        phase = np.ones(vp.size, dtype=complex)
        for lo in range(0, padded, block):
            hi = min(lo + block, padded)
            at = np.minimum(np.arange(lo, hi), steps - 1) // sub
            x, dx = _leaves(gen, at, vp, dv, nder > 0)
            if hi > steps:  # identity leaves, exact as I P = P
                x[steps - lo:] = np.eye(2 * r)[:, :, None]
                if nder:
                    dx[steps - lo:] = 0.0
            shape = (-1, n) + x.shape[1:]
            prod, dprod = _runs(x.reshape(shape),
                                None if dx is None else dx.reshape(shape))
            del x, dx  # before the next block forms its own
            for q, end in enumerate(range(lo + n, hi + 1, n)):
                if nder:
                    dacc = _mul(dprod[q], acc[:, :r]) + _mul(prod[q], dacc)
                acc = _mul(prod[q], acc)
                if stride:
                    phase = _lifted(arg[part], phase,
                                    acc[:, :r].reshape(2, r, r, -1),
                                    2.0 * r * vp * min(end, steps))
        out[part, :, :ncol] = acc.transpose(2, 0, 1)
        out[part, :, ncol:] = dacc.transpose(2, 0, 1)
    return out, arg
