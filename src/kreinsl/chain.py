"""The product chain over cells: propagation of scalar and non-Hermitian
tau by products of whole runs of CF4 factors.

At r = 1, and for non-Hermitian tau at r > 1, a CF4 factor is a dense
2r x 2r matrix per lambda, [[C - S hu, S v], [-S v, C + S hu]] with C, S
the functions cosh and sinhc of hu^2 - v^2 (direct._cosh_sinhc).  Applied
one at a time, every factor costs one Python step, about 25 us at r = 1
whatever the batch.  Here a block of _BLOCK factors is formed at once as
(factor, 2r, 2r, lambda) leaves, lambda last so that every matrix product
is a few elementwise products (_mul), and the leaves of every run between
two lifts, or up to the end of the block, are multiplied pairwise,
vectorized over the runs and lambdas: one Python step applies a whole run.
Runs end at factor indices that tau alone fixes (direct._lift_plan), and
the batch is taken in chunks of lambdas whose leaves fit _LEAF_BYTES, so
a lambda's W(1), dW/dlambda and lifted phase do not depend on the lambdas
around it, and memory does not grow with m or L.  direct._sweep sends
here only lift plans whose runs are longer than one step.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .direct import _cosh_sinhc, _lifted, _scalar_coefficients

# Factors per block of leaves.  Fixed, so every batch cuts its runs at the
# same factor indices.
_BLOCK = 256
# Byte cap of one array of leaves, which sets the lambdas per chunk: 16 at
# r = 1 for real lambdas.  A sweep's traced peak is a few such arrays,
# 0.57-0.75 MB at r = 1.
_LEAF_BYTES = 1 << 17


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks (..., n, k, L) and (..., k, p, L), lambda last."""
    out = a[..., :, :1, :] * b[..., :1, :, :]
    for j in range(1, a.shape[-2]):
        out += a[..., :, j:j + 1, :] * b[..., j:j + 1, :, :]
    return out


def _runs(x: np.ndarray, dx: np.ndarray | None):
    """Products of runs of leaves x (runs, n, 2r, 2r, L), leaf 0 acting
    first, by pairwise products in log2(n) steps; with dx, the leaves'
    lambda-derivatives, also the products' derivatives, else None."""
    while x.shape[1] > 1:
        n = x.shape[1] - x.shape[1] % 2
        first, then = x[:, 0:n:2], x[:, 1:n:2]
        if dx is not None:
            dx = _join(_mul(dx[:, 1:n:2], first) + _mul(then, dx[:, 0:n:2]),
                       dx[:, n:])
        x = _join(_mul(then, first), x[:, n:])
    return x[:, 0], (None if dx is None else dx[:, 0])


def _join(pairs: np.ndarray, odd: np.ndarray) -> np.ndarray:
    return np.concatenate([pairs, odd], axis=1) if odd.shape[1] else pairs


def _factor(c, su, sv) -> np.ndarray:
    """[[C - S hu, S v], [-S v, C + S hu]] from (factor, r, r, L) blocks,
    or at r = 1 from (factor, L) scalars."""
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


def _leaves(fac, lo: int, hi: int, v, dv: float, deriv: bool):
    """The (factor, 2r, 2r, L) matrices of factors lo..hi-1 and with deriv
    (r = 1) their lambda-derivatives."""
    r = fac.tau.r
    if r == 1:
        out = _scalar_coefficients(fac.d[lo:hi], v, dv, deriv, _factor)
    else:
        c, s = _cosh_sinhc(fac.hu2[lo:hi, :, :, None]
                           - np.eye(r)[:, :, None] * (v * v), _mul)
        out = [_factor(c, _mul(s, fac.hu[lo:hi, :, :, None]), s * v)]
    return out[0], (out[1] if deriv else None)


def _products(fac, lo: int, hi: int, v, dv: float, deriv: bool, ends):
    """(n, product, derivative or None) of every run of factors lo..hi-1,
    in order, the runs ending at ends; the block's leaves are freed on
    return, before the next block forms its own."""
    x, dx = _leaves(fac, lo, hi, v, dv, deriv)
    out = []
    for n, group in groupby(b - a for a, b in zip([lo] + ends, ends)):
        k = len(list(group))
        shape = (k, n) + x.shape[1:]
        prod, dprod = _runs(x[:k * n].reshape(shape),
                            None if dx is None else dx[:k * n].reshape(shape))
        x, dx = x[k * n:], (None if dx is None else dx[k * n:])
        out += [(n, prod[q], None if dprod is None else dprod[q])
                for q in range(k)]
    return out


def chain_sweep(fac, v, dv: float, ncol: int, nder: int, stride: int):
    """direct._sweep by products: (out, arg), out (L, 2r, ncol + nder)
    with the nder derivative columns of the frame last, arg the lifted
    psi at x = 1 (direct._lifted) or None; stride is the factors per
    lift, 0 for no lift.

    Per chunk of lambdas the accumulator (2r, ncol, L) and its derivative
    (2r, nder, L) take one product (value and derivative) per run.  A run
    of n leaves is their product in log2(n) vectorized steps, however the
    chunk is made up.
    """
    r = fac.tau.r
    L = v.size
    steps = fac.hu.shape[0]
    itemsize = np.result_type(v, fac.hu if fac.d is None else fac.d).itemsize
    chunk = max(1, _LEAF_BYTES // (_BLOCK * 4 * r * r * itemsize))
    out = np.empty((L, 2 * r, ncol + nder), dtype=complex)
    arg = np.zeros(L) if stride else None
    for start in range(0, L, chunk):
        part = slice(start, start + chunk)
        vp = v[part]
        acc = np.zeros((2 * r, ncol, vp.size))
        acc[range(ncol), range(ncol)] = 1.0
        dacc = np.zeros((2 * r, nder, vp.size))
        phase = np.ones(vp.size, dtype=complex)
        for lo in range(0, steps, _BLOCK):
            hi = min(lo + _BLOCK, steps)
            # runs end at every lift and at the end of the block
            ends = [*(range(lo - lo % stride + stride, hi, stride)
                      if stride else ()), hi]
            taken = lo
            for n, prod, dprod in _products(fac, lo, hi, vp, dv, nder > 0,
                                            ends):
                if nder:
                    dacc = _mul(dprod, acc[:, :r]) + _mul(prod, dacc)
                acc = _mul(prod, acc)
                taken += n
                if stride and (taken % stride == 0 or taken == steps):
                    phase = _lifted(arg[part], phase,
                                    acc[:, :r].reshape(2, r, r, -1),
                                    2.0 * r * vp * taken)
        out[part, :, :ncol] = acc.transpose(2, 0, 1)
        out[part, :, ncol:] = dacc.transpose(2, 0, 1)
    return out, arg
