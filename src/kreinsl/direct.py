"""Direct spectral problem: boundary values, Weyl function, eigenvalues,
and matrix norming constants of the operator pair generated by tau.

The 2r x 2r fundamental system W' = Q(x, lambda) W with

    Q = [[-tau(x), lambda I], [-lambda I, tau(x)]],   W(0) = I,

carries all four boundary matrices at once: its blocks at x = 1 are
psi(1, lam, tau), phi(1, lam, -tau), -phi(1, lam, tau), psi(1, lam, -tau).

It is integrated by a fourth-order commutator-free exponential scheme
on tau's not-a-knot cubic spline at the Gauss nodes of every cell.  Each
step applies two exponentials of h [[-u, v I], [-v I, u]], whose square
is block scalar, so they are cosh/sinhc functions of h^2 (u^2 - v^2 I)
and the oscillation in lambda is propagated exactly.  A batch of lambdas
goes along the 2m factors by one of two paths behind _sweep, chosen by
the class of tau alone: the product chain (chain.py) for scalar and
non-Hermitian tau, the loop in each factor's eigenbasis (_eigen_sweep)
for Hermitian tau with r > 1, on a setup built once per tau (_Factors).
dW/dlambda comes from the closed forms of dc/dv and ds/dv (lambda enters
a factor only through v = h lambda / 2), so it is the discrete scheme's.

Eigenvalues are counted, not scanned: for Hermitian tau the frame
columns (X, Y) of W are Lagrangian, U = (X + iY)(X - iY)^{-1} is unitary,
and lifting arg det U along x counts the eigenvalues below lambda
(find_eigenvalues refines the roots by Newton on U's eigenphases in the
same propagations).  norming_constants takes the Weyl function's residues
by Keldysh's theorem.  The README's numerical notes give the derivations,
the loop layout and measurements.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import _scalar_coefficients
from .core import (
    BoundaryValues,
    ConfigurationError,
    ConsistencyError,
    ExtractionError,
    MatrixGrid,
    PoleProximityError,
    SpectralData,
    ValidationError,
    _unchecked,
    bin_index,
    matrix_rank_psd,
)

# Gauss nodes on [0, 1] and the two-exponential weights of the CF4 scheme.
_C1 = 0.5 - np.sqrt(3.0) / 6.0
_C2 = 0.5 + np.sqrt(3.0) / 6.0
_A1 = 0.25 + np.sqrt(3.0) / 6.0
_A2 = 0.25 - np.sqrt(3.0) / 6.0

# Scale of the singular values that rank_checks reports.
RANK_TOL = 1e-7
WEYL_PIVOT_TOL = 1e-10

# Largest change of psi between two lifts; the lift reads it modulo 2 pi,
# so anything below pi is exact (see _lift_plan).
_LIFT_MAX = 2.5
# A bracket narrower than this, relative to max(1, lambda), is not split
# further: its count jump is then the multiplicity of one root.
_SPLIT_FLOOR = 1e-9
# Count points go this far, relative to max(1, lambda), outside the
# outermost predicted roots of a bracket, so a root predicted that closely
# lands in a bracket below _SPLIT_FLOOR.
_PREDICT_HALF = 0.25 * _SPLIT_FLOOR
# Newton stops once its step is below this, relative to max(1, lambda); the
# last step is still taken, so the error left is of the order of its square.
_NEWTON_TOL = 1e-10
# Rounds of the root search before it gives up on a bracket.
_ROUNDS = 100
# Lambdas per propagation of a count, so that a batch's accumulator and
# per-factor buffers stay in cache and memory stays bounded.  The direct
# solve counts only its n_bins + 1 edges, one batch for up to 1023 bins.
_COUNT_BATCH = 1024
# Byte cap of one array of a sweep's block of factors: the (factors, r, L)
# coefficients of _eigen_sweep and the (sub-steps, 2r, 2r, L) leaves of
# the product chain, whose chunks take as many lambdas as the leaves of
# one run fit.  A block's temporaries stay in cache whatever m and L are,
# while small batches still get all 2m factors in one evaluation.
_BLOCK_BYTES = 1 << 17


def _linear_recurrence(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z_k = a_k z_{k-1} + b_k along axis 0, z_{-1} = 0, by recursive doubling.

    a is (n,) and b is (n, r, r); log2(n) vectorized steps replace the
    n-step loop.  With |a_k| < 1 the reordering only regroups a convergent
    sum, so roundoff stays at the level of the sequential loop.
    """
    a = a.copy()
    z = b.copy()
    s = 1
    while s < z.shape[0]:
        z[s:] = z[s:] + a[s:, None, None] * z[:-s]
        a[s:] = a[s:] * a[:-s]
        s *= 2
    return z


def _spline_curvatures(y: np.ndarray) -> np.ndarray:
    """Second derivatives, in index units, of the not-a-knot cubic spline
    through the samples y_0..y_m (axis 0).

    The continuity equations are M_{i-1} + 4 M_i + M_{i+1} = 6 (second
    difference of y at i).  Not-a-knot (M_0 = 2 M_1 - M_2 and its mirror)
    turns rows 1 and m - 1 into 6 M_1 = ..., which leaves a [1, 4, 1]
    system for M_2..M_{m-2}.  Its two Thomas sweeps are linear
    recurrences with multipliers below 0.27 in modulus.
    """
    m = y.shape[0] - 1
    d = 6.0 * (y[:-2] - 2.0 * y[1:-1] + y[2:])
    curv = np.empty_like(y)
    curv[1] = d[0] / 6.0
    curv[m - 1] = d[-1] / 6.0
    e = d[1:-1].copy()
    e[0] -= curv[1]
    e[-1] -= curv[m - 1]
    # Thomas multipliers c_k = 1 / (4 - c_{k-1}) contract onto 2 - sqrt(3)
    # by a factor ~0.07 per row; 20 rows reach it to roundoff.
    c = np.full(e.shape[0], 2.0 - np.sqrt(3.0))
    ck = 0.0
    for k in range(min(20, c.size)):
        ck = 1.0 / (4.0 - ck)
        c[k] = ck
    fwd = _linear_recurrence(-c, c[:, None, None] * e)
    back = np.append(c[:-1], 0.0)
    curv[2:m - 1] = _linear_recurrence(-back[::-1], fwd[::-1])[::-1]
    curv[0] = 2.0 * curv[1] - curv[2]
    curv[m] = 2.0 * curv[m - 1] - curv[m - 2]
    return curv


def _step_generators(tau_values: np.ndarray, h: float):
    """Per-cell lambda-independent pieces of the two CF4 exponentials.

    Returns hu (2, m, r, r), h times the effective potential of each
    factor, from tau at the Gauss nodes of every cell.  Those values come
    from the not-a-knot cubic spline through the samples: reading the
    samples as piecewise linear instead costs second order in h, which
    dominates the fourth-order scheme and shifts eigenvalues of smooth
    potentials by ~2e-4 at m = 128.  The spline is linear in the samples
    with real weights, so it reproduces constants to roundoff and keeps
    the generators of -tau* the exact negated adjoints of those of tau.
    """
    t0 = tau_values[:-1]
    t1 = tau_values[1:]
    curv = _spline_curvatures(tau_values)
    k0 = curv[:-1]
    k1 = curv[1:]

    def at(t):
        return ((1.0 - t) * t0 + t * t1
                - t * (1.0 - t) / 6.0 * ((2.0 - t) * k0 + (1.0 + t) * k1))

    tg1 = at(_C1)
    tg2 = at(_C2)
    u_first = _A1 * tg1 + _A2 * tg2
    u_second = _A2 * tg1 + _A1 * tg2
    return h * np.stack([u_first, u_second])


class _Factors:
    """The lambda-independent setup of tau's 2m CF4 factors, in the order
    they act (cell 0 first, cell 0 second, cell 1 ...): the generators hu
    (2m, r, r) and, for scalar and Hermitian tau, the eigenvalues
    d (2m, r) of hu; for Hermitian r > 1 also the eigenbases vecs and the
    basis changes turns = V_k^H V_{k-1} (V_{-1} = I).

    Built once per tau by _factors.  find_eigenvalues, norming_constants
    and count_eigenvalues accept it in place of the MatrixGrid, so a
    direct solve's count, Newton and residue propagations share one.
    """

    # a plain class: a dataclass here would add milliseconds to every
    # import of the package's validation path, which never propagates
    __slots__ = ("tau", "hu", "d", "vecs", "turns")

    def __init__(self, tau: MatrixGrid, hu: np.ndarray,
                 d: np.ndarray | None, vecs: np.ndarray | None,
                 turns: np.ndarray | None):
        self.tau, self.hu = tau, hu
        self.d, self.vecs, self.turns = d, vecs, turns


def _factors(tau) -> _Factors:
    if isinstance(tau, _Factors):
        return tau
    r = tau.r
    hu = np.swapaxes(_step_generators(tau.values, tau.spec.h),
                     0, 1).reshape(-1, r, r)
    d = vecs = turns = None
    if r == 1:
        d = hu[:, 0]
        if not np.any(d.imag):
            d = d.real
    elif tau.hermitian:
        d, vecs = np.linalg.eigh(hu)
        prev = np.concatenate([np.eye(r)[None], vecs[:-1]])
        turns = np.conj(np.swapaxes(vecs, -1, -2)) @ prev
    return _Factors(tau, hu, d, vecs, turns)


def _lift_plan(fac: _Factors) -> tuple[int, int]:
    """(sub-steps per factor, sub-steps per lift) that keep the change of
    psi = arg det U + 2 r v t between two lifts within _LIFT_MAX.

    In a factor's eigenbasis the frame's U obeys U' = -2iv U - D + U D U
    (D = diag(d), unit time t per factor), so psi' = 2 Im tr(D U) and one
    factor moves psi by at most 2 sum_i |d_i|, whatever lambda is.  Below
    the limit several factors share one lift; above it (strong tau, coarse
    grid) every factor runs as that many sub-steps exp(G / n), each lifted.
    """
    bound = 2.0 * float(np.max(np.abs(fac.d).sum(axis=1)))
    if bound > _LIFT_MAX:
        return math.ceil(bound / _LIFT_MAX), 1
    return 1, max(1, int(_LIFT_MAX / bound)) if bound > 0 else fac.hu.shape[0]


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of the (r, r) leading blocks of an (r, r, L) array."""
    if a.shape[0] == 1:
        return a[0, 0]
    if a.shape[0] == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return np.linalg.det(np.moveaxis(a, -1, 0))


def _det_phase(frame: np.ndarray) -> np.ndarray:
    """det(X + iY) conj(det(X - iY)) of a (2, r, r, L) frame (X, Y): its
    argument is arg det U.  A basis change acts on X and Y alike, and
    transposing both leaves it too, so any layout gives the same value."""
    x, y = frame
    return _det(x + 1j * y) * np.conj(_det(x - 1j * y))


def _lifted(arg, phase, frame, turn):
    """Add the change of psi = arg det U + turn since phase to arg, in
    place, at frame (_det_phase); returns the new phase."""
    now = _det_phase(frame) * np.exp(1j * turn)
    arg += np.angle(now * np.conj(phase))
    return now


def _half_pairs(c, su, sv, P, Q):
    """The coefficient pair P = (c - su, c + su), Q = (sv, -sv), written
    to P and Q, (factor, row, 1, half, lambda), to broadcast over the
    columns."""
    np.subtract(c, su, out=P[:, :, 0, 0])
    np.add(c, su, out=P[:, :, 0, 1])
    Q[:, :, 0, 0] = sv
    np.negative(sv, out=Q[:, :, 0, 1])
    return P, Q


def _sweep(fac: _Factors, lams, ncol: int, *, deriv: bool = False,
           lift: bool = False):
    """Propagate the first ncol columns (r or 2r) of W(x, lam) to x = 1.

    Returns (w, dw, arg): w (L, 2r, ncol); with deriv, dw (L, 2r, r) is
    dW/dlam of the r frame columns, else None; with lift, arg (L,) is
    arg det U at x = 1, lifted continuously from 0 at x = 0, else None.

    The class of tau alone picks the path.  Scalar and non-Hermitian tau
    take the product chain (chain.py); Hermitian tau with r > 1 takes the
    loop (_eigen_sweep), which applies r independent 2 x 2 blocks and one
    basis change per factor, 4-8x faster than dense products.  At r = 1 a
    lambda's w, dw and arg are the same bytes in any batch: coefficients
    are scaled per lambda (_cosh_sinhc), and runs and lifts end at
    sub-step indices that tau alone fixes (_lift_plan).  At r > 1 the
    loop's basis-change GEMMs round them with the batch around them.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if not np.any(lams.imag):
        # real lambdas and generator eigenvalues give real c and s, which
        # cost half as much to form
        lams = lams.real
    r = fac.tau.r
    if (deriv or lift) and fac.d is None:
        raise ValidationError(
            "lambda derivatives and eigenvalue counts need scalar or "
            "Hermitian tau")
    sub, stride = _lift_plan(fac) if lift else (1, 0)
    dv = 0.5 * fac.tau.spec.h / sub
    v = dv * lams
    args = (fac, v, dv, ncol, r if deriv else 0, sub, stride)
    if fac.vecs is None:
        # imported here, so that runs at Hermitian r > 1 do not compile it
        from .chain import chain_sweep
        out, arg = chain_sweep(*args)
    else:
        out, arg = _eigen_sweep(*args)
    if lift:
        arg -= 2.0 * r * v * (fac.hu.shape[0] * sub)  # 2 r v k = 2 r lambda
    return out[..., :ncol], (out[..., ncol:] if deriv else None), arg


def _eigen_sweep(fac: _Factors, v, dv, ncol, nder, sub, stride):
    """_sweep's loop for Hermitian tau at r > 1: (out, arg), out (L, 2r,
    ncol + nder) with the derivative columns last; sub is the sub-steps
    per factor and stride the sub-steps per lift, 0 for none.  The
    accumulator is laid out as (row i of the top and bottom halves,
    column, half, lambda) in the current eigenbasis; entering a factor is
    one GEMM V_k^H V_{k-1} on its (r, -1) view, then each pair of rows
    (top_i, bot_i) maps to P (top_i, bot_i) + Q (bot_i, top_i) with
    P = (c - s d_i, c + s d_i), Q = (s v, -s v)."""
    r = fac.tau.r
    L = v.size
    nf = fac.hu.shape[0]
    bufs = np.zeros((3, r, ncol + nder, 2, L), dtype=complex)
    for i in range(ncol):
        bufs[0, i % r, i, i // r] = 1.0
    t1, t2 = np.empty((2, r, r, 2, L), dtype=complex)

    def views(a):  # what the loop reads of a buffer, built once
        return (a, a.reshape(r, -1), a[:, :, ::-1], a[:, :r], a[:, :r, ::-1],
                a[:, ncol:], np.moveaxis(a[:, :r], 2, 0))

    acc, work = views(bufs[0]), views(bufs[1])
    tmp = bufs[2]
    arg = None
    if stride:
        arg, phase = np.zeros(L), np.ones(L, dtype=complex)
        spin, taken = 2.0 * r * v, 0
    block = max(1, _BLOCK_BYTES // (r * max(L, 1) * 16))
    # every block's P, Q and, with nder, their lambda-derivatives: one
    # array each of a block's size, which the heap serves again and again
    # (one array for all four is mapped afresh per sweep and raised the
    # process's peak RSS by 0.3-0.5 MB)
    pairs = [np.empty((min(block, nf), r, 1, 2, L), np.result_type(fac.d, v))
             for _ in range(4 if nder else 2)]
    for lo in range(0, nf, block):
        hi = min(lo + block, nf)
        outs = iter([x[:hi - lo] for x in pairs])
        coef = sum(_scalar_coefficients(
            fac.d[lo:hi, :, None] / sub, v, dv, nder,
            lambda *csv: _half_pairs(*csv, next(outs), next(outs))), ())
        for turn, P, Q, *dpq in zip(fac.turns[lo:hi], *coef):
            np.matmul(turn, acc[1], out=work[1])
            acc, work = work, acc
            for _ in range(sub):
                a, _, a_rev, a_r, a_rev_r = acc[:5]
                np.multiply(P, a, out=work[0])
                np.multiply(Q, a_rev, out=tmp)
                np.add(work[0], tmp, out=work[0])
                if nder:  # summed in contiguous t1, t2 first
                    np.multiply(dpq[0], a_r, out=t1)
                    np.multiply(dpq[1], a_rev_r, out=t2)
                    np.add(t1, t2, out=t1)
                    np.add(work[5], t1, out=work[5])
                acc, work = work, acc
                if stride:
                    taken += 1
                    if taken % stride == 0 or taken == nf * sub:
                        phase = _lifted(arg, phase, acc[6], spin * taken)
    out = (fac.vecs[-1] @ acc[1]).reshape(acc[0].shape)
    return out.transpose(3, 2, 0, 1).reshape(L, 2 * r, ncol + nder), arg


def _propagate_many(tau: MatrixGrid, lams: np.ndarray) -> np.ndarray:
    """Fundamental matrix W(1, lam, tau) for a batch of lambdas: (L, 2r, 2r)."""
    fac = _factors(tau)
    return _sweep(fac, lams, 2 * fac.tau.r)[0]


def _blocks(w: np.ndarray, r: int):
    """Split W(1) into (phi_tau, psi_tau, phi_mtau, psi_mtau)."""
    psi_tau = w[..., :r, :r]
    phi_mtau = w[..., :r, r:]
    phi_tau = -w[..., r:, :r]
    psi_mtau = w[..., r:, r:]
    return phi_tau, psi_tau, phi_mtau, psi_mtau


def propagate(tau: MatrixGrid, lam):
    """Boundary matrices of the fundamental system at one lambda, or at
    each of a 1-D array of lambdas (a list, one propagation per sign).

    Integrates the 2r x 2r system for tau (which carries the -tau blocks
    as well) and reports the residual of the inverse-pair identity
    W(1, lam, tau) W(1, conj(lam), -tau*)^* = I alongside.
    """
    lams = np.asarray(lam)
    w1 = _propagate_many(tau, lams.ravel())
    minus_star = MatrixGrid(tau.r, tau.spec,
                            -np.conj(np.swapaxes(tau.values, -1, -2)),
                            hermitian=tau.hermitian)
    w2 = _propagate_many(minus_star, np.conj(lams.ravel()))
    resid = np.linalg.norm(w1 @ np.conj(np.swapaxes(w2, -1, -2))
                           - np.eye(2 * tau.r), 2, axis=(-2, -1))
    points = lams.ravel() if lams.ndim else [lam]
    out = [BoundaryValues(at, *blocks, identity_residual=float(res))
           for at, *blocks, res in zip(points, *_blocks(w1, tau.r), resid)]
    return out if lams.ndim else out[0]


def weyl_m(tau: MatrixGrid, lam: complex) -> np.ndarray:
    """Weyl-Titchmarsh matrix m_tau(lambda) = -phi(1, lam, tau)^{-1}
    psi(1, lam, -tau); raises near its poles."""
    phi_t, _, _, psi_mt = _blocks(_propagate_many(tau, [lam])[0], tau.r)
    sig = np.linalg.svd(phi_t, compute_uv=False)
    if sig[-1] <= WEYL_PIVOT_TOL * max(1.0, sig[0]):
        raise PoleProximityError(
            f"phi(1, lambda, tau) is numerically singular at lambda = {lam} "
            f"(smallest singular value {sig[-1]:.3e})",
            sigma_min=float(sig[-1]),
        )
    return -np.linalg.solve(phi_t, psi_mt)


def _eigenphases(w: np.ndarray) -> np.ndarray:
    """Eigenphases (L, r) of U(1), in (-pi, pi], from a frame sweep."""
    r = w.shape[-1]
    x, y = w[:, :r, :r], w[:, r:, :r]
    # eigenvalues of U^T = (X - iY)^{-T} (X + iY)^T, those of U
    ut = np.linalg.solve(np.swapaxes(x - 1j * y, -1, -2),
                         np.swapaxes(x + 1j * y, -1, -2))
    return np.angle(np.linalg.eigvals(ut))


def _phase_data(w: np.ndarray, dw: np.ndarray):
    """Eigenphases theta (L, r) of U(1), unit eigenvectors vec (L, r, r)
    and U^H dU/dlambda (L, r, r), from a frame sweep with its derivative.

    With U = Z W^{-1}, Z = X + iY, W = X - iY, dU = (dZ - U dW) W^{-1}.
    For an orthonormal basis Q of eigenvectors (U is normal) the sum of
    their phases moves at Im tr(Q^H U^H dU Q); the phases turn clockwise,
    so that slope is negative.
    """
    r = w.shape[-1]
    x, y = w[:, :r, :r], w[:, r:, :r]
    dx, dy = dw[:, :r], dw[:, r:]
    w_inv = np.linalg.inv(x - 1j * y)
    u = (x + 1j * y) @ w_inv
    du = ((dx + 1j * dy) - u @ (dx - 1j * dy)) @ w_inv
    mu, vec = np.linalg.eig(u)
    return np.angle(mu), vec, np.conj(np.swapaxes(u, -1, -2)) @ du


def _count(arg: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """N(lambda) from a lifted frame sweep: (sum of the eigenphases theta
    of U(1) reduced to [0, 2 pi) minus the lifted arg det U) / 2 pi."""
    reduced = np.mod(theta, 2.0 * np.pi).sum(axis=-1)
    n = (reduced - arg) / (2.0 * np.pi)
    whole = np.rint(n)
    if n.size and np.max(np.abs(n - whole)) > 0.25:
        raise ConsistencyError(
            f"eigenvalue count is not an integer (off by "
            f"{np.max(np.abs(n - whole)):.3e}): arg det U lost track")
    return whole.astype(int)


def count_eigenvalues(tau: MatrixGrid, lams) -> np.ndarray:
    """N(lambda) for real lambda: the number of eigenvalues in [0, lambda),
    with multiplicity, lambda_0 = 0 counted r times.  Exact up to roundoff
    at lambdas within roundoff of an eigenvalue.  Needs Hermitian tau."""
    fac = _factors(tau)
    if not fac.tau.hermitian:
        raise ValidationError("eigenvalue counts require Hermitian tau")
    lams = np.asarray(lams, dtype=float).ravel()
    out = np.empty(lams.size, dtype=int)
    for lo in range(0, lams.size, _COUNT_BATCH):
        part = slice(lo, lo + _COUNT_BATCH)
        w, _, arg = _sweep(fac, lams[part], fac.tau.r, lift=True)
        out[part] = _count(arg, _eigenphases(w))
    return out


def _predict(theta, vec, uhdu) -> np.ndarray:
    """One Newton step -theta_j / theta_j' per eigenphase, (L, r), with
    theta_j' = Im q_j^H U^H dU q_j; NaN where theta_j' >= 0 or the quotient
    is not finite.  The sign, zero included, is the side of the point on
    which its count puts that root: + for theta_j mod 2 pi below pi, a
    root the count has not taken in, - for one it has (see _count)."""
    slope = np.einsum("lij,lik,lkj->lj", np.conj(vec), uhdu, vec).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.abs(theta / slope)
    step = np.where(np.mod(theta, 2.0 * np.pi) < np.pi, step, -step)
    return np.where((slope < 0.0) & np.isfinite(step), step, np.nan)


def _split_points(lo: float, hi: float, pred: np.ndarray,
                  halve: bool) -> np.ndarray:
    """New count points inside the bracket (lo, hi) from the predictions
    pred of its ends: _PREDICT_HALF outside the outermost usable ones and
    between consecutive ones more than _SPLIT_FLOOR apart (closer ones
    are one root, as the floor has it), or the midpoint when none is
    usable.  A prediction within _PREDICT_HALF outside the bracket is
    usable: it places a root at an end that the count there did not take
    in.  With halve the midpoint joins whenever the other points leave a
    piece wider than half the bracket."""
    d = _PREDICT_HALF * max(1.0, hi)
    # np.unique, less the numpy.ma import (about 1.3 MB) of its first call
    p = np.sort(pred[(pred > lo - d) & (pred < hi + d)])
    p = p[np.diff(p, prepend=-np.inf) > 0]
    pts = p[:0]
    if p.size:
        apart = np.diff(p) > _SPLIT_FLOOR * max(1.0, hi)
        pts = np.concatenate([[p[0] - d], 0.5 * (p[1:] + p[:-1])[apart],
                              [p[-1] + d]])
        pts = pts[(pts > lo) & (pts < hi)]
    if pts.size == 0 or (
            halve and np.diff(np.concatenate([[lo], pts, [hi]])).max()
            > 0.5 * (hi - lo)):
        pts = np.sort(np.append(pts, 0.5 * (lo + hi)))
    return pts[np.diff(pts, prepend=-np.inf) > 0]


def _phase_step(theta, vec, uhdu, mult: np.ndarray) -> np.ndarray:
    """Newton step -g/g' per lambda, g the sum of the mult eigenphases of
    U(1) nearest 0 (mod 2 pi), g' = Im tr(Q^H U^H dU Q) for an orthonormal
    basis Q of their eigenvectors: well defined however close those phases
    are (see _phase_data)."""
    nearest = np.argsort(np.abs(theta), axis=-1)
    step = np.empty(theta.shape[0])
    for k in sorted(set(mult.tolist())):
        rows = np.flatnonzero(mult == k)
        sel = nearest[rows, :k]
        g = np.take_along_axis(theta[rows], sel, axis=-1).sum(axis=-1)
        q = np.linalg.qr(np.take_along_axis(vec[rows], sel[:, None, :], axis=-1))[0]
        qh = np.conj(np.swapaxes(q, -1, -2))
        slope = np.trace(qh @ uhdu[rows] @ q, axis1=-2, axis2=-1).imag
        with np.errstate(divide="ignore", invalid="ignore"):
            step[rows] = np.where(slope < 0.0, -g / slope, np.nan)
    return step


def find_eigenvalues(tau: MatrixGrid, lambda_max: float, *,
                     report: dict | None = None
                     ) -> list[tuple[float, np.ndarray]]:
    """Locate lambda_0 = 0 and all eigen square roots in (0, lambda_max].

    Counts the eigenvalues below every bin edge pi (n + 1/2) under
    lambda_max and below lambda_max itself (count_eigenvalues), then runs
    one loop over the brackets whose count rises, each round one lifted
    propagation with dW/dlambda at new points for every open bracket.  A
    bracket whose count rises by k > 1 and that is wider than
    1e-9 max(1, lambda) is split at points its ends' predictions place
    (_split_points).  Every other bracket gets one Newton point: for one
    root the shortest step from either end that stays inside, forward
    from the lower end and backward from the upper as their counts have
    it (the midpoint without one), and the count there moves the bracket;
    for k > 1 the step on the sum of k eigenphases (_phase_step), whose
    count is not used, since a point among the k roots says nothing about
    their multiplicity.  A root is found once its Newton step is below
    1e-10 max(1, lambda).  The count, not where the points fall,
    guarantees that no root is missed.

    Returns (lambda, kernel_basis) pairs in ascending order, lambda = 0
    first with the full space as kernel.  Every root appears once with
    k = its count jump orthonormal columns: the right singular vectors of
    phi(1, lambda, tau) with the k smallest singular values at its last
    Newton point.  With a report dict, its "edge_counts" gets the counts
    at the edges and lambda_max.
    """
    fac = _factors(tau)
    tau = fac.tau
    if not tau.hermitian:
        raise ValidationError("eigenvalue search requires Hermitian tau")
    if not 0 < lambda_max < math.inf:
        raise ConfigurationError(
            f"lambda_max must be positive and finite, got {lambda_max}")
    r = tau.r
    edges = np.pi * (np.arange(math.ceil(lambda_max / np.pi)) + 0.5)
    grid = np.append(edges[edges < lambda_max], lambda_max)
    counts = np.concatenate([[r], count_eigenvalues(fac, grid)])
    if np.any(np.diff(counts) < 0):
        k = int(np.argmax(np.diff(counts) < 0))
        raise ConsistencyError(
            f"eigenvalue count falls from {counts[k]} to {counts[k + 1]} at "
            f"lambda = {grid[k]:.9g}")
    if report is not None:
        report["edge_counts"] = counts[1:].tolist()
    # Per counted point, ascending: its count, its eigenphases' Newton
    # steps (_predict; NaN at the edges, counted without dW/dlambda) and
    # phi(1, lambda, tau).  Per bracket, kept at its lower point: its next
    # Newton point and whether its root is found.
    lams = np.append(0.0, grid)
    steps = np.full((lams.size, r), np.nan)
    phi = np.full((lams.size, r, r), np.nan, dtype=complex)
    aim = np.full(lams.size, np.nan)
    done = np.zeros(lams.size, dtype=bool)
    found = [(0.0, np.eye(r, dtype=complex))]
    for rounds in range(1, _ROUNDS + 2):
        lo, hi = lams[:-1], lams[1:]
        k = np.diff(counts)
        live = (k > 0) & ~done[:-1]
        wide = live & (k > 1) & (hi - lo > _SPLIT_FLOOR * np.maximum(1.0, hi))
        split, near = np.flatnonzero(wide), np.flatnonzero(live & ~wide)
        if np.any(k[near] > r):
            b = near[np.argmax(k[near] > r)]
            raise ConsistencyError(
                f"{k[b]} eigenvalues within {hi[b] - lo[b]:.3e} of lambda = "
                f"{lo[b]:.9g}, more than r = {r}")
        # each bracket's shortest Newton step from its ends that stays
        # inside: forward from lo, backward from hi (signs: _predict)
        s = np.concatenate([steps[near], steps[near + 1]], axis=1)
        up = np.arange(2 * r) >= r
        cand = np.where(up, hi[near, None], lo[near, None]) + s
        ok = np.where(up, np.signbit(s) & (cand > lo[near, None]),
                      ~np.signbit(s) & (cand < hi[near, None]))
        size = np.where(ok, np.abs(s), np.inf)
        best = np.argmin(size, axis=1)
        rows = np.arange(near.size)
        size, cand = size[rows, best], cand[rows, best]
        close = (k[near] == 1) & (size <= _NEWTON_TOL * np.maximum(1.0, cand))
        at = near[close] + (best[close] >= r)
        found += [(float(lam), v[r - 1:].conj().T)
                  for lam, v in zip(cand[close], np.linalg.svd(phi[at])[2])]
        done[near[close]] = True
        near, size, cand = near[~close], size[~close], cand[~close]
        fresh = (k[near] == 1) | np.isnan(aim[near])
        aim[near[fresh]] = np.where(np.isfinite(size[fresh]), cand[fresh],
                                    0.5 * (lo + hi)[near[fresh]])
        if split.size == 0 and near.size == 0:
            break
        if rounds > _ROUNDS:
            b = np.concatenate([split, near]).min()
            raise ConsistencyError(
                f"root search left {split.size + near.size} bracket(s) open "
                f"after {_ROUNDS} rounds, first near lambda = {lo[b]:.9g}")
        pred = lams[:, None] + steps
        new = [_split_points(lo[b], hi[b], pred[b:b + 2], rounds > 3)
               for b in split]
        owner = np.concatenate([np.repeat(split, [p.size for p in new]), near])
        new = np.concatenate(new + [aim[near]])
        # the Newton points of clusters, last in the sweep
        clus = new.size - near.size + np.flatnonzero(k[near] > 1)
        w, dw, arg = _sweep(fac, new, r, deriv=True, lift=True)
        theta, vec, uhdu = _phase_data(w, dw)
        n_new = _count(arg, theta)
        if clus.size:
            b, x = owner[clus], new[clus]
            nxt = x + _phase_step(theta[clus], vec[clus], uhdu[clus], k[b])
            tol = _NEWTON_TOL * np.maximum(1.0, x)
            inside = (nxt > lo[b] - tol) & (nxt < hi[b] + tol)
            fin = inside & (np.abs(nxt - x) <= tol)
            found += [(float(lam), v[r - kb:].conj().T) for lam, v, kb in zip(
                nxt[fin], np.linalg.svd(-w[clus[fin], r:, :r])[2], k[b[fin]])]
            done[b[fin]] = True
            aim[b] = np.where(inside, nxt, 0.5 * (lo[b] + hi[b]))
        keep = np.isin(np.arange(new.size), clus, invert=True)
        owner = owner[keep]
        add = (new[keep],
               np.clip(n_new[keep], counts[owner], counts[owner + 1]),
               _predict(theta, vec, uhdu)[keep], -w[keep, r:, :r],
               np.full(owner.size, np.nan), np.zeros(owner.size, dtype=bool))
        order = np.argsort(np.concatenate([lams, add[0]]), kind="stable")
        lams, counts, steps, phi, aim, done = (
            np.concatenate([old, more])[order] for old, more in zip(
                (lams, counts, steps, phi, aim, done), add))
        # two new points within roundoff of one root may read it in either
        # order; the larger count holds for both
        counts = np.maximum.accumulate(counts)
    return sorted(found, key=lambda pair: pair[0])


def norming_constants(tau: MatrixGrid, pairs, *, report: dict | None = None,
                      probes=()) -> list[np.ndarray]:
    """Norming constants of the (lambda_j, kernel_basis) pairs that
    find_eigenvalues returns: the residues of `_keldysh_residues`,
    symmetrized and clipped to the positive cone; an eigenvalue of alpha
    below -1e-6 aborts with an extraction failure.  `report` and `probes`
    go to `_keldysh_residues`.  Needs scalar or Hermitian tau.
    """
    alphas = _keldysh_residues(tau, pairs, report, probes)
    w_eig, v = np.linalg.eigh(
        (alphas + np.conj(np.swapaxes(alphas, -1, -2))) / 2.0)
    low = w_eig.min(axis=-1)
    if np.any(low < -1e-6):
        j = np.argmax(low < -1e-6)
        raise ExtractionError(
            f"norming constant at lambda = {float(pairs[j][0]):.9g} has eigenvalue "
            f"{low[j]:.3e} below the -1e-6 positivity floor"
        )
    return list(v * np.clip(w_eig, 0.0, None)[:, None]
                @ np.conj(np.swapaxes(v, -1, -2)))


def _keldysh_residues(tau: MatrixGrid, pairs, report: dict | None = None,
                      probes=()) -> np.ndarray:
    """Raw norming constants of the (lambda_j, kernel_basis) pairs, stacked:
    alpha_j is minus the residue of the Weyl function m = -phi^{-1} psi at
    lambda_j (half of it at lambda_0 = 0), with phi = phi(1, lam, tau) and
    psi = psi(1, lam, -tau).

    The poles are semisimple, so by Keldysh's theorem
    alpha_j = K (L^* phi'(lam_j) K)^{-1} L^* psi(lam_j), K and L the
    singular vectors of the k smallest singular values of phi(lam_j), k
    the multiplicity the count gave (the columns of the pair's basis),
    from one propagation of W and dW/dlambda at all eigenvalues, taken
    in one stacked call per k.  With a report dict, its "sigma" gets the
    singular values of phi(lam_j), (L, r) in descending order, its
    "kernel_dim" the k of every entry, and its "identity_residuals"
    ||W(lam) S W(-lam)^* S - I||_2, S = [[0, I], [I, 0]], at each real
    lambda in probes, taken in the same propagation: for Hermitian tau,
    S Q(lam, tau) S = Q(-lam, -tau) factor by factor, so this is
    propagate's inverse-pair identity.
    """
    fac = _factors(tau)
    if len(pairs) == 0:
        return np.empty((0, fac.tau.r, fac.tau.r), dtype=complex)
    lams = np.asarray([float(lam) for lam, _ in pairs])
    dims = np.array([basis.shape[1] for _, basis in pairs])
    if lams[0] != 0.0:
        raise ConfigurationError("eigenvalue list must start with lambda_0 = 0")
    r, n, p = fac.tau.r, lams.size, np.size(probes)
    w, dw, _ = _sweep(fac, np.concatenate([lams, probes, np.negative(probes)]),
                      2 * r, deriv=True)
    u, s, vh = np.linalg.svd(-w[:n, r:, :r])
    if report is not None:
        report["sigma"] = s
        report["kernel_dim"] = dims.tolist()
        if p:
            sws = np.roll(np.conj(np.swapaxes(w[n + p:], -1, -2)), r,
                          axis=(-2, -1))
            report["identity_residuals"] = np.linalg.norm(
                w[n:n + p] @ sws - np.eye(2 * r), 2, axis=(-2, -1))
    alphas = np.empty((n, r, r), dtype=complex)
    for k in set(dims.tolist()):
        at = dims == k
        right = np.conj(np.swapaxes(vh[at, r - k:], -1, -2))
        left_h = np.conj(np.swapaxes(u[at, :, r - k:], -1, -2))
        alphas[at] = right @ np.linalg.solve(
            left_h @ -dw[:n][at, r:] @ right, left_h @ w[:n][at, r:, r:])
    alphas[0] = 0.5 * alphas[0]
    return alphas


def checked_ranks(ranks: np.ndarray, kernel_dims, n_bins: int, r: int) -> None:
    """Check the cumulative rank identity sum_{n <= N} sum_{lambda_j in bin n}
    rank alpha_j = N r at N = n_bins on the numerical ranks of the norming
    constants of bins 0..n_bins (alpha_0 first); kernel_dims are the
    multiplicities the eigenvalue count gave the same entries.  A violation
    raises ConsistencyError."""
    total_rank = int(ranks[1:].sum())
    if total_rank != n_bins * r:
        roots = sum(kernel_dims[1:])
        raise ConsistencyError(
            f"rank bookkeeping failed at truncation {n_bins}: the norming "
            f"constants have total rank {total_rank} and the eigenvalue "
            f"count finds {roots} roots with multiplicity, where the "
            f"identity needs n_bins r = {n_bins * r}"
        )


def spectral_data(tau: MatrixGrid, n_bins: int, report: dict | None = None,
                  probes=()) -> SpectralData:
    """Full direct solve: eigenvalues plus norming constants up to bin n_bins.

    The truncation is lambda_max = pi (n_bins + 1/2), i.e. exactly the
    first n_bins frequency bins.  The cumulative rank identity is verified
    at N = n_bins (checked_ranks): the eigenvalue count fixes how many
    roots there are and their multiplicities, so a violation means the
    residue ranks disagree with the count.  A report dict collects what
    rank_checks reads: the counts at the bin edges, and the multiplicity
    of every entry, the rank of its alpha and the singular values of phi
    there, and the identity residuals at probes (norming_constants).
    """
    fac = _factors(tau)
    pairs = find_eigenvalues(fac, np.pi * (n_bins + 0.5), report=report)
    alphas = np.stack(norming_constants(fac, pairs, report=report,
                                        probes=probes))
    ranks = matrix_rank_psd(alphas)
    checked_ranks(ranks, [basis.shape[1] for _, basis in pairs], n_bins, tau.r)
    if report is not None:
        report["alpha_rank"] = ranks
    lambdas = np.array([lam for lam, _ in pairs])
    outside = np.flatnonzero(bin_index(lambdas[1:]) > n_bins)
    if outside.size:
        raise ConsistencyError(
            f"eigenvalue {lambdas[1 + outside[0]]:.9g} falls outside "
            f"bins 1..{n_bins}"
        )
    return SpectralData(
        r=tau.r,
        lambdas=lambdas,
        alphas=alphas,
        includes_zero=True,
    )


def spectral_prefix(data: SpectralData, report: dict, n_bins: int) -> SpectralData:
    """The entries of a direct solve's data in bins 0..n_bins: the data a
    solve at n_bins would give, up to roundoff.  They must pass the rank
    identity that spectral_data checks at its own truncation
    (checked_ranks), read off the solve's report."""
    keep = 1 + int((bin_index(data.lambdas[1:]) <= n_bins).sum())
    checked_ranks(report["alpha_rank"][:keep], report["kernel_dim"][:keep],
                  n_bins, data.r)
    return _unchecked(SpectralData, data.r, data.lambdas[:keep],
                      data.alphas[:keep], True)


def rank_checks(data: SpectralData, report: dict) -> dict:
    """How firmly a direct solve's ranks were decided, from the report
    that spectral_data filled; nothing is propagated again.

    entry_checks, per entry: kernel_dim, the multiplicity k the count
    gave the root; alpha_rank, the numerical rank of alpha (equal to
    kernel_dim for a consistent entry); and the singular values of
    phi(1, lambda, tau) over the threshold RANK_TOL * max(1, largest):
    kernel_sigma, the k-th smallest (below 1, near 0 for a well-resolved
    root), and next_sigma, the (k+1)-th smallest (None for a full kernel;
    below 1 when a neighbouring root is closer than the threshold
    resolves).
    edge_counts: N(lambda) at the bin edges pi (n + 1/2), n = 0..n_bins.
    """
    r = data.r
    entries = []
    for lam, rank, s, k in zip(data.lambdas, report["alpha_rank"],
                               report["sigma"], report["kernel_dim"]):
        thresh = RANK_TOL * max(1.0, float(s[0]))
        entries.append({
            "lambda": float(lam),
            "kernel_dim": k,
            "alpha_rank": int(rank),
            "kernel_sigma": float(s[r - k] / thresh),
            "next_sigma": float(s[r - k - 1] / thresh) if k < r else None,
        })
    return {"entry_checks": entries, "edge_counts": report["edge_counts"]}
