"""Direct spectral problem: boundary values, Weyl function, eigenvalues,
and matrix norming constants of the operator pair generated by tau.

The 2r x 2r fundamental system W' = Q(x, lambda) W with

    Q = [[-tau(x), lambda I], [-lambda I, tau(x)]],   W(0) = I,

carries all four boundary matrices at once: its blocks at x = 1 are
psi(1, lam, tau), phi(1, lam, -tau), -phi(1, lam, tau), psi(1, lam, -tau).

Integration uses a fourth-order commutator-free exponential scheme: each
step applies two exponentials of matrices of the form
h * [[-u, v I], [-v I, u]], whose square is block scalar, so the
exponential reduces to cosh/sinh-type functions of the small r x r matrix
h^2 (u^2 - v^2 I).  The oscillation in lambda is therefore propagated
exactly; for constant tau the scheme is exact up to roundoff, which
classical Runge-Kutta phase error cannot deliver at the eigenvalue
tolerances this module has to meet.

The scheme needs tau at the two Gauss nodes of every cell.  It reads the
grid samples through the not-a-knot cubic spline, whose fourth-order error
matches the scheme's; the piecewise-linear reading used elsewhere in the
package (quadrature, resampling, half-grid midpoints) would limit the
eigenvalues to second order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryValues,
    ConfigurationError,
    ConsistencyError,
    ContourError,
    ExtractionError,
    MatrixGrid,
    PoleProximityError,
    SpectralData,
    ValidationError,
    bin_index,
)

# Gauss nodes on [0, 1] and the two-exponential weights of the CF4 scheme.
_C1 = 0.5 - np.sqrt(3.0) / 6.0
_C2 = 0.5 + np.sqrt(3.0) / 6.0
_A1 = 0.25 + np.sqrt(3.0) / 6.0
_A2 = 0.25 - np.sqrt(3.0) / 6.0

RANK_TOL = 1e-7
WEYL_PIVOT_TOL = 1e-10
CLUSTER_TOL = 1e-8
REFINE_TOL = 1e-10
CONTOUR_POINTS = 64

# Max batch of (cell, lambda) pairs materialized at once when precomputing
# step transfer matrices.  It caps pairs, not bytes: one (m, L, 2r, 2r)
# complex array at the cap is 2e6 (2r)^2 16 B, about 512 MB at r = 2, and
# peak memory grows as r^2 (1.27 GB measured at r = 2, m = 256).
_CHUNK = 2_000_000


def _cosh_sinhc_scalar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosh(sqrt(m)) and sinh(sqrt(m))/sqrt(m), elementwise, any sign."""
    w = np.sqrt(m.astype(complex))
    c = np.cosh(w)
    small = np.abs(w) < 1e-4
    ws = np.where(small, 1.0, w)
    s = np.sinh(ws) / ws
    s = np.where(small, 1.0 + m / 6.0 + m * m / 120.0, s)
    return c, s


def _cosh_sinhc_matrix(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched cosh(sqrt(M)), sinh(sqrt(M))/sqrt(M) for (..., r, r) blocks.

    Taylor series after scaling M by 4^-s, then s double-angle steps
    C <- 2C^2 - I, S <- S C.  Both series are entire in M, so no square
    roots or eigendecompositions are needed.
    """
    import math

    r = m.shape[-1]
    eye = np.eye(r, dtype=complex)
    nrm = float(np.max(np.abs(m).sum(axis=-1))) if m.size else 0.0
    s_steps = 0
    while nrm > 1.0:
        nrm /= 4.0
        s_steps += 1
    z = m / (4.0 ** s_steps)

    kmax = 10
    ck = [1.0 / math.factorial(2 * k) for k in range(kmax + 1)]
    sk = [1.0 / math.factorial(2 * k + 1) for k in range(kmax + 1)]
    c = ck[kmax] * np.broadcast_to(eye, z.shape).copy()
    s = sk[kmax] * np.broadcast_to(eye, z.shape).copy()
    for k in range(kmax - 1, -1, -1):
        c = ck[k] * eye + z @ c
        s = sk[k] * eye + z @ s
    for _ in range(s_steps):
        s = s @ c
        c = 2.0 * (c @ c) - eye
    return c, s


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

    Returns hu (2, m, r, r) and hu^2 (2, m, r, r): h times the effective
    potential of each factor and its square, from tau at the Gauss nodes
    of every cell.  Those values come from the not-a-knot cubic spline
    through the samples: reading the samples as piecewise linear instead
    costs second order in h, which dominates the fourth-order scheme and
    shifts eigenvalues of smooth potentials by ~2e-4 at m = 128.  The
    spline is linear in the samples with real weights, so it reproduces
    constants to roundoff and keeps the generators of -tau* the exact
    negated adjoints of those of tau.
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
    hu = h * np.stack([u_first, u_second])
    return hu, hu @ hu


def _transfer_matrices_hermitian(hu: np.ndarray, lams: np.ndarray,
                                 h: float, r: int) -> np.ndarray:
    """Transfer matrices through the eigenbasis of each Hermitian generator.

    With hu = V diag(d) V^H the block-scalar square has eigenvalues
    d_i^2 - v^2, so the cosh/sinh-type functions reduce to scalar
    evaluations recombined in the fixed per-cell eigenbasis; this skips
    the Taylor matrix series entirely.
    """
    m_cells = hu.shape[1]
    L = lams.size
    v = 0.5 * h * lams
    out = np.empty((m_cells, L, 2 * r, 2 * r), dtype=complex)
    for f in range(2):
        d, vec = np.linalg.eigh(hu[f])
        vec_b = vec[:, None]
        vech_b = np.conj(np.swapaxes(vec, -1, -2))[:, None]
        marg = (d ** 2)[:, None, :] - (v ** 2)[None, :, None]
        c, s = _cosh_sinhc_scalar(marg)
        cmat = (vec_b * c[..., None, :]) @ vech_b
        smat = (vec_b * s[..., None, :]) @ vech_b
        su = (vec_b * (s * d[:, None, :])[..., None, :]) @ vech_b
        sv = smat * v[None, :, None, None]
        blk = np.empty((m_cells, L, 2 * r, 2 * r), dtype=complex)
        blk[..., :r, :r] = cmat - su
        blk[..., :r, r:] = sv
        blk[..., r:, :r] = -sv
        blk[..., r:, r:] = cmat + su
        if f == 0:
            out[:] = blk
        else:
            out[:] = blk @ out
    return out


def _transfer_matrices(hu: np.ndarray, hu2: np.ndarray, lams: np.ndarray,
                       h: float, r: int) -> np.ndarray:
    """All per-cell transfer matrices, shape (m, L, 2r, 2r)."""
    m_cells = hu.shape[1]
    L = lams.size
    v = 0.5 * h * lams  # (L,)
    out = np.empty((m_cells, L, 2 * r, 2 * r), dtype=complex)
    for f in range(2):
        # M = (h u)^2 - v^2 I, shape (m, L, r, r)
        if r == 1:
            marg = hu2[f, :, None, 0, 0] - (v ** 2)[None, :]
            c, s = _cosh_sinhc_scalar(marg)
            c = c[..., None, None]
            s = s[..., None, None]
        else:
            marg = hu2[f][:, None] - (v ** 2)[None, :, None, None] * np.eye(r)
            c, s = _cosh_sinhc_matrix(marg)
        su = s @ hu[f][:, None]
        sv = s * v[None, :, None, None]
        blk = np.empty((m_cells, L, 2 * r, 2 * r), dtype=complex)
        blk[..., :r, :r] = c - su
        blk[..., :r, r:] = sv
        blk[..., r:, :r] = -sv
        blk[..., r:, r:] = c + su
        if f == 0:
            out[:] = blk
        else:
            out[:] = blk @ out
    return out


def _propagate_many(tau: MatrixGrid, lams: np.ndarray) -> np.ndarray:
    """Fundamental matrix W(1, lam, tau) for a batch of lambdas: (L, 2r, 2r)."""
    lams = np.asarray(lams, dtype=complex).ravel()
    r = tau.r
    h = tau.spec.h
    hu, hu2 = _step_generators(tau.values, h)
    m_cells = tau.spec.m
    L = lams.size
    w = np.broadcast_to(np.eye(2 * r, dtype=complex), (L, 2 * r, 2 * r)).copy()
    chunk = max(1, _CHUNK // max(1, m_cells))
    for lo in range(0, L, chunk):
        sub = lams[lo:lo + chunk]
        if tau.hermitian and r > 1:
            steps = _transfer_matrices_hermitian(hu, sub, h, r)
        else:
            steps = _transfer_matrices(hu, hu2, sub, h, r)
        acc = w[lo:lo + sub.size]
        for i in range(m_cells):
            acc = steps[i] @ acc
        w[lo:lo + sub.size] = acc
    return w


def _blocks(w: np.ndarray, r: int):
    """Split W(1) into (phi_tau, psi_tau, phi_mtau, psi_mtau)."""
    psi_tau = w[..., :r, :r]
    phi_mtau = w[..., :r, r:]
    phi_tau = -w[..., r:, :r]
    psi_mtau = w[..., r:, r:]
    return phi_tau, psi_tau, phi_mtau, psi_mtau


def propagate(tau: MatrixGrid, lam: complex) -> BoundaryValues:
    """Boundary matrices of the fundamental system at one lambda.

    Integrates the 2r x 2r system for tau (which carries the -tau blocks
    as well) and reports the residual of the inverse-pair identity
    W(1, lam, tau) W(1, conj(lam), -tau*)^* = I alongside.
    """
    w1 = _propagate_many(tau, np.array([lam]))[0]
    phi_t, psi_t, phi_mt, psi_mt = _blocks(w1, tau.r)
    minus_star = MatrixGrid(tau.r, tau.spec,
                            -np.conj(np.swapaxes(tau.values, -1, -2)),
                            hermitian=tau.hermitian)
    w2 = _propagate_many(minus_star, np.array([np.conj(lam)]))[0]
    resid = float(np.linalg.norm(w1 @ w2.conj().T - np.eye(2 * tau.r), 2))
    return BoundaryValues(lam=lam, phi_tau=phi_t, psi_tau=psi_t,
                          phi_mtau=phi_mt, psi_mtau=psi_mt,
                          identity_residual=resid)


def _weyl_many(tau: MatrixGrid, lams: np.ndarray) -> np.ndarray:
    """m(lam) = -phi(1,lam,tau)^{-1} psi(1,lam,-tau) for a batch of lambdas."""
    w = _propagate_many(tau, lams)
    r = tau.r
    phi_t, _, _, psi_mt = _blocks(w, r)
    sig = np.linalg.svd(phi_t, compute_uv=False)
    bad = sig[..., -1] <= WEYL_PIVOT_TOL * np.maximum(1.0, sig[..., 0])
    if np.any(bad):
        k = int(np.argmax(bad))
        raise PoleProximityError(
            f"phi(1, lambda, tau) is numerically singular at lambda = "
            f"{np.asarray(lams).ravel()[k]} (smallest singular value "
            f"{sig[k][-1]:.3e})",
            sigma_min=float(sig[k][-1]),
        )
    return -np.linalg.solve(phi_t, psi_mt)


def weyl_m(tau: MatrixGrid, lam: complex) -> np.ndarray:
    """Weyl-Titchmarsh matrix m_tau(lambda); raises near its poles."""
    return _weyl_many(tau, np.array([lam]))[0]


def _sigma_min_many(tau: MatrixGrid, lams) -> np.ndarray:
    w = _propagate_many(tau, lams)
    phi_t = _blocks(w, tau.r)[0]
    return np.linalg.svd(phi_t, compute_uv=False)[..., -1]


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(tau: MatrixGrid, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized golden-section minimization of sigma_min over brackets."""
    a = lo.copy()
    b = hi.copy()
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = _sigma_min_many(tau, x1)
    f2 = _sigma_min_many(tau, x2)
    while np.max(b - a) > REFINE_TOL:
        take_left = f1 < f2
        b = np.where(take_left, x2, b)
        a = np.where(take_left, a, x1)
        x_eval = np.where(take_left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        f_eval = _sigma_min_many(tau, x_eval)
        x1, x2, f1, f2 = (np.where(take_left, x_eval, x2),
                          np.where(take_left, x1, x_eval),
                          np.where(take_left, f_eval, f2),
                          np.where(take_left, f1, f_eval))
    return (a + b) / 2.0


def _orth_columns(cols: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > tol * max(1.0, s[0] if s.size else 1.0)
    return u[:, keep]


def find_eigenvalues(tau: MatrixGrid, lambda_max: float,
                     scan_step: float = 0.05) -> list[tuple[float, np.ndarray]]:
    """Locate lambda_0 = 0 and all eigen square roots in (0, lambda_max].

    Scans sigma_min of phi(1, lambda, tau) on a uniform lambda grid,
    refines every interior local minimum by golden-section search to
    |dlambda| <= 1e-10, and keeps the refined points whose smallest
    singular values fall below the rank threshold.  Returns a list of
    (lambda, kernel_basis) with orthonormal kernel columns; lambda = 0 is
    always present with the full space as kernel.

    Roots closer together than the merge tolerance are combined into one
    entry with the union of their kernels (a cluster warning is emitted);
    roots separated by less than scan_step may be missed, which the rank
    bookkeeping in spectral_data subsequently reports.
    """
    if not tau.hermitian:
        raise ValidationError("eigenvalue search requires Hermitian tau")
    if lambda_max <= 0:
        raise ConfigurationError("lambda_max must be positive")
    if scan_step >= np.pi / 4.0:
        raise ConfigurationError(
            f"scan_step {scan_step} is too coarse; it must stay below pi/4"
        )
    grid = np.arange(1, int(np.ceil((lambda_max + scan_step) / scan_step)) + 1) * scan_step
    sig = _sigma_min_many(tau, grid)
    interior = np.flatnonzero((sig[1:-1] < sig[:-2]) & (sig[1:-1] <= sig[2:])) + 1
    out: list[tuple[float, np.ndarray]] = [(0.0, np.eye(tau.r, dtype=complex))]
    if interior.size:
        roots = _golden_refine(tau, grid[interior - 1], grid[interior + 1])
        w = _propagate_many(tau, roots)
        phi = _blocks(w, tau.r)[0]
        _, s, vh = np.linalg.svd(phi)
        found: list[tuple[float, np.ndarray]] = []
        for k in range(roots.size):
            thresh = RANK_TOL * max(1.0, float(s[k, 0]))
            null = s[k] <= thresh
            if not np.any(null) or roots[k] > lambda_max + 1e-9:
                continue
            basis = vh[k].conj().T[:, null]
            found.append((float(roots[k]), basis))
        found.sort(key=lambda p: p[0])
        merged: list[tuple[float, np.ndarray]] = []
        for lam, basis in found:
            if merged and lam - merged[-1][0] < CLUSTER_TOL:
                warnings.warn(
                    f"eigenvalue cluster near lambda = {lam:.12g} merged",
                    RuntimeWarning, stacklevel=2,
                )
                prev_lam, prev_basis = merged[-1]
                merged[-1] = (prev_lam,
                              _orth_columns(np.hstack([prev_basis, basis])))
            else:
                merged.append((lam, basis))
        out.extend(merged)
    return out


def _contour_radii(lams: np.ndarray) -> np.ndarray:
    gaps = np.diff(lams)
    radii = np.empty(lams.size)
    for j in range(lams.size):
        left = gaps[j - 1] if j > 0 else np.inf
        right = gaps[j] if j < lams.size - 1 else np.inf
        radii[j] = min(0.4 * min(left, right), 0.5)
    return radii


def norming_constants(tau: MatrixGrid, eigenvalues, *,
                      hermitize: bool = True) -> list[np.ndarray]:
    """Norming constants by contour extraction of the Weyl-function residues.

    alpha_j is minus the residue of m_tau at lambda_j (half of it at
    lambda_0 = 0), computed with a 64-point trapezoid rule on a circle of
    radius min(0.4 * gap to neighbours, 0.5); trapezoid sums on circles
    converge geometrically for the analytic part, and the simple-pole part
    is integrated exactly.  With hermitize the results are symmetrized and
    clipped to the positive cone; an eigenvalue of alpha below -1e-6 aborts
    with an extraction failure.
    """
    lams = np.asarray([float(l) for l in eigenvalues])
    if lams.size == 0:
        return []
    if lams[0] != 0.0:
        raise ConfigurationError("eigenvalue list must start with lambda_0 = 0")
    radii = _contour_radii(lams)
    theta = 2.0 * np.pi * np.arange(CONTOUR_POINTS) / CONTOUR_POINTS
    phase = np.exp(1j * theta)
    zs = lams[:, None] + radii[:, None] * phase[None, :]
    try:
        mvals = _weyl_many(tau, zs.ravel())
    except PoleProximityError as exc:
        raise ContourError(
            f"residue contour hit a pole of the Weyl function ({exc}); "
            "retry with a smaller radius"
        ) from exc
    mvals = mvals.reshape(lams.size, CONTOUR_POINTS, tau.r, tau.r)
    alphas = -(radii[:, None, None] / CONTOUR_POINTS) * np.einsum(
        "jk,jkab->jab", np.broadcast_to(phase, zs.shape), mvals)
    alphas[0] *= 0.5
    if not hermitize:
        return [alphas[j] for j in range(lams.size)]
    out = []
    for j in range(lams.size):
        a = (alphas[j] + alphas[j].conj().T) / 2.0
        w, v = np.linalg.eigh(a)
        if w.min() < -1e-6:
            raise ExtractionError(
                f"norming constant at lambda = {lams[j]:.9g} has eigenvalue "
                f"{w.min():.3e} below the -1e-6 positivity floor"
            )
        a = (v * np.clip(w, 0.0, None)) @ v.conj().T
        out.append(a)
    return out


@dataclass
class EigenRecord:
    """One eigenvalue record: square root, norming matrix, and kernel data."""

    lam: float
    alpha: np.ndarray
    multiplicity: int
    kernel_basis: np.ndarray


def matrix_rank_psd(alpha: np.ndarray, rtol: float = 1e-9) -> int:
    """Numerical rank of a Hermitian PSD matrix."""
    w = np.linalg.eigvalsh((alpha + alpha.conj().T) / 2.0)
    scale = max(float(w.max()), 0.0)
    return int(np.count_nonzero(w > rtol * max(scale, 1e-300)))


def eigen_records(tau: MatrixGrid, n_bins: int,
                  scan_step: float = 0.05) -> list[EigenRecord]:
    lambda_max = np.pi * (n_bins + 0.5)
    pairs = find_eigenvalues(tau, lambda_max, scan_step)
    alphas = norming_constants(tau, [lam for lam, _ in pairs])
    return [
        EigenRecord(lam=lam, alpha=alpha, multiplicity=matrix_rank_psd(alpha),
                    kernel_basis=basis)
        for (lam, basis), alpha in zip(pairs, alphas)
    ]


def spectral_data(tau: MatrixGrid, n_bins: int,
                  scan_step: float = 0.05) -> SpectralData:
    """Full direct solve: eigenvalues plus norming constants up to bin n_bins.

    The truncation is lambda_max = pi (n_bins + 1/2), i.e. exactly the
    first n_bins frequency bins.  The cumulative rank identity
    sum_{n <= N} sum_{lambda_j in bin n} rank alpha_j = N r is verified at
    N = n_bins; a violation signals a missed or spurious eigenvalue.
    """
    recs = eigen_records(tau, n_bins, scan_step)
    total_rank = sum(r.multiplicity for r in recs[1:])
    if total_rank != n_bins * tau.r:
        raise ConsistencyError(
            f"rank bookkeeping failed at truncation {n_bins}: counted "
            f"{total_rank} instead of {n_bins * tau.r}; an eigenvalue was "
            "missed or spuriously detected (try a smaller scan_step)"
        )
    for rec in recs[1:]:
        n = bin_index(rec.lam)
        if n < 1 or n > n_bins:
            raise ConsistencyError(
                f"eigenvalue {rec.lam:.9g} falls outside bins 1..{n_bins}"
            )
    return SpectralData(
        r=tau.r,
        lambdas=np.array([rec.lam for rec in recs]),
        alphas=np.stack([rec.alpha for rec in recs]),
        includes_zero=True,
    )
