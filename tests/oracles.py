"""Independent reference computations used by the test suite.

Nothing here shares code with the package's solvers: eigenvalues and
norming constants come from a quadratic-form finite-difference
discretization (assembled from the energy integral of the quasi-derivative,
so the natural boundary conditions are built in), refined by Richardson
extrapolation; closed forms cover the constant-coefficient cases.  The
propagator reference chains scipy's matrix exponential through the same
fourth-order scheme the package uses, with scipy's spline reading of the
samples, and the norming-constant reference integrates the Weyl function
built from it around residue contours.  The exceptions are
roots_by_bisection, which shares the package's eigenvalue count but none of
its root search, and the Nystrom matrices sym_nystrom_square and
sym_nystrom_triangular, completeness_via_heo, theta, accelerant_positivity
and roundtrip_per_row, routes that only the tests use, built on the
package's own kernels.  The fresh_* coefficient functions,
per_column_eigen_sweep, per_entry_residues and krein_square_rows are the
package's earlier forms of the propagator's coefficients, its eigenbasis
loop, its residue math and the Krein solve's dense rows, kept as
references for the forms that replaced them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.linalg import eigh, eigh_tridiagonal, expm


def fd_eigen_r1(tau_samples: np.ndarray, m: int, count: int):
    """Lowest eigenpairs of the half-problem operator for scalar real tau.

    Discretizes the energy form  integral |f' + tau f|^2  with one-point
    cell quadrature (midpoint tau, trapezoid mass), giving a symmetric
    tridiagonal pencil; returns (lambdas, alphas) with lambda_j >= 0 the
    square roots and alpha_j = f_j(0)^2 / 2 from mass-normalized
    eigenvectors.
    """
    h = 1.0 / m
    tau_mid = (tau_samples[:-1] + tau_samples[1:]) / 2.0
    lo = -1.0 / h + tau_mid / 2.0
    hi = 1.0 / h + tau_mid / 2.0
    d = np.zeros(m + 1)
    e = np.zeros(m)
    d[:-1] += h * lo ** 2
    d[1:] += h * hi ** 2
    e[:] = h * lo * hi
    w = np.full(m + 1, h)
    w[0] = w[-1] = h / 2.0
    dt = d / w
    et = e / np.sqrt(w[:-1] * w[1:])
    vals, vecs = eigh_tridiagonal(dt, et, select="i",
                                  select_range=(0, count - 1))
    lams = np.sqrt(np.clip(vals, 0.0, None))
    f0 = vecs[0, :] / np.sqrt(w[0])
    alphas = f0 ** 2 / 2.0
    return lams, alphas


def fd_eigen_r1_refined(tau_fn, count: int, grids=(1024, 2048, 4096)):
    """Richardson-extrapolated eigenvalues and norming constants (r = 1).

    Assumes a smooth even-power error expansion in h, which holds for the
    smooth potentials the tests use; two extrapolation stages remove the
    h^2 and h^4 terms.
    """
    out = []
    for m in grids:
        x = np.arange(m + 1) / m
        lams, alphas = fd_eigen_r1(tau_fn(x), m, count)
        out.append((lams, alphas))
    (l1, a1), (l2, a2), (l3, a3) = out

    def extrap(v1, v2, v3):
        r1 = (4.0 * v2 - v1) / 3.0
        r2 = (4.0 * v3 - v2) / 3.0
        return (16.0 * r2 - r1) / 15.0

    return extrap(l1, l2, l3), extrap(a1, a2, a3)


def fd_eigen_matrix(tau_grid: np.ndarray, m: int, count: int):
    """Dense form-discretization eigenpairs for matrix-valued tau.

    tau_grid holds Hermitian r x r samples at the m+1 nodes.  Returns
    (lambdas, projector-blocks-at-zero): for each of the lowest `count`
    eigenvalues the summand f(0) f(0)^H of its eigenspace, so degenerate
    eigenvalues can be regrouped by the caller.
    """
    r = tau_grid.shape[-1]
    h = 1.0 / m
    n = (m + 1) * r
    A = np.zeros((n, n), dtype=complex)
    eye = np.eye(r)
    for i in range(m):
        t = (tau_grid[i] + tau_grid[i + 1]) / 2.0
        B = np.hstack([-eye / h + t / 2.0, eye / h + t / 2.0])
        blk = h * (B.conj().T @ B)
        s = i * r
        A[s:s + 2 * r, s:s + 2 * r] += blk
    w = np.full(m + 1, h)
    w[0] = w[-1] = h / 2.0
    ws = np.repeat(np.sqrt(w), r)
    At = A / ws[:, None] / ws[None, :]
    At = (At + At.conj().T) / 2.0
    vals, vecs = eigh(At, subset_by_index=(0, count - 1))
    lams = np.sqrt(np.clip(vals, 0.0, None))
    f0 = vecs[:r, :] / np.sqrt(w[0])
    return lams, f0


def constant_tau_lambdas(c: float, count: int) -> np.ndarray:
    """Square-root eigenvalues for constant scalar tau = c: 0 and
    sqrt(pi^2 n^2 + c^2)."""
    n = np.arange(count)
    return np.sqrt(np.pi ** 2 * n ** 2 + c ** 2) * (n > 0) + 0.0


def constant_tau_alphas(c: float, count: int) -> np.ndarray:
    """Norming constants for constant scalar tau = c.

    alpha_0 = c / (1 - exp(-2c)) from the exponential ground state;
    alpha_n = (pi n / lambda_n)^2 from the explicit trigonometric
    eigenfunctions.
    """
    out = np.empty(count)
    out[0] = c / (1.0 - np.exp(-2.0 * c)) if c != 0 else 0.5
    n = np.arange(1, count)
    out[1:] = (np.pi * n) ** 2 / (np.pi ** 2 * n ** 2 + c ** 2)
    return out


def constant_tau_phi1(c: float, lam: complex) -> complex:
    """phi(1, lam) for constant scalar tau = c: lam sin(w)/w, w^2 = lam^2 - c^2."""
    w = np.sqrt(complex(lam * lam - c * c))
    if abs(w) < 1e-12:
        return complex(lam)
    return complex(lam * np.sin(w) / w)


def constant_accelerant_r(hval: float, x: np.ndarray) -> np.ndarray:
    """Closed-form triangular solution for the constant kernel: -h/(1+hx)."""
    return -hval / (1.0 + hval * x)


def krein_dense_rows(h_values: np.ndarray, rows=None) -> np.ndarray:
    """Discrete Krein solution by one dense numpy solve per grid row.

    h_values holds r x r kernel samples H(x_k), k = 0..m, on the uniform
    grid of [0, 1].  Row i solves
        R_ij + H((i - j) h) + sum_k w_k R_ik H(|k - j| h) = 0,  j <= i,
    with trapezoid weights w on [0, x_i] (all zero on row 0), transposed
    into the column system (I + Hblk W) Y = -[H(i h)^T; ...; H(0)^T] for
    Y = [R_i0^T; ...; R_ii^T], where Hblk has blocks H(|j - k| h)^T.
    Real kernels are solved in real arithmetic.  Returns values[i, j] =
    R(x_i, t_j), zero above the diagonal; only the grid rows in `rows`
    (all by default) are solved, the others stay zero.
    """
    m = h_values.shape[0] - 1
    r = h_values.shape[-1]
    h = 1.0 / m
    if not np.any(np.imag(h_values)):
        h_values = np.real(h_values)
    ht = np.swapaxes(h_values, -1, -2)
    out = np.zeros((m + 1, m + 1, r, r), dtype=complex)
    for i in range(m + 1) if rows is None else rows:
        n = i + 1
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        if i == 0:
            w[:] = 0.0
        dist = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        hblk = ht[dist].transpose(0, 2, 1, 3).reshape(n * r, n * r)
        system = np.eye(n * r) + hblk * np.repeat(w, r)[None, :]
        rhs = -np.concatenate([ht[i - j] for j in range(n)], axis=0)
        y = np.linalg.solve(system, rhs)
        out[i, :n] = np.swapaxes(y.reshape(n, r, r), -1, -2)
    return out


def krein_residual_one_gemm(h_values: np.ndarray, r_values: np.ndarray) -> float:
    """Max blockwise 2-norm defect of the discrete Krein equation over the
    triangle, by one product over all rows.

    R (values[i, k] = R(x_i, s_k)) with every block (i, k) scaled by its
    row's trapezoid weight w_k, times the full block-Toeplitz matrix of
    H(|k - j| h); each block defect is R(x_i, t_j) + H(x_i - t_j) plus the
    block (i, j) of that product, for j <= i.  This is the package's
    residual before it went through the triangle in row blocks, and it
    keeps the Frobenius preselection of the blocks whose 2-norm is taken.
    """
    n_full, _, r, _ = r_values.shape
    h = 1.0 / (n_full - 1)
    hv, rv = h_values, r_values
    if not np.any(hv.imag) and not np.any(rv.imag):
        hv, rv = hv.real, rv.real
    weights = np.tril(np.full((n_full, n_full), h))
    weights[:, 0] = weights[np.arange(n_full), np.arange(n_full)] = h / 2.0
    weights[0, 0] = 0.0
    d_idx = np.abs(np.arange(n_full)[:, None] - np.arange(n_full)[None, :])

    def flat(blocks):
        return blocks.transpose(0, 2, 1, 3).reshape(n_full * r, n_full * r)

    quad = flat(rv * weights[:, :, None, None]) @ flat(hv[d_idx])
    i, j = np.tril_indices(n_full)
    defect = rv[i, j] + hv[i - j] + quad.reshape(n_full, r, n_full, r)[i, :, j, :]
    fro = np.sqrt(np.sum(np.abs(defect) ** 2, axis=(-2, -1)))
    top = fro.max()
    if top == 0.0:
        return 0.0
    near = defect[fro >= 0.99 * top / np.sqrt(r)]
    return float(np.max(np.linalg.norm(near, ord=2, axis=(-2, -1))))


def _row_weights(i: int, h: float) -> np.ndarray:
    """Trapezoid weights on [0, x_i]; the zero-length row 0 gets weight 0."""
    if i == 0:
        return np.zeros(1)
    w = np.full(i + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


def krein_square_rows(Td: np.ndarray, h: float, start: int, pivots):
    """Yield rows start.. of R, by one dense LU each.

    Each row's reciprocal 1-norm condition estimate (LAPACK's gecon) goes
    to `pivots`; a row below PIVOT_TOL raises NotAnAccelerantError.

    The package's `krein._dense_rows` before it built each row's system
    from T in place and certified it by its exact 2-norm condition number:
    this form copies every row's system out of the whole (m+1) r square,
    gathered by an (m+1)^2 index array.  Same signature and generator
    protocol, so a test can patch it in.
    """
    from scipy.linalg import lapack, lu_factor, lu_solve

    from kreinsl.core import NotAnAccelerantError, block_flatten
    from kreinsl.krein import PIVOT_TOL

    n_full, r = Td.shape[0], Td.shape[1]
    d_idx = np.abs(np.arange(n_full)[:, None] - np.arange(n_full)[None, :])
    big = block_flatten(Td[d_idx])  # (n r, n r), entry (j,k) block = H((j-k)h)^T
    gecon = lapack.dgecon if Td.dtype.kind == "f" else lapack.zgecon

    for i in range(start, n_full):
        n = i + 1
        a = big[: n * r, : n * r].copy()
        w = _row_weights(i, h)
        wcol = np.repeat(w, r)
        a *= wcol[None, :]
        a[np.arange(n * r), np.arange(n * r)] += 1.0
        b = -Td[i::-1].reshape(n * r, r)  # column stack of H((i-j)h)^T over j
        anorm = float(np.max(np.abs(a).sum(axis=0)))
        lu, piv = lu_factor(a, check_finite=False)
        rcond = gecon(lu, anorm, norm="1")[0]
        if not np.isfinite(rcond) or rcond < PIVOT_TOL:
            raise NotAnAccelerantError(
                f"kernel fails invertibility at truncation x = {i * h:.9g} "
                f"(normalized pivot {rcond:.3e}); not an accelerant",
                x=i * h,
                pivot=float(rcond),
            )
        pivots.see(float(rcond), i * h)
        y = lu_solve((lu, piv), b, check_finite=False)
        yield np.swapaxes(y.reshape(n, r, r), -1, -2)


def cf4_fundamental_matrix(tau_values: np.ndarray, lams) -> np.ndarray:
    """W(1, lam) of W' = Q W, Q = [[-tau, lam I], [-lam I, tau]], W(0) = I.

    tau_values holds r x r samples at the m+1 nodes of the uniform grid of
    [0, 1]; tau between them is the not-a-knot cubic spline
    (scipy.interpolate.make_interp_spline).  Each cell applies the
    fourth-order commutator-free pair
        exp(h (a2 Q(t1) + a1 Q(t2))) exp(h (a1 Q(t1) + a2 Q(t2))),
    a1,2 = 1/4 +- sqrt(3)/6, at the Gauss nodes t1 < t2, each exponential
    by scipy.linalg.expm on the full 2r x 2r matrix.  Returns (L, 2r, 2r).
    """
    m = tau_values.shape[0] - 1
    r = tau_values.shape[-1]
    h = 1.0 / m
    lams = np.asarray(lams, dtype=complex).ravel()
    knots = np.arange(m + 1.0)
    spline = make_interp_spline(knots, tau_values, k=3, axis=0)
    g = np.sqrt(3.0) / 6.0
    a1, a2 = 0.25 + g, 0.25 - g
    tau1 = spline(knots[:-1] + 0.5 - g)
    tau2 = spline(knots[:-1] + 0.5 + g)

    def generator(t):
        q = np.zeros((lams.size, 2 * r, 2 * r), dtype=complex)
        q[:, :r, :r] = -t
        q[:, r:, r:] = t
        q[:, :r, r:] = lams[:, None, None] * np.eye(r)
        q[:, r:, :r] = -lams[:, None, None] * np.eye(r)
        return q

    w = np.tile(np.eye(2 * r, dtype=complex), (lams.size, 1, 1))
    for n in range(m):
        q1, q2 = generator(tau1[n]), generator(tau2[n])
        w = expm(h * (a1 * q1 + a2 * q2)) @ w
        w = expm(h * (a2 * q1 + a1 * q2)) @ w
    return w


def sym_nystrom_square(kernel) -> np.ndarray:
    """Symmetrized Nystrom matrix W^(1/2) K W^(1/2) of a SquareKernel.

    Eigenvalues of I + (this matrix) approximate the spectrum of the
    identity plus the integral operator with kernel K on L2(0,1).
    """
    from kreinsl.core import block_flatten, trapezoid_weights

    s = np.sqrt(trapezoid_weights(kernel.spec))
    scaled = kernel.values * s[:, None, None, None] * s[None, :, None, None]
    return block_flatten(scaled)


def sym_nystrom_triangular(kernel) -> np.ndarray:
    """Similarity-symmetrized Nystrom matrix of a Volterra-type kernel.

    The kernel extended by zero above the diagonal jumps across t = x, and
    the diagonal samples sit exactly on that jump; they enter with half
    weight, the canonical mean-value regularization of a jump kernel.  For
    interior rows this coincides with the trapezoid endpoint weight of the
    row integral over [0, x_i], and it keeps products of such matrices
    consistent with the operator algebra to quadrature order at the two
    corners as well.
    """
    from kreinsl.core import block_flatten, trapezoid_weights

    n = kernel.spec.m + 1
    s = np.sqrt(trapezoid_weights(kernel.spec))
    ratio = np.tril(np.ones((n, n)))
    idx = np.arange(n)
    ratio[idx, idx] = 0.5
    scaled = kernel.values * (ratio * np.outer(s, s))[:, :, None, None]
    return block_flatten(scaled)


def completeness_via_heo(data, spec, n_bins: int):
    """I + even/odd Nystrom matrices through the doubled-grid kernel squares.

    Builds `build_heo`'s (2m+1)^2 r^2 even/odd kernels of the accelerant
    synthesized on GridSpec(2m), keeps every second sample, and forms the
    Hermitian-averaged I + W^(1/2) K W^(1/2) matrices: the construction
    `completeness_matrices` replaced by direct indexing.
    """
    from kreinsl.accelerant import build_accelerant, build_heo, prepend_unit_mass
    from kreinsl.core import GridSpec, SquareKernel

    work = data if data.includes_zero else prepend_unit_mass(data)
    he2, ho2 = build_heo(build_accelerant(work, GridSpec(2 * spec.m), n_bins))
    eye = np.eye((spec.m + 1) * data.r)
    out = []
    for k2 in (he2, ho2):
        mat = eye + sym_nystrom_square(SquareKernel(data.r, spec, k2.values[::2, ::2]))
        out.append((mat + mat.conj().T) / 2.0)
    return tuple(out)



def contour_norming_constants(tau_values: np.ndarray, lams, points: int = 64):
    """Norming constants as minus the residues of the Weyl function at the
    given square-root eigenvalues (half of it at lambda_0 = 0), by the
    trapezoid rule on circles.

    m(lam) = -phi(1, lam)^{-1} psi(1, lam, -tau) comes from
    cf4_fundamental_matrix at `points` equispaced points of a circle of
    radius min(0.4 * gap to the neighbours, 0.5) around each lambda_j; the
    trapezoid sum converges geometrically in `points` for the analytic
    part and integrates the simple pole exactly.  This is the contour route
    the package used before its Keldysh residues.
    """
    lams = np.asarray(lams, dtype=float)
    r = tau_values.shape[-1]
    gaps = np.diff(lams)
    left = np.concatenate([[np.inf], gaps])
    right = np.concatenate([gaps, [np.inf]])
    radii = np.minimum(0.4 * np.minimum(left, right), 0.5)
    phase = np.exp(2j * np.pi * np.arange(points) / points)
    zs = lams[:, None] + radii[:, None] * phase[None, :]
    w = cf4_fundamental_matrix(tau_values, zs.ravel())
    mvals = -np.linalg.solve(-w[:, r:, :r], w[:, r:, r:])
    mvals = mvals.reshape(lams.size, points, r, r)
    alphas = -(radii[:, None, None] / points) * np.einsum("k,jkab->jab", phase, mvals)
    alphas[0] *= 0.5
    return alphas


def roots_by_bisection(tau, lambda_max: float, tol: float = 1e-13):
    """Eigen square roots in (0, lambda_max] and their multiplicities by
    plain bisection on the package's count N(lambda).

    Counts at the bin edges pi (n + 1/2) below lambda_max and at
    lambda_max, then halves every bracket whose count rises, all at once,
    until each is narrower than tol; a bracket that still holds k roots
    gives one root of multiplicity k at its midpoint.
    """
    from kreinsl.direct import count_eigenvalues

    edges = np.pi * (np.arange(int(np.ceil(lambda_max / np.pi))) + 0.5)
    grid = np.append(edges[edges < lambda_max], lambda_max)
    n = np.append(tau.r, count_eigenvalues(tau, grid))
    live = np.flatnonzero(np.diff(n) > 0)
    lo, hi = np.append(0.0, grid)[live], grid[live]
    n_lo, n_hi = n[live], n[live + 1]
    while np.any(hi - lo > tol):
        wide = hi - lo > tol
        mid = 0.5 * (lo[wide] + hi[wide])
        n_mid = np.clip(count_eigenvalues(tau, mid), n_lo[wide], n_hi[wide])
        lo = np.concatenate([lo[~wide], lo[wide], mid])
        hi = np.concatenate([hi[~wide], mid, hi[wide]])
        n_lo, n_hi = (np.concatenate([n_lo[~wide], n_lo[wide], n_mid]),
                      np.concatenate([n_hi[~wide], n_mid, n_hi[wide]]))
        keep = np.flatnonzero(n_hi > n_lo)
        keep = keep[np.argsort(lo[keep])]
        lo, hi, n_lo, n_hi = lo[keep], hi[keep], n_lo[keep], n_hi[keep]
    return 0.5 * (lo + hi), n_hi - n_lo


def theta(H):
    """Potential of an accelerant, tau(x_i) = -R(x_i, 0), from the package's
    Krein solve; symmetrized when H is Hermitian."""
    from kreinsl.krein import solve_krein

    tau, _ = solve_krein(H).extract_tau()
    return tau


def accelerant_positivity(H) -> float:
    """Smallest eigenvalue of the discretized I + full convolution operator
    f -> int_0^1 H(x - t) f(t) dt, with the package's Nystrom arithmetic;
    a positive value certifies (at this resolution) that a Hermitian H is
    an accelerant."""
    from kreinsl.validation import _identity_plus_nystrom

    i = np.arange(H.spec.m + 1)
    blocks = H.values[np.abs(i[:, None] - i[None, :])]
    return float(np.linalg.eigvalsh(_identity_plus_nystrom(blocks, H.spec))[0])


def roundtrip_per_row(tau, n_bins: int, grid_m: int) -> dict:
    """The roundtrip report's table and spectral re-match with one direct
    solve per row: each (N, m) row resamples tau and solves it at its own
    truncation N, where the CLI reads the N-bin rows off the 2N-bin
    solve."""
    from kreinsl.cli import _inverse_pipeline, _relative_errors
    from kreinsl.core import GridSpec, resample_matrix_grid
    from kreinsl.direct import spectral_data

    table, base = [], None
    for nb in (n_bins, 2 * n_bins):
        for gm in (grid_m, 2 * grid_m):
            tau_m = resample_matrix_grid(tau, GridSpec(gm))
            data = spectral_data(tau_m, nb)
            tau_hat, diag = _inverse_pipeline(data, nb, gm)
            table.append({"n_bins": nb, "grid_m": gm,
                          "tau_errors": _relative_errors(tau_hat, tau_m),
                          "krein_residual": diag["krein_residual"]})
            if base is None:
                base = (data, tau_hat)
    data, tau_hat = base
    redata = spectral_data(tau_hat, n_bins)
    k = min(len(data), len(redata))
    return {
        "table": table,
        "spectral_match": {
            "lambda_dev": float(np.max(np.abs(
                data.lambdas[:k] - redata.lambdas[:k]))),
            "alpha_dev": float(np.max(np.linalg.norm(
                data.alphas[:k] - redata.alphas[:k], ord=2, axis=(-2, -1)))),
            "entries_compared": k,
        },
    }


def fresh_cosh_sinhc(m: np.ndarray, mul=np.multiply):
    """cosh(sqrt(M)) and sinh(sqrt(M))/sqrt(M), elementwise or, with mul
    the product of (..., r, r, L) blocks (chain._mul), of those blocks,
    every step in fresh temporaries: the package's earlier form."""
    one, nrm = 1.0, np.abs(m)
    if mul is not np.multiply:
        one = np.eye(m.shape[-2])[:, :, None]
        nrm = nrm.sum(axis=-2).max(axis=-2)
    z, steps = m, 0
    if np.max(nrm, initial=0.0) >= 0.25:
        # the least s with 4^(s-1) >= 2^e > nrm, from nrm's exponent e
        steps = np.maximum((np.frexp(nrm)[1] + 3) // 2, 0)
        if mul is not np.multiply:
            steps = steps[..., None, None, :]
        z = m * np.ldexp(1.0, -2 * steps)
    del nrm
    c = one / math.factorial(14)
    s = one / math.factorial(15)
    for k in range(6, -1, -1):
        c = one / math.factorial(2 * k) + mul(z, c)
        s = one / math.factorial(2 * k + 1) + mul(z, s)
    for j in range(int(np.max(steps, initial=0))):
        more = steps > j
        s, c = (np.where(more, mul(s, c), s),
                np.where(more, 2.0 * mul(c, c) - one, c))
    return c, s


def fresh_sinhc_slope(z: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d/dz of sinh(sqrt z)/sqrt z, elementwise, given c = cosh(sqrt z) and
    s = sinh(sqrt z)/sqrt z, in fresh temporaries."""
    t = np.zeros_like(z)
    for k in range(10, 0, -1):
        t = k / math.factorial(2 * k + 1) + z * t
    big = np.abs(z) > 1.0
    if np.any(big):
        t = np.where(big, (c - s) / (2.0 * np.where(big, z, 1.0)), t)
    return t


def fresh_scalar_coefficients(d, v, dv: float, deriv, pack):
    """[pack(c, s d, s v)] and, with deriv, their lambda-derivatives, from
    fresh_cosh_sinhc and fresh_sinhc_slope."""
    z = d * d - v * v
    c, s = fresh_cosh_sinhc(z)
    out = [pack(c, s * d, s * v)]
    if deriv:
        # dc/dv = -v s and ds/dv = -2 v ds/dz, with dv/dlam = dv
        s_v = -2.0 * v * fresh_sinhc_slope(z, c, s)
        out.append(pack(-dv * v * s, dv * s_v * d, dv * (s + v * s_v)))
    return out


def stacked_half_pairs(c, su, sv):
    """The pair P = (c - su, c + su), Q = (sv, -sv) by np.stack, laid out
    as (factor, row, half, lambda)."""
    return np.stack([c - su, c + su], axis=2), np.stack([sv, -sv], axis=2)


def per_column_eigen_sweep(fac, v, dv, ncol, nder, sub, stride):
    """direct._eigen_sweep with the accumulator laid out as (column, row,
    half, lambda), one GEMM per column and factor, and the coefficients
    of fresh_scalar_coefficients: the package's earlier loop."""
    from kreinsl.direct import _BLOCK_BYTES, _lifted

    r = fac.tau.r
    L = v.size
    nf = fac.hu.shape[0]
    acc = np.zeros((ncol + nder, r, 2, L), dtype=complex)
    for i in range(ncol):
        acc[i, i % r, i // r] = 1.0
    work = np.empty_like(acc)
    tmp = np.empty_like(acc)
    arg = None
    if stride:
        arg, phase = np.zeros(L), np.ones(L, dtype=complex)
        spin, taken = 2.0 * r * v, 0
    block = max(1, _BLOCK_BYTES // (r * max(L, 1) * 16))
    for lo in range(0, nf, block):
        hi = min(lo + block, nf)
        (P, Q), *lam = fresh_scalar_coefficients(
            fac.d[lo:hi, :, None] / sub, v, dv, nder, stacked_half_pairs)
        if nder:
            (P_lam, Q_lam), = lam
        for k in range(hi - lo):
            np.matmul(fac.turns[lo + k], acc.reshape(ncol + nder, r, -1),
                      out=work.reshape(ncol + nder, r, -1))
            acc, work = work, acc
            for _ in range(sub):
                np.multiply(P[k], acc, out=work)
                np.multiply(Q[k], acc[:, :, ::-1], out=tmp)
                np.add(work, tmp, out=work)
                if nder:
                    np.multiply(P_lam[k], acc[:r], out=tmp[:r])
                    np.add(work[ncol:], tmp[:r], out=work[ncol:])
                    np.multiply(Q_lam[k], acc[:r, :, ::-1], out=tmp[:r])
                    np.add(work[ncol:], tmp[:r], out=work[ncol:])
                acc, work = work, acc
                if stride:
                    taken += 1
                    if taken % stride == 0 or taken == nf * sub:
                        phase = _lifted(arg, phase, np.moveaxis(acc[:r], 2, 0),
                                        spin * taken)
    acc = (fac.vecs[-1] @ acc.reshape(ncol + nder, r, -1)).reshape(acc.shape)
    return acc.transpose(3, 2, 1, 0).reshape(L, 2 * r, ncol + nder), arg


def per_entry_residues(lams, dims, w, dw, hermitize: bool = True):
    """direct.norming_constants' residue math one entry at a time, from a
    sweep (w, dw) of 2r columns with the derivative at lams: Keldysh's
    alpha_j = K (L^* phi' K)^-1 L^* psi on kernels of dimension dims[j],
    half of it at lambda_0, then symmetrized and clipped to the positive
    cone, raising the package's ExtractionError below -1e-6."""
    from kreinsl.core import ExtractionError

    r = w.shape[-1] // 2
    phi = -w[:, r:, :r]
    dphi = -dw[:, r:, :]
    psi = w[:, r:, r:]
    u, s, vh = np.linalg.svd(phi)
    alphas = []
    for j, k in enumerate(dims):
        right = vh[j, r - k:].conj().T
        left_h = u[j, :, r - k:].conj().T
        alphas.append(right @ np.linalg.solve(left_h @ dphi[j] @ right,
                                              left_h @ psi[j]))
    alphas[0] = 0.5 * alphas[0]
    if not hermitize:
        return alphas
    out = []
    for j in range(len(lams)):
        a = (alphas[j] + alphas[j].conj().T) / 2.0
        w_eig, v = np.linalg.eigh(a)
        if w_eig.min() < -1e-6:
            raise ExtractionError(
                f"norming constant at lambda = {lams[j]:.9g} has eigenvalue "
                f"{w_eig.min():.3e} below the -1e-6 positivity floor"
            )
        out.append((v * np.clip(w_eig, 0.0, None)) @ v.conj().T)
    return out
