"""Independent reference computations used by the test suite.

Nothing here shares code with the package's solvers: eigenvalues and
norming constants come from a quadratic-form finite-difference
discretization (assembled from the energy integral of the quasi-derivative,
so the natural boundary conditions are built in), refined by Richardson
extrapolation; closed forms cover the constant-coefficient cases.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal


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


def krein_dense_rows(h_values: np.ndarray) -> np.ndarray:
    """Discrete Krein solution by one dense numpy solve per grid row.

    h_values holds r x r kernel samples H(x_k), k = 0..m, on the uniform
    grid of [0, 1].  Row i solves
        R_ij + H((i - j) h) + sum_k w_k R_ik H(|k - j| h) = 0,  j <= i,
    with trapezoid weights w on [0, x_i] (all zero on row 0), transposed
    into the column system (I + Hblk W) Y = -[H(i h)^T; ...; H(0)^T] for
    Y = [R_i0^T; ...; R_ii^T], where Hblk has blocks H(|j - k| h)^T.
    Real kernels are solved in real arithmetic.  Returns values[i, j] =
    R(x_i, t_j), zero above the diagonal.
    """
    m = h_values.shape[0] - 1
    r = h_values.shape[-1]
    h = 1.0 / m
    if not np.any(np.imag(h_values)):
        h_values = np.real(h_values)
    ht = np.swapaxes(h_values, -1, -2)
    out = np.zeros((m + 1, m + 1, r, r), dtype=complex)
    for i in range(m + 1):
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
