"""Row-wise Nystrom solver for the Krein convolution equation

    R(x, t) + H(x - t) + int_0^x R(x, s) H(s - t) ds = 0,  0 <= t <= x <= 1,

plus the potential map tau(x) = -R(x, 0) and the triangular kernels that
express the boundary-value solutions as perturbations of sine and cosine.

For each grid row x_i the trapezoid rule on [0, x_i] turns the equation
into the linear system A_i = I + T_i D_i of size r (i+1): T_i is the
block-Toeplitz section with blocks H(|j - k| h)^T, D_i the trapezoid
weights.  Rows are solved in order by the block Levinson recursion
(Levinson 1947; Wiggins-Robinson 1965) on G_i = I + h T_i, which grows the
forward predictor of G_i from that of G_{i-1} in O(i r^3); the backward
predictor is its block reversal, since G_i commutes with the block
reversal.  The right-hand side and the two endpoint-weight corrections
A_i = G_i - (h/2) T_i (E_0 + E_i) are block columns of T_i, so the first
and last block columns of G_i^{-1} plus a 2r x 2r Woodbury solve give the
row's solution.  The whole triangle costs O(m^2 r^3).

Solvability of every row is exactly the defining property of an
accelerant, so a numerically singular row aborts the solve and names the
failing truncation point.  G_i and A_i are different discretizations and
need not go singular at the same row near the edge of the accelerant
class; from the first row where a recursion pivot degrades, the remaining
rows are solved by one dense LU each, whose condition estimate decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GridSpec,
    MatrixGrid,
    NotAnAccelerantError,
    TriangularKernel,
    ValidationError,
    block_flatten,
)

# Reciprocal condition estimate below which a dense row is singular.
PIVOT_TOL = 1e-10
# Normalized recursion pivot below which the remaining rows go dense.
# For Hermitian kernels a pivot block that loses definiteness counts as
# degraded, however large its eigenvalues: h A_i D_i^{-1} = G_i + E_0 + E_i,
# so no row's A_i is singular while every pivot of G_i stays positive.
LEVINSON_FLOOR = 1e-6


@dataclass
class KreinSolution:
    """Solution kernel with its defect and conditioning diagnostics.

    `residual` is the maximum blockwise defect of the discrete equation
    over the triangle.  `min_pivot` is the smallest normalized pivot seen
    across the row solves: on rows solved by the recursion, the smallest
    eigenvalue (Hermitian kernels) or singular value of each pivot block
    relative to the first one, and the reciprocal 2-norm condition number
    of each row's 2r x 2r Woodbury matrix; on rows solved densely, the
    LAPACK reciprocal condition estimate.  tau extracted from the first
    column agrees with the alternative form H(x) + int_0^x R(x, s) H(s) ds
    by construction of the row systems.
    """

    R: TriangularKernel
    residual: float
    min_pivot: float

    def extract_tau(self, hermitize: bool) -> tuple[MatrixGrid, float]:
        """Potential tau(x_i) = -R(x_i, 0); optionally Hermitized.

        Returns the grid and the pre-symmetrization Hermiticity defect
        (NaN when no symmetrization was requested).
        """
        raw = -self.R.values[:, 0]
        if not hermitize:
            return MatrixGrid(self.R.r, self.R.spec, raw), float("nan")
        sym = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2.0
        defect = float(np.max(np.linalg.norm(raw - sym, ord=2, axis=(-2, -1))))
        return MatrixGrid(self.R.r, self.R.spec, sym, hermitian=True), defect


def _row_weights(i: int, h: float) -> np.ndarray:
    """Trapezoid weights on [0, x_i]; the zero-length row 0 gets weight 0."""
    if i == 0:
        return np.zeros(1)
    w = np.full(i + 1, h)
    w[0] = w[-1] = h / 2.0
    return w


def _toeplitz_blocks(h_values: np.ndarray) -> np.ndarray:
    """T[d] = H(d h)^T for d = 0..m (plain transpose, evenness for d < 0)."""
    return np.swapaxes(h_values, -1, -2).copy()


def solve_krein(H: MatrixGrid, spec: GridSpec | None = None) -> KreinSolution:
    """Solve the convolution equation for R on the triangle.

    H holds the kernel samples on [0, 1]; the even extension is applied
    when differences go negative (on the uniform grid all differences land
    on nodes, so no interpolation enters).  Each row transposes the unknown
    block row into a standard left-hand system with r right-hand columns.
    Rows are solved by the block Levinson recursion until a recursion
    pivot degrades, and densely from that row on; a dense row whose
    estimated reciprocal condition number falls below PIVOT_TOL raises
    NotAnAccelerantError carrying the failing x_i.
    """
    if spec is not None and spec != H.spec:
        raise ValidationError("explicit grid disagrees with the kernel grid")
    spec = H.spec
    m, r, h = spec.m, H.r, spec.h
    T = _toeplitz_blocks(H.values)
    real_path = bool(np.isrealobj(H.values)) or not np.any(H.values.imag)
    Td = T.real.astype(float) if real_path else T

    values = np.zeros((m + 1, m + 1, r, r), dtype=complex)
    values[0, 0] = -H.values[0]
    start, min_pivot = _levinson_rows(Td, h, H.hermitian, values)
    if start <= m:
        min_pivot = min(min_pivot, _dense_rows(Td, h, start, values))
    R = TriangularKernel(r, spec, values)
    return KreinSolution(R=R, residual=krein_residual(H, R), min_pivot=min_pivot)


def _pivot_size(block: np.ndarray, hermitian: bool) -> float:
    """Smallest eigenvalue (signed) of a Hermitian pivot, else smallest
    singular value."""
    if hermitian:
        return float(np.linalg.eigvalsh((block + block.conj().T) / 2.0)[0])
    return float(np.linalg.svd(block, compute_uv=False)[-1])


def _levinson_rows(Td: np.ndarray, h: float, hermitian: bool,
                   values: np.ndarray) -> tuple[int, float]:
    """Fill rows 1.. of `values` by the block Levinson recursion.

    Returns the first row left unsolved (m + 1 when all are solved) and
    the smallest normalized pivot over the solved rows.

    The forward predictor of G_i is a = [I; a_1; ...; a_i] with
    G_i a = [E; 0; ...; 0].  Its entries a_j and E - I are O(h), so the
    recursion carries alpha_j = a_j / h and eps = (E - I) / h: the first
    block column of (I - G_i^{-1}) / h, which the row solve needs, is then
    [eps; -alpha_1; ...; -alpha_i] E^{-1} with no cancellation.
    """
    m1, r = Td.shape[0], Td.shape[1]
    m = m1 - 1
    eye = np.eye(r)
    eye2 = np.eye(2 * r)
    # T[m], ..., T[0] side by side: T[n-1], ..., T[1] is a contiguous slice
    trow = Td[::-1].transpose(1, 0, 2).reshape(r, m1 * r)
    alpha = np.zeros((m * r, r), dtype=Td.dtype)  # alpha_1..alpha_m stacked
    eps = Td[0].copy()
    E = eye + h * eps
    scale = float(np.linalg.norm(E, 2))
    pivot = _pivot_size(E, hermitian) / scale if scale > 0 else 0.0
    if not pivot >= LEVINSON_FLOOR:
        return 1, 1.0
    min_pivot = min(1.0, pivot)
    e_inv = np.linalg.solve(E, eye)
    for i in range(1, m1):
        # grow the predictor from i to i + 1 blocks; Delta = h delta is the
        # defect of [a; 0] in the new last block row
        k = (i - 1) * r
        delta = Td[i] + h * (trow[:, (m1 - i) * r:m * r] @ alpha[:k])
        kappa = -e_inv @ delta
        alpha[:k] += h * (alpha[:k].reshape(i - 1, r, r)[::-1].reshape(k, r) @ kappa)
        alpha[k:k + r] = kappa
        eps = eps + h * (delta @ kappa)
        E = eye + h * eps
        pivot = _pivot_size(E, hermitian) / scale
        if not pivot >= LEVINSON_FLOOR:
            return i, min_pivot
        e_inv = np.linalg.solve(E, eye)

        # first block column of (I - G_i^{-1}) / h; the last is its reversal
        w0 = np.empty(((i + 1) * r, r), dtype=Td.dtype)
        w0[:r] = eps @ e_inv
        w0[r:] = -(alpha[:k + r] @ e_inv)
        blocks = w0.reshape(i + 1, r, r)
        wi = blocks[::-1].reshape(-1, r)
        # Woodbury: A_i = G_i - (h/2) T_i [e_0 e_i][e_0 e_i]^T, rhs -T_i e_i
        first, last = blocks[0], blocks[i]
        woodbury = eye2 - (h / 2.0) * np.block([[first, last], [last, first]])
        sig = np.linalg.svd(woodbury, compute_uv=False)
        wpivot = float(sig[-1] / sig[0])
        if not wpivot >= LEVINSON_FLOOR:
            return i, min_pivot
        c = (h / 2.0) * np.linalg.solve(woodbury, np.vstack([last, first]))
        y = -(w0 @ c[:r]) - wi @ (eye + c[r:])
        values[i, :i + 1] = np.swapaxes(y.reshape(i + 1, r, r), -1, -2)
        min_pivot = min(min_pivot, pivot, wpivot)
    return m1, min_pivot


def _dense_rows(Td: np.ndarray, h: float, start: int, values: np.ndarray) -> float:
    """Fill rows start.. of `values` by one dense LU each.

    Returns the smallest reciprocal condition estimate; a row below
    PIVOT_TOL raises NotAnAccelerantError.
    """
    from scipy.linalg import lapack, lu_factor, lu_solve

    n_full, r = Td.shape[0], Td.shape[1]
    d_idx = np.abs(np.arange(n_full)[:, None] - np.arange(n_full)[None, :])
    big = block_flatten(Td[d_idx])  # (n r, n r), entry (j,k) block = H((j-k)h)^T
    gecon = lapack.dgecon if Td.dtype.kind == "f" else lapack.zgecon

    min_pivot = 1.0
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
        min_pivot = min(min_pivot, float(rcond))
        y = lu_solve((lu, piv), b, check_finite=False)
        values[i, :n] = np.swapaxes(y.reshape(n, r, r), -1, -2)
    return min_pivot


def krein_residual(H: MatrixGrid, R: TriangularKernel) -> float:
    """Max blockwise defect of the discrete equation over the triangle.

    Recomputed from scratch with the same quadrature as the solver, so an
    exact discrete solution scores at roundoff level.  The quadrature over
    all rows is one product: R with every block (i, k) scaled by its row's
    trapezoid weight w_k, times the block-Toeplitz matrix of H(|k - j| h).
    """
    if H.spec != R.spec or H.r != R.r:
        raise ValidationError("kernel shapes disagree")
    m, r, h = H.spec.m, H.r, H.spec.h
    n_full = m + 1
    hv, rv = H.values, R.values
    if not np.any(hv.imag) and not np.any(rv.imag):
        hv, rv = hv.real, rv.real
    weights = np.tril(np.full((n_full, n_full), h))
    weights[:, 0] = weights[np.arange(n_full), np.arange(n_full)] = h / 2.0
    weights[0, 0] = 0.0
    d_idx = np.abs(np.arange(n_full)[:, None] - np.arange(n_full)[None, :])
    quad = block_flatten(rv * weights[:, :, None, None]) @ block_flatten(hv[d_idx])
    i, j = np.tril_indices(n_full)
    # defect_j = R(x_i,t_j) + H(x_i - t_j) + sum_k w_k R(x_i,s_k) H(s_k - t_j)
    defect = rv[i, j] + hv[i - j] + quad.reshape(n_full, r, n_full, r)[i, :, j, :]
    # the 2-norm lies within a factor sqrt(r) below the Frobenius norm, so
    # only blocks near the largest Frobenius norm can hold the maximum
    fro = np.sqrt(np.sum(np.abs(defect) ** 2, axis=(-2, -1)))
    top = fro.max()
    if top == 0.0:
        return 0.0
    near = defect[fro >= 0.99 * top / np.sqrt(r)]
    return float(np.max(np.linalg.norm(near, ord=2, axis=(-2, -1))))


def theta(H: MatrixGrid, spec: GridSpec | None = None) -> MatrixGrid:
    """Potential of an accelerant: tau(x_i) = -R(x_i, 0).

    Hermitian kernels produce (up to roundoff) Hermitian potentials; the
    output is symmetrized in that case.  Use solve_krein directly when the
    conditioning diagnostics or the symmetrization defect are needed.
    """
    sol = solve_krein(H, spec)
    tau, _ = sol.extract_tau(hermitize=H.hermitian)
    return tau


def transformation_kernels(R: TriangularKernel) -> tuple[TriangularKernel, TriangularKernel]:
    """Triangular kernels expressing phi/psi as sine/cosine perturbations.

    K_D(x, t) = [R(x, (x+t)/2) - R(x, (x-t)/2)] / 2 and
    K_N(x, t) = [R(x, (x+t)/2) + R(x, (x-t)/2)] / 2 on the triangle; the
    midpoint arguments are half-grid points, evaluated by linear
    interpolation of R in its second argument.
    """
    m, r = R.spec.m, R.r
    kd = np.zeros_like(R.values)
    kn = np.zeros_like(R.values)
    for i in range(m + 1):
        row = R.values[i, : i + 1]
        half = np.empty((2 * i + 1, r, r), dtype=complex)
        half[::2] = row
        if i:
            half[1::2] = (row[:-1] + row[1:]) / 2.0
        j = np.arange(i + 1)
        plus = half[i + j]
        minus = half[i - j]
        kd[i, : i + 1] = (plus - minus) / 2.0
        kn[i, : i + 1] = (plus + minus) / 2.0
    return (TriangularKernel(r, R.spec, kd), TriangularKernel(r, R.spec, kn))
