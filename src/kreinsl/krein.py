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
failing truncation point.  A recursion pivot degrades on its size, not its
sign: a kernel whose G_i loses definiteness stays in the recursion while
its pivots and Woodbury matrices stay regular.  G_i and A_i are different
discretizations and need not go singular at the same row, so from the
first row where a recursion pivot degrades (a numerically singular G_i),
the remaining rows are solved densely, one at a time, each certified by
its exact reciprocal 2-norm condition number.  A dense row's system is
built from T itself, so the fallback holds one row's system and LAPACK's
working copies of it, never the (m+1) r square of every row; its time is
O(m^4 r^3).

The rows come out in blocks of _RESIDUAL_ROWS, in order, in one buffer
that is refilled for every block.  Within a block the recursion carries
only what the next row needs and leaves each row's first block column of
G_i^{-1} in the buffer; the pivot checks, the Woodbury solves and the
turning of those columns into rows of R are then one stacked call each for
the whole block.  `solve_krein` keeps R(x_i, 0) for the potential and
scores the block's defect in place, so it never holds more of R than one
block of rows; `krein_kernel` copies every block into the whole triangle
for the callers that need R itself.  The defect of a block of rows is a
block-Toeplitz product along each row, taken as a convolution by FFT in
O(m r^2 log m + m r^3) per row instead of O(m^2 r^3); so the residual
costs O(m^2 log m) in m, builds no (m+1) r square matrix, and its figure
does not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    MatrixGrid,
    NotAnAccelerantError,
    TriangularKernel,
    ValidationError,
    _unchecked,
)

# Reciprocal 2-norm condition number below which a dense row is singular.
PIVOT_TOL = 1e-10
# Size of a normalized recursion pivot (the smallest eigenvalue magnitude
# of a Hermitian pivot, else its smallest singular value), and
# reciprocal condition number of a Woodbury matrix, below which the
# remaining rows go dense.  The sign of a Hermitian pivot does not enter:
# a nonsingular G_i with a regular Woodbury matrix certifies the row's A_i.
LEVINSON_FLOOR = 1e-6
# Triangle rows per block of the streamed solve and of the residual's
# quadrature product.
_RESIDUAL_ROWS = 64
# Transform entries per sub-block of rows of the residual's FFT.
_FFT_ENTRIES = 1 << 15


@dataclass
class KreinSolution:
    """The potential column of the solution kernel, with its defect and
    conditioning diagnostics.

    `column` holds R(x_i, 0).  `residual` is the maximum blockwise defect
    of the discrete equation over the triangle, and `residual_x` the x_i
    of the row that holds it.  `min_pivot` is the smallest normalized
    pivot seen across the row solves: on rows solved by the recursion, the
    smallest eigenvalue (Hermitian kernels, signed, so that a kernel whose
    G_i loses definiteness reads negative) or singular value of each pivot
    block relative to the first one, and the reciprocal 2-norm condition
    number of each row's 2r x 2r Woodbury matrix; on rows solved densely,
    the row system's exact reciprocal 2-norm condition number.
    `min_pivot_x` is x_i of the row whose pivot set it (0 when no pivot
    fell below 1).  tau extracted from the first column agrees with the
    alternative form H(x) + int_0^x R(x, s) H(s) ds by construction of the
    row systems.  `dense_from_x` is x_i of the first row solved densely
    after a recursion pivot became numerically singular, or None when the
    recursion solved every row.
    `hermitian` is H's flag; `tau` Hermitizes tau when it is set.
    """

    column: MatrixGrid
    residual: float
    residual_x: float
    min_pivot: float
    min_pivot_x: float
    dense_from_x: float | None
    hermitian: bool

    def tau(self) -> MatrixGrid:
        """Potential tau(x_i) = -R(x_i, 0), Hermitized for a Hermitian H."""
        r, spec = self.column.r, self.column.spec
        raw = -self.column.values
        if not self.hermitian:
            return MatrixGrid(r, spec, raw)
        sym = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2.0
        return _unchecked(MatrixGrid, r, spec, sym, True)

    def extract_tau(self) -> tuple[MatrixGrid, float]:
        """`tau()` and the pre-symmetrization Hermiticity defect (NaN for
        a non-Hermitian H)."""
        tau = self.tau()
        if not self.hermitian:
            return tau, float("nan")
        raw = -self.column.values
        defect = float(np.max(np.linalg.norm(raw - tau.values, ord=2, axis=(-2, -1))))
        return tau, defect


@dataclass
class _Pivots:
    """What the row solves report besides the rows: the smallest
    normalized pivot, the x_i of the row that set it, and where the dense
    fallback began."""

    min_pivot: float = 1.0
    min_pivot_x: float = 0.0
    dense_from_x: float | None = None

    def see(self, pivot: float, x: float) -> None:
        if pivot < self.min_pivot:
            self.min_pivot, self.min_pivot_x = pivot, x


def _working_values(H: MatrixGrid) -> np.ndarray:
    """H's samples in the arithmetic of the solve: real when H is real,
    which then gives a real R."""
    return H.values if np.any(H.values.imag) else H.values.real


def _trapezoid_weights(lo: int, i1: int, h: float) -> np.ndarray:
    """Trapezoid weights on [0, x_i] of the rows i = lo..i1-1: w[i - lo, k]
    for k < i1, zero for k > i; the zero-length row 0 gets weight 0."""
    w = np.tril(np.full((i1 - lo, i1), h), k=lo)
    w[:, 0] = w[np.arange(i1 - lo), np.arange(lo, i1)] = h / 2.0
    if lo == 0:
        w[0, 0] = 0.0
    return w


def solve_krein(H: MatrixGrid) -> KreinSolution:
    """Solve the convolution equation for R on the triangle, keeping
    R(x_i, 0) and the defect of each block of rows.

    H holds the kernel samples on [0, 1]; the even extension is applied
    when differences go negative (on the uniform grid all differences land
    on nodes, so no interpolation enters).  Rows are solved by the block
    Levinson recursion until a recursion pivot degrades, and densely from
    that row on; a dense row whose reciprocal condition number falls below
    PIVOT_TOL raises NotAnAccelerantError carrying the failing
    x_i.  Each block of _RESIDUAL_ROWS rows is scored by `krein_residual`
    as soon as it is complete.
    """
    spec = H.spec
    m, r, h = spec.m, H.r, spec.h
    pivots = _Pivots()
    column = np.zeros((m + 1, r, r), dtype=complex)
    residual, residual_x = 0.0, 0.0
    for i0, block in _row_blocks(H, pivots):
        column[i0:i0 + len(block)] = block[:, 0]
        defect, i = krein_residual(H, i0, block)
        if defect > residual:
            residual, residual_x = defect, i * h
    return KreinSolution(MatrixGrid(r, spec, column), residual, residual_x,
                         pivots.min_pivot, pivots.min_pivot_x,
                         pivots.dense_from_x, H.hermitian)


def krein_kernel(H: MatrixGrid) -> TriangularKernel:
    """The whole solution R on the triangle, from the same row solves as
    `solve_krein`; for the callers that need R itself, such as
    `transformation_kernels`.  It holds (m+1)^2 r^2 entries."""
    m, r = H.spec.m, H.r
    values = np.zeros((m + 1, m + 1, r, r), dtype=complex)
    for i0, block in _row_blocks(H, _Pivots()):
        i1 = i0 + len(block)
        values[i0:i1, :i1] = block[:, :i1]
    return TriangularKernel(r, H.spec, values)


def _row_blocks(H: MatrixGrid, pivots: _Pivots):
    """R in blocks of _RESIDUAL_ROWS rows, in order: yields (i0, rows) with
    rows[a, k] = R(x_{i0+a}, t_k) for k <= i0 + a and zero beyond.

    Every block is the same buffer, refilled for the next one.  The
    recursion solves rows until a pivot degrades, then the dense fallback
    the rest; `pivots` records what they report.
    """
    h = H.spec.h
    hv = _working_values(H)
    # T[d] = H(d h)^T for d = 0..m (evenness for d < 0)
    Td = np.swapaxes(hv, -1, -2).copy()
    m1, r = Td.shape[0], Td.shape[1]
    buf = np.zeros((min(_RESIDUAL_ROWS, m1), m1, r, r), dtype=Td.dtype)
    buf[0, 0] = -hv[0]
    levinson = _levinson_rows(Td, h, H.hermitian, pivots, buf)
    dense = None
    for i0 in range(0, m1, _RESIDUAL_ROWS):
        i1 = min(i0 + _RESIDUAL_ROWS, m1)
        start = i0 if dense is not None else next(levinson)
        if dense is None and start < i1:
            pivots.dense_from_x = start * h
            dense = _dense_rows(Td, h, start, pivots)
        for i in range(start, i1):
            buf[i - i0, :i + 1] = next(dense)
        yield i0, buf[:i1 - i0]


def _pivot_size(E: np.ndarray, hermitian: bool):
    """(signed, size) of a pivot block, or of each of a stack of blocks:
    for a Hermitian kernel the smallest eigenvalue and the smallest
    eigenvalue magnitude, else the smallest singular value twice."""
    if hermitian:
        eig = np.linalg.eigvalsh((E + np.conj(np.swapaxes(E, -1, -2))) / 2.0)
        return eig[..., 0], np.abs(eig).min(axis=-1)
    s = np.linalg.svd(E, compute_uv=False)[..., -1]
    return s, s


def _levinson_rows(Td: np.ndarray, h: float, hermitian: bool, pivots: _Pivots,
                   buf: np.ndarray):
    """Solve rows 1.. of R by the block Levinson recursion into `buf`, one
    block of len(buf) rows at a time.

    Row i goes to buf[i - i0], i0 the start of its block.  After each
    block the generator yields the first row it left unsolved (the block's
    end when it solved them all) and stops after the first block that
    leaves one; the pivots of the solved rows go to `pivots`.

    The forward predictor of G_i is a = [I; a_1; ...; a_i] with
    G_i a = [E; 0; ...; 0].  Its entries a_j and E - I are O(h), so the
    recursion carries alpha_j = a_j / h and eps = (E - I) / h: the first
    block column of (I - G_i^{-1}) / h, which the row solve needs, is then
    [eps; -alpha_1; ...; -alpha_i] E^{-1} with no cancellation.  That
    column and E are all a row leaves for `_woodbury_rows`.  The recursion
    runs to the end of the block before any pivot of it is checked, so
    rows past a degraded pivot are computed and dropped; an E that is
    exactly singular (or not finite) ends the block at its row, and what
    such rows compute may overflow, so floating-point warnings are off
    while the block runs.
    """
    m1, r = Td.shape[0], Td.shape[1]
    m = m1 - 1
    eye = np.eye(r)
    # T[m], ..., T[0] side by side: T[n-1], ..., T[1] is a contiguous slice
    trow = Td[::-1].transpose(1, 0, 2).reshape(r, m1 * r)
    alpha = np.zeros((m * r, r), dtype=Td.dtype)  # alpha_1..alpha_m stacked
    eps = Td[0].copy()
    E = eye + h * eps
    scale = float(np.linalg.norm(E, 2))
    pivot, size = (float(p) / scale if scale > 0 else 0.0
                   for p in _pivot_size(E, hermitian))
    if not size >= LEVINSON_FLOOR:
        yield 1
        return
    pivots.see(pivot, 0.0)
    e_inv = np.linalg.solve(E, eye)
    Es = np.empty((len(buf), r, r), dtype=Td.dtype)
    for i0 in range(0, m1, len(buf)):
        lo, i1 = max(i0, 1), min(i0 + len(buf), m1)
        stop = i1
        with np.errstate(all="ignore"):
            for i in range(lo, i1):
                # grow the predictor from i to i + 1 blocks; Delta = h delta
                # is the defect of [a; 0] in the new last block row
                k = (i - 1) * r
                delta = Td[i] + h * (trow[:, (m1 - i) * r:m * r] @ alpha[:k])
                kappa = -e_inv @ delta
                alpha[:k] += h * (alpha[:k].reshape(i - 1, r, r)[::-1].reshape(k, r) @ kappa)
                alpha[k:k + r] = kappa
                eps = eps + h * (delta @ kappa)
                E = np.add(eye, h * eps, out=Es[i - i0])
                try:
                    e_inv = np.linalg.solve(E, eye)
                except np.linalg.LinAlgError:
                    stop = i
                    break
                # first block column of (I - G_i^{-1}) / h
                w0 = buf[i - i0, :i + 1]
                np.matmul(eps, e_inv, out=w0[0])
                rest = w0[1:].reshape(k + r, r)
                np.matmul(alpha[:k + r], e_inv, out=rest)
                np.negative(rest, out=rest)
        end = _woodbury_rows(buf[lo - i0:stop - i0], Es[lo - i0:stop - i0], lo, h,
                             hermitian, scale, pivots)
        yield end
        if end < i1:
            return


def _leading(ok: np.ndarray) -> int:
    """Number of leading True entries of a boolean vector."""
    return int(np.argmin(ok)) if not ok.all() else len(ok)


def _woodbury_rows(rows: np.ndarray, E: np.ndarray, lo: int, h: float,
                   hermitian: bool, scale: float, pivots: _Pivots) -> int:
    """Turn the first block columns of (I - G_i^{-1}) / h of the
    consecutive rows i = lo, lo + 1, ... into those rows of R, in place.

    rows[a, :i + 1] holds row i's column and E[a] its recursion pivot
    block.  The rows are taken up to the first whose pivot degrades: the
    smallest eigenvalue magnitude (Hermitian kernels) or the smallest
    singular value of E relative to `scale`, then the reciprocal
    2-norm condition number of the 2r x 2r Woodbury matrix.  Returns the
    first row not taken; the pivots of the taken ones go to `pivots`.
    Each step is one stacked call for all rows.

    With w0 the column and wi its block reversal (the last block column),
    A_i = G_i - (h/2) T_i [e_0 e_i][e_0 e_i]^T and the right-hand side
    -T_i e_i give the row as y = -w0 c_0 - wi (I + c_1), where
    [c_0; c_1] = (h/2) W^{-1} [w0_i; w0_0] and W = I - (h/2) [[w0_0,
    w0_i], [w0_i, w0_0]]; R(x_i, t_k) = y_k^T.
    """
    r = E.shape[-1]
    n = _leading(np.isfinite(E).all(axis=(1, 2)))
    pivot, size = (p / scale for p in _pivot_size(E[:n], hermitian))
    n = _leading(size >= LEVINSON_FLOOR)
    i = np.arange(lo, lo + n)
    # the Woodbury matrix's block pattern [[first, last], [last, first]];
    # its right block column [last; first] is the right-hand side
    corner = np.empty((n, 2 * r, 2 * r), dtype=rows.dtype)
    corner[:, :r, :r] = corner[:, r:, r:] = rows[:n, 0]
    corner[:, :r, r:] = corner[:, r:, :r] = rows[np.arange(n), i]
    woodbury = np.eye(2 * r) - corner * (h / 2.0)
    n = _leading(np.isfinite(woodbury).all(axis=(1, 2)))
    sig = np.linalg.svd(woodbury[:n], compute_uv=False)
    wpivot = sig[:, -1] / sig[:, 0]
    n = _leading(wpivot >= LEVINSON_FLOOR)
    if n == 0:
        return lo
    c = (h / 2.0) * np.linalg.solve(woodbury[:n], corner[:n, :, r:])
    seen = np.minimum(pivot[:n], wpivot[:n])
    a = int(np.argmin(seen))
    pivots.see(float(seen[a]), (lo + a) * h)

    # y_k = -w0_k c_0 - w0_{i-k} (I + c_1).  The products w0_j (I + c_1)
    # of row a go to rows of width + 1 blocks, shifted by n - 1 blocks of
    # zeros: then w0_{i-k} (I + c_1) is a reversed view of them, whose
    # entries past k = i read zeros.
    width = lo + n
    cols = rows[:n, :width]
    flat = cols.reshape(n, width * r, r)
    shifted = np.zeros((n * (width + 1), r, r), dtype=rows.dtype)
    np.matmul(flat, np.eye(r) + c[:, r:],
              out=shifted[n - 1:n - 1 + n * width].reshape(n, width * r, r))
    back = shifted.reshape(n, width + 1, r, r)[:, width - 1::-1]
    y = (flat @ c[:, :r]).reshape(n, width, r, r)
    np.negative(y, out=y)
    np.subtract(y, back, out=y)
    # R(x_i, t_k) = y_k^T for k <= i: every row takes all columns k < lo
    y = np.swapaxes(y, -1, -2)
    np.copyto(cols[:, :lo], y[:, :lo])
    inside = np.arange(lo, width) <= i[:n, None]
    np.copyto(cols[:, lo:], y[:, lo:], where=inside[:, :, None, None])
    return lo + n


def _dense_rows(Td: np.ndarray, h: float, start: int, pivots: _Pivots):
    """Yield rows start.. of R, by one dense solve each.

    Row i's system I + T_i D_i is built from T itself: block (j, k) of T_i
    is T[|j - k|], so its block rows are windows of T's two-sided extension
    [T[m], ..., T[1], T[0], ..., T[m]], copied once into the C-ordered
    matrix that is then scaled in place.  Only that (i+1) r square and
    LAPACK's working copies of it are held, never the (m+1) r square of
    every row; the time is O(m^4 r^3) over the rows.  Each row's exact
    reciprocal 2-norm condition number, from its singular values, goes to
    `pivots`; a row below PIVOT_TOL raises NotAnAccelerantError.
    """
    n_full, r = Td.shape[0], Td.shape[1]
    ext = np.concatenate([Td[:0:-1], Td])  # ext[n_full - 1 + d] = T[|d|]

    for i in range(start, n_full):
        n = i + 1
        # window s is ext[s + k] over k = 0..i: block row j of T_i is window
        # n_full - 1 - j, a view (read-only) until the one copy into `a`
        windows = sliding_window_view(ext, n, axis=0)[n_full - n:n_full][::-1]
        a = np.array(windows.transpose(0, 1, 3, 2), order="C").reshape(n * r, n * r)
        a *= np.repeat(_trapezoid_weights(i, n, h)[0], r)
        a[np.arange(n * r), np.arange(n * r)] += 1.0
        b = -Td[i::-1].reshape(n * r, r)  # column stack of H((i-j)h)^T over j
        s = np.linalg.svd(a, compute_uv=False)
        rcond = s[-1] / s[0]
        if not rcond >= PIVOT_TOL:
            raise NotAnAccelerantError(
                f"kernel fails invertibility at truncation x = {i * h:.9g} "
                f"(normalized pivot {rcond:.3e}); not an accelerant",
                x=i * h,
                pivot=float(rcond),
            )
        pivots.see(float(rcond), i * h)
        y = np.linalg.solve(a, b)
        yield np.swapaxes(y.reshape(n, r, r), -1, -2)


def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= n: a transform length that numpy's
    FFT factors into radices 2, 3 and 5 (others fall back to Bluestein)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << max(-(-n // p35) - 1, 0).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def krein_residual(H: MatrixGrid, i0: int, rows: np.ndarray) -> tuple[float, int]:
    """Max blockwise defect of the discrete equation on the consecutive
    rows i0, i0 + 1, ... of R, and the row that holds it.

    rows[a, k] = R(x_{i0+a}, t_k) for k = 0..m, zero for k > i0 + a as a
    TriangularKernel stores it.  The defect is recomputed from scratch
    with the same quadrature as the solver, so an exact discrete solution
    scores at roundoff level.  The rows go _RESIDUAL_ROWS at a time,
    i0..i1-1 say: their quadrature is those rows, every block (i, k)
    scaled by its row's trapezoid weight w_k (zero for k > i), times the
    block-Toeplitz matrix of H(|k - j| h), k, j < i1 (the defect needs
    t_j <= x_i only), taken by FFT along k (`_fft_defects`) in
    O(i1 log i1) per row instead of O(i1^2).  No BLAS product enters, so
    the figure does not depend on the BLAS thread count.  The 2-norm lies
    within a factor sqrt(r) below the Frobenius norm, so only blocks
    within that factor of the largest Frobenius norm can hold the maximum:
    each sub-block of rows keeps the blocks within that factor of the
    largest Frobenius norm so far, and one stacked 2-norm call per block
    of rows takes those still within it of the block's largest.  Besides
    the rows, the work arrays hold O(_RESIDUAL_ROWS m) entries and buffers
    whose size does not grow with m.  When every defect is zero the row
    returned is i0.
    """
    m, r, h = H.spec.m, H.r, H.spec.h
    n = rows.shape[0]
    if rows.shape[1:] != (m + 1, r, r) or not 0 <= i0 <= m + 1 - n:
        raise ValidationError("kernel shapes disagree")
    worst, worst_i = 0.0, i0
    for b0 in range(0, n, _RESIDUAL_ROWS):
        lo = i0 + b0
        i1 = min(lo + _RESIDUAL_ROWS, i0 + n)
        b = i1 - lo
        block = rows[b0:b0 + b, :i1]
        weights = _trapezoid_weights(lo, i1, h)
        top, fro, at, blocks = 0.0, [], [], []
        for a0, defect in _fft_defects(H, lo, block, weights):
            # blocks with t_j > x_i lie outside the triangle
            size = np.tril(np.sqrt(np.sum(np.abs(defect) ** 2, axis=(2, 3))),
                           k=lo + a0)
            top = max(top, float(size.max()))
            if top > 0.0:
                a, col = np.nonzero(size >= 0.99 * top / np.sqrt(r))
                fro.append(size[a, col])
                at.append(lo + a0 + a)
                blocks.append(defect[a, col])
        if top > 0.0:
            keep = np.concatenate(fro) >= 0.99 * top / np.sqrt(r)
            norms = np.linalg.norm(np.concatenate(blocks)[keep], ord=2, axis=(-2, -1))
            k = int(np.argmax(norms))
            if norms[k] > worst:
                worst, worst_i = float(norms[k]), int(np.concatenate(at)[keep][k])
    return worst, worst_i


def _fft_defects(H: MatrixGrid, lo: int, block: np.ndarray, weights: np.ndarray):
    """The defects of rows lo.. (`block`, cut at column i1) by FFT along
    k, a few rows at a time: yields (a0, defect) with defect[a, j] the
    block of row lo + a0 + a, column j < i1, valid until the next yield.

    Row i's quadrature sum_k u_k H(|k - j| h), u_k = w_k R(x_i, s_k), is a
    linear convolution of u with H's even extension over |d| < i1, so a
    cyclic one of any length n >= 2 i1 - 1 holds it without wrap-around;
    n is the least 5-smooth such length.  H(x_i - t_j) joins it as an
    identity block added to u_i.  The rows are transformed with k as the
    last (contiguous) axis, multiplied by the transform of the extension
    with r broadcast multiply-adds and transformed back, in buffers of
    about _FFT_ENTRIES entries each that every sub-block of rows reuses;
    real H and real rows take real transforms.
    """
    b, i1, r = block.shape[:3]
    hv = _working_values(H)
    real = hv.dtype.kind == "f" and block.dtype.kind == "f"
    forward, inverse = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    n = _fast_len(2 * i1 - 1)
    ext = np.zeros((r, r, n), dtype=hv.dtype)
    ext[..., :i1] = hv[:i1].transpose(1, 2, 0)
    ext[..., n - i1 + 1:] = ext[..., i1 - 1:0:-1]
    spectrum = forward(ext)
    per = min(b, max(1, _FFT_ENTRIES // (r * r * n)))
    u = np.empty((per, r, r, n), dtype=float if real else complex)
    # the complex transforms run in place
    uf = np.empty((per, r, r, n // 2 + 1), dtype=complex) if real else u
    prod, term = np.empty_like(uf), np.empty_like(uf)
    eye = np.arange(r)
    for a0 in range(0, b, per):
        c = min(per, b - a0)
        rk = block[a0:a0 + c].transpose(0, 2, 3, 1)  # [a, p, q, k]
        np.multiply(rk, weights[a0:a0 + c, None, None, :], out=u[:c, ..., :i1])
        u[:c, ..., i1:] = 0.0
        a = np.arange(c)[:, None]
        u[a, eye, eye, lo + a0 + a] += 1.0
        forward(u[:c], out=uf[:c])
        np.multiply(uf[:c, :, 0, None, :], spectrum[0], out=prod[:c])
        for q in range(1, r):
            prod[:c] += np.multiply(uf[:c, :, q, None, :], spectrum[q], out=term[:c])
        inverse(prod[:c], n=n, out=u[:c])
        defect = u[:c, ..., :i1]
        defect += rk
        yield a0, np.moveaxis(defect, -1, 1)


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
