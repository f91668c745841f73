import tracemalloc
import warnings

import numpy as np
import pytest

from kreinsl import krein
from kreinsl.accelerant import build_accelerant
from kreinsl.core import (
    GridSpec,
    MatrixGrid,
    NotAnAccelerantError,
    SpectralData,
    TriangularKernel,
)
from kreinsl.krein import (
    krein_kernel,
    krein_residual,
    solve_krein,
    transformation_kernels,
)

from oracles import (
    constant_accelerant_r,
    constant_tau_alphas,
    constant_tau_lambdas,
    krein_dense_rows,
    krein_residual_one_gemm,
    krein_square_rows,
    sym_nystrom_square,
    sym_nystrom_triangular,
    theta,
)


def const_kernel(hval, m, r=1):
    vals = np.tile(hval * np.eye(r), (m + 1, 1, 1)).astype(complex)
    return MatrixGrid(r, GridSpec(m), vals, hermitian=True)


def edge_kernel(m):
    # the constant kernel -m / (m + 1): G_m = I + h T_m is singular on its
    # last row, whose A_m stays regular, so the last row alone goes to the
    # dense rows
    return const_kernel(-m / (m + 1), m)


def zero_kernel(m, r=1):
    return MatrixGrid(r, GridSpec(m), np.zeros((m + 1, r, r)), hermitian=True)


def smooth_kernel(m, r=2, scale=0.15, seed=3, hermitian=False):
    rng = np.random.default_rng(seed)
    x = GridSpec(m).points()
    c = rng.normal(size=(3, r, r)) + 1j * rng.normal(size=(3, r, r))
    vals = scale * sum(np.cos((k + 1) * np.pi * x)[:, None, None] * c[k]
                       for k in range(3))
    vals += 0.3 * scale * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    if hermitian:
        vals = (vals + np.conj(np.swapaxes(vals, -1, -2))) / 2.0
    return MatrixGrid(r, GridSpec(m), vals, hermitian=hermitian)


def cos_kernel(m):
    # not an accelerant: the pivots of I + h T_i lose definiteness at row
    # 79 of 96, while every trapezoid row stays solvable; the recursion
    # solves every row, since no pivot comes near singular
    x = GridSpec(m).points()
    return MatrixGrid(1, GridSpec(m), (-1.1 - 0.2 * np.cos(np.pi * x))[:, None, None],
                      hermitian=True)


def constant_tau_accelerant(c, m, n_bins):
    # accelerant of the closed-form spectral data of tau = c (scalar)
    lams = constant_tau_lambdas(c, n_bins + 1)
    alphas = constant_tau_alphas(c, n_bins + 1)[:, None, None].astype(complex)
    data = SpectralData(1, lams, alphas, includes_zero=True)
    return build_accelerant(data, GridSpec(m), n_bins)


class TestSolveKrein:
    def test_zero_kernel(self):
        sol = solve_krein(zero_kernel(64))
        assert np.abs(krein_kernel(zero_kernel(64)).values).max() == 0.0
        assert sol.residual == 0.0

    def test_constant_closed_form(self):
        m = 512
        R = krein_kernel(const_kernel(0.8, m))
        x = GridSpec(m).points()
        exact = constant_accelerant_r(0.8, x)
        worst = max(
            np.abs(R.values[i, : i + 1, 0, 0] - exact[i]).max()
            for i in range(m + 1)
        )
        assert worst < 1e-6

    def test_not_an_accelerant(self):
        with pytest.raises(NotAnAccelerantError) as exc:
            solve_krein(const_kernel(-2.0, 256))
        assert abs(exc.value.x - 0.5) < 0.02

    def test_triangularity_never_written(self):
        R = krein_kernel(smooth_kernel(24, hermitian=True))
        n = 25
        assert np.all(R.values[np.triu_indices(n, k=1)] == 0)


ORACLE_KERNELS = pytest.mark.parametrize("make", [
    lambda: const_kernel(0.8, 128),
    lambda: smooth_kernel(96, hermitian=True),
    lambda: smooth_kernel(96, hermitian=False),
    lambda: smooth_kernel(256, scale=0.3, seed=5, hermitian=True),
    lambda: cos_kernel(96),
], ids=["constant-m128", "hermitian-r2", "non-hermitian-r2",
        "complex-hermitian-r2-m256", "fallback-cos-m96"])


class TestDenseOracle:
    @ORACLE_KERNELS
    def test_matches_dense_rows(self, make):
        H = make()
        R = krein_kernel(H)
        assert np.abs(R.values - krein_dense_rows(H.values)).max() <= 1e-12

    def test_large_grid_residual(self):
        sol = solve_krein(smooth_kernel(1024, scale=0.3, seed=5, hermitian=True))
        assert sol.residual < 1e-12

    def test_accelerants_never_fall_back(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense fallback entered")

        monkeypatch.setattr(krein, "_dense_rows", refuse)
        for H in (const_kernel(0.8, 128), smooth_kernel(96, hermitian=True),
                  smooth_kernel(96, hermitian=False),
                  constant_tau_accelerant(1.5, 128, 16)):
            solve_krein(H)

    def test_fallback_starts_at_first_degraded_pivot(self, monkeypatch):
        # a pivot degrades on its size: the cos kernel's indefinite pivots
        # stay in the recursion, the constant -2 kernel's singular pivot on
        # row 47 of 96 and the edge kernel's on row 96 send the rows on
        starts = []
        dense = krein._dense_rows

        def spy(Td, h, start, pivots):
            starts.append(start)
            return dense(Td, h, start, pivots)

        monkeypatch.setattr(krein, "_dense_rows", spy)
        assert solve_krein(cos_kernel(96)).residual < 1e-12
        assert starts == []
        with pytest.raises(NotAnAccelerantError) as exc:
            solve_krein(const_kernel(-2.0, 96))
        assert exc.value.x == 0.5
        assert starts == [47]
        assert solve_krein(edge_kernel(96)).residual < 1e-12
        assert starts == [47, 96]

    def test_pivot_size_is_smallest_eigenvalue_magnitude(self):
        # a Hermitian pivot degrades on its eigenvalue nearest zero, not on
        # the magnitude of its most negative one; the sign stays for
        # min_pivot
        assert krein._pivot_size(np.diag([-2.8, 1e-16]), True) == (-2.8, 1e-16)
        assert krein._pivot_size(np.diag([-2.8, 1e-16]), False) == (1e-16, 1e-16)

    def test_indefinite_channel_beside_singular_one(self, monkeypatch):
        # diag(-1.1 - 0.2 cos(pi x), -1.2) at m = 96: on row 79 the cos
        # channel's pivot is negative (-2.79) while the constant channel's
        # G_i is singular (1 - 1.2 * 80 / 96 = 0), so the dense rows start
        # there, inside the second block of rows; its A_i is singular on
        # row 80
        m = 96
        x = GridSpec(m).points()
        vals = np.zeros((m + 1, 2, 2), dtype=complex)
        vals[:, 0, 0] = -1.1 - 0.2 * np.cos(np.pi * x)
        vals[:, 1, 1] = -1.2
        H = MatrixGrid(2, GridSpec(m), vals, hermitian=True)
        dense, got = krein._dense_rows, {}

        def spy(Td, h, start, pivots):
            for i, row in enumerate(dense(Td, h, start, pivots), start):
                got[i] = row.copy()
                yield row

        monkeypatch.setattr(krein, "_dense_rows", spy)
        blocks = krein._row_blocks(H, krein._Pivots())
        i0, first = next(blocks)
        want = krein_dense_rows(vals)
        assert i0 == 0
        assert np.abs(first - want[:64]).max() <= 1e-13 * np.abs(want[:64]).max()
        with pytest.raises(NotAnAccelerantError) as exc:
            next(blocks)
        assert exc.value.x == pytest.approx(80 / 96, rel=1e-15)
        assert list(got) == [79]
        assert np.abs(got[79] - want[79, :80]).max() <= 1e-13 * np.abs(want[79]).max()
        with pytest.raises(NotAnAccelerantError):
            solve_krein(H)

    def test_dense_start_reported(self):
        assert solve_krein(edge_kernel(96)).dense_from_x == 1.0
        assert solve_krein(cos_kernel(96)).dense_from_x is None
        assert solve_krein(smooth_kernel(96, hermitian=True)).dense_from_x is None

    def test_worst_pivot_row_reported(self):
        # the edge kernel's dense row has reciprocal condition number
        # 0.0103, below every recursion pivot; the cos kernel's worst pivot
        # is the negative one of row 79, where G_i loses definiteness
        sol = solve_krein(edge_kernel(96))
        assert sol.min_pivot_x == sol.dense_from_x == 1.0
        assert sol.min_pivot == pytest.approx(0.010257489395781604, rel=1e-12)
        sol = solve_krein(cos_kernel(96))
        assert sol.min_pivot_x == pytest.approx(79 / 96, abs=1e-15)
        assert sol.min_pivot == pytest.approx(-2.7894472653797435, rel=1e-12)

    @pytest.mark.parametrize("m", [96, 384, 768])
    def test_indefinite_kernel_matches_dense_rows(self, monkeypatch, m):
        # the cos kernels' rows all come from the recursion, with a negative
        # pivot; tau agrees with the dense solves on every 16th row and on
        # both sides of the row where definiteness is lost
        def refuse(*args):
            raise AssertionError("dense fallback entered")

        monkeypatch.setattr(krein, "_dense_rows", refuse)
        H = cos_kernel(m)
        sol = solve_krein(H)
        assert sol.min_pivot < 0.0
        lost = round(sol.min_pivot_x * m)
        rows = sorted({*range(0, m + 1, m // 16), lost - 1, lost})
        want = -krein_dense_rows(H.values, rows)[rows, 0]
        got = -sol.column.values[rows]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def hermitian_kernel(m):
    return smooth_kernel(m, scale=0.3, seed=5, hermitian=True)


class TestStreaming:
    # the rows reach the residual 64 at a time: m + 1 = 64 and 128 fill
    # the last block, 65 and 129 leave one row in it.  The cos kernels'
    # G_i loses definiteness on row 79 of 96, inside the second block, and
    # at m = 77, 78, 154 and 155 on row 63, 64, 127 and 127: the last or
    # the first row of a block.  Their most negative pivot, on that row,
    # is min_pivot; the recursion solves every row (the ids keep the names
    # of the rows where a pivot's sign once sent the rest to dense rows).
    @pytest.mark.parametrize("make, min_pivot, min_pivot_x", [
        (lambda: hermitian_kernel(63), 0.9797862556848314, 1.0),
        (lambda: hermitian_kernel(64), 0.9800992160248965, 1.0),
        (lambda: hermitian_kernel(127), 0.9899257160616813, 1.0),
        (lambda: hermitian_kernel(128), 0.9900040612809882, 1.0),
        (lambda: cos_kernel(96), -2.7894472653797435, 79 / 96),
        (lambda: cos_kernel(77), -0.7405801867761661, 63 / 77),
        (lambda: cos_kernel(78), -1.4980687676955802, 64 / 78),
        (lambda: cos_kernel(154), -5.436805418826212, 127 / 154),
        (lambda: cos_kernel(155), -0.018618812324743408, 127 / 155),
    ], ids=["m63", "m64", "m127", "m128", "fallback-cos-m96",
            "degraded-last-row-m77", "degraded-first-row-m78",
            "degraded-last-row-m154", "degraded-last-row-m155"])
    def test_block_edges(self, make, min_pivot, min_pivot_x):
        H = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_krein(H)
            R = krein_kernel(H)
        assert (-sol.column.values).tobytes() == (-R.values[:, 0]).tobytes()
        # the cos kernels' R is O(5); their defects are scored at the FFT's
        # roundoff scale, not the one product's
        tol = 1e-15 if min_pivot > 0 else fft_bound(H, R.values)
        assert abs(sol.residual - krein_residual_one_gemm(H.values, R.values)) <= tol
        assert sol.min_pivot == pytest.approx(min_pivot, rel=1e-12)
        assert sol.min_pivot_x == pytest.approx(min_pivot_x, abs=1e-15)
        assert sol.dense_from_x is None

    @pytest.mark.parametrize("m", [63, 64, 127, 128])
    def test_dense_row_at_block_edges(self, m):
        # the edge kernel's one dense row is the last row of a block at
        # m = 63 and 127, and the first of a block at m = 64 and 128
        H = edge_kernel(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_krein(H)
            R = krein_kernel(H)
        assert sol.dense_from_x == sol.min_pivot_x == 1.0
        assert (-sol.column.values).tobytes() == (-R.values[:, 0]).tobytes()
        assert abs(sol.residual - krein_residual_one_gemm(H.values, R.values)) \
            <= fft_bound(H, R.values)
        assert np.abs(R.values - krein_dense_rows(H.values)).max() <= 1e-12

    def test_singular_pivot_inside_block(self, monkeypatch):
        # the constant -2 kernel's recursion pivot E is exactly singular on
        # row 47 of 96, inside the first block: that ends the block there,
        # the dense rows start on it, and row 48 (x = 0.5) is singular
        singular = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        H = const_kernel(-2.0, 96)
        for run in (solve_krein, krein_kernel):
            with warnings.catch_warnings(), pytest.raises(NotAnAccelerantError) as exc:
                warnings.simplefilter("error")
                run(H)
            assert exc.value.x == 0.5
            assert exc.value.pivot == pytest.approx(6.402458455818395e-17, rel=1e-12,
                                                    abs=0)
        assert len(singular) == 2

    def test_pivots_independent_of_process_and_blas_threads(self):
        # a dense row's pivot (the -2 kernel's error) and a recursion pivot
        # (the cos kernel's min_pivot) are the same bytes in every process,
        # at one BLAS thread or two: the dense pivot is an exact reciprocal
        # condition number from one SVD, not a condition estimate
        import os
        import subprocess
        import sys

        code = ("import numpy as np\n"
                "from kreinsl.core import GridSpec, MatrixGrid, NotAnAccelerantError\n"
                "from kreinsl.krein import solve_krein\n"
                "try:\n"
                "    solve_krein(MatrixGrid(1, GridSpec(96), np.full((97, 1, 1), -2.0),\n"
                "                           hermitian=True))\n"
                "except NotAnAccelerantError as exc:\n"
                "    print(np.float64(exc.pivot).tobytes().hex())\n"
                "x = GridSpec(768).points()\n"
                "cos = MatrixGrid(1, GridSpec(768), (-1.1 - 0.2 * np.cos(np.pi * x))\n"
                "                 [:, None, None], hermitian=True)\n"
                "print(np.float64(solve_krein(cos).min_pivot).tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(krein.__file__)))
        runs = [subprocess.Popen([sys.executable, "-c", code], text=True,
                                 stdout=subprocess.PIPE,
                                 env={**os.environ, "PYTHONPATH": src,
                                      "OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "1", "2", "2")]
        out = {run.communicate(timeout=120)[0] for run in runs}
        assert all(run.returncode == 0 for run in runs)
        assert len(out) == 1 and len(out.pop().split()) == 2

    def test_solve_memory_bounded(self):
        # m = 1024, r = 2 complex: the whole triangle plus the square
        # block-Toeplitz matrix of the residual peaked at 210 MB; the stream
        # holds one block of rows and the residual's transform buffers
        H = hermitian_kernel(1024)
        tracemalloc.start()
        try:
            solve_krein(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


class TestDenseRowsFromT:
    # krein_square_rows is the dense fallback as it was when it copied each
    # row's system out of the whole (m+1) r square and solved it by LU,
    # with a 1-norm condition estimate: its rows are a reference at
    # roundoff, not in bytes, and its pivots are not the exact 2-norm
    # figures the package reports, which are pinned instead.  A floor no
    # pivot can clear sends the cos kernels' rows from x = h on to the
    # dense rows.
    FORCED_MIN_PIVOT = {77: 0.005809254534756541, 78: 0.005549116647445671,
                        96: 0.002978841398526887, 154: 0.001093409510438795,
                        155: 0.00011655968636206464}

    @staticmethod
    def both(monkeypatch, run, H):
        new = run(H)
        with monkeypatch.context() as patch:
            patch.setattr(krein, "_dense_rows", krein_square_rows)
            ref = run(H)
        return new, ref

    @pytest.mark.parametrize("m", [77, 78, 96, 154, 155])
    def test_rows_match_square_rows(self, monkeypatch, m):
        monkeypatch.setattr(krein, "LEVINSON_FLOOR", 2.0)
        H = cos_kernel(m)
        new, ref = self.both(monkeypatch, krein_kernel, H)
        assert np.abs(new.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()
        new, ref = self.both(monkeypatch, solve_krein, H)
        assert np.abs(new.column.values - ref.column.values).max() \
            <= 1e-13 * np.abs(ref.column.values).max()
        assert abs(new.residual - ref.residual) <= fft_bound(H, krein_kernel(H).values)
        assert ((new.residual_x, new.min_pivot_x, new.dense_from_x)
                == (ref.residual_x, ref.min_pivot_x, ref.dense_from_x))
        assert new.dense_from_x == 1.0 / m
        assert new.min_pivot == pytest.approx(self.FORCED_MIN_PIVOT[m], rel=1e-12)

    @pytest.mark.parametrize("m", [96, 256])
    def test_singular_row_matches_square_rows(self, monkeypatch, m):
        def failure(H):
            with pytest.raises(NotAnAccelerantError) as exc:
                solve_krein(H)
            return exc.value

        new, ref = self.both(monkeypatch, failure, const_kernel(-2.0, m))
        assert new.x == ref.x == 0.5
        pivot = {96: 6.402458455818395e-17, 256: 1.9260268994792088e-16}[m]
        assert new.pivot == pytest.approx(pivot, rel=1e-12, abs=0)

    def test_fallback_memory(self):
        # the -2 kernel's rows 511 and 512 go dense at m = 1024; building
        # each row's system out of the whole square, with its index array,
        # holds two (m+1)^2 arrays of 8.4 MB, and the stream peaked at
        # 4.8 MB
        H = const_kernel(-2.0, 1024)
        tracemalloc.start()
        try:
            with pytest.raises(NotAnAccelerantError) as exc:
                solve_krein(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.x == 0.5
        assert peak < 9e6, f"peak {peak / 1e6:.1f} MB"


class TestResidual:
    @ORACLE_KERNELS
    def test_matches_one_gemm_oracle(self, make):
        H = make()
        sol = solve_krein(H)
        R = krein_kernel(H)
        # the cos kernel's R is O(5); its defects are scored at the FFT's
        # roundoff scale, not the one product's
        tol = 1e-15 if sol.min_pivot > 0 else fft_bound(H, R.values)
        assert abs(sol.residual - krein_residual_one_gemm(H.values, R.values)) <= tol
        vals = R.values.copy()
        vals[70, 10] += 1e-3
        bad, _ = krein_residual(H, 0, vals)
        assert abs(bad - krein_residual_one_gemm(H.values, vals)) <= tol

    def test_memory_in_row_blocks(self):
        # m = 384, r = 2 complex: the one-product residual peaked at 30.8 MB
        # (five (m+1)^2 r^2 arrays); row blocks leave one such matrix
        H = smooth_kernel(384, scale=0.3, seed=5, hermitian=True)
        R = krein_kernel(H)
        tracemalloc.start()
        try:
            krein_residual(H, 0, R.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, f"peak {peak / 1e6:.1f} MB"

    def test_residual_names_the_worst_row(self):
        H = const_kernel(0.8, 128)
        vals = krein_kernel(H).values.copy()
        vals[70, 10] += 1e-3
        worst, row = krein_residual(H, 0, vals)
        assert row == 70
        # the block of rows 64..127 alone scores the same
        assert krein_residual(H, 64, vals[64:128]) == (worst, row)

    def test_solution_residual_roundoff(self):
        sol = solve_krein(const_kernel(0.8, 128))
        assert sol.residual < 1e-12

    def test_sensitivity_to_perturbation(self):
        H = const_kernel(0.8, 64)
        R = krein_kernel(H)
        vals = R.values.copy()
        vals[30, 10, 0, 0] += 1e-3
        bad = TriangularKernel(1, H.spec, vals)
        assert krein_residual(H, 0, bad.values)[0] >= 5e-4

    def test_closed_form_residual_second_order(self):
        # the continuum solution on the discrete equation scores C h^2
        # (for constant kernels the two coincide, so perturb the kernel)
        errs = []
        for m in (64, 128, 256):
            spec = GridSpec(m)
            x = spec.points()
            H = MatrixGrid(1, spec,
                           (0.5 + 0.3 * np.cos(2 * x))[:, None, None],
                           hermitian=True)
            sol = solve_krein(H)
            fine = solve_krein(MatrixGrid(
                1, GridSpec(2 * m),
                (0.5 + 0.3 * np.cos(2 * GridSpec(2 * m).points()))[:, None, None],
                hermitian=True))
            tau_c, _ = sol.extract_tau()
            tau_f, _ = fine.extract_tau()
            errs.append(np.abs(tau_c.values[:, 0, 0]
                               - tau_f.values[::2, 0, 0]).max())
        rate1 = np.log2(errs[0] / errs[1])
        rate2 = np.log2(errs[1] / errs[2])
        assert rate1 > 1.8 and rate2 > 1.8


def closed_form_r2_accelerant(seed, m, n_bins=32):
    # the accelerant of the closed-form data of tau = U diag(c1, c2) U*,
    # as the inverse-r2 benchmark workload draws them for `seed`
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(0.4, 1.0)
    c = np.array([c1, c1 + rng.uniform(0.2, 0.6)])
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, rr = np.linalg.qr(z)
    u = q * (np.diag(rr) / np.abs(np.diag(rr)))
    proj = [np.outer(u[:, k], u[:, k].conj()) for k in range(2)]
    entries = [(0.0, sum(ck / (1.0 - np.exp(-2.0 * ck)) * p for ck, p in zip(c, proj)))]
    for n in range(1, n_bins + 1):
        for ck, p in zip(c, proj):
            lam = np.sqrt(np.pi ** 2 * n ** 2 + ck ** 2)
            entries.append((lam, (np.pi * n / lam) ** 2 * p))
    entries.sort(key=lambda e: e[0])
    data = SpectralData(2, np.array([e[0] for e in entries]),
                        np.stack([e[1] for e in entries]), includes_zero=True)
    return build_accelerant(data, GridSpec(m), n_bins)


def fft_bound(H, rows):
    """16 eps max_i (sum_k w_k ||R(x_i, s_k)|| + 1) max_d ||H(d h)||: the
    roundoff scale of one defect block, whose quadrature and H term the
    residual sums in one transform of length n <= 1080 here."""
    m, h = H.spec.m, H.spec.h
    w = np.tril(np.full((m + 1, m + 1), h))
    w[:, 0] = w[np.arange(m + 1), np.arange(m + 1)] = h / 2.0
    w[0, 0] = 0.0
    quad = np.sum(w * np.linalg.norm(rows, 2, axis=(-2, -1)), axis=1).max()
    return 16 * np.finfo(float).eps * (quad + 1.0) * np.linalg.norm(
        H.values, 2, axis=(-2, -1)).max()


FFT_KERNELS = pytest.mark.parametrize("make", [
    lambda: closed_form_r2_accelerant(1, 384),
    lambda: smooth_kernel(384, hermitian=True),
    lambda: smooth_kernel(384, hermitian=False),
    lambda: cos_kernel(384),
    lambda: cos_kernel(512),
], ids=["inverse-r2-m384", "hermitian-r2-m384", "non-hermitian-r2-m384",
        "real-cos-m384", "real-cos-m512"])


class TestFFTRoute:
    # every block of rows takes its quadrature by FFT; the real cos kernels
    # take the real transforms through solve_krein's real rows
    @FFT_KERNELS
    def test_matches_one_gemm_oracle(self, make):
        H = make()
        sol = solve_krein(H)
        R = krein_kernel(H).values
        bound = fft_bound(H, R)
        assert abs(sol.residual - krein_residual_one_gemm(H.values, R)) <= bound
        worst, _ = krein_residual(H, 0, R)
        assert abs(worst - krein_residual_one_gemm(H.values, R)) <= bound

    @FFT_KERNELS
    def test_perturbed_entry_found_at_its_row(self, make):
        # real rows of a real kernel take the real transforms
        H = make()
        vals = krein_kernel(H).values
        vals = (vals if np.any(H.values.imag) else vals.real).copy()
        vals[200, 10] += 1e-3
        worst, row = krein_residual(H, 0, vals)
        assert row == 200
        assert abs(worst - krein_residual_one_gemm(H.values, vals)) <= fft_bound(H, vals)

    @pytest.mark.parametrize("i1, former_route", [(191, "gemm"), (192, "fft")])
    def test_blocks_straddling_the_switch(self, monkeypatch, i1, former_route):
        # r = 2: blocks of rows 128..i1-1 that do not start at row 0, ending
        # on either side of i1 r = 384, where a GEMM/FFT size switch once
        # stood; both now take one FFT pass and find the perturbed last row
        seen = []

        def spy(*args, _f=krein._fft_defects):
            seen.append(former_route)
            return _f(*args)
        monkeypatch.setattr(krein, "_fft_defects", spy)
        H = smooth_kernel(384, hermitian=True)
        vals = krein_kernel(H).values.copy()
        vals[i1 - 1, 10] += 1e-3
        worst, row = krein_residual(H, 128, vals[128:i1])
        assert seen == [former_route]
        assert row == i1 - 1
        assert abs(worst - krein_residual_one_gemm(H.values, vals)) <= fft_bound(H, vals)

    def test_fast_len_is_least_5_smooth(self):
        def least_smooth(k):
            while True:
                rest = k
                for p in (2, 3, 5):
                    while rest % p == 0:
                        rest //= p
                if rest == 1:
                    return k
                k += 1

        n = range(1, 5001)
        assert [krein._fast_len(k) for k in n] == [least_smooth(k) for k in n]

    def test_residual_independent_of_blas_threads(self):
        # no BLAS product enters the residual: on this Hermitian r = 2
        # kernel at m = 190, GEMM panels gave a residual whose last digits
        # differed between one and two threads
        import os
        import subprocess
        import sys

        code = ("import numpy as np\n"
                "from kreinsl.core import GridSpec, MatrixGrid\n"
                "from kreinsl.krein import solve_krein\n"
                "rng = np.random.default_rng(5)\n"
                "b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))\n"
                "x = GridSpec(190).points()\n"
                "vals = (np.exp(-x)[:, None, None] * (b + b.conj().T) / 4\n"
                "        + 0.3 * np.cos(5 * x)[:, None, None] * np.eye(2))\n"
                "sol = solve_krein(MatrixGrid(2, GridSpec(190), vals, hermitian=True))\n"
                "print(np.float64(sol.residual).tobytes().hex(), sol.residual_x,\n"
                "      sol.column.values.tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(krein.__file__)))
        out = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src,
                                   "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
        assert out[0] == out[1]


class TestTheta:
    def test_zero(self):
        tau = theta(zero_kernel(64))
        assert np.abs(tau.values).max() == 0.0

    def test_constant_closed_form(self):
        m = 512
        tau = theta(const_kernel(0.8, m))
        x = GridSpec(m).points()
        assert np.abs(tau.values[:, 0, 0] - 0.8 / (1 + 0.8 * x)).max() < 1e-6

    def test_hermitian_defect_small(self):
        H = smooth_kernel(96, hermitian=True)
        sol = solve_krein(H)
        _, defect = sol.extract_tau()
        assert defect <= 1e-8

    def test_alternative_form_agrees(self):
        # -R(x, 0) equals H(x) + int_0^x R(x, s) H(s) ds by construction of
        # the row systems: verify through the independent quadrature
        H = smooth_kernel(64, hermitian=True)
        R = krein_kernel(H)
        m, h = 64, 1.0 / 64
        for i in (5, 31, 64):
            w = np.full(i + 1, h)
            w[0] = w[-1] = h / 2
            if i == 0:
                w[:] = 0
            quad = np.einsum("k,kab,kbc->ac", w, R.values[i, : i + 1],
                             H.values[: i + 1])
            lhs = -R.values[i, 0]
            rhs = H.values[i] + quad
            assert np.linalg.norm(lhs - rhs, 2) < 1e-12

    def test_star_equivariance(self):
        H = smooth_kernel(96, hermitian=False)
        t1, _ = solve_krein(H).extract_tau()
        t2, _ = solve_krein(H.conj_transpose()).extract_tau()
        diff = np.abs(t2.values - np.conj(np.swapaxes(t1.values, -1, -2))).max()
        assert diff < 1e-8


class TestTransformationKernels:
    def test_zero(self):
        kd, kn = transformation_kernels(krein_kernel(zero_kernel(32)))
        assert np.abs(kd.values).max() == 0.0
        assert np.abs(kn.values).max() == 0.0

    def test_constant_kernel_shapes(self):
        m = 256
        kd, kn = transformation_kernels(krein_kernel(const_kernel(0.8, m)))
        x = GridSpec(m).points()
        rho = constant_accelerant_r(0.8, x)
        worst_d = worst_n = 0.0
        for i in range(m + 1):
            worst_d = max(worst_d, np.abs(kd.values[i, : i + 1, 0, 0]).max())
            worst_n = max(worst_n,
                          np.abs(kn.values[i, : i + 1, 0, 0] - rho[i]).max())
        assert worst_d < 1e-12
        assert worst_n < 1e-6

    def test_boundary_value_representation(self):
        # phi(1, lam) from the propagator matches
        # sin(lam) I + int_0^1 sin(lam t) K_D(1, t) dt
        from kreinsl.core import trapezoid_weights
        from kreinsl.direct import propagate

        m = 256
        H = const_kernel(0.8, m)
        sol = solve_krein(H)
        tau, _ = sol.extract_tau()
        kd, _ = transformation_kernels(krein_kernel(H))
        spec = GridSpec(m)
        w = trapezoid_weights(spec)
        t = spec.points()
        for lam in (1.0, 2.7, 6.0):
            bv = propagate(tau, lam)
            rep = np.sin(lam) * np.eye(1) + np.einsum(
                "k,k,kab->ab", w, np.sin(lam * t), kd.values[m])
            assert np.linalg.norm(bv.phi_tau - rep, 2) < 5e-4


class TestConvergenceAndFactorization:
    def test_grid_convergence_second_order(self):
        # analytic kernel: potential converges at ~4x per grid doubling
        taus = {}
        for m in (64, 128, 256):
            spec = GridSpec(m)
            x = spec.points()
            H = MatrixGrid(1, spec, (0.7 * np.cos(3 * x) + 0.2)[:, None, None],
                           hermitian=True)
            taus[m], _ = solve_krein(H).extract_tau()
        e1 = np.abs(taus[64].values[:, 0, 0] - taus[128].values[::2, 0, 0]).max()
        e2 = np.abs(taus[128].values[:, 0, 0] - taus[256].values[::2, 0, 0]).max()
        assert 2.5 < e1 / e2 < 6.0

    def test_factorization_identity(self):
        # with tau = theta(H): (I + K_N)(I + He)(I + K_N*) = I and the same
        # for (K_D, Ho), up to discretization
        from kreinsl.accelerant import build_heo

        m = 128
        H = smooth_kernel(m, r=2, scale=0.1, hermitian=True)
        kd, kn = transformation_kernels(krein_kernel(H))
        he, ho = build_heo(H)
        n = (m + 1) * 2
        eye = np.eye(n)
        KN = eye + sym_nystrom_triangular(kn)
        KD = eye + sym_nystrom_triangular(kd)
        HE = eye + sym_nystrom_square(he)
        HO = eye + sym_nystrom_square(ho)
        dN = np.linalg.norm(KN @ HE @ KN.conj().T - eye, 2)
        dD = np.linalg.norm(KD @ HO @ KD.conj().T - eye, 2)
        assert dN < 5e-3
        assert dD < 5e-3
