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
    sym_nystrom_square,
    sym_nystrom_triangular,
)
from kreinsl.krein import (
    krein_residual,
    solve_krein,
    theta,
    transformation_kernels,
)

from oracles import (
    constant_accelerant_r,
    constant_tau_alphas,
    constant_tau_lambdas,
    krein_dense_rows,
)


def const_kernel(hval, m, r=1):
    vals = np.tile(hval * np.eye(r), (m + 1, 1, 1)).astype(complex)
    return MatrixGrid(r, GridSpec(m), vals, hermitian=True)


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
    # 79 of 96, while every trapezoid row stays solvable
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
        assert np.abs(sol.R.values).max() == 0.0
        assert sol.residual == 0.0

    def test_constant_closed_form(self):
        m = 512
        sol = solve_krein(const_kernel(0.8, m))
        x = GridSpec(m).points()
        exact = constant_accelerant_r(0.8, x)
        worst = max(
            np.abs(sol.R.values[i, : i + 1, 0, 0] - exact[i]).max()
            for i in range(m + 1)
        )
        assert worst < 1e-6

    def test_not_an_accelerant(self):
        with pytest.raises(NotAnAccelerantError) as exc:
            solve_krein(const_kernel(-2.0, 256))
        assert abs(exc.value.x - 0.5) < 0.02

    def test_triangularity_never_written(self):
        sol = solve_krein(smooth_kernel(24, hermitian=True))
        n = 25
        assert np.all(sol.R.values[np.triu_indices(n, k=1)] == 0)


class TestDenseOracle:
    @pytest.mark.parametrize("make", [
        lambda: const_kernel(0.8, 128),
        lambda: smooth_kernel(96, hermitian=True),
        lambda: smooth_kernel(96, hermitian=False),
        lambda: smooth_kernel(256, scale=0.3, seed=5, hermitian=True),
        lambda: cos_kernel(96),
    ], ids=["constant-m128", "hermitian-r2", "non-hermitian-r2",
            "complex-hermitian-r2-m256", "fallback-cos-m96"])
    def test_matches_dense_rows(self, make):
        H = make()
        sol = solve_krein(H)
        assert np.abs(sol.R.values - krein_dense_rows(H.values)).max() <= 1e-12

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
        starts = []
        dense = krein._dense_rows

        def spy(Td, h, start, values):
            starts.append(start)
            return dense(Td, h, start, values)

        monkeypatch.setattr(krein, "_dense_rows", spy)
        sol = solve_krein(cos_kernel(96))
        assert starts == [79]
        assert sol.residual < 1e-12


class TestResidual:
    def test_solution_residual_roundoff(self):
        sol = solve_krein(const_kernel(0.8, 128))
        assert sol.residual < 1e-12

    def test_sensitivity_to_perturbation(self):
        H = const_kernel(0.8, 64)
        sol = solve_krein(H)
        vals = sol.R.values.copy()
        vals[30, 10, 0, 0] += 1e-3
        bad = TriangularKernel(1, H.spec, vals)
        assert krein_residual(H, bad) >= 5e-4

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
            tau_c, _ = sol.extract_tau(True)
            tau_f, _ = fine.extract_tau(True)
            errs.append(np.abs(tau_c.values[:, 0, 0]
                               - tau_f.values[::2, 0, 0]).max())
        rate1 = np.log2(errs[0] / errs[1])
        rate2 = np.log2(errs[1] / errs[2])
        assert rate1 > 1.8 and rate2 > 1.8


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
        _, defect = sol.extract_tau(hermitize=True)
        assert defect <= 1e-8

    def test_alternative_form_agrees(self):
        # -R(x, 0) equals H(x) + int_0^x R(x, s) H(s) ds by construction of
        # the row systems: verify through the independent quadrature
        H = smooth_kernel(64, hermitian=True)
        sol = solve_krein(H)
        m, h = 64, 1.0 / 64
        for i in (5, 31, 64):
            w = np.full(i + 1, h)
            w[0] = w[-1] = h / 2
            if i == 0:
                w[:] = 0
            quad = np.einsum("k,kab,kbc->ac", w, sol.R.values[i, : i + 1],
                             H.values[: i + 1])
            lhs = -sol.R.values[i, 0]
            rhs = H.values[i] + quad
            assert np.linalg.norm(lhs - rhs, 2) < 1e-12

    def test_star_equivariance(self):
        H = smooth_kernel(96, hermitian=False)
        t1, _ = solve_krein(H).extract_tau(hermitize=False)
        t2, _ = solve_krein(H.conj_transpose()).extract_tau(hermitize=False)
        diff = np.abs(t2.values - np.conj(np.swapaxes(t1.values, -1, -2))).max()
        assert diff < 1e-8


class TestTransformationKernels:
    def test_zero(self):
        kd, kn = transformation_kernels(solve_krein(zero_kernel(32)).R)
        assert np.abs(kd.values).max() == 0.0
        assert np.abs(kn.values).max() == 0.0

    def test_constant_kernel_shapes(self):
        m = 256
        sol = solve_krein(const_kernel(0.8, m))
        kd, kn = transformation_kernels(sol.R)
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
        tau, _ = sol.extract_tau(hermitize=True)
        kd, _ = transformation_kernels(sol.R)
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
            taus[m], _ = solve_krein(H).extract_tau(True)
        e1 = np.abs(taus[64].values[:, 0, 0] - taus[128].values[::2, 0, 0]).max()
        e2 = np.abs(taus[128].values[:, 0, 0] - taus[256].values[::2, 0, 0]).max()
        assert 2.5 < e1 / e2 < 6.0

    def test_factorization_identity(self):
        # with tau = theta(H): (I + K_N)(I + He)(I + K_N*) = I and the same
        # for (K_D, Ho), up to discretization
        from kreinsl.accelerant import build_heo

        m = 128
        H = smooth_kernel(m, r=2, scale=0.1, hermitian=True)
        sol = solve_krein(H)
        kd, kn = transformation_kernels(sol.R)
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
