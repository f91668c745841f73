import numpy as np
import pytest

from kreinsl.accelerant import (
    accelerant_terms,
    build_accelerant,
    build_heo,
    prepend_unit_mass,
    tail_proxy,
)
from kreinsl.core import (
    CoverageError,
    GridSpec,
    MatrixGrid,
    SpectralData,
    trapezoid_weights,
)

from oracles import sym_nystrom_square


def nu0_truncation(r, n):
    lams = np.concatenate([[0.0], np.pi * np.arange(1, n + 1)])
    alphas = np.concatenate([
        [0.5 * np.eye(r)], np.tile(np.eye(r), (n, 1, 1))]).astype(complex)
    return SpectralData(r, lams, alphas, includes_zero=True)


def with_alpha(data, j, alpha):
    alphas = data.alphas.copy()
    alphas[j] = alpha
    return SpectralData(data.r, data.lambdas, alphas,
                        includes_zero=data.includes_zero)


def bin_offsets_and_defects(data, n_bins):
    """Per bin n, from the slices of the term list: the offsets
    lambda_j - pi n and the defect I - sum alpha_j (A_j = 2 alpha_j)."""
    freq, coef, starts = accelerant_terms(data, n_bins)
    eye = np.eye(data.r)
    return [(freq[lo:hi] - np.pi * n, eye - coef[lo:hi].sum(axis=0) / 2.0)
            for n, (lo, hi) in enumerate(zip(starts[:-1], starts[1:]), 1)]


class TestBinDecompose:
    """The per-bin slices of accelerant_terms."""

    def test_free_data_all_zero(self):
        bins = bin_offsets_and_defects(nu0_truncation(2, 8), 8)
        assert max(np.abs(beta).max() for _, beta in bins) == 0.0
        assert all(t.size == 1 and t[0] == 0.0 for t, _ in bins)

    def test_single_perturbed_entry(self):
        data = nu0_truncation(1, 8)
        lams = data.lambdas.copy()
        lams[1] = np.pi + 0.1
        data = SpectralData(1, lams, data.alphas, includes_zero=True)
        bins = bin_offsets_and_defects(data, 8)
        assert abs(bins[0][1][0, 0]) < 1e-15

    def test_first_bin_boundary(self):
        # 3 pi / 2 belongs to the right-closed first bin
        data = SpectralData(
            1, np.array([0.0, 1.5 * np.pi]),
            np.stack([[[0.5 + 0j]], [[1.0 + 0j]]]), includes_zero=True)
        freq, _, starts = accelerant_terms(data, 1)
        assert list(starts) == [1, 2]
        assert freq[1] == 1.5 * np.pi

    def test_short_data_flagged(self):
        with pytest.raises(CoverageError):
            accelerant_terms(nu0_truncation(1, 4), 8)

    def test_interior_empty_bin_recorded(self):
        data = nu0_truncation(1, 8)
        keep = np.ones(9, bool)
        keep[3] = False
        short = SpectralData(1, data.lambdas[keep], data.alphas[keep],
                             includes_zero=True)
        tilde, beta = bin_offsets_and_defects(short, 8)[2]
        assert tilde.size == 0
        assert np.linalg.norm(beta, 2) == pytest.approx(1.0)

    def test_terms_sum_to_the_accelerant(self):
        # w: 0, the lambda_j of the bins, then pi n; A: 2 alpha_0 - I,
        # 2 alpha_j, -2I; a reduced dataset gets A_0 = I
        rng = np.random.default_rng(3)
        lams = np.pi * np.arange(1, 7) + 0.1 * rng.uniform(-1, 1, 6)
        b = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        alphas = np.eye(2) + 0.1 * (b + np.conj(np.swapaxes(b, -1, -2)))
        data = SpectralData(2, lams, alphas, includes_zero=False)
        freq, coef, starts = accelerant_terms(data, 5)
        assert list(starts) == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(freq, np.concatenate(
            [[0.0], lams[:5], np.pi * np.arange(1, 6)]))
        assert np.array_equal(coef[0], np.eye(2))
        assert np.array_equal(coef[1:6], 2.0 * alphas[:5])
        assert np.array_equal(coef[6:], np.broadcast_to(-2.0 * np.eye(2), (5, 2, 2)))
        spec = GridSpec(64)
        x = spec.points()
        total = np.einsum("ki,kab->iab", np.cos(2.0 * np.outer(freq, x)), coef)
        h = build_accelerant(data, spec, 5).values
        assert np.abs(h - total).max() < 1e-12


class TestBuildAccelerant:
    def test_free_data_vanishes_exactly(self):
        spec = GridSpec(64)
        h = build_accelerant(nu0_truncation(2, 8), spec, 8)
        assert np.abs(h.values).max() == 0.0

    def test_single_surviving_term(self):
        spec = GridSpec(128)
        eps = 0.25
        data = with_alpha(nu0_truncation(1, 8), 1, (1 + eps) * np.eye(1))
        h = build_accelerant(data, spec, 8)
        x = spec.points()
        assert np.abs(h.values[:, 0, 0] - 2 * eps * np.cos(2 * np.pi * x)).max() < 1e-14

    def test_requires_zero_entry(self):
        # a reduced dataset is completed with the unit mass at zero
        data = SpectralData(1, np.array([np.pi, 2.1 * np.pi]),
                            np.array([[[1.0]], [[0.9]]], dtype=complex),
                            includes_zero=False)
        got = build_accelerant(data, GridSpec(16), 2)
        want = build_accelerant(prepend_unit_mass(data), GridSpec(16), 2)
        assert np.array_equal(got.values, want.values)

    def test_hermitian_output(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        data = with_alpha(nu0_truncation(2, 6), 3,
                          np.eye(2) + 0.05 * (b + b.conj().T))
        h = build_accelerant(data, GridSpec(64), 6)
        assert h.hermitian
        sym = np.conj(np.swapaxes(h.values, -1, -2))
        assert np.abs(h.values - sym).max() < 1e-12

    def test_tail_proxy_decreases_for_real_data(self):
        from kreinsl.direct import spectral_data

        spec = GridSpec(128)
        tau = MatrixGrid(1, spec, np.full((129, 1, 1), 0.5), hermitian=True)
        data = spectral_data(tau, 32)
        p16 = tail_proxy(data, spec, 16)
        p32 = tail_proxy(data, spec, 32)
        assert p32 < p16


class TestBuildHeo:
    def test_zero_kernel(self):
        spec = GridSpec(16)
        h = MatrixGrid(1, spec, np.zeros((17, 1, 1)), hermitian=True)
        he, ho = build_heo(h)
        assert np.abs(he.values).max() == 0.0
        assert np.abs(ho.values).max() == 0.0

    def test_product_to_sum_rank_one(self):
        # H = 2 eps cos(2 pi s) gives separable kernels up to the midpoint
        # interpolation error O((2 pi h)^2 / 8)
        spec = GridSpec(128)
        eps = 0.25
        x = spec.points()
        h = MatrixGrid(1, spec, (2 * eps * np.cos(2 * np.pi * x))[:, None, None],
                       hermitian=True)
        he, ho = build_heo(h)
        te = 2 * eps * np.outer(np.cos(np.pi * x), np.cos(np.pi * x))
        to = 2 * eps * np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
        tol = 2 * eps * (2 * np.pi / 128) ** 2 / 8.0 * 1.5
        assert np.abs(he.values[:, :, 0, 0] - te).max() < tol
        assert np.abs(ho.values[:, :, 0, 0] - to).max() < tol

    def test_even_kernel_symmetry(self):
        rng = np.random.default_rng(9)
        spec = GridSpec(32)
        b = rng.normal(size=(33, 2, 2)) + 1j * rng.normal(size=(33, 2, 2))
        vals = (b + np.conj(np.swapaxes(b, -1, -2))) / 2.0
        h = MatrixGrid(2, spec, vals, hermitian=True)
        he, _ = build_heo(h)
        swapped = np.conj(np.swapaxes(he.values.transpose(1, 0, 2, 3), -1, -2))
        assert np.abs(he.values - swapped).max() < 1e-12


def test_discrete_completeness_identity():
    """I + Nystrom(He) equals the weighted cosine-frame sum of the data plus
    the reference tail projector, exactly for exact kernel samples."""
    spec = GridSpec(64)
    n_bins = 6
    data = with_alpha(nu0_truncation(1, n_bins), 2, 1.3 * np.eye(1))
    lams = data.lambdas.copy()
    lams[4] = 4 * np.pi + 0.2
    data = SpectralData(1, lams, data.alphas, includes_zero=True)

    fine = GridSpec(2 * spec.m)
    h2 = build_accelerant(data, fine, n_bins)
    he2, ho2 = build_heo(h2)
    from kreinsl.core import SquareKernel
    he = SquareKernel(1, spec, he2.values[::2, ::2])
    ho = SquareKernel(1, spec, ho2.values[::2, ::2])

    n = spec.m + 1
    sw = np.sqrt(trapezoid_weights(spec))
    x = spec.points()

    # even side: frame sum of sqrt(2) cos(lambda_j x) columns (the lambda = 0
    # column is the constant sqrt(2)), completed by the reference tail
    # projector I - sum_{k <= N} (cosine projector k)
    lhs_e = np.eye(n) + sym_nystrom_square(he)
    rhs_e = np.eye(n, dtype=complex)
    rhs_e -= np.outer(sw, sw)  # k = 0 reference projector has kernel 1
    for k in range(1, n_bins + 1):
        u = np.sqrt(2.0) * np.cos(np.pi * k * x) * sw
        rhs_e -= np.outer(u, u)
    for lam, alpha in zip(data.lambdas, data.alphas):
        v = np.sqrt(2.0) * np.cos(lam * x) * sw
        rhs_e += alpha[0, 0] * np.outer(v, v)
    assert np.abs(lhs_e - rhs_e).max() < 1e-12

    lhs_o = np.eye(n) + sym_nystrom_square(ho)
    rhs_o = np.eye(n, dtype=complex)
    for k in range(1, n_bins + 1):
        u = np.sqrt(2.0) * np.sin(np.pi * k * x) * sw
        rhs_o -= np.outer(u, u)
    for lam, alpha in zip(data.lambdas[1:], data.alphas[1:]):
        v = np.sqrt(2.0) * np.sin(lam * x) * sw
        rhs_o += alpha[0, 0] * np.outer(v, v)
    assert np.abs(lhs_o - rhs_o).max() < 1e-12


def test_tail_stability_doubling():
    # for data satisfying the summability condition the accelerant stabilizes
    lams = [0.0] + [np.pi * n + 0.5 / n for n in range(1, 33)]
    data = SpectralData(1, np.array(lams),
                        np.tile(np.eye(1), (33, 1, 1)).astype(complex),
                        includes_zero=True)
    spec = GridSpec(128)
    w = trapezoid_weights(spec)

    def l2(a, b):
        d = np.linalg.norm(a.values - b.values, ord=2, axis=(-2, -1)) ** 2
        return float(np.sqrt(d @ w))

    h8, h16, h32 = (build_accelerant(data, spec, n) for n in (8, 16, 32))
    assert l2(h16, h32) < l2(h8, h16)
