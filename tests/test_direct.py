import re

import numpy as np
import pytest

from kreinsl.core import (
    ConfigurationError,
    ConsistencyError,
    ExtractionError,
    GridSpec,
    MatrixGrid,
    PoleProximityError,
    bin_index,
    matrix_rank_psd,
    resample_matrix_grid,
)
from kreinsl.direct import (
    _SPLIT_FLOOR,
    _factors,
    _keldysh_residues,
    _lift_plan,
    _propagate_many,
    _sweep,
    count_eigenvalues,
    find_eigenvalues,
    norming_constants,
    propagate,
    spectral_data,
    spectral_prefix,
    weyl_m,
)

from oracles import (
    cf4_fundamental_matrix,
    constant_tau_lambdas,
    constant_tau_phi1,
    contour_norming_constants,
    fd_eigen_r1_refined,
    fresh_scalar_coefficients,
    per_column_eigen_sweep,
    per_entry_residues,
    roots_by_bisection,
    stacked_half_pairs,
)


def diag_tau(c, m):
    vals = np.tile(np.diag(c).astype(complex), (m + 1, 1, 1))
    return MatrixGrid(len(c), GridSpec(m), vals, hermitian=True)


def zero_tau(r, m):
    return MatrixGrid(r, GridSpec(m), np.zeros((m + 1, r, r)), hermitian=True)


def const_tau(c, m):
    return MatrixGrid(1, GridSpec(m), np.full((m + 1, 1, 1), c), hermitian=True)


def smooth_tau(r, m, seed=11, scale=0.3, order=3):
    from kreinsl.synthetic import fourier_tau
    return fourier_tau(r, order, scale, seed, GridSpec(m))


def near_identity_tau(a, m=256):
    # two identical channels 0.5 I, weakly coupled by a seeded potential
    vals = 0.5 * np.eye(2) + a * smooth_tau(2, m, seed=91, scale=1.0).values
    return MatrixGrid(2, GridSpec(m), vals, hermitian=True)


class TestPropagate:
    def test_free_case_trig(self):
        bv = propagate(zero_tau(1, 256), np.pi / 2)
        assert abs(bv.phi_tau[0, 0] - 1.0) < 1e-10
        assert abs(bv.psi_tau[0, 0]) < 1e-10

    def test_lambda_zero_phi_vanishes(self):
        bv = propagate(zero_tau(2, 64), 0.0)
        assert np.linalg.norm(bv.phi_tau, 2) <= 1e-12
        assert np.linalg.norm(bv.psi_tau - np.eye(2), 2) <= 1e-12

    def test_constant_tau_closed_form(self):
        c, lam = 0.5, 4.0
        bv = propagate(const_tau(c, 512), lam)
        assert abs(bv.phi_tau[0, 0] - constant_tau_phi1(c, lam)) < 1e-8

    def test_identity_residual_machine_level(self):
        # the two-exponential steps satisfy the adjoint-inverse pairing
        # exactly (the adjoint system's generators are exact negatives), so
        # the identity residual sits at roundoff, far inside any C h^2 bound
        for m in (64, 128):
            tau = smooth_tau(2, m)
            worst = max(propagate(tau, lam).identity_residual
                        for lam in (0.7, 3.2, 11.0, 19.5))
            assert worst < 1e-12

    def test_batch_matches_scalar_calls(self):
        tau = smooth_tau(2, 64)
        lams = np.array([0.7, 3.2, 11.0, 19.5])
        batch = propagate(tau, lams)
        assert len(batch) == lams.size
        for lam, bv in zip(lams, batch):
            one = propagate(tau, lam)
            assert bv.lam == one.lam == lam
            for name in ("phi_tau", "psi_tau", "phi_mtau", "psi_mtau"):
                assert np.abs(getattr(bv, name) - getattr(one, name)).max() <= 1e-13
            assert abs(bv.identity_residual - one.identity_residual) <= 1e-14

    def test_identity_residual_complex_lambda_non_hermitian(self):
        rng = np.random.default_rng(5)
        m = 64
        vals = 0.2 * (rng.normal(size=(m + 1, 2, 2))
                      + 1j * rng.normal(size=(m + 1, 2, 2)))
        tau = MatrixGrid(2, GridSpec(m), vals)
        bv = propagate(tau, 2.0 + 1.5j)
        assert bv.identity_residual < 1e-8


# real points, a residue contour around 3.2 and two points near the top
# of a 32-bin run
ORACLE_LAMBDAS = np.concatenate([
    [0.0, 0.7, 3.2, 11.0],
    3.2 + 0.4 * np.exp(2j * np.pi * np.arange(8) / 8),
    [99.5, 101.3],
])


def _oracle_gap(tau, lams):
    want = cf4_fundamental_matrix(tau.values, lams)
    got = _propagate_many(tau, lams)
    err = np.linalg.norm(got - want, 2, axis=(-2, -1))
    return float(np.max(err / np.linalg.norm(want, 2, axis=(-2, -1))))


class TestPropagatorOracle:
    """The fused propagator against scipy's expm chained through the same
    CF4 scheme on scipy's spline reading of the samples."""

    def test_zero_tau(self):
        assert _oracle_gap(zero_tau(2, 64), ORACLE_LAMBDAS) <= 1e-12

    def test_real_scalar(self):
        tau = smooth_tau(1, 64)
        assert not np.any(tau.values.imag)
        assert _oracle_gap(tau, ORACLE_LAMBDAS) <= 1e-12

    def test_real_symmetric_r2(self):
        m = 64
        tau = MatrixGrid(2, GridSpec(m), smooth_tau(2, m).values.real,
                         hermitian=True)
        assert _oracle_gap(tau, ORACLE_LAMBDAS) <= 1e-12

    def test_complex_hermitian_r3(self):
        tau = smooth_tau(3, 64)
        assert np.any(tau.values.imag)
        assert _oracle_gap(tau, ORACLE_LAMBDAS) <= 1e-12

    def test_non_hermitian_r2_complex_lambda(self):
        rng = np.random.default_rng(5)
        m = 64
        vals = 0.2 * (rng.normal(size=(m + 1, 2, 2))
                      + 1j * rng.normal(size=(m + 1, 2, 2)))
        tau = MatrixGrid(2, GridSpec(m), vals)
        assert _oracle_gap(tau, [2.0 + 1.5j]) <= 1e-12

    @staticmethod
    def _check_scalar_chain(tau, plan, run, monkeypatch):
        # a lifted sweep with dW/dlambda whose product-chain runs are all
        # `run` sub-steps long; W(1) against the oracle, dW/dlambda against
        # a central difference of it, step 1e-5: its truncation error is
        # about 1e-10 here, roundoff well below
        from kreinsl import chain

        fac = _factors(tau)
        assert _lift_plan(fac) == plan
        runs, chain_runs = [], chain._runs

        def spy(x, dx):
            runs.append(x.shape[1])
            return chain_runs(x, dx)

        monkeypatch.setattr(chain, "_runs", spy)
        lams = np.array([0.0, 0.7, 3.2, 11.0, 40.3, 99.5])
        w, dw, _ = _sweep(fac, lams, 2, deriv=True, lift=True)
        assert set(runs) == {run}

        def norm(a):
            return np.linalg.norm(a, 2, axis=(-2, -1))

        want = cf4_fundamental_matrix(fac.tau.values, lams)
        assert np.max(norm(w - want) / norm(want)) <= 1e-12
        step = 1e-5
        fd = (cf4_fundamental_matrix(fac.tau.values, lams + step)
              - cf4_fundamental_matrix(fac.tau.values, lams - step))[:, :, :1]
        fd /= 2.0 * step
        assert np.max(norm(dw - fd) / norm(fd)) <= 1e-8

    def test_scalar_products_lifted_with_derivative(self, monkeypatch):
        # a strong scalar potential lifts every 14 factors, so every run
        # is 8 long, the largest power of two within the lift stride, and
        # psi is lifted after each
        self._check_scalar_chain(smooth_tau(1, 128, seed=91, scale=8.0),
                                 (1, 14), 8, monkeypatch)

    def test_scalar_sub_steps_lifted_with_derivative(self, monkeypatch):
        # 2 |d| = 25 / 8 > 2.5: every factor runs as two sub-steps, each
        # its own run and lifted after it
        self._check_scalar_chain(const_tau(25.0, 8), (2, 1), 1, monkeypatch)

    def test_scalar_padded_tail(self, monkeypatch):
        # runs of 32 within the stride of 33; the 200 factors leave a last
        # run of 8, padded with 24 identity leaves
        tau = smooth_tau(1, 100, seed=0, scale=3.0)
        assert 2 * tau.spec.m % 32 == 8
        self._check_scalar_chain(tau, (1, 33), 32, monkeypatch)


def test_propagation_memory_bounded_in_m():
    # only an (L, 2r, 2r)-sized accumulator and one byte-capped block of
    # factor coefficients (r = 2) or leaves (r = 1) are live; an
    # (m, L, 2r, 2r) array of step matrices would be 1 GB here at m = 256.
    # At r = 1 the per-factor loop that the product chain replaced peaked
    # at 1.29 MB (m = 256) and 1.33 MB (m = 1024).
    import tracemalloc

    lams = np.linspace(0.1, 100.0, 2000)
    for r, bound in ((2, 4 * 2 ** 20), (1, 1.25 * 2 ** 20)):
        peaks = {}
        for m in (256, 1024):
            tau = smooth_tau(r, m)
            tracemalloc.start()
            try:
                _propagate_many(tau, lams)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[256] < 32 * 2 ** 20
        assert peaks[256] < bound
        assert peaks[1024] < bound
        assert peaks[1024] <= 1.5 * peaks[256]


@pytest.mark.parametrize("tau", [
    smooth_tau(1, 128),
    # two sub-steps per factor, each its own run and lifted after it
    const_tau(25.0, 8),
], ids=["chain", "chain-sub-steps"])
def test_scalar_sweep_is_free_of_its_batch(tau):
    # a lambda's W(1), dW/dlambda and lifted arg det U are the same bytes
    # alone, in a batch of 1000 and in that batch reversed: coefficients
    # are scaled per lambda, and product runs and lifts end at sub-step
    # indices that tau alone fixes
    fac = _factors(tau)
    lams = np.linspace(0.05, 200.0, 1000)
    batch = _sweep(fac, lams, 1, deriv=True, lift=True)
    back = _sweep(fac, lams[::-1], 1, deriv=True, lift=True)
    for got, rev in zip(batch, back):
        assert got.tobytes() == rev[::-1].tobytes()
    for j, lam in enumerate(lams):
        for got, one in zip(batch, _sweep(fac, [lam], 1, deriv=True, lift=True)):
            assert got[j].tobytes() == one[0].tobytes()


class TestWeyl:
    def test_free_cotangent(self):
        m = weyl_m(zero_tau(1, 256), np.pi / 4)
        assert abs(m[0, 0] + 1.0 / np.tan(np.pi / 4)) < 1e-9

    def test_pole_raises(self):
        with pytest.raises(PoleProximityError):
            weyl_m(zero_tau(1, 256), np.pi)

    def test_herglotz_psd_upper_half_plane(self):
        tau = smooth_tau(2, 128)
        for lam in (2.0 + 1.0j, 1.0 + 1.0j, 5.5 + 2.0j):
            mv = weyl_m(tau, lam)
            im = (mv - mv.conj().T) / 2j
            assert np.linalg.eigvalsh((im + im.conj().T) / 2).min() > -1e-8

    def test_herglotz_partial_sums_improve(self):
        # the pole expansion of the Weyl function converges at lam = 1 + i
        tau = const_tau(0.5, 256)
        data = spectral_data(tau, 24)
        lam = 1.0 + 1.0j
        mv = weyl_m(tau, lam)
        errs = []
        for cut in (6, 12, 24):
            keep = data.lambdas <= np.pi * (cut + 0.5)
            s = 2.0 * lam * np.sum(
                data.alphas[keep]
                / (data.lambdas[keep, None, None] ** 2 - lam ** 2), axis=0)
            errs.append(np.linalg.norm(mv - s, 2))
        assert errs[0] > errs[1] > errs[2]


class TestFindEigenvalues:
    @pytest.mark.parametrize("lambda_max", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_max_positive_and_finite(self, lambda_max):
        with pytest.raises(ConfigurationError, match="lambda_max"):
            find_eigenvalues(zero_tau(1, 64), lambda_max)

    def test_free_case(self):
        pairs = find_eigenvalues(zero_tau(1, 256), 10.0)
        lams = [lam for lam, _ in pairs]
        assert np.allclose(lams, [0.0, np.pi, 2 * np.pi, 3 * np.pi], atol=1e-9)
        for _, basis in pairs:
            assert basis.shape == (1, 1)

    def test_free_case_r2_full_kernels(self):
        pairs = find_eigenvalues(zero_tau(2, 128), 7.0)
        for lam, basis in pairs:
            assert basis.shape == (2, 2)

    def test_constant_tau_closed_form(self):
        pairs = find_eigenvalues(const_tau(0.5, 512), 10.0)
        exact = constant_tau_lambdas(0.5, 4)
        assert np.abs(np.array([l for l, _ in pairs]) - exact).max() < 1e-8

    def test_block_diagonal_union(self):
        # diag(0, 0.5) spectrum = union of the scalar spectra, rank-1 kernels
        m = 256
        vals = np.tile(np.diag([0.0, 0.5]).astype(complex), (m + 1, 1, 1))
        tau = MatrixGrid(2, GridSpec(m), vals, hermitian=True)
        pairs = find_eigenvalues(tau, 7.0)
        lams = np.array([l for l, _ in pairs])
        expected = np.sort(np.concatenate([
            [0.0], [np.pi, 2 * np.pi],
            np.sqrt(np.pi ** 2 * np.array([1.0, 4.0]) + 0.25)]))
        assert np.abs(lams - expected).max() < 1e-7
        for lam, basis in pairs[1:]:
            assert basis.shape == (2, 1)


class TestRootSearch:
    """The predicted-split root search against plain bisection on the
    count, and the number of propagations a direct solve takes."""

    @pytest.mark.parametrize("tau, lambda_max", [
        (smooth_tau(2, 256, seed=91), np.pi * 32.5),
        (smooth_tau(4, 128, seed=7), np.pi * 8.5),
        (diag_tau([0.0, 0.5], 256), np.pi * 8.5),
        (diag_tau([0.5, 0.5, 1.0], 128), np.pi * 8.5),
    ], ids=["direct-r2", "r4", "diag-0-.5", "diag-.5-.5-1"])
    def test_matches_bisection_oracle(self, tau, lambda_max):
        pairs = find_eigenvalues(tau, lambda_max)
        want, mult = roots_by_bisection(tau, lambda_max)
        got = np.array([lam for lam, _ in pairs[1:]])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-11
        assert [basis.shape[1] for _, basis in pairs[1:]] == mult.tolist()

    @staticmethod
    def _sweeps(monkeypatch, tau, n_bins):
        import kreinsl.direct as direct

        calls = []
        sweep = direct._sweep

        def counted(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(direct, "_sweep", counted)
        report = {}
        data = spectral_data(tau, n_bins, report)
        return len(calls), data, report

    def test_propagations_on_seeded_potential(self, monkeypatch):
        # the direct-r2 benchmark input at seed 91: edge count, two split
        # rounds, Newton and the residues; a 0.05 count grid with
        # bisection and midpoint Newton took 15
        sweeps, data, _ = self._sweeps(monkeypatch, smooth_tau(2, 256, seed=91),
                                       32)
        assert sweeps <= 10
        assert len(data) == 65

    @pytest.mark.parametrize("c", [
        (0.0, 0.0), (0.7, 0.7), (0.5, 0.5, 1.0),
    ], ids=["zero", "0.7 I", "diag(.5, .5, 1)"])
    def test_propagations_with_multiple_roots(self, monkeypatch, c):
        # exact double roots: nearest the bin centre for tau = 0, off it for
        # 0.7 I; bisection to the 1e-9 floor took 31, 31 and 33
        n_bins = 32
        sweeps, data, report = self._sweeps(monkeypatch, diag_tau(list(c), 256),
                                            n_bins)
        assert sweeps <= 12
        n = np.arange(1, n_bins + 1)
        exact = {}
        for ck in c:
            for lam in np.sqrt(np.pi ** 2 * n ** 2 + ck ** 2):
                exact[lam] = exact.get(lam, 0) + 1
        lams = np.array(sorted(exact))
        got = data.lambdas[1:]
        assert got.shape == lams.shape
        assert np.abs(got - lams).max() <= 1e-10
        assert report["alpha_rank"][1:].tolist() \
            == [exact[lam] for lam in lams]
        assert report["kernel_dim"][1:] == [exact[lam] for lam in lams]

    @pytest.mark.parametrize("tau, n_bins", [
        (diag_tau([0.5, 0.5 + 1e-6], 256), 32),
        (smooth_tau(3, 256, seed=4, scale=3.0, order=4), 12),
    ], ids=["diag(.5, .5+1e-6)", "fourier(3, 4, 3.0, 4)"])
    def test_propagations_on_hard_inputs(self, monkeypatch, tau, n_bins):
        # a near-double pair per bin, and a large potential whose brackets
        # the edge count isolates; a search that split first and ran Newton
        # after it failed on the first and took 12 on the second
        sweeps, _, report = self._sweeps(monkeypatch, tau, n_bins)
        assert sweeps <= 12
        assert sum(report["kernel_dim"][1:]) == n_bins * tau.r


def test_direct_solve_leaves_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma, about 1.3 MB of resident
    # memory in every process that runs a direct solve; the root search
    # (bracket splits, cluster Newton steps) does without it.  Hermitian
    # r = 2 solves also leave the product chain (chain.py) unimported, so
    # they do not compile it.  Checked in a fresh interpreter, since other
    # tests import both.
    import os
    import subprocess
    import sys

    import kreinsl

    code = (
        "import sys\n"
        "import numpy as np\n"
        "from kreinsl.core import GridSpec, MatrixGrid\n"
        "from kreinsl.direct import spectral_data\n"
        "from kreinsl.synthetic import fourier_tau\n"
        "spectral_data(fourier_tau(2, 3, 0.3, 91, GridSpec(64)), 8)\n"
        "vals = np.tile(0.7 * np.eye(2), (65, 1, 1))\n"
        "spectral_data(MatrixGrid(2, GridSpec(64), vals, hermitian=True), 8)\n"
        "print('numpy.ma' in sys.modules, 'kreinsl.chain' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(kreinsl.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert done.stdout.strip() == "False False"


def _bin_traces(data, n_bins):
    out = np.zeros(n_bins + 1)
    for lam, alpha in zip(data.lambdas[1:], data.alphas[1:]):
        out[bin_index(lam)] += np.trace(alpha).real
    return out[1:]


NEAR_DOUBLE = [
    pytest.param(diag_tau([0.5, 0.5 + eps], 256), n_bins, eps,
                 id=f"diag(.5, .5+{eps:g})-{n_bins}")
    for eps in (1e-5, 3e-6, 1e-6, 1e-7) for n_bins in (8, 16, 32)
] + [
    pytest.param(near_identity_tau(a), 32, None, id=f"0.5 I + {a:g} tau-32")
    for a in (1e-5, 1e-6, 1e-7)
]


@pytest.mark.parametrize("tau, n_bins, eps", NEAR_DOUBLE)
def test_near_double_roots(tau, n_bins, eps):
    # pairs from about 2e-6 down to 5e-10 apart, on both sides of the 1e-9
    # split floor: each is resolved or, below the floor, one entry of
    # multiplicity 2 whose kernel dimension the count alone decides
    report = {}
    data = spectral_data(tau, n_bins, report)
    dims = report["kernel_dim"][1:]
    assert sum(dims) == n_bins * tau.r
    assert matrix_rank_psd(data.alphas[1:]).tolist() == dims
    want, _ = roots_by_bisection(tau, np.pi * (n_bins + 0.5))
    gap = np.abs(data.lambdas[1:, None] - want[None, :]).min(axis=1)
    assert np.all(gap <= _SPLIT_FLOOR * np.maximum(1.0, data.lambdas[1:]))
    if eps is not None:
        scalar = sum(_bin_traces(spectral_data(const_tau(c, 256), n_bins),
                                 n_bins) for c in (0.5, 0.5 + eps))
        assert np.abs(_bin_traces(data, n_bins) - scalar).max() <= 1e-9


class TestCount:
    """N(lambda) by the lifted arg det U against the closed form for a
    constant diag(c1, c2): 0 counted twice, and sqrt(pi^2 n^2 + c^2) per
    channel.  The CF4 scheme is exact for constant tau, so the count must
    be too."""

    @staticmethod
    def _closed_form(c, lams):
        n = np.arange(1, 200)
        roots = np.concatenate([np.sqrt(np.pi ** 2 * n ** 2 + ck ** 2) for ck in c])
        return len(c) + (roots[None, :] < lams[:, None]).sum(axis=1)

    @pytest.mark.parametrize("c, m, lam_max, plan", [
        # per cell 2 r h lam_max = 4.0 > pi, yet the rotation is taken out:
        # one lift per 80 factors
        ((0.7, -1.3), 64, 20.5 * np.pi, (1, 80)),
        # 2 (|d_1| + |d_2|) = 55 / 16 > 2.5: tau alone forces two sub-steps
        ((25.0, -30.0), 16, 20.5 * np.pi, (2, 1)),
        # scalar, so through the product chain's sub-steps, each its
        # own run: 2 |d| = 25 / 8 > 2.5
        ((25.0,), 8, 20.5 * np.pi, (2, 1)),
    ], ids=["diag(.7,-1.3)-m64", "diag(25,-30)-m16", "25-m8"])
    def test_constant_diag_closed_form(self, c, m, lam_max, plan):
        tau = diag_tau(c, m)
        roots = np.concatenate([
            np.sqrt(np.pi ** 2 * np.arange(1, 30) ** 2 + ck ** 2) for ck in c])
        # a grid plus points 1e-9 to either side of every root; N is only
        # ambiguous within roundoff of a root
        lams = np.sort(np.concatenate([np.linspace(0.05, lam_max, 1601),
                                       roots - 1e-9, roots + 1e-9]))
        lams = lams[lams <= lam_max]
        want = self._closed_form(c, lams)
        assert _lift_plan(_factors(tau)) == plan
        assert 2 * 2 * tau.spec.h * lam_max > np.pi
        np.testing.assert_array_equal(count_eigenvalues(tau, lams), want)

    def test_lift_schedule_is_free_of_lambda(self, monkeypatch):
        # a lifted sweep makes as many determinant evaluations at lambda =
        # 400 as at lambda = 1: only tau sets the lift schedule
        import kreinsl.direct as direct

        fac = _factors(smooth_tau(2, 256))
        det_phase = direct._det_phase
        calls = []

        def counted(frame):
            calls.append(1)
            return det_phase(frame)

        monkeypatch.setattr(direct, "_det_phase", counted)
        per_lam = []
        for lam in (1.0, 400.0):
            calls.clear()
            direct._sweep(fac, [lam], 2, lift=True)
            per_lam.append(len(calls))
        assert per_lam[0] == per_lam[1]

    def test_strong_scalar_matches_loop(self):
        # fourier_tau(1, 3, 8.0, 91) lifts every 14 factors; its edge
        # counts and roots as the per-factor loop gave them
        tau = smooth_tau(1, 128, seed=91, scale=8.0)
        report = {}
        data = spectral_data(tau, 24, report)
        assert report["edge_counts"] == [1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         13, 14, 15, 16, 17, 18, 19, 20, 21,
                                         22, 23, 24, 25]
        assert report["kernel_dim"] == [1] * 25
        loop = np.array([
            0.0, 3.7126956447010633, 7.778084278788017, 12.170708659414066,
            15.29678559767109, 18.508932357337553, 21.594602631269215,
            24.536838123924447, 27.406118668206837, 30.265363018656547,
            33.17136741946248, 36.12951169913687, 39.12650827080474,
            42.15047357432296, 45.193616842105946, 48.251106709117785,
            51.319805409437635, 54.39752798656065, 57.48265862855571,
            60.57395887076687, 63.67045726564067, 66.77137886095304,
            69.87609708725773, 72.98409948386713, 76.09496262306911])
        assert np.all(np.abs(data.lambdas - loop)
                      <= 1e-13 * np.maximum(1.0, loop))

    @pytest.mark.parametrize("tau", [
        smooth_tau(1, 256, seed=467),
        # the roundtrip's 2m grid, where a batch-wide scaling once moved
        # alpha by 6.7e-16
        resample_matrix_grid(smooth_tau(1, 128, seed=467), GridSpec(256)),
    ], ids=["m256", "resampled-m256"])
    def test_prefix_of_longer_solve_is_bit_identical_r1(self, tau):
        short, long = spectral_data(tau, 16), spectral_data(tau, 32)
        k = short.lambdas.size
        assert short.lambdas.tobytes() == long.lambdas[:k].tobytes()
        assert short.alphas.tobytes() == long.alphas[:k].tobytes()

    def test_counts_bins_of_a_seeded_potential(self):
        # every bin of the direct-r2 benchmark input at seed 91 holds two
        # eigenvalues
        tau = smooth_tau(2, 256, seed=91)
        edges = np.pi * (np.arange(33) + 0.5)
        np.testing.assert_array_equal(count_eigenvalues(tau, edges),
                                      2 + 2 * np.arange(33))


class TestKeldyshResidues:
    """alpha from Keldysh's theorem against the 64-point residue contours
    (tests/oracles.py) on the scipy expm propagator."""

    @pytest.mark.parametrize("tau, n_bins", [
        (zero_tau(2, 32), 4),
        (const_tau(0.5, 64), 5),
        (smooth_tau(2, 64), 5),
    ], ids=["zero", "constant", "fourier"])
    def test_matches_contour_oracle(self, tau, n_bins):
        pairs = find_eigenvalues(tau, np.pi * (n_bins + 0.5))
        lams = [lam for lam, _ in pairs]
        got = _keldysh_residues(tau, pairs)
        want = contour_norming_constants(tau.values, lams)
        assert max(np.linalg.norm(a - b, 2) for a, b in zip(got, want)) <= 1e-9


class TestNormingConstants:
    def test_free_case(self):
        tau = zero_tau(2, 256)
        pairs = find_eigenvalues(tau, 10.0)
        al = norming_constants(tau, pairs)
        assert np.linalg.norm(al[0] - np.eye(2) / 2, 2) < 1e-9
        for a in al[1:]:
            assert np.linalg.norm(a - np.eye(2), 2) < 1e-9

    def test_constant_tau_vs_fd_oracle(self):
        tau = const_tau(0.5, 512)
        pairs = find_eigenvalues(tau, 2 * np.pi)
        al = norming_constants(tau, pairs)
        lam_o, al_o = fd_eigen_r1_refined(lambda x: np.full_like(x, 0.5), 3,
                                          grids=(512, 1024, 2048))
        assert abs(al[1][0, 0].real - al_o[1]) < 1e-6

    def test_hermitian_before_symmetrization(self):
        tau = smooth_tau(2, 128)
        pairs = find_eigenvalues(tau, 8.0)
        raw = _keldysh_residues(tau, pairs)
        for a in raw:
            assert np.linalg.norm(a - a.conj().T, 2) <= 1e-8


class TestStackedResidues:
    """norming_constants' stacked residue math (one call per kernel
    dimension k) against the per-entry form (tests/oracles.py) on the
    same sweep: the stacked calls run the same per-matrix LAPACK and
    matmul loops, so the results are the same bytes."""

    @pytest.mark.parametrize("tau, n_bins, double", [
        (smooth_tau(1, 128), 8, False),
        (smooth_tau(2, 128), 8, False),
        (smooth_tau(3, 128), 8, False),
        (diag_tau([0.4, 0.4], 128), 6, True),
    ], ids=["fourier-r1", "fourier-r2", "fourier-r3", "cI-r2"])
    @pytest.mark.parametrize("hermitize", [False, True])
    def test_matches_per_entry(self, tau, n_bins, double, hermitize):
        pairs = find_eigenvalues(tau, np.pi * (n_bins + 0.5))
        lams = [lam for lam, _ in pairs]
        dims = [basis.shape[1] for _, basis in pairs]
        assert (dims == [2] * len(dims)) == double  # c I: every k = 2
        w, dw, _ = _sweep(_factors(tau), lams, 2 * tau.r, deriv=True)
        got = (norming_constants if hermitize else _keldysh_residues)(tau, pairs)
        want = per_entry_residues(lams, dims, w, dw, hermitize)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()

    def test_same_extraction_error(self):
        # points that are not roots give indefinite "residues"; the first
        # of several below the floor is named, not the lowest, with the
        # same text
        tau = smooth_tau(2, 64)
        lams = [0.0, 1.0, 1.5, 2.5, 4.5]
        pairs = [(0.0, np.eye(2))] + [(lam, np.eye(2)[:, :1])
                                      for lam in lams[1:]]
        w, dw, _ = _sweep(_factors(tau), lams, 4, deriv=True)
        raw = per_entry_residues(lams, [2, 1, 1, 1, 1], w, dw, False)
        mins = [np.linalg.eigvalsh((a + a.conj().T) / 2).min() for a in raw]
        low = [m < -1e-6 for m in mins]
        assert sum(low) >= 2 and low.index(True) != int(np.argmin(mins))
        with pytest.raises(ExtractionError) as want:
            per_entry_residues(lams, [2, 1, 1, 1, 1], w, dw)
        with pytest.raises(ExtractionError) as got:
            norming_constants(tau, pairs)
        assert str(got.value) == str(want.value)
        assert f"lambda = {lams[low.index(True)]:.9g} " in str(got.value)


class TestCoefficientBytes:
    """The in-place coefficients are the bytes of the fresh-temporary
    form (tests/oracles.py) with both packs, on |z| = |d^2 - v^2| from
    below 1/4 to about 1e3, where double-angle steps run."""

    @pytest.mark.parametrize("complex_lam", [False, True])
    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("pack", ["factor", "half_pairs"])
    def test_both_packs(self, pack, deriv, complex_lam):
        from kreinsl.chain import _factor
        from kreinsl.coefficients import _scalar_coefficients
        from kreinsl.direct import _half_pairs

        rng = np.random.default_rng(7)
        d = np.concatenate([[0.0, 1e-3, -0.2, 0.1],
                            rng.uniform(-31.0, 31.0, 20)])
        v = np.geomspace(1e-3, 31.0, 13)
        v = np.concatenate([[0.0, 0.05], v, -v])
        if complex_lam:
            v = v + 1j * rng.uniform(-2.0, 2.0, v.size)
        z = np.abs(d[:, None] ** 2 - v ** 2)
        assert z.min() < 0.25 and 5e2 < z.max() < 2e3
        if pack == "factor":  # the chain's scalars at r = 1
            d, packs = d[:, None], (_factor, _factor)
        else:  # the loop's (factor, row, 1) eigenvalues at r = 2
            d = d.reshape(-1, 2, 1)
            shape = d.shape + (2, v.size)
            packs = (lambda *csv: _half_pairs(*csv, *np.full(
                (2,) + shape, np.nan, np.result_type(d, v))),
                stacked_half_pairs)
        got = _scalar_coefficients(d, v, 0.5 / 256, deriv, packs[0])
        want = fresh_scalar_coefficients(d, v, 0.5 / 256, deriv, packs[1])
        assert len(got) == len(want) == 1 + deriv
        for g, w in zip(got, want):
            if pack == "half_pairs":
                g, w = np.stack(g)[:, :, :, 0], np.stack(w)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_complex_scalar_d(self):
        # a non-real scalar tau gives complex d, as the chain passes it
        from kreinsl.chain import _factor
        from kreinsl.coefficients import _scalar_coefficients

        rng = np.random.default_rng(3)
        d = (rng.uniform(-20, 20, 17) + 1j * rng.uniform(-5, 5, 17))[:, None]
        v = np.linspace(-9.0, 9.0, 11)
        for deriv in (False, True):
            got = _scalar_coefficients(d, v, 0.01, deriv, _factor)
            want = fresh_scalar_coefficients(d, v, 0.01, deriv, _factor)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


class TestLoopLayout:
    """The (row, column, half, lambda) loop, its one GEMM per basis
    change and the probes in the residue sweep move r >= 2 spectral data
    from the per-column loop's (tests/oracles.py) by roundoff only."""

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_spectral_data_within_roundoff(self, r, seed, monkeypatch):
        import kreinsl.direct as direct

        tau = smooth_tau(r, 128, seed=seed)
        got = spectral_data(tau, 12, {}, probes=[1.0, 2.5, 7.75, 19.7])
        monkeypatch.setattr(direct, "_eigen_sweep", per_column_eigen_sweep)
        want = spectral_data(tau, 12)
        assert got.lambdas.shape == want.lambdas.shape
        assert np.all(np.abs(got.lambdas - want.lambdas)
                      <= 1e-15 * np.maximum(1.0, want.lambdas))
        rel = (np.linalg.norm(got.alphas - want.alphas, 2, axis=(-2, -1))
               / np.linalg.norm(want.alphas, 2, axis=(-2, -1)))
        assert rel.max() <= 1e-11

    def test_sweep_matches_per_column_loop(self, monkeypatch):
        import kreinsl.direct as direct

        fac = _factors(smooth_tau(3, 64, seed=2))
        lams = np.linspace(0.3, 40.0, 37)
        got = _sweep(fac, lams, 3, deriv=True, lift=True)
        monkeypatch.setattr(direct, "_eigen_sweep", per_column_eigen_sweep)
        want = _sweep(fac, lams, 3, deriv=True, lift=True)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("tau", [
    smooth_tau(1, 128), smooth_tau(2, 128), smooth_tau(3, 128),
    zero_tau(2, 64)], ids=["fourier-r1", "fourier-r2", "fourier-r3", "zero"])
def test_inverse_pair_residual_from_residue_sweep(tau):
    # S Q(lam, tau) S = Q(-lam, -tau), S = [[0, I], [I, 0]], so the residue
    # sweep's W(-lam) gives the inverse-pair identity that propagate checks
    # with a propagation of -tau*
    probes = [1.0, 2.5, 7.75, 13.3]
    report = {}
    spectral_data(tau, 4, report, probes=probes)
    folded = report["identity_residuals"]
    direct_ = [bv.identity_residual for bv in propagate(tau, np.array(probes))]
    assert len(folded) == len(probes)
    assert max(folded) <= 1e-12 and max(direct_) <= 1e-12
    assert np.abs(np.array(folded) - direct_).max() <= 1e-13


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from kreinsl.core import GridSpec
from kreinsl.direct import _factors, _sweep, spectral_data
from kreinsl.synthetic import fourier_tau
data = spectral_data(fourier_tau(2, 3, 0.3, 5, GridSpec(128)), 16)
w, dw, arg = _sweep(_factors(fourier_tau(3, 3, 0.3, 6, GridSpec(128))),
                    np.linspace(0.2, 60.0, 300), 3, deriv=True, lift=True)
h = hashlib.sha256()
for a in (data.lambdas, data.alphas, w, dw, arg):
    h.update(np.ascontiguousarray(a).tobytes())
print(h.hexdigest())
"""


def test_same_bytes_at_one_and_two_blas_threads():
    # the basis changes are one wider GEMM per factor; their rounding must
    # not depend on how many threads OpenBLAS splits it over
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestSpectralData:
    def test_free_case_bins(self):
        data = spectral_data(zero_tau(1, 256), 4)
        assert np.allclose(data.lambdas, np.pi * np.arange(5), atol=1e-9)
        assert abs(data.alphas[0, 0, 0] - 0.5) < 1e-9
        assert np.abs(data.alphas[1:, 0, 0] - 1.0).max() < 1e-9
        assert data.includes_zero

    def test_scaled_identity_full_rank(self):
        m = 256
        vals = np.tile(0.3 * np.eye(2).astype(complex), (m + 1, 1, 1))
        tau = MatrixGrid(2, GridSpec(m), vals, hermitian=True)
        data = spectral_data(tau, 3)
        exact = np.sqrt(np.pi ** 2 * np.arange(4) ** 2 + 0.09)
        exact[0] = 0.0
        assert np.abs(data.lambdas - exact).max() < 1e-8
        for a in data.alphas[1:]:
            assert np.linalg.matrix_rank(a, tol=1e-6) == 2

    def test_lambdas_strictly_increasing(self):
        data = spectral_data(smooth_tau(2, 128), 6)
        assert np.all(np.diff(data.lambdas) > 0)

    def test_samples_read_as_cubic_spline(self):
        # the propagator reads samples through the not-a-knot cubic spline,
        # so sampling a smooth potential at m = 128 instead of 512 moves
        # its eigenvalues by ~1e-7; a piecewise-linear reading would move
        # them by 2.1e-4
        from scipy.interpolate import make_interp_spline

        from kreinsl.direct import _A1, _A2, _C1, _C2, _step_generators

        coarse = smooth_tau(2, 128, seed=2026)
        lam_128 = spectral_data(coarse, 8).lambdas
        lam_512 = spectral_data(smooth_tau(2, 512, seed=2026), 8).lambdas
        assert np.abs(lam_128 - lam_512).max() <= 1e-6

        h = coarse.spec.h
        knots = np.arange(129.0)
        spline = make_interp_spline(knots, coarse.values, k=3, axis=0)
        tg1, tg2 = spline(knots[:-1] + _C1), spline(knots[:-1] + _C2)
        want = h * np.stack([_A1 * tg1 + _A2 * tg2, _A2 * tg1 + _A1 * tg2])
        hu = _step_generators(coarse.values, h)
        assert np.abs(hu - want).max() <= 1e-13 * h

    def test_matches_step_matrix_propagator(self):
        # eigenvalues and norming constants of a scalar potential at m = 256,
        # 32 bins, as the propagator that built per-cell step matrices
        # produced them; the fused loop reorders roundoff only
        lam_ref = np.array([
            0.0, 3.1672720792967737, 6.212092134615238, 9.376629241623217,
            12.568949417780598, 15.709814473113894, 18.851039532066665,
            21.99239197146075, 25.13381382387889, 28.275278352645103,
            31.41677112876156, 34.55828348663482, 37.69981004136771,
            40.841347280926726, 43.982892776999634, 47.12444479280866,
            50.26600205120761, 53.40756359089086, 56.54912867369001,
            59.690696723038386, 62.832267281749175, 65.97383998247227,
            69.11541452659722, 72.25699066882095, 75.39856820561275,
            78.54014696683336, 81.68172680898621, 84.82330761019585,
            87.96488926633276, 91.10647168789987, 94.24805479738242,
            97.38963852754205, 100.53122281959185])
        alpha_ref = np.array([
            0.4751362544779487, 1.1698741262441972, 1.0111060337144744,
            0.9744181146523351, 0.9788379545296996, 0.9898136060327095,
            0.9937141219521946, 0.9956696273491628, 0.9968120292794391,
            0.9975446508270214, 0.9980462291580933, 0.9984060589666998,
            0.998673586152504, 0.9988782226579646, 0.9990384313757348,
            0.9991663111359459, 0.9992700760921244, 0.9993554709427487,
            0.9994266160937352, 0.9994865320087427, 0.9995374753125235,
            0.9995811604043958, 0.9996189092404142, 0.9996517548024672,
            0.9996805139780727, 0.9997058397970434, 0.999728259465602,
            0.9997482024573292, 0.9997660215318429, 0.9997820086500167,
            0.9997964071574531, 0.9998094212058223, 0.999821223106611])
        data = spectral_data(smooth_tau(1, 256, seed=7), 32)
        assert np.abs(data.lambdas - lam_ref).max() <= 1e-9
        assert np.abs(data.alphas[:, 0, 0] - alpha_ref).max() <= 1e-9

    def test_every_close_pair_resolved(self):
        # the direct-r2 benchmark input at seed 91: its closest pair is
        # 4.4e-4 apart, and each of the 64 roots is one entry whose kernel
        # dimension is the rank of its norming constant
        report = {}
        data = spectral_data(smooth_tau(2, 256, seed=91), 32, report)
        assert len(data) == 65
        assert report["kernel_dim"][1:] == [1] * 64
        assert report["alpha_rank"][1:].tolist() == [1] * 64
        assert np.all(np.diff(data.lambdas) > 0)

    def test_block_diagonal_matches_scalar_merge(self):
        m = 256
        vals = np.tile(np.diag([0.0, 0.4]).astype(complex), (m + 1, 1, 1))
        tau2 = MatrixGrid(2, GridSpec(m), vals, hermitian=True)
        d2 = spectral_data(tau2, 2)
        d0 = spectral_data(zero_tau(1, m), 2)
        dc = spectral_data(const_tau(0.4, m), 2)
        merged = np.sort(np.concatenate([d0.lambdas, dc.lambdas[1:]]))
        assert np.abs(np.sort(d2.lambdas) - merged).max() < 1e-7
        # total mass per bin matches the union of the scalar datasets
        for lam, alpha in zip(d2.lambdas[1:], d2.alphas[1:]):
            src = d0 if np.abs(d0.lambdas - lam).min() < 1e-6 else dc
            j = int(np.argmin(np.abs(src.lambdas - lam)))
            assert abs(np.trace(alpha).real - src.alphas[j, 0, 0].real) < 1e-7

    def test_missed_eigenvalue_detected(self):
        # the diag(0, 1.86) pair near pi (pi and sqrt(pi^2 + 1.86^2) = 3.65)
        # shares bin 1, where a scan of the smallest singular value on a
        # step of 0.6 sees one minimum; the count at the bin edges sees both
        # roots, and every entry lands on its closed form
        m = 128
        vals = np.tile(np.diag([0.0, 1.86]).astype(complex), (m + 1, 1, 1))
        tau = MatrixGrid(2, GridSpec(m), vals, hermitian=True)
        data = spectral_data(tau, 2)
        assert len(data) == 5
        exact = np.sort(np.concatenate([
            np.pi * np.arange(3), np.sqrt(np.pi ** 2 * np.arange(1, 3) ** 2
                                          + 1.86 ** 2)]))
        assert np.abs(data.lambdas - exact).max() <= 1e-12

    def test_bookkeeping_error_gives_the_count(self):
        # a large potential whose edge counts end at 12 = N(lambda_max): the
        # count finds 11 roots in bins 1..12 (N minus the r at lambda_0),
        # and the message says so beside the 12 the identity needs
        tau = smooth_tau(1, 128, seed=0, scale=8.0)
        with pytest.raises(ConsistencyError,
                           match="count finds 11 roots .* needs n_bins r = 12"):
            spectral_data(tau, 12)

    def test_prefix_reads_the_solve_ranks(self, monkeypatch):
        # the prefix holds the entries of bins 0..N and checks the rank
        # identity at N on the ranks the solve's report holds
        import kreinsl.direct as direct
        from kreinsl.synthetic import fourier_tau

        report = {}
        full = spectral_data(fourier_tau(2, 3, 0.3, 1, GridSpec(64)), 8, report)
        monkeypatch.setattr(direct, "matrix_rank_psd", None)
        prefix = spectral_prefix(full, report, 4)
        keep = 1 + int(np.sum(bin_index(full.lambdas[1:]) <= 4))
        assert len(prefix) == keep < len(full)
        assert prefix.includes_zero and prefix.r == 2
        assert prefix.lambdas.tobytes() == full.lambdas[:keep].tobytes()
        assert prefix.alphas.tobytes() == full.alphas[:keep].tobytes()
        assert int(np.sum(report["alpha_rank"][1:keep])) == 4 * 2

    def test_prefix_rank_identity_error(self):
        # the 24-bin solve passes its own check; its 12-bin prefix holds 11
        # roots of rank 1, as a 12-bin solve does
        from kreinsl.synthetic import fourier_tau

        report = {}
        full = spectral_data(fourier_tau(1, 3, 8.0, 0, GridSpec(128)), 24, report)
        with pytest.raises(ConsistencyError, match="^" + re.escape(
                "rank bookkeeping failed at truncation 12: the norming "
                "constants have total rank 11 and the eigenvalue count finds "
                "11 roots with multiplicity, where the identity needs "
                "n_bins r = 12") + "$"):
            spectral_prefix(full, report, 12)


def test_a1_diagnostics_flatten_with_bins():
    from kreinsl.validation import check_a1

    tau = const_tau(0.5, 256)
    data = spectral_data(tau, 24)
    rep = check_a1(data, 24)
    assert rep.verdict == "pass"
    # partial sums flatten: last quarter well under a tenth of the total
    assert rep.trend_tilde[-1] - rep.trend_tilde[17] < 0.1 * rep.trend_tilde[-1]
