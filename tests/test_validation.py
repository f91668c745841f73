import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kreinsl.core import (
    GridSpec,
    MatrixGrid,
    NotAnAccelerantError,
    SpectralData,
    save_spectral_data,
    trapezoid_weights,
)
from kreinsl.krein import solve_krein
from kreinsl.validation import (
    EIG_BAND,
    _completeness_factors,
    _factor_spectrum,
    check_a1,
    check_a2,
    check_a3_a4,
    check_all,
    completeness_matrices,
)
from oracles import accelerant_positivity, completeness_via_heo


def nu0_truncation(r, n):
    lams = np.concatenate([[0.0], np.pi * np.arange(1, n + 1)])
    alphas = np.concatenate([
        [0.5 * np.eye(r)], np.tile(np.eye(r), (n, 1, 1))]).astype(complex)
    return SpectralData(r, lams, alphas, includes_zero=True)


def delete_entry(data, j):
    keep = np.ones(len(data), bool)
    keep[j] = False
    return SpectralData(data.r, data.lambdas[keep], data.alphas[keep],
                        includes_zero=data.includes_zero)


def constant_r2_data(n_bins, seed=5):
    """Closed-form data of tau = U diag(c1, c2) U* with a complex unitary U:
    per channel lambda_n = sqrt(pi^2 n^2 + c^2), alpha_n = (pi n / lambda_n)^2
    and alpha_0 = c / (1 - exp(-2c)), each times the channel projector."""
    rng = np.random.default_rng(seed)
    c1 = rng.uniform(0.4, 1.0)
    c = (c1, c1 + rng.uniform(0.2, 0.6))
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, rr = np.linalg.qr(z)
    u = q * (np.diag(rr) / np.abs(np.diag(rr)))
    proj = [np.outer(u[:, k], u[:, k].conj()) for k in range(2)]
    entries = [(0.0, sum(ck / (1.0 - math.exp(-2.0 * ck)) * p
                         for ck, p in zip(c, proj)))]
    for n in range(1, n_bins + 1):
        for ck, p in zip(c, proj):
            lam = math.sqrt(math.pi ** 2 * n ** 2 + ck ** 2)
            entries.append((lam, (math.pi * n / lam) ** 2 * p))
    entries.sort(key=lambda e: e[0])
    return SpectralData(2, np.array([e[0] for e in entries]),
                        np.array([e[1] for e in entries]), includes_zero=True)


def fourier_data():
    from kreinsl.direct import spectral_data
    from kreinsl.synthetic import fourier_tau

    spec = GridSpec(128)
    return spectral_data(fourier_tau(2, 3, 0.25, 7, spec), 12), spec, 12


class TestA1:
    def test_free_truncation_passes(self):
        rep = check_a1(nu0_truncation(1, 16), 16)
        assert rep.verdict == "pass"
        assert rep.tilde_sum == 0.0 and rep.beta_sum == 0.0
        assert rep.max_bin_count == 1

    def test_summable_offsets_pass(self):
        lams = np.concatenate([[0.0], np.pi * np.arange(1, 41) + 1.0 / np.arange(1, 41)])
        data = SpectralData(1, lams, np.tile(np.eye(1), (41, 1, 1)).astype(complex),
                            includes_zero=True)
        rep = check_a1(data, 40)
        assert rep.verdict == "pass"
        # oracle: direct summation of the tail shares
        tilde = 1.0 / np.arange(1, 41.0)
        assert rep.tilde_sum == pytest.approx(float(np.sum(tilde ** 2)), rel=1e-12)

    def test_constant_offsets_fail(self):
        lams = np.concatenate([[0.0], np.pi * np.arange(1, 41) + 0.4])
        data = SpectralData(1, lams, np.tile(np.eye(1), (41, 1, 1)).astype(complex),
                            includes_zero=True)
        assert check_a1(data, 40).verdict == "fail"

    def test_short_data_inconclusive(self):
        rep = check_a1(nu0_truncation(1, 4), 16)
        assert rep.clamped and rep.verdict == "inconclusive"


class TestA2:
    def test_free_truncation(self):
        rep = check_a2(nu0_truncation(1, 8), 8)
        assert rep.n0_found == 1 and rep.verdict == "pass"

    def test_rank_shuffle_between_bins(self):
        # r = 2: drop one rank unit in bin 3, compensate with an extra
        # rank-1 line in bin 4: counts recover from N0 = 4 onward
        data = nu0_truncation(2, 6)
        alphas = list(data.alphas)
        lams = list(data.lambdas)
        alphas[3] = np.diag([2.0, 0.0]).astype(complex)  # rank 1 in bin 3
        lams.append(4 * np.pi + 0.3)
        alphas.append(np.diag([0.0, 1.0]).astype(complex))  # extra rank 1 in bin 4
        order = np.argsort(lams)
        data = SpectralData(2, np.asarray(lams)[order],
                            np.stack(alphas)[order], includes_zero=True)
        rep = check_a2(data, 6)
        assert rep.n0_found == 4

    def test_deleted_entry_fails(self):
        rep = check_a2(delete_entry(nu0_truncation(1, 8), 3), 8)
        assert rep.n0_found is None and rep.verdict == "fail"


class TestCompleteness:
    def test_free_data_identity_matrices(self):
        spec = GridSpec(64)
        me, mo = completeness_matrices(nu0_truncation(1, 8), spec, 8)
        assert np.abs(me - np.eye(65)).max() < 1e-12
        assert np.abs(mo - np.eye(65)).max() < 1e-12

    def test_deleted_line_null_direction(self):
        spec = GridSpec(256)
        data = delete_entry(nu0_truncation(1, 16), 1)
        rep = check_a3_a4(data, spec, 16)
        assert abs(rep.a3_min_eig) < 1e-10
        assert abs(rep.a4_min_eig) < 1e-10
        assert rep.a3_verdict == "fail" and rep.a4_verdict == "fail"
        sw = np.sqrt(trapezoid_weights(spec))
        x = spec.points()
        c = sw * np.cos(np.pi * x)
        v = rep.a3_null_vector
        corr = abs(v @ c) / (np.linalg.norm(v) * np.linalg.norm(c))
        assert corr > 0.99
        s = sw * np.sin(np.pi * x)
        v4 = rep.a4_null_vector
        assert abs(v4 @ s) / (np.linalg.norm(v4) * np.linalg.norm(s)) > 0.99

    def test_k_deleted_lines_k_null_eigenvalues(self):
        spec = GridSpec(128)
        data = nu0_truncation(1, 12)
        for j in (5, 3, 1):
            data = delete_entry(data, j)
        me, _ = completeness_matrices(data, spec, 12)
        eigs = np.linalg.eigvalsh(me)
        assert np.sum(np.abs(eigs) < 1e-8) == 3

    def test_genuine_data_passes(self):
        from kreinsl.direct import spectral_data
        from kreinsl.synthetic import fourier_tau

        spec = GridSpec(128)
        tau = fourier_tau(2, 3, 0.25, 7, spec)
        data = spectral_data(tau, 12)
        rep = check_a3_a4(data, spec, 12)
        assert rep.a3_verdict == "pass" and rep.a4_verdict == "pass"
        assert rep.a3_min_eig > 0.05 and rep.a4_min_eig > 0.05

    def test_reduced_data_gets_unit_mass(self):
        full = nu0_truncation(1, 8)
        reduced = SpectralData(1, full.lambdas[1:], full.alphas[1:],
                               includes_zero=False)
        spec = GridSpec(64)
        me_red, _ = completeness_matrices(reduced, spec, 8)
        # unit mass at zero differs from the half mass of the free dataset:
        # the even matrix gains the constant-direction excess
        w = trapezoid_weights(spec)
        sw = np.sqrt(w)
        expected = np.eye(65) + np.outer(sw, sw)
        assert np.abs(me_red - expected).max() < 1e-12


class TestCompletenessIndexing:
    """The direct H2(|i-j|) / H2(i+j) gather against the kernel squares."""

    @pytest.mark.parametrize("case", ["r1_real", "r2_complex", "reduced"])
    def test_bit_identical_to_heo_route(self, case):
        if case == "r1_real":
            lams = np.concatenate([[0.0], np.pi * np.arange(1, 13)
                                   + 0.3 / np.arange(1, 13)])
            alphas = np.concatenate([[0.7 * np.eye(1)],
                                     np.tile(0.9 * np.eye(1), (12, 1, 1))])
            data = SpectralData(1, lams, alphas.astype(complex), includes_zero=True)
            spec, n_bins = GridSpec(96), 12
        elif case == "r2_complex":
            data, spec, n_bins = constant_r2_data(16), GridSpec(64), 16
        else:
            full = nu0_truncation(2, 8)
            data = SpectralData(2, full.lambdas[2:], full.alphas[2:],
                                includes_zero=False)
            spec, n_bins = GridSpec(48), 8
        me, mo = completeness_matrices(data, spec, n_bins)
        me_ref, mo_ref = completeness_via_heo(data, spec, n_bins)
        assert np.array_equal(me, me_ref)
        assert np.array_equal(mo, mo_ref)

    def test_memory_bounded_by_outputs(self):
        # m = 384, r = 2: each output matrix is 9.5 MB; the kernel-square
        # route peaked at 237 MB
        data, spec = constant_r2_data(32), GridSpec(384)
        tracemalloc.start()
        try:
            completeness_matrices(data, spec, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"


def _completeness_case(name):
    if name == "free":
        return nu0_truncation(1, 8), GridSpec(64), 8
    if name == "one_deleted":
        return delete_entry(nu0_truncation(1, 16), 1), GridSpec(256), 16
    if name == "three_deleted":
        data = nu0_truncation(1, 12)
        for j in (5, 3, 1):
            data = delete_entry(data, j)
        return data, GridSpec(128), 12
    return fourier_data()


class TestSmallestEigenpair:
    @pytest.mark.parametrize("case", ["free", "one_deleted", "three_deleted",
                                      "fourier"])
    def test_matches_full_eigh(self, case):
        # the free data give M = I exactly, so any unit vector will do
        data, spec, n_bins = _completeness_case(case)
        rep = check_a3_a4(data, spec, n_bins)
        pairs = ((rep.a3_min_eig, rep.a3_null_vector),
                 (rep.a4_min_eig, rep.a4_null_vector))
        for mat, (lam, v) in zip(completeness_matrices(data, spec, n_bins), pairs):
            if case == "free":
                assert np.array_equal(mat, np.eye(len(mat)))
            assert abs(lam - np.linalg.eigh(mat)[0][0]) <= 1e-12
            assert np.linalg.norm(v) == pytest.approx(1.0)
            assert np.linalg.norm(mat @ v - lam * v) <= 1e-10 * np.linalg.norm(v)

    def test_null_direction_counts(self):
        data, spec, n_bins = _completeness_case("three_deleted")
        rep = check_a3_a4(data, spec, n_bins)
        assert rep.a3_n_below_band == 3 and rep.a4_n_below_band == 3
        doc = check_all(data, spec, n_bins).to_json()
        assert doc["a3"]["n_below_band"] == 3 and doc["a4"]["n_below_band"] == 3
        free = check_a3_a4(nu0_truncation(1, 8), GridSpec(64), 8)
        assert free.a3_n_below_band == 0 and free.a4_n_below_band == 0

    def test_validate_imports_no_scipy(self, tmp_path):
        # a lazy scipy import on the validate path would cost about 0.3 s
        # per run; check it in a fresh interpreter
        path = tmp_path / "data.json"
        save_spectral_data(nu0_truncation(2, 8), path)
        code = (
            "import json, sys\n"
            "from kreinsl.cli import main\n"
            f"rc = main(['validate', {str(path)!r}, '--grid-m', '64',"
            f" '--n-bins', '8', '--out', {str(tmp_path)!r}])\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy')]))\n"
        )
        import kreinsl
        src = os.path.dirname(os.path.dirname(kreinsl.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src),
                              check=True)
        rc, loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert rc == 0
        assert loaded == []


def _factor_case(name):
    if name == "complex_r2":
        return constant_r2_data(16), GridSpec(64), 16
    if name == "reduced":
        full = constant_r2_data(12)
        return (SpectralData(2, full.lambdas[1:], full.alphas[1:],
                             includes_zero=False), GridSpec(96), 12)
    if name == "clamped":
        return constant_r2_data(8), GridSpec(64), 12
    if name == "wide":
        return constant_r2_data(32), GridSpec(64), 32
    return _completeness_case(name)


class TestFactorRoute:
    """check_a3_a4's rank-K factor route against the dense matrices."""

    @pytest.mark.parametrize("case", ["free", "one_deleted", "three_deleted",
                                      "fourier", "complex_r2", "reduced",
                                      "clamped", "wide"])
    def test_matches_dense_spectrum(self, case):
        data, spec, n_bins = _factor_case(case)
        rep = check_a3_a4(data, spec, n_bins)
        assert rep.clamped == (case == "clamped")
        if case == "wide":
            # more accelerant terms than grid points: no unit eigenvalue
            assert _completeness_factors(data, spec, n_bins)[0][0].shape[1] > spec.m + 1
        mats = completeness_matrices(data, spec, rep.n_bins)
        found = ((rep.a3_min_eig, rep.a3_n_below_band, rep.a3_null_vector),
                 (rep.a4_min_eig, rep.a4_n_below_band, rep.a4_null_vector))
        for mat, (lam, n_below, v) in zip(mats, found):
            eigs, vecs = np.linalg.eigh(mat)
            assert abs(lam - eigs[0]) <= 1e-12
            assert n_below == np.count_nonzero(eigs < EIG_BAND)
            if eigs[1] - eigs[0] > 1e-6:
                assert abs(np.vdot(vecs[:, 0], v)) >= 1.0 - 1e-8

    def test_unit_eigenvalue_branch(self):
        # a positive definite core leaves the unit eigenvalue of the
        # complement of the column space as the smallest
        rng = np.random.default_rng(4)
        n, k, r = 40, 7, 2
        cols = rng.standard_normal((n, k))
        z = rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r))
        coef = z @ np.conj(np.swapaxes(z, -1, -2)) + 0.1 * np.eye(r)
        lam, v, n_below = _factor_spectrum(cols, coef)
        b = np.kron(cols, np.eye(r))
        s = np.zeros((k * r, k * r), dtype=complex)
        for j in range(k):
            s[j * r:(j + 1) * r, j * r:(j + 1) * r] = coef[j]
        mat = np.eye(n * r) + b @ s @ b.T
        assert lam == 1.0 and n_below == 0
        assert abs(np.linalg.eigvalsh(mat)[0] - 1.0) <= 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.linalg.norm(b.T @ v) <= 1e-12
        assert np.linalg.norm(mat @ v - v) <= 1e-10

    def test_memory_at_scale(self):
        # m = 4096, r = 2: each dense matrix would be 1.07 GB
        data, spec = constant_r2_data(32), GridSpec(4096)
        tracemalloc.start()
        try:
            rep = check_a3_a4(data, spec, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"
        assert rep.a3_verdict == "pass" and rep.a4_verdict == "pass"
        assert rep.a3_null_vector.shape == ((spec.m + 1) * 2,)


class TestPositivityRoutes:
    def test_zero_kernel(self):
        h = MatrixGrid(1, GridSpec(64), np.zeros((65, 1, 1)), hermitian=True)
        assert accelerant_positivity(h) == pytest.approx(1.0)

    def test_negative_constant(self):
        vals = np.full((129, 1, 1), -2.0)
        h = MatrixGrid(1, GridSpec(128), vals, hermitian=True)
        assert accelerant_positivity(h) <= 0.0

    def test_positive_constant(self):
        vals = np.full((129, 1, 1), 0.8)
        h = MatrixGrid(1, GridSpec(128), vals, hermitian=True)
        assert accelerant_positivity(h) > 0.0

    def test_agreement_with_solver_route(self):
        # positivity of I + (convolution) agrees with the triangular-solve
        # route: positive kernels solve with healthy pivots; non-accelerants
        # either abort (when the singular truncation sits on a node, as for
        # the constant kernel) or surface through a collapsed pivot estimate
        spec = GridSpec(96)
        x = spec.points()
        battery = [
            np.full((97, 1, 1), 0.8),
            np.full((97, 1, 1), -2.0),
            (1.2 * np.cos(2 * np.pi * x) + 0.1)[:, None, None],
            (-1.1 - 0.2 * np.cos(np.pi * x))[:, None, None],
            (0.4 * np.sin(3 * x) + 0.2)[:, None, None],
        ]
        for vals in battery:
            h = MatrixGrid(1, spec, vals.astype(complex), hermitian=True)
            eig = accelerant_positivity(h)
            try:
                pivot = solve_krein(h).min_pivot
            except NotAnAccelerantError as exc:
                pivot = exc.pivot
            if eig > 1e-3:
                assert pivot > 1e-2, f"healthy kernel flagged: pivot={pivot}"
            else:
                assert pivot < 1e-2, f"route disagreement: eig={eig}, pivot={pivot}"

    def test_spectrum_splits_into_even_and_odd(self):
        # eigenvalues of I + (full convolution) match the union of the
        # even and odd parts within quadrature error
        spec = GridSpec(128)
        x = spec.points()
        h = MatrixGrid(1, spec,
                       (0.5 * np.cos(2 * np.pi * x) + 0.2)[:, None, None],
                       hermitian=True)
        full_eigs = np.linalg.eigvalsh(
            np.eye(129) * 0.0 + _conv_matrix(h))
        me, mo = _heo_matrices(h)
        union = np.concatenate([np.linalg.eigvalsh(me) - 1.0,
                                np.linalg.eigvalsh(mo) - 1.0])
        k = 8
        top_full = np.sort(full_eigs[np.argsort(-np.abs(full_eigs))[:k]])
        top_union = np.sort(union[np.argsort(-np.abs(union))[:k]])
        assert np.abs(top_full - top_union).max() < 3.0 / 128


def _conv_matrix(h):
    from kreinsl.core import SquareKernel
    from oracles import sym_nystrom_square

    spec = h.spec
    idx = np.abs(np.arange(spec.m + 1)[:, None] - np.arange(spec.m + 1)[None, :])
    kernel = SquareKernel(h.r, spec, h.values[idx])
    s = sym_nystrom_square(kernel)
    return (s + s.conj().T) / 2.0


def _heo_matrices(h):
    from kreinsl.accelerant import build_heo
    from oracles import sym_nystrom_square

    he, ho = build_heo(h)
    n = (h.spec.m + 1) * h.r
    me = np.eye(n) + sym_nystrom_square(he)
    mo = np.eye(n) + sym_nystrom_square(ho)
    return (me + me.conj().T) / 2.0, (mo + mo.conj().T) / 2.0


def test_check_all_report_shape():
    report = check_all(nu0_truncation(1, 8), GridSpec(64), 8)
    doc = report.to_json()
    assert doc["verdicts"] == {"a1": "pass", "a2": "pass",
                               "a3": "pass", "a4": "pass"}
    assert len(doc["a1"]["trend_beta"]) == 8
