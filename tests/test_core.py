import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinsl.core import (
    GridSpec,
    MatrixGrid,
    ParseError,
    SpectralData,
    TriangularKernel,
    ValidationError,
    bin_index,
    g2_norm,
    load_matrix_grid,
    load_spectral_data,
    resample_matrix_grid,
    save_matrix_grid,
    save_spectral_data,
    trapezoid_weights,
)


def test_gridspec_rejects_small_m():
    with pytest.raises(ValidationError):
        GridSpec(4)


def test_trapezoid_weights_m2_equivalent():
    w = trapezoid_weights(GridSpec(8))
    assert w[0] == w[-1] == 1.0 / 16
    assert np.all(w[1:-1] == 1.0 / 8)
    assert w.sum() == 1.0


def test_trapezoid_weights_sum_exact():
    for m in (8, 64, 257):
        assert trapezoid_weights(GridSpec(m)).sum() == pytest.approx(1.0, abs=0)


def test_trapezoid_exact_on_linear():
    spec = GridSpec(8)
    w = trapezoid_weights(spec)
    x = spec.points()
    assert abs(w @ x - 0.5) < 1e-15
    assert abs(w @ (3.0 * x - 1.0) - 0.5) < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=8, max_value=300),
       st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
def test_trapezoid_linear_property(m, a, b):
    spec = GridSpec(m)
    w = trapezoid_weights(spec)
    val = w @ (a * spec.points() + b)
    assert val == pytest.approx(a / 2.0 + b, rel=1e-12, abs=1e-12)


def test_hermitian_flag_checked():
    spec = GridSpec(8)
    vals = np.zeros((9, 2, 2), dtype=complex)
    vals[3, 0, 1] = 1e-3
    with pytest.raises(ValidationError):
        MatrixGrid(2, spec, vals, hermitian=True)
    MatrixGrid(2, spec, vals, hermitian=False)  # fine unflagged


def _two_norm_calls(monkeypatch):
    calls = []
    norm = np.linalg.norm

    def spy(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord=ord, axis=axis, keepdims=keepdims)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


def test_hermitian_grid_passes_without_svd(monkeypatch):
    # the Frobenius bound of an exactly Hermitian grid is 0
    calls = _two_norm_calls(monkeypatch)
    MatrixGrid(2, GridSpec(16), _random_grid(3, hermitian=True).values, hermitian=True)
    assert calls == []


def test_hermitian_check_falls_back_to_two_norms(monkeypatch):
    # A = [[1000, e], [0, 0]]: ||D||_2 = e and ||A||_2 = 1000, so the defect
    # e / 1001 = 9.0e-13 passes, while the Frobenius bound
    # sqrt(2) e / (1 + 1000 / sqrt(2)) = 1.8e-12 does not decide it
    calls = _two_norm_calls(monkeypatch)
    vals = np.zeros((9, 2, 2), dtype=complex)
    vals[:, 0, 0] = 1000.0
    vals[4, 0, 1] = 9.009e-10
    MatrixGrid(2, GridSpec(8), vals, hermitian=True)
    assert len(calls) == 2


def test_non_hermitian_grid_message():
    vals = np.zeros((9, 2, 2), dtype=complex)
    vals[3, 0, 1] = 1.0
    with pytest.raises(ValidationError,
                       match=r"^grid flagged hermitian but worst sample defect is 5\.000e-01$"):
        MatrixGrid(2, GridSpec(8), vals, hermitian=True)


def test_matrix_grid_immutable():
    g = MatrixGrid(1, GridSpec(8), np.zeros((9, 1, 1)))
    with pytest.raises(ValueError):
        g.values[0, 0, 0] = 1.0


def test_g2_norm_zero_kernel():
    spec = GridSpec(16)
    k = TriangularKernel(1, spec, np.zeros((17, 17, 1, 1)))
    assert g2_norm(k) == 0.0


def test_g2_norm_indicator_kernel():
    # K = 1 on the triangle (r = 1): slice norms peak at 1 on the x = 1 row
    spec = GridSpec(256)
    vals = np.tril(np.ones((257, 257)))[:, :, None, None]
    k = TriangularKernel(1, spec, vals)
    assert g2_norm(k) == pytest.approx(1.0, abs=1e-2)


def test_g2_norm_scaling():
    rng = np.random.default_rng(0)
    spec = GridSpec(16)
    vals = np.tril(rng.normal(size=(17, 17)))[:, :, None, None] * (1 + 0j)
    k = TriangularKernel(1, spec, vals)
    c = 3.7 - 1.2j
    kc = TriangularKernel(1, spec, c * vals)
    assert g2_norm(kc) == pytest.approx(abs(c) * g2_norm(k), rel=1e-12)


def test_triangular_kernel_zeroes_upper_part():
    spec = GridSpec(8)
    vals = np.ones((9, 9, 1, 1), dtype=complex)
    k = TriangularKernel(1, spec, vals)
    assert np.all(k.values[np.triu_indices(9, k=1)] == 0)


def test_triangular_kernel_keeps_callers_buffer():
    import tracemalloc

    n, r = 257, 2
    vals = np.zeros((n, n, r, r), dtype=complex)
    for i in range(n):
        vals[i, : i + 1] = 1.0 + 0.5j
    tracemalloc.start()
    try:
        k = TriangularKernel(r, GridSpec(n - 1), vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(k.values, vals)
    assert not k.values.flags.writeable
    assert peak < vals.nbytes / 16  # 4.2 MB array; no copy, no triangle temporary


def _random_grid(seed, r=2, m=16, hermitian=False):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(m + 1, r, r)) + 1j * rng.normal(size=(m + 1, r, r))
    if hermitian:
        vals = (vals + np.conj(np.swapaxes(vals, -1, -2))) / 2.0
    return MatrixGrid(r, GridSpec(m), vals, hermitian=hermitian)


def test_matrix_grid_roundtrip_bit_exact(tmp_path):
    g = _random_grid(1, hermitian=True)
    path = tmp_path / "g.json"
    save_matrix_grid(g, path)
    g2 = load_matrix_grid(path)
    assert g2.r == g.r and g2.spec.m == g.spec.m and g2.hermitian == g.hermitian
    assert np.array_equal(g2.values, g.values)


def test_spectral_data_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    r = 2
    alphas = []
    for _ in range(5):
        b = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        alphas.append(b @ b.conj().T + 0.1 * np.eye(r))
    data = SpectralData(r, np.array([0.0, 3.1, 6.4, 9.2, 12.9]),
                        np.stack(alphas), includes_zero=True)
    path = tmp_path / "d.json"
    save_spectral_data(data, path)
    d2 = load_spectral_data(path)
    assert np.array_equal(d2.lambdas, data.lambdas)
    assert np.array_equal(d2.alphas, data.alphas)
    assert d2.includes_zero == data.includes_zero


def test_writers_match_json_dump(tmp_path):
    # the writers go through the C encoder of json.dumps; the files are
    # byte for byte what json.dump (the Python encoder) writes of one
    # [float(re), float(im)] pair per entry, signed zeros and subnormals
    # included
    def dumped(doc):
        buf = io.StringIO()
        json.dump(doc, buf)
        buf.write("\n")
        return buf.getvalue()

    def pairs(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

    vals = _random_grid(3, m=12).values.copy()
    vals[2, 0, 1] = complex(-0.0, -0.0)
    vals[3, 1, 0] = complex(5e-324, -2.5e-310)
    g = MatrixGrid(2, GridSpec(12), vals)
    save_matrix_grid(g, tmp_path / "g.json", extra={"kind": "potential_primitive"})
    assert (tmp_path / "g.json").read_text(encoding="utf-8") == dumped({
        "r": g.r, "m": g.spec.m, "hermitian": False,
        "values": [pairs(v) for v in g.values],
        "kind": "potential_primitive"})
    lams = np.array([0.0, 1e-300, 1.0 / 3.0, np.pi, 2.0 ** 60])
    alphas = np.tile(np.eye(2), (5, 1, 1)) * np.array([1.0, 0.1, 1e22, 3.0, 1.5])[:, None, None]
    data = SpectralData(2, lams, alphas.astype(complex), includes_zero=True)
    save_spectral_data(data, tmp_path / "d.json")
    assert (tmp_path / "d.json").read_text(encoding="utf-8") == dumped({
        "r": 2, "includes_zero": True,
        "entries": [{"lambda": float(lam), "alpha": pairs(al)}
                    for lam, al in zip(lams, data.alphas)]})


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(8, 24))
def test_matrix_grid_roundtrip_property(tmp_path_factory, seed, m):
    g = _random_grid(seed, r=1, m=m)
    path = tmp_path_factory.mktemp("io") / "g.json"
    save_matrix_grid(g, path)
    assert np.array_equal(load_matrix_grid(path).values, g.values)


def test_non_monotone_lambda_named(tmp_path):
    doc = {
        "r": 1, "includes_zero": False,
        "entries": [{"lambda": 3.0, "alpha": [[[1.0, 0.0]]]},
                    {"lambda": 3.0, "alpha": [[[1.0, 0.0]]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="non-increasing lambda at index 1"):
        load_spectral_data(path)


def test_non_hermitian_alpha_rejected(tmp_path):
    doc = {
        "r": 2, "includes_zero": False,
        "entries": [{"lambda": 3.0,
                     "alpha": [[[1.0, 0.0], [0.001, 0.0]],
                               [[0.0, 0.0], [1.0, 0.0]]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="non-Hermitian norming matrix at index 0"):
        load_spectral_data(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"r": 1,\n  "m": }')
    with pytest.raises(ParseError, match="line 2"):
        load_matrix_grid(path)


def test_missing_field_reported(tmp_path):
    path = tmp_path / "short.json"
    path.write_text('{"r": 1, "m": 8}')
    with pytest.raises(ParseError, match="values"):
        load_matrix_grid(path)


def test_integral_numbers_are_integers(tmp_path):
    # as in JSON Schema, 1.0 is an integer; the loaded data are unchanged
    g = MatrixGrid(1, GridSpec(8), np.arange(9.0)[:, None, None], hermitian=True)
    save_matrix_grid(g, tmp_path / "g.json")
    doc = json.loads((tmp_path / "g.json").read_text())
    (tmp_path / "g.json").write_text(json.dumps({**doc, "r": 1.0, "m": 8.0}))
    g2 = load_matrix_grid(tmp_path / "g.json")
    assert g2.spec.m == 8 and type(g2.spec.m) is int and g2.r == 1
    assert np.array_equal(g2.values, g.values)
    d = SpectralData(1, np.array([1.0, 4.0]), np.ones((2, 1, 1)), includes_zero=False)
    save_spectral_data(d, tmp_path / "d.json")
    doc = json.loads((tmp_path / "d.json").read_text())
    (tmp_path / "d.json").write_text(json.dumps({**doc, "r": 1.0}))
    d2 = load_spectral_data(tmp_path / "d.json")
    assert d2.r == 1 and np.array_equal(d2.alphas, d.alphas)


def test_top_level_must_be_object(tmp_path):
    for text in ('"r"', "[1, 2]", "3"):
        (tmp_path / "bad.json").write_text(text)
        with pytest.raises(ParseError, match="expected a JSON object"):
            load_matrix_grid(tmp_path / "bad.json")


def test_non_utf8_file_is_a_parse_error(tmp_path):
    (tmp_path / "bad.json").write_bytes(b'{"r": "\xff"}')
    with pytest.raises(ParseError):
        load_spectral_data(tmp_path / "bad.json")


def test_non_finite_spectral_data_refused():
    one = np.ones((2, 1, 1), dtype=complex)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="non-finite lambda at index 1"):
            SpectralData(1, np.array([1.0, lam]), one, includes_zero=False)
    bad = one.copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite alpha at index 1"):
        SpectralData(1, np.array([1.0, 4.0]), bad, includes_zero=False)


def test_matrix_grid_keeps_non_finite_samples():
    # only the loader refuses them: an internal NaN is a numerical failure
    vals = np.zeros((9, 1, 1))
    vals[3] = np.nan
    assert np.isnan(MatrixGrid(1, GridSpec(8), vals).values[3, 0, 0])


def test_includes_zero_requires_zero_lambda():
    with pytest.raises(ValidationError):
        SpectralData(1, np.array([1.0]), np.ones((1, 1, 1)), includes_zero=True)
    with pytest.raises(ValidationError, match="positive definite"):
        # rank-deficient alpha_0 is PSD but not positive definite
        SpectralData(2, np.array([0.0]), np.diag([1.0, 0.0])[None].astype(complex),
                     includes_zero=True)


def test_bin_index_boundaries():
    assert bin_index(1.0) == 1
    assert bin_index(1.5 * np.pi) == 1          # right-closed first bin
    assert bin_index(1.5 * np.pi + 1e-6) == 2
    assert bin_index(2 * np.pi) == 2
    assert bin_index(2.5 * np.pi) == 2          # ties go to the lower bin
    assert bin_index(np.pi) == 1
    # an array bins elementwise by the same rule: values within a relative
    # 1e-9 of an edge pi (n + 1/2) snap onto it and go to the lower bin n;
    # values further off land on their side of the edge
    edges = np.pi * (np.arange(1, 65) + 0.5)
    snapped = np.concatenate([edges * (1 - 1e-10), edges, edges * (1 + 1e-10)])
    outside = np.concatenate([edges * (1 - 1e-7), edges * (1 + 1e-7)])
    n = np.tile(np.arange(1, 65), 3)
    assert np.array_equal(bin_index(snapped), n)
    assert np.array_equal(bin_index(outside), np.concatenate([n[:64], n[:64] + 1]))
    for lams in (snapped, outside):
        assert list(bin_index(lams)) == [bin_index(float(v)) for v in lams]
    with pytest.raises(ValidationError):
        bin_index(np.array([1.0, 0.0]))


def test_bin_index_array_on_direct_solve():
    # every lambda of a 64-bin r = 2 solve bins alike through the array
    # call and the scalar one, and each bin holds r entries
    from kreinsl.direct import spectral_data
    from kreinsl.synthetic import fourier_tau

    data = spectral_data(fourier_tau(2, 3, 0.3, 2026, GridSpec(128)), 64)
    lams = data.lambdas[1:]
    bins = bin_index(lams)
    assert list(bins) == [bin_index(float(v)) for v in lams]
    assert np.array_equal(np.bincount(bins), [0] + [2] * 64)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=400.0, allow_nan=False))
def test_bin_index_contains_lambda(lam):
    n = bin_index(lam)
    lo = 0.0 if n == 1 else np.pi * n - np.pi / 2
    hi = np.pi * n + np.pi / 2 + 1e-9 if n > 1 else 1.5 * np.pi + 1e-9
    assert lo - 1e-9 <= lam <= hi


def test_resample_identity_and_refinement():
    g = _random_grid(7, r=1, m=16, hermitian=False)
    assert resample_matrix_grid(g, GridSpec(16)) is g
    fine = resample_matrix_grid(g, GridSpec(32))
    assert np.array_equal(fine.values[::2], g.values)
    mids = (g.values[:-1] + g.values[1:]) / 2.0
    assert np.allclose(fine.values[1::2], mids, atol=1e-15)
