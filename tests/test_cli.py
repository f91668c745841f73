import json
import os

import numpy as np
import pytest

from kreinsl.cli import main
from kreinsl.core import (
    GridSpec,
    MatrixGrid,
    SpectralData,
    load_matrix_grid,
    load_spectral_data,
    save_matrix_grid,
    save_spectral_data,
)


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def read_json(path):
    """An output file, parsed strictly: a NaN or Infinity token fails."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def write_zero_tau(path, r=1, m=64):
    save_matrix_grid(
        MatrixGrid(r, GridSpec(m), np.zeros((m + 1, r, r)), hermitian=True), path)


def nu0_file(path, r=1, n=4):
    lams = np.concatenate([[0.0], np.pi * np.arange(1, n + 1)])
    alphas = np.concatenate([
        [0.5 * np.eye(r)], np.tile(np.eye(r), (n, 1, 1))]).astype(complex)
    save_spectral_data(SpectralData(r, lams, alphas, includes_zero=True), path)
    return path


def test_direct_free_potential(tmp_path):
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    rc = main(["direct", str(tau), "--grid-m", "64", "--n-bins", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    data = load_spectral_data(tmp_path / "spectral_data.json")
    assert np.allclose(data.lambdas, np.pi * np.arange(5), atol=1e-9)
    diag = read_json(tmp_path / "direct_diagnostics.json")
    assert diag["config"]["n_bins"] == 4
    assert max(diag["identity_residuals"].values()) < 1e-10


def test_direct_constant_potential(tmp_path):
    m = 128
    tau = tmp_path / "tau.json"
    save_matrix_grid(MatrixGrid(1, GridSpec(m), np.full((m + 1, 1, 1), 0.5),
                                hermitian=True), tau)
    rc = main(["direct", str(tau), "--grid-m", "128", "--n-bins", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    data = load_spectral_data(tmp_path / "spectral_data.json")
    exact = np.sqrt(np.pi ** 2 * np.arange(4) ** 2 + 0.25)
    exact[0] = 0.0
    assert np.abs(data.lambdas - exact).max() < 1e-8


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["direct", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_inverse_free_data(tmp_path):
    data = nu0_file(tmp_path / "d.json")
    rc = main(["inverse", str(data), "--grid-m", "64", "--n-bins", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    tau = load_matrix_grid(tmp_path / "tau.json")
    sigma = load_matrix_grid(tmp_path / "sigma.json")
    assert np.abs(tau.values).max() < 1e-8
    assert np.abs(sigma.values).max() < 1e-8
    assert read_json(tmp_path / "sigma.json")["kind"] \
        == "potential_primitive"


def test_inverse_diagnostics_report_dense_start(tmp_path, monkeypatch):
    # the recursion solves every row of free data; a floor no pivot can
    # clear sends every row from x = h on to dense LU
    data = nu0_file(tmp_path / "d.json", n=8)
    validator = _schema_validator("inverse_diagnostics")
    for floor, expected in ((None, None), (2.0, 1.0 / 64)):
        if floor is not None:
            monkeypatch.setattr("kreinsl.krein.LEVINSON_FLOOR", floor)
        assert main(["inverse", str(data), "--grid-m", "64", "--n-bins", "8",
                     "--out", str(tmp_path)]) == 0
        diag = read_json(tmp_path / "inverse_diagnostics.json")
        validator.validate(diag)
        assert diag["dense_from_x"] == expected


def test_inverse_diagnostics_report_worst_rows(tmp_path, monkeypatch):
    # with every row from x = h on sent to the dense rows, the smallest
    # pivot is a dense row's reciprocal condition number.  Free data's
    # accelerant vanishes, which leaves every row at condition number 1,
    # so the data are those of tau = 1
    from oracles import constant_tau_alphas, constant_tau_lambdas

    data = tmp_path / "d.json"
    save_spectral_data(SpectralData(
        1, constant_tau_lambdas(1.0, 9),
        constant_tau_alphas(1.0, 9)[:, None, None].astype(complex),
        includes_zero=True), data)
    monkeypatch.setattr("kreinsl.krein.LEVINSON_FLOOR", 2.0)
    assert main(["inverse", str(data), "--grid-m", "64", "--n-bins", "8",
                 "--out", str(tmp_path)]) == 0
    diag = read_json(tmp_path / "inverse_diagnostics.json")
    _schema_validator("inverse_diagnostics").validate(diag)
    for key in ("residual_x", "min_pivot_x"):
        assert 0.0 <= diag[key] <= 1.0 and diag[key] * 64 % 1 == 0
    assert diag["min_pivot_x"] >= diag["dense_from_x"] == 1.0 / 64
    assert diag["min_pivot"] < 1.0


def test_package_runs_without_scipy(tmp_path):
    # scipy serves only the tests: with it blocked, the package imports,
    # every command runs, and the Krein solve's dense rows name the -2
    # kernel's singular row
    import subprocess
    import sys

    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    data = nu0_file(tmp_path / "d.json", n=8)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import kreinsl\n"
        "from kreinsl.cli import main\n"
        "from kreinsl.core import GridSpec, MatrixGrid, NotAnAccelerantError\n"
        "from kreinsl.krein import solve_krein\n"
        "tau, data, out = sys.argv[1:]\n"
        "size = ['--grid-m', '64', '--n-bins', '8', '--out', out]\n"
        "rcs = [main(['direct', tau, *size]), main(['validate', data, *size]),\n"
        "       main(['inverse', data, *size]),\n"
        "       main(['roundtrip', '--synthetic', '1:3:0.3', *size])]\n"
        "try:\n"
        "    solve_krein(MatrixGrid(1, GridSpec(96), np.full((97, 1, 1), -2.0),\n"
        "                           hermitian=True))\n"
        "except NotAnAccelerantError as exc:\n"
        "    rcs.append(exc.x)\n"
        "print(rcs)\n"
    )
    import kreinsl
    src = os.path.dirname(os.path.dirname(kreinsl.__file__))
    done = subprocess.run([sys.executable, "-c", code, str(tau), str(data),
                           str(tmp_path)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          timeout=120)
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0.5]"


def test_inverse_reduced_data_reconstructs_zero_potential(tmp_path):
    # reduced free data: unit mass prepended; some root of q = 0 comes back
    lams = np.pi * np.arange(1, 9)
    alphas = np.tile(np.eye(1), (8, 1, 1)).astype(complex)
    save_spectral_data(SpectralData(1, lams, alphas, includes_zero=False),
                       tmp_path / "b.json")
    rc = main(["inverse", str(tmp_path / "b.json"), "--grid-m", "512",
               "--n-bins", "8", "--out", str(tmp_path)])
    assert rc == 0
    from kreinsl.miura import miura, miura_equals

    tau = load_matrix_grid(tmp_path / "tau.json")
    zero = miura(MatrixGrid(1, tau.spec, np.zeros_like(tau.values),
                            hermitian=True))
    assert miura_equals(miura(tau), zero, tol=1e-6)
    x = tau.spec.points()
    assert np.abs(tau.values[:, 0, 0] - 1.0 / (1.0 + x)).max() < 1e-3


def test_inverse_rejects_bad_alpha(tmp_path):
    doc = {
        "r": 1, "includes_zero": False,
        "entries": [{"lambda": 3.0, "alpha": [[[-1.0, 0.0]]]}],
    }
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    rc = main(["inverse", str(tmp_path / "bad.json"), "--out", str(tmp_path)])
    assert rc == 4


def test_inverse_non_accelerant_exits_3(tmp_path, capsys):
    # data with a deleted spectral line loses completeness: the kernel's
    # full-interval truncation is exactly singular, caught at x = 1
    lams = np.concatenate([[0.0], np.pi * np.arange(2, 9)])
    alphas = np.concatenate([
        [0.5 * np.eye(1)], np.tile(np.eye(1), (7, 1, 1))]).astype(complex)
    save_spectral_data(SpectralData(1, lams, alphas, includes_zero=True),
                       tmp_path / "d.json")
    rc = main(["inverse", str(tmp_path / "d.json"), "--grid-m", "64",
               "--n-bins", "8", "--out", str(tmp_path)])
    assert rc == 3
    assert "x = 1" in capsys.readouterr().err


def test_linalg_error_exits_1(tmp_path, capsys, monkeypatch):
    def broken(H):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("kreinsl.krein.solve_krein", broken)
    data = nu0_file(tmp_path / "d.json", n=8)
    rc = main(["inverse", str(data), "--grid-m", "64", "--n-bins", "8",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_validate_free_data(tmp_path):
    data = nu0_file(tmp_path / "d.json", n=8)
    rc = main(["validate", str(data), "--grid-m", "64", "--n-bins", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "condition_report.json")
    assert set(rep["verdicts"].values()) == {"pass"}


def test_validate_deleted_line_exits_5(tmp_path):
    lams = np.concatenate([[0.0], np.pi * np.arange(2, 9)])
    alphas = np.concatenate([
        [0.5 * np.eye(1)], np.tile(np.eye(1), (7, 1, 1))]).astype(complex)
    save_spectral_data(SpectralData(1, lams, alphas, includes_zero=True),
                       tmp_path / "d.json")
    rc = main(["validate", str(tmp_path / "d.json"), "--grid-m", "128",
               "--n-bins", "8", "--out", str(tmp_path)])
    assert rc == 5
    rep = read_json(tmp_path / "condition_report.json")
    assert rep["verdicts"]["a3"] == "fail"


def test_validate_report_counts_null_directions(tmp_path):
    # one deleted line leaves one null direction in each of the even and
    # odd matrices; the report carries the count and matches its schema
    lams = np.concatenate([[0.0], np.pi * np.arange(2, 9)])
    alphas = np.concatenate([
        [0.5 * np.eye(1)], np.tile(np.eye(1), (7, 1, 1))]).astype(complex)
    save_spectral_data(SpectralData(1, lams, alphas, includes_zero=True),
                       tmp_path / "d.json")
    assert main(["validate", str(tmp_path / "d.json"), "--grid-m", "128",
                 "--n-bins", "8", "--out", str(tmp_path)]) == 5
    rep = read_json(tmp_path / "condition_report.json")
    assert rep["a3"]["n_below_band"] == 1 and rep["a4"]["n_below_band"] == 1
    _schema_validator("condition_report").validate(rep)


def test_direct_diagnostics_per_entry(tmp_path):
    # a seeded r = 2 potential: every entry's kernel dimension equals its
    # alpha rank, each bin edge adds r to the count, and the file matches
    # its schema
    from kreinsl.synthetic import fourier_tau

    save_matrix_grid(fourier_tau(2, 3, 0.3, 5, GridSpec(64)), tmp_path / "tau.json")
    assert main(["direct", str(tmp_path / "tau.json"), "--grid-m", "64",
                 "--n-bins", "6", "--out", str(tmp_path)]) == 0
    diag = read_json(tmp_path / "direct_diagnostics.json")
    _schema_validator("direct_diagnostics").validate(diag)
    checks = diag["entry_checks"]
    assert len(checks) == diag["entries"] == 13
    assert all(c["kernel_dim"] == c["alpha_rank"] for c in checks)
    assert checks[0]["kernel_dim"] == 2 and checks[0]["next_sigma"] is None
    assert max(c["kernel_sigma"] for c in checks) < 1.0
    assert min(c["next_sigma"] for c in checks[1:]) > 1.0
    assert diag["edge_counts"] == [2 + 2 * n for n in range(7)]


def test_direct_near_identity_exits_0(tmp_path):
    # two identical channels weakly coupled: near-double roots whose
    # multiplicities the count alone decides; the file matches its schema
    from kreinsl.synthetic import fourier_tau

    m = 256
    coupling = fourier_tau(2, 3, 1.0, 91, GridSpec(m)).values
    vals = 0.5 * np.eye(2) + 1e-6 * coupling
    save_matrix_grid(MatrixGrid(2, GridSpec(m), vals, hermitian=True),
                     tmp_path / "tau.json")
    assert main(["direct", str(tmp_path / "tau.json"), "--grid-m", str(m),
                 "--n-bins", "16", "--out", str(tmp_path)]) == 0
    diag = read_json(tmp_path / "direct_diagnostics.json")
    _schema_validator("direct_diagnostics").validate(diag)
    checks = diag["entry_checks"]
    assert all(c["kernel_dim"] == c["alpha_rank"] for c in checks)
    assert sum(c["kernel_dim"] for c in checks[1:]) == 2 * 16


def _schema_validator(name):
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    root = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "schemas")
    docs = {}
    for fname in sorted(os.listdir(root)):
        with open(os.path.join(root, fname), encoding="utf-8") as fh:
            docs[fname] = json.load(fh)
    registry = referencing.Registry().with_resources(
        (fname, referencing.Resource.from_contents(doc))
        for fname, doc in docs.items())
    return jsonschema.Draft202012Validator(docs[f"{name}.schema.json"],
                                           registry=registry)


def test_uncovered_data_report_is_strict_json(tmp_path):
    # data holding only the lambda = 0 entry cover no bin: a3 and a4 have
    # no operator to test and report null, not the NaN token
    save_spectral_data(SpectralData(1, np.array([0.0]), np.full((1, 1, 1), 0.5 + 0j),
                                    includes_zero=True), tmp_path / "d.json")
    assert main(["validate", str(tmp_path / "d.json"), "--grid-m", "64",
                 "--n-bins", "4", "--out", str(tmp_path)]) == 6
    rep = read_json(tmp_path / "condition_report.json")
    assert rep["a3"]["min_eig"] is None and rep["a4"]["min_eig"] is None
    _schema_validator("condition_report").validate(rep)


def test_one_bin_inverse_diagnostics_are_strict_json(tmp_path):
    # one bin has no half truncation to compare with: the tail proxy is null
    data = nu0_file(tmp_path / "d.json")
    assert main(["inverse", str(data), "--grid-m", "64", "--n-bins", "1",
                 "--out", str(tmp_path)]) == 0
    diag = read_json(tmp_path / "inverse_diagnostics.json")
    assert diag["accelerant_tail_proxy"] is None
    _schema_validator("inverse_diagnostics").validate(diag)


def test_inverse_clamps_bins_to_the_data(tmp_path):
    # 8 bins of direct data asked for 12: the truncation is clamped to the
    # data's last bin and the run says so
    from kreinsl.synthetic import fourier_tau
    tau = tmp_path / "tau.json"
    save_matrix_grid(fourier_tau(2, 3, 0.3, 1, GridSpec(64)), tau)
    assert main(["direct", str(tau), "--grid-m", "64", "--n-bins", "8",
                 "--out", str(tmp_path / "d")]) == 0
    assert main(["inverse", str(tmp_path / "d" / "spectral_data.json"),
                 "--grid-m", "64", "--n-bins", "12",
                 "--out", str(tmp_path / "i")]) == 0
    diag = read_json(tmp_path / "i" / "inverse_diagnostics.json")
    assert diag["notes"] == ["data covers 8 bins; truncation clamped from 12"]
    assert diag["n_bins_used"] == 8
    _schema_validator("inverse_diagnostics").validate(diag)


def test_validate_short_data_exits_6(tmp_path):
    data = nu0_file(tmp_path / "d.json", n=3)
    rc = main(["validate", str(data), "--grid-m", "64", "--n-bins", "16",
               "--out", str(tmp_path)])
    assert rc == 6


def test_roundtrip_zero_potential(tmp_path):
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    rc = main(["roundtrip", str(tau), "--grid-m", "64", "--n-bins", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "roundtrip_report.json")
    assert len(rep["table"]) == 4
    base = rep["table"][0]
    assert base["tau_errors"]["linf_abs"] < 1e-8
    assert rep["spectral_match"]["lambda_dev"] < 1e-8


def test_roundtrip_synthetic_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["roundtrip", "--synthetic", "1:2:0.2", "--seed", "9",
                   "--grid-m", "64", "--n-bins", "4", "--out", str(out)])
        assert rc == 0
    b1 = (out1 / "roundtrip_report.json").read_bytes()
    b2 = (out2 / "roundtrip_report.json").read_bytes()
    assert b1 == b2
    _schema_validator("roundtrip_report").validate(
        read_json(out1 / "roundtrip_report.json"))


def _oracle_report(tmp_path, r, seed, grid_m, n_bins):
    # the roundtrip report with one direct solve per row
    from kreinsl.cli import RunConfig, _write_json
    from kreinsl.synthetic import fourier_tau
    from oracles import roundtrip_per_row

    tau = fourier_tau(r, 3, 0.3, seed, GridSpec(grid_m))
    doc = roundtrip_per_row(tau, n_bins, grid_m)
    doc["config"] = RunConfig(grid_m=grid_m, n_bins=n_bins, seed=seed).to_json()
    path = tmp_path / "oracle.json"
    _write_json(doc, path)
    return path


def test_roundtrip_prefix_matches_per_row_solves_r1(tmp_path):
    # at r = 1 a lambda's propagation does not depend on the batch it is
    # in, so the N-bin prefix of the 2N-bin solve is the N-bin solve bit
    # for bit, and so is the whole report; at r = 2 the prefix's norming
    # constants may move by roundoff (the r = 2 test).  Seed 467 once
    # moved by 6.7e-16 when the coefficients were scaled per batch.
    for seed in (5, 467):
        out = tmp_path / str(seed)
        assert main(["roundtrip", "--synthetic", "1:3:0.3", "--seed", str(seed),
                     "--grid-m", "128", "--n-bins", "16",
                     "--out", str(out)]) == 0
        oracle = _oracle_report(tmp_path, 1, seed, 128, 16)
        assert (out / "roundtrip_report.json").read_bytes() == oracle.read_bytes()


def test_roundtrip_prefix_matches_per_row_solves_r2(tmp_path):
    # at r = 2 the norming constants of the prefix come from a longer batch
    # of roots, so they, and what is built on them, move by roundoff
    assert main(["roundtrip", "--synthetic", "2:3:0.3", "--seed", "7",
                 "--grid-m", "64", "--n-bins", "8",
                 "--out", str(tmp_path)]) == 0
    got = read_json(tmp_path / "roundtrip_report.json")
    want = read_json(_oracle_report(tmp_path, 2, 7, 64, 8))
    assert [(row["n_bins"], row["grid_m"]) for row in got["table"]] == \
        [(row["n_bins"], row["grid_m"]) for row in want["table"]]
    for row, ref in zip(got["table"], want["table"]):
        assert row["tau_errors"].keys() == ref["tau_errors"].keys()
        for key, value in ref["tau_errors"].items():
            assert row["tau_errors"][key] == pytest.approx(value, rel=1e-9)
    assert got["spectral_match"]["entries_compared"] == \
        want["spectral_match"]["entries_compared"]


def test_roundtrip_one_direct_solve_per_grid(tmp_path, monkeypatch):
    # one 2N-bin solve per grid plus the re-match of the reconstruction
    import kreinsl.direct as direct

    calls = []
    find = direct.find_eigenvalues

    def counted(tau, lambda_max, **kwargs):
        calls.append(round(lambda_max / np.pi - 0.5))
        return find(tau, lambda_max, **kwargs)

    monkeypatch.setattr(direct, "find_eigenvalues", counted)
    assert main(["roundtrip", "--synthetic", "1:3:0.3", "--seed", "5",
                 "--grid-m", "64", "--n-bins", "4",
                 "--out", str(tmp_path)]) == 0
    assert calls == [8, 8, 4]


def test_roundtrip_builds_no_tail_proxy(tmp_path, monkeypatch):
    # the roundtrip report holds neither the tail proxy nor the
    # Hermitization defect, so its inverse rows compute neither; inverse
    # still reports the proxy
    import kreinsl.accelerant as accelerant

    calls = []
    proxy = accelerant.tail_proxy

    def counted(*args, **kwargs):
        calls.append(args[2])
        return proxy(*args, **kwargs)

    monkeypatch.setattr(accelerant, "tail_proxy", counted)
    assert main(["roundtrip", "--synthetic", "1:3:0.3", "--seed", "5",
                 "--grid-m", "64", "--n-bins", "4",
                 "--out", str(tmp_path / "rt")]) == 0
    assert calls == []
    data = nu0_file(tmp_path / "d.json")
    assert main(["inverse", str(data), "--grid-m", "64", "--n-bins", "4",
                 "--out", str(tmp_path / "inv")]) == 0
    assert calls == [4]


def _count_checks(monkeypatch):
    """Live counts of spectral-data checks, alpha rankings in the direct
    map, and Hermitian grid checks."""
    import kreinsl.direct as direct

    counts = dict.fromkeys(["data", "rank", "grid"], 0)

    def counted(key, fn, applies=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[key] += bool(applies(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SpectralData, "__post_init__",
                        counted("data", SpectralData.__post_init__))
    monkeypatch.setattr(MatrixGrid, "__post_init__",
                        counted("grid", MatrixGrid.__post_init__, lambda g: g.hermitian))
    monkeypatch.setattr(direct, "matrix_rank_psd",
                        counted("rank", direct.matrix_rank_psd))
    return counts


def test_roundtrip_checks_each_value_once(tmp_path, monkeypatch):
    # the three direct solves check their data and rank their alphas; the
    # prefixes, accelerants and reconstructions hold their invariants by
    # construction, so only the resampled input grid is checked
    counts = _count_checks(monkeypatch)
    assert main(["roundtrip", "--synthetic", "1:3:0.3", "--seed", "3",
                 "--grid-m", "128", "--n-bins", "16",
                 "--out", str(tmp_path)]) == 0
    assert counts == {"data": 3, "rank": 3, "grid": 1}


def test_inverse_checks_its_grids_once(tmp_path, monkeypatch):
    # the loaded data are checked once; of the grids only sigma, which is
    # not Hermitian by construction, is checked
    from kreinsl.direct import spectral_data
    from kreinsl.synthetic import fourier_tau

    path = tmp_path / "d.json"
    save_spectral_data(spectral_data(fourier_tau(2, 3, 0.3, 1, GridSpec(64)), 8), path)
    counts = _count_checks(monkeypatch)
    assert main(["inverse", str(path), "--grid-m", "384", "--n-bins", "8",
                 "--out", str(tmp_path / "out")]) == 0
    assert counts == {"data": 1, "rank": 0, "grid": 1}


def test_roundtrip_prefix_rank_identity_exits_1(tmp_path, capsys):
    # the 24-bin solve of this strong potential passes its own check, but
    # its 12-bin prefix has total rank 11: the rows that read the prefix
    # need the identity at 12, as a 12-bin solve does
    assert main(["roundtrip", "--synthetic", "1:3:8.0", "--seed", "0",
                 "--grid-m", "128", "--n-bins", "12",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "rank bookkeeping failed at truncation 12" in err
    assert "total rank 11" in err
    assert not (tmp_path / "roundtrip_report.json").exists()


def test_roundtrip_interior_error(tmp_path):
    # l2_interior is the relative trapezoid L2 error over the nodes
    # x < 0.9, here recomputed for the base row from its own solve
    from scipy.integrate import trapezoid

    from kreinsl.accelerant import build_accelerant
    from kreinsl.direct import spectral_data
    from kreinsl.krein import solve_krein
    from kreinsl.synthetic import fourier_tau

    m, n_bins = 64, 8
    assert main(["roundtrip", "--synthetic", "1:3:0.3", "--seed", "5",
                 "--grid-m", str(m), "--n-bins", str(n_bins),
                 "--out", str(tmp_path)]) == 0
    row = read_json(tmp_path / "roundtrip_report.json")["table"][0]
    assert (row["n_bins"], row["grid_m"]) == (n_bins, m)

    spec = GridSpec(m)
    tau = fourier_tau(1, 3, 0.3, 5, spec)
    data = spectral_data(tau, n_bins)
    tau_hat, _ = solve_krein(build_accelerant(data, spec, n_bins)).extract_tau()
    x = spec.points()
    inside = x < 0.9
    diff = np.abs(tau_hat.values - tau.values)[inside, 0, 0]
    ref = np.abs(tau.values)[inside, 0, 0]
    want = np.sqrt(trapezoid(diff ** 2, x[inside]) / trapezoid(ref ** 2, x[inside]))
    assert row["tau_errors"]["l2_interior"] == pytest.approx(want, rel=1e-12)
    assert row["tau_errors"]["l2_interior"] < row["tau_errors"]["l2"]


@pytest.mark.parametrize("argv", [
    ["--synthetic", "0:3:0.3"],
    ["--synthetic", "1:3:nan"],
    ["--synthetic", "1:3:inf"],
    ["--synthetic", "1:-1:0.3"],
    ["--synthetic", "2:3"],
    [],
], ids=["r-zero", "scale-nan", "scale-inf", "order-negative", "wrong-shape",
        "no-potential"])
def test_roundtrip_bad_potential_exits_2(tmp_path, capsys, argv):
    # R >= 1, ORDER >= 0 and a finite SCALE, or a tau file: anything else
    # is refused with one error line before any output is made
    out = tmp_path / "out"
    assert main(["roundtrip", *argv, "--grid-m", "64", "--n-bins", "2",
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert argv[-1:] == [] or repr(argv[-1]) in lines[-1]
    assert not out.exists()


def test_roundtrip_non_hermitian_file_exits_4(tmp_path, capsys):
    # a roundtrip compares real spectra, which a non-Hermitian potential
    # need not have
    rng = np.random.default_rng(5)
    vals = 0.2 * (rng.normal(size=(65, 2, 2)) + 1j * rng.normal(size=(65, 2, 2)))
    tau = tmp_path / "tau.json"
    save_matrix_grid(MatrixGrid(2, GridSpec(64), vals), tau)
    out = tmp_path / "out"
    assert main(["roundtrip", str(tau), "--grid-m", "64", "--n-bins", "2",
                 "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert "roundtrip requires a Hermitian potential" in lines[-1]
    assert not out.exists()


def test_roundtrip_file_and_synthetic_exits_2(tmp_path, capsys):
    # a tau file and --synthetic name two potentials: refused, not one
    # of them silently dropped
    tau = tmp_path / "tau.json"
    write_zero_tau(tau, r=2, m=64)
    out = tmp_path / "out"
    assert main(["roundtrip", str(tau), "--synthetic", "1:3:0.3",
                 "--grid-m", "64", "--n-bins", "2", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert "exactly one" in lines[-1]
    assert not out.exists()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text(
        "# run configuration\n"
        "grid_m = 128\n"
        "n_bins = 3\n"
    )
    tau = tmp_path / "tau.json"
    write_zero_tau(tau, m=128)
    rc = main(["direct", str(tau), "--config", str(cfg), "--n-bins", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    diag = read_json(tmp_path / "direct_diagnostics.json")
    assert diag["config"]["grid_m"] == 128      # from file
    assert diag["config"]["n_bins"] == 2        # flag wins


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text("grid_m four\n")
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    rc = main(["direct", str(tau), "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("text, key", [
    ('n_bins = "x"\n', "n_bins"),
    ("n_bins = 2.5\n", "n_bins"),
    ("grid_m = true\n", "grid_m"),
    ("grid_m = 4\n", "grid_m"),
    ('seed = "a"\n', "seed"),
    ("log_level = 3\n", "log_level"),
    ('log_level = "loud"\n', "log_level"),
], ids=["n_bins-str", "n_bins-float", "grid_m-bool", "grid_m-small",
        "seed-str", "log_level-int", "log_level-unknown"])
def test_bad_config_value_exits_2(tmp_path, capsys, text, key):
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    cfg = tmp_path / "run.toml"
    cfg.write_text(text)
    rc = main(["direct", str(tau), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_log_level_is_applied(tmp_path):
    # a fresh interpreter, so that the root logger gets its stderr handler
    import subprocess
    import sys

    import kreinsl

    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    cfg = tmp_path / "run.toml"
    src = os.path.dirname(os.path.dirname(kreinsl.__file__))
    code = ("import sys; from kreinsl.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    argv = [sys.executable, "-c", code, "direct", str(tau), "--config",
            str(cfg), "--n-bins", "2", "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=src)
    for level, logged in (("error", False), ("info", True)):
        cfg.write_text(f'log_level = "{level}"\n')
        done = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert done.returncode == 0
        assert ("INFO " in done.stderr) == logged


def test_lambda_max_is_not_a_knob(tmp_path, capsys):
    # the truncation is always pi (n_bins + 1/2): the flag is gone, a
    # config file that sets lambda_max is refused, and the echo keeps the
    # resolved value
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    cfg = tmp_path / "run.toml"
    cfg.write_text("lambda_max = 40.0\n")
    rc = main(["direct", str(tau), "--config", str(cfg), "--n-bins", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'lambda_max'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["direct", str(tau), "--lambda-max", "40", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert main(["direct", str(tau), "--n-bins", "2",
                 "--out", str(tmp_path / "ok")]) == 0
    diag = read_json(tmp_path / "ok" / "direct_diagnostics.json")
    assert diag["lambda_max"] == diag["config"]["lambda_max"] == np.pi * 2.5


def test_scan_step_is_not_a_knob(tmp_path, capsys):
    # the direct map counts at the bin edges only: the flag is gone, a
    # config file that sets scan_step is refused, and the echo has no such
    # key
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    with pytest.raises(SystemExit) as exc:
        main(["direct", str(tau), "--scan-step", "0.05", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "run.toml"
    cfg.write_text("scan_step = 0.05\n")
    rc = main(["direct", str(tau), "--config", str(cfg), "--n-bins", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "'scan_step'" in capsys.readouterr().err
    assert main(["direct", str(tau), "--n-bins", "2",
                 "--out", str(tmp_path / "ok")]) == 0
    diag = read_json(tmp_path / "ok" / "direct_diagnostics.json")
    assert "scan_step" not in diag["config"]


def test_direct_diagnostics_propagate_once_per_sign(tmp_path, monkeypatch):
    # the rank checks read the solve's own edge counts and singular values,
    # and the four identity residuals come from the solve's residue sweep
    # (at the probes and their negatives), so nothing propagates after it:
    # on this input the solve makes 5 sweeps (edges, 3 rounds, residues)
    import kreinsl.direct as direct

    calls = []
    sweep, solve = direct._sweep, direct.spectral_data

    def counted(*args, **kwargs):
        calls.append("sweep")
        return sweep(*args, **kwargs)

    def solved(*args, **kwargs):
        out = solve(*args, **kwargs)
        calls.append("solved")
        return out

    monkeypatch.setattr(direct, "_sweep", counted)
    monkeypatch.setattr(direct, "spectral_data", solved)
    tau = tmp_path / "tau.json"
    write_zero_tau(tau, r=2)
    assert main(["direct", str(tau), "--n-bins", "4",
                 "--out", str(tmp_path)]) == 0
    assert calls == ["sweep"] * 5 + ["solved"]


def test_direct_builds_the_factors_once(tmp_path, monkeypatch):
    # the solve's count, Newton and residue sweeps share one setup of tau,
    # and the identity residuals need no -tau* grid or propagate call
    import kreinsl.direct as direct

    builds = []
    factors = direct._factors

    def counted(tau):
        builds.append(isinstance(tau, direct._Factors))
        return factors(tau)

    def no_propagate(*args, **kwargs):
        raise AssertionError("propagate called")

    monkeypatch.setattr(direct, "_factors", counted)
    monkeypatch.setattr(direct, "propagate", no_propagate)
    tau = tmp_path / "tau.json"
    write_zero_tau(tau, r=2)
    assert main(["direct", str(tau), "--n-bins", "4",
                 "--out", str(tmp_path)]) == 0
    assert builds.count(False) == 1
    diag = read_json(tmp_path / "direct_diagnostics.json")
    assert len(diag["identity_residuals"]) == 4


def test_unknown_config_key_exits_2(tmp_path, capsys):
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    for text, key in (("grid_mm = 32\n", "grid_mm"),
                      ("threads = 4\n", "threads"),
                      ("[tolerances]\nhermitean = 1e-9\n", "tolerances")):
        cfg = tmp_path / "run.toml"
        cfg.write_text(text)
        rc = main(["direct", str(tau), "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_toml_config_accepted_and_echoed(tmp_path):
    # a literal string and a quoted key are plain TOML
    tau = tmp_path / "tau.json"
    write_zero_tau(tau, m=128)
    cfg = tmp_path / "run.toml"
    cfg.write_text("log_level = 'warning'\n\"grid_m\" = 128\n")
    assert main(["direct", str(tau), "--config", str(cfg), "--n-bins", "2",
                 "--out", str(tmp_path)]) == 0
    diag = read_json(tmp_path / "direct_diagnostics.json")
    assert diag["config"]["log_level"] == "warning"
    assert diag["config"]["grid_m"] == 128


@pytest.mark.parametrize("text, needle", [
    ('log_level = "a#b"\n', "'log_level'"),
    ("n_bins = 3\nn_bins = 3\n", "line 2"),
    ("[a]\nx = 1\n[a]\ny = 2\n", "line 3"),
], ids=["hash-in-string", "duplicate-key", "duplicate-table"])
def test_toml_config_refused_exits_2(tmp_path, capsys, text, needle):
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    cfg = tmp_path / "run.toml"
    cfg.write_text(text)
    rc = main(["direct", str(tau), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _set(path, value):
    """An edit that sets the field at `path` (keys and indices) of a doc."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


# (edit, exit code, text the error line must hold); each is a bad input
# file that must reach its documented exit code with one error line
SPECTRAL_CASES = {
    "r-fraction": (_set(["r"], 1.5), 2, "'r' must be of type integer"),
    "r-bool": (_set(["r"], True), 2, "'r' must be of type integer"),
    "r-str": (_set(["r"], "1"), 2, "'r' must be of type integer"),
    "entries-object": (_set(["entries"], {}), 2, "'entries' must be of type array"),
    "lambda-str": (_set(["entries", 1, "lambda"], "3.14"), 2, "'lambda'"),
    "lambda-null": (_set(["entries", 1, "lambda"], None), 2, "'lambda'"),
    "lambda-inf": (_set(["entries", -1, "lambda"], float("inf")), 4, "lambda"),
    "lambda-nan": (_set(["entries", 1, "lambda"], float("nan")), 4, "lambda"),
    "lambda-huge-int": (_set(["entries", -1, "lambda"], 10 ** 400), 4, "lambda"),
    "alpha-nan": (_set(["entries", 1, "alpha", 0, 0, 0], float("nan")), 4, "alpha"),
    "alpha-str": (_set(["entries", 1, "alpha", 0, 0, 0], "1"), 2, "alpha"),
    "entries-empty": (_set(["entries"], []), 4, "at least one entry"),
    "includes_zero-str": (_set(["includes_zero"], "no"), 2,
                          "'includes_zero' must be of type boolean"),
}
GRID_CASES = {
    "m-negative-empty": (lambda d: d.update(m=-1, values=[]), 4, "m >= 8"),
    "m-fraction": (_set(["m"], 64.5), 2, "'m'"),
    "hermitian-str": (_set(["hermitian"], "false"), 2, "'hermitian'"),
    "sample-nan": (_set(["values", 3, 0, 0, 1], float("nan")), 4, "values[3]"),
    "sample-inf": (_set(["values", 5, 0, 0, 0], float("-inf")), 4, "values[5]"),
    "sample-huge-int": (_set(["values", 7, 0, 0, 0], -10 ** 400), 4, "values[7]"),
    "sample-shape": (_set(["values", 3], [[0.0, 0.0]]), 2,
                     "values[3]: expected a matrix of 1 x 1 [re, im] number pairs"),
    "values-short": (lambda d: d.update(m=8, values=d["values"][:8]), 2,
                     "expected 9 matrices in 'values'"),
}


def _run_edited(tmp_path, capsys, command, src, case):
    edit, code, needle = case
    doc = json.loads(src.read_text())
    edit(doc)
    src.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # main returns, so no exception escaped it
    assert main([command, str(src), "--n-bins", "2", "--out", str(out)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert needle in lines[-1]
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "inverse"])
@pytest.mark.parametrize("case", list(SPECTRAL_CASES))
def test_bad_spectral_file_exit_code(tmp_path, capsys, command, case):
    src = nu0_file(tmp_path / "d.json")
    _run_edited(tmp_path, capsys, command, src, SPECTRAL_CASES[case])


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_bad_grid_file_exit_code(tmp_path, capsys, case):
    src = tmp_path / "tau.json"
    write_zero_tau(src)
    _run_edited(tmp_path, capsys, "direct", src, GRID_CASES[case])


def test_determinism_direct_outputs(tmp_path):
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert main(["direct", str(tau), "--grid-m", "64", "--n-bins", "3",
                     "--out", str(out)]) == 0
        outs.append((out / "spectral_data.json").read_bytes()
                    + (out / "direct_diagnostics.json").read_bytes())
    assert outs[0] == outs[1]
