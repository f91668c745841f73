import json

import numpy as np

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
    diag = json.loads((tmp_path / "direct_diagnostics.json").read_text())
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
    assert json.loads((tmp_path / "sigma.json").read_text())["kind"] \
        == "potential_primitive"


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
    rep = json.loads((tmp_path / "condition_report.json").read_text())
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
    rep = json.loads((tmp_path / "condition_report.json").read_text())
    assert rep["verdicts"]["a3"] == "fail"


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
    rep = json.loads((tmp_path / "roundtrip_report.json").read_text())
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


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text(
        "# run configuration\n"
        "grid_m = 128\n"
        "n_bins = 3\n"
        "scan_step = 0.05\n"
        "[tolerances]\n"
        'miura_equals = 1e-7\n'
    )
    tau = tmp_path / "tau.json"
    write_zero_tau(tau, m=128)
    rc = main(["direct", str(tau), "--config", str(cfg), "--n-bins", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    diag = json.loads((tmp_path / "direct_diagnostics.json").read_text())
    assert diag["config"]["grid_m"] == 128      # from file
    assert diag["config"]["n_bins"] == 2        # flag wins
    assert diag["config"]["tolerances"]["miura_equals"] == 1e-7


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text("grid_m four\n")
    tau = tmp_path / "tau.json"
    write_zero_tau(tau)
    rc = main(["direct", str(tau), "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


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
