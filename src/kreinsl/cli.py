"""Command-line front end: direct, inverse, validate, and roundtrip runs.

Every run reads an optional TOML config (flags override file values),
embeds the fully resolved configuration in its JSON outputs, and uses no
time- or host-dependent state, so identical inputs produce bit-identical
outputs.

Exit codes: 0 success; 1 unexpected numerical failure; 2 I/O, parse, or
configuration problems; 3 the kernel is not an accelerant; 4 input fails
validation; 5 a characterization condition fails; 6 checks were
inconclusive only.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field

log = logging.getLogger("kreinsl")

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_IO = 2
EXIT_ACCELERANT = 3
EXIT_VALIDATION = 4
EXIT_CONDITION_FAIL = 5
EXIT_INCONCLUSIVE = 6

_DEFAULT_TOLERANCES = {
    "miura_equals": 1e-6,
    "hermitian": 1e-12,
    "psd": 1e-10,
}


@dataclass
class RunConfig:
    """Resolved run parameters; lambda_max defaults to pi (n_bins + 1/2)."""

    grid_m: int = 256
    n_bins: int = 64
    lambda_max: float | None = None
    scan_step: float = 0.05
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))
    seed: int = 0
    log_level: str = "info"

    def resolved_lambda_max(self) -> float:
        import math
        return self.lambda_max if self.lambda_max is not None \
            else math.pi * (self.n_bins + 0.5)

    def validate(self):
        from .core import ConfigurationError
        if self.grid_m < 8:
            raise ConfigurationError("grid_m must be at least 8")
        if self.n_bins < 1:
            raise ConfigurationError("n_bins must be positive")
        if self.scan_step <= 0:
            raise ConfigurationError("scan_step must be positive")
        import math
        if self.resolved_lambda_max() < math.pi:
            raise ConfigurationError("lambda_max must be at least pi")

    def to_json(self) -> dict:
        return {
            "grid_m": self.grid_m,
            "n_bins": self.n_bins,
            "lambda_max": self.resolved_lambda_max(),
            "scan_step": self.scan_step,
            "tolerances": dict(sorted(self.tolerances.items())),
            "seed": self.seed,
            "log_level": self.log_level,
        }


def _parse_toml_scalar(text: str, where: str):
    from .core import ConfigurationError
    t = text.strip()
    if t.startswith('"') and t.endswith('"') and len(t) >= 2:
        return t[1:-1]
    if t in ("true", "false"):
        return t == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        raise ConfigurationError(f"{where}: cannot parse value {text!r}") from None


def read_config_file(path) -> dict:
    """Minimal TOML subset: comments, [tables], and scalar key = value."""
    from .core import ConfigurationError
    out: dict = {}
    section = out
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            section = out.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        section[key.strip()] = _parse_toml_scalar(value, f"{path}:{lineno}")
    return out


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        doc = read_config_file(args.config)
        for key in ("grid_m", "n_bins", "lambda_max", "scan_step", "seed",
                    "log_level"):
            if key in doc:
                setattr(cfg, key, doc[key])
        if isinstance(doc.get("tolerances"), dict):
            cfg.tolerances.update(doc["tolerances"])
    for key in ("grid_m", "n_bins", "lambda_max", "scan_step", "seed"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            setattr(cfg, key, val)
    if args.log_level:
        cfg.log_level = args.log_level
    cfg.validate()
    return cfg


def _write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _load_tau(path, cfg: RunConfig):
    from .core import GridSpec, load_matrix_grid, resample_matrix_grid
    tau = load_matrix_grid(path)
    if tau.spec.m != cfg.grid_m:
        log.info("resampling potential from m=%d to m=%d", tau.spec.m, cfg.grid_m)
        tau = resample_matrix_grid(tau, GridSpec(cfg.grid_m))
    return tau


def _direct_diagnostics(tau, data, cfg: RunConfig) -> dict:
    import numpy as np
    from .direct import propagate
    from .validation import check_a1

    samples = [1.0, 2.5, 7.75, 0.25 + cfg.resolved_lambda_max() / 2.0]
    resid = {}
    for lam in samples:
        bv = propagate(tau, lam)
        resid[f"{lam:.6g}"] = bv.identity_residual
    a1 = check_a1(data, cfg.n_bins)
    return {
        "identity_residuals": resid,
        "a1_partial_sums": {
            "tilde": a1.trend_tilde,
            "beta": a1.trend_beta,
            "max_bin_count": a1.max_bin_count,
        },
        "entries": len(data),
        "lambda_max": cfg.resolved_lambda_max(),
    }


def cmd_direct(args) -> int:
    from .core import save_spectral_data
    from .direct import spectral_data

    cfg = build_config(args)
    tau = _load_tau(args.tau_file, cfg)
    data = spectral_data(tau, cfg.n_bins, scan_step=cfg.scan_step)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    data_path = os.path.join(outdir, "spectral_data.json")
    save_spectral_data(data, data_path)
    diag = _direct_diagnostics(tau, data, cfg)
    diag["config"] = cfg.to_json()
    _write_json(diag, os.path.join(outdir, "direct_diagnostics.json"))
    log.info("wrote %s (%d entries)", data_path, len(data))
    return EXIT_OK


def _inverse_pipeline(data, cfg: RunConfig):
    """Measure -> accelerant -> triangular solve -> potential and primitive."""
    from .accelerant import build_accelerant, coverage_bins, tail_proxy
    from .core import GridSpec
    from .krein import solve_krein
    from .miura import miura
    from .validation import prepend_unit_mass

    notes = []
    if not data.includes_zero:
        data = prepend_unit_mass(data)
        notes.append("reduced dataset: prepended the unit mass at lambda = 0")
    n_bins = cfg.n_bins
    top = coverage_bins(data)
    if n_bins > top:
        notes.append(f"data covers {top} bins; truncation clamped from {n_bins}")
        n_bins = top
    spec = GridSpec(cfg.grid_m)
    H = build_accelerant(data, spec, n_bins)
    sol = solve_krein(H)
    tau, defect = sol.extract_tau(hermitize=True)
    sigma = miura(tau)
    diagnostics = {
        "krein_residual": sol.residual,
        "min_pivot": sol.min_pivot,
        "hermitization_defect": defect,
        "accelerant_tail_proxy": tail_proxy(data, spec, n_bins),
        "n_bins_used": n_bins,
        "notes": notes,
    }
    return tau, sigma, diagnostics


def cmd_inverse(args) -> int:
    from .core import load_spectral_data, save_matrix_grid

    cfg = build_config(args)
    data = load_spectral_data(args.data_file)
    tau, sigma, diagnostics = _inverse_pipeline(data, cfg)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    save_matrix_grid(tau, os.path.join(outdir, "tau.json"))
    save_matrix_grid(sigma.sigma, os.path.join(outdir, "sigma.json"),
                     extra={"kind": "potential_primitive"})
    diagnostics["config"] = cfg.to_json()
    _write_json(diagnostics, os.path.join(outdir, "inverse_diagnostics.json"))
    log.info("wrote tau.json / sigma.json (residual %.3e)",
             diagnostics["krein_residual"])
    return EXIT_OK


def cmd_validate(args) -> int:
    from .core import GridSpec, load_spectral_data
    from .validation import check_all

    cfg = build_config(args)
    data = load_spectral_data(args.data_file)
    report = check_all(data, GridSpec(cfg.grid_m), cfg.n_bins)
    doc = report.to_json()
    doc["config"] = cfg.to_json()
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    _write_json(doc, os.path.join(outdir, "condition_report.json"))
    verdicts = report.verdicts()
    log.info("verdicts: %s", verdicts)
    if "fail" in verdicts.values():
        return EXIT_CONDITION_FAIL
    if "inconclusive" in verdicts.values():
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _relative_errors(a, b):
    import numpy as np
    from .core import trapezoid_weights
    w = trapezoid_weights(a.spec)
    diff = np.linalg.norm(a.values - b.values, ord="fro", axis=(-2, -1))
    ref = np.linalg.norm(b.values, ord="fro", axis=(-2, -1))
    l2 = float(np.sqrt(diff ** 2 @ w))
    l2_ref = float(np.sqrt(ref ** 2 @ w))
    linf = float(diff.max())
    linf_ref = float(ref.max())
    return {
        "l2": l2 / l2_ref if l2_ref > 0 else l2,
        "linf": linf / linf_ref if linf_ref > 0 else linf,
        "l2_abs": l2,
        "linf_abs": linf,
    }


def _roundtrip_once(tau, n_bins: int, grid_m: int, cfg: RunConfig):
    import numpy as np
    from .core import GridSpec, resample_matrix_grid
    from .direct import spectral_data

    spec = GridSpec(grid_m)
    tau_m = resample_matrix_grid(tau, spec)
    data = spectral_data(tau_m, n_bins, scan_step=cfg.scan_step)
    sub_cfg = RunConfig(grid_m=grid_m, n_bins=n_bins, scan_step=cfg.scan_step,
                        tolerances=cfg.tolerances, seed=cfg.seed)
    tau_hat, sigma_hat, diag = _inverse_pipeline(data, sub_cfg)
    errs = _relative_errors(tau_hat, tau_m)
    return data, tau_m, tau_hat, errs, diag


def cmd_roundtrip(args) -> int:
    import numpy as np
    from .direct import spectral_data

    cfg = build_config(args)
    if args.synthetic:
        from .core import GridSpec
        from .synthetic import fourier_tau
        try:
            r, order, scale = args.synthetic.split(":")
            r, order, scale = int(r), int(order), float(scale)
        except ValueError:
            print("--synthetic expects r:order:scale", file=sys.stderr)
            return EXIT_IO
        tau = fourier_tau(r, order, scale, cfg.seed, GridSpec(cfg.grid_m))
    else:
        if not args.tau_file:
            print("roundtrip needs a tau file or --synthetic", file=sys.stderr)
            return EXIT_IO
        tau = _load_tau(args.tau_file, cfg)
    if not tau.hermitian:
        from .core import ValidationError
        raise ValidationError("roundtrip requires a Hermitian potential")

    table = []
    base = None
    for nb in (cfg.n_bins, 2 * cfg.n_bins):
        for gm in (cfg.grid_m, 2 * cfg.grid_m):
            data, tau_m, tau_hat, errs, diag = _roundtrip_once(tau, nb, gm, cfg)
            row = {"n_bins": nb, "grid_m": gm, "tau_errors": errs,
                   "krein_residual": diag["krein_residual"]}
            table.append(row)
            if nb == cfg.n_bins and gm == cfg.grid_m:
                base = (data, tau_hat)
            log.info("roundtrip n_bins=%d m=%d: rel L2 %.3e", nb, gm, errs["l2"])

    data, tau_hat = base
    redata = spectral_data(tau_hat, cfg.n_bins, scan_step=cfg.scan_step)
    k = min(len(data), len(redata))
    lam_dev = float(np.max(np.abs(data.lambdas[:k] - redata.lambdas[:k])))
    alpha_dev = float(np.max(np.linalg.norm(
        data.alphas[:k] - redata.alphas[:k], ord=2, axis=(-2, -1))))
    doc = {
        "table": table,
        "spectral_match": {"lambda_dev": lam_dev, "alpha_dev": alpha_dev,
                           "entries_compared": k},
        "config": cfg.to_json(),
    }
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    _write_json(doc, os.path.join(outdir, "roundtrip_report.json"))
    log.info("spectral re-match: |dlambda| %.3e, |dalpha| %.3e", lam_dev, alpha_dev)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-m", dest="grid_m", type=int, default=None,
                   help="number of grid subintervals of [0, 1]")
    p.add_argument("--n-bins", dest="n_bins", type=int, default=None,
                   help="frequency-bin truncation level")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--scan-step", dest="scan_step", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory (default .)")
    p.add_argument("--config", default=None, help="TOML config file")
    p.add_argument("--log-level", default=None,
                   choices=["debug", "info", "warning", "error"])


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinsl",
        description="Direct and inverse spectral runs for matrix "
                    "Sturm-Liouville potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("direct", help="potential file -> spectral data")
    p.add_argument("tau_file")
    _add_common(p)
    p.set_defaults(handler=cmd_direct)

    p = sub.add_parser("inverse", help="spectral data -> potential")
    p.add_argument("data_file")
    _add_common(p)
    p.set_defaults(handler=cmd_inverse)

    p = sub.add_parser("validate", help="check characterization conditions")
    p.add_argument("data_file")
    _add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("roundtrip", help="direct then inverse, with comparison")
    p.add_argument("tau_file", nargs="?")
    p.add_argument("--synthetic", default=None, metavar="R:ORDER:SCALE",
                   help="generate a seeded Fourier potential instead of "
                        "reading a file")
    _add_common(p)
    p.set_defaults(handler=cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(level=(args.log_level or "info").upper(),
                        format="%(levelname)s %(message)s")

    from numpy.linalg import LinAlgError

    from .core import (
        ConfigurationError,
        KreinslError,
        NotAnAccelerantError,
        ParseError,
        ValidationError,
    )

    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except (ParseError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NotAnAccelerantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ACCELERANT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KreinslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
