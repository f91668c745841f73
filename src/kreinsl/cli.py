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
from dataclasses import asdict, dataclass, field, fields

log = logging.getLogger("kreinsl")

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_IO = 2
EXIT_ACCELERANT = 3
EXIT_VALIDATION = 4
EXIT_CONDITION_FAIL = 5
EXIT_INCONCLUSIVE = 6

LOG_LEVELS = ("debug", "info", "warning", "error")


@dataclass
class RunConfig:
    """Resolved run parameters.  Each field is a config key and the flag of
    the same name; it takes values of its default's type only, within the
    bounds its metadata gives."""

    grid_m: int = field(default=256, metadata={"min": 8})
    n_bins: int = field(default=64, metadata={"min": 1})
    seed: int = 0
    log_level: str = field(default="info", metadata={"choices": LOG_LEVELS})

    def resolved_lambda_max(self) -> float:
        """The spectral truncation pi (n_bins + 1/2) that every run uses."""
        import math
        return math.pi * (self.n_bins + 0.5)

    def validate(self):
        from .core import ConfigurationError
        for f in fields(self):
            value, want = getattr(self, f.name), type(f.default)
            # bool is an int subclass, but no key is a flag
            if isinstance(value, bool) or not isinstance(value, want):
                problem = f"must be of type {want.__name__}"
            elif value < f.metadata.get("min", value):
                problem = f"must be at least {f.metadata['min']}"
            elif value not in f.metadata.get("choices", (value,)):
                problem = f"must be one of {', '.join(f.metadata['choices'])}"
            else:
                continue
            raise ConfigurationError(f"{f.name!r} {problem}, got {value!r}")

    def to_json(self) -> dict:
        return {**asdict(self), "lambda_max": self.resolved_lambda_max()}


def read_config_file(path) -> dict:
    """The TOML document at `path`; an unreadable or malformed file is a
    ConfigurationError that carries tomllib's line and column."""
    import tomllib
    from .core import ConfigurationError
    try:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _check_config_keys(doc: dict, path) -> None:
    """Refuse keys the run would ignore, so a misspelt one is not lost."""
    from .core import ConfigurationError
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(
                f"{path}: unknown config key {key!r}; known: "
                f"{', '.join(_CONFIG_KEYS)}")


def build_config(args) -> RunConfig:
    """Defaults, then the config file, then the flags of the same names;
    applies the resolved log level."""
    doc = {}
    if args.config:
        doc = read_config_file(args.config)
        _check_config_keys(doc, args.config)
    for key in _CONFIG_KEYS:
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    cfg = RunConfig(**doc)
    cfg.validate()
    logging.getLogger().setLevel(cfg.log_level.upper())
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


def _direct_diagnostics(data, report: dict, cfg: RunConfig, probes) -> dict:
    from .direct import rank_checks
    from .validation import check_a1

    resid = {f"{lam:.6g}": res for lam, res in
             zip(probes, report["identity_residuals"].tolist())}
    a1 = check_a1(data, cfg.n_bins)
    return {
        "identity_residuals": resid,
        "a1_partial_sums": {
            "tilde": a1.trend_tilde,
            "beta": a1.trend_beta,
            "max_bin_count": a1.max_bin_count,
        },
        "entries": len(data),
        **rank_checks(data, report),
        "lambda_max": cfg.resolved_lambda_max(),
    }


def cmd_direct(args) -> int:
    from .core import save_spectral_data
    from .direct import spectral_data

    cfg = build_config(args)
    tau = _load_tau(args.tau_file, cfg)
    report = {}
    # the inverse-pair identity is checked at these, in the residue sweep
    probes = [1.0, 2.5, 7.75, 0.25 + cfg.resolved_lambda_max() / 2.0]
    data = spectral_data(tau, cfg.n_bins, report, probes)
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "spectral_data.json")
    save_spectral_data(data, data_path)
    diag = _direct_diagnostics(data, report, cfg, probes)
    diag["config"] = cfg.to_json()
    _write_json(diag, os.path.join(args.out, "direct_diagnostics.json"))
    log.info("wrote %s (%d entries)", data_path, len(data))
    return EXIT_OK


def _inverse_solve(data, n_bins: int, grid_m: int):
    """Measure -> accelerant -> triangular solve: the accelerant, its Krein
    solution, the truncation used and the notes on the data."""
    from .accelerant import build_accelerant, covered_bins
    from .core import GridSpec
    from .krein import solve_krein

    notes = []
    if not data.includes_zero:
        notes.append("reduced dataset: prepended the unit mass at lambda = 0")
    used, clamped = covered_bins(data, n_bins)
    if clamped:
        notes.append(f"data covers {used} bins; truncation clamped from {n_bins}")
    H = build_accelerant(data, GridSpec(grid_m), used)
    return H, solve_krein(H), used, notes


def _inverse_pipeline(data, n_bins: int, grid_m: int):
    """Measure -> accelerant -> triangular solve -> potential, with the
    inverse diagnostics."""
    from .accelerant import tail_proxy

    H, sol, n_bins, notes = _inverse_solve(data, n_bins, grid_m)
    tau, defect = sol.extract_tau()
    diagnostics = {
        "krein_residual": sol.residual,
        "residual_x": sol.residual_x,
        "min_pivot": sol.min_pivot,
        "min_pivot_x": sol.min_pivot_x,
        "dense_from_x": sol.dense_from_x,
        "hermitization_defect": defect,
        "accelerant_tail_proxy": tail_proxy(data, H.spec, n_bins, h_full=H),
        "n_bins_used": n_bins,
        "notes": notes,
    }
    return tau, diagnostics


def cmd_inverse(args) -> int:
    from .core import load_spectral_data, save_matrix_grid
    from .miura import miura

    cfg = build_config(args)
    data = load_spectral_data(args.data_file)
    tau, diagnostics = _inverse_pipeline(data, cfg.n_bins, cfg.grid_m)
    os.makedirs(args.out, exist_ok=True)
    save_matrix_grid(tau, os.path.join(args.out, "tau.json"))
    save_matrix_grid(miura(tau), os.path.join(args.out, "sigma.json"),
                     extra={"kind": "potential_primitive"})
    diagnostics["config"] = cfg.to_json()
    _write_json(diagnostics, os.path.join(args.out, "inverse_diagnostics.json"))
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
    os.makedirs(args.out, exist_ok=True)
    _write_json(doc, os.path.join(args.out, "condition_report.json"))
    verdicts = report.verdicts()
    log.info("verdicts: %s", verdicts)
    if "fail" in verdicts.values():
        return EXIT_CONDITION_FAIL
    if "inconclusive" in verdicts.values():
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _relative_errors(a, b):
    """Relative and absolute trapezoid L2 and max errors of a against b,
    plus the relative L2 error over the nodes x < 0.9 alone, away from
    the boundary layer at x = 1."""
    import numpy as np
    from .core import _trapezoid_weights, trapezoid_weights
    w = trapezoid_weights(a.spec)
    diff = np.linalg.norm(a.values - b.values, ord="fro", axis=(-2, -1))
    ref = np.linalg.norm(b.values, ord="fro", axis=(-2, -1))
    l2 = float(np.sqrt(diff ** 2 @ w))
    l2_ref = float(np.sqrt(ref ** 2 @ w))
    linf = float(diff.max())
    linf_ref = float(ref.max())
    # trapezoid weights of [0, x_k], x_k the last node below 0.9
    k = int(np.count_nonzero(a.spec.points() < 0.9)) - 1
    w_in = _trapezoid_weights(k, k + 1, a.spec.h)[0]
    l2_in = float(np.sqrt(diff[:k + 1] ** 2 @ w_in))
    l2_in_ref = float(np.sqrt(ref[:k + 1] ** 2 @ w_in))
    return {
        "l2": l2 / l2_ref if l2_ref > 0 else l2,
        "linf": linf / linf_ref if linf_ref > 0 else linf,
        "l2_abs": l2,
        "linf_abs": linf,
        "l2_interior": l2_in / l2_in_ref if l2_in_ref > 0 else l2_in,
    }


def _synthetic_tau(text: str, cfg: RunConfig):
    """The seeded Fourier potential that --synthetic R:ORDER:SCALE names;
    R >= 1, ORDER >= 0 and a finite SCALE, else a ConfigurationError."""
    import math
    from .core import ConfigurationError, GridSpec
    from .synthetic import fourier_tau
    try:
        r, order, scale = text.split(":")
        r, order, scale = int(r), int(order), float(scale)
        valid = r >= 1 and order >= 0 and math.isfinite(scale)
    except ValueError:
        valid = False
    if not valid:
        raise ConfigurationError(
            f"--synthetic expects R:ORDER:SCALE with integers R >= 1 and "
            f"ORDER >= 0 and a finite SCALE, got {text!r}")
    return fourier_tau(r, order, scale, cfg.seed, GridSpec(cfg.grid_m))


def cmd_roundtrip(args) -> int:
    import numpy as np
    from .core import ConfigurationError, GridSpec, resample_matrix_grid
    from .direct import spectral_data, spectral_prefix

    cfg = build_config(args)
    if bool(args.synthetic) == bool(args.tau_file):
        raise ConfigurationError(
            "roundtrip needs exactly one of a tau file and --synthetic")
    if args.synthetic:
        tau = _synthetic_tau(args.synthetic, cfg)
    else:
        tau = _load_tau(args.tau_file, cfg)
    if not tau.hermitian:
        from .core import ValidationError
        raise ValidationError("roundtrip requires a Hermitian potential")

    # The data of bins 0..N are a prefix of those of bins 0..2N, so each
    # grid gets one direct solve at 2N bins and its N-bin rows read the
    # checked prefix.
    table, base = [], None
    for gm in (cfg.grid_m, 2 * cfg.grid_m):
        tau_gm = resample_matrix_grid(tau, GridSpec(gm))
        report = {}
        full = spectral_data(tau_gm, 2 * cfg.n_bins, report)
        prefix = spectral_prefix(full, report, cfg.n_bins)
        for nb, data in ((cfg.n_bins, prefix), (2 * cfg.n_bins, full)):
            sol = _inverse_solve(data, nb, gm)[1]
            tau_hat = sol.tau()
            errs = _relative_errors(tau_hat, tau_gm)
            table.append({"n_bins": nb, "grid_m": gm, "tau_errors": errs,
                          "krein_residual": sol.residual})
            if nb == cfg.n_bins and gm == cfg.grid_m:
                base = (data, tau_hat)
            log.info("roundtrip n_bins=%d m=%d: rel L2 %.3e", nb, gm, errs["l2"])
    table.sort(key=lambda row: (row["n_bins"], row["grid_m"]))

    data, tau_hat = base
    redata = spectral_data(tau_hat, cfg.n_bins)
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
    os.makedirs(args.out, exist_ok=True)
    _write_json(doc, os.path.join(args.out, "roundtrip_report.json"))
    log.info("spectral re-match: |dlambda| %.3e, |dalpha| %.3e", lam_dev, alpha_dev)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-m", type=int, default=None,
                   help="number of grid subintervals of [0, 1]")
    p.add_argument("--n-bins", type=int, default=None,
                   help="frequency-bin truncation level")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--config", default=None, help="TOML config file")
    p.add_argument("--log-level", default=None, choices=LOG_LEVELS)


# Each command: its help line, its input positional, and its handler.
_COMMANDS = {
    "direct": ("potential file -> spectral data", "tau_file", cmd_direct),
    "inverse": ("spectral data -> potential", "data_file", cmd_inverse),
    "validate": ("check characterization conditions", "data_file", cmd_validate),
    "roundtrip": ("direct then inverse, with comparison", "tau_file", cmd_roundtrip),
}


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every command's subparser, or only that
    of `command` when it is given; the usage line names every command
    either way, so the two parse and fail alike on that command's
    arguments."""
    parser = argparse.ArgumentParser(
        prog="kreinsl",
        description="Direct and inverse spectral runs for matrix "
                    "Sturm-Liouville potentials",
    )
    names = list(_COMMANDS) if command is None else [command]
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, positional, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name == "roundtrip":
            p.add_argument(positional, nargs="?")
            p.add_argument("--synthetic", default=None, metavar="R:ORDER:SCALE",
                           help="generate a seeded Fourier potential instead of "
                                "reading a file")
        else:
            p.add_argument(positional)
        _add_common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run names its command first; --help, no command or an unknown one
    # build every subparser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = make_parser(command).parse_args(argv)
    # the level is set once the config is resolved (build_config)
    logging.basicConfig(format="%(levelname)s %(message)s")

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
        message, code = f"no such file: {exc.filename}", EXIT_IO
    except (ParseError, ConfigurationError, OSError) as exc:
        message, code = str(exc), EXIT_IO
    except NotAnAccelerantError as exc:
        message, code = str(exc), EXIT_ACCELERANT
    except ValidationError as exc:
        message, code = str(exc), EXIT_VALIDATION
    except KreinslError as exc:
        message, code = str(exc), EXIT_NUMERIC
    except LinAlgError as exc:
        message, code = f"linear algebra failure: {exc}", EXIT_NUMERIC
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
