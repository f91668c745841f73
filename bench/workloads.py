"""The benchmark's workloads: seeded inputs, CLI argument lists, and the
checks every operation's outputs must pass.

direct-r2     `direct` on a seeded r = 2 Fourier potential.  Exercises the
              eigenvalue search, the residue contours and the propagator;
              the Krein and validation layers stay idle.
inverse-r2    `validate` then `inverse` on the closed-form spectral data of
              a constant complex Hermitian r = 2 potential.  Exercises the
              validation eigensolves, accelerant synthesis and the Krein
              solver (complex path); neither input nor reference touches
              the direct map.
roundtrip-r1  `roundtrip --synthetic` on a seeded scalar potential.  Many
              small direct and Krein solves at two grids and two
              truncations, through the scalar propagation branch.
"""

import json
import math
import os
import sys

import numpy as np

N_BINS = 32
DIRECT_M = 256
INVERSE_M = 384
ROUNDTRIP_M = 128
ROUNDTRIP_BINS = 16

# Sanity ceilings, fixed so that every seed passes while a broken solver
# fails.  Relative L2 error of a reconstructed potential: 0.017-0.072 over
# seeds 1-10 (on inverse-r2 it grows like 0.05 max(c1, c2) <= 0.08).
TAU_REL_L2_CEILING = 0.1
# Roundtrip eigenvalue re-match: 3e-5 to 3e-4 over seeds 1-10.
LAMBDA_REMATCH_CEILING = 1e-2

_COMMON = ["--n-bins", str(N_BINS)]


def _matrix_json(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _complex(pairs) -> np.ndarray:
    """Complex array from the files' nested [re, im] pairs."""
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _rel_l2(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative trapezoid-L2 distance of two sampled matrix functions."""
    m = exact.shape[0] - 1
    w = np.full(m + 1, 1.0 / m)
    w[0] = w[-1] = 0.5 / m
    diff = np.linalg.norm(approx - exact, ord="fro", axis=(-2, -1)) ** 2
    ref = np.linalg.norm(exact, ord="fro", axis=(-2, -1)) ** 2
    return math.sqrt(diff @ w) / math.sqrt(ref @ w)


def _psd_rank(alpha: np.ndarray) -> int:
    w = np.linalg.eigvalsh((alpha + alpha.conj().T) / 2.0)
    return int(np.count_nonzero(w > 1e-9 * max(float(w.max()), 1e-300)))


class DirectR2:
    name = "direct-r2"
    r = 2
    modules = ["kreinsl.cli", "kreinsl.direct", "kreinsl.validation"]
    outputs = {"spectral_data.json": "spectral_data",
               "direct_diagnostics.json": "direct_diagnostics"}

    def make_inputs(self, seed: int, workdir: str, src: str) -> None:
        sys.path.insert(0, src)
        from kreinsl.core import GridSpec, save_matrix_grid
        from kreinsl.synthetic import fourier_tau
        self.tau_path = os.path.join(workdir, "tau.json")
        save_matrix_grid(fourier_tau(self.r, 3, 0.3, seed, GridSpec(DIRECT_M)),
                         self.tau_path)

    def steps(self, outdir: str) -> list:
        return [["direct", self.tau_path, "--grid-m", str(DIRECT_M),
                 *_COMMON, "--out", outdir]]

    def check(self, outdir: str) -> dict:
        with open(os.path.join(outdir, "spectral_data.json"), encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        rank = sum(_psd_rank(_complex(e["alpha"])) for e in entries[1:])
        if rank != N_BINS * self.r:
            raise CheckFailed(f"total rank {rank}, expected {N_BINS * self.r}")
        return {}


class InverseR2:
    """Closed-form data of tau = U diag(c1, c2) U*: per channel,
    lambda_n = sqrt(pi^2 n^2 + c^2), alpha_n = (pi n / lambda_n)^2 and
    alpha_0 = c / (1 - exp(-2c)), each times the channel projector."""

    name = "inverse-r2"
    r = 2
    modules = ["kreinsl.cli", "kreinsl.validation", "kreinsl.accelerant",
               "kreinsl.krein", "kreinsl.miura"]
    outputs = {"condition_report.json": "condition_report",
               "tau.json": "matrix_grid",
               "sigma.json": "matrix_grid",
               "inverse_diagnostics.json": "inverse_diagnostics"}

    def make_inputs(self, seed: int, workdir: str, src: str) -> None:
        rng = np.random.default_rng(seed)
        c1 = rng.uniform(0.4, 1.0)
        c = np.array([c1, c1 + rng.uniform(0.2, 0.6)])
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, rr = np.linalg.qr(z)
        u = q * (np.diag(rr) / np.abs(np.diag(rr)))
        proj = [np.outer(u[:, k], u[:, k].conj()) for k in range(self.r)]
        entries = [(0.0, sum(ck / (1.0 - math.exp(-2.0 * ck)) * p
                             for ck, p in zip(c, proj)))]
        for n in range(1, N_BINS + 1):
            for ck, p in zip(c, proj):
                lam = math.sqrt(math.pi ** 2 * n ** 2 + ck ** 2)
                entries.append((lam, (math.pi * n / lam) ** 2 * p))
        entries.sort(key=lambda e: e[0])
        doc = {"r": self.r, "includes_zero": True,
               "entries": [{"lambda": lam, "alpha": _matrix_json(a)}
                           for lam, a in entries]}
        self.data_path = os.path.join(workdir, "data.json")
        with open(self.data_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.tau_exact = (u * c) @ u.conj().T

    def steps(self, outdir: str) -> list:
        common = ["--grid-m", str(INVERSE_M), *_COMMON, "--out", outdir]
        return [["validate", self.data_path, *common],
                ["inverse", self.data_path, *common]]

    def check(self, outdir: str) -> dict:
        with open(os.path.join(outdir, "condition_report.json"), encoding="utf-8") as fh:
            verdicts = json.load(fh)["verdicts"]
        if sorted(verdicts) != ["a1", "a2", "a3", "a4"] \
                or set(verdicts.values()) != {"pass"}:
            raise CheckFailed(f"verdicts {verdicts}, expected four passes")
        with open(os.path.join(outdir, "tau.json"), encoding="utf-8") as fh:
            tau = _complex(json.load(fh)["values"])
        err = _rel_l2(tau, np.broadcast_to(self.tau_exact, tau.shape))
        if not err < TAU_REL_L2_CEILING:
            raise CheckFailed(f"tau_rel_l2 {err:.3e} above {TAU_REL_L2_CEILING}")
        return {"tau_rel_l2": err}


class RoundtripR1:
    name = "roundtrip-r1"
    r = 1
    modules = ["kreinsl.cli", "kreinsl.direct", "kreinsl.synthetic",
               "kreinsl.validation", "kreinsl.accelerant", "kreinsl.krein",
               "kreinsl.miura"]
    outputs = {"roundtrip_report.json": "roundtrip_report"}

    def make_inputs(self, seed: int, workdir: str, src: str) -> None:
        self.seed = seed

    def steps(self, outdir: str) -> list:
        return [["roundtrip", "--synthetic", f"{self.r}:3:0.3",
                 "--seed", str(self.seed), "--grid-m", str(ROUNDTRIP_M),
                 "--n-bins", str(ROUNDTRIP_BINS), "--out", outdir]]

    def check(self, outdir: str) -> dict:
        with open(os.path.join(outdir, "roundtrip_report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        base = [row for row in rep["table"]
                if row["n_bins"] == ROUNDTRIP_BINS and row["grid_m"] == ROUNDTRIP_M]
        if len(base) != 1:
            raise CheckFailed("roundtrip report has no unique base row")
        err = base[0]["tau_errors"]["l2"]
        lam_dev = rep["spectral_match"]["lambda_dev"]
        if not err < TAU_REL_L2_CEILING:
            raise CheckFailed(f"tau_rel_l2 {err:.3e} above {TAU_REL_L2_CEILING}")
        if not 0.0 <= lam_dev < LAMBDA_REMATCH_CEILING:
            raise CheckFailed(f"lambda_rematch {lam_dev:.3e} outside "
                              f"[0, {LAMBDA_REMATCH_CEILING})")
        return {"tau_rel_l2": err, "lambda_rematch": lam_dev}


class CheckFailed(Exception):
    """An operation's outputs exist but are wrong."""


WORKLOADS = {w.name: w for w in (DirectR2, InverseR2, RoundtripR1)}
