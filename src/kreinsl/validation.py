"""Finite-truncation checks of the spectral-data characterization.

Four conditions decide whether a candidate dataset is realizable:

  a1  tail summability of the frequency offsets and bin mass defects,
  a2  cumulative rank counting (N r ranks through the first N bins),
  a3  completeness of the cosine system spanned by the data, decided
      through positivity of the discretized even convolution operator,
  a4  the same for the sine system and the odd operator.

All four read the accelerant's cosine-term list (accelerant_terms): a1
the offsets and defects of each bin's slice, a2 the ranks of its
coefficients, and a3/a4 its frequencies.  For truncated data the
accelerant is a sum of K such terms, so both kernels have rank at most
K r: a3/a4 take their spectra from a QR of the (m+1) x K matrix of
weighted cosines (sines) and an eigensolve of a core of size
min(m+1, K) r, never from the (m+1) r x (m+1) r matrices.

A finite dataset can never certify infinite tails, so a1 verdicts report
trends (partial-sum flattening) with an explicit inconclusive band, and
every verdict is tagged with the truncation level it was computed at.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .accelerant import accelerant_terms, build_accelerant, covered_bins
from .core import (
    GridSpec,
    SpectralData,
    block_flatten,
    matrix_rank_psd,
    trapezoid_weights,
)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"

# Last-quarter share of a partial sum below FLAT_PASS reads as flattening,
# above FLAT_FAIL as divergence; in between the data does not decide.
FLAT_PASS = 0.10
FLAT_FAIL = 0.20

# Smallest-eigenvalue cut for the completeness matrices: the inconclusive
# band matches the size of the Nystrom eigenvalue error at desk grids.
EIG_BAND = 1e-6


@dataclass
class A1Report:
    tilde_sum: float
    beta_sum: float
    max_bin_count: int
    trend_tilde: list[float]
    trend_beta: list[float]
    n_bins: int
    clamped: bool
    verdict: str


@dataclass
class A2Report:
    counts: list[int]
    targets: list[int]
    n0_found: int | None
    n_bins: int
    clamped: bool
    verdict: str


@dataclass
class A34Report:
    a3_min_eig: float | None
    a4_min_eig: float | None
    a3_null_vector: np.ndarray
    a4_null_vector: np.ndarray
    a3_n_below_band: int
    a4_n_below_band: int
    n_bins: int
    clamped: bool
    a3_verdict: str
    a4_verdict: str


@dataclass
class ConditionReport:
    a1: A1Report
    a2: A2Report
    a34: A34Report
    n_bins_requested: int
    notes: list[str] = field(default_factory=list)

    def verdicts(self) -> dict[str, str]:
        return {
            "a1": self.a1.verdict,
            "a2": self.a2.verdict,
            "a3": self.a34.a3_verdict,
            "a4": self.a34.a4_verdict,
        }

    def to_json(self) -> dict:
        return {
            "n_bins_requested": self.n_bins_requested,
            "notes": list(self.notes),
            "verdicts": self.verdicts(),
            "a1": asdict(self.a1),
            "a2": asdict(self.a2),
            **{k: {"min_eig": getattr(self.a34, f"{k}_min_eig"),
                   "n_below_band": getattr(self.a34, f"{k}_n_below_band"),
                   "verdict": getattr(self.a34, f"{k}_verdict"),
                   "n_bins": self.a34.n_bins}
               for k in ("a3", "a4")},
        }


def _flatness_verdict(trend: list[float]) -> str:
    total = trend[-1]
    if total <= 1e-30:
        return PASS
    if len(trend) < 4:
        return INCONCLUSIVE
    last_quarter = total - trend[(3 * len(trend)) // 4 - 1]
    share = last_quarter / total
    if share < FLAT_PASS:
        return PASS
    if share > FLAT_FAIL:
        return FAIL
    return INCONCLUSIVE


def check_a1(data: SpectralData, n_bins: int) -> A1Report:
    """Tail-summability trends of frequency offsets and bin mass defects.

    Pass needs both cumulative sums to flatten (last quarter below 10% of
    the total); a last-quarter share above 20% of either sum fails.  Data
    that stops short of the requested bins is clamped and the verdict
    capped at inconclusive.
    """
    eff, clamped = covered_bins(data, n_bins)
    if eff == 0:
        return A1Report(0.0, 0.0, 0, [0.0], [0.0], 0, True, INCONCLUSIVE)
    freq, coef, starts = accelerant_terms(data, eff)
    bins = list(enumerate(zip(starts[:-1], starts[1:]), 1))
    # offsets lambda_j - pi n, and defects I - sum alpha_j with A_j = 2 alpha_j
    tilde_parts = np.array([float(np.sum((freq[lo:hi] - np.pi * n) ** 2))
                            for n, (lo, hi) in bins])
    eye = np.eye(data.r)
    beta = np.array([eye - coef[lo:hi].sum(axis=0) / 2.0 for _, (lo, hi) in bins])
    beta_parts = np.linalg.norm(beta, ord=2, axis=(-2, -1)) ** 2
    trend_tilde = list(np.cumsum(tilde_parts))
    trend_beta = list(np.cumsum(beta_parts))
    verdict_t = _flatness_verdict(trend_tilde)
    verdict_b = _flatness_verdict(trend_beta)
    if FAIL in (verdict_t, verdict_b):
        verdict = FAIL
    elif INCONCLUSIVE in (verdict_t, verdict_b) or clamped:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return A1Report(
        tilde_sum=float(trend_tilde[-1]),
        beta_sum=float(trend_beta[-1]),
        max_bin_count=int(np.diff(starts).max()),
        trend_tilde=[float(v) for v in trend_tilde],
        trend_beta=[float(v) for v in trend_beta],
        n_bins=eff,
        clamped=clamped,
        verdict=verdict,
    )


def check_a2(data: SpectralData, n_bins: int) -> A2Report:
    """Cumulative rank counting against the N r target.

    Finds the smallest N0 such that the identity holds for every
    N0 <= N <= n_bins, if any; numerical rank counts eigenvalues above
    1e-9 times the matrix norm.
    """
    eff, clamped = covered_bins(data, n_bins)
    if eff == 0:
        return A2Report([], [], None, 0, True, INCONCLUSIVE)
    _, coef, starts = accelerant_terms(data, eff)
    # rank total of the data terms before each index; bin n ends at starts[n]
    ranks = matrix_rank_psd(coef[starts[0]:starts[-1]])
    total = np.concatenate([[0], np.cumsum(ranks)])
    counts = [int(c) for c in total[starts[1:] - starts[0]]]
    targets = [data.r * n for n in range(1, eff + 1)]
    n0 = None
    for n in range(eff, 0, -1):
        if counts[n - 1] != targets[n - 1]:
            break
        n0 = n
    if n0 is None:
        verdict = FAIL
    elif clamped:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return A2Report(counts=counts, targets=targets,
                    n0_found=n0, n_bins=eff, clamped=clamped, verdict=verdict)


def _identity_plus_nystrom(blocks: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Hermitian part of I + W^(1/2) K W^(1/2) from kernel samples K(x_i, x_j).

    `blocks` is the (m+1, m+1, r, r) sample array and is overwritten.  The
    arithmetic is that of the tests' `oracles.sym_nystrom_square` followed
    by the identity shift and the Hermitian average, done in place so that
    no array larger than the output matrix is made beside it.
    """
    s = np.sqrt(trapezoid_weights(spec))
    blocks *= s[:, None, None, None]
    blocks *= s[None, :, None, None]
    mat = block_flatten(blocks)
    mat += np.eye(mat.shape[0])
    mat_h = mat.conj()
    np.add(mat, mat_h.T, out=mat)
    mat /= 2.0
    return mat


def completeness_matrices(data: SpectralData, spec: GridSpec,
                          n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Discretized I + even operator and I + odd operator of the dataset.

    Builds the accelerant of the data (build_accelerant completes reduced
    datasets), forms the even/odd kernels, and returns the
    symmetrized Nystrom matrices shifted by the identity, whose
    eigenvalues approximate the operator spectra.

    The accelerant H2 is synthesized on the doubled grid, H2[k] = H(k h/2):
    the kernel arguments (x_i -+ x_j)/2 then land on its samples |i - j|
    and i + j, so

        H_e(x_i, x_j) = (H2[|i - j|] + H2[i + j]) / 2,
        H_o(x_i, x_j) = (H2[|i - j|] - H2[i + j]) / 2

    carry no interpolation error, and a structurally null direction of the
    data shows up as an eigenvalue at roundoff level rather than at O(h^2).
    The samples are gathered straight from H2, so the work arrays are the
    size of the two output matrices.
    """
    h2 = build_accelerant(data, GridSpec(2 * spec.m), n_bins).values
    i = np.arange(spec.m + 1)
    a = h2[np.abs(i[:, None] - i[None, :])]
    b = h2[i[:, None] + i[None, :]]
    he = a + b
    ho = np.subtract(a, b, out=a)
    del a, b
    he /= 2.0
    ho /= 2.0
    me = _identity_plus_nystrom(he, spec)
    del he
    mo = _identity_plus_nystrom(ho, spec)
    return me, mo


def _completeness_factors(data: SpectralData, spec: GridSpec, n_bins: int
                          ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Column factors and term coefficients of the two completeness operators.

    The truncated accelerant is the cosine sum H(x) = sum_k A_k cos(2 w_k x)
    of accelerant_terms, the terms build_accelerant adds.  Since
    cos w(x - t) +- cos w(x + t) is 2 cos wx cos wt or 2 sin wx sin wt,

        H_e(x_i, x_j) = sum_k cos(w_k x_i) cos(w_k x_j) A_k,
        H_o(x_i, x_j) = sum_k sin(w_k x_i) sin(w_k x_j) A_k,

    so W^(1/2) H_e,o W^(1/2) = B S B* with B = (sqrt(w) C) (x) I_r and S the
    block diagonal of the Hermitized A_k.  Returns (sqrt(w) C, A) for the
    even operator and for the odd one, whose w = 0 column vanishes and is
    left out.
    """
    freq, coef, _ = accelerant_terms(data, n_bins)
    coef = (coef + np.conj(np.swapaxes(coef, -1, -2))) / 2.0
    arg = np.outer(spec.points(), freq)
    s = np.sqrt(trapezoid_weights(spec))[:, None]
    return (s * np.cos(arg), coef), (s * np.sin(arg[:, 1:]), coef[1:])


def _factor_spectrum(cols: np.ndarray, coef: np.ndarray
                     ) -> tuple[float, np.ndarray, int]:
    """Smallest eigenvalue, a unit eigenvector for it and the count below
    EIG_BAND of M = I + B S B*, B = cols (x) I_r, S = diag(coef).

    With the reduced QR cols = Q R (Q of k = min(n, K) columns), M equals
    I + (Q (x) I) [(R (x) I) S (R (x) I)*] (Q (x) I)*: its spectrum is 1 + mu
    over the k r eigenvalues mu of the Hermitian core, plus 1 with
    multiplicity (n - k) r on the complement of range(Q) (x) C^r.  The vector
    is in block_flatten order.  When that unit eigenvalue is the smallest,
    the vector is a unit vector of the complement: the standard basis
    vector at the row of Q with the smallest norm, projected off range(Q).
    """
    n = cols.shape[0]
    r = coef.shape[-1]
    q, rr = np.linalg.qr(cols)
    k = q.shape[1]
    core = np.einsum("pk,kab,qk->paqb", rr, coef, rr, optimize=True)
    mu, y = np.linalg.eigh(core.reshape(k * r, k * r))
    eigs = 1.0 + mu
    n_below = int(np.count_nonzero(eigs < EIG_BAND))
    if k == n or eigs[0] <= 1.0:
        return float(eigs[0]), (q @ y[:, 0].reshape(k, r)).reshape(-1), n_below
    p = int(np.argmin(np.einsum("ip,ip->i", q, q)))
    e = -(q @ q[p])
    e[p] += 1.0
    vec = np.zeros((n, r), dtype=y.dtype)
    vec[:, 0] = e / np.linalg.norm(e)
    return 1.0, vec.reshape(-1), n_below


def check_a3_a4(data: SpectralData, spec: GridSpec, n_bins: int) -> A34Report:
    """Completeness verdicts through smallest operator eigenvalues.

    Pass needs the smallest eigenvalue of the discretized identity-plus-
    kernel matrix to clear +1e-6.  The discretized operators are
    nonnegative up to quadrature error by construction, so an eigenvalue
    that cannot clear the band is itself the deficiency signature and
    reads as fail; inconclusive is reserved for truncations clamped by
    short data (where a clean margin might still appear with more lines).
    The eigenvector of the smallest eigenvalue is reported for diagnostics
    in the weighted sample geometry, with the number of eigenvalues below
    the band (the count of null directions).  Data that cover no bin have
    no operator to test: both eigenvalues are None.

    The matrices are those of completeness_matrices, but neither is
    formed: the truncated accelerant is a sum of K cosine terms, so each
    kernel has rank at most K r (_completeness_factors), and the spectrum
    comes from one QR of an (m+1) x K matrix and one eigh of a Hermitian
    core of size min(m+1, K) r (_factor_spectrum).  The cost is
    O(m K^2 + K^3 r^3) time and O(m K) memory, against O(m^3 r^3) and
    O(m^2 r^2) for the dense matrices.
    """
    eff, clamped = covered_bins(data, n_bins)
    if eff == 0:
        z = np.zeros(0)
        return A34Report(None, None, z, z, 0, 0, 0, True,
                         INCONCLUSIVE, INCONCLUSIVE)
    out = [_factor_spectrum(cols, coef)
           for cols, coef in _completeness_factors(data, spec, eff)]

    def verdict(eig: float) -> str:
        if eig >= EIG_BAND:
            return INCONCLUSIVE if clamped else PASS
        return FAIL

    return A34Report(
        a3_min_eig=out[0][0], a4_min_eig=out[1][0],
        a3_null_vector=out[0][1], a4_null_vector=out[1][1],
        a3_n_below_band=out[0][2], a4_n_below_band=out[1][2],
        n_bins=eff, clamped=clamped,
        a3_verdict=verdict(out[0][0]), a4_verdict=verdict(out[1][0]),
    )


def check_all(data: SpectralData, spec: GridSpec, n_bins: int) -> ConditionReport:
    a1 = check_a1(data, n_bins)
    a2 = check_a2(data, n_bins)
    a34 = check_a3_a4(data, spec, n_bins)
    notes = []
    if a1.clamped:
        notes.append(
            f"data covers {a1.n_bins} of the requested {n_bins} bins; "
            "verdicts are capped at inconclusive"
        )
    return ConditionReport(a1=a1, a2=a2, a34=a34, n_bins_requested=n_bins,
                           notes=notes)
