"""Shared domain types, uniform grids, quadrature, and JSON file I/O.

The package's one trapezoid rule lives here: `_trapezoid_weights` gives
the weights on [0, x_i] of a band of rows (the Krein solve and its
residual, the roundtrip's interior error), `trapezoid_weights` its row
on [0, 1].

Instances are immutable, so safe to share between threads.  Data are
checked where they enter, by the public constructors and loaders.
`_unchecked` only freezes; it serves prefixes of checked data
(`direct.spectral_prefix`), (0, I) plus checked reduced data
(`accelerant.prepend_unit_mass`) and grids Hermitized as (A + A^H) / 2
(`KreinSolution.tau`, `build_accelerant`, `fourier_tau`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Tolerances used by every constructor that checks matrix structure.
HERMITIAN_RTOL = 1e-12
PSD_RTOL = 1e-10
# Eigenvalues above this share of the largest count toward matrix_rank_psd.
RANK_RTOL = 1e-9


class KreinslError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KreinslError):
    """A data file could not be parsed; message carries line/field position."""


class ValidationError(KreinslError):
    """Input violates a documented invariant; message names the offender."""


class ConfigurationError(KreinslError):
    """A run parameter is out of its documented range."""


class PoleProximityError(KreinslError):
    """The Weyl function was requested too close to one of its poles."""

    def __init__(self, msg: str, sigma_min: float):
        super().__init__(msg)
        self.sigma_min = sigma_min


class ExtractionError(KreinslError):
    """A norming-constant candidate failed its positivity check."""


class ConsistencyError(KreinslError):
    """The eigenvalue count, the roots found and the residue ranks disagree."""


class CoverageError(KreinslError):
    """Spectral data does not reach the requested truncation level."""


class NotAnAccelerantError(KreinslError):
    """The convolution kernel fails invertibility at some truncation point."""

    def __init__(self, msg: str, x: float, pivot: float):
        super().__init__(msg)
        self.x = x
        self.pivot = pivot


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


def _herm_defects(a: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, ||A - A*|| relative to 1 + ||A|| in 2-norms;
    or, when every matrix passes HERMITIAN_RTOL with it, the Frobenius
    bound on that (||D||_2 <= ||D||_F, ||A||_2 >= ||A||_F / sqrt(r)),
    which settles the check without an SVD."""
    skew = a - np.conj(np.swapaxes(a, -1, -2))
    bound = np.linalg.norm(skew, axis=(-2, -1)) / (
        1.0 + np.linalg.norm(a, axis=(-2, -1)) / np.sqrt(a.shape[-1]))
    if np.all(bound <= HERMITIAN_RTOL):
        return bound
    return np.linalg.norm(skew, ord=2, axis=(-2, -1)) / (
        1.0 + np.linalg.norm(a, ord=2, axis=(-2, -1)))


@dataclass
class GridSpec:
    """Uniform grid on [0, 1] with m subintervals and nodes x_i = i/m."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 8:
            raise ValidationError(f"grid needs an integer m >= 8, got {self.m!r}")
        self.m = int(self.m)

    @property
    def h(self) -> float:
        return 1.0 / self.m

    def points(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m


def _trapezoid_weights(lo: int, i1: int, h: float) -> np.ndarray:
    """Trapezoid weights on [0, x_i] of the rows i = lo..i1-1: w[i - lo, k]
    for k < i1, zero for k > i; the zero-length row 0 gets weight 0."""
    w = np.tril(np.full((i1 - lo, i1), h), k=lo)
    w[:, 0] = w[np.arange(i1 - lo), np.arange(lo, i1)] = h / 2.0
    if lo == 0:
        w[0, 0] = 0.0
    return w


def trapezoid_weights(spec: GridSpec) -> np.ndarray:
    """Composite trapezoid weights on [0, 1]; w_0 = w_m = h/2, else h."""
    return _trapezoid_weights(spec.m, spec.m + 1, spec.h)[0]


def resample_matrix_grid(grid: MatrixGrid, spec: GridSpec) -> MatrixGrid:
    """Resample onto another uniform grid via the piecewise-linear model."""
    if spec == grid.spec:
        return grid
    pos = np.arange(spec.m + 1) * (grid.spec.m / spec.m)
    lo = np.minimum(pos.astype(int), grid.spec.m - 1)
    frac = (pos - lo)[:, None, None]
    vals = (1.0 - frac) * grid.values[lo] + frac * grid.values[lo + 1]
    return MatrixGrid(grid.r, spec, vals, hermitian=grid.hermitian)


def bin_index(lam):
    """Frequency bin of a positive lambda (an int), or of each of an array
    of them (an int array).

    Bin 1 is (0, 3*pi/2]; bin n > 1 is (pi*n - pi/2, pi*n + pi/2].  A value
    sitting on a bin boundary belongs to the lower bin; values within a
    relative 1e-9 of a boundary are snapped onto it first, so that
    floating-point representations of exact boundary points bin
    deterministically.
    """
    u = np.asarray(lam, dtype=float)
    if np.any(u <= 0):
        raise ValidationError(f"bin_index needs lambda > 0, got {u.min()}")
    u = u / np.pi - 0.5
    nearest = np.round(u)
    snap = np.abs(u - nearest) <= 1e-9 * np.maximum(1.0, np.abs(u))
    n = np.maximum(1, np.ceil(np.where(snap, nearest, u)).astype(int))
    return int(n) if n.ndim == 0 else n


@dataclass
class MatrixGrid:
    """An r x r complex matrix function sampled at the nodes of `spec`.

    Quadrature, `resample_matrix_grid` and the half-grid midpoints of the
    accelerant and transformation kernels interpret samples as continuous
    and piecewise linear between nodes; the direct propagator reads them
    through the not-a-knot cubic spline (see `kreinsl.direct`).  When
    `hermitian` is set the constructor verifies that every sample is
    Hermitian within HERMITIAN_RTOL.
    """

    r: int
    spec: GridSpec
    values: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        want = (self.spec.m + 1, self.r, self.r)
        if v.shape != want:
            raise ValidationError(f"matrix grid values have shape {v.shape}, expected {want}")
        if self.hermitian:
            defect = float(np.max(_herm_defects(v)))
            if defect > HERMITIAN_RTOL:
                raise ValidationError(
                    f"grid flagged hermitian but worst sample defect is {defect:.3e}"
                )
        self.values = _frozen(v)

    def conj_transpose(self) -> "MatrixGrid":
        return MatrixGrid(self.r, self.spec, np.conj(np.swapaxes(self.values, -1, -2)),
                          hermitian=self.hermitian)


@dataclass
class TriangularKernel:
    """Kernel K(x, t) on the triangle 0 <= t <= x <= 1, sampled blockwise.

    values[i, j] ~ K(x_i, t_j) for j <= i; entries above the diagonal are
    stored as zero and stand for the implicit extension by zero.

    A complex array with a zero upper triangle is kept without a copy, as
    a read-only view: the (m+1)^2 r^2 solver buffers are the largest arrays
    of the package, and the caller hands them over.  Otherwise the values
    are copied and the upper triangle zeroed.
    """

    r: int
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = self.spec.m + 1
        want = (n, n, self.r, self.r)
        if v.shape != want:
            raise ValidationError(f"triangular kernel has shape {v.shape}, expected {want}")
        # row by row: no (n^2/2, r, r) temporary
        if any(np.any(v[i, i + 1:]) for i in range(n - 1)):
            v = v.copy()
            for i in range(n - 1):
                v[i, i + 1:] = 0.0
        v = v.view()
        v.flags.writeable = False
        self.values = v


@dataclass
class SquareKernel:
    """Kernel K(x, t) sampled on the full grid square [0, 1]^2."""

    r: int
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        n = self.spec.m + 1
        want = (n, n, self.r, self.r)
        if v.shape != want:
            raise ValidationError(f"square kernel has shape {v.shape}, expected {want}")
        self.values = _frozen(v)


def matrix_rank_psd(alpha: np.ndarray):
    """Numerical rank of a Hermitian PSD matrix (an int), or of each of a
    stack of them (an int array)."""
    w = np.linalg.eigvalsh((alpha + np.conj(np.swapaxes(alpha, -1, -2))) / 2.0)
    scale = np.maximum(w.max(axis=-1, keepdims=True), 0.0)
    ranks = np.count_nonzero(w > RANK_RTOL * np.maximum(scale, 1e-300), axis=-1)
    return int(ranks) if np.ndim(alpha) == 2 else ranks


def _check_alphas(al: np.ndarray) -> np.ndarray:
    """Each alpha must be nonzero, Hermitian and PSD; the first entry that
    fails raises, with the first of those checks it fails.  Returns the
    smallest eigenvalue of each alpha's Hermitian part."""
    nrm = np.linalg.norm(al, 2, axis=(-2, -1))
    eigmin = np.linalg.eigvalsh((al + np.conj(np.swapaxes(al, -1, -2))) / 2.0).min(-1)
    zero = nrm == 0.0
    skew = _herm_defects(al) > HERMITIAN_RTOL
    neg = eigmin < -PSD_RTOL * nrm
    bad = np.flatnonzero(zero | skew | neg)
    if bad.size == 0:
        return eigmin
    idx = int(bad[0])
    if zero[idx]:
        raise ValidationError(f"zero norming matrix at index {idx}")
    if skew[idx]:
        raise ValidationError(f"non-Hermitian norming matrix at index {idx}")
    raise ValidationError(
        f"norming matrix at index {idx} is not positive semidefinite "
        f"(eigenvalue {eigmin[idx]:.3e})"
    )


def _unchecked(cls, *fields):
    """A SpectralData or MatrixGrid `cls` of fields that hold its invariants
    by construction: the arrays are frozen, nothing is checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, (
        _frozen(f) if isinstance(f, np.ndarray) else f for f in fields)))
    return obj


@dataclass
class SpectralData:
    """Finite sequence of (lambda_j, alpha_j) pairs, sorted by lambda.

    `includes_zero` marks a dataset whose first entry is the (0, alpha_0)
    pair of a half-bound-state problem (alpha_0 positive definite); without
    it the data describes the reduced problem that starts at lambda_1 > 0.
    """

    r: int
    lambdas: np.ndarray
    alphas: np.ndarray
    includes_zero: bool

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        al = np.asarray(self.alphas, dtype=complex)
        if lam.ndim != 1 or al.shape != (lam.size, self.r, self.r):
            raise ValidationError(
                f"spectral data shapes disagree: {lam.shape} lambdas vs {al.shape} alphas"
            )
        if lam.size == 0:
            raise ValidationError("spectral data needs at least one entry")
        for name, finite in (("lambda", np.isfinite(lam)),
                             ("alpha", np.isfinite(al).all(axis=(-2, -1)))):
            if not finite.all():
                raise ValidationError(f"non-finite {name} at index {np.argmin(finite)}")
        if lam[0] < 0:
            raise ValidationError("negative lambda at index 0")
        down = np.flatnonzero(lam[1:] <= lam[:-1])
        if down.size:
            raise ValidationError(f"non-increasing lambda at index {down[0] + 1}")
        eigmin = _check_alphas(al)
        if self.includes_zero:
            if lam[0] != 0.0:
                raise ValidationError("dataset flagged includes_zero but lambda_0 != 0")
            if eigmin[0] <= 0.0:
                raise ValidationError("alpha_0 must be positive definite when lambda_0 = 0")
        elif lam[0] == 0.0:
            raise ValidationError("lambda_0 = 0 requires includes_zero")
        self.lambdas = _frozen(lam)
        self.alphas = _frozen(al)

    def __len__(self) -> int:
        return self.lambdas.size


@dataclass
class BoundaryValues:
    """The four boundary matrices of the fundamental system at one lambda.

    phi_tau, psi_tau are the Dirichlet/Neumann-type solutions for the
    potential tau at x = 1, phi_mtau and psi_mtau the same for -tau.
    `identity_residual` reports how far the inverse-pair identity between
    the fundamental matrix and its adjoint counterpart is from holding.
    """

    lam: complex
    phi_tau: np.ndarray
    psi_tau: np.ndarray
    phi_mtau: np.ndarray
    psi_mtau: np.ndarray
    identity_residual: float = field(default=float("nan"))

    def __post_init__(self):
        for name in ("phi_tau", "psi_tau", "phi_mtau", "psi_mtau"):
            setattr(self, name, _frozen(np.asarray(getattr(self, name), dtype=complex)))


def g2_norm(kernel: TriangularKernel) -> float:
    """Mixed slice norm: max over rows/columns of the L2 norm of a slice.

    Row and column slices are integrated over [0, 1] with trapezoid
    weights, the implicit zero extension above the diagonal included; the
    matrix norm is spectral.
    """
    w = trapezoid_weights(kernel.spec)
    sq = np.linalg.norm(kernel.values, ord=2, axis=(-2, -1)) ** 2
    rows = np.sqrt(sq @ w)
    cols = np.sqrt(w @ sq)
    return float(max(rows.max(), cols.max()))


def block_flatten(blocks: np.ndarray) -> np.ndarray:
    """(n, k, r, r) block array -> (n*r, k*r) matrix."""
    n, k, r, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * r, k * r)


# ---------------------------------------------------------------------------
# File I/O.  Complex numbers are stored as two-element [re, im] arrays; the
# float repr round-trips, so save followed by load is bit exact.

def _matrix_to_json(values: np.ndarray) -> list:
    """A matrix, or a stack of them, as nested lists of [re, im] floats."""
    return np.stack([values.real, values.imag], -1).tolist()


def _matrices_from_json(objs: list, r: int) -> np.ndarray | None:
    """The complex (n, r, r) stack of n JSON matrices, checked and
    converted in one pass; None unless each is r x r [re, im] number pairs."""
    arr = np.array(objs, dtype=object)
    if arr.shape != (len(objs), r, r, 2) or not {type(v) for v in arr.flat} <= {int, float}:
        return None
    arr = arr.astype(float)
    return arr[..., 0] + 1j * arr[..., 1]


def _matrix_from_json(obj, r: int, where: str) -> np.ndarray:
    mat = _matrices_from_json([obj], r)
    if mat is None:
        raise ParseError(f"{where}: expected a matrix of {r} x {r} [re, im] number pairs")
    return mat[0]


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # an integer literal of 300 digits or more reads as a float, so
            # that one beyond the float range is infinite, not an overflow
            doc = json.load(fh, parse_int=lambda s: int(s) if len(s) < 300 else float(s))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


_SCHEMA_TYPES = {int: "integer", float: "number", bool: "boolean", list: "array"}


def _field(obj: dict, key: str, kind: type, where):
    """obj[key] as a `kind`, or a ParseError naming the field.  As in JSON
    Schema, an integral number such as 1.0 is an integer, and a bool is
    never a number."""
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    number = type(value) in (int, float)
    if not (type(value) is kind or number and (kind is float or
                                               kind is int and value % 1 == 0)):
        raise ParseError(f"{where}: field {key!r} must be of type "
                         f"{_SCHEMA_TYPES[kind]}, got {json.dumps(value)[:40]}")
    return kind(value)


def _save_json(doc: dict, path) -> None:
    # json.dumps runs the C encoder; json.dump always runs the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def save_matrix_grid(grid: MatrixGrid, path, extra: dict | None = None) -> None:
    doc = {
        "r": grid.r,
        "m": grid.spec.m,
        "hermitian": bool(grid.hermitian),
        "values": _matrix_to_json(grid.values),
    }
    if extra:
        doc.update(extra)
    _save_json(doc, path)


def load_matrix_grid(path) -> MatrixGrid:
    doc = _load_json(path)
    r = _field(doc, "r", int, path)
    spec = GridSpec(_field(doc, "m", int, path))
    values = _field(doc, "values", list, path)
    if len(values) != spec.m + 1:
        raise ParseError(f"{path}: expected {spec.m + 1} matrices in 'values'")
    mats = _matrices_from_json(values, r)
    if mats is None:
        mats = np.stack([
            _matrix_from_json(v, r, f"{path}: values[{i}]") for i, v in enumerate(values)
        ])
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        raise ValidationError(f"{path}: non-finite sample at values[{np.argmin(finite)}]")
    return MatrixGrid(r, spec, mats, hermitian=_field(doc, "hermitian", bool, path))


def save_spectral_data(data: SpectralData, path) -> None:
    doc = {
        "r": data.r,
        "includes_zero": bool(data.includes_zero),
        "entries": [
            {"lambda": lam, "alpha": al}
            for lam, al in zip(data.lambdas.tolist(), _matrix_to_json(data.alphas))
        ],
    }
    _save_json(doc, path)


def load_spectral_data(path) -> SpectralData:
    doc = _load_json(path)
    r = _field(doc, "r", int, path)
    entries = _field(doc, "entries", list, path)
    lams = alphas = None
    if all(type(ent) is dict and type(ent.get("lambda")) in (int, float)
           and type(ent.get("alpha")) is list for ent in entries):
        lams = [float(ent["lambda"]) for ent in entries]
        alphas = _matrices_from_json([ent["alpha"] for ent in entries], r)
    if alphas is None:
        # the entry-by-entry path, for the error that names the first bad one
        lams, alphas = [], []
        for i, ent in enumerate(entries):
            where = f"{path}: entries[{i}]"
            if not isinstance(ent, dict):
                raise ParseError(f"{where} is not an object")
            lams.append(_field(ent, "lambda", float, where))
            alphas.append(_matrix_from_json(_field(ent, "alpha", list, where),
                                            r, f"{where}.alpha"))
    if not lams:
        raise ValidationError(f"{path}: spectral data needs at least one entry")
    return SpectralData(r, np.asarray(lams), np.stack(alphas),
                        includes_zero=_field(doc, "includes_zero", bool, path))
