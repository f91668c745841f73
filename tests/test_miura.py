import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinsl.core import GridSpec, MatrixGrid, ValidationError
from kreinsl.miura import miura, miura_equals


def grid_from_fn(fn, m, r=1):
    x = GridSpec(m).points()
    vals = np.array([np.atleast_2d(fn(xi)) for xi in x], dtype=complex)
    return MatrixGrid(r, GridSpec(m), vals, hermitian=True)


def test_zero_potential():
    p = miura(grid_from_fn(lambda x: 0.0, 64))
    assert np.abs(p.values).max() == 0.0


def test_constant_root():
    c = 0.7
    p = miura(grid_from_fn(lambda x: c, 128))
    x = GridSpec(128).points()
    assert np.abs(p.values[:, 0, 0] - (c + c * c * x)).max() < 1e-12


def test_zero_potential_second_root():
    # tau(x) = h/(1 + h x) is a second root of the zero potential: its
    # primitive is constant up to quadrature error
    h = 1.0
    m = 512
    p = miura(grid_from_fn(lambda x: h / (1 + h * x), m))
    sig = p.values[:, 0, 0]
    assert np.abs(sig - sig[0]).max() < 2e-6


def test_equality_identical():
    p = miura(grid_from_fn(lambda x: np.cos(x), 64))
    assert miura_equals(p, p, tol=0.0)


def test_equality_modulo_constant():
    p = miura(grid_from_fn(lambda x: np.cos(x), 64))
    q = MatrixGrid(1, p.spec, p.values + 2.5, hermitian=p.hermitian)
    assert miura_equals(p, q, tol=1e-12)


def test_gauge_pair_of_zero_potential():
    m = 512
    a = miura(grid_from_fn(lambda x: 0.0, m))
    b = miura(grid_from_fn(lambda x: 1.0 / (1.0 + x), m))
    assert miura_equals(a, b, tol=1e-6)
    assert not miura_equals(a, miura(grid_from_fn(lambda x: 0.3, m)), tol=1e-6)


def test_shape_mismatch():
    a = miura(grid_from_fn(lambda x: 0.0, 64))
    b = miura(grid_from_fn(lambda x: 0.0, 32))
    with pytest.raises(ValidationError):
        miura_equals(a, b, tol=1.0)


def test_derivative_consistency_interior():
    # finite differences of sigma match tau' + tau^2 at interior nodes
    m = 256
    h = 1.0 / m
    x = GridSpec(m).points()
    tau = grid_from_fn(lambda t: 0.4 * np.sin(2 * t) + 0.1, m)
    p = miura(tau)
    sig = p.values[:, 0, 0].real
    dsig = (sig[2:] - sig[:-2]) / (2 * h)
    q_exact = 0.8 * np.cos(2 * x[1:-1]) + (0.4 * np.sin(2 * x[1:-1]) + 0.1) ** 2
    assert np.abs(dsig - q_exact).max() < 5e-4


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.5, 1.5, allow_nan=False), st.floats(-1.5, 1.5))
def test_gauge_invariance_under_constant_shift_of_sigma(c, d):
    # adding any constant matrix to one primitive never changes equality
    p = miura(grid_from_fn(lambda x: 0.3 * np.cos(x), 64))
    q = MatrixGrid(1, p.spec, p.values + (c + 0j), hermitian=False)
    assert miura_equals(p, q, tol=1e-10)


def test_matrix_case_hermitian_sigma():
    rng = np.random.default_rng(8)
    m = 64
    b = rng.normal(size=(m + 1, 2, 2)) + 1j * rng.normal(size=(m + 1, 2, 2))
    vals = (b + np.conj(np.swapaxes(b, -1, -2))) / 2.0
    tau = MatrixGrid(2, GridSpec(m), vals, hermitian=True)
    p = miura(tau)
    assert p.hermitian
    assert p.values[0] == pytest.approx(tau.values[0])
