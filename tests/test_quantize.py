import numpy as np
import pytest

from gevrey_evolve.errors import ParameterError, ShapeError
from gevrey_evolve.grid import bracket_h, make_grid
from gevrey_evolve.quantize import (SymbolTable, adjoint, apply,
                                    band_relative_error, compose_expansion,
                                    exp_table, multiplier_table,
                                    table_from_function, to_dense,
                                    xi_derivative)


@pytest.fixture(scope="module")
def grid():
    return make_grid(np.pi, 64)


def band_field(grid, rng):
    """Random field supported in the resolved band (Nyquist-free)."""
    u_hat = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    u_hat[~grid.band_mask()] = 0.0
    return grid.inverse(u_hat)


def test_apply_identity(grid):
    rng = np.random.default_rng(1)
    u = band_field(grid, rng)
    one = table_from_function(grid, lambda x, xi: 1.0 + 0 * x + 0 * xi)
    assert np.max(np.abs(apply(one, u) - u)) < 1e-12


def test_apply_eigenfunction(grid):
    u = np.exp(1j * grid.x)
    p = table_from_function(grid, lambda x, xi: xi + 0 * x)
    assert np.max(np.abs(apply(p, u) - u)) < 1e-12


def test_apply_x_multiplier(grid):
    rng = np.random.default_rng(2)
    u = band_field(grid, rng)
    p = table_from_function(grid, lambda x, xi: np.exp(1j * x) + 0 * xi)
    assert np.max(np.abs(apply(p, u) - np.exp(1j * grid.x) * u)) < 1e-12


def test_dense_matches_apply(grid):
    rng = np.random.default_rng(3)
    p = table_from_function(
        grid, lambda x, xi: np.cos(x) / (1 + 0.3 * xi ** 2) + 0.5j * np.sin(2 * x))
    M = to_dense(p)
    for _ in range(10):
        u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
        assert np.linalg.norm(M @ u - apply(p, u)) < 1e-12 * np.linalg.norm(u)


def test_dense_identity_and_derivative(grid):
    one = table_from_function(grid, lambda x, xi: 1.0 + 0 * x + 0 * xi)
    M = to_dense(one)
    # identity on the Nyquist-free subspace
    rng = np.random.default_rng(4)
    u = band_field(grid, rng)
    assert np.max(np.abs(M @ u - u)) < 1e-12
    p = table_from_function(grid, lambda x, xi: xi + 0 * x)
    u1 = np.exp(1j * grid.x)
    assert np.max(np.abs(to_dense(p) @ u1 - u1)) < 1e-12


def test_adjoint_inner_product(grid):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((grid.N, grid.N)) + 1j * rng.standard_normal((grid.N, grid.N))
    u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    v = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    lhs = grid.inner(A @ u, v)
    rhs = grid.inner(u, adjoint(A) @ v)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)
    assert np.array_equal(adjoint(adjoint(A)), A)
    d = np.diag(rng.standard_normal(grid.N))
    assert np.array_equal(adjoint(d), d)


def test_real_multiplier_is_normal(grid):
    p = multiplier_table(grid, grid.xi ** 2)
    A = to_dense(p)
    H = 0.5 * (A + adjoint(A))
    assert np.max(np.abs(A - H)) < 1e-12


def test_compose_terminating(grid):
    # p = xi, q = e^{ix}: D(e^{ix} u) = e^{ix}(D + 1)u, series ends at order 2
    p = table_from_function(grid, lambda x, xi: xi + 0 * x)
    q = table_from_function(grid, lambda x, xi: np.exp(1j * x) + 0 * xi)
    s = compose_expansion(p, q, 2)
    target = table_from_function(grid, lambda x, xi: np.exp(1j * x) * (xi + 1.0))
    mask = grid.band_mask()
    assert np.max(np.abs((s.values - target.values)[:, mask])) < 1e-10
    assert band_relative_error(to_dense(p) @ to_dense(q), to_dense(s), grid) < 1e-10


def test_compose_x_independent(grid):
    p = table_from_function(grid, lambda x, xi: 1.0 / (1 + xi ** 2) + 0 * x)
    q = multiplier_table(grid, np.exp(-0.1 * np.abs(grid.xi)))
    for n in (1, 3, 5):
        s = compose_expansion(p, q, n)
        assert np.max(np.abs(s.values - (p * q).values)) < 1e-12


def test_compose_order_bookkeeping():
    # term alpha of the expansion decays like <xi>^{m1+m2-alpha}
    grid = make_grid(10.0, 128)
    h = 2.0
    p = table_from_function(grid, lambda x, xi: bracket_h(xi, h) ** 1.5 + 0 * x)
    q = table_from_function(
        grid, lambda x, xi: np.exp(-(x / 3.0) ** 2) * (1 + x ** 2) ** -0.375 + 0 * xi)
    mask = grid.band_mask() & (np.abs(grid.xi) > 1.0)
    xi_m = np.abs(grid.xi[mask])
    from gevrey_evolve.quantize import dx_operator
    for alpha in (1, 2, 3):
        term = xi_derivative(p, alpha) * dx_operator(q, alpha)
        prof = np.max(np.abs(term.values[:, mask]), axis=0)
        slope = np.polyfit(np.log(xi_m), np.log(prof + 1e-300), 1)[0]
        assert abs(slope - (1.5 - alpha)) < 0.3


def test_exp_table(grid):
    zero = table_from_function(grid, lambda x, xi: 0.0 + 0 * x + 0 * xi)
    ones = exp_table(zero)
    mask = grid.band_mask()
    assert np.allclose(ones.values[:, mask], 1.0)
    lam = table_from_function(grid, lambda x, xi: 0.3 * np.cos(x) + 0 * xi)
    prod = exp_table(lam) * exp_table(lam * -1.0)
    assert np.max(np.abs(prod.values[:, mask] - 1.0)) < 1e-12
    big = table_from_function(grid, lambda x, xi: 800.0 + 0 * x + 0 * xi)
    with pytest.raises(ParameterError):
        exp_table(big)


def test_exp_table_center_value():
    grid = make_grid(np.pi, 16)
    k0, h, theta = 0.4, 2.0, 1.8
    lam = table_from_function(
        grid, lambda x, xi: k0 * bracket_h(xi, h) ** (1 / theta) + 0 * x)
    tab = exp_table(lam)
    k_zero = np.argmin(np.abs(grid.xi))
    assert tab.values[0, k_zero] == pytest.approx(np.exp(k0 * h ** (1 / theta)))


def test_xi_derivative_polynomial(grid):
    p = table_from_function(grid, lambda x, xi: xi ** 3 + 0 * x)
    d = xi_derivative(p, 1)
    mask = grid.band_mask()
    target = 3.0 * grid.xi[mask] ** 2
    assert np.max(np.abs(d.values[:, mask] - target[None, :])) < 1e-8


def test_table_shape_guard(grid):
    with pytest.raises(ShapeError):
        SymbolTable(grid, np.zeros((3, 3)))
    other = make_grid(np.pi, 32)
    p = table_from_function(grid, lambda x, xi: 1.0 + 0 * x + 0 * xi)
    q = table_from_function(other, lambda x, xi: 1.0 + 0 * x + 0 * xi)
    with pytest.raises(ShapeError):
        _ = p + q
