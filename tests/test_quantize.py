import numpy as np
import pytest

from gevrey_evolve.errors import ParameterError, ShapeError
from gevrey_evolve.grid import bracket_h, make_grid
from gevrey_evolve.quantize import (STAGE_PANEL, SymbolTable,
                                    coefficient_matrix, dx_operators,
                                    exp_table, multiplier_table,
                                    stage_matrices, table_from_function,
                                    to_dense, x_derivative, xi_derivative)
from symbol_composition import band_relative_error, compose_expansion


@pytest.fixture(scope="module")
def grid():
    return make_grid(np.pi, 64)


def band_field(grid, rng):
    """Random field supported in the resolved band (Nyquist-free)."""
    u_hat = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    u_hat[~grid.band_mask()] = 0.0
    return grid.inverse(u_hat)


def apply(p, u):
    """op(p) on node values through p's coefficient matrix, the kernel of
    every stage matrix and of the conjugator."""
    g = p.grid
    return g.inverse(coefficient_matrix(g, p.values) @ g.forward(u))


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


def test_real_multiplier_is_normal(grid):
    p = multiplier_table(grid, grid.xi ** 2)
    A = to_dense(p)
    H = 0.5 * (A + A.conj().T)
    assert np.max(np.abs(A - H)) < 1e-12


def test_compose_terminating(grid):
    # criterion 2's reference on an exact case:
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
    from gevrey_evolve.quantize import dx_operators
    dxq = dx_operators(q)
    for alpha in (1, 2, 3):
        term = xi_derivative(p, alpha) * dxq(alpha)
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


def test_table_copies_the_callers_array(grid):
    # the public constructor zeroes the Nyquist column of its own copy; the
    # results of table arithmetic are fresh arrays, shared with no operand
    vals = np.arange(grid.N * grid.N, dtype=complex).reshape(grid.N, grid.N) + 1.0
    before = vals.copy()
    t = SymbolTable(grid, vals)
    assert np.array_equal(vals, before)
    assert not np.shares_memory(t.values, vals)
    assert np.all(t.values[:, grid.nyquist] == 0.0)
    u = t * 2.0 + t
    assert not np.shares_memory(u.values, t.values)
    assert np.array_equal(u.values, 3.0 * t.values)
    assert np.array_equal(vals, before)


def test_row_tables(grid):
    # an x-independent symbol is one row: its x-derivative is the exact zero
    # row, and it quantizes and xi-differentiates exactly like its tiled twin
    rng = np.random.default_rng(6)
    row = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    p = multiplier_table(grid, row)
    twin = SymbolTable(grid, np.tile(row, (grid.N, 1)))
    assert p.values.shape == (1, grid.N) and twin.values.shape == (grid.N, grid.N)
    for order in (1, 2):
        d = x_derivative(p, order)
        assert d.values.shape == (1, grid.N) and not np.any(d.values)
    assert np.array_equal(to_dense(p), to_dense(twin))
    for order in (1, 2, 3, 4):
        d, d_twin = xi_derivative(p, order), xi_derivative(twin, order)
        assert d.values.shape == (1, grid.N)
        assert np.array_equal(np.broadcast_to(d.values, d_twin.values.shape),
                              d_twin.values)
    # products with an x-dependent table broadcast to (N, N)
    q = table_from_function(grid, lambda x, xi: np.cos(x) + 0 * xi)
    assert np.array_equal((p * q).values, (twin * q).values)
    # samples whose rows are all equal become one row, others stay (N, N)
    assert table_from_function(grid, lambda x, xi: xi + 0 * x).values.shape \
        == (1, grid.N)
    assert q.values.shape == (grid.N, grid.N)
    with pytest.raises(ShapeError):
        SymbolTable(grid, np.zeros((2, grid.N)))


def test_real_values_make_float_tables(grid):
    # real-typed values are float64, any other complex128; .real, .imag,
    # exp_table and a real multiplier row are float tables
    real = SymbolTable(grid, np.ones((1, grid.N), dtype=int))
    cplx = SymbolTable(grid, np.full((1, grid.N), 1j))
    assert real.values.dtype == np.float64
    assert cplx.values.dtype == np.complex128
    for table in (cplx.real, cplx.imag, real.imag, exp_table(real),
                  multiplier_table(grid, grid.xi), real * real):
        assert table.values.dtype == np.float64
    assert (real * cplx).values.dtype == np.complex128
    # the real part is a copy, not a view into the complex values
    part = cplx.imag
    part.values[0, 0] = 5.0
    assert cplx.values[0, 0] == 1j


def test_dense_stack_rows_do_not_depend_on_the_grouping(small_setup):
    # 33 fields as groups of 32 + 1 or as one group of 33, through the
    # coefficient matrices E and E_inv of the damped-64 conjugator: the
    # lone row takes the GEMM of the wider stack, so every row has the
    # same bits
    bundle = small_setup["bundle"]
    assert bundle.E.ndim == bundle.E_inv.ndim == 2
    rng = np.random.default_rng(3)
    N = bundle.grid.N
    fields = rng.standard_normal((33, N)) + 1j * rng.standard_normal((33, N))
    t = np.linspace(0.0, 1.0, 33)
    for apply_ in (bundle.apply_full, bundle.apply_full_inverse):
        grouped = np.concatenate([apply_(fields[:32], t[:32]),
                                  apply_(fields[32:], t[32:])])
        assert np.array_equal(grouped, apply_(fields, t))


def test_tables_are_column_major(grid):
    # x is the fastest axis of a stored table: the copy, table arithmetic,
    # .real/.imag and both derivatives keep every column contiguous
    vals = np.arange(grid.N * grid.N, dtype=complex).reshape(grid.N, grid.N)
    t = SymbolTable(grid, np.sin(vals) + 1j * np.cos(vals))
    q = table_from_function(grid, lambda x, xi: np.cos(x) * xi)
    for table in (t, q, t * q, t + 1.0, t.real, t.imag, t * multiplier_table(
            grid, grid.xi), xi_derivative(t, 2), x_derivative(t, 1),
            dx_operators(q)(3)):
        assert table.values.shape == (grid.N, grid.N)
        assert table.values.flags.f_contiguous


@pytest.mark.parametrize("real", [False, True])
def test_kernels_do_not_depend_on_the_storage_order(grid, real):
    # a table stored row-major differentiates and quantizes to the same
    # bits as its column-major copy: every kernel rounds per column
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((grid.N, grid.N))
    if not real:
        vals = vals + 1j * rng.standard_normal((grid.N, grid.N))
    by_cols = SymbolTable(grid, vals)
    by_rows = SymbolTable.fresh(grid, np.ascontiguousarray(by_cols.values))
    assert by_cols.values.flags.f_contiguous
    assert by_rows.values.flags.c_contiguous
    Dx_cols, Dx_rows = dx_operators(by_cols), dx_operators(by_rows)
    for order in (1, 2, 3, 4):
        for kernel in (x_derivative, xi_derivative):
            assert np.array_equal(kernel(by_cols, order).values,
                                  kernel(by_rows, order).values)
        assert np.array_equal(Dx_cols(order).values, Dx_rows(order).values)
    A = coefficient_matrix(grid, by_cols.values)
    assert A.flags.c_contiguous
    assert np.array_equal(A, coefficient_matrix(grid, by_rows.values))


def _one_gemm(weights, stack):
    """The stages of weights over stack by one unpanelled np.matmul."""
    flat = np.matmul(weights, stack.reshape(len(stack), -1).view(float))
    return flat.view(complex).reshape(len(weights), *stack.shape[1:])


@pytest.mark.parametrize("given", [False, True], ids=["new-out", "given-out"])
@pytest.mark.parametrize("N", [96, 128, 256])
def test_stage_panels_equal_one_gemm(N, given):
    # 2N^2 float64 columns of a matrix stack span 2.25, 4 and 16 panels
    # (N = 96 ends in a partial one), and 2N of a row stack fit in one:
    # every stage has the bits of one unpanelled GEMM, for J + 1 = 1..5
    # tables and B = 1, 2, 3 and 2J + 1 stages
    rng = np.random.default_rng(N)
    assert 2 * N * N > STAGE_PANEL > 2 * N
    for J1 in range(1, 6):
        matrices = (rng.standard_normal((J1, N, N))
                    + 1j * rng.standard_normal((J1, N, N)))
        for stack in (matrices, matrices[:, 0].copy()):
            for B in sorted({1, 2, 3, 2 * J1 - 1}):
                weights = rng.standard_normal((B, J1))
                want = _one_gemm(weights, stack)
                out = (np.full((B, *stack.shape[1:]), np.nan, dtype=complex)
                       if given else None)
                got = stage_matrices(weights, stack, out)
                assert got is out or not given
                assert np.array_equal(got, want)


@pytest.mark.parametrize("out", [
    np.zeros((2, 16, 8), dtype=complex)[:, ::2, :],
    np.zeros((2, 8, 8), dtype=complex, order="F"),
    np.zeros((3, 8, 8), dtype=complex),
    np.zeros((2, 8, 8)),
], ids=["strided-rows", "column-major", "wrong-shape", "wrong-dtype"])
def test_stage_output_must_be_written_in_place(out):
    # an out that a reshape would copy (strided or column-major) or of the
    # wrong shape or dtype is refused, never returned unwritten
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
    with pytest.raises(ShapeError):
        stage_matrices(rng.standard_normal((2, 3)), stack, out)
    assert not np.any(out)
