import math

import numpy as np
import pytest

from gevrey_evolve._stencil import fd_weights
from gevrey_evolve.errors import ConfigurationError, EvaluationError
from gevrey_evolve.grid import make_grid
from gevrey_evolve.symbols import (Symbol, check_assumptions, estimate_seminorm,
                                   eval_table, model_problem)


@pytest.fixture(scope="module")
def grid():
    return make_grid(10.0, 64)


def test_eval_table_constant(grid):
    one = Symbol(lambda t, x, xi: np.ones(np.broadcast(x, xi).shape), order=0.0)
    tab = eval_table(one, grid, 0.0)
    mask = grid.band_mask()
    assert np.allclose(tab.values[:, mask], 1.0)
    assert np.allclose(tab.values[:, grid.nyquist], 0.0)


def test_eval_table_cubic(grid):
    cubic = Symbol(lambda t, x, xi: xi ** 3 + 0 * x, order=3.0)
    tab = eval_table(cubic, grid, 0.0)
    mask = grid.band_mask()
    assert np.allclose(tab.values[:, mask], (grid.xi[mask] ** 3)[None, :])
    # constant along x
    assert np.max(np.abs(tab.values - tab.values[0:1, :])) == 0.0


def test_eval_table_decay_node():
    # at the node (x=0, xi=2): <0> = 1, value is xi^2 = 4
    g = make_grid(4 * np.pi, 64)   # xi = 2 lies on this lattice
    sym = Symbol(lambda t, x, xi: (1 + x ** 2) ** -0.375 * xi ** 2, order=2.0)
    tab = eval_table(sym, g, 0.0)
    j = np.argmin(np.abs(g.x))
    k = np.argmin(np.abs(g.xi - 2.0))
    assert g.xi[k] == pytest.approx(2.0)
    assert tab.values[j, k] == pytest.approx(4.0)


def test_eval_table_nonfinite_names_node(grid):
    def bad_fn(t, x, xi):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - grid.x[3]) + 0 * xi
    bad = Symbol(bad_fn, order=0.0)
    with pytest.raises(EvaluationError) as err:
        eval_table(bad, grid, 0.0)
    assert f"{grid.x[3]:.6g}" in str(err.value)


def test_seminorm_linear(grid):
    sym = Symbol(lambda t, x, xi: xi + 0 * x, order=1.0)
    est = estimate_seminorm(sym, m=1.0, mu=1.0, nu=1.0, A=1.0,
                            alpha_max=3, beta_max=2, grid=grid)
    assert 0.9 < est.value < 1.1


def test_seminorm_constant(grid):
    sym = Symbol(lambda t, x, xi: np.ones(np.broadcast(x, xi).shape), order=0.0)
    est = estimate_seminorm(sym, m=0.0, mu=1.0, nu=1.0, A=1.0,
                            alpha_max=2, beta_max=2, grid=grid)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_seminorm_decay_product(grid):
    # d_x of <x>^-s xi^2 has the closed form -s x <x>^{-s-2} xi^2; the
    # (alpha, beta) = (0, 1) quotient must stay under the analytic bound s.
    s = 0.75
    sym = Symbol(lambda t, x, xi: (1 + x ** 2) ** (-s / 2) * xi ** 2, order=2.0)
    dense_x = np.linspace(-10, 10, 81)
    dense_xi = np.linspace(-4, 4, 41)
    X, XI = dense_x[:, None], dense_xi[None, :]
    analytic = np.abs(-s * X * (1 + X ** 2) ** (-s / 2 - 1) * XI ** 2)
    quot = analytic / ((1 + XI ** 2))  # <xi>^{-m+alpha} with m=2, alpha=0
    assert np.max(quot) <= s + 1e-9
    est = estimate_seminorm(sym, m=2.0, mu=1.0, nu=1.0, A=1.0,
                            alpha_max=0, beta_max=1, grid=grid)
    assert est.value <= 1.0 + 1e-6  # (0,0) quotient dominates, bounded by 1


def test_seminorm_product_order(grid):
    # product of orders 1 and 2 stays bounded when normalized by order 3
    p = Symbol(lambda t, x, xi: xi * np.cos(x), order=1.0)
    q = Symbol(lambda t, x, xi: xi ** 2 + 0 * x, order=2.0)
    prod = Symbol(lambda t, x, xi: p.fn(t, x, xi) * q.fn(t, x, xi), order=3.0)
    est = estimate_seminorm(prod, m=3.0, mu=1.0, nu=1.0, A=2.0,
                            alpha_max=2, beta_max=2, grid=grid)
    assert est.value < 2.0


def _seminorm_point_loop(sym, m, mu, nu, A, alpha_max, beta_max, grid):
    """Reference: one symbol call per (alpha, beta, x, xi) sample point."""
    xs = grid.x[:: max(1, grid.N // 16)]
    band = grid.xi[grid.band_mask()]
    xis = np.sort(band)[:: max(1, band.size // 16)]
    best = 0.0
    for a in range(alpha_max + 1):
        for b in range(beta_max + 1):
            norm = A ** (-(a + b)) / (math.factorial(a) ** mu * math.factorial(b) ** nu)
            ox = np.arange(-((b + 5) // 2), (b + 5) // 2 + 1.0) if b else np.zeros(1)
            oxi = np.arange(-((a + 5) // 2), (a + 5) // 2 + 1.0) if a else np.zeros(1)
            for x in xs:
                for xi in xis:
                    sxi = np.sqrt(1.0 + xi * xi)
                    hxi = max(0.02 * sxi, 1e-3)
                    hx = max(0.02 * np.sqrt(1.0 + x * x), 1e-3)
                    vals = np.broadcast_to(
                        sym.fn(0.0, x + ox[:, None] * hx, xi + oxi[None, :] * hxi),
                        (ox.size, oxi.size))
                    wx = fd_weights(ox, 0.0, b) / hx ** b if b else np.ones(1)
                    wxi = fd_weights(oxi, 0.0, a) / hxi ** a if a else np.ones(1)
                    d = wx @ vals @ wxi
                    best = max(best, norm * sxi ** (-m + a) * abs(d))
    return best


def test_seminorm_matches_point_loop(grid):
    p = model_problem("complex-damped", 0.75, domain=grid.L)
    sym = Symbol(lambda t, x, xi: p.a2.fn(t, x, xi) + 0.3 * xi * np.cos(x),
                 order=2.0)
    est = estimate_seminorm(sym, 2.0, 1.0, 1.5, A=4.0, alpha_max=2,
                            beta_max=2, grid=grid)
    ref = _seminorm_point_loop(sym, 2.0, 1.0, 1.5, 4.0, 2, 2, grid)
    assert est.value == pytest.approx(ref, rel=1e-12)


def test_model_problem_ids():
    with pytest.raises(ConfigurationError) as err:
        model_problem("unknown", 0.75)
    for known in ("kdv-baseline", "complex-damped", "time-modulated"):
        assert known in str(err.value)
    with pytest.raises(ConfigurationError):
        model_problem("complex-damped", 0.4)


def test_model_problem_constants():
    p = model_problem("kdv-baseline", 0.75)
    assert p.R_a3 == 2.0
    # d_xi a3 = 3 xi^2 exactly
    xi = np.linspace(-8, 8, 33)
    assert np.allclose(p.a3.dxi(0.0, 0.0, xi), 3 * xi ** 2)


def test_a3_real(grid):
    for pid in ("kdv-baseline", "complex-damped", "time-modulated"):
        p = model_problem(pid, 0.75, domain=grid.L)
        for t in (0.0, 0.5, 1.0):
            tab = eval_table(p.a3, grid, t)
            assert np.max(np.abs(tab.values.imag)) == 0.0


def test_check_assumptions_library(grid):
    for pid in ("kdv-baseline", "complex-damped", "time-modulated"):
        p = model_problem(pid, 0.75, domain=grid.L)
        rep = check_assumptions(p, grid, 1.8)
        assert rep.passed, rep.lines()
        assert rep.constant("hyp-i-leading") == pytest.approx(3.0, rel=1e-6)


def test_check_assumptions_theta_boundary(grid):
    p = model_problem("complex-damped", 0.75, domain=grid.L)
    rep = check_assumptions(p, grid, p.theta_sup)  # theta = 1/(2(1-sigma))
    bad = [r for r in rep.results if r.name == "theta-range"]
    assert not bad[0].passed


def test_check_assumptions_no_decay_fails(grid):
    import dataclasses
    p = model_problem("complex-damped", 0.75, domain=grid.L)
    bad_a1 = Symbol(lambda t, x, xi: 1j * np.sqrt(1 + xi ** 2) + 0 * x, order=1.0)
    p_bad = dataclasses.replace(p, a1=bad_a1)
    rep = check_assumptions(p_bad, grid, 1.8)
    row = [r for r in rep.results if r.name == "hyp-iv-order1-decay"][0]
    assert not row.passed
    assert len(row.witness) == 3  # (t, x, xi) witness node


def test_complex_damped_im_a2_bound(grid):
    # |Im a2| = c2 <x>^-sigma xi^2 on its support: hypothesis constant is O(c2)
    p = model_problem("complex-damped", 0.75, strengths=(1.0,), domain=grid.L)
    rep = check_assumptions(p, grid, 1.8)
    c = rep.constant("hyp-iii-order2-decay")
    assert 0.5 < c < 1.5
