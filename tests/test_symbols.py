import math

import numpy as np
import pytest

from gevrey_evolve._stencil import fd_weights
from gevrey_evolve.errors import ConfigurationError, EvaluationError
from gevrey_evolve.grid import make_grid
from gevrey_evolve.symbols import (Symbol, check_assumptions, estimate_seminorm,
                                   eval_table, model_problem, theta_sup)


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
    assert 0.9 < est < 1.1


def test_seminorm_constant(grid):
    sym = Symbol(lambda t, x, xi: np.ones(np.broadcast(x, xi).shape), order=0.0)
    est = estimate_seminorm(sym, m=0.0, mu=1.0, nu=1.0, A=1.0,
                            alpha_max=2, beta_max=2, grid=grid)
    assert est == pytest.approx(1.0, abs=1e-6)


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
    assert est <= 1.0 + 1e-6  # (0,0) quotient dominates, bounded by 1


def test_seminorm_product_order(grid):
    # product of orders 1 and 2 stays bounded when normalized by order 3
    p = Symbol(lambda t, x, xi: xi * np.cos(x), order=1.0)
    q = Symbol(lambda t, x, xi: xi ** 2 + 0 * x, order=2.0)
    prod = Symbol(lambda t, x, xi: p.fn(t, x, xi) * q.fn(t, x, xi), order=3.0)
    est = estimate_seminorm(prod, m=3.0, mu=1.0, nu=1.0, A=2.0,
                            alpha_max=2, beta_max=2, grid=grid)
    assert est < 2.0


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
    assert est == pytest.approx(ref, rel=1e-12)


def _seminorm_per_pair(sym, m, mu, nu, A, alpha_max, beta_max, grid, t=0.0):
    """estimate_seminorm with one symbol evaluation per (alpha, beta), on
    that pair's stencils alone."""
    from gevrey_evolve.symbols import _stencil
    xs = grid.x[:: max(1, grid.N // 16)]
    band = grid.xi[grid.band_mask()]
    xis = np.sort(band)[:: max(1, band.size // 16)]
    sxi = np.sqrt(1.0 + xis * xis)
    hxi = np.maximum(0.02 * sxi, 1e-3)
    hx = np.maximum(0.02 * np.sqrt(1.0 + xs * xs), 1e-3)
    best = 0.0
    for a in range(alpha_max + 1):
        offs_xi, wxi = _stencil(a, hxi)
        for b in range(beta_max + 1):
            offs_x, wx = _stencil(b, hx)
            nodes_x = (xs[:, None] + offs_x * hx[:, None])[:, None, :, None]
            nodes_xi = (xis[:, None] + offs_xi * hxi[:, None])[None, :, None, :]
            vals = np.asarray(sym.fn(t, nodes_x, nodes_xi), dtype=complex)
            vals = np.broadcast_to(vals, np.broadcast(nodes_x, nodes_xi).shape)
            d = np.einsum("ik,ijkl,jl->ij", wx, vals, wxi)
            norm = A ** (-(a + b)) / (math.factorial(a) ** mu * math.factorial(b) ** nu)
            top = float(np.max(norm * sxi[None, :] ** (-m + a) * np.abs(d), initial=0.0))
            if np.isnan(top):
                return top
            best = max(best, top)
    return best


@pytest.mark.parametrize("pid", ["complex-damped", "time-modulated"])
@pytest.mark.parametrize("name", ["a2", "a1", "a0"])
def test_seminorm_of_one_wide_evaluation_equals_one_per_pair(grid, pid, name):
    # check_assumptions' constants from one evaluation on the widest
    # stencils are those of an evaluation per (alpha, beta), bit for bit
    p = model_problem(pid, 0.75, domain=grid.L)
    sym = getattr(p, name)
    for t in (0.0, 0.5):
        args = (sym, sym.order, 1.0, p.s0, 4.0, 2, 2, grid, t)
        assert estimate_seminorm(*args) == _seminorm_per_pair(*args)


def test_seminorm_of_a_nan_sample_is_nan(grid):
    p = model_problem("complex-damped", 0.75, domain=grid.L)
    a0 = p.a0
    nan_a0 = Symbol(lambda t, x, xi: a0(t, x, xi)
                    * np.where(np.abs(x - 1.0) < 0.2, np.nan, 1.0), order=0.0)
    args = (nan_a0, 0.0, 1.0, 1.5, 4.0, 2, 2, grid)
    assert math.isnan(estimate_seminorm(*args))
    assert math.isnan(_seminorm_per_pair(*args))


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
    rep = check_assumptions(p, grid, theta_sup(p.sigma))  # 1/(2(1-sigma))
    bad = [r for r in rep.results if r.name == "theta-range"]
    assert not bad[0].passed


@pytest.mark.parametrize("field, symbol, row_name", [
    pytest.param("a1", Symbol(lambda t, x, xi: 1j * np.sqrt(1 + xi ** 2) + 0 * x,
                              order=1.0), "hyp-iv-order1-decay", id="a1"),
    pytest.param("a2", Symbol(lambda t, x, xi: 1j * xi ** 2 + 0 * x, order=2.0),
                 "hyp-iii-order2-decay", id="a2")])
def test_check_assumptions_no_decay_fails(grid, field, symbol, row_name):
    import dataclasses
    p = model_problem("complex-damped", 0.75, domain=grid.L)
    p_bad = dataclasses.replace(p, **{field: symbol})
    rep = check_assumptions(p_bad, grid, 1.8)
    row = [r for r in rep.results if r.name == row_name][0]
    assert not row.passed
    assert len(row.witness) == 3  # (t, x, xi) witness node


def test_nan_symbol_fails_its_regularity_row(grid):
    # a0 that is NaN on |x| < 0.5 makes its seminorm estimate NaN, so the
    # regularity row fails and require() refuses the problem; a0 is not
    # read past the assumption check, so nothing later would see the NaN
    import dataclasses
    p = model_problem("complex-damped", 0.75, domain=grid.L)
    a0 = p.a0
    nan_a0 = Symbol(lambda t, x, xi: a0(t, x, xi)
                    * np.where(np.abs(x) < 0.5, np.nan, 1.0), order=a0.order)
    rep = check_assumptions(dataclasses.replace(p, a0=nan_a0), grid, 1.8)
    row = [r for r in rep.results if r.name == "hyp-ii-regularity-a0"][0]
    assert not row.passed and math.isnan(row.constant)
    with pytest.raises(ConfigurationError, match="hyp-ii-regularity-a0"):
        rep.require()


def test_complex_damped_im_a2_bound(grid):
    # |Im a2| = c2 <x>^-sigma xi^2 on its support: hypothesis constant is O(c2)
    p = model_problem("complex-damped", 0.75, strengths=(1.0,), domain=grid.L)
    rep = check_assumptions(p, grid, 1.8)
    c = rep.constant("hyp-iii-order2-decay")
    assert 0.5 < c < 1.5


@pytest.mark.parametrize("pid", ["complex-damped", "time-modulated"])
def test_decay_checks_sample_each_coefficient_time_once(grid, pid):
    # the decay checks evaluate a2 and a1 on the lattice at the five sample
    # times when the coefficients depend on time, and once otherwise; the
    # rows equal those of an evaluation at all five times
    import dataclasses
    p = model_problem(pid, 0.75, domain=grid.L)
    calls = []

    def counted(sym):
        def fn(t, x, xi):
            if np.shape(x) == (grid.N, 1):
                calls.append((sym.name, t))
            return sym.fn(t, x, xi)
        return dataclasses.replace(sym, fn=fn)

    rep = check_assumptions(dataclasses.replace(p, a2=counted(p.a2),
                                                a1=counted(p.a1)), grid, 1.8)
    times = 5 if p.time_dependent else 1
    assert len(calls) == 2 * times
    # the same rows from a problem flagged time-dependent, evaluated 5 times
    every = check_assumptions(dataclasses.replace(p, time_dependent=True),
                              grid, 1.8)
    for name in ("hyp-iii-order2-decay", "hyp-iv-order1-decay"):
        got, want = (next(r for r in report.results if r.name == name)
                     for report in (rep, every))
        assert (got.constant, got.witness, got.detail) == (
            want.constant, want.witness, want.detail)


def _regularity(rep, name):
    return next(r for r in rep.results if r.name == "hyp-ii-regularity-" + name)


@pytest.mark.parametrize("name", ["a2", "a1", "a0"])
def test_regularity_row_takes_the_largest_seminorm_over_the_sample_times(
        grid, name):
    # time-modulated coefficients are measured at the five sample times, as
    # the decay rows are, and the constant is the largest estimate; a2's
    # modulation peaks at T/2, so its constant exceeds the t = 0 estimate
    from gevrey_evolve.symbols import sample_times
    p = model_problem("time-modulated", 0.75, domain=grid.L)
    sym = getattr(p, name)
    each = [estimate_seminorm(sym, sym.order, 1.0, p.s0, 4.0, 2, 2, grid, t)
            for t in sample_times(p.T)]
    row = _regularity(check_assumptions(p, grid, 1.8), name)
    assert row.passed and row.constant == max(each)
    if name == "a2":
        assert max(each) > 1.2 * each[0]


def test_regularity_row_fails_on_a_nan_past_t0(grid):
    # an a1 that is NaN near x = 0 at t > 0 only: the t = 0 estimate is
    # finite, the row of a time-dependent problem is NaN and fails
    import dataclasses
    p = model_problem("time-modulated", 0.75, domain=grid.L)
    a1 = p.a1
    late_nan = Symbol(lambda t, x, xi: a1(t, x, xi) * np.where(
        (t > 0.0) & (np.abs(x) < 0.5), np.nan, 1.0), order=a1.order)
    assert np.isfinite(estimate_seminorm(late_nan, 1.0, 1.0, p.s0, 4.0, 2, 2,
                                         grid, 0.0))
    rep = check_assumptions(dataclasses.replace(p, a1=late_nan), grid, 1.8)
    row = _regularity(rep, "a1")
    assert not row.passed and math.isnan(row.constant)


def test_regularity_of_time_independent_coefficients_is_measured_once(
        grid, monkeypatch):
    # complex-damped: one estimate per coefficient, at t = 0
    from gevrey_evolve import symbols
    times, estimate = [], symbols.estimate_seminorm

    def recording(*args, t=0.0, **kwargs):
        times.append(t)
        return estimate(*args, t=t, **kwargs)

    monkeypatch.setattr(symbols, "estimate_seminorm", recording)
    check_assumptions(model_problem("complex-damped", 0.75, domain=grid.L),
                      grid, 1.8)
    assert times == [0.0] * 3
