import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from gevrey_evolve import weights
from gevrey_evolve.errors import ConfigurationError, ParameterError
from gevrey_evolve.grid import bracket_h, make_grid
from gevrey_evolve.symbols import Symbol, model_problem
from gevrey_evolve.weights import (WeightParams, Windows, _windowed_over_caps,
                                   cutoff_psi, k_of_t, plateau, sign_weight,
                                   smooth_step, spatial_weights,
                                   weight_x_derivative)

PROB = model_problem("complex-damped", 0.75)


def lam(which, x, xi, p):
    """lam2 (which=2) or lam1 (which=1) of PROB at the points (x, xi)."""
    return spatial_weights(Windows(x, xi, PROB, p), p, (which,))[0]


def dx_lam(which, order, x, xi, p):
    """d^order/dx^order of lam2 (which=2) or lam1 (which=1) at (x, xi)."""
    return weight_x_derivative(Windows(x, xi, PROB, p), p, which, order)


def params_with(**kw):
    base = dict(M2=1.0, M1=0.5, h=2.0, k0=0.35, sigma=0.75, theta=1.8)
    base.update(kw)
    return WeightParams(**base)


# ----------------------------------------------------------------------
# cutoffs
# ----------------------------------------------------------------------

def test_psi_plateau_values():
    assert cutoff_psi(0.3) == pytest.approx(1.0)
    assert cutoff_psi(-0.49) == pytest.approx(1.0)
    assert cutoff_psi(1.2) == pytest.approx(0.0)
    assert cutoff_psi(-3.0) == pytest.approx(0.0)


def test_psi_midpoint_regression():
    # normalized bump integral is symmetric: frozen midpoint value 1/2
    assert cutoff_psi(0.75) == pytest.approx(0.5, abs=1e-12)


def test_psi_matches_bump_quadrature():
    phi = lambda u: np.exp(-1.0 / (1.0 - u ** 2)) if abs(u) < 1 else 0.0
    total, _ = integrate.quad(phi, -1, 1, epsabs=1e-14)
    for y in (0.6, 0.8, 0.9):
        part, _ = integrate.quad(phi, -1, 4 * y - 3, epsabs=1e-14)
        assert cutoff_psi(y) == pytest.approx(1.0 - part / total, abs=1e-11)


def test_psi_monotone_on_rolloff():
    y = np.linspace(0.5, 1.0, 200)
    vals = cutoff_psi(y)
    assert np.all(np.diff(vals) <= 1e-14)
    assert np.allclose(cutoff_psi(y), cutoff_psi(-y))  # even


@pytest.mark.parametrize("fn", [cutoff_psi,
                                lambda y, derivative=0: smooth_step(y, derivative)])
def test_cutoff_gevrey2_difference_pattern(fn):
    # finite differences up to order 4 bounded by C^{j+1} (j!)^2
    y = np.linspace(-1.5, 1.5, 601)
    hstep = y[1] - y[0]
    vals = fn(y)
    C = 6.0
    for j in range(1, 5):
        vals = np.diff(vals) / hstep
        assert np.max(np.abs(vals)) <= C ** (j + 1) * math.factorial(j) ** 2


def test_cutoff_derivative_closures():
    eps = 1e-6
    for y0 in (0.6, 0.8, 0.95):
        fd = (cutoff_psi(y0 + eps) - cutoff_psi(y0 - eps)) / (2 * eps)
        assert cutoff_psi(y0, 1) == pytest.approx(fd, abs=1e-7)


# ----------------------------------------------------------------------
# sign selector
# ----------------------------------------------------------------------

def test_sign_weight_cases():
    p = params_with()
    h = p.h
    assert sign_weight(3 * h, PROB, p) == pytest.approx(-1.0)
    assert sign_weight(-3 * h, PROB, p) == pytest.approx(-1.0)
    assert sign_weight(0.5 * h, PROB, p) == pytest.approx(0.0)
    mid = sign_weight(1.5 * h, PROB, p)
    assert -1.0 < mid < 0.0


def test_sign_weight_ambiguous_sign_rejected():
    flip = Symbol(lambda t, x, xi: xi ** 3 - 30.0 * xi + 0 * x, order=3.0,
                  dxi=lambda t, x, xi: 3 * xi ** 2 - 30.0 + 0 * x)
    import dataclasses
    bad = dataclasses.replace(PROB, a3=flip)
    with pytest.raises(ConfigurationError):
        sign_weight(np.linspace(-8, 8, 33), bad, params_with(h=1.0))


# ----------------------------------------------------------------------
# spatial weights
# ----------------------------------------------------------------------

def test_lambda2_zero_at_origin():
    p = params_with()
    for xi in (0.5, 3.0, 10.0):
        assert lam(2, 0.0, xi, p) == 0.0


def test_lambda2_vanishes_inside_h():
    p = params_with()
    x = np.linspace(-5, 5, 11)
    for xi in (0.0, 0.5 * p.h, -0.9 * p.h):
        assert np.allclose(lam(2, x, xi, p), 0.0)
        assert np.allclose(lam(1, x, xi, p), 0.0)


def test_lambda2_frozen_quadrature_value():
    # saturated sign region, window wide open: lambda2(1, xi) = -M2 I with
    # I = integral_0^1 <y>^-0.75 dy (adaptive-quadrature oracle, frozen)
    p = params_with(M2=1.0)
    val = lam(2, 1.0, 10.0, p)
    assert val == pytest.approx(-0.9086820214507749, abs=1e-11)


def test_lambda2_transition_against_adaptive_quadrature():
    p = params_with(M2=1.0, h=1.0)
    xi = 1.7
    cap = 1.0 + xi ** 2
    oracle, _ = integrate.quad(
        lambda y: (1 + y * y) ** -0.375 * float(cutoff_psi(np.sqrt(1 + y * y) / cap)),
        0.0, 3.0, epsabs=1e-13, limit=200)
    w = float(sign_weight(xi, PROB, p))
    assert lam(2, 3.0, xi, p) == pytest.approx(w * oracle, abs=1e-10)


def test_lambda_bounds():
    p = params_with(M2=0.7, M1=0.4)
    x = np.linspace(-20, 20, 81)[:, None]
    xi = np.linspace(-30, 30, 61)[None, :]
    b = bracket_h(xi, p.h)
    l2 = lam(2, x, xi, p)
    l1 = lam(1, x, xi, p)
    assert np.all(np.abs(l2) <= p.M2 / (1 - p.sigma) * b ** (2 * (1 - p.sigma)) + 1e-9)
    assert np.all(np.abs(l1) <= p.M1 / (1 - p.sigma / 2) * b ** (1 - p.sigma) + 1e-9)


def test_lambda1_x_derivative_closed_form():
    p = params_with()
    xi, x0 = 5.5, 1.3
    eps = 1e-5
    fd = (lam(1, x0 + eps, xi, p) - lam(1, x0 - eps, xi, p)) / (2 * eps)
    b = float(bracket_h(xi, p.h))
    expected = (p.M1 * float(sign_weight(xi, PROB, p)) / b
                * (1 + x0 ** 2) ** (-p.sigma / 4)
                * float(cutoff_psi(np.sqrt(1 + x0 ** 2) / b ** 2)))
    assert fd == pytest.approx(expected, abs=1e-8)
    ana = dx_lam(1, 1, x0, xi, p)
    assert float(ana) == pytest.approx(expected, abs=1e-12)


def test_lambda_x_derivative_orders_match_fd():
    p = params_with(h=1.0)
    xi, x0 = 1.7, 0.9
    eps = 1e-4
    vals = [lam(2, x0 + k * eps, xi, p) for k in (-2, -1, 0, 1, 2)]
    fd2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * eps ** 2)
    ana2 = dx_lam(2, 2, x0, xi, p)
    assert float(ana2) == pytest.approx(fd2, abs=1e-6)


def test_lambda_x_derivative_order3_matches_fd_on_the_rolloff():
    # x0 = 2.5 puts <x>/<xi>_h^2 = 0.69 inside psi's roll-off, so psi' and
    # psi'' both enter the third derivative
    p = params_with(h=1.0)
    xi, x0 = 1.7, 2.5
    eps = 1e-5
    for which in (2, 1):
        d2 = [dx_lam(which, 2, x0 + k * eps, xi, p) for k in (-1, 1)]
        fd3 = (d2[1] - d2[0]) / (2 * eps)
        ana3 = dx_lam(which, 3, x0, xi, p)
        assert float(ana3) == pytest.approx(float(fd3), abs=1e-6)


def test_zero_strength_weights_are_exact_zeros(monkeypatch):
    # M2 = 0 (M1 = 0) gives the full formula's value, 0 times the
    # unit-strength weight, without evaluating a window or the sign selector
    from gevrey_evolve import weights
    grid = make_grid(20.0, 64)
    X, XI = grid.x[:, None], grid.xi[None, :]
    zero = params_with(M2=0.0, M1=0.0, h=1.0)
    unit = params_with(M2=1.0, M1=1.0, h=1.0)
    evals = [lambda q: lam(2, X, XI, q),
             lambda q: lam(1, X, XI, q)]
    evals += [lambda q, w=w, o=o: dx_lam(w, o, X, XI, q)
              for w in (2, 1) for o in (1, 2, 3)]
    calls, step = [], weights.smooth_step

    def counting(u, derivative=0):
        calls.append(derivative)
        return step(u, derivative)

    monkeypatch.setattr(weights, "smooth_step", counting)
    for ev in evals:
        full = ev(unit)
        assert calls and np.any(full != 0.0)
        calls.clear()
        got = ev(zero)
        assert not calls
        assert got.shape == full.shape and np.array_equal(got, 0.0 * full)


def test_derivative_bounds_h_stable():
    # |d_x lam2| <= C <x>^-sigma with C independent of h, and the lam1
    # version carries the extra <xi>_h^-1 factor
    x = np.linspace(-4, 4, 41)[:, None]
    for h in (8.0, 16.0, 32.0):
        p = params_with(M2=0.7, M1=0.4, h=h)
        xi = np.linspace(-4 * h, 4 * h, 33)[None, :]
        d2 = dx_lam(2, 1, x, xi, p)
        c2 = np.max(np.abs(d2) * (1 + x ** 2) ** (p.sigma / 2))
        assert c2 <= p.M2 + 1e-9
        d1 = dx_lam(1, 1, x, xi, p)
        c1 = np.max(np.abs(d1) * bracket_h(xi, h) * (1 + x ** 2) ** (p.sigma / 4))
        assert c1 <= p.M1 + 1e-9


@pytest.mark.parametrize("sigma", [0.55, 0.75, 0.95])
@pytest.mark.parametrize("halved", [False, True], ids=["sigma", "sigma/2"])
def test_decay_antiderivative_matches_the_closed_form(sigma, halved):
    # integral_0^x <y>^-s dy = x 2F1(1/2, s/2; 3/2; -x^2), the exponents
    # of lam2 (s = sigma) and lam1 (s = sigma/2), on |x| <= 100
    s = sigma / 2.0 if halved else sigma
    x = np.concatenate((np.linspace(-100.0, 100.0, 2001),
                        np.geomspace(1e-8, 100.0, 400)))
    exact = x * special.hyp2f1(0.5, s / 2.0, 1.5, -np.square(x))
    got = weights.decay_antiderivative(x, s)
    assert np.all(got[x == 0.0] == 0.0)
    rel = np.abs(got - exact)[x != 0.0] / np.abs(exact[x != 0.0])
    assert np.max(rel) <= 1e-13


def test_a_damped_phase_table_build_loads_no_scipy():
    # the run-time package needs numpy alone; scipy is a test dependency
    src = Path(weights.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import gevrey_evolve\n"
        "from gevrey_evolve.conjugate import build_phase_tables\n"
        "from gevrey_evolve.grid import make_grid\n"
        "from gevrey_evolve.symbols import model_problem\n"
        "from gevrey_evolve.weights import WeightParams\n"
        "params = WeightParams(M2=0.5, M1=0.3, h=2.0, k0=0.35, sigma=0.75,\n"
        "                      theta=1.8, domain_cap=(1 + 10.0 ** 2) ** 0.5)\n"
        "phase = build_phase_tables(model_problem('complex-damped', 0.75),\n"
        "                           params, make_grid(10.0, 32))\n"
        "assert abs(phase.lam.values).max() > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         check=True)
    assert out.stdout.strip() == "[]"


def test_selected_weights_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a damped-64 verify resolves M1 bit for bit alike under one and two
    # BLAS threads: the smooth step's series, which every window reads, is
    # formed without a BLAS call whose rounding follows the thread count
    src = Path(weights.__file__).resolve().parents[1]
    m1 = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        cfg = tmp_path / f"{threads}.cfg"
        cfg.write_text(f"grid.L = 10\ngrid.N = 64\noutput.dir = {out}\n")
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "gevrey_evolve", "verify",
                        str(cfg)], env=env, capture_output=True, check=True)
        resolved = (out / "resolved.cfg").read_text().splitlines()
        m1 += [line for line in resolved if line.startswith("weights.M1 =")]
    assert len(m1) == 2 and m1[0] == m1[1]


def test_windowed_integral_with_domain_cap():
    # the domain roll-off freezes the integral before the seam
    D = np.sqrt(1 + 100.0)
    v_in = _windowed_over_caps(0.5 * D, 0.75, 1e6, D)
    v_hi = _windowed_over_caps(0.95 * D, 0.75, 1e6, D)
    v_end = _windowed_over_caps(2.0 * D, 0.75, 1e6, D)
    assert v_in < v_hi
    assert v_hi == pytest.approx(v_end, abs=1e-12)


def test_windowed_integral_batched_caps_match_one_cap_at_a_time():
    # caps on both sides of the domain roll-off, points inside and past it
    D = np.sqrt(1 + 400.0)
    x = np.linspace(-20, 20, 41)
    caps = np.square(bracket_h(np.linspace(-7, 30, 25), 2.0))
    batched = _windowed_over_caps(x[:, None], 0.75, caps[None, :], D)
    for k, cap in enumerate(caps):
        one = _windowed_over_caps(x, 0.75, cap, D)
        assert np.allclose(batched[:, k], one, rtol=1e-14, atol=0.0)


def _one_cap_reference(x, s, cap, D):
    """The windowed integral for one cap, point by point, with no clamping
    of the cap: the exact antiderivative up to y_pure, the full panels up to
    the point's panel and one partial panel."""
    a = np.abs(x)
    y_pure = weights._bracket_to_y(min(0.5 * cap, weights._DOMAIN_LO * D))
    y_end = weights._bracket_to_y(min(cap, weights._DOMAIN_HI * D))
    out = weights.decay_antiderivative(np.minimum(a, y_pure), s)
    ends = np.minimum(a, y_end)
    need = ends > y_pure
    bounds = np.linspace(y_pure, y_end, weights._PANELS + 1)
    cum = np.cumsum(np.concatenate(
        ([0.0], weights._gl_panels(bounds[:-1], bounds[1:], s, cap, D))))
    step = (y_end - y_pure) / weights._PANELS
    ip = np.clip(np.floor((ends[need] - y_pure) / step).astype(int),
                 0, weights._PANELS - 1)
    out[need] += cum[ip] + weights._gl_panels(bounds[ip], ends[need], s, cap, D)
    return np.where(x < 0.0, -out, out)


@pytest.mark.parametrize("D", [np.sqrt(1 + 100.0), np.inf], ids=["D", "inf"])
@pytest.mark.parametrize("s", [0.75, 0.375])
def test_windowed_integral_lattice_is_one_cap_reference_bit_for_bit(D, s):
    # the lambda2/lambda1 lattice, evaluated on unique (|x|, cap) pairs with
    # the caps clamped at 2 _DOMAIN_HI D, against one unclamped cap at a
    # time; h = 2 keeps every roll-off of positive width (numpy's linspace
    # rounds a batch that holds a zero-width one differently)
    grid = make_grid(10.0, 64)
    caps = np.square(bracket_h(grid.xi, 2.0))
    clamp = 2.0 * weights._DOMAIN_HI * np.sqrt(1 + 100.0)
    assert np.any(caps < clamp) and np.sum(caps > clamp) > 1
    lattice = _windowed_over_caps(grid.x[:, None], s, caps[None, :], D)
    reference = np.stack([_one_cap_reference(grid.x, s, cap, D)
                          for cap in caps], axis=1)
    assert np.array_equal(lattice, reference)


# ----------------------------------------------------------------------
# time weight and total phase
# ----------------------------------------------------------------------

def test_k_initial_value():
    p = params_with(C1=0.3, C2=0.01)
    assert float(k_of_t(0.0, p)) == pytest.approx(p.k0)


def test_k_homogeneous():
    p = params_with(C1=0.4, C2=0.0)
    t = np.linspace(0, 1, 5)
    assert np.allclose(k_of_t(t, p), p.k0 * np.exp(-0.4 * t))


def test_k_ode_residual():
    # k' = -(C1 k + C2), with k' by central differences
    p = params_with(C1=0.3, C2=0.01)
    for t in (0.1, 0.5, 0.9):
        kp = -(p.C1 * float(k_of_t(t, p)) + p.C2)
        fd = (float(k_of_t(t + 1e-6, p)) - float(k_of_t(t - 1e-6, p))) / 2e-6
        assert abs(kp - fd) < 1e-8


def _k_dies(T, p):
    try:
        k_of_t(T, p)
    except ParameterError:
        return True
    return False


# the grid the early check of calibrate_time_weight runs on: C1 * T is
# far above the rounding of k0 - C2 T, where the two verdicts could differ
@settings(max_examples=400, deadline=None)
@given(k0=st.sampled_from([0.05, 0.1, 0.2, 0.35, 0.5, 1.0]),
       T=st.sampled_from([0.25, 0.5, 1.0, 2.0, 5.0]),
       C2=st.floats(0.0, 5.0) | st.sampled_from([0.07, 0.175, 0.35, 0.7]),
       C1=st.floats(1e-3, 50.0))
@example(k0=0.35, T=1.0, C2=0.35, C1=1e-3)    # k(T) = 0 exactly at C1 = 0
def test_k_that_c2_alone_kills_dies_for_every_c1(k0, T, C2, C1):
    # k' = -C1 k - C2 falls faster with C1 > 0 while k is positive
    # (comparison principle): a k that C2 drives to zero by T with C1 = 0
    # reaches zero with every C1 > 0 too
    base = params_with(k0=k0)
    if _k_dies(T, base.with_ode_constants(0.0, C2)):
        assert _k_dies(T, base.with_ode_constants(C1, C2))


def test_k_death_instructs_larger_h():
    p = params_with(C1=0.0, C2=1.0, k0=0.35)
    with pytest.raises(ParameterError) as err:
        k_of_t(1.0, p)
    assert "h" in str(err.value)


def test_phase_ratio_shrinks_with_h():
    # sup |lam2 + lam1| <xi>_h^{-1/theta} decreases when h doubles
    grid = make_grid(5.0, 128)
    x = grid.x[:, None]
    sups = []
    for h in (8.0, 16.0):
        p = params_with(M2=0.7, M1=0.4, h=h)
        xi = grid.xi[None, :]
        phase = lam(2, x, xi, p) + lam(1, x, xi, p)
        sups.append(np.max(np.abs(phase) / bracket_h(xi, h) ** (1 / p.theta)))
    assert sups[1] < sups[0]


def test_weight_params_validation():
    with pytest.raises(ConfigurationError):
        params_with(sigma=0.6, theta=1.4)  # 2(1-sigma) = 0.8 >= 1/1.4
    for bad in (dict(h=0.5), dict(h=np.nan), dict(M2=np.nan),
                dict(M1=np.nan), dict(k0=np.nan), dict(k0=0.0)):
        with pytest.raises(ParameterError):
            params_with(**bad)
    with pytest.raises(ConfigurationError):
        params_with(sigma=0.3)


def test_weight_params_refuse_theta_sup():
    # theta's range is half-open at the top: 1/(2(1-sigma)) = 2 at
    # sigma = 0.75 is refused, the float below it is not
    with pytest.raises(ConfigurationError) as err:
        params_with(sigma=0.75, theta=2.0)
    assert "theta must lie in the admissible range" in str(err.value)
    params_with(sigma=0.75, theta=float(np.nextafter(2.0, 0.0)))
    with pytest.raises(ConfigurationError):
        WeightParams(M2=1.0, M1=0.5, h=2.0, k0=0.35, sigma=0.75, theta=1.8,
                     R_a3=1.0)


def test_plateau_shapes():
    u = np.linspace(0, 10, 101)
    v = plateau(u, 3.0, 6.0)
    assert np.all(v[u <= 3.0] == 1.0)
    assert np.all(v[u >= 6.0] == 0.0)
    assert np.all(np.diff(v) <= 1e-14)
