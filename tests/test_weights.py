import math

import numpy as np
import pytest
from scipy import integrate

from gevrey_evolve.errors import ConfigurationError, ParameterError
from gevrey_evolve.grid import bracket_h, make_grid
from gevrey_evolve.symbols import Symbol, model_problem
from gevrey_evolve.weights import (WeightParams, _windowed_over_caps, cutoff_psi,
                                   k_of_t, k_prime, lambda1, lambda2,
                                   lambda_x_derivative, plateau, sign_weight,
                                   smooth_step, total_phase,
                                   windowed_decay_integral)

PROB = model_problem("complex-damped", 0.75)


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
    assert sign_weight(3 * h, 0.0, PROB, p) == pytest.approx(-1.0)
    assert sign_weight(-3 * h, 0.0, PROB, p) == pytest.approx(-1.0)
    assert sign_weight(0.5 * h, 0.0, PROB, p) == pytest.approx(0.0)
    mid = sign_weight(1.5 * h, 0.0, PROB, p)
    assert -1.0 < mid < 0.0


def test_sign_weight_ambiguous_sign_rejected():
    flip = Symbol(lambda t, x, xi: xi ** 3 - 30.0 * xi + 0 * x, order=3.0,
                  dxi=lambda t, x, xi: 3 * xi ** 2 - 30.0 + 0 * x)
    import dataclasses
    bad = dataclasses.replace(PROB, a3=flip)
    with pytest.raises(ConfigurationError):
        sign_weight(np.linspace(-8, 8, 33), 0.0, bad, params_with(h=1.0))


# ----------------------------------------------------------------------
# spatial weights
# ----------------------------------------------------------------------

def test_lambda2_zero_at_origin():
    p = params_with()
    for xi in (0.5, 3.0, 10.0):
        assert lambda2(0.0, xi, 0.0, PROB, p) == 0.0


def test_lambda2_vanishes_inside_h():
    p = params_with()
    x = np.linspace(-5, 5, 11)
    for xi in (0.0, 0.5 * p.h, -0.9 * p.h):
        assert np.allclose(lambda2(x, xi, 0.0, PROB, p), 0.0)
        assert np.allclose(lambda1(x, xi, 0.0, PROB, p), 0.0)


def test_lambda2_frozen_quadrature_value():
    # saturated sign region, window wide open: lambda2(1, xi) = -M2 I with
    # I = integral_0^1 <y>^-0.75 dy (adaptive-quadrature oracle, frozen)
    p = params_with(M2=1.0)
    val = lambda2(1.0, 10.0, 0.0, PROB, p)
    assert val == pytest.approx(-0.9086820214507749, abs=1e-11)


def test_lambda2_transition_against_adaptive_quadrature():
    p = params_with(M2=1.0, h=1.0)
    xi = 1.7
    cap = 1.0 + xi ** 2
    oracle, _ = integrate.quad(
        lambda y: (1 + y * y) ** -0.375 * float(cutoff_psi(np.sqrt(1 + y * y) / cap)),
        0.0, 3.0, epsabs=1e-13, limit=200)
    w = float(sign_weight(xi, 0.0, PROB, p))
    assert lambda2(3.0, xi, 0.0, PROB, p) == pytest.approx(w * oracle, abs=1e-10)


def test_lambda_bounds():
    p = params_with(M2=0.7, M1=0.4)
    x = np.linspace(-20, 20, 81)[:, None]
    xi = np.linspace(-30, 30, 61)[None, :]
    b = bracket_h(xi, p.h)
    l2 = lambda2(x, xi, 0.0, PROB, p)
    l1 = lambda1(x, xi, 0.0, PROB, p)
    assert np.all(np.abs(l2) <= p.M2 / (1 - p.sigma) * b ** (2 * (1 - p.sigma)) + 1e-9)
    assert np.all(np.abs(l1) <= p.M1 / (1 - p.sigma / 2) * b ** (1 - p.sigma) + 1e-9)


def test_lambda1_x_derivative_closed_form():
    p = params_with()
    xi, x0 = 5.5, 1.3
    eps = 1e-5
    fd = (lambda1(x0 + eps, xi, 0.0, PROB, p)
          - lambda1(x0 - eps, xi, 0.0, PROB, p)) / (2 * eps)
    b = float(bracket_h(xi, p.h))
    expected = (p.M1 * float(sign_weight(xi, 0.0, PROB, p)) / b
                * (1 + x0 ** 2) ** (-p.sigma / 4)
                * float(cutoff_psi(np.sqrt(1 + x0 ** 2) / b ** 2)))
    assert fd == pytest.approx(expected, abs=1e-8)
    ana = lambda_x_derivative(x0, xi, 0.0, PROB, p, which=1, order=1)
    assert float(ana) == pytest.approx(expected, abs=1e-12)


def test_lambda_x_derivative_orders_match_fd():
    p = params_with(h=1.0)
    xi, x0 = 1.7, 0.9
    eps = 1e-4
    vals = [lambda2(x0 + k * eps, xi, 0.0, PROB, p) for k in (-2, -1, 0, 1, 2)]
    fd2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * eps ** 2)
    ana2 = lambda_x_derivative(x0, xi, 0.0, PROB, p, which=2, order=2)
    assert float(ana2) == pytest.approx(fd2, abs=1e-6)


def test_derivative_bounds_h_stable():
    # |d_x lam2| <= C <x>^-sigma with C independent of h, and the lam1
    # version carries the extra <xi>_h^-1 factor
    x = np.linspace(-4, 4, 41)[:, None]
    for h in (8.0, 16.0, 32.0):
        p = params_with(M2=0.7, M1=0.4, h=h)
        xi = np.linspace(-4 * h, 4 * h, 33)[None, :]
        d2 = lambda_x_derivative(x, xi, 0.0, PROB, p, which=2, order=1)
        c2 = np.max(np.abs(d2) * (1 + x ** 2) ** (p.sigma / 2))
        assert c2 <= p.M2 + 1e-9
        d1 = lambda_x_derivative(x, xi, 0.0, PROB, p, which=1, order=1)
        c1 = np.max(np.abs(d1) * bracket_h(xi, h) * (1 + x ** 2) ** (p.sigma / 4))
        assert c1 <= p.M1 + 1e-9


def test_windowed_integral_with_domain_cap():
    # the domain roll-off freezes the integral before the seam
    D = np.sqrt(1 + 100.0)
    v_in = windowed_decay_integral(0.5 * D, 0.75, 1e6, D)
    v_hi = windowed_decay_integral(0.95 * D, 0.75, 1e6, D)
    v_end = windowed_decay_integral(2.0 * D, 0.75, 1e6, D)
    assert v_in < v_hi
    assert v_hi == pytest.approx(v_end, abs=1e-12)


def test_windowed_integral_batched_caps_match_one_cap_at_a_time():
    # caps on both sides of the domain roll-off, points inside and past it
    D = np.sqrt(1 + 400.0)
    x = np.linspace(-20, 20, 41)
    caps = np.square(bracket_h(np.linspace(-7, 30, 25), 2.0))
    batched = _windowed_over_caps(x[:, None], 0.75, caps[None, :], D)
    for k, cap in enumerate(caps):
        one = windowed_decay_integral(x, 0.75, cap, D)
        assert np.allclose(batched[:, k], one, rtol=1e-14, atol=0.0)


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
    p = params_with(C1=0.3, C2=0.01)
    for t in (0.1, 0.5, 0.9):
        kk = float(k_of_t(t, p))
        kp = float(k_prime(t, p))
        assert abs(kp + p.C1 * kk + p.C2) < 1e-12
        fd = (float(k_of_t(t + 1e-6, p)) - float(k_of_t(t - 1e-6, p))) / 2e-6
        assert abs(kp - fd) < 1e-8


def test_k_death_instructs_larger_h():
    p = params_with(C1=0.0, C2=1.0, k0=0.35)
    with pytest.raises(ParameterError) as err:
        k_of_t(1.0, p)
    assert "h" in str(err.value)


def test_total_phase_at_origin():
    p = params_with(C1=0.1, C2=0.0)
    xi = np.linspace(-10, 10, 21)
    for t in (0.0, 0.7):
        val = total_phase(t, 0.0, xi, PROB, p)
        expect = float(k_of_t(t, p)) * bracket_h(xi, p.h) ** (1 / p.theta)
        assert np.allclose(val, expect)


def test_total_phase_nonincreasing_in_t():
    p = params_with(C1=0.2, C2=0.01)
    x, xi = 1.5, 7.0
    vals = [float(total_phase(t, x, xi, PROB, p)) for t in np.linspace(0, 1, 6)]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(5))


def test_phase_ratio_shrinks_with_h():
    # sup |lam2 + lam1| <xi>_h^{-1/theta} decreases when h doubles
    grid = make_grid(5.0, 128)
    x = grid.x[:, None]
    sups = []
    for h in (8.0, 16.0):
        p = params_with(M2=0.7, M1=0.4, h=h)
        xi = grid.xi[None, :]
        lam = lambda2(x, xi, 0.0, PROB, p) + lambda1(x, xi, 0.0, PROB, p)
        sups.append(np.max(np.abs(lam) / bracket_h(xi, h) ** (1 / p.theta)))
    assert sups[1] < sups[0]


def test_weight_params_validation():
    with pytest.raises(ConfigurationError):
        params_with(sigma=0.6, theta=1.4)  # 2(1-sigma) = 0.8 >= 1/1.4
    with pytest.raises(ParameterError):
        params_with(h=0.5)
    with pytest.raises(ConfigurationError):
        params_with(sigma=0.3)
    with pytest.raises(ConfigurationError):
        WeightParams(M2=1.0, M1=0.5, h=2.0, k0=0.35, sigma=0.75, theta=1.8,
                     R_a3=1.0)


def test_plateau_shapes():
    u = np.linspace(0, 10, 101)
    v = plateau(u, 3.0, 6.0)
    assert np.all(v[u <= 3.0] == 1.0)
    assert np.all(v[u >= 6.0] == 0.0)
    assert np.all(np.diff(v) <= 1e-14)
