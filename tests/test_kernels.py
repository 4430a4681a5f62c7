"""The table kernels against the implementations they replaced.

The references below are the straightforward versions kept as oracles:
the xi-difference with fftshift rolls, a stencil computed on every call and
a sum() of its terms; the x-derivative through the grid's e^{i xi L}
offset with one forward FFT per order; the smooth step through numpy's
chebval; one exponential per entry for the integrating factors.  Where the
arithmetic is the same the results must be equal bit for bit; the
x-derivative drops the offset's multiply-and-divide and agrees to rounding.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from gevrey_evolve import _stencil, conjugate, evolve, weights
from gevrey_evolve.conjugate import ConjugationAssembler, truncation_order
from gevrey_evolve.grid import make_grid
from gevrey_evolve.quantize import (SymbolTable, dx_operators,
                                    table_from_function, x_derivative,
                                    xi_derivative)
from gevrey_evolve.symbols import model_problem
from gevrey_evolve.weights import WeightParams


def diff_uniform_reference(values, spacing, order, axis=0, accuracy=4):
    moved = np.moveaxis(np.asarray(values), axis, 0)
    n = moved.shape[0]
    width = order + accuracy
    if width % 2 == 0:
        width += 1
    half = width // 2
    out = np.empty_like(moved)
    offsets = np.arange(-half, half + 1)
    w = _stencil._fornberg(offsets.astype(float), 0.0, order) / spacing**order
    out[half: n - half] = sum(
        w[j] * moved[half + offsets[j]: n - half + offsets[j] or None]
        for j in range(width))
    nodes = np.arange(width, dtype=float)
    for i in range(half):
        w = _stencil._fornberg(nodes, float(i), order) / spacing**order
        out[i] = np.tensordot(w, moved[:width], axes=(0, 0))
        w = _stencil._fornberg(nodes, float(width - 1 - i), order) / spacing**order
        out[n - 1 - i] = np.tensordot(w, moved[n - width:], axes=(0, 0))
    return np.moveaxis(out, 0, axis)


def xi_derivative_reference(p, order):
    g = p.grid
    rows = p.values.shape[0]
    shifted = np.fft.fftshift(p.values, axes=1)
    body = shifted[:, 1:]
    if rows == 1:
        body = np.repeat(body, 4, axis=0)
    dbody = diff_uniform_reference(body, g.dxi, order, axis=1)
    out = np.zeros_like(shifted)
    out[:, 1:] = dbody[:rows]
    return np.fft.ifftshift(out, axes=1)


def x_derivative_reference(p, order):
    g = p.grid
    u_hat = g._phase[:, None] * np.fft.fft(p.values, axis=0, norm="ortho")
    mult = (1j * g.xi) ** order
    mult[g.nyquist] = 0.0
    return np.fft.ifft(mult[:, None] * u_hat / g._phase[:, None], axis=0,
                       norm="ortho")


def smooth_step_reference(u, derivative):
    u = np.asarray(u, dtype=float)
    out = np.array(u >= 1.0, dtype=float) if derivative == 0 else np.zeros(u.shape)
    inside = ~(np.abs(u) >= 1.0)
    out[inside] = cheb.chebval(u[inside], weights._STEP_DERIVS[derivative])
    return out


def integrating_factors_reference(p, grid, times):
    times = np.asarray(times, dtype=float)
    t0 = times[:-1, None]
    dt = times[1:, None] - t0
    ends = np.concatenate([t0 + 0.5 * dt, times[1:, None]], axis=1)
    mid, rad = 0.5 * (t0 + ends), 0.5 * (ends - t0)
    off = rad / np.sqrt(3.0)
    gauss = np.stack([mid - off, mid + off], axis=-1)[..., None]
    a3 = np.broadcast_to(np.asarray(p.a3(gauss, 0.0, grid.xi), dtype=float),
                         gauss.shape[:-1] + (grid.N,))
    return np.exp(-1j * (rad[..., None] * (a3[:, :, 0] + a3[:, :, 1])))


def random_table(grid, rows, seed):
    rng = np.random.default_rng(seed)
    return SymbolTable(grid, rng.standard_normal((rows, grid.N))
                       + 1j * rng.standard_normal((rows, grid.N)))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_diff_uniform_equals_reference(axis, order):
    rng = np.random.default_rng(order)
    values = rng.standard_normal((70, 45)) + 1j * rng.standard_normal((70, 45))
    np.testing.assert_array_equal(
        _stencil.diff_uniform(values, 0.3, order, axis=axis),
        diff_uniform_reference(values, 0.3, order, axis=axis))


@pytest.mark.parametrize("N", [40, 64, 256])
@pytest.mark.parametrize("one_row", [False, True])
def test_xi_derivative_equals_reference(N, one_row):
    grid = make_grid(10.0, N)
    p = random_table(grid, 1 if one_row else N, N)
    for order in (1, 2, 3, 4):
        np.testing.assert_array_equal(xi_derivative(p, order).values,
                                      xi_derivative_reference(p, order))


@pytest.mark.parametrize("N", [40, 64, 256])
def test_x_derivatives_match_reference_to_rounding(N):
    grid = make_grid(10.0, N)
    p = random_table(grid, N, N + 1)
    dx = dx_operators(p)
    for order in (1, 2, 3, 4):
        ref = x_derivative_reference(p, order)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(x_derivative(p, order).values - ref)) <= 1e-14 * scale
        Dx = (-1j) ** order * ref
        assert np.max(np.abs(dx(order).values - Dx)) <= 1e-14 * scale
    row = random_table(grid, 1, N)
    assert not np.any(dx_operators(row)(2).values)
    assert x_derivative(row, 1).values.shape == (1, N)


def real_table(grid, rows, seed):
    rng = np.random.default_rng(seed)
    return SymbolTable(grid, rng.standard_normal((rows, grid.N)))


def complex_cast(p):
    return SymbolTable(p.grid, p.values.astype(complex))


# a real table is float64 and differentiates as the real part of its
# complex cast, bit for bit, one-sided edges included

@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_diff_uniform_of_real_values_is_the_complex_casts_real_part(axis, order):
    values = np.random.default_rng(order + 10).standard_normal((70, 45))
    got = _stencil.diff_uniform(values, 0.3, order, axis=axis)
    want = _stencil.diff_uniform(values.astype(complex), 0.3, order, axis=axis)
    assert got.dtype == float
    np.testing.assert_array_equal(got, want.real)


@pytest.mark.parametrize("N", [40, 64, 256])
@pytest.mark.parametrize("one_row", [False, True])
def test_xi_derivative_of_real_table_is_the_complex_casts_real_part(N, one_row):
    p = real_table(make_grid(10.0, N), 1 if one_row else N, N + 2)
    for order in (1, 2, 3, 4):
        got = xi_derivative(p, order).values
        assert got.dtype == float
        np.testing.assert_array_equal(
            got, xi_derivative(complex_cast(p), order).values.real)


@pytest.mark.parametrize("N", [40, 64, 256])
def test_x_derivatives_of_real_table_equal_the_complex_casts(N):
    # the spectrum of a real table is complex: every order equals the
    # complex cast's, real and imaginary parts
    p = real_table(make_grid(10.0, N), N, N + 3)
    got, want = dx_operators(p), dx_operators(complex_cast(p))
    for order in (1, 2, 3, 4):
        np.testing.assert_array_equal(got(order).values, want(order).values)
        np.testing.assert_array_equal(
            x_derivative(p, order).values,
            x_derivative(complex_cast(p), order).values)


def test_exp_derivative_factors_of_real_derivatives_are_the_complex_casts_real_part():
    rng = np.random.default_rng(5)
    derivs = [rng.standard_normal((8, 9)) for _ in range(4)]
    cast = [d.astype(complex) for d in derivs]
    got = _stencil.exp_derivative_factors(derivs[:4],
                                          _stencil.exp_derivative_factors(derivs[:2]))
    want = _stencil.exp_derivative_factors(cast)
    for g, w in zip(got, want):
        assert g.dtype == float
        np.testing.assert_array_equal(g, w.real)


@pytest.mark.parametrize("derivative", [0, 1, 2, 3])
def test_smooth_step_equals_chebval(derivative):
    u = np.concatenate([np.linspace(-1.5, 1.5, 3001),
                        [-1.0, 1.0, np.nan, -np.inf, np.inf,
                         np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]])
    got = weights.smooth_step(u.reshape(-1, 8), derivative)
    np.testing.assert_array_equal(got, smooth_step_reference(
        u.reshape(-1, 8), derivative))
    assert np.isnan(weights.smooth_step(np.nan, derivative))


@pytest.mark.parametrize("name", ["complex-damped", "time-modulated"])
def test_integrating_factors_equal_reference(name):
    grid = make_grid(10.0, 64)
    p = model_problem(name, 0.75, domain=10.0)
    for times in (np.linspace(0.0, 1.0, 17), [0.0, 0.1, 0.25, 0.3, 0.7, 1.0]):
        np.testing.assert_array_equal(
            evolve.integrating_factors(p, grid, times),
            integrating_factors_reference(p, grid, times))


def test_fd_weights_computes_each_stencil_once(monkeypatch):
    computed = []
    fornberg = _stencil._fornberg

    def counting(nodes, x0, order):
        computed.append((tuple(nodes), x0, order))
        return fornberg(nodes, x0, order)

    monkeypatch.setattr(_stencil, "_WEIGHTS", {})
    monkeypatch.setattr(_stencil, "_fornberg", counting)
    grid = make_grid(10.0, 40)
    p = random_table(grid, 40, 0)
    for _ in range(2):
        for order in (1, 2, 3, 4):
            xi_derivative(p, order)
    assert len(computed) == len(set(computed))
    # per order: the central stencil and one per edge point of each side,
    # widths 5, 7, 7 and 9
    assert len(computed) == 5 + 7 + 7 + 9
    w = _stencil.fd_weights(np.arange(5.0), 1.0, 2)
    assert not w.flags.writeable and w is _stencil.fd_weights(range(5), 1, 2)


def count_x_ffts(monkeypatch):
    """The shapes np.fft.fft is called on from now on, in call order."""
    calls, fft = [], np.fft.fft

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return calls


def test_one_forward_fft_per_differentiated_table(monkeypatch):
    grid = make_grid(10.0, 64)
    prob = model_problem("complex-damped", 0.75, domain=10.0)
    params = WeightParams(M2=0.1, M1=0.1, h=2.0, k0=0.35, sigma=0.75,
                          theta=1.8, domain_cap=float(np.sqrt(101.0)))
    asm = ConjugationAssembler(prob, params, grid)
    n = truncation_order(2.0, params.theta)
    asm.phase.exp_factors(n - 1)
    q = table_from_function(grid, lambda x, xi: np.exp(-(x / 2.0) ** 2)
                            * (1.0 + 0.1 * xi * xi))
    calls = count_x_ffts(monkeypatch)
    conjugate.conjugation_expansion(q, asm.phase, n, {}, "q")
    assert calls == [(64, 64)]
    calls.clear()
    conjugate._hermitian_half(q.real, {}, "q")
    assert calls == [(64, 64)]
    calls.clear()
    # the k stage reads D_x^b q for b = 1..4 here
    assert len(asm._k_stage(q, 2.0, "q")) == 4 and calls == [(64, 64)]
