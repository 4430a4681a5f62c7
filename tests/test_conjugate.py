import numpy as np
import pytest

from gevrey_evolve import conjugate
from gevrey_evolve.conjugate import (ConjugationAssembler, build_conjugator,
                                     truncation_order)
from gevrey_evolve.errors import ConvergenceError
from gevrey_evolve.grid import bracket_h, make_grid
from gevrey_evolve.harness import model_problem_spatial_dense
from gevrey_evolve.quantize import (Dense, Multiplier, exp_table,
                                    multiplier_table, operator_norm,
                                    representable_error, to_dense)
from gevrey_evolve.symbols import model_problem
from gevrey_evolve.weights import WeightParams, k_of_t, k_prime

L, N = 10.0, 64
DCAP = float(np.sqrt(1 + L * L))
PROB = model_problem("complex-damped", 0.75, domain=L)
KDV = model_problem("kdv-baseline", 0.75)


def params_with(**kw):
    base = dict(M2=0.1, M1=0.1, h=2.0, k0=0.35, sigma=0.75, theta=1.8,
                domain_cap=DCAP)
    base.update(kw)
    return WeightParams(**base)


def full_matrix(bundle, t):
    """op(e^Lam(t)) as a matrix: the time stage after E."""
    return bundle.time_stage(t).dense() @ bundle.E.dense()


def full_inverse_matrix(bundle, t):
    return bundle.E_inv.dense() @ bundle.time_stage(t, -1).dense()


@pytest.fixture(scope="module")
def grid():
    return make_grid(L, N)


def test_trivial_phase_gives_identity(grid):
    p = params_with(M2=0.0, M1=0.0)
    bundle = build_conjugator(KDV, p, grid)
    I = np.eye(N)
    assert operator_norm(bundle.E.dense() - I) < 1e-12
    assert operator_norm(bundle.E_inv.dense() - I) < 1e-12
    assert bundle.spectral_radius < 1e-12


def _check_against_dense_oracle(bundle, variant):
    """E and E_inv have the variant, and the dense oracle checks them: E
    against op(e^lam) + P_nyq, E_inv against the dense inverse, and the full
    conjugator op(e^Lam(t)) against its matrix and its inverse at t = 0.3."""
    grid, params = bundle.grid, bundle.params
    assert isinstance(bundle.E, variant) and isinstance(bundle.E_inv, variant)
    E_syn = grid.synthesis_matrix()
    nyq = E_syn[:, grid.nyquist]
    E_ref = (to_dense(exp_table(bundle.assembler.phase.lam))
             + np.outer(nyq, nyq.conj()))
    assert operator_norm(bundle.E.dense() - E_ref) <= 1e-13 * operator_norm(E_ref)
    dense = build_conjugator(bundle.problem, params, grid, mode="dense")
    inv_ref = dense.E_inv.dense()
    assert operator_norm(bundle.E_inv.dense() - inv_ref) \
        <= 1e-12 * operator_norm(inv_ref)
    t = 0.3
    u = [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, grid.N))
    weight = np.exp(float(k_of_t(t, params))
                    * bracket_h(grid.xi, params.h) ** (1.0 / params.theta))
    full_ref = (E_syn * weight) @ E_syn.conj().T @ E_ref
    v = bundle.apply_full(u, t)
    assert grid.l2_norm(v - full_ref @ u) <= 1e-12 * grid.l2_norm(v)
    back = bundle.apply_full_inverse(v, t)
    assert grid.l2_norm(back - u) <= 1e-13 * grid.l2_norm(u)


@pytest.mark.parametrize("name, L_, N_, weights, variant", [
    ("kdv-baseline", 10.0, 64, dict(M2=0.0, M1=0.0, h=1.0), Multiplier),
    ("kdv-baseline", 40.0, 256, dict(M2=0.0, M1=0.0, h=1.0), Multiplier),
    ("complex-damped", 10.0, 64, dict(M2=0.1, M1=0.1, h=2.0), Dense),
    ("kdv-baseline", 10.0, 64, dict(M2=0.1, M1=0.0, h=2.0), Dense),
], ids=["kdv-64", "kdv-256", "damped-64", "kdv-weighted-64"])
def test_conjugator_variant_against_dense_oracle(name, L_, N_, weights,
                                                 variant):
    # the phase is x-independent (zero) exactly when nothing is dominated;
    # C1, C2 > 0 so the time stage is not the identity.  The tight series
    # tolerance lets the Neumann inverse meet the dense one to 1e-12
    grid = make_grid(L_, N_)
    prob = model_problem(name, 0.75, domain=L_)
    p = WeightParams(k0=0.35, sigma=0.75, theta=1.8,
                     domain_cap=float(np.sqrt(1 + L_ * L_)),
                     **weights).with_ode_constants(0.5, 0.1)
    bundle = build_conjugator(prob, p, grid, series_tol=1e-14)
    _check_against_dense_oracle(bundle, variant)
    if variant is Multiplier:
        assert bundle.series_terms == 0


def test_x_independent_phase_gives_multiplier_pair(grid, monkeypatch):
    # a phase whose rows are all equal but not zero: E is the multiplier of
    # the row e^lam and E_inv that of its reciprocal
    p = params_with(M2=0.0, M1=0.0).with_ode_constants(0.5, 0.1)
    phase = conjugate.build_phase_tables(KDV, p, grid)
    phase.lam = multiplier_table(grid, 0.3 * np.tanh(grid.xi) + 0.1)
    monkeypatch.setattr(conjugate, "build_phase_tables", lambda *args: phase)
    bundle = build_conjugator(KDV, p, grid)
    _check_against_dense_oracle(bundle, Multiplier)
    assert bundle.residual < 1e-15 and bundle.spectral_radius < 1e-15


def test_inverse_residual_and_modes(small_setup):
    bundle = small_setup["bundle"]
    g = small_setup["grid"]
    assert bundle.residual <= 1e-8
    dense = build_conjugator(small_setup["problem"], small_setup["params"], g,
                             mode="dense")
    # truncated series and dense inverse agree to series_tol * 10
    agree = operator_norm(bundle.E_inv.dense() - dense.E_inv.dense()) \
        / operator_norm(dense.E_inv.dense())
    assert agree <= 1e-9


def test_infeasible_phase_raises_convergence_error(grid):
    big = params_with(M2=1.5, M1=1.0)
    with pytest.raises(ConvergenceError):
        build_conjugator(PROB, big, grid)


def test_time_multiplier_exactness(grid):
    # conjugating the x-independent leading multiplier by the time weight
    # changes nothing, to machine precision
    bundle = build_conjugator(KDV, params_with(M2=0.0, M1=0.0, C1=0.1), grid)
    a3 = model_problem_spatial_dense(KDV, grid, 0.0)
    conj = full_matrix(bundle, 0.3) @ a3 @ full_inverse_matrix(bundle, 0.3)
    assert operator_norm(conj - a3) < 1e-12 * operator_norm(a3)


def test_d1_real_and_lambda1_independent(grid):
    p1 = params_with()
    p2 = params_with(M1=2.5 * p1.M1)
    cs1 = ConjugationAssembler(PROB, p1, grid).at(0.0)
    cs2 = ConjugationAssembler(PROB, p2, grid).at(0.0)
    assert np.max(np.abs(cs1.parts["d1"].values.imag)) < 1e-10
    assert np.max(np.abs(cs1.parts["d1"].values - cs2.parts["d1"].values)) < 1e-12


def test_zero_phase_kills_conjugation_terms(grid):
    p = params_with(M2=0.0, M1=0.0)
    terms = ConjugationAssembler(PROB, p, grid).at(0.0).parts
    for name in ("damp2", "damp1", "id1"):
        assert np.max(np.abs(terms[name].values)) == 0.0


def test_conj_a3_dense_oracle(grid):
    # spatial-stage conjugation of the leading term against the dense oracle
    p = params_with(M2=0.05, M1=0.04, h=4.0)
    bundle = build_conjugator(PROB, p, grid)
    a3 = model_problem_spatial_dense(KDV, grid, 0.0)
    lhs = bundle.E.dense() @ a3 @ bundle.E_inv.dense()
    cs = bundle.assembler.at(0.0)
    terms = cs.parts
    ia3 = multiplier_table(grid, 1j * cs.a3_row)
    rhs = to_dense(ia3 + terms["damp2"] + terms["damp1"] + terms["id1"])
    assert representable_error(lhs, rhs, grid, p.domain_cap) < 1e-3


def test_d1_matches_independent_derivative_path(grid):
    # rebuild the real order-1 symbol with every derivative taken
    # numerically from the sampled weight (6th-order differences in x
    # instead of the analytic closures); transcription errors would not
    # cancel between the two routes
    from gevrey_evolve._stencil import diff_uniform
    from gevrey_evolve.quantize import SymbolTable, xi_derivative
    from gevrey_evolve.weights import lambda2
    p = params_with(h=4.0, M2=0.15, M1=0.12)
    X, XI = grid.x[:, None], grid.xi[None, :]
    l2tab = SymbolTable(grid, lambda2(X, XI, 0.0, PROB, p).astype(complex))
    l2x = SymbolTable(grid, diff_uniform(l2tab.values, grid.dx, 1, axis=0,
                                         accuracy=6))
    l2xx = SymbolTable(grid, diff_uniform(l2tab.values, grid.dx, 2, axis=0,
                                          accuracy=6))
    a3row = np.asarray(KDV.a3(0.0, 0.0, grid.xi), dtype=complex)
    da3row = np.asarray(KDV.a3.dxi(0.0, 0.0, grid.xi), dtype=complex)
    A3 = multiplier_table(grid, a3row)
    DA3 = multiplier_table(grid, da3row)
    dxdxi = xi_derivative(l2x, 1)
    d1_ind = (xi_derivative(A3 * (l2xx - l2x * l2x), 2) * 0.5
              + DA3 * xi_derivative(l2xx, 1) * -1.0
              + xi_derivative(A3 * l2x, 1) * dxdxi
              + (A3 * (xi_derivative(l2xx + l2x * l2x, 2)
                       + dxdxi * dxdxi * 2.0)) * -0.5)
    d1_pkg = ConjugationAssembler(PROB, p, grid).at(0.0).parts["d1"]
    inner = np.abs(grid.x) < 0.6 * grid.L   # x-differences cross the seam
    band = grid.band_mask()
    diff = np.abs((d1_ind.values - d1_pkg.values)[inner][:, band])
    scale = np.max(np.abs(d1_pkg.values[inner][:, band]))
    assert diff.max() < 1e-3 * scale


def test_damping_terms_improve_dense_oracle(grid):
    # leaving the first-order damping terms out must visibly worsen the
    # dense-conjugation match (guards their sign and placement)
    p = params_with(h=4.0, M2=0.1, M1=0.08)
    bundle = build_conjugator(PROB, p, grid, inverse_tol=1e-5)
    a3 = model_problem_spatial_dense(KDV, grid, 0.0)
    lhs = bundle.E.dense() @ a3 @ bundle.E_inv.dense()
    cs = bundle.assembler.at(0.0)
    t = cs.parts
    ia3 = multiplier_table(grid, 1j * cs.a3_row)
    full = to_dense(ia3 + t["damp2"] + t["damp1"] + t["id1"])
    bare = to_dense(ia3 + t["id1"])
    e_full = representable_error(lhs, full, grid, p.domain_cap)
    e_bare = representable_error(lhs, bare, grid, p.domain_cap)
    assert e_bare > 1.15 * e_full


def test_conj_a2_vanishes_without_a2(grid):
    p = params_with()
    parts = ConjugationAssembler(KDV, p, grid).at(0.0).parts
    for name in ("ia2", "ia2_k", "a2cross"):
        assert np.max(np.abs(parts[name].values)) < 1e-14


def test_conj_a2_decay_bound_h_stable(grid):
    # sup |(ia2)_k| / (<xi>^{2-(2s-1)} <x>^-s) finite and not growing in h
    sups = []
    for h in (2.0, 4.0):
        p = params_with(h=h)
        cs = ConjugationAssembler(PROB, p, grid).at(0.0)
        bx = np.sqrt(1 + grid.x ** 2)[:, None]
        bh = bracket_h(grid.xi, h)[None, :]
        norm = bh ** (2 - (2 * p.sigma - 1)) * bx ** (-p.sigma)
        sups.append(float(np.max(np.abs(cs.parts["ia2_k"].values) / norm)))
    assert np.isfinite(sups[0]) and np.isfinite(sups[1])
    assert sups[1] <= sups[0] * 1.5


def test_time_weight_terms(grid):
    p = params_with(C1=0.2, C2=0.01)
    terms = ConjugationAssembler(PROB, p, grid).at(0.4).parts
    # -k'(t) <xi>^{1/theta} is nonnegative (k non-increasing)
    assert np.min(terms["kprime"].values.real[:, grid.band_mask()]) >= 0.0
    kp = -float(k_prime(0.4, p))
    k_col = np.argmin(np.abs(grid.xi))
    expect = kp * bracket_h(0.0, p.h) ** (1 / p.theta)
    assert terms["kprime"].values[0, k_col].real == pytest.approx(expect, rel=1e-12)


def test_b2k_bound_measured(grid):
    p = params_with(C1=0.05)
    cs = ConjugationAssembler(PROB, p, grid).at(0.2)
    kt = float(k_of_t(0.2, p))
    bx = np.sqrt(1 + grid.x ** 2)[:, None]
    bh = bracket_h(grid.xi, p.h)[None, :]
    norm = max(1.0, kt) * bh ** (1 + 1 / p.theta) * bx ** (-p.sigma)
    sup = float(np.max(np.abs(cs.parts["b2k"].values) / norm))
    assert np.isfinite(sup)
    # h-doubling keeps the measured constant stable
    p2 = params_with(h=2 * p.h, C1=0.05)
    cs2 = ConjugationAssembler(PROB, p2, grid).at(0.2)
    bh2 = bracket_h(grid.xi, p2.h)[None, :]
    norm2 = max(1.0, kt) * bh2 ** (1 + 1 / p.theta) * bx ** (-p.sigma)
    sup2 = float(np.max(np.abs(cs2.parts["b2k"].values) / norm2))
    assert sup2 <= sup * 1.5 + 1e-12


def test_zero_lower_order_groups(grid):
    # with no lower-order coefficients the order-2/1 groups collapse and the
    # residual block is the pure -k' <xi>^{1/theta} multiplier plus h-small
    p = params_with(M2=0.0, M1=0.0, C1=0.1)
    cs = ConjugationAssembler(KDV, p, grid).at(0.3)
    assert np.max(np.abs(cs.group_order2().values)) < 1e-14
    assert np.max(np.abs(cs.group_order1().values)) < 1e-14
    kp_tab = cs.parts["kprime"].values
    rest = cs.group_theta().values - kp_tab
    assert np.max(np.abs(rest)) < 1e-12


def test_full_assembly_oracle(small_setup):
    prob, grid = small_setup["problem"], small_setup["grid"]
    params, bundle = small_setup["params"], small_setup["bundle"]
    cs = small_setup["assembler"].at(0.3)
    spatial = model_problem_spatial_dense(prob, grid, 0.3)
    lhs = full_matrix(bundle, 0.3) @ spatial @ full_inverse_matrix(bundle, 0.3)
    rhs = to_dense(cs.spatial_table())
    assert representable_error(lhs, rhs, grid, params.domain_cap) < 1e-2


def test_hermitian_correction_bound(small_setup):
    # |c| <= C <xi> <x>^-sigma on the grid
    cs = small_setup["assembler"].at(0.0)
    grid = small_setup["grid"]
    herm = cs.hermitian_corrections()
    bx = np.sqrt(1 + grid.x ** 2)[:, None]
    bxi = np.sqrt(1 + grid.xi ** 2)[None, :]
    mask = grid.band_mask()
    quot = np.abs(herm["c"].values) / (bxi * bx ** -0.75)
    assert np.max(quot[:, mask]) < 1.0


def test_truncation_order_rule():
    assert truncation_order(2.0, 1.8) == 5
    assert truncation_order(1.0, 1.8) == 3
    assert truncation_order(2.0, 1.2, cap=8) == 8


def test_assembler_time_caching(grid):
    p = params_with(C1=0.1)
    asm = ConjugationAssembler(PROB, p, grid)
    a = asm.at(0.25).generator_table().values
    b = asm.at(0.25).generator_table().values
    assert np.array_equal(a, b)
    c = asm.at(0.5).generator_table().values
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", ["complex-damped", "time-modulated"])
def test_generator_polynomial_matches_generator_table(grid, name):
    # generator(t) = G_0 + sum_j k^j G_j - k' <xi>^{1/theta} against the sum
    # of the named parts, on fresh, repeated and evicted coefficient times
    prob = model_problem(name, 0.75, domain=L)
    asm = ConjugationAssembler(prob, params_with(C1=0.2, C2=0.01), grid)

    def check(t):
        got = asm.generator(t)
        ref = asm.at(t).generator_table().values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    for t in (0.0, 0.3, 0.3, 1.0):
        check(t)
    for t in np.linspace(0.05, 0.95, 13):   # more than the memo's 12 times
        asm.generator(t)
    for t in (0.0, 0.3, 1.0):
        check(t)
