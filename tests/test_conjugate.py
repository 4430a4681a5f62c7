import math
from dataclasses import replace

import numpy as np
import pytest

from gevrey_evolve import conjugate, evolve, weights
from gevrey_evolve._stencil import exp_derivative_factors
from gevrey_evolve.conjugate import (BLOCKS, MARGINS, ConjugationAssembler,
                                     build_conjugator, truncation_order)
from gevrey_evolve.errors import ConvergenceError, ParameterError
from gevrey_evolve.evolve import solve_conjugated, synthetic_radius_field
from gevrey_evolve.grid import bracket_h, make_grid
from gevrey_evolve.harness import model_problem_spatial_dense
from gevrey_evolve.positivity import real_sum
from gevrey_evolve.quantize import (SymbolTable, coefficient_matrix,
                                    exp_table, multiplier_table, node_matrix,
                                    operator_norm, representable_error,
                                    sampled_table, stage_matrices, to_dense,
                                    x_derivative)
from gevrey_evolve.symbols import Symbol, eval_table, model_problem
from gevrey_evolve.weights import (WeightParams, k_of_t, k_prime,
                                   lambda_x_derivative)

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
    g = bundle.grid
    return node_matrix(g, bundle.time_stage(t)) @ node_matrix(g, bundle.E)


def full_inverse_matrix(bundle, t):
    g = bundle.grid
    return (node_matrix(g, bundle.E_inv)
            @ node_matrix(g, bundle.time_stage(t, -1)))


@pytest.fixture(scope="module")
def grid():
    return make_grid(L, N)


def test_trivial_phase_gives_identity(grid):
    p = params_with(M2=0.0, M1=0.0)
    bundle = build_conjugator(ConjugationAssembler(KDV, p, grid))
    I = np.eye(N)
    assert operator_norm(node_matrix(grid, bundle.E) - I) < 1e-12
    assert operator_norm(node_matrix(grid, bundle.E_inv) - I) < 1e-12
    assert bundle.spectral_radius < 1e-12


def _check_against_dense_oracle(bundle, ndim):
    """E and E_inv have the variant, rows (ndim 1) or coefficient matrices
    (ndim 2), and the dense oracle checks them: E against op(e^lam) +
    P_nyq, E_inv against the dense inverse, and the full conjugator
    op(e^Lam(t)) against its matrix and its inverse at t = 0.3."""
    grid, params = bundle.grid, bundle.params
    assert bundle.E.ndim == bundle.E_inv.ndim == ndim
    E_syn = grid.synthesis_matrix()
    nyq = E_syn[:, grid.nyquist]
    E_ref = (to_dense(exp_table(bundle.assembler.phase.lam))
             + np.outer(nyq, nyq.conj()))
    assert operator_norm(node_matrix(grid, bundle.E) - E_ref) \
        <= 1e-13 * operator_norm(E_ref)
    dense = build_conjugator(bundle.assembler, mode="dense")
    inv_ref = node_matrix(grid, dense.E_inv)
    assert operator_norm(node_matrix(grid, bundle.E_inv) - inv_ref) \
        <= 1e-12 * operator_norm(inv_ref)
    t = 0.3
    u = [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, grid.N))
    weight = np.exp(float(k_of_t(t, params))
                    * bracket_h(grid.xi, params.h) ** (1.0 / params.theta))
    full_ref = (E_syn * weight) @ E_syn.conj().T @ E_ref
    v = grid.inverse(bundle.apply_full(grid.forward(u), t))
    assert grid.l2_norm(v - full_ref @ u) <= 1e-12 * grid.l2_norm(v)
    back = grid.inverse(bundle.apply_full_inverse(grid.forward(v), t))
    assert grid.l2_norm(back - u) <= 1e-13 * grid.l2_norm(u)


@pytest.mark.parametrize("name, L_, N_, weights, ndim", [
    ("kdv-baseline", 10.0, 64, dict(M2=0.0, M1=0.0, h=1.0), 1),
    ("kdv-baseline", 40.0, 256, dict(M2=0.0, M1=0.0, h=1.0), 1),
    ("complex-damped", 10.0, 64, dict(M2=0.1, M1=0.1, h=2.0), 2),
    ("kdv-baseline", 10.0, 64, dict(M2=0.1, M1=0.0, h=2.0), 2),
], ids=["kdv-64", "kdv-256", "damped-64", "kdv-weighted-64"])
def test_conjugator_variant_against_dense_oracle(name, L_, N_, weights,
                                                 ndim):
    # the phase is x-independent (zero) exactly when nothing is dominated;
    # C1, C2 > 0 so the time stage is not the identity.  The tight series
    # tolerance lets the Neumann inverse meet the dense one to 1e-12
    grid = make_grid(L_, N_)
    prob = model_problem(name, 0.75, domain=L_)
    p = WeightParams(k0=0.35, sigma=0.75, theta=1.8,
                     domain_cap=float(np.sqrt(1 + L_ * L_)),
                     **weights).with_ode_constants(0.5, 0.1)
    bundle = build_conjugator(ConjugationAssembler(prob, p, grid),
                              series_tol=1e-14)
    _check_against_dense_oracle(bundle, ndim)
    if ndim == 1:
        assert bundle.series_terms == 0


def test_x_independent_phase_gives_multiplier_pair(grid, monkeypatch):
    # a phase whose rows are all equal but not zero: E is the row e^lam
    # and E_inv its reciprocal
    p = params_with(M2=0.0, M1=0.0).with_ode_constants(0.5, 0.1)
    phase = conjugate.build_phase_tables(KDV, p, grid)
    phase.lam = multiplier_table(grid, 0.3 * np.tanh(grid.xi) + 0.1)
    monkeypatch.setattr(conjugate, "build_phase_tables", lambda *args: phase)
    bundle = build_conjugator(ConjugationAssembler(KDV, p, grid))
    _check_against_dense_oracle(bundle, 1)
    assert bundle.residual < 1e-15 and bundle.spectral_radius < 1e-15


def test_inverse_residual_and_modes(small_setup):
    bundle = small_setup["bundle"]
    g = small_setup["grid"]
    assert bundle.residual <= 1e-8
    dense = build_conjugator(bundle.assembler, mode="dense")
    # truncated series and dense inverse agree to series_tol * 10
    agree = operator_norm(node_matrix(g, bundle.E_inv)
                          - node_matrix(g, dense.E_inv)) \
        / operator_norm(node_matrix(g, dense.E_inv))
    assert agree <= 1e-9


def test_neumann_series_stops_by_the_power_it_leaves(small_setup):
    # damped-64: the product-form series squares P = R^terms until
    # ||P||_F < series_tol.  The build skips the last square once
    # ||P||_F^2 < series_tol and keeps the terms and the bits of E_inv; the
    # residual is the Frobenius norm of E E_inv - I, above its 2-norm
    from gevrey_evolve.quantize import coefficient_matrix
    asm, tol = small_setup["assembler"], 1e-10
    bundle = build_conjugator(asm, series_tol=tol)
    g, lam = asm.grid, asm.phase.lam
    E, E_star = (coefficient_matrix(g, exp_table(tab).values)
                 for tab in (lam, lam * -1.0))
    E[g.nyquist, g.nyquist] = E_star[g.nyquist, g.nyquist] = 1.0
    E_star, I = E_star.conj().T, np.eye(g.N)
    R = E @ E_star - I
    S, P, terms = I - R, R @ R, 2
    while np.linalg.norm(P) >= tol:
        skipped = np.linalg.norm(P) ** 2 < tol
        S = S + S @ P
        P = P @ P
        terms *= 2
    assert skipped and terms == bundle.series_terms == 32
    E_inv = E_star @ S
    assert np.array_equal(bundle.E_inv, E_inv)
    assert np.array_equal(bundle.E, E)
    assert bundle.residual == np.linalg.norm(E @ E_inv - I)
    assert bundle.residual >= operator_norm(E @ E_inv - I)


def test_infeasible_phase_raises_convergence_error(grid):
    big = params_with(M2=1.5, M1=1.0)
    with pytest.raises(ConvergenceError):
        build_conjugator(ConjugationAssembler(PROB, big, grid))


def test_dense_mode_refuses_a_large_grid_before_any_work(monkeypatch):
    # N > 256 is refused before E, E_star, R or a norm of R is formed
    def formed(*args, **kwargs):
        raise AssertionError("dense work before the size check")

    asm = ConjugationAssembler(PROB, params_with(), make_grid(L, 264))
    monkeypatch.setattr(conjugate, "coefficient_matrix", formed)
    monkeypatch.setattr(conjugate, "operator_norm", formed)
    with pytest.raises(ParameterError, match="N <= 256"):
        build_conjugator(asm, mode="dense")


def test_time_multiplier_exactness(grid):
    # conjugating the x-independent leading multiplier by the time weight
    # changes nothing, to machine precision
    bundle = build_conjugator(ConjugationAssembler(
        KDV, params_with(M2=0.0, M1=0.0, C1=0.1), grid))
    a3 = model_problem_spatial_dense(KDV, grid, 0.0)
    conj = full_matrix(bundle, 0.3) @ a3 @ full_inverse_matrix(bundle, 0.3)
    assert operator_norm(conj - a3) < 1e-12 * operator_norm(a3)


def test_stage_keeps_d1_and_a2_once(grid):
    # a coefficient time's store holds i d1 and i a2 once, as the U_0 of
    # their k-polynomials, and the parts read i d1 from the store; the
    # order-1 group ia1 + damp1 + i d1 + a2cross is formed, bit for bit, in
    # its k-stage correction b1k, and Re a2 (the imaginary part of i a2) in
    # the Hermitian correction c
    asm = ConjugationAssembler(PROB, params_with(C1=0.2, C2=0.01), grid)
    cs = asm.at(0.0)
    poly = asm._entry(0.0)["poly"]
    stage = {name: U[0] for name, U in poly.items() if 0 in U}
    assert not {"d1", "re_a2_raw"} & set(stage)
    assert np.array_equal(cs.parts["id1"].values, stage["id1"].values)
    c = conjugate._hermitian_half(eval_table(PROB.a2, grid, 0.0).real, {},
                                 "c")
    assert np.array_equal(asm.part("c", 0.0).values, c.values)
    a1t = stage["ia1"] + stage["damp1"] + stage["id1"] + stage["a2cross"]
    want = asm._k_stage(a1t, 1.0, "k:b1k")
    got = poly["b1k"]
    assert want.keys() == got.keys() and want
    for j in want:
        assert np.array_equal(got[j].values, want[j].values)


def test_d1_real_and_lambda1_independent(grid):
    p1 = params_with()
    p2 = params_with(M1=2.5 * p1.M1)
    d1, d2 = ((ConjugationAssembler(PROB, p, grid).at(0.0).parts["id1"] * -1j)
              .values for p in (p1, p2))
    assert np.max(np.abs(d1.imag)) < 1e-10
    assert np.max(np.abs(d1 - d2)) < 1e-12


def test_zero_phase_kills_conjugation_terms(grid):
    p = params_with(M2=0.0, M1=0.0)
    terms = ConjugationAssembler(PROB, p, grid).at(0.0).parts
    for name in ("damp2", "damp1", "id1"):
        assert np.max(np.abs(terms[name].values)) == 0.0


def test_conj_a3_dense_oracle(grid):
    # spatial-stage conjugation of the leading term against the dense oracle
    p = params_with(M2=0.05, M1=0.04, h=4.0)
    bundle = build_conjugator(ConjugationAssembler(PROB, p, grid))
    a3 = model_problem_spatial_dense(KDV, grid, 0.0)
    lhs = node_matrix(grid, bundle.E) @ a3 @ node_matrix(grid, bundle.E_inv)
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
    d1_pkg = ConjugationAssembler(PROB, p, grid).at(0.0).parts["id1"] * -1j
    inner = np.abs(grid.x) < 0.6 * grid.L   # x-differences cross the seam
    band = grid.band_mask()
    diff = np.abs((d1_ind.values - d1_pkg.values)[inner][:, band])
    scale = np.max(np.abs(d1_pkg.values[inner][:, band]))
    assert diff.max() < 1e-3 * scale


def test_damping_terms_improve_dense_oracle(grid):
    # leaving the first-order damping terms out must visibly worsen the
    # dense-conjugation match (guards their sign and placement)
    p = params_with(h=4.0, M2=0.1, M1=0.08)
    bundle = build_conjugator(ConjugationAssembler(PROB, p, grid),
                              inverse_tol=1e-5)
    a3 = model_problem_spatial_dense(KDV, grid, 0.0)
    lhs = node_matrix(grid, bundle.E) @ a3 @ node_matrix(grid, bundle.E_inv)
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


def test_kprime_part_is_the_time_stage_term(grid):
    # the k-polynomial {0: C2 X, 1: C1 X} of kprime, X = <xi>_h^{1/theta},
    # is -k'(t) X, the term the time stage adds, since k' + C1 k + C2 = 0
    p = params_with(C1=0.2, C2=0.01)
    asm = ConjugationAssembler(PROB, p, grid)
    X = bracket_h(grid.xi, p.h) ** (1 / p.theta)
    X[grid.nyquist] = 0.0
    for t in (0.0, 0.3, 1.0):
        want = -float(k_prime(t, p)) * X
        got = asm.part("kprime", t).values
        assert got.shape == (1, N)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["complex-damped", "kdv-baseline"])
def test_stage_follows_new_time_weight_constants(grid, name):
    # a generator formed before C1 and C2 change is not applied after: the
    # kprime part reads them, so the stage after the change is the
    # quantized generator table at the new constants
    weights = {"M2": 0.0, "M1": 0.0} if name == "kdv-baseline" else {}
    asm = ConjugationAssembler(model_problem(name, 0.75, domain=L),
                               params_with(C1=0.2, C2=0.01, **weights), grid)
    rng = np.random.default_rng(9)
    w_hat = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    asm.stages([0.0, 0.3])
    asm.params = asm.params.with_ode_constants(0.5, 0.1)
    for t in (0.0, 0.3):
        got = _applied(_stage(asm, t), w_hat)
        ref = coefficient_matrix(grid, asm.at(t).generator_table().values
                                 ) @ w_hat
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    assert np.max(np.abs(cs.block("order2").values)) < 1e-14
    assert np.max(np.abs(cs.block("order1").values)) < 1e-14
    kp_tab = cs.parts["kprime"].values
    rest = cs.block("theta").values - kp_tab
    assert np.max(np.abs(rest)) < 1e-12


def test_order1_block_matches_its_report_form(grid):
    # the order-1 block against its margin, which names its own terms:
    # Re(ia1 + a2cross) + m1_main + c + e.  Where the domain window is 1
    # (|x| <= L/2) the damping is m1_main + m1_tail, so a part dropped from
    # or added to the block shows here
    asm = ConjugationAssembler(PROB, params_with(C1=0.2, C2=0.01), grid)
    cs = asm.at(0.3)
    part = lambda name: asm.part(name, 0.3)
    report = (real_sum(asm, MARGINS["order1"], 0.3) - part("c").real.values
              - part("e").real.values + part("m1_tail").values)
    inner = np.abs(grid.x) <= L / 2
    block = cs.block("order1").real.values
    assert np.max(part("m1_main").values[inner]) > 1.0
    assert np.max(np.abs((block - report)[inner])) < 1e-12


def test_order1_block_holds_d1(small_setup):
    # read without BLOCKS: the imaginary part of the order-1 block is that
    # of ia1 + damp1 + a2cross plus d1 (real, and checked on its own by
    # test_d1_matches_independent_derivative_path), so an order-1 block
    # that drops id1 shows here
    cs = small_setup["assembler"].at(0.3)
    p = cs.parts
    d1 = (p["id1"] * -1j).real.values
    want = (p["ia1"] + p["damp1"] + p["a2cross"]).imag.values + d1
    assert np.max(np.abs(d1)) > 1e-2
    assert np.max(np.abs(cs.block("order1").imag.values - want)) < 1e-12


def test_order2_block_matches_its_report_form(grid):
    # the order-2 block against its margin, which names its own terms:
    # Re(ia2 + b2k + ia2_k) + m2_main.  Where the domain window is 1
    # (|x| <= L/2) the damping is m2_main + m2_tail, so a part dropped from
    # or added to the block shows here
    asm = ConjugationAssembler(PROB, params_with(C1=0.2, C2=0.01), grid)
    cs = asm.at(0.3)
    report = (real_sum(asm, MARGINS["order2"], 0.3)
              + asm.part("m2_tail", 0.3).values)
    inner = np.abs(grid.x) <= L / 2
    block = cs.block("order2").real.values
    assert np.max(asm.part("m2_main", 0.3).values[inner]) > 1.0
    assert np.max(np.abs((block - report)[inner])) < 1e-12


def test_theta_block_matches_its_report_form(grid):
    # the 1/theta block against its margin, which names its own terms:
    # Re(kprime + b1k + ia1_k) + m2_tail + m1_tail.  C1, C2 > 0 make kprime
    # nonzero, so a part dropped from or added to the block shows here
    asm = ConjugationAssembler(PROB, params_with(C1=0.2, C2=0.01), grid)
    cs = asm.at(0.3)
    report = (real_sum(asm, MARGINS["theta"], 0.3)
              - asm.part("m2_tail", 0.3).values
              - asm.part("m1_tail", 0.3).values)
    block = cs.block("theta").real.values
    for name in BLOCKS["theta"]:
        assert np.max(np.abs(cs.parts[name].real.values)) > 1e-3, name
    assert np.max(np.abs(block - report)) < 1e-12


def test_phase_tables_evaluate_each_window_once(grid, monkeypatch):
    # psi, psi' and psi'' of <x>/<xi>_h^2 once each on the lattice, shared by
    # all six x-derivative tables, which equal lambda_x_derivative's bit for
    # bit: lam2_x, lam2_xx and lam1_x directly, all six through the Bell
    # values of Q_a (the expansion applies their phase (-i)^a)
    p = params_with()
    calls, step = [], weights.smooth_step

    def counting(u, derivative=0):
        calls.append((np.shape(u), derivative))
        return step(u, derivative)

    monkeypatch.setattr(weights, "smooth_step", counting)
    phase = conjugate.build_phase_tables(PROB, p, grid)
    _, Q_tables = phase.exp_factors(conjugate.FACTOR_ORDER)
    assert sorted(d for shape, d in calls if shape == (N, N)) == [0, 1, 2]
    X, XI = grid.x[:, None], grid.xi[None, :]
    ref = {(w, o): sampled_table(grid, lambda_x_derivative(
        X, XI, 0.0, PROB, p, which=w, order=o)) for w in (2, 1) for o in (1, 2, 3)}
    for table, key in ((phase.lam2_x, (2, 1)), (phase.lam2_xx, (2, 2)),
                       (phase.lam1_x, (1, 1))):
        assert np.array_equal(table.values, ref[key].values)
    lam_x = [ref[2, o] + ref[1, o] for o in (1, 2, 3)]
    lam_x.append(x_derivative(lam_x[2], 1))
    Q = exp_derivative_factors([-t.values for t in lam_x])
    for table, q in zip(Q_tables, Q):
        assert np.array_equal(table.values, SymbolTable(grid, q).values)


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
    c = small_setup["assembler"].part("c", 0.0)
    grid = small_setup["grid"]
    bx = np.sqrt(1 + grid.x ** 2)[:, None]
    bxi = np.sqrt(1 + grid.xi ** 2)[None, :]
    mask = grid.band_mask()
    quot = np.abs(c.values) / (bxi * bx ** -0.75)
    assert np.max(quot[:, mask]) < 1.0


def test_truncation_stops_at_the_first_growing_term():
    # optimal truncation keeps terms of equal size and stops for good at
    # the first term larger than the one before it; it records how many it
    # kept, and a later read of the same key keeps as many, whatever their
    # sizes, and draws no term past them
    sizes = {"a": 3.0, "b": 2.0, "c": 2.0, "d": 2.5, "e": 1.0}
    stops = {}
    kept = conjugate._truncated(iter(sizes), sizes.get, stops, "s")
    assert list(kept) == ["a", "b", "c"] and stops == {"s": 3}
    terms = iter("vwxyz")
    again = conjugate._truncated(terms, {"v": 1.0}.get, stops, "s")
    assert list(again) == ["v", "w", "x"] and next(terms) == "y"
    assert list(conjugate._truncated(iter([]), sizes.get, stops, "t")) == []
    assert stops == {"s": 3, "t": 0}


def test_each_series_keeps_its_t0_stop(grid):
    # a2 = cos(omega x) cos(nu(t) xi) and a1 = 0.3 a2: the order-a terms of
    # the series grow like (omega nu(t))^a, so a fresh decision at t = 1
    # stops several series elsewhere than at t = 0 (c keeps one term at
    # t = 0 and all three at t = 1).  An assembler read first at t = 0
    # keeps those stops at t = 1: each table there equals one formed with
    # the t = 0 stops, and some differ from a fresh decision's
    omega, nu = 5.0 * np.pi / L, lambda t: 2.0 - 1.4 * t
    wave = lambda s: Symbol(
        fn=lambda t, x, xi: s * np.cos(omega * x) * np.cos(nu(t) * xi),
        order=0.0)
    prob = replace(model_problem("time-modulated", 0.75, domain=L),
                   a2=wave(1.0), a1=wave(0.3))
    names = ("c", "e", "ia2_k", "ia1_k", "b2k", "b1k")
    asm, kept, fresh = (ConjugationAssembler(prob, params_with(), grid)
                        for _ in range(3))
    for name in names:
        asm.part(name, 0.0)
    stops = dict(asm.stops), dict(asm.tables.stops)
    late = {name: asm.part(name, 1.0).values for name in names}
    assert (asm.stops, asm.tables.stops) == stops
    kept.stops.update(stops[0])
    kept.tables.stops.update(stops[1])
    moved = set()
    for name in names:
        assert np.array_equal(late[name], kept.part(name, 1.0).values), name
        if not np.array_equal(late[name], fresh.part(name, 1.0).values):
            moved.add(name)
    assert stops[1] == {"c": 1} and fresh.tables.stops == {"c": 3}
    assert moved >= {"c", "ia2_k", "ia1_k", "b2k"}
    assert fresh.stops != stops[0]


def test_solve_forms_no_series_order_past_a_recorded_stop(monkeypatch):
    # time-modulated N=48/L=8: selection decides every stop at t = 0, and
    # the solve forms the series of each new stage time up to the recorded
    # stop and no order past it
    from gevrey_evolve.evolve import solve_original
    from gevrey_evolve.positivity import select_parameters_detailed
    prob = model_problem("time-modulated", 0.75, domain=8.0)
    grid = make_grid(8.0, 48)
    bundle = select_parameters_detailed(prob, 1.8, grid)[1]["bundle"]
    calls, truncated = [], conjugate._truncated

    def counting(terms, size, stops, key):
        recorded, formed = stops.get(key), []

        def counted():
            for term in terms:
                formed.append(key)
                yield term

        yield from truncated(counted(), size, stops, key)
        calls.append((key, recorded, len(formed)))

    monkeypatch.setattr(conjugate, "_truncated", counting)
    solve_original(bundle, None, synthetic_radius_field(grid, 0.7, 1.8), 1.0,
                   rho=0.7)
    assert {key for key, _, _ in calls} == {
        "ia2_k", "ia1_k", "k:b2k", "k:b1k", "k:ia2_k", "k:ia1_k"}
    assert len(calls) > 6
    assert all(stop is not None and formed == stop
               for _, stop, formed in calls)


def test_truncation_order_rule():
    assert truncation_order(2.0, 1.8) == 5
    assert truncation_order(1.0, 1.8) == 3
    # capped at the most orders the factors serve
    assert truncation_order(2.0, 1.2) == conjugate.FACTOR_ORDER + 1 == 5


def test_assembler_time_caching(grid):
    p = params_with(C1=0.1)
    asm = ConjugationAssembler(PROB, p, grid)
    a = asm.at(0.25).generator_table().values
    b = asm.at(0.25).generator_table().values
    assert np.array_equal(a, b)
    c = asm.at(0.5).generator_table().values
    assert not np.array_equal(a, c)


def test_time_dependent_parts_kept_per_coefficient_time():
    # a part read at one coefficient time is not reused at another: each
    # time keeps its own tables, equal to a fresh assembler's
    prob = model_problem("time-modulated", 0.75, domain=L)
    grid = make_grid(L, N)
    p = params_with(C1=0.1)
    asm = ConjugationAssembler(prob, p, grid)
    early = asm.part("ia2", 0.0).values
    late = asm.part("ia2", 0.5).values
    assert len(asm._cache) == 2
    assert not np.array_equal(early, late)
    fresh = ConjugationAssembler(prob, p, grid)
    assert np.array_equal(late, fresh.part("ia2", 0.5).values)


def test_at_forms_the_generator_parts_only(grid):
    # at(t) is the generator's view: the parts of BLOCKS, and none
    # of the certificate's own tables is formed for it
    asm = ConjugationAssembler(PROB, params_with(C1=0.2, C2=0.01), grid)
    parts = asm.at(0.0).parts
    assert set(parts) == {n for names in BLOCKS.values() for n in names}
    store = asm._entry(0.0)["poly"]
    assert not {"c", "m2_main", "m1_main", "m2_tail", "m1_tail"} & set(store)


def test_zero_strength_damping_split_reads_no_window(grid, monkeypatch):
    # at M2 = M1 = 0 the report split of the damping is exact zero rows,
    # formed without psi on the lattice or the sign selector: selecting the
    # identity conjugator and building every table evaluate no smooth step
    from gevrey_evolve.positivity import select_parameters_detailed
    calls, step = [], weights.smooth_step

    def counting(u, derivative=0):
        calls.append(np.shape(u))
        return step(u, derivative)

    monkeypatch.setattr(weights, "smooth_step", counting)
    params, details = select_parameters_detailed(KDV, 1.8, grid)
    assert (params.M2, params.M1) == (0.0, 0.0)
    asm = details["bundle"].assembler
    asm.at(0.0)
    split = {name: asm.part(name, 0.0)
             for name in ("m2_main", "m2_tail", "m1_main", "m1_tail")}
    assert calls == []
    for name, table in split.items():
        assert table.values.shape == (1, N)
        assert not np.any(table.values), name


def _expansion(q, P, Q, n_trunc):
    """conjugation_expansion with Q_a = (-i)^a Bell_a as one complex table,
    the representation before the expansion took the phase."""
    from gevrey_evolve.quantize import dx_operators, xi_derivative
    g, dxq = q.grid, dx_operators(q)

    def orders():
        for s in range(1, n_trunc):
            group = SymbolTable(g, np.zeros((1, g.N)))
            for a in range(s + 1):
                b = s - a
                core = P[b - 1] * dxq(b) if b else q
                if a:
                    core = xi_derivative(core * Q[a - 1], a)
                group = group + core * (1.0 / (math.factorial(a)
                                               * math.factorial(b)))
            yield group

    return sum(conjugate._truncated(orders(), conjugate._sup, {}, "q"),
               SymbolTable(g, np.zeros((1, g.N))))


def _eager_tables(prob, params, grid):
    """The phase tables and every k-polynomial, built in one pass as before
    they were formed on first read: (phase dict, P, Q, poly), with Q_a the
    complex table (-i)^a Bell_a."""
    from gevrey_evolve.quantize import dx_operators, xi_derivative
    from gevrey_evolve.weights import (Windows, spatial_weights,
                                       weight_x_derivative)
    win = Windows(grid.x[:, None], grid.xi, 0.0, prob, params)
    l2, l1 = (sampled_table(grid, v) for v in spatial_weights(win, params))
    lam = l2 + l1
    wx = {(w, o): sampled_table(grid, weight_x_derivative(win, params, w, o))
          for w in (2, 1) for o in (1, 2, 3)}
    lam_x = {o: wx[2, o] + wx[1, o] for o in (1, 2, 3)}
    lam_x[4] = x_derivative(lam_x[3], 1)
    P = [SymbolTable(grid, v) for v in exp_derivative_factors(
        [xi_derivative(lam, o).values for o in (1, 2, 3, 4)])]
    Q = [SymbolTable(grid, (-1j) ** (a + 1) * v) for a, v in enumerate(
        exp_derivative_factors([-lam_x[o].values for o in (1, 2, 3, 4)]))]
    dxdxi = xi_derivative(wx[2, 1], 1)
    phase = dict(lam=lam, lam2_x=wx[2, 1], lam2_xx=wx[2, 2], lam1_x=wx[1, 1],
                 dxdxi_lam2=dxdxi,
                 psi_window=SymbolTable(grid, win.psi(0)),
                 abs_w=np.abs(win.w))

    # the spatial stage
    a3_row = np.asarray(prob.a3(0.0, 0.0, grid.xi), dtype=float)
    da3_row = np.asarray(prob.a3.dxi(0.0, 0.0, grid.xi), dtype=float)
    a3, da3 = multiplier_table(grid, a3_row), multiplier_table(grid, da3_row)
    a2 = eval_table(prob.a2, grid, 0.0)
    ia2, ia1 = a2 * 1j, eval_table(prob.a1, grid, 0.0) * 1j
    l2x, l2xx = wx[2, 1], wx[2, 2]
    id1 = (xi_derivative(a3 * (l2xx - l2x * l2x), 2) * 0.5
           + da3 * xi_derivative(l2xx, 1) * -1.0
           + xi_derivative(a3 * l2x, 1) * dxdxi
           + (a3 * (xi_derivative(l2xx + l2x * l2x, 2)
                    + dxdxi * dxdxi * 2.0)) * -0.5) * 1j
    ia2_n = _expansion(ia2, P, Q, truncation_order(2.0, params.theta))
    absda3_w = np.abs(da3_row) * phase["abs_w"]
    bx = np.sqrt(1.0 + np.square(grid.x))[:, None]
    m2 = sampled_table(grid, absda3_w[None, :] * params.M2 * bx ** (-params.sigma))
    m1 = sampled_table(grid, absda3_w[None, :] / bracket_h(grid.xi, params.h)
                       * params.M1 * bx ** (-params.sigma / 2.0))
    psi = phase["psi_window"].values.real
    stage = dict(ia2=ia2, ia1=ia1, damp2=da3 * l2x * -1.0,
                 damp1=da3 * wx[1, 1] * -1.0, id1=id1,
                 ia2_k=ia2_n + (ia2_n * dxdxi) * -1j,
                 ia1_k=_expansion(ia1, P, Q, truncation_order(1.0, params.theta)),
                 a2cross=a2 * dxdxi, m2_main=m2.real,
                 m2_tail=sampled_table(grid, -(m2.values * (1.0 - psi))),
                 m1_main=m1.real,
                 m1_tail=sampled_table(grid, -(m1.values * (1.0 - psi))),
                 c=conjugate._hermitian_half(ia2.imag, {}, "c"))

    # the k stage
    bell = conjugate.partial_bell(4, conjugate.bracket_power_derivatives(
        grid.xi, params.h, 1.0 / params.theta, 4))
    s = params.sigma
    bases = {"b2k": (stage["ia2"] + stage["damp2"], 2.0),
             "b1k": (stage["ia1"] + stage["damp1"] + stage["id1"]
                     + stage["a2cross"], 1.0),
             "ia2_k": (stage["ia2_k"], 2.0 - (2.0 * s - 1.0)),
             "ia1_k": (stage["ia1_k"], 2.0 * (1.0 - s))}
    poly = {name: {0: U0} for name, U0 in stage.items()}
    for name, (base, order) in bases.items():
        def orders(nk):
            for b in range(1, nk):
                dxb = dx_operators(base)(b).values / math.factorial(b)
                adds, gauge = {}, np.zeros_like(dxb)
                for j in range(1, b + 1):
                    if np.isscalar(bell[b][j]) and bell[b][j] == 0.0:
                        continue
                    adds[j] = bell[b][j][None, :] * dxb
                    gauge = gauge + (params.k0 ** j) * adds[j]
                yield adds, float(np.max(np.abs(gauge)))
        U = {}
        nk = truncation_order(order, params.theta)
        for adds, _ in conjugate._truncated(orders(nk), lambda o: o[1], {},
                                            name):
            for j, add in adds.items():
                U[j] = U.get(j, 0.0) + add
        poly.setdefault(name, {}).update(
            (j, SymbolTable(grid, v)) for j, v in U.items())
    return phase, P, Q, poly


def test_real_tables_stay_real(small_setup):
    # the tables of the real phase, its factors and the damping are float64
    prob, grid, asm = (small_setup[k] for k in ("problem", "grid", "assembler"))
    for name in ("lam", "lam2_x", "lam2_xx", "lam1_x", "dxdxi_lam2",
                 "psi_window"):
        assert getattr(asm.phase, name).values.dtype == np.float64, name
    P, bell = conjugate.build_phase_tables(prob, asm.params, grid).exp_factors(3)
    assert all(t.values.dtype == np.float64 for t in P + bell)
    for name in ("damp2", "damp1", "m2_main", "m1_main", "m2_tail", "m1_tail"):
        assert asm._entry(0.0)["poly"][name][0].values.dtype == np.float64, name


def _reachable(obj):
    """Every object obj reaches through attributes, dicts and sequences,
    once each, the grid's and the problem's left out."""
    from gevrey_evolve.grid import Grid
    from gevrey_evolve.symbols import ProblemSpec
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (Grid, ProblemSpec)):
            continue
        seen.add(id(o))
        yield o
        if isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple, set)):
            todo.extend(o)
        elif hasattr(o, "__dict__"):
            todo.extend(vars(o).values())


def _held_bytes(obj):
    """Bytes of the distinct array buffers obj reaches (_reachable)."""
    buffers = {}
    for o in _reachable(obj):
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            buffers[id(o)] = o.nbytes
    return sum(buffers.values())


def test_stored_tables_are_column_major(small_setup):
    # every N x N table the accepted assembler keeps (k-polynomials,
    # coefficient and phase tables) and the factors P_b, Q_a of its phase
    # store x fastest, so x-transforms and xi-stencils read contiguous
    # columns
    prob, grid, asm = (small_setup[k] for k in ("problem", "grid", "assembler"))
    factors = conjugate.build_phase_tables(prob, asm.params, grid).exp_factors(4)
    tables = [o.values for o in _reachable((asm, factors))
              if isinstance(o, SymbolTable) and o.values.shape == (N, N)]
    assert len(tables) >= 30
    assert all(v.flags.f_contiguous for v in tables)


def test_coefficient_stack_and_stages_are_row_major(small_setup):
    # what the solve's GEMMs and GEMVs read stays row-major
    prob, grid, asm = (small_setup[k] for k in ("problem", "grid", "assembler"))
    powers, G = ConjugationAssembler(prob, asm.params, grid).polynomial(0.0)
    assert G.shape == (len(powers) + 1, N, N) and G.flags.c_contiguous
    for taus in ([0.3], [0.0, 0.25, 0.5]):
        S = asm.stages(taus)
        assert S.shape == (len(taus), N, N) and S.flags.c_contiguous


def test_accepted_assembler_holds_at_most_23_complex_tables():
    # damped-64 after selection: 1,449,984 bytes, 22.1 complex N x N tables
    # (27.1 with every table complex)
    from gevrey_evolve.positivity import select_parameters_detailed
    _, details = select_parameters_detailed(PROB, 1.8, make_grid(L, N))
    assert _held_bytes(details["bundle"].assembler) <= 23 * 16 * N * N


def test_tables_formed_on_first_read_equal_the_eager_build(small_setup):
    # every table of the accepted assembler, each formed when first read,
    # equals bit for bit its one-pass build; the factors, released once
    # both expansions exist, equal it in a fresh phase: P_b, and Q_a as its
    # Bell values times the phase (-i)^a the expansion applies
    prob, grid, asm = (small_setup[k] for k in ("problem", "grid", "assembler"))
    phase, P, Q, poly = _eager_tables(prob, asm.params, grid)
    for name, want in phase.items():
        got = getattr(asm.phase, name)
        got = got.values if isinstance(got, SymbolTable) else got
        want = want.values if isinstance(want, SymbolTable) else want
        assert np.array_equal(got, want), name
    with pytest.raises(ParameterError):
        asm.phase.exp_factors(1)
    fresh = conjugate.build_phase_tables(prob, asm.params, grid)
    P_got, bell = fresh.exp_factors(4)
    assert len(P_got) == len(bell) == len(P) == len(Q) == 4
    assert all(np.array_equal(g.values, w.values) for g, w in zip(P_got, P))
    assert all(np.array_equal(SymbolTable(grid, (-1j) ** a * b.values).values,
                              w.values) for a, (b, w) in enumerate(zip(bell, Q), 1))
    entry = asm._entry(0.0)
    assert entry["poly"].keys() == poly.keys()
    for name, U in poly.items():
        assert entry["poly"][name].keys() == U.keys(), name
        for j in U:
            assert np.array_equal(entry["poly"][name][j].values, U[j].values)


def _stage(asm, t):
    """The stage at t: a row or a coefficient matrix."""
    return asm.stages([t])[0]


def _applied(S, w_hat):
    """The stage S applied to one state as step() applies it: a row by
    product, a coefficient matrix by GEMV."""
    return S * w_hat if S.ndim == 1 else S @ w_hat


@pytest.mark.parametrize("name, L_, N_", [("complex-damped", L, N),
                                          ("complex-damped", 20.0, 256),
                                          ("time-modulated", L, N),
                                          ("kdv-baseline", L, N)])
def test_stacked_stage_matches_quantized_generator_table(name, L_, N_):
    # the stage the stepper applies, its coefficient matrix (the coefficient
    # stack weighted by the powers of k) plus the k' row, against
    # op(generator_table) built from the named parts, on fresh, repeated and
    # evicted coefficient times; C1, C2 > 0 make k' != 0.
    # kdv-baseline with M2 = M1 = 0 is x-independent: its stage is the
    # same polynomial's row
    g = make_grid(L_, N_)
    prob = model_problem(name, 0.75, domain=L_)
    rows = name == "kdv-baseline"
    weights = {"M2": 0.0, "M1": 0.0} if rows else {}
    ndim = 1 if rows else 2
    asm = ConjugationAssembler(
        prob, params_with(C1=0.2, C2=0.01, domain_cap=float(np.sqrt(1 + L_ ** 2)),
                          **weights), g)
    rng = np.random.default_rng(7)
    w_hat = rng.standard_normal(N_) + 1j * rng.standard_normal(N_)

    def check(t):
        S = _stage(asm, t)
        assert S.ndim == ndim
        got = _applied(S, w_hat)
        ref = coefficient_matrix(g, asm.at(t).generator_table().values) @ w_hat
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    for t in (0.0, 0.3, 0.3, 1.0):
        check(t)
    # more times than the memo keeps
    asm.stages(np.linspace(0.05, 0.95, 13))
    for t in (0.0, 0.3, 1.0):
        check(t)


def test_generator_holds_rows_only_when_every_table_is_one(grid):
    # polynomial takes rows when every G_j is one row: a row G_0 with an
    # x-dependent G_1 is the stack of both, and two row tables are rows
    rng = np.random.default_rng(2)
    row = SymbolTable(grid, rng.standard_normal((1, N)))
    full = SymbolTable(grid, rng.standard_normal((N, N)))
    powers, G = ConjugationAssembler(KDV, params_with(), grid).polynomial(
        0.0, [{0: row, 1: full}])
    assert powers == (1,)
    assert np.array_equal(G, conjugate.spectral_stack(
        grid, [row.values, full.values]))
    _, G = ConjugationAssembler(KDV, params_with(), grid).polynomial(
        0.0, [{0: row, 1: row * 2.0}])
    assert np.array_equal(G, np.concatenate([row.values, 2.0 * row.values]))


def _per_time_stage(asm, t):
    """The stage at one time, built as before stages: scalar k(t), the row
    G_0 + sum_j k^j G_j, or the coefficient matrix of that time's weights
    formed alone."""
    powers, G = asm.polynomial(t)
    k = float(k_of_t(t, asm.params))
    if G.ndim == 2:
        row = G[0].copy()
        for j, G_j in zip(powers, G[1:]):
            row += (k ** j) * G_j
        return row
    weights = np.array([[1.0] + [k ** j for j in powers]])
    return stage_matrices(weights, G)[0]


@pytest.mark.parametrize("name, weights, ndim", [
    ("kdv-baseline", dict(M2=0.0, M1=0.0), 1),
    ("complex-damped", {}, 2),
    ("time-modulated", {}, 2),
], ids=["kdv-baseline-rows", "complex-damped-matrices",
        "time-modulated-matrices"])
def test_stages_match_the_per_time_build(grid, name, weights, ndim):
    # one call for a block of stage times gives, time by time, the stage of
    # the per-time build; C1, C2 > 0 so k varies over the block
    asm = ConjugationAssembler(model_problem(name, 0.75, domain=L),
                               params_with(C1=0.2, C2=0.01, **weights), grid)
    taus = np.linspace(0.0, 1.0, 9)
    stages = asm.stages(taus)
    assert len(stages) == taus.size
    rng = np.random.default_rng(5)
    w_hat = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    for t, S in zip(taus, stages):
        assert S.ndim == ndim
        want = _applied(_per_time_stage(asm, t), w_hat)
        got = _applied(S, w_hat)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["complex-damped", "time-modulated",
                                  "kdv-baseline"])
def test_stage_formed_in_a_pair_equals_it_formed_alone(grid, name,
                                                       monkeypatch):
    # a time's stage is the same bits in any call: formed alone, in a
    # pair or in a batch (complex-damped: one GEMM over the stack;
    # time-modulated: one product per time's own stack; kdv-baseline with
    # M2 = M1 = 0: one GEMM over the rows), so outputs do not depend on
    # where blocks and batches cut.  The solve forms a batch's stage times,
    # its start and a pair per step, in slots it reuses; in a three-step
    # solve each batch's steps read, in order, the slots that batch wrote:
    # step k its start, half and end stages 2k, 2k + 1 and 2k + 2
    weights = dict(M2=0.0, M1=0.0) if name == "kdv-baseline" else {}
    asm = ConjugationAssembler(model_problem(name, 0.75, domain=L),
                               params_with(C1=0.2, C2=0.01, **weights), grid)
    taus = np.linspace(0.0, 0.3, 7)
    alone = [asm.stages([t])[0] for t in taus]
    assert alone[0].ndim == (1 if weights else 2)
    for j, n in ((0, 3), (2, 3), (0, 7), (3, 2)):
        for S, want in zip(asm.stages(taus[j:j + n]), alone[j:j + n]):
            assert np.array_equal(S, want)
    if weights:
        return      # row stages step as affine maps, in no slot
    events = []

    def address(M):
        return M.__array_interface__["data"][0]

    def recording_form(taus, out=None):
        events.append(("form", {address(M): t for M, t in zip(out, taus)}))
        return form(taus, out)

    def checking_step(v_hat, dt, grid, phases, stages, forcing=None):
        formed = [e for kind, e in events if kind == "form"][-1]
        for M in stages:
            assert M.shape == (grid.N, grid.N)
            want = form([formed[address(M)]])[0]
            assert np.array_equal(M, want)
        events.append(("step", [address(M) for M in stages]))
        return step(v_hat, dt, grid, phases, stages, forcing)

    form, step = asm.stages, evolve.step
    monkeypatch.setattr(asm, "stages", recording_form)
    monkeypatch.setattr(evolve, "step", checking_step)
    v0_hat = grid.forward(synthetic_radius_field(grid, 0.7, 1.8))
    traj = solve_conjugated(asm, None, v0_hat, 0.3, dt=0.1)
    assert traj.meta["steps"] == 3
    assert [kind for kind, _ in events].count("step") == 3
    assert events[0][0] == "form"
    for i, (kind, written) in enumerate(events):
        if kind == "form":
            batch = events[i + 1:i + 1 + len(written) // 2]
            assert [k for k, _ in batch] == ["step"] * len(batch)
            order = list(written)
            for k, (_, read) in enumerate(batch):
                assert read == order[2 * k:2 * k + 3]


@pytest.mark.parametrize("name, weights, exact", [
    ("kdv-baseline", dict(M2=0.0, M1=0.0, h=1.0), True),
    ("complex-damped", dict(M2=0.1, M1=0.1, h=2.0), False),
], ids=["multiplier", "dense"])
def test_apply_full_on_a_stack_matches_row_by_row(grid, name, weights, exact):
    # a (B, N) stack with an array of times maps row i at t[i]: bit for bit
    # for a row conjugator, to a GEMM's rounding for a matrix one
    bundle = build_conjugator(ConjugationAssembler(
        model_problem(name, 0.75, domain=L),
        params_with(C1=0.2, C2=0.01, **weights), grid))
    rng = np.random.default_rng(11)
    U = rng.standard_normal((6, N)) + 1j * rng.standard_normal((6, N))
    t = np.linspace(0.0, 1.0, 6)
    for apply in (bundle.apply_full, bundle.apply_full_inverse):
        stacked = apply(U, t)
        assert stacked.shape == U.shape
        for row, ti, got in zip(U, t, stacked):
            want = apply(row, ti)
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
