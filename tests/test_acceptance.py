"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are pinned here and nowhere else.
"""

import dataclasses
import time

import numpy as np
import pytest

from gevrey_evolve import make_grid, model_problem
from gevrey_evolve.conjugate import ConjugationAssembler, build_conjugator
from gevrey_evolve.errors import ConvergenceError
from gevrey_evolve.evolve import solve_original, synthetic_radius_field
from gevrey_evolve.grid import bracket_h
from gevrey_evolve.harness import RunConfig, model_problem_spatial_dense, run_pipeline
from gevrey_evolve.positivity import (select_parameters,
                                      select_parameters_detailed,
                                      verify_lower_bounds)
from gevrey_evolve.quantize import (band_relative_error, compose_expansion,
                                    operator_norm, representable_error,
                                    table_from_function, to_dense)
from gevrey_evolve.weights import k_of_t

THETA = 1.8
SIGMA = 0.75


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ----------------------------------------------------------------------
# shared expensive runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def damped256():
    """Auto-selected complex-damped pipeline at N=256 with two dt levels."""
    prob = model_problem("complex-damped", SIGMA, domain=20.0)
    grid = make_grid(20.0, 256)
    params, details = select_parameters_detailed(prob, THETA, grid)
    bundle = details["bundle"]
    rho = 2.0 * params.k0
    g = synthetic_radius_field(grid, rho, THETA)
    t0 = time.perf_counter()
    traj = solve_original(prob, params, None, g, grid, 1.0, m=0.0, rho=rho,
                          theta=THETA, bundle=bundle)
    solve_seconds = time.perf_counter() - t0
    traj_half = solve_original(prob, params, None, g, grid, 1.0, m=0.0,
                               rho=rho, theta=THETA, bundle=bundle,
                               dt=traj.meta["dt"] / 2.0)
    return dict(problem=prob, grid=grid, params=params, bundle=bundle,
                g=g, rho=rho, traj=traj, traj_half=traj_half,
                solve_seconds=solve_seconds)


@pytest.fixture(scope="module")
def damped64():
    prob = model_problem("complex-damped", SIGMA, domain=10.0)
    grid = make_grid(10.0, 64)
    params, details = select_parameters_detailed(prob, THETA, grid)
    return dict(problem=prob, grid=grid, params=params,
                bundle=details["bundle"])


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_1_unitary_baseline():
    prob = model_problem("kdv-baseline", SIGMA, domain=40.0)
    grid = make_grid(40.0, 256)
    t0 = time.perf_counter()
    params, details = select_parameters_detailed(prob, THETA, grid)
    g = synthetic_radius_field(grid, 0.7, THETA)
    traj = solve_original(prob, params, None, g, grid, 1.0, rho=0.7,
                          theta=THETA, bundle=details["bundle"])
    elapsed = time.perf_counter() - t0
    dev = float(np.max(np.abs(traj.l2 / traj.l2[0] - 1.0)))
    report(1, "unitary baseline",
           dev <= 1e-10 and elapsed <= 10.0,
           f"sup |l2 ratio - 1| = {dev:.3e} (tol 1e-10), runtime {elapsed:.1f}s")


def test_criterion_2_composition_oracle():
    # five library-flavoured pairs: error decreases monotonically 1 -> 4
    grid = make_grid(10.0, 64)
    h = 2.0
    gw = grid.L / 3.5
    dec = lambda x, s: (1 + x ** 2) ** (-s / 2) * np.exp(-(x / gw) ** 2)
    pairs = [
        (lambda x, xi: bracket_h(xi, h) ** (1 / THETA) + 0 * x,
         lambda x, xi: dec(x, SIGMA) + 0 * xi),
        (lambda x, xi: bracket_h(xi, h) ** (2 * (1 - SIGMA)) + 0 * x,
         lambda x, xi: dec(x, SIGMA) * np.cos(x) + 0 * xi),
        (lambda x, xi: xi / bracket_h(xi, h) + 0 * x,
         lambda x, xi: np.exp(1j * grid.xi[3] * x) * dec(x, SIGMA) + 0 * xi),
        (lambda x, xi: bracket_h(xi, h) ** 1.5 + 0 * x,
         lambda x, xi: dec(x, SIGMA / 2) + 0 * xi),
        (lambda x, xi: xi ** 3 + 0 * x, lambda x, xi: dec(x, SIGMA) + 0 * xi),
    ]
    all_mono = True
    details = []
    for i, (pf, qf) in enumerate(pairs):
        p = table_from_function(grid, pf)
        q = table_from_function(grid, qf)
        target = to_dense(p) @ to_dense(q)
        errs = [band_relative_error(target, to_dense(compose_expansion(p, q, nt)),
                                    grid) for nt in (1, 2, 3, 4)]
        mono = all(errs[k + 1] < errs[k] for k in range(3))
        all_mono &= mono
        details.append(f"pair{i}: " + "->".join(f"{e:.1e}" for e in errs))
    # terminating case on a grid where xi = 1 is a lattice frequency
    gpi = make_grid(3 * np.pi, 64)
    pxi = table_from_function(gpi, lambda x, xi: xi + 0 * x)
    pex = table_from_function(gpi, lambda x, xi: np.exp(1j * x) + 0 * xi)
    term_err = band_relative_error(to_dense(pxi) @ to_dense(pex),
                                   to_dense(compose_expansion(pxi, pex, 2)), gpi)
    report(2, "composition oracle",
           all_mono and term_err <= 1e-10,
           f"monotone={all_mono} [{'; '.join(details)}], "
           f"terminating err {term_err:.2e} (tol 1e-10)")


def test_criterion_3_conjugator_inverse():
    prob = model_problem("complex-damped", SIGMA, domain=20.0)
    grid = make_grid(20.0, 128)
    params = select_parameters(prob, THETA, grid)
    bundle = build_conjugator(prob, params, grid)
    dense = build_conjugator(prob, params, grid, mode="dense")
    agree = operator_norm(bundle.E_inv.dense() - dense.E_inv.dense()) \
        / operator_norm(dense.E_inv.dense())
    # infeasible h must fail loudly, not return wrong answers
    bad = dataclasses.replace(params, M2=1.5, M1=1.0)
    try:
        build_conjugator(prob, bad, grid)
        failed_loudly = False
    except ConvergenceError:
        failed_loudly = True
    report(3, "conjugator inverse",
           bundle.residual <= 1e-8 and agree <= 1e-6 and failed_loudly,
           f"residual {bundle.residual:.2e} (tol 1e-8), "
           f"neumann-vs-dense {agree:.2e} (tol 1e-6), "
           f"infeasible raises ConvergenceError: {failed_loudly}")


def test_criterion_4_conjugated_symbol_oracle(damped64):
    prob, grid = damped64["problem"], damped64["grid"]
    params, bundle = damped64["params"], damped64["bundle"]
    asm = bundle.assembler
    t = 0.3
    cs = asm.at(t)
    spatial = model_problem_spatial_dense(prob, grid, t)
    full = bundle.time_stage(t).dense() @ bundle.E.dense()
    full_inv = bundle.E_inv.dense() @ bundle.time_stage(t, -1).dense()
    lhs = full @ spatial @ full_inv
    rhs = to_dense(cs.spatial_table())
    err = representable_error(lhs, rhs, grid, params.domain_cap)
    d1_imag = float(np.max(np.abs(cs.parts["d1"].values.imag)))
    params_m1 = dataclasses.replace(params, M1=2.0 * params.M1)
    cs_m1 = ConjugationAssembler(prob, params_m1, grid).at(t)
    d1_move = float(np.max(np.abs(cs.parts["d1"].values
                                  - cs_m1.parts["d1"].values)))
    report(4, "conjugated-symbol oracle",
           err <= 1e-2 and d1_imag <= 1e-10 and d1_move <= 1e-12,
           f"discrepancy {err:.2e} (tol 1e-2), Im d1 {d1_imag:.1e} (tol 1e-10), "
           f"d1 M1-shift {d1_move:.1e} (tol 1e-12)")


def test_criterion_5_positivity(damped64):
    prob, grid, params = damped64["problem"], damped64["grid"], damped64["params"]
    ts = np.linspace(0.0, 1.0, 5)
    rep = verify_lower_bounds(ConjugationAssembler(prob, params, grid), ts)
    margins = {b: rep.min_margin(b) for b in ("order2", "order1", "theta")}
    ok_pos = rep.passed and all(m >= -1e-8 for m in margins.values())
    rep0 = verify_lower_bounds(ConjugationAssembler(
        prob, dataclasses.replace(params, M2=0.0), grid), ts)
    worst = min((r for r in rep0.rows if r.bound == "order2"),
                key=lambda r: r.margin)
    ok_neg = (not rep0.passed) and worst.margin < 0 \
        and abs(worst.witness_xi) > params.R_a3 * params.h
    report(5, "positivity",
           ok_pos and ok_neg,
           f"margins {margins} (tol -1e-8); M2=0 margin {worst.margin:.3e} "
           f"witness (x={worst.witness_x:.3g}, xi={worst.witness_xi:.3g})")


def test_criterion_6_energy_estimate(damped256):
    traj, traj_half = damped256["traj"], damped256["traj_half"]
    resid = float(np.max(traj.energy_residual))
    change = abs(traj.C_prime - traj_half.C_prime) \
        / max(abs(traj.C_prime), 1e-12)
    ok = resid <= 1e-6 and change <= 0.05 and damped256["solve_seconds"] <= 60.0
    report(6, "energy estimate",
           ok,
           f"max normalized residual {resid:.2e} (tol 1e-6), "
           f"C'={traj.C_prime:.4f} vs {traj_half.C_prime:.4f} "
           f"({100 * change:.2f}% < 5%), solve {damped256['solve_seconds']:.1f}s")


def test_criterion_7_radius_loss(damped256):
    traj, params = damped256["traj"], damped256["params"]
    kT = float(k_of_t(1.0, params))
    rho_hat_T = float(traj.radius[-1])
    C = traj.meta.get("energy_estimate_C", float("nan"))
    ok = (rho_hat_T >= kT - 0.05) and np.isfinite(C) and C > 0
    report(7, "radius loss",
           ok,
           f"rho_hat(T)={rho_hat_T:.4f} >= k(T)-0.05={kT - 0.05:.4f}; "
           f"weighted-norm growth constant C={C:.4g} at rho'=k(T)-0.01")


def test_criterion_8_equivalence(damped256):
    traj = damped256["traj"]
    worst = float(np.max(traj.equivalence_residual))
    # inverse_tol = 1e-8; round trip must land within 10x of it
    report(8, "conjugation equivalence",
           worst <= 1e-7,
           f"max |op(e^Lam) u - v| / |v| = {worst:.2e} (tol 1e-7)")


def test_criterion_9_order4_convergence():
    prob = model_problem("kdv-baseline", SIGMA, domain=40.0)
    grid = make_grid(40.0, 256)
    params, details = select_parameters_detailed(prob, THETA, grid)

    def band_limited(rho, cut):
        u = synthetic_radius_field(grid, rho, THETA)
        u_hat = grid.forward(u)
        u_hat[np.abs(grid.xi) > cut] = 0.0
        return grid.inverse(u_hat)

    g = band_limited(0.7, 2.0)
    shape = band_limited(0.7, 2.0)
    f = lambda t: 0.5 * np.exp(-2.0 * t) * np.cos(3.0 * t) * shape
    finals = {}
    for d in (1, 2, 4, 8):
        traj = solve_original(prob, params, f, g, grid, 1.0, rho=None,
                              theta=THETA, dt=1.0 / (32 * d),
                              bundle=details["bundle"])
        finals[d] = traj.u_fields[-1]
    e1 = grid.l2_norm(finals[1] - finals[2])
    e2 = grid.l2_norm(finals[2] - finals[4])
    e3 = grid.l2_norm(finals[4] - finals[8])
    r1, r2 = e1 / e2, e2 / e3
    ok = 12.0 <= r1 <= 20.0 and 12.0 <= r2 <= 20.0
    report(9, "order-4 convergence",
           ok, f"Richardson ratios {r1:.2f}, {r2:.2f} (window [12, 20])")


def test_criterion_10_determinism(tmp_path):
    text = ("grid.L = 10\ngrid.N = 64\nseed = 3\n")
    outs = []
    for sub in ("a", "b"):
        cfg = RunConfig.from_text(text)
        run_pipeline(cfg, out_dir=str(tmp_path / sub))
        outs.append({name: (tmp_path / sub / name).read_bytes()
                     for name in ("trajectory.csv", "positivity.csv")})
    same = all(outs[0][k] == outs[1][k] for k in outs[0])
    report(10, "determinism",
           same, "byte-identical trajectory.csv and positivity.csv across runs")
