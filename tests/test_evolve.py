import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from gevrey_evolve.conjugate import (ConjugationAssembler, Dense, Multiplier,
                                     build_conjugator)
from gevrey_evolve.errors import DataError, InstabilityError
from gevrey_evolve.evolve import (GevreyNormSpec, gevrey_norm, radius_fit,
                                  radius_fit_report, solve_conjugated,
                                  solve_original, step, synthetic_radius_field)
from gevrey_evolve.grid import make_grid
from gevrey_evolve.positivity import select_parameters_detailed
from gevrey_evolve.quantize import multiplier_table, to_dense
from gevrey_evolve.symbols import model_problem
from gevrey_evolve.weights import WeightParams, k_of_t


@pytest.fixture(scope="module")
def grid():
    return make_grid(10.0, 64)


# ----------------------------------------------------------------------
# norms and radius
# ----------------------------------------------------------------------

def test_gevrey_norm_reduces_to_l2(grid):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    spec = GevreyNormSpec(0.0, 0.0, 2.0)
    assert gevrey_norm(u, spec, grid) == pytest.approx(grid.l2_norm(u), rel=1e-12)


def test_gevrey_norm_single_mode(grid):
    # a single lattice mode scales the norm by e^{rho <xi_k>^{1/theta}}
    k = np.argmin(np.abs(grid.xi - 1.0))
    u_hat = np.zeros(grid.N, dtype=complex)
    u_hat[k] = 1.0
    u = grid.inverse(u_hat)
    theta = 2.0
    spec = GevreyNormSpec(0.0, 1.0, theta)
    expect = np.exp(np.sqrt(1 + grid.xi[k] ** 2) ** (1 / theta)) * grid.l2_norm(u)
    assert gevrey_norm(u, spec, grid) == pytest.approx(expect, rel=1e-10)


def test_gevrey_norm_monotone_in_rho(grid):
    u = synthetic_radius_field(grid, 1.0, 1.8)
    vals = [gevrey_norm(u, GevreyNormSpec(0.0, r, 1.8), grid)
            for r in (0.0, 0.3, 0.6)]
    assert vals[0] < vals[1] < vals[2]


def test_radius_fit_synthetic(grid):
    u = synthetic_radius_field(grid, 0.8, 2.0)
    assert radius_fit(u, 2.0, grid) == pytest.approx(0.8, abs=0.01)


def test_radius_fit_gaussian_flags_nonlinear(grid):
    u = np.exp(-grid.x ** 2) + 0j
    rep = radius_fit_report(u, 2.0, grid)
    assert rep.nonlinear


def test_radius_fit_white_noise(grid):
    # no spectral decay: near-zero slope, large residual, flagged nonlinear
    rng = np.random.default_rng(7)
    u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    rep = radius_fit_report(u, 2.0, grid)
    assert abs(rep.rho) < 0.3 and rep.residual > 0.1 and rep.nonlinear


def test_radius_fit_insufficient_data(grid):
    u_hat = np.zeros(grid.N, dtype=complex)
    u_hat[np.argmin(np.abs(grid.xi))] = 1.0
    with pytest.raises(DataError):
        radius_fit(grid.inverse(u_hat), 2.0, grid)


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def _trivial_params(domain_cap):
    return WeightParams(M2=0.0, M1=0.0, h=1.0, k0=0.35, sigma=0.75, theta=1.8,
                        domain_cap=domain_cap)


def _frozen(grid, tab):
    """The generator table tab as a dense stage operator at every time."""
    A = Dense(grid, grid.synthesis_matrix() * tab, spectral=True)
    return lambda tau: A


def test_step_pure_dispersion_is_unitary(grid):
    kdv = model_problem("kdv-baseline", 0.75)
    p = _trivial_params(np.sqrt(1 + grid.L ** 2))
    tab = ConjugationAssembler(kdv, p, grid).at(0.0).generator_table().values
    v = synthetic_radius_field(grid, 0.6, 1.8)
    w = step(v, 0.0, 0.05, kdv, grid, _frozen(grid, tab))
    assert abs(grid.l2_norm(w) - grid.l2_norm(v)) < 1e-12 * grid.l2_norm(v)


def test_step_zero_generator_identity(grid):
    kdv = model_problem("kdv-baseline", 0.75)
    zero3 = dataclasses.replace(
        kdv, a3=dataclasses.replace(kdv.a3,
                                    fn=lambda t, x, xi: np.zeros(np.broadcast(x, xi).shape),
                                    dxi=lambda t, x, xi: 3 * xi ** 2 + 0 * x))
    p = _trivial_params(np.sqrt(1 + grid.L ** 2))
    tab = ConjugationAssembler(zero3, p, grid).at(0.0).generator_table().values
    v = synthetic_radius_field(grid, 0.6, 1.8)
    w = step(v, 0.0, 0.05, zero3, grid, _frozen(grid, tab))
    assert np.max(np.abs(w - v)) < 1e-12


def test_step_damping_matches_matrix_exponential(small_setup):
    # steps of the frozen conjugated system converge at least at 4th order
    # to the dense matrix exponential, and the damped norm never grows
    grid, prob = small_setup["grid"], small_setup["problem"]
    cs = small_setup["assembler"].at(0.0)
    tab = cs.generator_table().values
    frozen = _frozen(grid, tab)
    v = synthetic_radius_field(grid, 0.7, 1.8)
    a3row = np.asarray(prob.a3(0.0, 0.0, grid.xi), dtype=complex)
    G = -(to_dense(multiplier_table(grid, 1j * a3row))
          + to_dense(cs.generator_table()))
    mask = np.ones(grid.N)
    mask[grid.nyquist] = 0.0
    E_syn = grid.synthesis_matrix()
    Pm = (E_syn * mask[None, :]) @ E_syn.conj().T
    G = Pm @ G @ Pm
    v0 = Pm @ v
    errs = []
    for dt in (2e-3, 1e-3):
        w = step(v0, 0.0, dt, prob, grid, frozen)
        errs.append(grid.l2_norm(w - expm(G * dt) @ v0))
    assert errs[0] / errs[1] > 16.0  # local order >= 4 (dt^5 gives 32)
    # damping-dominated group: growth per step stays under the quantization
    # floor of the nonnegative symbols, and the norm decays net
    from gevrey_evolve.positivity import discrete_garding
    floor = sum(abs(min(0.0, discrete_garding(tab, grid)))
                for tab in (cs.group_order2().real, cs.group_order1().real,
                            cs.group_theta().real))
    w = v0.copy()
    norms = [grid.l2_norm(w)]
    for i in range(20):
        w = step(w, i * 2e-3, 2e-3, prob, grid, frozen)
        norms.append(grid.l2_norm(w))
    rates = np.diff(np.log(norms)) / 2e-3
    assert np.max(rates) <= floor + 1e-6
    assert norms[-1] < norms[0]


@pytest.mark.parametrize("N, L", [(64, 10.0), (256, 40.0)])
def test_multiplier_step_matches_dense_step(N, L):
    # an x-independent generator that is not zero (k' != 0 with C1, C2 > 0):
    # a step through its Multiplier equals the step through E_syn * G
    grid = make_grid(L, N)
    kdv = model_problem("kdv-baseline", 0.75)
    p = _trivial_params(np.sqrt(1 + L ** 2)).with_ode_constants(0.5, 0.1)
    asm = ConjugationAssembler(kdv, p, grid)
    assert isinstance(asm.stage_operator(0.0), Multiplier)
    E_syn = grid.synthesis_matrix()
    dense = lambda tau: Dense(grid, E_syn * asm.generator(tau), spectral=True)
    zero = lambda tau: Multiplier(grid, np.zeros(N))
    v = synthetic_radius_field(grid, 0.6, 1.8)
    w_mult = step(v, 0.1, 0.05, kdv, grid, asm.stage_operator)
    w_dense = step(v, 0.1, 0.05, kdv, grid, dense)
    w_zero = step(v, 0.1, 0.05, kdv, grid, zero)
    scale = grid.l2_norm(w_dense)
    assert grid.l2_norm(w_dense - w_zero) > 1e-4 * scale
    assert grid.l2_norm(w_mult - w_dense) <= 1e-13 * scale


def test_stage_variant_read_off_the_tables(small_setup, grid):
    # complex-damped tables depend on x: dense stages.  kdv-baseline's
    # vanish (M2 = M1 = 0): multiplier stages.  kdv-baseline with M2 > 0
    # has an x-dependent phase, hence dense stages again
    assert isinstance(small_setup["assembler"].stage_operator(0.3), Dense)
    kdv = model_problem("kdv-baseline", 0.75)
    _, details = select_parameters_detailed(kdv, 1.8, grid)
    assert isinstance(details["bundle"].assembler.stage_operator(0.3),
                      Multiplier)
    weighted = dataclasses.replace(_trivial_params(np.sqrt(1 + grid.L ** 2)),
                                   M2=0.1, h=2.0)
    assert isinstance(
        ConjugationAssembler(kdv, weighted, grid).stage_operator(0.3), Dense)


def test_step_blowup_detected(grid):
    # anti-damped symbol: growth reaches the cap and raises with a timestamp
    prob = model_problem("complex-damped", 0.75, strengths=(-60.0, 0.0, 0.0),
                         domain=grid.L)
    p = _trivial_params(np.sqrt(1 + grid.L ** 2))
    asm = ConjugationAssembler(prob, p, grid)
    v0 = synthetic_radius_field(grid, 0.5, 1.8)
    with pytest.raises(InstabilityError) as err:
        solve_conjugated(asm, None, v0, 3.0, dt=0.02)
    assert err.value.t is not None


# ----------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------

def test_zero_data_gives_zero(small_setup):
    grid = small_setup["grid"]
    traj = solve_conjugated(small_setup["assembler"], None,
                            np.zeros(grid.N, dtype=complex), 0.5)
    assert all(grid.l2_norm(v) == 0.0 for v in traj.v_fields)


def test_unitary_flow_kdv(grid):
    kdv = model_problem("kdv-baseline", 0.75)
    p = _trivial_params(np.sqrt(1 + grid.L ** 2))
    g = synthetic_radius_field(grid, 0.7, 1.8)
    traj = solve_original(kdv, p, None, g, grid, 1.0, rho=0.7, theta=1.8,
                          bundle=build_conjugator(kdv, p, grid))
    assert np.max(np.abs(traj.l2 / traj.l2[0] - 1.0)) < 1e-10


def test_damped_solve_energy_log(small_setup):
    grid = small_setup["grid"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    traj = solve_original(small_setup["problem"], small_setup["params"], None,
                          g, grid, 1.0, rho=0.7, theta=1.8,
                          bundle=small_setup["bundle"])
    # residuals non-positive by construction of the measured constant
    assert np.max(traj.energy_residual) <= 1e-12
    # pointwise bound with the measured growth rate
    assert traj.gronwall_C <= 1.0 + 1e-6
    # conjugation equivalence both ways at every logged time
    assert np.max(traj.equivalence_residual) < 1e-7


def test_energy_estimate_one_pass(small_setup, monkeypatch):
    # one trapezoid sum over the step times gives the constant of the
    # quadrature from t = 0 at every logged time, with one ||f||^2 per step
    from gevrey_evolve import evolve
    grid, prob = small_setup["grid"], small_setup["problem"]
    rho, theta = 0.7, 1.8
    g = synthetic_radius_field(grid, rho, theta)
    f = lambda t: 0.5 * np.exp(-t) * g
    spec_in = GevreyNormSpec(0.0, rho, theta)
    norm, calls = evolve.gevrey_norm, []

    def counting(u, spec, grid):
        calls.append(spec)
        return norm(u, spec, grid)

    monkeypatch.setattr(evolve, "gevrey_norm", counting)
    traj = solve_original(prob, small_setup["params"], f, g, grid, 0.5,
                          rho=rho, theta=theta, bundle=small_setup["bundle"])
    monkeypatch.undo()
    steps, logged = traj.meta["steps"], len(traj.logged_times)
    assert logged > 10
    # ||g|| once and ||f(t_i)|| at every step time
    assert calls.count(spec_in) == steps + 2
    # plus an output norm per logged field
    assert len(calls) == steps + 2 + logged

    den0 = gevrey_norm(g, spec_in, grid) ** 2
    C = 0.0
    for idx, t in enumerate(traj.logged_times):
        ts = np.linspace(0.0, t, max(2, int(round(t / traj.meta["dt"])) + 1))
        fn = [gevrey_norm(f(s), spec_in, grid) ** 2 for s in ts]
        C = max(C, traj.meta["hm_u"][idx] ** 2 / (den0 + np.trapezoid(fn, ts)))
    assert traj.meta["energy_estimate_C"] == pytest.approx(C, rel=1e-12, abs=0.0)


def _stage_times(setup, T, dt, monkeypatch):
    """A forced solve's step count, the times its forcing is evaluated at
    and the times its stage operators are built at."""
    grid = setup["grid"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    taus, stage_taus = [], []

    def f(t):
        taus.append(float(t))
        return 0.5 * np.exp(-t) * g

    build = ConjugationAssembler.stage_operator

    def counting(self, t):
        stage_taus.append(float(t))
        return build(self, t)

    monkeypatch.setattr(ConjugationAssembler, "stage_operator", counting)
    traj = solve_original(setup["problem"], setup["params"], f, g, grid, T,
                          theta=1.8, dt=dt, bundle=setup["bundle"])
    return traj.meta["steps"], taus, stage_taus


def test_forcing_conjugated_once_per_stage_time(small_setup, monkeypatch):
    # k2 and k3 share t + dt/2, and k4 shares t + dt with the energy log and
    # the next k1: no time's forcing reaches apply_full twice, and no time's
    # stage operator is built twice
    steps, taus, stage_taus = _stage_times(small_setup, 0.5, None, monkeypatch)
    assert len(taus) == len(set(taus))
    # t = 0, every half step and every step end
    assert len(taus) == 2 * steps + 1
    assert len(stage_taus) == len(set(stage_taus)) == 2 * steps + 1


def test_steps_end_on_the_logged_times(monkeypatch):
    # forced kdv-baseline at N=256 with dt = 0.002: times[i] + dt misses
    # times[i+1] by an ulp at 22 of the 500 steps, so a step that ended at
    # t + dt would make those 22 times extra stage times
    prob = model_problem("kdv-baseline", 0.75, domain=40.0)
    grid = make_grid(40.0, 256)
    params, details = select_parameters_detailed(prob, 1.8, grid)
    setup = dict(problem=prob, grid=grid, params=params,
                 bundle=details["bundle"])
    steps, taus, stage_taus = _stage_times(setup, 1.0, 0.002, monkeypatch)
    assert steps == 500
    assert len(taus) == len(set(taus)) == 2 * steps + 1
    assert len(stage_taus) == len(set(stage_taus)) == 2 * steps + 1


def test_radius_loss_bounded(small_setup):
    grid = small_setup["grid"]
    params = small_setup["params"]
    rho = 2 * params.k0
    g = synthetic_radius_field(grid, rho, params.theta)
    traj = solve_original(small_setup["problem"], params, None, g, grid, 1.0,
                          rho=rho, theta=params.theta,
                          bundle=small_setup["bundle"])
    kT = float(k_of_t(1.0, params))
    assert traj.radius[-1] >= kT - 0.05
    assert rho - traj.radius[-1] <= params.k0 + 0.05


def test_radius_precondition_enforced(small_setup):
    grid = small_setup["grid"]
    g = synthetic_radius_field(grid, 0.1, 1.8)   # much flatter than declared
    with pytest.raises(DataError):
        solve_original(small_setup["problem"], small_setup["params"], None, g,
                       grid, 1.0, rho=0.7, theta=1.8,
                       bundle=small_setup["bundle"])
    g2 = synthetic_radius_field(grid, 0.3, 1.8)  # radius below k0
    with pytest.raises(DataError):
        solve_original(small_setup["problem"], small_setup["params"], None,
                       g2, grid, 1.0, rho=0.3, theta=1.8,
                       bundle=small_setup["bundle"])


def test_time_modulated_problem_runs():
    # time-dependent coefficients take the per-stage rebuild path
    from gevrey_evolve.positivity import select_parameters_detailed
    prob = model_problem("time-modulated", 0.75, domain=10.0)
    grid = make_grid(10.0, 48)
    params, details = select_parameters_detailed(prob, 1.8, grid)
    g = synthetic_radius_field(grid, 0.7, 1.8)
    traj = solve_original(prob, params, None, g, grid, 1.0, rho=0.7, theta=1.8,
                          bundle=details["bundle"])
    assert np.all(np.isfinite(traj.l2))
    assert np.isfinite(traj.radius[-1])
    assert np.max(traj.equivalence_residual) < 1e-7


def test_uniqueness_probe_dt_refinement(small_setup):
    # identical data, different dt: terminal states agree at integrator order
    grid = small_setup["grid"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    kw = dict(rho=0.7, theta=1.8, bundle=small_setup["bundle"])
    finals = {}
    for div in (1, 2, 4):
        traj = solve_original(small_setup["problem"], small_setup["params"],
                              None, g, grid, 0.5, dt=0.5 / (64 * div), **kw)
        finals[div] = traj.u_fields[-1]
    d1 = grid.l2_norm(finals[1] - finals[2])
    d2 = grid.l2_norm(finals[2] - finals[4])
    scale = grid.l2_norm(finals[4])
    assert d1 < 1e-3 * scale
    assert d1 / max(d2, 1e-300) > 2.5  # refining dt shrinks the gap
