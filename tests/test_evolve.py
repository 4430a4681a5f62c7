import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from gevrey_evolve import conjugate, evolve, harness, quantize
from gevrey_evolve.conjugate import ConjugationAssembler, build_conjugator
from gevrey_evolve.errors import DataError, InstabilityError, ParameterError
from gevrey_evolve.evolve import (GevreyNormSpec, gevrey_norm,
                                  integrating_factors, radius_fit,
                                  solve_conjugated, solve_original, step,
                                  step_bytes, synthetic_radius_field)
from gevrey_evolve.grid import make_grid
from gevrey_evolve.positivity import select_parameters_detailed
from gevrey_evolve.quantize import (coefficient_matrix, multiplier_table,
                                    stage_matrices, to_dense)
from gevrey_evolve.symbols import Symbol, eval_table, model_problem
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
    assert gevrey_norm(grid.forward(u), spec, grid) == pytest.approx(grid.l2_norm(u), rel=1e-12)


def test_gevrey_norm_single_mode(grid):
    # a single lattice mode scales the norm by e^{rho <xi_k>^{1/theta}}
    k = np.argmin(np.abs(grid.xi - 1.0))
    u_hat = np.zeros(grid.N, dtype=complex)
    u_hat[k] = 1.0
    u = grid.inverse(u_hat)
    theta = 2.0
    spec = GevreyNormSpec(0.0, 1.0, theta)
    expect = np.exp(np.sqrt(1 + grid.xi[k] ** 2) ** (1 / theta)) * grid.l2_norm(u)
    assert gevrey_norm(grid.forward(u), spec, grid) == pytest.approx(expect, rel=1e-10)


def test_gevrey_norm_monotone_in_rho(grid):
    u = synthetic_radius_field(grid, 1.0, 1.8)
    vals = [gevrey_norm(grid.forward(u), GevreyNormSpec(0.0, r, 1.8), grid)
            for r in (0.0, 0.3, 0.6)]
    assert vals[0] < vals[1] < vals[2]


def test_radius_fit_synthetic(grid):
    u = synthetic_radius_field(grid, 0.8, 2.0)
    assert radius_fit(grid.forward(u), 2.0, grid) == pytest.approx(0.8, abs=0.01)


def test_radius_fit_white_noise(grid):
    # no spectral decay: near-zero slope
    rng = np.random.default_rng(7)
    u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    assert abs(radius_fit(grid.forward(u), 2.0, grid)) < 0.3


def test_radius_fit_insufficient_data(grid):
    u_hat = np.zeros(grid.N, dtype=complex)
    u_hat[np.argmin(np.abs(grid.xi))] = 1.0
    with pytest.raises(DataError):
        radius_fit(u_hat, 2.0, grid)
    with pytest.raises(DataError):
        radius_fit(np.zeros(grid.N, dtype=complex), 2.0, grid)


def test_norm_and_radius_fit_on_a_stack(grid):
    # a (B, N) stack gives each row's value, each row fitted on its own
    # modes: a row with one mode and a zero row give NaN there (one such
    # field alone raises DataError), and the zero row has norm 0
    rng = np.random.default_rng(2)
    one_mode = np.zeros(grid.N, dtype=complex)
    one_mode[np.argmin(np.abs(grid.xi))] = 1.0
    noise = grid.forward(rng.standard_normal(grid.N))
    steep = grid.forward(synthetic_radius_field(grid, 12.0, 1.8, seed=1))
    rows = [one_mode, grid.forward(synthetic_radius_field(grid, 0.8, 1.8)),
            noise, steep, np.zeros(grid.N, dtype=complex)]
    U = np.array(rows)
    spec = GevreyNormSpec(0.0, 0.5, 1.8)
    fits, norms = radius_fit(U, 1.8, grid), gevrey_norm(U, spec, grid)
    assert fits.shape == norms.shape == (len(rows),)
    assert np.isnan(fits[0]) and np.isnan(fits[-1])
    assert norms[-1] == 0.0 and gevrey_norm(rows[-1], spec, grid) == 0.0
    for row, fit, norm in zip(rows[1:-1], fits[1:-1], norms[1:-1]):
        assert fit == pytest.approx(radius_fit(row, 1.8, grid), rel=1e-14)
        assert norm == pytest.approx(gevrey_norm(row, spec, grid), rel=1e-14)
    assert norms[0] == pytest.approx(gevrey_norm(rows[0], spec, grid), rel=1e-14)
    # the steep row has fewer modes above the floor than the noise row
    floor = evolve.RADIUS_FLOOR
    assert (np.sum(np.abs(steep) > floor * np.max(np.abs(steep)))
            < np.sum(np.abs(noise) > floor * np.max(np.abs(noise))))


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------

def _trivial_params(domain_cap):
    return WeightParams(M2=0.0, M1=0.0, h=1.0, k0=0.35, sigma=0.75, theta=1.8,
                        domain_cap=domain_cap)


def _dense_stage(grid, tab):
    """op(tab) as its coefficient matrix E_syn^H (E_syn * tab)."""
    E_syn = grid.synthesis_matrix()
    return E_syn.conj().T @ (E_syn * tab)


def _frozen(grid, tab):
    """The generator table tab as a stage matrix at every time."""
    A = _dense_stage(grid, tab)
    return lambda taus: [A] * len(taus)


def _step(v_hat, t, dt, p, grid, stages):
    """One step from t, its stage arrays formed by stages(taus) at its
    three stage times and its integrating factors by integrating_factors."""
    return step(v_hat, dt, grid, integrating_factors(p, grid, [t, t + dt])[0],
                stages(np.array([t, t + 0.5 * dt, t + dt])))


def test_step_pure_dispersion_is_unitary(grid):
    kdv = model_problem("kdv-baseline", 0.75)
    p = _trivial_params(np.sqrt(1 + grid.L ** 2))
    tab = ConjugationAssembler(kdv, p, grid).at(0.0).generator_table().values
    v = synthetic_radius_field(grid, 0.6, 1.8)
    w = grid.inverse(_step(grid.forward(v), 0.0, 0.05, kdv, grid,
                           _frozen(grid, tab)))
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
    w = grid.inverse(_step(grid.forward(v), 0.0, 0.05, zero3, grid,
                           _frozen(grid, tab)))
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
        w = grid.inverse(_step(grid.forward(v0), 0.0, dt, prob, grid, frozen))
        errs.append(grid.l2_norm(w - expm(G * dt) @ v0))
    assert errs[0] / errs[1] > 16.0  # local order >= 4 (dt^5 gives 32)
    # damping-dominated group: growth per step stays under the quantization
    # floor of the nonnegative symbols, and the norm decays net
    from gevrey_evolve.positivity import discrete_garding
    floor = sum(abs(min(0.0, discrete_garding(tab, grid)))
                for tab in (cs.block("order2").real, cs.block("order1").real,
                            cs.block("theta").real))
    w = v0.copy()
    norms = [grid.l2_norm(w)]
    for i in range(20):
        w = grid.inverse(_step(grid.forward(w), i * 2e-3, 2e-3, prob, grid,
                               frozen))
        norms.append(grid.l2_norm(w))
    rates = np.diff(np.log(norms)) / 2e-3
    assert np.max(rates) <= floor + 1e-6
    assert norms[-1] < norms[0]


@pytest.mark.parametrize("N, L", [(64, 10.0), (256, 40.0)])
def test_multiplier_step_matches_dense_step(N, L):
    # an x-independent generator that is not zero (k' != 0 with C1, C2 > 0):
    # a step through its stage rows equals the step through E_syn * G
    grid = make_grid(L, N)
    kdv = model_problem("kdv-baseline", 0.75)
    p = _trivial_params(np.sqrt(1 + L ** 2)).with_ode_constants(0.5, 0.1)
    asm = ConjugationAssembler(kdv, p, grid)
    assert asm.polynomial(0.0)[1].ndim == 2
    dense = lambda taus: [_dense_stage(
        grid, asm.at(tau).generator_table().values) for tau in taus]
    zero = lambda taus: [np.zeros(N)] * len(taus)
    v = synthetic_radius_field(grid, 0.6, 1.8)
    v_hat = grid.forward(v)
    w_mult = grid.inverse(_step(v_hat, 0.1, 0.05, kdv, grid, asm.stages))
    w_dense = grid.inverse(_step(v_hat, 0.1, 0.05, kdv, grid, dense))
    w_zero = grid.inverse(_step(v_hat, 0.1, 0.05, kdv, grid, zero))
    scale = grid.l2_norm(w_dense)
    assert grid.l2_norm(w_dense - w_zero) > 1e-4 * scale
    assert grid.l2_norm(w_mult - w_dense) <= 1e-13 * scale


def test_stacked_step_matches_dense_step(grid):
    # an x-dependent generator with k' != 0 (C1, C2 > 0): a step through
    # the stage's coefficient matrix equals the step through E_syn * G
    prob = model_problem("complex-damped", 0.75, domain=grid.L)
    p = dataclasses.replace(_trivial_params(np.sqrt(1 + grid.L ** 2)),
                            M2=0.1, M1=0.1, h=2.0).with_ode_constants(0.5, 0.1)
    asm = ConjugationAssembler(prob, p, grid)
    assert asm.polynomial(0.0)[1].ndim == 3
    dense = lambda taus: [_dense_stage(
        grid, asm.at(tau).generator_table().values) for tau in taus]
    zero = lambda taus: [np.zeros(grid.N)] * len(taus)
    v_hat = grid.forward(synthetic_radius_field(grid, 0.6, 1.8))
    w_stack = grid.inverse(_step(v_hat, 0.1, 0.05, prob, grid, asm.stages))
    w_dense = grid.inverse(_step(v_hat, 0.1, 0.05, prob, grid, dense))
    w_zero = grid.inverse(_step(v_hat, 0.1, 0.05, prob, grid, zero))
    scale = grid.l2_norm(w_dense)
    assert grid.l2_norm(w_dense - w_zero) > 1e-4 * scale
    assert grid.l2_norm(w_stack - w_dense) <= 1e-13 * scale


def test_solve_builds_no_stage_matrix(small_setup, monkeypatch):
    # a damped-64 solve quantizes no table per stage time: it builds the
    # coefficient stack of its one coefficient time once, and every stage
    # it applies is that stack weighted at its own time, kprime included.
    # The stages are copied as they are formed, since the solve reuses its
    # slots
    setup = small_setup
    grid = setup["grid"]
    bundle = dataclasses.replace(setup["bundle"], assembler=ConjugationAssembler(
        setup["problem"], setup["params"], grid))
    counts = {"coefficient_matrix": 0, "spectral_stack": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (conjugate, evolve):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(module, name))
    stages = {}
    build = ConjugationAssembler.stages

    def recording(self, taus, out=None):
        out = build(self, taus, out)
        stages.update(zip(map(float, taus), out.copy()))
        return out

    monkeypatch.setattr(ConjugationAssembler, "stages", recording)
    g = synthetic_radius_field(grid, 0.7, 1.8)
    traj = solve_original(bundle, None, g, 0.5)
    assert counts == {"coefficient_matrix": 0, "spectral_stack": 1}
    assert len(stages) == 2 * traj.meta["steps"] + 1
    rng = np.random.default_rng(3)
    w_hat = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    times = sorted(stages)
    for t in (times[0], times[1], times[-1]):
        ref = coefficient_matrix(
            grid, bundle.assembler.at(t).generator_table().values)
        got = stages[t] @ w_hat
        want = ref @ w_hat
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _count_stage_forms(monkeypatch):
    """Record the stage count of each stage_matrices call over a stack of
    coefficient matrices: one call, one GEMM run in column panels, per
    batch."""
    sizes = []
    form = quantize.stage_matrices

    def counting(weights, stack, out=None):
        if stack.ndim == 3:
            sizes.append(len(weights))
        return form(weights, stack, out)

    monkeypatch.setattr(conjugate, "stage_matrices", counting)
    return sizes


def _batches(n, B):
    """The stage_matrices sizes of n steps in batches of B: 2b + 1 each."""
    q, r = divmod(n, B)
    return [2 * B + 1] * q + [2 * r + 1] * (r > 0)


def test_solve_forms_one_matrix_per_stage_time(small_setup, monkeypatch):
    # an unforced damped-64 solve (one block) forms the 2B + 1 stage
    # matrices of each batch of B = J steps (the last batch r <= B) in one
    # GEMM over the stack of J + 1 tables: one matrix per stage time, and
    # one more per batch past the first for its start, into at most
    # 2B + 1 slots for the whole solve.  Every stage a step applies is the
    # N x N matrix of its own time (the step's start, half and end), equal
    # to the weighted stack, and no Grid.forward call comes from a stage
    from gevrey_evolve.grid import Grid
    grid, bundle = small_setup["grid"], small_setup["bundle"]
    asm = bundle.assembler
    sizes = _count_stage_forms(monkeypatch)
    slots, applied, inside, forwards = set(), [], [False], [0]
    forward = Grid.forward

    def counting_forward(self, u):
        forwards[0] += inside[0]
        return forward(self, u)

    def checking_step(v_hat, dt, grid, phases, stages, forcing=None):
        assert all(M.shape == (grid.N, grid.N) for M in stages)
        slots.update(M.__array_interface__["data"][0] for M in stages)
        applied.append([M.copy() for M in stages])
        inside[0] = True
        try:
            return step(v_hat, dt, grid, phases, stages, forcing)
        finally:
            inside[0] = False

    monkeypatch.setattr(Grid, "forward", counting_forward)
    monkeypatch.setattr(evolve, "step", checking_step)
    traj = solve_conjugated(asm, None,
                            grid.forward(synthetic_radius_field(grid, 0.7, 1.8)),
                            0.5)
    powers, G = asm.polynomial(0.0)
    B = len(G) - 1
    steps = traj.meta["steps"]
    assert len(applied) == steps
    for mats, t0, t1 in zip(applied, traj.times, traj.times[1:]):
        for M, tau in zip(mats, (t0, t0 + 0.5 * (t1 - t0), t1)):
            k = float(k_of_t(tau, asm.params))
            want = np.tensordot([k ** j for j in (0, *powers)], G, axes=1)
            assert np.max(np.abs(M - want)) <= 1e-15 * np.max(np.abs(want))
    assert B > 1
    assert sizes == _batches(steps, B)
    assert sum(sizes) == 2 * steps + len(sizes)
    assert 0 < len(slots) <= 2 * B + 1
    assert forwards[0] == 0


def test_solve_stages_equal_one_unpanelled_gemm(medium_setup, monkeypatch):
    # damped N=128: a stage is 2N^2 = 32768 float64 columns, four panels of
    # the batch GEMM.  Every stage a step applies has the bits of its
    # batch's weights over the stack by one unpanelled np.matmul
    grid, asm = medium_setup["grid"], medium_setup["assembler"]
    G = asm.polynomial(0.0)[1]
    flat = G.reshape(len(G), -1).view(float)
    assert G.ndim == 3 and flat.shape[1] > 2 * quantize.STAGE_PANEL
    formed, form, applied = {}, quantize.stage_matrices, [0]

    def address(M):
        return M.__array_interface__["data"][0]

    def recording(weights, stack, out=None):
        out = form(weights, stack, out)
        want = np.matmul(weights, flat).view(complex).reshape(out.shape)
        formed.update({address(M): W for M, W in zip(out, want)})
        return out

    def checking_step(v_hat, dt, grid, phases, stages, forcing=None):
        for M in stages:
            assert np.array_equal(M, formed[address(M)])
        applied[0] += len(stages)
        return step(v_hat, dt, grid, phases, stages, forcing)

    monkeypatch.setattr(conjugate, "stage_matrices", recording)
    monkeypatch.setattr(evolve, "step", checking_step)
    traj = solve_conjugated(asm, None, grid.forward(
        synthetic_radius_field(grid, 0.7, 1.8)), 0.2)
    assert applied[0] == 3 * traj.meta["steps"] > 0


def test_batch_start_is_formed_as_the_last_end(small_setup, monkeypatch):
    # a damped-64 solve of 25 steps in blocks of 10 forms each batch's start
    # again, within a block and across blocks: bit for bit the matrix the
    # batch before formed for its last end
    grid, asm = small_setup["grid"], small_setup["assembler"]
    G = asm.polynomial(0.0)[1]
    monkeypatch.setattr(evolve, "BLOCK_BYTES",
                        10 * step_bytes(G, False))
    forms, form = [], quantize.stage_matrices

    def recording(weights, stack, out=None):
        out = form(weights, stack, out)
        forms.append(out.copy())
        return out

    monkeypatch.setattr(conjugate, "stage_matrices", recording)
    traj = solve_conjugated(asm, None, grid.forward(
        synthetic_radius_field(grid, 0.7, 1.8)), 0.5, dt=0.02)
    B = len(G) - 1
    assert traj.meta["steps"] == 25 and B > 1
    assert len(forms) == len(_batches(10, B) * 2 + _batches(5, B)) > 3
    for before, after in zip(forms, forms[1:]):
        assert np.array_equal(after[0], before[-1])


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_batched_stages_equal_one_step_batches(small_setup, monkeypatch,
                                               forced):
    # a damped-64 solve of 25 steps in blocks of 10, so batches of B = J
    # steps end early at each block's end and at the solve's, gives bit for
    # bit the solve whose batches are one step each
    grid, asm = small_setup["grid"], small_setup["assembler"]
    G = asm.polynomial(0.0)[1]
    f_hat = grid.forward(synthetic_radius_field(grid, 0.6, 1.8, seed=1))

    def f_conj(taus):
        return (np.cos(3.0 * taus)[:, None] * f_hat
                + 1j * taus[:, None] * np.conj(f_hat))

    monkeypatch.setattr(evolve, "BLOCK_BYTES",
                        10 * step_bytes(G, forced))
    v0 = grid.forward(synthetic_radius_field(grid, 0.7, 1.8))
    sizes = _count_stage_forms(monkeypatch)
    batched = solve_conjugated(asm, f_conj if forced else None, v0, 0.5,
                               dt=0.02)
    B = len(G) - 1
    assert batched.meta["steps"] == 25 and 10 % B and 5 % B
    assert sizes == _batches(10, B) * 2 + _batches(5, B)
    monkeypatch.setattr(evolve, "batch_steps", lambda G: 1)
    single = solve_conjugated(asm, f_conj if forced else None, v0, 0.5,
                              dt=0.02)
    assert sizes[-25:] == [3] * 25
    for name in ("v_hats", "l2", "energy_rate"):
        assert np.array_equal(getattr(batched, name), getattr(single, name))


def test_multiplier_solve_forms_no_stage_matrix(grid, monkeypatch):
    # kdv-baseline at its selected weights (M2 = M1 = 0) steps with row
    # stages: a solve makes no GEMM over a stack of matrices and allocates
    # no slot (no np.empty of a stack of N x N matrices)
    kdv = model_problem("kdv-baseline", 0.75)
    _, details = select_parameters_detailed(kdv, 1.8, grid)
    bundle = details["bundle"]
    assert bundle.assembler.polynomial(0.0)[1].ndim == 2
    sizes = _count_stage_forms(monkeypatch)
    shapes, empty = [], np.empty

    def recording(shape, *args, **kwargs):
        shapes.append(tuple(np.atleast_1d(shape).tolist()))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recording)
    traj = solve_original(bundle, None, synthetic_radius_field(grid, 0.7, 1.8),
                          0.5)
    monkeypatch.undo()
    assert traj.meta["steps"] > 0
    assert sizes == []
    assert shapes and not any(len(s) == 3 and s[1:] == (grid.N, grid.N)
                              for s in shapes)


def test_solve_steps_on_the_stages_in_its_slots(small_setup, monkeypatch):
    # a damped-64 solve steps on the matrices its stages calls write, as
    # they are, and every call writes into the one array of slots the
    # solve holds: no stage matrix outlives its batch
    grid, bundle = small_setup["grid"], small_setup["bundle"]
    made, build = [], ConjugationAssembler.stages

    def recording(self, taus, out=None):
        made.append(build(self, taus, out))
        return made[-1]

    def checking_step(v_hat, dt, grid, phases, stages, forcing=None):
        assert all(M.shape == (grid.N, grid.N) for M in stages)
        assert all(np.shares_memory(M, made[-1]) for M in stages)
        return step(v_hat, dt, grid, phases, stages, forcing)

    monkeypatch.setattr(ConjugationAssembler, "stages", recording)
    monkeypatch.setattr(evolve, "step", checking_step)
    traj = solve_conjugated(bundle.assembler, None,
                            grid.forward(synthetic_radius_field(grid, 0.7, 1.8)),
                            0.5)
    assert sum(map(len, made)) == 2 * traj.meta["steps"] + len(made)
    assert all(np.shares_memory(M, made[0]) for M in made)


def test_pullback_synthesizes_once_per_logged_time(small_setup, monkeypatch):
    # a forced damped-64 solve (matrix conjugator, matrix stages) carries
    # coefficients end to end: its only synthesis is one field through
    # Grid.inverse per logged time, and the pull-back (the conjugator
    # inverse, the equivalence check, the radius fit and the output norm)
    # makes no Grid.forward.  The transforms take stacks: a call counts
    # each field it transforms
    from gevrey_evolve.grid import Grid
    setup = small_setup
    grid, bundle = setup["grid"], setup["bundle"]
    assert bundle.E_inv.ndim == 2
    g = synthetic_radius_field(grid, 0.7, 1.8)
    calls, solved = {"forward": 0, "inverse": 0}, {}
    for name in calls:
        def counting(self, u, fn=getattr(Grid, name), name=name):
            out = fn(self, u)
            calls[name] += out.size // self.N
            return out
        monkeypatch.setattr(Grid, name, counting)
    solve = evolve.solve_conjugated

    def recording(*args, **kwargs):
        traj = solve(*args, **kwargs)
        solved.update(calls)
        return traj

    monkeypatch.setattr(evolve, "solve_conjugated", recording)
    traj = solve_original(bundle, lambda t: 0.5 * np.exp(-t) * g, g, 0.5)
    monkeypatch.undo()
    assert len(traj.logged_times) > 10
    assert solved["inverse"] == 0
    assert calls["inverse"] == len(traj.logged_times)
    assert calls["forward"] == solved["forward"]


def test_stage_variant_read_off_the_tables(small_setup, grid):
    # complex-damped tables depend on x: matrix stages.  kdv-baseline's
    # vanish (M2 = M1 = 0): row stages.  kdv-baseline with M2 > 0 has an
    # x-dependent phase, hence matrix stages again
    assert small_setup["assembler"].stages([0.3]).shape == (1, 64, 64)
    kdv = model_problem("kdv-baseline", 0.75)
    _, details = select_parameters_detailed(kdv, 1.8, grid)
    assert details["bundle"].assembler.stages([0.3]).shape == (1, 64)
    weighted = dataclasses.replace(_trivial_params(np.sqrt(1 + grid.L ** 2)),
                                   M2=0.1, h=2.0)
    assert ConjugationAssembler(kdv, weighted, grid).stages(
        [0.3]).shape == (1, 64, 64)


@pytest.mark.parametrize("block", [1, 7])
def test_blocks_do_not_change_the_solve(small_setup, monkeypatch, block):
    # the block length only groups the time-only work: a forced damped-64
    # solve in blocks of 1 or 7 steps (32 steps: a short last block), the
    # byte budget set to that many steps' bytes, gives the same trajectory
    # as in blocks of the default budget, up to the rounding of the matrix
    # conjugator's GEMM on a stack
    grid, bundle = small_setup["grid"], small_setup["bundle"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    f = lambda t: 0.5 * np.exp(-t) * g
    ref = solve_original(bundle, f, g, 0.5, rho=0.7)
    G = bundle.assembler.polynomial(0.0)[1]
    monkeypatch.setattr(evolve, "BLOCK_BYTES",
                        block * step_bytes(G, True))
    got = solve_original(bundle, f, g, 0.5, rho=0.7)
    assert got.meta["steps"] % block or block == 1
    for a, b in ((ref.l2, got.l2), (ref.radius, got.radius),
                 (ref.energy_rate, got.energy_rate),
                 (ref.meta["hm_u"], got.meta["hm_u"])):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
    for a, b in zip(ref.v_hats, got.v_hats):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))


def test_step_blowup_detected(grid):
    # anti-damped symbol: growth reaches the cap and raises with a timestamp
    prob = model_problem("complex-damped", 0.75, strengths=(-60.0, 0.0, 0.0),
                         domain=grid.L)
    p = _trivial_params(np.sqrt(1 + grid.L ** 2))
    asm = ConjugationAssembler(prob, p, grid)
    v0 = synthetic_radius_field(grid, 0.5, 1.8)
    with pytest.raises(InstabilityError) as err:
        solve_conjugated(asm, None, grid.forward(v0), 3.0, dt=0.02)
    assert err.value.t is not None


def _per_step(asm, f_conj, v0_hat, times):
    """The states at every step time, stepped one step() at a time, each on
    its own stages, integrating factors and forcing."""
    p, grid = asm.problem, asm.grid
    out = [v0_hat]
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1 in zip(times[:-1], times[1:]):
            taus = np.array([t0, t0 + 0.5 * (t1 - t0), t1])
            out.append(step(out[-1], t1 - t0, grid,
                            integrating_factors(p, grid, [t0, t1])[0],
                            asm.stages(taus),
                            None if f_conj is None else f_conj(taus)))
    return np.array(out)


def _kdv_assembler(grid, C1, C2):
    kdv = model_problem("kdv-baseline", 0.75)
    params = dataclasses.replace(_trivial_params(np.sqrt(1 + grid.L ** 2)),
                                 C1=C1, C2=C2)
    return ConjugationAssembler(kdv, params, grid)


def test_affine_blocks_equal_per_step_stepping(grid, monkeypatch):
    # kdv-baseline with C1, C2 > 0 (a time-dependent kprime part) and a
    # forcing steps with row stages: each block is one step() call
    # for P and one for Q on (B, N) stacks, and then P * v + Q per step.  In
    # blocks of 3 (25 steps: a short last block) it gives the states of
    # step() taken one step at a time
    asm = _kdv_assembler(grid, 0.5, 0.3)
    G = asm.polynomial(0.0)[1]
    assert G.ndim == 2
    f_hat = grid.forward(synthetic_radius_field(grid, 0.6, 1.8, seed=1))

    def f_conj(taus):
        return (np.cos(3.0 * taus)[:, None] * f_hat
                + 1j * taus[:, None] * np.conj(f_hat))

    monkeypatch.setattr(evolve, "BLOCK_BYTES",
                        3 * step_bytes(G, True))
    shapes = []

    def recording(v_hat, *args, **kwargs):
        shapes.append(np.shape(v_hat))
        return step(v_hat, *args, **kwargs)

    monkeypatch.setattr(evolve, "step", recording)
    v0 = grid.forward(synthetic_radius_field(grid, 0.7, 1.8))
    traj = solve_conjugated(asm, f_conj, v0, 0.5, dt=0.02)
    monkeypatch.undo()
    assert traj.meta["steps"] == 25
    assert shapes == [(3, grid.N)] * 16 + [(1, grid.N)] * 2
    ref = _per_step(asm, f_conj, v0, traj.times)
    got = traj.v_hats
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    l2 = grid.l2_norm(ref)
    assert np.max(np.abs(traj.l2 - l2)) <= 1e-13 * np.max(l2)


def _switching_problem(factor):
    """kdv-baseline's a3 with a2 = 0 and a1 = 0.05 factor(t) e^{-x^2} xi:
    the generator depends on x at the times where factor(t) != 0."""
    a1 = Symbol(fn=lambda t, x, xi: 0.05 * factor(t) * np.exp(-x ** 2) * xi,
                order=1.0, name="switching-a1")
    return dataclasses.replace(model_problem("kdv-baseline", 0.75),
                               name="switching", a1=a1, time_dependent=True)


def test_stack_solve_forms_an_x_independent_time_as_a_stack(grid):
    # a1 vanishes at T = 1 only: the variant is decided at t = 0, where the
    # generator depends on x, so the solve steps on matrices throughout,
    # the x-independent last stage time included, and its v(T) is that of
    # steps on the quantized generator table at each stage time
    prob = _switching_problem(lambda t: 1.0 - t)
    params, details = select_parameters_detailed(prob, 1.8, grid)
    assert (params.M2, params.M1, params.h) == (0.0, 0.0, 1.0)
    asm = details["bundle"].assembler
    v0 = details["bundle"].apply_full(
        grid.forward(synthetic_radius_field(grid, 0.7, 1.8)), 0.0)
    traj = solve_conjugated(asm, None, v0, 1.0)
    assert asm.polynomial(0.0)[1].ndim == 3
    assert asm.at(1.0).generator_table().values.shape == (1, grid.N)
    ref = v0
    for t0, t1 in zip(traj.times[:-1], traj.times[1:]):
        ref = step(ref, t1 - t0, grid,
                   integrating_factors(prob, grid, [t0, t1])[0],
                   [coefficient_matrix(grid,
                                       asm.at(tau).generator_table().values)
                    for tau in (t0, t0 + 0.5 * (t1 - t0), t1)])
    got = traj.v_hats[-1]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rows_solve_refuses_an_x_dependent_time(grid):
    # a1 vanishes at t = 0 only: the variant is decided there, on rows, and
    # the first stage time whose generator depends on x (the first half
    # step, t = 1/64) raises ParameterError naming it
    prob = _switching_problem(lambda t: t)
    params, details = select_parameters_detailed(prob, 1.8, grid)
    assert (params.M2, params.M1, params.h) == (0.0, 0.0, 1.0)
    g = synthetic_radius_field(grid, 0.7, 1.8)
    with pytest.raises(ParameterError, match=r"depends on x at t=0\.015625"):
        solve_original(details["bundle"], None, g, 1.0)
    assert details["bundle"].assembler.polynomial(0.0)[1].ndim == 2


def _retired_fourier_rows(*tables):
    """The variant rule the shape replaced: every row of each table equals
    its first."""
    return all(np.all(T == T[:1]) for T in tables)


def _variant_case(case, grid):
    """(assembler, conjugator builder) of a case: selection's, or for
    damped-64-unweighted the one build at M2 = M1 = 0, which selection
    refuses."""
    if case == "damped-64-unweighted":
        prob = model_problem("complex-damped", 0.75, domain=grid.L)
        params = dataclasses.replace(_trivial_params(np.sqrt(1 + grid.L ** 2)),
                                     C1=0.5, C2=0.1)
        return lambda: conjugate.build_conjugator(
            ConjugationAssembler(prob, params, grid))
    if case == "time-modulated-48":
        prob, grid = (model_problem("time-modulated", 0.75, domain=8.0),
                      make_grid(8.0, 48))
    elif case.startswith("switching"):
        prob = _switching_problem((lambda t: 1.0 - t) if case == "switching-off"
                                  else (lambda t: t))
    else:
        prob = model_problem(case[:-3], 0.75, domain=grid.L)
    return lambda: select_parameters_detailed(prob, 1.8, grid)[1]["bundle"]


@pytest.mark.parametrize("case", ["complex-damped-64", "kdv-baseline-64",
                                  "damped-64-unweighted", "time-modulated-48",
                                  "switching-off", "switching-on"])
def test_variant_by_shape_agrees_with_the_retired_row_equality(grid, case,
                                                               monkeypatch):
    # the variant is the tables' shape: polynomial takes rows when every
    # G_j is one row, build_conjugator the row pair when lam is one
    # row.  On every table they decide on, through selection, a solve and
    # the sample times, the shape agrees with the retired scan for equal
    # rows; damped-64-unweighted has a row phase and a stack generator
    from gevrey_evolve import positivity
    from gevrey_evolve.symbols import sample_times
    decided, decide = [], ConjugationAssembler.polynomial
    build = conjugate.build_conjugator

    def polynomial(self, t, polys=None):
        G = {}
        for name in conjugate.POLY_PARTS:
            for j, U in self._poly(self._entry(t), name).items():
                G[j] = G.get(j, 0.0) + U.values
        tables = list(G.values())
        decided.append(("G", _retired_fourier_rows(*tables),
                        all(len(T) == 1 for T in tables)))
        return decide(self, t, polys)

    def conjugator(assembler, *args, **kwargs):
        bundle = build(assembler, *args, **kwargs)
        lam = assembler.phase.lam.values
        decided.append(("lam", _retired_fourier_rows(lam), len(lam) == 1))
        assert (bundle.E.ndim == 1) == (len(lam) == 1)
        return bundle

    monkeypatch.setattr(ConjugationAssembler, "polynomial", polynomial)
    monkeypatch.setattr(positivity, "build_conjugator", conjugator)
    monkeypatch.setattr(conjugate, "build_conjugator", conjugator)
    bundle = _variant_case(case, grid)()
    asm = bundle.assembler
    v0 = bundle.apply_full(asm.grid.forward(
        synthetic_radius_field(asm.grid, 0.7, 1.8)), 0.0)
    try:
        solve_conjugated(asm, None, v0, 1.0)
        for t in sample_times(asm.problem.T):
            asm.polynomial(t)
    except ParameterError:
        assert case == "switching-on"
    rows = asm.polynomial(0.0)[1].ndim == 2
    assert rows == (case in ("kdv-baseline-64", "switching-on"))
    assert [d[2] for d in decided if d[0] == "G"][0] == rows
    assert {"G", "lam"} <= {d[0] for d in decided}
    for kind, retired, shape in decided:
        assert retired == shape, kind


@pytest.fixture(scope="module")
def modulated48():
    """The accepted time-modulated (L=8, N=48) bundle."""
    prob = model_problem("time-modulated", 0.75, domain=8.0)
    return select_parameters_detailed(prob, 1.8, make_grid(8.0, 48))[1]["bundle"]


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_time_dependent_batches_apply_the_matrices_of_one_step_batches(
        modulated48, monkeypatch, forced):
    # time-modulated N=48 steps in batches of B = J like any matrix solve,
    # each stage time from its own coefficient stack: every step applies,
    # bit for bit, the stage matrices of the solve in one-step batches, and
    # the states are those of that solve
    asm, grid = modulated48.assembler, modulated48.grid
    f_hat = grid.forward(synthetic_radius_field(grid, 0.6, 1.8, seed=1))

    def f_conj(taus):
        return (np.cos(3.0 * taus)[:, None] * f_hat
                + 1j * taus[:, None] * np.conj(f_hat))

    v0 = modulated48.apply_full(grid.forward(
        synthetic_radius_field(grid, 0.7, 1.8)), 0.0)
    B = len(asm.polynomial(0.0)[1]) - 1
    solves = []
    for batch in (None, 1):
        with monkeypatch.context() as m:
            if batch:
                m.setattr(evolve, "batch_steps", lambda G: batch)
            applied = []

            def recording(v_hat, dt, grid, phases, stages, forcing=None):
                applied.append(np.array(stages))
                return step(v_hat, dt, grid, phases, stages, forcing)

            m.setattr(evolve, "step", recording)
            calls = _stage_calls(m)
            traj = solve_conjugated(asm, f_conj if forced else None, v0, 1.0)
        solves.append((traj, applied, [len(c) for c in calls]))
    (batched, mats, sizes), (single, one, one_sizes) = solves
    steps = batched.meta["steps"]
    assert B > 1 and steps > B
    assert sizes == _batches(steps, B) and one_sizes == [3] * steps
    assert len(mats) == len(one) == steps
    for got, want in zip(mats, one):
        assert np.array_equal(got, want)
    for name in ("v_hats", "l2", "energy_rate"):
        assert np.array_equal(getattr(batched, name), getattr(single, name))


def test_multiplier_blowup_names_the_first_step(grid):
    # k' = -C2 > 0 makes a kdv-baseline row solve grow past the cap
    # at step 2 and overflow later in the same block: the error names the
    # step and t at which step() taken one step at a time first crosses the
    # cap, and the overflow past it prints no RuntimeWarning
    asm = _kdv_assembler(grid, 0.0, -5000.0)
    v0 = grid.forward(synthetic_radius_field(grid, 0.5, 1.8))
    times = np.linspace(0.0, 1.0, 101)
    ref = _per_step(asm, None, v0, times)
    cap = evolve.BLOWUP_FACTOR * (grid.l2_norm(v0) + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.all(np.isfinite(ref), axis=1) | (grid.l2_norm(ref) > cap)
    first = int(np.argmax(bad))
    assert 1 < first < 100 and not np.all(np.isfinite(ref[-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError) as err:
            solve_conjugated(asm, None, v0, 1.0, dt=0.01)
    assert err.value.t == times[first]
    assert str(err.value).endswith(f"(step {first})")


# ----------------------------------------------------------------------
# solves
# ----------------------------------------------------------------------

def test_zero_data_gives_zero(small_setup):
    grid = small_setup["grid"]
    traj = solve_conjugated(small_setup["assembler"], None,
                            np.zeros(grid.N, dtype=complex), 0.5)
    assert all(grid.l2_norm(v) == 0.0 for v in traj.v_hats)


def test_unitary_flow_kdv(grid):
    kdv = model_problem("kdv-baseline", 0.75)
    p = _trivial_params(np.sqrt(1 + grid.L ** 2))
    g = synthetic_radius_field(grid, 0.7, 1.8)
    traj = solve_original(build_conjugator(ConjugationAssembler(kdv, p, grid)),
                          None, g, 1.0, rho=0.7)
    assert np.max(np.abs(traj.l2 / traj.l2[0] - 1.0)) < 1e-10


def test_solve_reads_theta_from_the_bundle(grid):
    # a theta = 1.6 bundle: the solve fits the radius and weighs the output
    # norm with the bundle's theta (read at 1.8, this data's fit is 0.84)
    kdv = model_problem("kdv-baseline", 0.75)
    _, details = select_parameters_detailed(kdv, 1.6, grid)
    g = synthetic_radius_field(grid, 0.7, 1.6)
    traj = solve_original(details["bundle"], None, g, 1.0, rho=0.7)
    assert traj.radius[0] == pytest.approx(0.7, abs=0.01)
    spec = GevreyNormSpec(0.0, traj.meta["rho_prime"], 1.6)
    assert traj.meta["hm_u"][-1] == pytest.approx(
        gevrey_norm(grid.forward(traj.u_fields[-1]), spec, grid), rel=1e-10)


def test_damped_solve_energy_log(small_setup):
    grid = small_setup["grid"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    traj = solve_original(small_setup["bundle"], None, g, 1.0, rho=0.7)
    # residuals non-positive by construction of the measured constant
    assert np.max(traj.energy_residual) <= 1e-12
    # pointwise bound with the measured growth rate
    assert traj.gronwall_C <= 1.0 + 1e-6
    # conjugation equivalence both ways at every logged time
    assert np.max(traj.equivalence_residual) < 1e-7


def test_energy_estimate_one_pass(small_setup, monkeypatch):
    # one trapezoid sum over the step times gives the constant of the
    # quadrature from t = 0 at every logged time, with one ||f||^2 per step
    # (gevrey_norm takes stacks: a call counts each field it measures)
    from gevrey_evolve import evolve
    grid = small_setup["grid"]
    rho, theta = 0.7, 1.8
    g = synthetic_radius_field(grid, rho, theta)
    f = lambda t: 0.5 * np.exp(-t) * g
    spec_in = GevreyNormSpec(0.0, rho, theta)
    norm, calls = evolve.gevrey_norm, []

    def counting(u, spec, grid):
        out = norm(u, spec, grid)
        calls.extend([spec] * np.size(out))
        return out

    monkeypatch.setattr(evolve, "gevrey_norm", counting)
    traj = solve_original(small_setup["bundle"], f, g, 0.5, rho=rho)
    monkeypatch.undo()
    steps, logged = traj.meta["steps"], len(traj.logged_times)
    assert logged > 10
    # ||g|| once and ||f(t_i)|| at every step time
    assert calls.count(spec_in) == steps + 2
    # plus an output norm per logged field
    assert len(calls) == steps + 2 + logged

    den0 = gevrey_norm(grid.forward(g), spec_in, grid) ** 2
    C = 0.0
    for idx, t in enumerate(traj.logged_times):
        ts = np.linspace(0.0, t, max(2, int(round(t / traj.meta["dt"])) + 1))
        fn = [gevrey_norm(grid.forward(f(s)), spec_in, grid) ** 2 for s in ts]
        C = max(C, traj.meta["hm_u"][idx] ** 2 / (den0 + np.trapezoid(fn, ts)))
    assert traj.meta["energy_estimate_C"] == pytest.approx(C, rel=1e-12, abs=0.0)


def _stage_calls(monkeypatch):
    """Record the times of each stages call, one list per call."""
    calls = []
    build = ConjugationAssembler.stages

    def counting(self, taus, out=None):
        calls.append(list(map(float, taus)))
        return build(self, taus, out)

    monkeypatch.setattr(ConjugationAssembler, "stages", counting)
    return calls


def _block_times(monkeypatch):
    """Record the step times of each block of a solve, one list per block:
    the times its integrating factors are formed for."""
    blocks, factors = [], evolve.integrating_factors

    def recording(p, grid, times):
        blocks.append(list(map(float, times)))
        return factors(p, grid, times)

    monkeypatch.setattr(evolve, "integrating_factors", recording)
    return blocks


def _stage_times(setup, T, dt, monkeypatch):
    """A forced solve's step count, the times its forcing is evaluated at
    and the times of each of its stages calls."""
    grid = setup["grid"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    taus = []

    def f(t):
        taus.append(float(t))
        return 0.5 * np.exp(-t) * g

    calls = _stage_calls(monkeypatch)
    traj = solve_original(setup["bundle"], f, g, T, dt=dt)
    return traj.meta["steps"], taus, calls


def test_forcing_conjugated_once_per_stage_time(small_setup, monkeypatch):
    # k2 and k3 share t + dt/2, and k4 shares t + dt with the energy log and
    # the next k1: no time's forcing reaches apply_full twice, the stages
    # are formed at those times, and on time-dependent coefficients
    # (time-modulated N=48/L=8) no stage time's coefficient stack is built
    # twice, though each batch forms its start stage again
    steps, taus, calls = _stage_times(small_setup, 0.5, None, monkeypatch)
    assert len(taus) == len(set(taus))
    # t = 0, every half step and every step end
    assert len(taus) == 2 * steps + 1
    assert set(sum(calls, [])) == set(taus)
    monkeypatch.undo()
    prob = model_problem("time-modulated", 0.75, domain=8.0)
    grid = make_grid(8.0, 48)
    _, details = select_parameters_detailed(prob, 1.8, grid)
    stacks, build = [], conjugate.spectral_stack

    def counting(grid, tables):
        stacks.append(len(tables))
        return build(grid, tables)

    monkeypatch.setattr(conjugate, "spectral_stack", counting)
    steps, taus, calls = _stage_times(
        {"grid": grid, "bundle": details["bundle"]}, 1.0, None, monkeypatch)
    assert len(taus) == len(set(taus)) == 2 * steps + 1
    assert steps == 32 and len(stacks) == 2 * steps + 1 == 65


def test_energy_estimate_calls_f_once_per_stage_time(small_setup,
                                                     monkeypatch):
    # the energy estimate reads ||f||^2 off the coefficients the solve forms
    # at the step times, which are stage times: f is called once per stage
    # time, and the constant equals, bit for bit, the one from f evaluated
    # and transformed again at every step time, grouped as the solve's
    # blocks group them (t = 0 alone, then each block's step ends)
    grid, bundle = small_setup["grid"], small_setup["bundle"]
    rho, theta = 0.7, 1.8
    g = synthetic_radius_field(grid, rho, theta)
    taus = []

    def f(t):
        taus.append(float(t))
        return 0.5 * np.exp(-t) * g

    blocks = _block_times(monkeypatch)
    traj = solve_original(bundle, f, g, 0.5, rho=rho)
    monkeypatch.undo()
    steps = traj.meta["steps"]
    assert len(taus) == len(set(taus)) == 2 * steps + 1

    spec_in = GevreyNormSpec(0.0, rho, theta)
    times = traj.times
    groups = [block[1:] for block in blocks]
    assert sum(map(len, groups)) == steps
    fn = np.concatenate([
        gevrey_norm(grid.forward([f(t) for t in group]), spec_in, grid)
        for group in [[0.0], *groups]]) ** 2
    den = np.full(times.size, gevrey_norm(grid.forward(g), spec_in, grid) ** 2)
    den[1:] += np.cumsum(0.5 * (fn[1:] + fn[:-1]) * np.diff(times))
    C = max(hm ** 2 / d for hm, d in
            zip(traj.meta["hm_u"], den[traj.meta["logged_indices"]]))
    assert traj.meta["energy_estimate_C"] == C


@pytest.fixture(scope="module")
def kdv256():
    """kdv-baseline at (L=40, N=256) with its selected weights."""
    prob = model_problem("kdv-baseline", 0.75, domain=40.0)
    grid = make_grid(40.0, 256)
    params, details = select_parameters_detailed(prob, 1.8, grid)
    return dict(problem=prob, grid=grid, params=params,
                bundle=details["bundle"])


def test_steps_end_on_the_logged_times(kdv256, monkeypatch):
    # forced kdv-baseline at N=256 with dt = 0.002: times[i] + dt misses
    # times[i+1] by an ulp at 22 of the 500 steps, so a step that ended at
    # t + dt would make those 22 times extra stage times
    steps, taus, calls = _stage_times(kdv256, 1.0, 0.002, monkeypatch)
    stage_taus = sum(calls, [])
    assert steps == 500
    # more than two blocks, one stages call each, and a last block shorter
    # than the others; each block forms its start again
    assert len(calls) > 2 and len(calls[-1]) < len(calls[0])
    assert len(taus) == len(set(taus)) == 2 * steps + 1
    assert len(set(stage_taus)) == 2 * steps + 1
    assert len(stage_taus) == 2 * steps + len(calls)


@pytest.mark.parametrize("case", ["time-modulated-64", "kdv-256"])
def test_block_length_follows_the_bytes_a_step_adds(
        case, modulated64_selection, kdv256, monkeypatch):
    # a block holds BLOCK_BYTES // step_bytes steps, all but the last, and
    # step_bytes reads only G: a time-modulated stage matrix is formed from
    # its own time's coefficient stack, which no block holds, so a block of
    # this N = 64 solve holds tens of steps, as a time-independent one
    # would; a kdv-baseline stage is a row, and a block at N = 256 holds
    # tens of steps, the last block shorter
    if case == "kdv-256":
        bundle, T, dt = kdv256["bundle"], 0.2, 0.002
    else:
        bundle, T, dt = modulated64_selection[3]["bundle"], 0.1, None
    grid = bundle.grid
    G = bundle.assembler.polynomial(0.0)[1]
    block = evolve.BLOCK_BYTES // step_bytes(G, False)
    blocks = _block_times(monkeypatch)
    traj = solve_original(bundle, None, synthetic_radius_field(grid, 0.7, 1.8),
                          T, dt=dt)
    steps = traj.meta["steps"]
    sizes = [len(b) - 1 for b in blocks]
    assert sizes == [min(block, steps - i) for i in range(0, steps, block)]
    assert max(sizes) > 8
    if case == "kdv-256":
        assert len(sizes) > 1
    else:
        assert G.ndim == 3


def test_radius_loss_bounded(small_setup):
    grid = small_setup["grid"]
    params = small_setup["params"]
    rho = 2 * params.k0
    g = synthetic_radius_field(grid, rho, params.theta)
    traj = solve_original(small_setup["bundle"], None, g, 1.0, rho=rho)
    kT = float(k_of_t(1.0, params))
    assert traj.radius[-1] >= kT - 0.05
    assert rho - traj.radius[-1] <= params.k0 + 0.05


def test_radius_precondition_enforced(small_setup):
    grid = small_setup["grid"]
    g = synthetic_radius_field(grid, 0.1, 1.8)   # much flatter than declared
    with pytest.raises(DataError):
        solve_original(small_setup["bundle"], None, g, 1.0, rho=0.7)
    g2 = synthetic_radius_field(grid, 0.3, 1.8)  # radius below k0
    with pytest.raises(DataError):
        solve_original(small_setup["bundle"], None, g2, 1.0, rho=0.3)
    with pytest.raises(DataError, match="identically zero"):
        solve_original(small_setup["bundle"], None, np.zeros(grid.N), 1.0,
                       rho=0.7)


def test_solve_refuses_a_horizon_past_its_certificate(small_setup):
    # the certificate and the calibrated C1/C2 cover [0, problem.T] = [0, 1]:
    # a longer horizon is refused by name, the certified ones still solve
    bundle, grid = small_setup["bundle"], small_setup["grid"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    with pytest.raises(ParameterError, match=r"T=3\.0 .*problem\.T=1\.0"):
        solve_original(bundle, None, g, 3.0, rho=0.7)
    for T in (0.5, 1.0):
        traj = solve_original(bundle, None, g, T, rho=0.7)
        assert traj.times[-1] == pytest.approx(T, abs=1e-12)
        assert traj.radius[-1] > 0.0


def test_explicit_dt_past_the_step_cap_is_refused_before_stepping(
        small_setup, monkeypatch):
    # dt = 1e-6 on [0, 1] is 10^6 steps, past MAX_STEPS: the explicit step
    # is refused as the automatic one is, before anything steps
    def no_step(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(evolve, "step", no_step)
    v0_hat = np.zeros(small_setup["grid"].N, dtype=complex)
    with pytest.raises(ParameterError, match=r"needs 1000000 steps.* 200000"):
        solve_conjugated(small_setup["assembler"], None, v0_hat, 1.0, dt=1e-6)


def test_time_modulated_problem_runs():
    # time-dependent coefficients take the per-stage rebuild path
    from gevrey_evolve.positivity import select_parameters_detailed
    prob = model_problem("time-modulated", 0.75, domain=10.0)
    grid = make_grid(10.0, 48)
    _, details = select_parameters_detailed(prob, 1.8, grid)
    g = synthetic_radius_field(grid, 0.7, 1.8)
    traj = solve_original(details["bundle"], None, g, 1.0, rho=0.7)
    assert np.all(np.isfinite(traj.l2))
    assert np.isfinite(traj.radius[-1])
    assert np.max(traj.equivalence_residual) < 1e-7


def test_uniqueness_probe_dt_refinement(small_setup):
    # identical data, different dt: terminal states agree at integrator order
    grid = small_setup["grid"]
    g = synthetic_radius_field(grid, 0.7, 1.8)
    finals = {}
    for div in (1, 2, 4):
        traj = solve_original(small_setup["bundle"], None, g, 0.5, rho=0.7,
                              dt=0.5 / (64 * div))
        finals[div] = traj.u_fields[-1]
    d1 = grid.l2_norm(finals[1] - finals[2])
    d2 = grid.l2_norm(finals[2] - finals[4])
    scale = grid.l2_norm(finals[4])
    assert d1 < 1e-3 * scale
    assert d1 / max(d2, 1e-300) > 2.5  # refining dt shrinks the gap


class _OriginalEquation:
    """The original equation's lower-order generator i (a2 + a1 + a0) at
    t = 0 as the five members solve_conjugated reads of a generator: grid,
    problem (a3, for the integrating factors), polynomial(0.0)'s G, stages
    and generator_sup.  Time-independent coefficients only, so G is one
    coefficient matrix and every stage equals it."""

    def __init__(self, problem, grid):
        self.problem, self.grid = problem, grid
        tab = sum((eval_table(s, grid, 0.0)
                   for s in (problem.a2, problem.a1, problem.a0)), 0.0) * 1j
        self._sup = float(np.max(np.abs(tab.values)))
        self._G = coefficient_matrix(grid, tab.values)[None]

    def polynomial(self, t):
        return (), self._G

    def stages(self, taus, out=None):
        return stage_matrices(np.ones((len(taus), 1)), self._G, out)

    def generator_sup(self):
        return self._sup


@pytest.mark.parametrize("name, L, N, tol", [
    ("kdv-baseline", 40.0, 256, 1e-13),
    ("complex-damped", 10.0, 64, 1e-4),
], ids=["kdv-256-free-flow", "damped-64-expm"])
def test_the_solve_steps_any_generator_with_its_five_members(name, L, N, tol):
    # the stepping loop runs the original equation, unmodified, from the
    # Gaussian data of data.kind = gaussian: kdv-baseline against its free
    # flow e^{-i xi^3 T} g_hat, complex-damped against the matrix
    # exponential of i (a3 + a2 + a1 + a0) on node values, on the full
    # band, in its default 32 steps
    grid = make_grid(L, N)
    problem = model_problem(name, 0.75, domain=L)
    g = np.exp(-(grid.x / 2.0) ** 2) + 0j
    traj = solve_conjugated(_OriginalEquation(problem, grid), None,
                            grid.forward(g), 1.0)
    assert traj.meta["steps"] == 32
    if name == "kdv-baseline":
        want = np.exp(-1j * grid.xi ** 3) * grid.forward(g)
        want[grid.nyquist] = 0.0
        got = traj.v_hats[-1]
    else:
        M = harness.model_problem_spatial_dense(problem, grid, 0.0)
        want, got = expm(-M) @ g, grid.inverse(traj.v_hats[-1])
    assert grid.l2_norm(got - want) <= tol * grid.l2_norm(want)
