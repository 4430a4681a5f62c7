import copy
import dataclasses

import numpy as np
import pytest

from gevrey_evolve import conjugate, positivity
from gevrey_evolve.conjugate import BLOCKS, MARGINS, ConjugationAssembler
from gevrey_evolve.errors import InfeasibleError
from gevrey_evolve.grid import make_grid
from gevrey_evolve.positivity import (C1_PARTS, C2_PARTS, M1_PARTS,
                                      calibrate_time_weight,
                                      discrete_garding, real_sum,
                                      select_parameters_detailed,
                                      verify_lower_bounds)
from gevrey_evolve.quantize import (SymbolTable, multiplier_table,
                                    sampled_table, table_from_function,
                                    xi_derivative)
from gevrey_evolve.symbols import (Symbol, eval_table, model_problem,
                                   sample_times)
from gevrey_evolve.weights import WeightParams, k_of_t, lambda_x_derivative

T_SAMPLES = np.linspace(0.0, 1.0, 5)


def test_selection_formula_m2(small_setup):
    det = small_setup["details"]
    params = small_setup["params"]
    margin = 0.08
    expect = 2.0 * (det["C_a2"] + margin) / det["C_a3"]
    assert params.M2 == pytest.approx(expect, rel=1e-12)


def test_selection_trivial_case():
    prob = model_problem("kdv-baseline", 0.75)
    grid = make_grid(20.0, 64)
    params, _ = select_parameters_detailed(prob, 1.8, grid)
    assert params.M2 == 0.0 and params.M1 == 0.0
    assert params.C1 == 0.0 and params.C2 == 0.0


def test_selected_parameters_pass_verifier(small_setup):
    rep = verify_lower_bounds(small_setup["assembler"], T_SAMPLES)
    assert rep.passed
    assert rep.min_margin("order2") > 0
    assert rep.min_margin("order1") > 0
    assert rep.min_margin("theta") >= -1e-8


def test_zero_m2_fails_with_witness(small_setup):
    params0 = dataclasses.replace(small_setup["params"], M2=0.0)
    rep = verify_lower_bounds(ConjugationAssembler(
        small_setup["problem"], params0, small_setup["grid"]), T_SAMPLES)
    assert not rep.passed
    rows = [r for r in rep.rows if r.bound == "order2"]
    worst = min(rows, key=lambda r: r.margin)
    assert worst.margin < -1e-3
    assert abs(worst.witness_xi) > params0.R_a3 * params0.h


def test_margin_monotone_in_m2(small_setup):
    prob, grid = small_setup["problem"], small_setup["grid"]
    base = small_setup["params"]
    margins = []
    for scale in (1.0, 1.25, 1.5):
        p = dataclasses.replace(base, M2=base.M2 * scale)
        asm = ConjugationAssembler(prob, p, grid)
        region = np.abs(grid.xi) > p.R_a3 * p.h
        region[grid.nyquist] = False
        re2 = real_sum(asm, MARGINS["order2"], 0.0)[:, region]
        margins.append(re2)
    assert np.all(margins[1] >= margins[0] - 1e-10)
    assert np.all(margins[2] >= margins[1] - 1e-10)


def test_pass_persists_at_doubled_h(large_setup):
    # once the margins pass at h*, they pass at 2 h* (checked where the
    # doubled region is still populated)
    prob, grid = large_setup["problem"], large_setup["grid"]
    h2 = large_setup["params"].h * 2.0
    region = np.abs(grid.xi) > large_setup["params"].R_a3 * h2
    assert np.any(region)
    params2, _ = select_parameters_detailed(prob, 1.8, grid, h_pin=h2)
    rep = verify_lower_bounds(ConjugationAssembler(prob, params2, grid),
                              T_SAMPLES)
    assert rep.passed


def test_infeasible_reports_failing_inequality():
    prob = model_problem("complex-damped", 0.75, strengths=(2.0, 1.0, 0.1),
                         domain=10.0)
    grid = make_grid(10.0, 64)
    with pytest.raises(InfeasibleError) as err:
        select_parameters_detailed(prob, 1.8, grid)
    assert "last failure" in str(err.value)
    # every trial names its h and its reason, not only the last one
    for h in (1, 2, 4, 8):
        assert f"h={h}: " in str(err.value)
    assert "spectral radius" in str(err.value)
    # one record per trial: the message is rendered from the history, whose
    # every row, the empty-region trial's included, has its h and reason
    history = err.value.history
    assert [row["h"] for row in history] == [1.0, 2.0, 4.0, 8.0]
    assert history[-1]["reason"].startswith("no frequencies beyond")
    for row in history:
        assert row["passed"] is False and row["reason"]
        assert f"h={row['h']:g}: {row['reason']}" in str(err.value)


def test_time_weight_rejection_builds_only_what_c2_reads(monkeypatch):
    # damped-64 rejects h = 1 by the time weight: C2 alone drives k(T) to
    # zero, so that trial forms M1's two tables a2cross and c (and their
    # recipe's ia2), the ia1 expansion (n = 3) with the two tails (and their
    # recipes' ia1, m2_main, m1_main) and the factors P_1, P_2, Q_1, Q_2,
    # and no order-2 expansion, no P_3, P_4, Q_3, Q_4 and no b1k or its
    # other spatial-stage inputs
    trials, expansions = [], []
    calibrate = positivity.calibrate_time_weight
    expand = conjugate.conjugation_expansion

    def capturing(assembler):
        trials.append(assembler)
        return calibrate(assembler)

    def counting(q, phase, n_trunc, *stop):
        expansions.append((len(trials), n_trunc))
        return expand(q, phase, n_trunc, *stop)

    monkeypatch.setattr(positivity, "calibrate_time_weight", capturing)
    monkeypatch.setattr(conjugate, "conjugation_expansion", counting)
    prob = model_problem("complex-damped", 0.75, domain=10.0)
    _, details = select_parameters_detailed(prob, 1.8, make_grid(10.0, 64))
    rows = details["history"]
    assert [row["h"] for row in rows] == [1.0, 2.0, 4.0]
    assert rows[0]["reason"].startswith("time weight k(t) reaches zero")
    assert rows[1]["reason"].startswith("order1 margin")
    # one expansion at n = 3 in the rejected trial, both in the others
    assert expansions == [(1, 3), (2, 3), (2, 5), (3, 3), (3, 5)]
    rejected = trials[0]
    assert len(rejected.phase._P) == len(rejected.phase._Q) == 2
    entry = rejected._entry(0.0)
    assert set(entry["poly"]) == {"ia2", "a2cross", "c", "ia1", "ia1_k",
                                  "m2_main", "m2_tail", "m1_main", "m1_tail"}
    assert not {"b1k", "id1", "damp1", "ia2_k"} & set(entry["poly"])
    # a trial that passes the early check builds b1k; both expansions
    # released the factors
    assert "b1k" in trials[1]._entry(0.0)["poly"]
    assert trials[1].phase._P is None


def _calibrated_in_full(assembler):
    """calibrate_time_weight without the early check on C2: each round
    reads all four tables at every sample time before k(T) is checked.
    The sums are read through block_sum, as the calibration reads them, so
    the verdicts compare bit for bit."""
    p, params, grid = assembler.problem, assembler.params, assembler.grid
    region = conjugate.checked_region(grid, params)
    norm_t = positivity._margin_normalizers(grid, params)["theta"][:, region]
    sup = lambda values: float(np.max(np.maximum(0.0, -values) / norm_t))
    polys = {}
    real = lambda names, t: positivity.block_sum(assembler, names, t, polys)
    C1, C2 = 0.0, 0.0
    for _ in range(positivity.FP_ROUNDS):
        params = params.with_ode_constants(C1, C2)
        k_of_t(p.T, params)
        assembler.params = params
        C1_new, C2_new = 0.0, 0.0
        for t in np.linspace(0.0, p.T, 5):
            kt = float(k_of_t(t, params))
            C1_new = max(C1_new, sup(real(("b1k",), t)) / kt)
            C2_new = max(C2_new, sup(real(("ia1_k", "m2_tail", "m1_tail"),
                                          t)))
        moved = (abs(C1_new - C1) > 0.01 * max(C1, 1e-12)
                 or abs(C2_new - C2) > 0.01 * max(C2, 1e-12))
        C1, C2 = C1_new, C2_new
        if not moved:
            break
    params = params.with_ode_constants(C1, C2)
    k_of_t(p.T, params)
    assembler.params = params
    return params


@pytest.mark.parametrize("strengths", [None, (2.0, 1.0, 0.1)])
def test_early_time_weight_check_keeps_every_verdict(strengths, monkeypatch):
    # the selection's history, accepted or not, and the InfeasibleError
    # message are those of a calibration without the early check
    kw = {} if strengths is None else {"strengths": strengths}
    prob = model_problem("complex-damped", 0.75, domain=10.0, **kw)
    grid = make_grid(10.0, 64)

    def select():
        try:
            return select_parameters_detailed(prob, 1.8, grid)[1]["history"], None
        except InfeasibleError as err:
            return err.history, str(err)

    got = select()
    monkeypatch.setattr(positivity, "calibrate_time_weight", _calibrated_in_full)
    assert got == select()
    assert any(row["reason"].startswith("time weight") for row in got[0]
               if not row["passed"])


def test_each_trial_forms_dxdxi_lambda2_once(monkeypatch):
    # d_x lam2 and d_xi d_x lam2 read M2 but not M1: each trial's assembler
    # forms d_x lam2 once, before M1 is installed, and C_a2l2 and the
    # generator read the same tables.  d_xi d_x lam2 equals bit for bit the
    # table formed at M1 = 0 from lambda_x_derivative and the xi-derivative
    # of the assembler's d_x lam2
    formed, weight_x = [], conjugate.weight_x_derivative

    def counting(win, params, which=2, order=1):
        if (which, order) == (2, 1):
            formed.append(params.M1)
        return weight_x(win, params, which, order)

    monkeypatch.setattr(conjugate, "weight_x_derivative", counting)
    prob = model_problem("complex-damped", 0.75, domain=10.0)
    grid = make_grid(10.0, 64)
    params, details = select_parameters_detailed(prob, 1.8, grid)
    monkeypatch.undo()
    assert formed == [0.0] * len(details["history"]) and len(formed) == 3
    phase = details["bundle"].assembler.phase
    at_m1_zero = xi_derivative(sampled_table(grid, lambda_x_derivative(
        grid.x[:, None], grid.xi[None, :], 0.0, prob,
        dataclasses.replace(params, M1=0.0), which=2, order=1)), 1)
    assert np.array_equal(phase.dxdxi_lam2.values, at_m1_zero.values)
    assert np.array_equal(phase.dxdxi_lam2.values,
                          xi_derivative(phase.lam2_x, 1).values)


def test_failed_positivity_builds_no_inverse(monkeypatch):
    # M2 = 0 leaves the order-2 block negative: the trial fails positivity
    # and must not pay for the conjugator's inverse
    from gevrey_evolve import positivity
    builds = []
    monkeypatch.setattr(positivity, "build_conjugator",
                        lambda *args, **kw: builds.append(args))
    prob = model_problem("complex-damped", 0.75, domain=10.0)
    with pytest.raises(InfeasibleError) as err:
        select_parameters_detailed(prob, 1.8, make_grid(10.0, 64),
                                   h_pin=2.0, M2_pin=0.0)
    assert "order2 margin" in str(err.value)
    assert builds == []


def test_calibrated_k_stays_positive(small_setup):
    params = small_setup["params"]
    assert float(k_of_t(1.0, params)) > 0.0
    # the calibrated constants close the balance: residual margin >= ~0
    rep = verify_lower_bounds(small_setup["assembler"], T_SAMPLES)
    assert rep.min_margin("theta") >= -1e-8


def _check_calibration_installs(prob, grid, accepted):
    """Calibrating a fresh assembler at the accepted M2, M1, h returns the
    accepted params and leaves the assembler holding them: its symbols and
    the certificate's tables are, bit for bit, those of a fresh assembler
    built with them."""
    asm = ConjugationAssembler(prob, accepted.with_ode_constants(0.0, 0.0),
                               grid)
    params = calibrate_time_weight(asm)
    assert params == accepted and params.C1 > 0.0
    assert asm.params == params
    got = asm.at(0.5)
    want = ConjugationAssembler(prob, params, grid).at(0.5)
    assert np.array_equal(got.a3_row, want.a3_row)
    assert got.parts.keys() == want.parts.keys()
    for name, tab in want.parts.items():
        assert np.array_equal(got.parts[name].values, tab.values), name
    fresh = ConjugationAssembler(prob, params, grid)
    for name in (n for names in MARGINS.values() for n in names):
        assert np.array_equal(asm.part(name, 0.5).values,
                              fresh.part(name, 0.5).values), name


def test_calibration_installs_constants_on_its_assembler(small_setup):
    # damped-64
    _check_calibration_installs(small_setup["problem"], small_setup["grid"],
                                small_setup["params"])


def test_calibration_installs_its_last_round():
    # time-modulated: C1 still moves in the last round, so the constants
    # the rounds measured with differ from the returned ones
    prob = model_problem("time-modulated", 0.75, domain=10.0)
    grid = make_grid(10.0, 48)
    accepted, _ = select_parameters_detailed(prob, 1.8, grid)
    _check_calibration_installs(prob, grid, accepted)


def _calibrated_by_at(assembler):
    """C1 and C2 measured from the sums of at(t).parts and the two tails,
    which at(t) does not hold, read from part(): the reference for
    calibration's reads of the same four tables.  Each sum must match
    block_sum's Horner sum of the same tables to 1e-13, and the constants
    are measured from block_sum's, so that they compare bit for bit."""
    p, params, grid = assembler.problem, assembler.params, assembler.grid
    region = conjugate.checked_region(grid, params)
    norm_t = positivity._margin_normalizers(grid, params)["theta"][:, region]
    sup = lambda values: float(np.max(np.maximum(0.0, -values) / norm_t))
    polys = {}

    def checked(names, by_at, t):
        got = positivity.block_sum(assembler, names, t, polys)
        want = by_at[:, region]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        return got

    C1, C2 = 0.0, 0.0
    for _ in range(positivity.FP_ROUNDS):
        params = params.with_ode_constants(C1, C2)
        assembler.params = params
        C1_new, C2_new = 0.0, 0.0
        for t in np.linspace(0.0, p.T, 5):
            parts = assembler.at(float(t)).parts
            tail = lambda name: assembler.part(name, float(t)).values.real
            kt = float(k_of_t(t, params))
            b1k = checked(("b1k",), parts["b1k"].values.real, t)
            rest = checked(("ia1_k", "m2_tail", "m1_tail"),
                           parts["ia1_k"].values.real + tail("m2_tail")
                           + tail("m1_tail"), t)
            C1_new = max(C1_new, sup(b1k) / kt)
            C2_new = max(C2_new, sup(rest))
        moved = (abs(C1_new - C1) > 0.01 * max(C1, 1e-12)
                 or abs(C2_new - C2) > 0.01 * max(C2, 1e-12))
        C1, C2 = C1_new, C2_new
        if not moved:
            break
    return C1, C2


@pytest.fixture(scope="module")
def modulated64(modulated64_selection):
    return modulated64_selection[:3]


def _selection(case, small_setup, modulated64_selection):
    """(problem, grid, params, details) of the selection of case."""
    if case == "damped-64":
        return tuple(small_setup[k]
                     for k in ("problem", "grid", "params", "details"))
    return modulated64_selection


@pytest.mark.parametrize("case", ["damped-64", "time-modulated-64"])
def test_selection_formula_m1(case, small_setup, modulated64_selection):
    # each trial's C_a2l2 and C_c, read through part() from its assembler
    # at M1 = 0, equal bit for bit the sups formed by hand from a2, its
    # Hermitian correction and d_xi d_x lam2 at M1 = 0, over the
    # coefficient times; M1 dominates them with the margin
    prob, grid, params, details = _selection(case, small_setup,
                                             modulated64_selection)
    times = sample_times(prob.T) if prob.time_dependent else [0.0]
    a2s = [eval_table(prob.a2, grid, float(t)) for t in times]
    c_reals = [conjugate._hermitian_half(a2.real, {}, "c").values.real
               for a2 in a2s]
    rows = details["history"]
    assert len(rows) >= 1
    for row in rows:
        trial = dataclasses.replace(params, h=row["h"], M1=0.0, C1=0.0,
                                    C2=0.0)
        norm1 = positivity._margin_normalizers(grid, trial)["order1"]
        dxdxi = xi_derivative(sampled_table(grid, lambda_x_derivative(
            grid.x[:, None], grid.xi[None, :], 0.0, prob, trial, which=2,
            order=1)), 1)
        C_a2l2 = max(float(np.max(np.abs((a2.values * dxdxi.values).real)
                                  / norm1)) for a2 in a2s)
        C_c = max(float(np.max(np.abs(c) / norm1)) for c in c_reals)
        assert (row["C_a2l2"], row["C_c"]) == (C_a2l2, C_c), row["h"]
        assert C_c > 0.0
        assert row["M1"] == 2.0 * (details["C_a1"] + C_a2l2 + C_c
                                   + 0.08) / details["C_a3"]
    assert params.M1 == rows[-1]["M1"]


@pytest.mark.parametrize("case", ["damped-64", "time-modulated-64"])
def test_accepted_assembler_equals_a_fresh_one(case, small_setup,
                                               modulated64_selection):
    # the accepted assembler, built at M1 = 0 and given M1, C1 and C2 on
    # the way, holds bit for bit the tables a fresh assembler builds at the
    # returned params
    prob, grid, params, details = _selection(case, small_setup,
                                             modulated64_selection)
    asm = details["bundle"].assembler
    fresh = ConjugationAssembler(prob, params, grid)
    assert asm.params == asm.phase.params == params
    assert np.array_equal(asm.phase.lam.values, fresh.phase.lam.values)
    names = {n for table in (BLOCKS, MARGINS) for names in table.values()
             for n in names}
    for t in (0.0, 0.5):
        for name in sorted(names):
            assert np.array_equal(asm.part(name, t).values,
                                  fresh.part(name, t).values), (name, t)


@pytest.mark.parametrize("case", ["damped-64", "time-modulated-64"])
def test_calibration_reads_parts_without_at(case, small_setup, modulated64,
                                            monkeypatch):
    # calibration reads b1k, ia1_k and the two tails through their block
    # polynomials and makes no at() call; its C1 and C2 equal, bit for bit,
    # those measured from the same sums, which match at(t).parts
    if case == "damped-64":
        prob, grid = small_setup["problem"], small_setup["grid"]
        accepted = small_setup["params"]
    else:
        prob, grid, accepted = modulated64
    start = accepted.with_ode_constants(0.0, 0.0)
    C1, C2 = _calibrated_by_at(ConjugationAssembler(prob, start, grid))
    calls, at = [], ConjugationAssembler.at
    monkeypatch.setattr(ConjugationAssembler, "at",
                        lambda self, t: calls.append(t) or at(self, t))
    params = calibrate_time_weight(ConjugationAssembler(prob, start, grid))
    assert calls == []
    assert (params.C1, params.C2) == (C1, C2) and C1 > 0.0
    assert params == accepted


def test_time_weight_constants_bound_the_theta_margin():
    # C1 and C2 bound every part of the 1/theta margin but kprime, each once
    assert sorted(("kprime", *C1_PARTS, *C2_PARTS)) == sorted(MARGINS["theta"])


def test_m1_dominates_parts_of_the_order1_margin():
    assert len(set(M1_PARTS)) == len(M1_PARTS) == 2
    assert set(M1_PARTS) <= set(MARGINS["order1"])


def _margins_by_hand(asm, t):
    """The three margins summed by hand from at(t).parts and the damping
    split, which at(t) does not hold, read through part(), as before
    MARGINS declared them, with c and e formed here from their inputs: e
    from b2k + ia2_k at t, cut where that sum stops at t = 0."""
    split = ("m2_main", "m2_tail", "m1_main", "m1_tail")
    p = dict(asm.at(t).parts, **{name: asm.part(name, t) for name in split})
    c = conjugate._hermitian_half(p["ia2"].imag, {}, "c")
    stops = {}
    conjugate._hermitian_half(asm.part("b2k", 0.0).imag
                              + asm.part("ia2_k", 0.0).imag, stops, "e")
    e = conjugate._hermitian_half(p["b2k"].imag + p["ia2_k"].imag, stops, "e")
    re2 = p["ia2"].real + p["m2_main"] + p["b2k"].real + p["ia2_k"].real
    re1 = (p["ia1"].real + p["m1_main"] + p["a2cross"].real + c.real
           + e.real)
    ret = (p["kprime"].real + p["b1k"].real + p["ia1_k"].real
           + p["m2_tail"] + p["m1_tail"])
    return {"order2": re2, "order1": re1, "theta": ret}


@pytest.mark.parametrize("case", ["damped-64", "damped-64-h2",
                                  "time-modulated-64"])
def test_margins_read_parts_without_at(case, small_setup, modulated64,
                                       monkeypatch):
    # each margin of MARGINS equals, bit for bit, its hand-written sum at
    # the sample times (the order-1 margin to 1e-13 of its largest
    # magnitude: e is a k-polynomial, summed in another order than its
    # hand-written form), and verify_lower_bounds reads the tables through
    # part() alone, with no at() call.  The window tails are 0 at the
    # accepted h = 4; damped-64's weights at h = 2 make both nonzero, and
    # fail the order-1 and 1/theta margins there
    if case.startswith("damped-64"):
        prob, grid = small_setup["problem"], small_setup["grid"]
        params = small_setup["params"]
    else:
        prob, grid, params = modulated64
    if case == "damped-64-h2":
        params = dataclasses.replace(params, h=2.0)
    ref = ConjugationAssembler(prob, params, grid)
    if case == "damped-64-h2":
        for name in ("m2_tail", "m1_tail"):
            assert np.max(np.abs(ref.part(name, 0.0).values)) > 0.0, name
    asm = ConjugationAssembler(prob, params, grid)
    for t in T_SAMPLES:
        want = _margins_by_hand(ref, float(t))
        assert want.keys() == MARGINS.keys()
        for name, table in want.items():
            got, want_real = real_sum(asm, MARGINS[name], t), table.values.real
            if name == "order1":
                scale = float(np.max(np.abs(want_real)))
                assert np.max(np.abs(got - want_real)) <= 1e-13 * scale, t
            else:
                assert np.array_equal(got, want_real), (name, t)
    calls, at = [], ConjugationAssembler.at
    monkeypatch.setattr(ConjugationAssembler, "at",
                        lambda self, t: calls.append(t) or at(self, t))
    report = verify_lower_bounds(ConjugationAssembler(prob, params, grid),
                                 T_SAMPLES)
    assert calls == []
    assert len(report.rows) == 3 * len(T_SAMPLES)
    assert report.passed == (case != "damped-64-h2")


@pytest.mark.parametrize("case", ["damped-64", "time-modulated-64"])
def test_each_recipe_runs_once_per_coefficient_time(case, small_setup,
                                                    modulated64, monkeypatch):
    # the certificate and the generator's view read one store: a2 is
    # sampled once per coefficient time, each recipe runs once per
    # coefficient time, for all the tables it forms (ia2 with a2cross, and
    # each damping's main part with its tail), and every later read of
    # one of them (c, b2k, b1k, ia2_k) finds it there
    if case == "damped-64":
        prob, grid = small_setup["problem"], small_setup["grid"]
        params, times = small_setup["params"], 1
    else:
        (prob, grid, params), times = modulated64, len(T_SAMPLES)
    calls, sample = [], conjugate.eval_table
    runs, recipe = [], ConjugationAssembler._spatial_recipe

    def counting(symbol, g, t):
        if symbol is prob.a2:
            calls.append(t)
        return sample(symbol, g, t)

    def recording(self, e, name):
        tables = recipe(self, e, name)
        runs.append((e["t"], tuple(tables)))
        return tables

    monkeypatch.setattr(conjugate, "eval_table", counting)
    monkeypatch.setattr(ConjugationAssembler, "_spatial_recipe", recording)
    asm = ConjugationAssembler(prob, params, grid)
    verify_lower_bounds(asm, T_SAMPLES)
    asm.at(0.0)
    assert len(calls) == times
    assert len(runs) == len(set(runs))
    for group in (("ia2", "a2cross"), ("m2_main", "m2_tail"),
                  ("m1_main", "m1_tail")):
        assert sum(tables == group for _, tables in runs) == times, group


def test_e_is_formed_once_per_coefficient_time(small_setup, monkeypatch):
    # e is a k-polynomial: one certificate over the sample times forms its
    # tables once at damped-64's one coefficient time, one per power of k,
    # after one decision of its stop on their sum at k(0), not once per
    # sample time (c, the other Hermitian half, is formed beforehand)
    prob, grid = small_setup["problem"], small_setup["grid"]
    tables = conjugate.CoefficientTables(prob, grid)
    tables.table("c", 0.0)
    asm = ConjugationAssembler(prob, small_setup["params"], grid, tables)
    calls, half = [], conjugate._hermitian_half
    monkeypatch.setattr(conjugate, "_hermitian_half", lambda im, stops, key:
                        calls.append(key) or half(im, stops, key))
    verify_lower_bounds(asm, T_SAMPLES)
    poly = asm._entry(0.0)["poly"]
    powers = {*poly["b2k"], *poly["ia2_k"]}
    assert calls == ["e"] * (1 + len(powers))
    assert powers == {0, 1, 2, 3, 4} and asm.stops["e"] == 1


def test_pinned_h_is_the_only_trial(small_setup):
    # damped-64's search fails h = 1 and 2 and accepts h = 4; a pinned h is
    # one trial, accepted or refused on its own
    prob, grid = small_setup["problem"], small_setup["grid"]
    assert [t["h"] for t in small_setup["details"]["history"]] == [1.0, 2.0, 4.0]
    params, details = select_parameters_detailed(prob, 1.8, grid, h_pin=4.0)
    assert params == small_setup["params"]
    assert [t["h"] for t in details["history"]] == [4.0]
    with pytest.raises(InfeasibleError) as err:
        select_parameters_detailed(prob, 1.8, grid, h_pin=2.0)
    assert str(err.value).startswith(
        "no admissible h in [2.0, 2.0]: last failure: h=2: ")


def test_garding_identity():
    grid = make_grid(10.0, 64)
    one = table_from_function(grid, lambda x, xi: 1.0 + 0 * x + 0 * xi)
    assert discrete_garding(one, grid) == pytest.approx(1.0, abs=1e-12)
    sq = multiplier_table(grid, grid.xi ** 2)
    assert discrete_garding(sq, grid) >= -1e-10


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_garding_floor_of_a_row_equals_the_dense_floor(n, sign):
    # kdv-baseline's 1/theta block is the one row -k'(0) <xi>_h^{1/theta}:
    # its floor, the row's minimum on the band, equals the dense
    # band-restricted eigenvalue of the same symbol as an N x N table.
    # With C1, C2 < 0 the row falls with |xi|, so its minimum over the
    # whole lattice lies outside the band and below the floor
    grid = make_grid(40.0, n)
    params = WeightParams(M2=0.0, M1=0.0, h=1.0, k0=0.35, sigma=0.75,
                          theta=1.8, C1=0.5 * sign, C2=0.3 * sign,
                          domain_cap=np.sqrt(1 + grid.L ** 2))
    asm = ConjugationAssembler(model_problem("kdv-baseline", 0.75), params,
                               grid)
    row = asm.at(0.0).block("theta").real
    assert row.values.shape == (1, n)
    tiled = SymbolTable(grid, np.repeat(row.values, n, axis=0))
    floor, dense = discrete_garding(row, grid), discrete_garding(tiled, grid)
    assert abs(floor - dense) <= 1e-12 * abs(dense)
    if sign < 0:
        assert np.min(row.values.real) < floor - 1e-3 * abs(floor)


def test_garding_floor_bounded_in_n():
    # nonnegative order-2 symbol: the band-restricted floor is N-stable
    floors = []
    for n in (64, 128, 256, 512):
        grid = make_grid(10.0, n)
        tab = table_from_function(
            grid, lambda x, xi: (1 + x ** 2) ** -0.375 * xi ** 2)
        floors.append(discrete_garding(tab, grid))
    assert all(f > -1.0 for f in floors)
    assert abs(floors[-1]) <= 2.0 * abs(floors[0]) + 1e-6


def test_report_csv_rows(small_setup):
    rep = verify_lower_bounds(small_setup["assembler"], [0.0, 0.5])
    lines = rep.csv_lines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "bound,t,margin,witness_x,witness_xi"
    assert len(lines) == 2 + 2 * 3  # two times, three bounds


def test_empty_region_reported(small_setup):
    params = dataclasses.replace(small_setup["params"], h=64.0)
    rep = verify_lower_bounds(ConjugationAssembler(
        small_setup["problem"], params, small_setup["grid"]), [0.0])
    assert not rep.passed
    assert "no grid frequencies" in rep.detail


def _tiled(tables):
    """Every table in a (nested) dict or list tiled to (N, N)."""
    if isinstance(tables, SymbolTable):
        N = tables.grid.N
        return SymbolTable(tables.grid, np.broadcast_to(tables.values, (N, N)))
    if isinstance(tables, dict):
        return {k: _tiled(v) for k, v in tables.items()}
    return tables


def test_row_tables_certify_like_their_tiled_twins():
    # x-independent a2 and a1 with nothing dominated: every table the
    # assembler caches is one row.  Tiling each to (N, N) changes no margin
    # and no witness of the certificate
    grid = make_grid(10.0, 64)
    flat = lambda c, order: Symbol(lambda t, x, xi: c * xi ** order + 0 * x,
                                   order=float(order))
    prob = dataclasses.replace(model_problem("kdv-baseline", 0.75),
                               a2=flat(0.05 + 0.05j, 2), a1=flat(0.04j, 1))
    params = WeightParams(M2=0.0, M1=0.0, h=1.0, k0=0.35, sigma=0.75,
                          theta=1.8, domain_cap=np.sqrt(101.0),
                          C1=0.5, C2=0.1)
    asm = ConjugationAssembler(prob, params, grid)
    rows = verify_lower_bounds(asm, T_SAMPLES).rows
    entry = asm._entry(0.0)
    tables = [U for poly in entry["poly"].values() for U in poly.values()]
    assert len(tables) > 10
    assert all(t.values.shape == (1, grid.N) for t in tables)
    assert np.any(entry["poly"]["ia2"][0].values)
    twin = copy.copy(asm)
    # the twin forms its block polynomials from the tiled tables
    twin._cache = {0.0: _tiled(entry)}
    assert twin.at(0.0).parts["ia2"].values.shape == (grid.N, grid.N)
    assert verify_lower_bounds(twin, T_SAMPLES).rows == rows


@pytest.mark.parametrize("name", ["complex-damped", "time-modulated"])
def test_trials_share_the_coefficient_tables(name, monkeypatch):
    # damped-64 and time-modulated N=64 try h = 1, 2 and 4.  The three
    # trials read one CoefficientTables: a2 is sampled once per coefficient
    # time (t = 0 alone for time-independent coefficients), and each trial
    # holds the same i a2, i a1 and c, equal at each time to a fresh sample.
    # The accepted trial's assembler holds no block polynomial: its entries
    # hold the coefficient time, a3's rows, the k-polynomials and the
    # generator only
    prob = model_problem(name, 0.75, domain=10.0)
    grid = make_grid(10.0, 64)
    sampled, trials = [], []
    sample, calibrate = conjugate.eval_table, positivity.calibrate_time_weight

    def counting(symbol, g, t):
        if symbol is prob.a2:
            sampled.append(t)
        return sample(symbol, g, t)

    monkeypatch.setattr(conjugate, "eval_table", counting)
    monkeypatch.setattr(positivity, "calibrate_time_weight",
                        lambda asm: trials.append(asm) or calibrate(asm))
    _, details = select_parameters_detailed(prob, 1.8, grid)
    monkeypatch.undo()
    assert [row["h"] for row in details["history"]] == [1.0, 2.0, 4.0]
    times = list(T_SAMPLES) if prob.time_dependent else [0.0]
    assert sampled == times
    tables = trials[0].tables
    assert all(trial.tables is tables for trial in trials)
    assert details["bundle"].assembler is trials[-1]
    assert all(entry.keys() <= {"t", "a3_row", "da3_row", "poly", "generator"}
               for entry in trials[-1]._cache.values())
    for t in times:
        ia2 = eval_table(prob.a2, grid, t) * 1j
        want = {"ia2": ia2, "ia1": eval_table(prob.a1, grid, t) * 1j,
                "c": conjugate._hermitian_half(ia2.imag, {}, "c")}
        for part, table in want.items():
            shared = tables.table(part, t)
            assert np.array_equal(shared.values, table.values), (part, t)
            for trial in trials:
                assert trial._entry(t)["poly"][part][0] is shared, (part, t)


def _block_case(case, small_setup, modulated64):
    """A fresh assembler of case and a second one, for the reference."""
    if case.startswith("damped-64"):
        prob, grid = small_setup["problem"], small_setup["grid"]
        params = small_setup["params"]
        if case == "damped-64-h2":
            params = dataclasses.replace(params, h=2.0)
    elif case == "time-modulated-64":
        prob, grid, params = modulated64
    else:
        # nothing to dominate: M2 = M1 = 0 at h = 1, with C1 and C2 set so
        # that the 1/theta margin is not zero
        prob = model_problem("kdv-baseline", 0.75, domain=10.0)
        grid = make_grid(10.0, 64)
        params = select_parameters_detailed(prob, 1.8, grid)[0]
        params = params.with_ode_constants(0.5, 0.1)
    return (ConjugationAssembler(prob, params, grid),
            ConjugationAssembler(prob, params, grid))


@pytest.mark.parametrize("case", ["damped-64", "damped-64-h2",
                                  "time-modulated-64", "kdv-baseline-64"])
def test_block_sums_match_real_sum(case, small_setup, modulated64):
    # each margin and the calibration's C1 and C2 sums, from the block
    # polynomials by Horner at k(t), match real_sum on the checked region
    # to 1e-13 of their largest magnitude at every sample time (kdv-baseline
    # has only the 1/theta margin: the others are exact zeros).  Sums of
    # one-row tables (kdv-baseline) stay rows; the polynomials are kept in
    # the caller's dict, one per coefficient time and names
    asm, ref = _block_case(case, small_setup, modulated64)
    grid = asm.grid
    region = conjugate.checked_region(grid, asm.params)
    sums = {**MARGINS, "C1": C1_PARTS, "C2": C2_PARTS}
    polys = {}
    for t in T_SAMPLES:
        for name, names in sums.items():
            got = positivity.block_sum(asm, names, t, polys)
            want = real_sum(ref, names, t)[:, region]
            scale = float(np.max(np.abs(want)))
            assert scale > 0.0 or (case == "kdv-baseline-64"
                                   and name != "theta"), (name, t)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (name, t)
            poly = polys[asm.problem.coefficient_times(t)[0], names]
            again = positivity.block_sum(asm, names, t, polys)
            assert polys[asm.problem.coefficient_times(t)[0], names] is poly
            assert np.array_equal(again, got)
            rows = 1 if case == "kdv-baseline-64" else grid.N
            assert poly.shape[1:] == (rows, region.sum())
            assert got.shape == want.shape


def test_c2_jumps_at_theta_two_where_ia1_k_loses_an_order():
    # complex-damped at sigma = 0.8 (theta_sup = 2.5), N = 128, L = 20:
    # theta does not enter the equation, but truncation_order(1, theta)
    # keeps 3 orders of the ia1_k expansion below theta = 2 and 2 above.
    # C2 is fitted to the negative part of ia1_k + m2_tail + m1_tail, so
    # the dropped third order takes C2 from 4.79e-5 to rounding, at the
    # same h, and both certificates pass
    prob = model_problem("complex-damped", 0.8, domain=20.0)
    grid = make_grid(20.0, 128)
    fits = {theta: select_parameters_detailed(prob, theta, grid)
            for theta in (1.99, 2.01)}
    assert [conjugate.truncation_order(1.0, theta) for theta in fits] == [3, 2]
    for params, details in fits.values():
        assert params.h == 4.0 and details["report"].passed
    assert fits[1.99][0].C2 == pytest.approx(4.788e-5, rel=1e-3)
    assert abs(fits[2.01][0].C2) < 1e-17
