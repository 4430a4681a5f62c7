import dataclasses

import numpy as np
import pytest

from gevrey_evolve.conjugate import ConjugationAssembler
from gevrey_evolve.errors import InfeasibleError
from gevrey_evolve.grid import make_grid
from gevrey_evolve.positivity import (discrete_garding, select_parameters,
                                      select_parameters_detailed,
                                      verify_lower_bounds)
from gevrey_evolve.quantize import multiplier_table, table_from_function
from gevrey_evolve.symbols import model_problem
from gevrey_evolve.weights import k_of_t

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
    params = select_parameters(prob, 1.8, grid)
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
        cs = ConjugationAssembler(prob, p, grid).at(0.0)
        region = np.abs(grid.xi) > p.R_a3 * p.h
        region[grid.nyquist] = False
        re2 = cs.margin_tables()["order2"].values.real[:, region]
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
    params2, _ = select_parameters_detailed(prob, 1.8, grid, h_start=h2, h_max=h2)
    rep = verify_lower_bounds(ConjugationAssembler(prob, params2, grid),
                              T_SAMPLES)
    assert rep.passed


def test_infeasible_reports_failing_inequality():
    prob = model_problem("complex-damped", 0.75, strengths=(2.0, 1.0, 0.1),
                         domain=10.0)
    grid = make_grid(10.0, 64)
    with pytest.raises(InfeasibleError) as err:
        select_parameters(prob, 1.8, grid)
    assert "last failure" in str(err.value)


def test_calibrated_k_stays_positive(small_setup):
    params = small_setup["params"]
    assert float(k_of_t(1.0, params)) > 0.0
    # the calibrated constants close the balance: residual margin >= ~0
    rep = verify_lower_bounds(small_setup["assembler"], T_SAMPLES)
    assert rep.min_margin("theta") >= -1e-8


def test_garding_identity():
    grid = make_grid(10.0, 64)
    one = table_from_function(grid, lambda x, xi: 1.0 + 0 * x + 0 * xi)
    assert discrete_garding(one, grid) == pytest.approx(1.0, abs=1e-12)
    sq = multiplier_table(grid, grid.xi ** 2)
    assert discrete_garding(sq, grid) >= -1e-10


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
