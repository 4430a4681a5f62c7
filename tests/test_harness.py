import ast
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gevrey_evolve import (conjugate, harness, make_grid, positivity,
                           quantize, serialize)
from gevrey_evolve.conjugate import ConjugationAssembler, build_conjugator
from gevrey_evolve.errors import ConfigurationError, ReleasedError
from gevrey_evolve.grid import Grid
from gevrey_evolve.harness import (EXIT_CONFIG, EXIT_INFEASIBLE,
                                   EXIT_INSTABILITY, EXIT_OK, RunConfig,
                                   error_category, main, oracle_suite,
                                   require_output_dir, run_pipeline,
                                   sweep_pipeline)
from gevrey_evolve.quantize import node_matrix
from gevrey_evolve.symbols import check_assumptions, model_problem, theta_sup

SMALL = "grid.L = 10\ngrid.N = 64\n"
REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "reference")


def test_config_defaults_and_parse():
    cfg = RunConfig.from_text("grid.N = 128\n# comment\nproblem.c2 = 0.05\n")
    assert cfg["grid.N"] == 128
    assert cfg["problem.c2"] == 0.05
    assert cfg["weights.M2"] == "auto"
    cfg.validate()


def test_config_unknown_key():
    with pytest.raises(ConfigurationError) as err:
        RunConfig.from_text("grid.M = 12\n")
    assert "grid.M" in str(err.value)


def test_config_unknown_problem():
    cfg = RunConfig.from_text("problem.id = mystery\n")
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    assert "kdv-baseline" in str(err.value)


def test_config_theta_boundary_cites_range():
    # theta at the open upper end of the admissible range is a config error
    cfg = RunConfig.from_text("gevrey.theta = 2.0\n")  # 1/(2(1-0.75)) = 2
    with pytest.raises(ConfigurationError) as err:
        cfg.validate()
    msg = str(err.value)
    assert "admissible" in msg and "[1.5, 2)" in msg


def _verdicts(sigma, theta):
    """Whether the config (s0 = 1.5, N = 64, L = 10), the theta-range row
    of check_assumptions and WeightParams each accept (sigma, theta)."""
    from gevrey_evolve.weights import WeightParams
    out = []
    try:
        RunConfig.from_text(f"{SMALL}problem.sigma = {sigma!r}\n"
                            f"gevrey.theta = {theta!r}\n").validate()
        out.append(True)
    except ConfigurationError:
        out.append(False)
    problem = model_problem("complex-damped", sigma, domain=10.0)
    rep = check_assumptions(problem, make_grid(10.0, 64), theta)
    out.append(rep.results[0].passed)
    try:
        WeightParams(M2=0.1, M1=0.1, h=4.0, k0=0.35, sigma=sigma, theta=theta)
        out.append(True)
    except ConfigurationError:
        out.append(False)
    return out


@pytest.mark.parametrize("sigma, theta", [
    (0.7113436105988292, 1.7321632860345477),
    *((s, float(np.nextafter(theta_sup(s), 0.0)))
      for s in np.linspace(0.7, 0.8, 7).tolist()),
    (0.75, 2.0), (0.75, 1.5), (0.75, float(np.nextafter(1.5, 0.0)))])
def test_every_entry_point_gives_one_theta_verdict(sigma, theta):
    # the config, the theta-range row and WeightParams read one rule: at
    # the last ulp below theta_sup the 2(1-sigma) < 1/theta form refused
    # what the other two accepted; below s0 WeightParams, which has no s0,
    # still accepts
    config, row, params = _verdicts(sigma, theta)
    assert config == row
    if theta >= 1.5:
        assert params == config


def test_config_with_s0_below_the_default_validates():
    # sigma = 0.6 admits s0 and theta below 1.25 only: the config's s0, not
    # model_problem's default 1.5, is the one checked
    RunConfig.from_text("problem.sigma = 0.6\nproblem.s0 = 1.2\n"
                        "gevrey.theta = 1.2\n").validate()


def test_resolved_config_is_replayable(tmp_path):
    cfg = RunConfig.from_text(SMALL + "output.dir = %s\n" % tmp_path)
    traj, art = run_pipeline(cfg, out_dir=str(tmp_path / "auto"))
    text = (tmp_path / "auto" / "resolved.cfg").read_text()
    replay = RunConfig.from_text(text)
    assert replay["weights.M2"] != "auto"
    assert replay["weights.h"] == art["params"].h
    assert replay["run.dt"] == traj.meta["dt"]
    # replaying the fully explicit config reproduces the run byte-for-byte;
    # its one pinned trial repeats the accepted one, so report.txt's Garding
    # floors and conjugator diagnostics match too
    run_pipeline(replay, out_dir=str(tmp_path / "replay"))
    for name in ("trajectory.csv", "positivity.csv", "report.txt"):
        assert (tmp_path / "auto" / name).read_bytes() \
            == (tmp_path / "replay" / name).read_bytes()


def test_run_artifacts(tmp_path, monkeypatch):
    # a library run keeps its host's allocator: only main sets the policy
    calls = []
    monkeypatch.setattr(harness, "reuse_freed_memory",
                        lambda: calls.append(True))
    cfg = RunConfig.from_text(SMALL)
    run_pipeline(cfg, out_dir=str(tmp_path))
    assert calls == []
    for name in ("trajectory.csv", "positivity.csv", "report.txt", "resolved.cfg"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "t,l2,hm_rho_theta,radius_fit,energy_residual"


EXPLICIT = SMALL + "weights.M2 = 0.12\nweights.M1 = 0.12\nweights.h = 4\n"
TRIVIAL = SMALL + "problem.id = kdv-baseline\n"


def _benchmark_workloads():
    """perfbench/run.py's WORKLOADS, read off its source text."""
    with open(os.path.join(REFERENCE, os.pardir, "run.py")) as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WORKLOADS"])


@pytest.mark.parametrize("workload", ["damped-64", "damped-256",
                                      "kdv-forced-256"])
def test_run_outputs_match_the_benchmark_reference(workload):
    # each benchmark workload publishes the weights and trajectory.csv
    # columns the benchmark's stored reference holds, by the benchmark's
    # rule: to 100 inverse_tol, relative to |reference| for a weight and to
    # the column's largest |value| for a column; NaN where the reference
    # is null
    with open(os.path.join(REFERENCE, f"{workload}.json")) as fh:
        ref = json.load(fh)
    text = _benchmark_workloads()[workload]
    traj, art = run_pipeline(RunConfig.from_text(text), write=False)
    rtol = 100.0 * art["resolved"]["tolerances.inverse_tol"]
    assert art["positivity"].passed == ref["positivity_passed"]
    for name, want in ref["params"].items():
        got = getattr(art["params"], name)
        assert abs(got - want) <= rtol * abs(want), (name, got, want)
    lines = [ln for ln in serialize.trajectory_csv_lines(traj)
             if not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    for col, want in ref["trajectory"].items():
        got = [float(row[header.index(col)]) for row in rows]
        assert len(got) == len(want), col
        scale = max(abs(w) for w in want if w is not None)
        for i, (g, w) in enumerate(zip(got, want)):
            assert (math.isnan(g) if w is None
                    else abs(g - w) <= rtol * scale), (col, i, g, w)


def test_run_builds_each_setup_object_once(monkeypatch):
    from gevrey_evolve import conjugate, harness, positivity, symbols
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append(name)
            return out
        return wrapper

    build = counting("build", conjugate.build_conjugator)
    check = counting("check", symbols.check_assumptions)
    for module in (conjugate, positivity, harness):
        monkeypatch.setattr(module, "build_conjugator", build)
    for module in (symbols, positivity, harness):
        monkeypatch.setattr(module, "check_assumptions", check)
    for name in ("verify_lower_bounds", "discrete_garding"):
        monkeypatch.setattr(positivity, name,
                            counting(name, getattr(positivity, name)))
    monkeypatch.setattr(conjugate.ConjugationAssembler, "__init__",
                        counting("assembler", conjugate.ConjugationAssembler.__init__))
    monkeypatch.setattr(harness, "resolve_weights",
                        counting("resolved", harness.resolve_weights))
    for text in (SMALL, EXPLICIT, TRIVIAL):
        calls.clear()
        _, art = run_pipeline(RunConfig.from_text(text), write=False)
        assert calls.count("check") == 1
        done = calls.index("resolved")
        # one conjugator, for the accepted trial (fixed and trivial weights
        # are one pinned trial): a trial that fails builds no inverse
        assert calls[:done].count("build") == 1
        # one assembler (and its phase tables) per selection trial
        history = art["details"]["history"]
        assert calls[:done].count("assembler") == len(history)
        assert "build" not in calls[done:] and "assembler" not in calls[done:]
        # one certificate per checked trial, and the run publishes the
        # accepted trial's instead of checking again
        assert calls[:done].count("verify_lower_bounds") \
            == sum("margins" in trial for trial in history)
        assert "verify_lower_bounds" not in calls[done:]
        assert art["positivity"] is art["details"]["report"]
        # Garding floors of the three blocks, once, since N <= 256
        assert calls.count("discrete_garding") == 3
        # the time multipliers and the generator read C1/C2, so the reused
        # bundle and its assembler must carry them
        assert art["bundle"].params == art["params"]
        assert art["bundle"].assembler.params == art["params"]
    # on the trivial branch the tables vanish, so calibration measures zero
    assert art["params"].C1 == 0.0 and art["params"].C2 == 0.0


def test_row_tables_where_the_symbol_is_x_independent(monkeypatch):
    # with nothing to dominate every table of the setup is x-independent,
    # so every derivative the setup takes is of one row (x-derivatives are
    # exact zero rows, no FFT); the damped tables depend on x and stay N x N
    from gevrey_evolve import conjugate, quantize
    from gevrey_evolve.harness import setup_pipeline
    shapes = []

    def recording(fn):
        def wrapper(p, *args, **kwargs):
            shapes.append(p.values.shape)
            return fn(p, *args, **kwargs)
        return wrapper

    for name in ("x_derivative", "dx_operators", "xi_derivative"):
        wrapper = recording(getattr(quantize, name))
        for module in (quantize, conjugate):
            monkeypatch.setattr(module, name, wrapper)
    asm = setup_pipeline(RunConfig.from_text(TRIVIAL))["bundle"].assembler
    assert len(shapes) > 10 and set(shapes) == {(1, 64)}
    assert asm.at(0.0).generator_table().values.shape == (1, 64)
    shapes.clear()
    asm = setup_pipeline(RunConfig.from_text(SMALL))["bundle"].assembler
    assert (64, 64) in shapes
    assert asm.phase.lam.values.shape == (64, 64)
    assert asm.at(0.0).generator_table().values.shape == (64, 64)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_explicit_weights_failing_positivity_are_infeasible(tmp_path, capsys,
                                                            command):
    # M2 = 0 leaves the order-2 block negative: the one pinned trial fails
    # its certificate, so nothing is solved on that conjugator
    cfg = tmp_path / "m2_zero.cfg"
    cfg.write_text(SMALL + "weights.M2 = 0\nweights.M1 = 0.12\nweights.h = 4\n"
                   + f"output.dir = {tmp_path / 'out'}\n")
    assert main([command, str(cfg)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "order2 margin" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out" / "trajectory.csv").exists()


# damped N=256/L=40 with the weights selection resolves for it: at h = 4
# the conjugator E has condition number about 5, but its remainder R has
# spectral radius 0.67, so the Neumann series needs 64 terms
L40_PINNED = ("grid.L = 40\ngrid.N = 256\nweights.M2 = 0.1061441225579437\n"
              "weights.M1 = 0.10854158781781673\nweights.h = 4\n")


def test_well_conditioned_conjugator_is_accepted_at_l40(tmp_path, monkeypatch):
    # run exits 0 at h = 4, and its pulled-back inverse is the dense one;
    # the run released its assembler's tables, so the dense inverse is
    # built on a fresh assembler of the same problem, params and grid
    from gevrey_evolve import harness
    runs = []

    def recording(*args, **kwargs):
        runs.append(run_pipeline(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(harness, "run_pipeline", recording)
    cfg = tmp_path / "l40.cfg"
    cfg.write_text(L40_PINNED + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == EXIT_OK
    bundle = runs[0][1]["bundle"]
    assert bundle.residual <= 1e-8 and bundle.spectral_radius < 1.0
    fresh = ConjugationAssembler(bundle.problem, bundle.params, bundle.grid)
    dense = node_matrix(bundle.grid, build_conjugator(fresh,
                                                      mode="dense").E_inv)
    gap = np.linalg.norm(node_matrix(bundle.grid, bundle.E_inv) - dense, 2)
    assert gap <= 1e-9 * np.linalg.norm(dense, 2)


def test_run_releases_the_tables_its_solve_does_not_read(modulated64_selection):
    # a run keeps its generator's coefficient stack and drops every other
    # table: a later read raises ReleasedError, and nothing is re-formed
    _, art = run_pipeline(RunConfig.from_text(SMALL), write=False)
    asm = art["bundle"].assembler
    reads = (lambda: asm.part("ia2", 0.0), lambda: asm.phase.lam,
             lambda: asm.block_polynomial(("ia2",), 0.0),
             lambda: build_conjugator(asm))
    for read in reads:
        with pytest.raises(ReleasedError):
            read()
    assert len(asm.stages(np.array([0.25, 0.5]))) == 2
    # time-dependent coefficients keep every table
    modulated = modulated64_selection[3]["bundle"].assembler
    modulated.release_tables()
    assert modulated.part("ia2", 0.0).values.shape == (64, 64)


def test_default_step_after_a_run_reads_the_kept_sup():
    # damped-64: once a run has released the tables, a solve with dt
    # omitted takes the run's step from the sup release_tables kept, and
    # repeats the run bit for bit
    from gevrey_evolve.evolve import solve_original
    from gevrey_evolve.harness import build_data
    cfg = RunConfig.from_text(SMALL)
    traj, art = run_pipeline(cfg, write=False)
    bundle = art["bundle"]
    g, f, rho = build_data(cfg, bundle.grid)
    again = solve_original(bundle, f, g, bundle.problem.T, rho=rho)
    assert again.meta["dt"] == traj.meta["dt"]
    assert np.array_equal(again.l2, traj.l2)


def test_snapshots_roundtrip(tmp_path):
    from gevrey_evolve.serialize import read_fields
    cfg = RunConfig.from_text(SMALL + "output.snapshots = true\n")
    traj, _ = run_pipeline(cfg, out_dir=str(tmp_path))
    times, fields = read_fields(tmp_path / "snapshots.bin")
    assert np.allclose(times, traj.logged_times)
    assert np.array_equal(fields[-1], traj.u_fields[-1])


def test_sweep_axis_validation():
    cfg = RunConfig.from_text(SMALL)
    with pytest.raises(ConfigurationError):
        sweep_pipeline(cfg, "bogus", [1.0], write=False)


def test_sweep_rows_ordered_and_inline_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("GEVREY_EVOLVE_THREADS", "2")
    cfg = RunConfig.from_text("grid.L = 10\ngrid.N = 48\n")
    rows, lines = sweep_pipeline(cfg, "theta", ["1.7", "2.0"], write=False)
    assert [r["value"] for r in rows] == [1.7, 2.0]
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "config"      # theta at the open boundary
    assert lines[0] == "# schema=3"


def test_sweep_csv_keeps_a_failed_rows_message(tmp_path):
    # the error column is the last, CSV-quoted: the message holds a comma
    import csv
    cfg = RunConfig.from_text("grid.L = 10\ngrid.N = 48\n")
    rows, _ = sweep_pipeline(cfg, "N", ["7"], out_dir=str(tmp_path))
    with open(tmp_path / "sweep.csv", newline="") as fh:
        schema, header, row = csv.reader(fh)
    assert schema == ["# schema=3"] and header[-1] == "error"
    assert dict(zip(header, row))["status"] == "config"
    assert row[-1] == rows[0]["error"] == "grid.N must be even and >= 8, got 7"


def test_oracle_suite_passes():
    ok, lines = oracle_suite(RunConfig.from_text(SMALL))
    assert ok, "\n".join(lines)
    assert lines[0] == "oracle grid: N=64 L=10"


def _scaled_bundle(name):
    """A build_conjugator whose bundle has E or E_inv off by 1e-5."""
    def build(*args, **kwargs):
        bundle = build_conjugator(*args, **kwargs)
        setattr(bundle, name, getattr(bundle, name) * (1.0 + 1e-5))
        return bundle
    return build


def _inverse_without_phase(grid, u_hat):
    return np.fft.ifft(grid.check_field(u_hat), norm="ortho")


def _forward_unnormalized(grid, u):
    return grid._phase * np.fft.fft(grid.check_field(u))


def _inverse_unnormalized(grid, u_hat):
    return np.fft.ifft(grid.check_field(u_hat) / grid._phase)


def _transposed(coefficient_matrix):
    return lambda grid, values, out=None: coefficient_matrix(
        grid, np.transpose(values), out)


def _without_ia2(spatial_table):
    # the line reads 3.4e-3 at tol 1e-2: without ia2 it reads 1.8e-2, but
    # without a2cross, damp2 or any other part it stays below 3.7e-3
    return lambda cs: spatial_table(cs) - cs.parts["ia2"]


# each oracle line, and a fault in the run code it reads: (owner, attribute,
# replacement); positivity.build_conjugator builds the bundle a run solves
# with, and quantize.coefficient_matrix is the kernel of the run's stacks
_ORACLE_FAULTS = {
    "transform-roundtrip": [(Grid, "inverse", _inverse_without_phase)],
    # a pair that still inverts but is not unitary
    "parseval": [(Grid, "forward", _forward_unnormalized),
                 (Grid, "inverse", _inverse_unnormalized)],
    "coefficient-matrix-vs-dense": [(quantize, "coefficient_matrix",
                                     _transposed(quantize.coefficient_matrix))],
    "conjugator-residual": [(positivity, "build_conjugator",
                             _scaled_bundle("E"))],
    "neumann-vs-dense": [(positivity, "build_conjugator",
                          _scaled_bundle("E_inv"))],
    "conjugated-assembly": [(conjugate.ConjugatedSymbols, "spatial_table",
                             _without_ia2(
                                 conjugate.ConjugatedSymbols.spatial_table))],
}


@pytest.mark.parametrize("line", list(_ORACLE_FAULTS))
def test_each_oracle_line_can_fail(monkeypatch, line):
    # one fault in the run code a line reads turns that line to FAIL and
    # the suite to failed, on the config test_oracle_suite_passes passes
    for owner, name, fault in _ORACLE_FAULTS[line]:
        monkeypatch.setattr(owner, name, fault)
    ok, lines = oracle_suite(RunConfig.from_text(SMALL))
    assert not ok
    assert [ln for ln in lines if f"] {line}: " in ln][0].startswith("[FAIL]"), \
        "\n".join(lines)


class _Checked(Exception):
    pass


def test_oracle_problem_is_rolled_off_inside_the_oracle_box(monkeypatch):
    # the oracle checks the config's own box (grid.N capped at
    # ORACLE_N_MAX): the problem it checks has its coefficients rolled off
    # before that box's seam
    seen = {}

    def checked(problem, grid, theta):
        seen.update(problem=problem, grid=grid)
        raise _Checked

    monkeypatch.setattr(harness, "check_assumptions", checked)
    monkeypatch.setattr(harness, "ORACLE_N_MAX", 64)
    cfg = RunConfig.from_text("grid.L = 20\ngrid.N = 96\n")
    with pytest.raises(_Checked):
        oracle_suite(cfg)
    problem, grid = seen["problem"], seen["grid"]
    assert (grid.N, grid.L) == (64, 20.0)
    x, xi = grid.x[:, None], grid.xi[None, :]
    for sym in (problem.a2, problem.a1, problem.a0):
        vals = np.abs(np.broadcast_to(sym(0.0, x, xi), (grid.N, grid.N)))
        assert vals.max() > 0.0
        assert not vals[np.abs(grid.x) >= 0.9 * grid.L].any()


def test_kdv_run_produces_flat_l2(tmp_path):
    cfg = RunConfig.from_text(
        "problem.id = kdv-baseline\ngrid.L = 20\ngrid.N = 96\n")
    run_pipeline(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
    l2 = np.array([float(row.split(",")[1]) for row in lines])
    assert np.max(np.abs(l2 / l2[0] - 1.0)) <= 1e-10


def test_library_tables_quantize_consistently():
    from gevrey_evolve import eval_table, to_dense
    from gevrey_evolve.quantize import coefficient_matrix
    grid = make_grid(10.0, 64)
    prob = model_problem("complex-damped", 0.75, domain=10.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    for sym in (prob.a2, prob.a1, prob.a0):
        tab = eval_table(sym, grid, 0.3)
        C = coefficient_matrix(grid, tab.values)
        err = np.linalg.norm(to_dense(tab) @ u
                             - grid.inverse(C @ grid.forward(u)))
        assert err < 1e-12 * np.linalg.norm(u)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gevrey.theta = 2.0\n")
    assert main(["verify", str(bad)]) == EXIT_CONFIG
    # an unreadable config file is a config error with a one-line message
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "missing.cfg" in err and len(err.strip().splitlines()) == 1
    # so is a config file that does not parse
    for i, line in enumerate(("no.such_key = 1", "grid.N = abc", "grid.N 64")):
        unparsable = tmp_path / f"unparsable{i}.cfg"
        unparsable.write_text(SMALL + line + "\n")
        assert main(["verify", str(unparsable)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error (config): ")
        assert len(err.strip().splitlines()) == 1
    good = tmp_path / "good.cfg"
    good.write_text(SMALL + f"output.dir = {tmp_path/'out'}\n")
    assert main(["verify", str(good)]) == EXIT_OK
    infeasible = tmp_path / "inf.cfg"
    infeasible.write_text(SMALL + "problem.c2 = 2.5\n")
    assert main(["verify", str(infeasible)]) == EXIT_INFEASIBLE


def test_error_category_totality():
    from gevrey_evolve import errors
    cats = set()
    for name in dir(errors):
        cls = getattr(errors, name)
        if isinstance(cls, type) and issubclass(cls, errors.GevreyEvolveError) \
                and cls is not errors.GevreyEvolveError:
            exc = cls("x", **{errors.InstabilityError: {"t": 0.0},
                              errors.InfeasibleError: {"history": []}}.get(cls, {}))
            cat, code = error_category(exc)
            assert cat in ("config", "infeasible-parameters", "instability")
            cats.add(cat)
    assert cats == {"config", "infeasible-parameters", "instability"}


@pytest.mark.parametrize("key, value", [
    ("run.dt", "0"), ("run.dt", "-0.01"), ("run.dt", "nan"), ("run.dt", "inf"),
    ("problem.T", "0"), ("problem.T", "-1"), ("problem.T", "nan"),
    ("problem.T", "inf"), ("gevrey.rho", "-3"), ("data.rho", "nan"),
    ("tolerances.inverse_tol", "-1"), ("tolerances.series_tol", "nan"),
    ("tolerances.garding_tol", "-1"), ("weights.h", "nan"),
    ("weights.h", "0.5"), ("weights.M2", "inf"), ("weights.k0", "nan"),
    ("select.margin", "-1"), ("grid.L", "inf"), ("grid.N", "100000000"),
    *[(f"problem.{c}", bad) for c in ("c2", "c1", "c0")
      for bad in ("nan", "inf", "-inf")],
    ("gevrey.m", "nan"), *[("forcing.amplitude", bad)
                           for bad in ("nan", "inf", "-inf")],
    ("data.width", "0"), ("data.width", "nan")])
def test_solve_inputs_must_be_finite_and_positive(tmp_path, capsys, key, value):
    # gaussian data reads data.width; a bad value is refused all the same
    text = SMALL + f"data.kind = gaussian\n{key} = {value}\n"
    with pytest.raises(ConfigurationError) as err:
        RunConfig.from_text(text).validate()
    assert key in str(err.value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    for command in ("run", "verify"):
        assert main([command, str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error (config): ") and key in err
        assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_mode_data_off_the_lattice_is_a_config_error(tmp_path, capsys):
    # exp(i m x) is periodic on [-L, L) only when m L / pi is an integer:
    # at L = 10 mode 1 jumps at the seam and is refused in one line naming
    # data.mode, grid.L and the nearest lattice mode 3 pi / L; at L = 3 pi
    # it is the lattice mode xi = 1, whose spectrum is one coefficient: a
    # trigonometric polynomial, which has every radius, so the run fits
    # none to it, exits 0 and logs radius_fit nan at t = 0
    cfg = tmp_path / "mode.cfg"
    cfg.write_text(SMALL + "data.kind = mode\ndata.mode = 1\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    for command in ("run", "verify"):
        assert main([command, str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error (config): ")
        assert len(err.strip().splitlines()) == 1
        for name in ("data.mode = 1", "grid.L = 10.0",
                     "nearest lattice mode is 3 pi / grid.L = 0.942478"):
            assert name in err
    assert not (tmp_path / "out").exists()
    L = 3.0 * np.pi
    text = f"grid.L = {L!r}\ngrid.N = 64\ndata.kind = mode\ndata.mode = 1\n"
    good = RunConfig.from_text(text)
    good.validate()
    grid = make_grid(L, 64)
    spectrum = np.abs(grid.forward(harness.build_data(good, grid)[0]))
    assert np.argmax(spectrum) == 3
    assert np.sort(spectrum)[-2] < 1e-12 * spectrum[3]
    cfg.write_text(text + f"output.dir = {tmp_path / 'lattice'}\n")
    assert main(["run", str(cfg)]) == 0
    rows = (tmp_path / "lattice" / "trajectory.csv").read_text().splitlines()
    assert rows[1] == "t,l2,hm_rho_theta,radius_fit,energy_residual"
    assert rows[2].split(",")[0] == "0.0"
    assert rows[2].split(",")[3] == "nan"
    # data.mode is read only by mode data
    RunConfig.from_text(SMALL + "data.kind = gaussian\n").validate()


def test_mode_hint_pastes_back(tmp_path, capsys):
    # the lattice-mode error ends in the nearest lattice mode as a config
    # line, in full precision: pasted back, it validates and runs
    base = SMALL + f"data.kind = mode\noutput.dir = {tmp_path}\n"
    cfg = tmp_path / "mode.cfg"
    cfg.write_text(base + "data.mode = 1\n")
    assert main(["verify", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip()
    assert "nearest lattice mode is 3 pi / grid.L = 0.942478" in err
    hint = err.rpartition("(")[2].rstrip(")")
    assert hint == "data.mode = 0.9424777960769379"
    cfg.write_text(base + hint + "\n")
    RunConfig.from_file(str(cfg)).validate()
    assert main(["run", str(cfg)]) == EXIT_OK
    assert "data.mode = 0.9424777960769379" in (
        tmp_path / "resolved.cfg").read_text().splitlines()


# every key whose default is a number or "auto", with the values each must
# refuse: nan, inf and -inf, a strict bound itself and a value below any
# bound; a key added to _DEFAULTS or _BOUNDS is covered without an edit here
_NUMERIC_KEYS = [k for k, d in harness._DEFAULTS.items()
                 if d == "auto" or not isinstance(d, (str, bool))]
_REFUSED = [(k, bad) for k in _NUMERIC_KEYS for bad in ("nan", "inf", "-inf")]
_REFUSED += [(k, repr(low - 1)) for k, (low, _) in harness._BOUNDS.items()]
_REFUSED += [(k, repr(low)) for k, (low, strict) in harness._BOUNDS.items()
             if strict]


@pytest.mark.parametrize("key, value", _REFUSED)
def test_every_number_is_finite_and_clears_its_bound(tmp_path, capsys, key,
                                                     value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL + f"{key} = {value}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["verify", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and key in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_oracle_refuses_a_negative_seed(tmp_path, capsys):
    # seed = -1 would reach numpy's default_rng, which raises ValueError
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(SMALL + "seed = -1\n")
    assert main(["oracle", str(cfg), "--out", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): seed ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_explicit_dt_past_the_step_cap_is_a_config_error(tmp_path, capsys):
    # run.dt = 1e-6 on T = 1 is 10^6 steps, past evolve.MAX_STEPS: refused
    # by validate with one line naming run.dt, the step count and the cap
    text = "grid.L = 5\ngrid.N = 40\nrun.dt = 1e-6\n"
    with pytest.raises(ConfigurationError,
                       match=r"run\.dt = 1e-06 needs 1000000 steps.* 200000"):
        RunConfig.from_text(text).validate()
    cfg = tmp_path / "tiny_dt.cfg"
    cfg.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["verify", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): run.dt = ")
    assert len(err.strip().splitlines()) == 1


def test_module_runs_the_command_line(tmp_path):
    # python3 -m gevrey_evolve runs harness.main once: an odd grid.N is a
    # config error with one stderr line, and runpy has nothing to warn of
    cfg = tmp_path / "odd.cfg"
    cfg.write_text(f"grid.N = 7\noutput.dir = {tmp_path / 'out'}\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gevrey_evolve", "verify",
                           str(cfg)], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_CONFIG
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error (config): grid.N must be even")
    assert len(proc.stderr.strip().splitlines()) == 1


# one `run` through main in a fresh interpreter, since the allocator policy
# holds for the rest of a process once main sets it; prints the list of what
# each reuse_freed_memory call returned
_POLICY_RUN = """
import ctypes, sys
from gevrey_evolve import harness
mode, cfg, out = sys.argv[1:]
if mode == "stubbed":
    harness.reuse_freed_memory = lambda: None
elif mode == "no-libc":
    def no_libc(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")
    ctypes.CDLL = no_libc
helper, calls = harness.reuse_freed_memory, []
harness.reuse_freed_memory = lambda: calls.append(helper())
code = harness.main(["run", cfg, "--out", out])
print(calls)
sys.exit(code)
"""


def test_allocator_policy_changes_no_output(tmp_path):
    # main sets the policy once where the C library is glibc; a run with
    # the policy, one with the helper stubbed out and one whose libc
    # lookup fails all exit 0 and write the same bytes
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    glibc = platform.libc_ver()[0] == "glibc"
    digests = {}
    for mode, calls in (("policy", [glibc]), ("stubbed", [None]),
                        ("no-libc", [False])):
        out = tmp_path / mode
        proc = subprocess.run([sys.executable, "-c", _POLICY_RUN, mode,
                               str(cfg), str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(calls)
        digests[mode] = [hashlib.md5((out / name).read_bytes()).hexdigest()
                         for name in ("trajectory.csv", "positivity.csv",
                                      "report.txt")]
    assert digests["policy"] == digests["stubbed"] == digests["no-libc"]


def test_run_into_an_existing_file_names_the_write(tmp_path, capsys):
    # output.dir is a file: the write fails and is reported as a write,
    # naming the path, not as a failed read of the config
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + f"output.dir = {blocker}\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error (config): cannot write {blocker}: File exists\n"


def test_oracle_out_below_a_file_names_the_write(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(SMALL)
    out = blocker / "sub"
    assert main(["oracle", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.endswith(f"error (config): cannot write {out}: "
                        "Not a directory\n")
    assert "cannot read" not in err


@pytest.mark.parametrize("command", ["run", "verify", "sweep", "oracle"])
def test_unwritable_output_is_refused_before_selection(tmp_path, capsys,
                                                       monkeypatch, command):
    # each command checks the path it will write right after the config:
    # an output.dir that is a file, or an --out below one, ends the command
    # with the late write's message, and selection never runs
    def selection(*args, **kwargs):
        raise AssertionError("selection ran before the output check")

    monkeypatch.setattr(harness, "resolve_weights", selection)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = tmp_path / "c.cfg"
    if command in ("run", "verify"):
        cfg.write_text(SMALL + f"output.dir = {blocker}\n")
        argv, want = [command, str(cfg)], f"{blocker}: File exists"
    else:
        cfg.write_text(SMALL)
        out = blocker / "sub"
        argv = [command, str(cfg), "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "h", "--values", "4"]
        want = f"{out}: Not a directory"
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error (config): cannot write {want}\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["blocker", "c.cfg"]


def test_output_check_raises_what_makedirs_raises(tmp_path):
    # the early check names the path and the error the late os.makedirs
    # would, and creates nothing
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for path in (blocker, blocker / "a", blocker / "a" / "b"):
        with pytest.raises(OSError) as late:
            os.makedirs(str(path), exist_ok=True)
        with pytest.raises(OSError) as early:
            require_output_dir(str(path))
        assert type(early.value) is type(late.value)
        assert early.value.errno == late.value.errno
        assert early.value.filename == late.value.filename
    require_output_dir(str(tmp_path))
    require_output_dir(str(tmp_path / "a" / "b"))
    assert sorted(os.listdir(tmp_path)) == ["blocker"]


@pytest.mark.parametrize("axis, values, bad", [("h", "1,abc", "abc"),
                                               ("N", "40.5", "40.5")])
def test_sweep_values_that_do_not_parse_are_a_config_error(
        tmp_path, capsys, axis, values, bad):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["sweep", str(cfg), "--axis", axis, "--values", values]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error (config): sweep axis {axis}: cannot parse ")
    assert err.rstrip().endswith(f" value {bad!r}")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [",", ""])
def test_empty_sweep_is_a_config_error(tmp_path, capsys, values):
    # a value list with no entries runs no row: it is refused before the
    # output directory is made, and no header-only sweep.csv is written
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["sweep", str(cfg), "--axis", "h", "--values", values]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): sweep --values lists no value")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values, pos", [("4,,8", "entry 2 of 3"),
                                         ("4,8,", "entry 3 of 3"),
                                         (",4", "entry 1 of 2")])
def test_empty_sweep_entry_is_a_config_error(tmp_path, capsys, values, pos):
    # an empty entry is a typo, not a value to skip: the sweep is refused
    # with exit 2 and one line naming --values and the entry's position,
    # before the output directory is made and before any row runs
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL + f"output.dir = {tmp_path / 'out'}\n")
    assert main(["sweep", str(cfg), "--axis", "h", "--values", values]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): sweep --values lists no value")
    assert pos in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_coefficient_strengths_may_be_negative():
    RunConfig.from_text(
        SMALL + "problem.c2 = -0.1\nproblem.c1 = -0.2\nproblem.c0 = -3\n").validate()


def test_dense_working_set_at_n1024_fits():
    # N = 1024 needs about 1.3 GiB of dense tables: accepted on a machine
    # with a few GiB of memory, while N = 100000000 is refused above
    # before anything is allocated
    RunConfig.from_text(SMALL + "grid.N = 1024\n").validate()


def test_time_dependent_working_set_is_budgeted(tmp_path, capsys,
                                                monkeypatch):
    # time-modulated keeps the tables of several coefficient times, so on a
    # machine reporting 128 MiB its N = 256 is refused (exit 2, naming
    # grid.N) while complex-damped at the same N is accepted; nothing large
    # is allocated, since the refusal comes from the reported memory alone
    from gevrey_evolve import harness
    monkeypatch.setattr(harness, "_physical_memory", lambda: 128 * 2 ** 20)
    text = "grid.L = 20\ngrid.N = 256\n"
    RunConfig.from_text(text).validate()
    cfg = tmp_path / "modulated.cfg"
    cfg.write_text(text + "problem.id = time-modulated\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and "grid.N = 256" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap", ["abc", "0", "-2"])
def test_thread_cap_must_be_an_integer(cap, tmp_path, capsys, monkeypatch):
    # a thread cap that is no positive integer is a config error with one
    # stderr line, not a pool of one worker
    monkeypatch.setenv("GEVREY_EVOLVE_THREADS", cap)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SMALL)
    assert main(["sweep", str(cfg), "--axis", "h", "--values", "4"]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("error (config): GEVREY_EVOLVE_THREADS must be a positive "
                   f"integer, got {cap!r}\n")


# grid.N = 8 on L = 40 resolves no frequency beyond R_a3, yet validates
NO_BAND = "grid.L = 40\ngrid.N = 8\n"


@pytest.mark.parametrize("command", ["run", "verify", "oracle"])
@pytest.mark.parametrize("weights", [
    "", "weights.M2 = 0.12\nweights.M1 = 0.12\nweights.h = 4\n"],
    ids=["auto", "explicit"])
def test_empty_leading_band_is_a_config_error(tmp_path, capsys, command, weights):
    cfg = tmp_path / "no_band.cfg"
    cfg.write_text(NO_BAND + weights + f"output.dir = {tmp_path / 'out'}\n")
    RunConfig.from_file(cfg).validate()
    assert main([command, str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "hyp-i-leading" in err and "grid.N" in err
    assert not (tmp_path / "out").exists()


_BAD = ["0", "-1", "nan", "inf", "-inf", "1e308", "auto", "abc", ""]


@st.composite
def _number(draw, lo, hi):
    """Value texts: mostly a float in [lo, hi], sometimes a bad input."""
    if draw(st.integers(1, 6)) == 3:
        return draw(st.sampled_from(_BAD))
    return repr(draw(st.floats(lo, hi)))


# valid ranges that keep the admissible theta range [s0, 1/(2(1-sigma)))
# nonempty, so that many texts reach selection
_VALUES = {
    "problem.id": st.sampled_from(["kdv-baseline", "complex-damped",
                                   "time-modulated", "mystery"]),
    "problem.sigma": _number(0.7, 0.8),
    "problem.s0": _number(1.2, 1.6),
    "gevrey.theta": _number(1.6, 1.66),
    "problem.c2": _number(-0.2, 0.2),
    "problem.c1": _number(-0.2, 0.2),
    "problem.c0": _number(-0.2, 0.2),
    "problem.T": _number(0.1, 2.0),
    "gevrey.m": _number(0.0, 2.0),
    "gevrey.rho": _number(0.3, 1.5),
    "weights.M2": _number(0.0, 0.5),
    "weights.M1": _number(0.0, 0.5),
    "weights.h": _number(1.0, 16.0),
    "weights.k0": _number(0.05, 0.6),
    "select.margin": _number(0.01, 0.2),
    "run.dt": _number(1e-3, 0.1),
    "data.kind": st.sampled_from(["gevrey", "gaussian", "mode", "other"]),
    "data.rho": _number(0.3, 1.5),
    "forcing.amplitude": _number(-1.0, 1.0),
    "tolerances.inverse_tol": _number(1e-12, 1e-6),
    "tolerances.series_tol": _number(1e-12, 1e-6),
    "tolerances.garding_tol": _number(1e-12, 1e-6),
}


@st.composite
def _small_config_texts(draw):
    """Config texts on grids of at most 48 points: grid.N and grid.L are
    always set, since a grid that resolves no frequency beyond R_a3 = 2
    (the default L = 20 at N <= 48) stops every text at the same check."""
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True,
                         max_size=6))
    lines = [f"{k} = {draw(_VALUES[k])}" for k in keys]
    lines.append("grid.L = " + draw(_number(2.0, 5.0)))
    bad_n = draw(st.integers(1, 6)) == 3
    lines.append("grid.N = " + (
        draw(st.sampled_from(["0", "7", "-8", "nan", "24.5"])) if bad_n
        else str(2 * draw(st.integers(8, 24)))))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_small_config_texts())
def test_config_texts_end_in_documented_codes(text):
    # whatever the text, validate raises at most a ConfigurationError and
    # verify returns 0, 2, 3 or 4 without raising
    try:
        RunConfig.from_text(text).validate()
    except ConfigurationError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "random.cfg")
        with open(path, "w") as fh:
            fh.write(text + f"output.dir = {os.path.join(tmp, 'out')}\n")
        code = main(["verify", path])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INSTABILITY)
