import numpy as np
import pytest

from gevrey_evolve.errors import ConfigurationError
from gevrey_evolve.harness import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK,
                                   RunConfig, error_category, main,
                                   oracle_suite, run_pipeline, sweep_pipeline)

SMALL = "grid.L = 10\ngrid.N = 64\n"


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


def test_resolved_config_is_replayable(tmp_path):
    cfg = RunConfig.from_text(SMALL + "output.dir = %s\n" % tmp_path)
    traj, art = run_pipeline(cfg, out_dir=str(tmp_path / "auto"))
    text = (tmp_path / "auto" / "resolved.cfg").read_text()
    replay = RunConfig.from_text(text)
    assert replay["weights.M2"] != "auto"
    assert replay["weights.h"] == art["params"].h
    assert replay["run.dt"] == traj.meta["dt"]
    # replaying the fully explicit config reproduces the run byte-for-byte
    run_pipeline(replay, out_dir=str(tmp_path / "replay"))
    for name in ("trajectory.csv", "positivity.csv"):
        assert (tmp_path / "auto" / name).read_bytes() \
            == (tmp_path / "replay" / name).read_bytes()


def test_run_artifacts(tmp_path):
    cfg = RunConfig.from_text(SMALL)
    run_pipeline(cfg, out_dir=str(tmp_path))
    for name in ("trajectory.csv", "positivity.csv", "report.txt", "resolved.cfg"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "t,l2,hm_rho_theta,radius_fit,energy_residual"


EXPLICIT = SMALL + "weights.M2 = 0.12\nweights.M1 = 0.12\nweights.h = 4\n"
TRIVIAL = SMALL + "problem.id = kdv-baseline\n"


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
    monkeypatch.setattr(conjugate.ConjugationAssembler, "__init__",
                        counting("assembler", conjugate.ConjugationAssembler.__init__))
    monkeypatch.setattr(harness, "resolve_weights",
                        counting("resolved", harness.resolve_weights))
    for text in (SMALL, EXPLICIT, TRIVIAL):
        calls.clear()
        _, art = run_pipeline(RunConfig.from_text(text), write=False)
        assert calls.count("check") == 1
        done = calls.index("resolved")
        builds = calls[:done].count("build")
        # one conjugator per selection trial, or one for fixed or trivial weights
        assert builds == (len(art["details"].get("history", [])) or 1)
        # each conjugator brings its one assembler
        assert calls[:done].count("assembler") == builds
        assert "build" not in calls[done:] and "assembler" not in calls[done:]
        # the time multipliers and the generator read C1/C2, so the reused
        # bundle and its assembler must carry them
        assert art["bundle"].params == art["params"]
        assert art["bundle"].assembler.params == art["params"]
    # on the trivial branch the tables vanish, so calibration measures zero
    assert art["params"].C1 == 0.0 and art["params"].C2 == 0.0


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
    assert lines[0] == "# schema=1"


def test_oracle_suite_passes():
    ok, lines = oracle_suite(RunConfig.from_text(SMALL))
    assert ok, "\n".join(lines)


def test_kdv_run_produces_flat_l2(tmp_path):
    cfg = RunConfig.from_text(
        "problem.id = kdv-baseline\ngrid.L = 20\ngrid.N = 96\n")
    run_pipeline(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
    l2 = np.array([float(row.split(",")[1]) for row in lines])
    assert np.max(np.abs(l2 / l2[0] - 1.0)) <= 1e-10


def test_library_tables_quantize_consistently():
    from gevrey_evolve import apply, eval_table, make_grid, model_problem, to_dense
    grid = make_grid(10.0, 64)
    prob = model_problem("complex-damped", 0.75, domain=10.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(grid.N) + 1j * rng.standard_normal(grid.N)
    for sym in (prob.a2, prob.a1, prob.a0):
        tab = eval_table(sym, grid, 0.3)
        err = np.linalg.norm(to_dense(tab) @ u - apply(tab, u))
        assert err < 1e-12 * np.linalg.norm(u)


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gevrey.theta = 2.0\n")
    assert main(["verify", str(bad)]) == EXIT_CONFIG
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
            exc = cls("x") if cls is not errors.InstabilityError else cls("x", t=0.0)
            cat, code = error_category(exc)
            assert cat in ("config", "infeasible-parameters", "instability")
            cats.add(cat)
    assert cats == {"config", "infeasible-parameters", "instability"}


# grid.N = 8 on L = 40 resolves no frequency beyond R_a3, yet validates
NO_BAND = "grid.L = 40\ngrid.N = 8\n"


@pytest.mark.parametrize("command", ["run", "verify"])
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
