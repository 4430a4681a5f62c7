"""Configuration, experiment orchestration, and the command-line interface.

Configs are flat dotted-key text files (``grid.N = 256``); every "auto"
field is resolved before the run and echoed back out, so a finished run can
be replayed from its ``resolved.cfg`` byte-for-byte.

Commands:

* ``run <config>``     end-to-end pipeline, writes report + CSV artifacts
* ``verify <config>``  assumption + positivity reports only, no solve
* ``sweep <config> --axis h --values 1,2,4``  one row per value
* ``oracle <config>``  dense-oracle consistency suite at small N

Exit categories: 0 ok, 2 config, 3 infeasible-parameters, 4 instability,
1 oracle-suite failure.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .conjugate import build_conjugator
from .errors import (ConfigurationError, ConvergenceError, DataError,
                     EvaluationError, GevreyEvolveError, InfeasibleError,
                     InstabilityError, ParameterError, ShapeError)
from .evolve import solve_original, synthetic_radius_field
from .grid import make_grid
from .positivity import (N_T_SAMPLES, build_calibrated_conjugator,
                         select_parameters_detailed, verify_lower_bounds)
from .symbols import MODEL_PROBLEM_IDS, check_assumptions, model_problem
from .weights import WeightParams

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INSTABILITY = 4

_CATEGORY = {
    ConfigurationError: ("config", EXIT_CONFIG),
    DataError: ("config", EXIT_CONFIG),
    ShapeError: ("config", EXIT_CONFIG),
    EvaluationError: ("config", EXIT_CONFIG),
    InfeasibleError: ("infeasible-parameters", EXIT_INFEASIBLE),
    ParameterError: ("infeasible-parameters", EXIT_INFEASIBLE),
    ConvergenceError: ("infeasible-parameters", EXIT_INFEASIBLE),
    InstabilityError: ("instability", EXIT_INSTABILITY),
}


def error_category(exc):
    for cls, cat in _CATEGORY.items():
        if isinstance(exc, cls):
            return cat
    return ("config", EXIT_CONFIG) if isinstance(exc, GevreyEvolveError) else (None, None)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

_DEFAULTS = {
    "problem.id": "complex-damped",
    "problem.sigma": 0.75,
    "problem.s0": 1.5,
    "problem.c2": 0.08,
    "problem.c1": 0.04,
    "problem.c0": 0.04,
    "problem.T": 1.0,
    "grid.L": 20.0,
    "grid.N": 256,
    "gevrey.m": 0.0,
    "gevrey.rho": 0.7,
    "gevrey.theta": 1.8,
    "weights.M2": "auto",
    "weights.M1": "auto",
    "weights.h": "auto",
    "weights.k0": 0.35,
    "select.margin": 0.08,
    "run.dt": "auto",
    "data.kind": "gevrey",
    "data.rho": "auto",          # defaults to gevrey.rho
    "data.width": 2.0,
    "data.mode": 1,
    "forcing.amplitude": 0.0,
    "tolerances.inverse_tol": 1e-8,
    "tolerances.series_tol": 1e-10,
    "tolerances.garding_tol": 1e-8,
    "output.dir": "out",
    "output.snapshots": False,
    "seed": 0,
}

_INT_KEYS = {"grid.N", "data.mode", "seed"}
_BOOL_KEYS = {"output.snapshots"}
_STR_KEYS = {"problem.id", "data.kind", "output.dir"}
_AUTO_KEYS = {"weights.M2", "weights.M1", "weights.h", "run.dt", "data.rho"}


def parse_config_text(text):
    """Flat dotted-key parser: `key = value`, '#' comments, blank lines."""
    values = dict(_DEFAULTS)
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _DEFAULTS:
            raise ConfigurationError(
                f"line {ln}: unknown key {key!r} (known: {', '.join(sorted(_DEFAULTS))})")
        values[key] = _coerce(key, val, ln)
    return values


def _coerce(key, val, ln=0):
    if key in _STR_KEYS:
        return val
    if key in _BOOL_KEYS:
        if val.lower() in ("true", "1", "yes"):
            return True
        if val.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"line {ln}: {key} expects true/false, got {val!r}")
    if key in _AUTO_KEYS and val == "auto":
        return "auto"
    try:
        return int(val) if key in _INT_KEYS else float(val)
    except ValueError:
        raise ConfigurationError(f"line {ln}: cannot parse {key} value {val!r}")


@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls(parse_config_text(fh.read()))

    @classmethod
    def from_text(cls, text):
        return cls(parse_config_text(text))

    def __getitem__(self, key):
        return self.values[key]

    def with_overrides(self, **pairs):
        vals = dict(self.values)
        for k, v in pairs.items():
            vals[k] = v
        return RunConfig(vals)

    def validate(self):
        v = self.values
        if v["problem.id"] not in MODEL_PROBLEM_IDS:
            raise ConfigurationError(
                f"unknown problem id {v['problem.id']!r}; known: "
                + ", ".join(MODEL_PROBLEM_IDS))
        sigma, s0, theta = v["problem.sigma"], v["problem.s0"], v["gevrey.theta"]
        if not (0.5 < sigma < 1.0):
            raise ConfigurationError(f"problem.sigma must lie in (1/2, 1), got {sigma}")
        sup = 1.0 / (2.0 * (1.0 - sigma))
        if not (1.0 < s0 < sup):
            raise ConfigurationError(
                f"problem.s0 must lie in (1, {sup:.6g}), got {s0}")
        if not (s0 <= theta < sup):
            raise ConfigurationError(
                f"gevrey.theta must lie in the admissible range [{s0}, {sup:.6g}) "
                f"(half-open at the top), got {theta}")
        if v["grid.N"] < 8 or v["grid.N"] % 2:
            raise ConfigurationError(f"grid.N must be even and >= 8, got {v['grid.N']}")
        if v["grid.L"] <= 0:
            raise ConfigurationError("grid.L must be positive")
        if v["weights.k0"] <= 0:
            raise ConfigurationError("weights.k0 must be positive")
        for key in ("weights.M2", "weights.M1", "weights.h"):
            val = v[key]
            if val != "auto" and (not isinstance(val, float) or val < 0):
                raise ConfigurationError(f"{key} must be 'auto' or a number >= 0")
        # a step or a horizon that is 0, negative, inf or nan has no solve
        if v["run.dt"] != "auto" and not (0.0 < v["run.dt"] < np.inf):
            raise ConfigurationError(
                f"run.dt must be 'auto' or finite and > 0, got {v['run.dt']}")
        if not (0.0 < v["problem.T"] < np.inf):
            raise ConfigurationError(
                f"problem.T must be finite and > 0, got {v['problem.T']}")
        if v["data.kind"] not in ("gevrey", "gaussian", "mode"):
            raise ConfigurationError(
                f"data.kind must be gevrey|gaussian|mode, got {v['data.kind']!r}")
        return self

    def resolved_lines(self):
        out = ["# resolved configuration (replayable)"]
        for k in sorted(self.values):
            val = self.values[k]
            if isinstance(val, float):
                val = serialize.fmt(val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            out.append(f"{k} = {val}")
        return out


# ----------------------------------------------------------------------
# pipeline pieces
# ----------------------------------------------------------------------

def build_problem(cfg: RunConfig):
    v = cfg.values
    return model_problem(v["problem.id"], v["problem.sigma"],
                         (v["problem.c2"], v["problem.c1"], v["problem.c0"]),
                         s0=v["problem.s0"], T=v["problem.T"],
                         domain=v["grid.L"])


def resolve_weights(cfg: RunConfig, problem, grid, assumptions=None):
    """Resolve the weight block, running selection for any 'auto' entry.
    Returns (params, details, resolved_cfg); details["bundle"] is the
    conjugator for the final params."""
    v = cfg.values
    theta = v["gevrey.theta"]
    auto = [k for k in ("weights.M2", "weights.M1", "weights.h") if v[k] == "auto"]
    if auto:
        kw = dict(k0=v["weights.k0"], margin=v["select.margin"],
                  series_tol=v["tolerances.series_tol"],
                  inverse_tol=v["tolerances.inverse_tol"],
                  assumptions=assumptions)
        if v["weights.h"] != "auto":
            kw["h_start"] = kw["h_max"] = float(v["weights.h"])
        if v["weights.M2"] != "auto":
            kw["M2_pin"] = float(v["weights.M2"])
        if v["weights.M1"] != "auto":
            kw["M1_pin"] = float(v["weights.M1"])
        params, details = select_parameters_detailed(problem, theta, grid, **kw)
    else:
        D = float(np.sqrt(1.0 + grid.L ** 2))
        params = WeightParams(M2=float(v["weights.M2"]), M1=float(v["weights.M1"]),
                              h=float(v["weights.h"]), k0=v["weights.k0"],
                              sigma=problem.sigma, theta=theta,
                              R_a3=problem.R_a3, domain_cap=D)
        bundle = build_calibrated_conjugator(
            problem, params, grid, series_tol=v["tolerances.series_tol"],
            inverse_tol=v["tolerances.inverse_tol"])
        params = bundle.params
        details = {"explicit": True, "bundle": bundle}
    resolved = cfg.with_overrides(**{"weights.M2": params.M2,
                                     "weights.M1": params.M1,
                                     "weights.h": params.h,
                                     "weights.k0": params.k0})
    return params, details, resolved


def certify_positivity(cfg: RunConfig, bundle):
    """Positivity report of the conjugator that weight resolution built."""
    return verify_lower_bounds(bundle.assembler,
                               np.linspace(0.0, bundle.problem.T, N_T_SAMPLES),
                               tol=cfg["tolerances.garding_tol"],
                               with_garding=(bundle.grid.N <= 256))


def build_data(cfg: RunConfig, grid):
    """Initial state g and forcing f per the data block (deterministic)."""
    v = cfg.values
    theta = v["gevrey.theta"]
    rho = v["gevrey.rho"] if v["data.rho"] == "auto" else v["data.rho"]
    kind = v["data.kind"]
    if kind == "gevrey":
        g = synthetic_radius_field(grid, rho, theta)
    elif kind == "gaussian":
        g = np.exp(-(grid.x / v["data.width"]) ** 2) + 0j
    else:
        g = np.exp(1j * v["data.mode"] * grid.x)
    amp = v["forcing.amplitude"]
    f = None
    if amp:
        shape = synthetic_radius_field(grid, rho, theta)
        f = lambda t: amp * np.exp(-t) * shape
    return g, f, rho


def setup_pipeline(cfg: RunConfig):
    """The setup that run and verify share: validate the config, check the
    structural hypotheses (any failed row is a ConfigurationError), resolve
    the weights and certify the resulting conjugator.  Returns the
    artifacts dict."""
    cfg.validate()
    v = cfg.values
    grid = make_grid(v["grid.L"], v["grid.N"])
    problem = build_problem(cfg)
    assumptions = check_assumptions(problem, grid, v["gevrey.theta"])
    assumptions.require()
    params, details, resolved = resolve_weights(cfg, problem, grid, assumptions)
    bundle = details["bundle"]
    return {"assumptions": assumptions,
            "positivity": certify_positivity(cfg, bundle),
            "params": params, "details": details, "resolved": resolved,
            "grid": grid, "problem": problem, "bundle": bundle}


def run_pipeline(cfg: RunConfig, out_dir=None, write=True):
    """Full run; returns (trajectory, artifacts dict)."""
    artifacts = setup_pipeline(cfg)
    v = cfg.values
    grid, problem = artifacts["grid"], artifacts["problem"]
    g, f, rho = build_data(cfg, grid)
    dt = None if v["run.dt"] == "auto" else float(v["run.dt"])
    traj = solve_original(problem, artifacts["params"], f, g, grid, problem.T,
                          m=v["gevrey.m"], rho=rho, theta=v["gevrey.theta"],
                          dt=dt, bundle=artifacts["bundle"])
    artifacts["resolved"] = artifacts["resolved"].with_overrides(
        **{"run.dt": traj.meta["dt"], "data.rho": rho})
    if write:
        out = out_dir or v["output.dir"]
        _write_setup(out, cfg, artifacts, traj)
        _write_text(os.path.join(out, "trajectory.csv"),
                    serialize.trajectory_csv_lines(traj))
        if v["output.snapshots"]:
            serialize.write_fields(os.path.join(out, "snapshots.bin"),
                                   traj.logged_times, traj.u_fields)
    return traj, artifacts


def report_lines(cfg, assumptions, positivity, params, traj, bundle):
    lines = ["gevrey-evolve run report", "========================", ""]
    lines += assumptions.lines() + [""]
    lines += positivity.lines() + [""]
    lines.append(f"weights: M2={params.M2:.6g} M1={params.M1:.6g} h={params.h:.6g} "
                 f"k0={params.k0:.6g} C1={params.C1:.6g} C2={params.C2:.6g}")
    lines.append(f"conjugator: spectral radius {bundle.spectral_radius:.3e}, "
                 f"inverse residual {bundle.residual:.3e}, "
                 f"series terms {bundle.series_terms}, "
                 f"symbol-remainder gap {bundle.symbol_gap:.3e}")
    if traj is not None:
        lines.append(f"solver: dt={traj.meta['dt']!r} steps={traj.meta['steps']} "
                     f"C'={traj.C_prime:.6g} gronwall ratio={traj.gronwall_C:.6g}")
        if traj.radius is not None and len(traj.radius):
            lines.append(f"radius: rho_hat(0)={traj.radius[0]:.4f} "
                         f"rho_hat(T)={traj.radius[-1]:.4f} "
                         f"rho'={traj.meta.get('rho_prime', float('nan')):.4f}")
        if traj.equivalence_residual is not None and len(traj.equivalence_residual):
            lines.append("equivalence: max |op(e^Lam)u - v| / |v| = "
                         f"{float(np.max(traj.equivalence_residual)):.3e}")
        if "energy_estimate_C" in traj.meta:
            lines.append(f"energy estimate constant: {traj.meta['energy_estimate_C']:.6g}")
    return lines


def _write_text(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_setup(out, cfg, art, traj):
    """positivity.csv, resolved.cfg and report.txt (traj None for verify)."""
    os.makedirs(out, exist_ok=True)
    _write_text(os.path.join(out, "positivity.csv"), art["positivity"].csv_lines())
    _write_text(os.path.join(out, "resolved.cfg"), art["resolved"].resolved_lines())
    _write_text(os.path.join(out, "report.txt"),
                report_lines(cfg, art["assumptions"], art["positivity"],
                             art["params"], traj, art["bundle"]))


# ----------------------------------------------------------------------
# verify / sweep / oracle
# ----------------------------------------------------------------------

def verify_pipeline(cfg: RunConfig, out_dir=None, write=True):
    art = setup_pipeline(cfg)
    if write:
        _write_setup(out_dir or cfg["output.dir"], cfg, art, None)
    return art["assumptions"], art["positivity"], art["params"]


_SWEEP_AXES = {
    "theta": "gevrey.theta",
    "sigma": "problem.sigma",
    "h": "weights.h",
    "M2": "weights.M2",
    "M1": "weights.M1",
    "N": "grid.N",
    "dt": "run.dt",
    "c2": "problem.c2",
    "c1": "problem.c1",
}


def worker_count():
    cap = os.environ.get("GEVREY_EVOLVE_THREADS")
    if cap:
        return max(1, int(cap))
    return min(4, os.cpu_count() or 1)


def sweep_pipeline(cfg: RunConfig, axis, values, out_dir=None, write=True):
    """One pipeline run per value; failures are recorded in-row."""
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; known: {', '.join(sorted(_SWEEP_AXES))}")
    key = _SWEEP_AXES[axis]

    def one(value):
        t0 = time.perf_counter()
        val = int(value) if key == "grid.N" else float(value)
        sub = cfg.with_overrides(**{key: val})
        row = {"axis": axis, "value": val}
        try:
            traj, art = run_pipeline(sub, write=False)
            pos = art["positivity"]
            row.update(status="ok", feasible=pos.passed,
                       margin_order2=pos.min_margin("order2"),
                       margin_order1=pos.min_margin("order1"),
                       margin_theta=pos.min_margin("theta"),
                       terminal_l2=float(traj.l2[-1]),
                       terminal_hm=float(traj.meta["hm_u"][-1]),
                       radius_T=float(traj.radius[-1]),
                       C_prime=traj.C_prime)
        except GevreyEvolveError as exc:
            row.update(status=error_category(exc)[0], feasible=False,
                       error=str(exc))
        row["runtime_s"] = time.perf_counter() - t0
        return row

    nw = worker_count()
    if nw == 1:
        rows = [one(v) for v in values]
    else:
        with ThreadPoolExecutor(max_workers=nw) as pool:
            rows = list(pool.map(one, values))

    cols = ["axis", "value", "status", "feasible", "margin_order2",
            "margin_order1", "margin_theta", "terminal_l2", "terminal_hm",
            "radius_T", "C_prime", "runtime_s"]
    lines = ["# schema=1", ",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            val = row.get(c, "")
            if isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = serialize.fmt(val)
            cells.append(str(val))
        lines.append(",".join(cells))
    if write:
        out = out_dir or cfg["output.dir"]
        os.makedirs(out, exist_ok=True)
        _write_text(os.path.join(out, "sweep.csv"), lines)
    return rows, lines


def oracle_suite(cfg: RunConfig, n_max=64):
    """Dense-oracle consistency checks at small N; returns (passed, lines)."""
    from .quantize import (adjoint, apply, band_relative_error,
                           compose_expansion, representable_error,
                           table_from_function, to_dense)
    cfg.validate()
    v = cfg.values
    N = min(int(v["grid.N"]), n_max)
    grid = make_grid(min(v["grid.L"], 10.0), N)
    problem = build_problem(cfg)
    theta = v["gevrey.theta"]
    rng = np.random.default_rng(int(v["seed"]))
    checks = []

    def check(name, value, tol):
        checks.append((name, value, tol, value <= tol))

    u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    check("transform-roundtrip", float(np.max(np.abs(
        grid.inverse(grid.forward(u)) - u))), 1e-12)
    check("parseval", abs(np.linalg.norm(grid.forward(u)) - np.linalg.norm(u)),
          1e-12 * np.linalg.norm(u))

    tab = table_from_function(grid, lambda x, xi: (np.exp(1j * x) + 0.2 * np.cos(x))
                              / (1.0 + 0.1 * xi ** 2))
    M = to_dense(tab)
    errs = [np.max(np.abs(M @ w - apply(tab, w)))
            for w in (rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N)))]
    check("apply-vs-dense", float(max(errs)), 1e-11)

    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    w1 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    w2 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    check("adjoint-identity",
          abs(grid.inner(A @ w1, w2) - grid.inner(w1, adjoint(A) @ w2)), 1e-9)

    # terminating pair: p = xi against a pure lattice mode (exact identity)
    xi1 = grid.xi[max(1, int(round(grid.L / np.pi)))]
    pxi = table_from_function(grid, lambda x, xi: xi + 0.0 * x)
    pex = table_from_function(grid, lambda x, xi: np.exp(1j * xi1 * x) + 0.0 * xi)
    target = to_dense(pxi) @ to_dense(pex)
    got = to_dense(compose_expansion(pxi, pex, 2))
    check("composition-terminating", band_relative_error(target, got, grid), 1e-10)

    assumptions = check_assumptions(problem, grid, theta)
    assumptions.require()
    params, details, _ = resolve_weights(cfg, problem, grid, assumptions)
    bundle = details["bundle"]
    E, E_inv = bundle.E.dense(), bundle.E_inv.dense()
    check("conjugator-residual",
          float(np.linalg.norm(E @ E_inv - np.eye(N), 2)),
          v["tolerances.inverse_tol"])
    # the Multiplier or Neumann-series inverse against the dense inverse
    dense = build_conjugator(problem, params, grid, mode="dense").E_inv.dense()
    check("neumann-vs-dense",
          float(np.linalg.norm(E_inv - dense, 2))
          / max(1.0, float(np.linalg.norm(dense, 2))), 1e-6)

    cs = bundle.assembler.at(0.0)
    spatial = (model_problem_spatial_dense(problem, grid, 0.0))
    lhs = (bundle.time_stage(0.0).dense() @ E @ spatial @ E_inv
           @ bundle.time_stage(0.0, -1).dense())
    rhs = to_dense(cs.spatial_table())
    check("conjugated-assembly",
          representable_error(lhs, rhs, grid, params.domain_cap), 1e-2)

    check("d1-imaginary", float(np.max(np.abs(cs.parts["d1"].values.imag))), 1e-10)

    lines = []
    passed = True
    for name, value, tol, ok in checks:
        passed &= ok
        lines.append(f"[{'pass' if ok else 'FAIL'}] {name}: {value:.3e} "
                     f"(tol {tol:.1e})")
    return passed, lines


def model_problem_spatial_dense(problem, grid, t):
    """Dense matrix of i (a3 + a2 + a1 + a0)(t, x, D)."""
    from .quantize import multiplier_table, to_dense
    from .symbols import eval_table
    a3 = multiplier_table(grid, np.asarray(problem.a3(t, 0.0, grid.xi),
                                           dtype=complex))
    tab = a3 + eval_table(problem.a2, grid, t) + eval_table(problem.a1, grid, t) \
        + eval_table(problem.a0, grid, t)
    return to_dense(tab * 1j)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gevrey-evolve",
        description="Well-posedness pipeline for third-order evolution "
                    "equations with complex lower-order coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "oracle"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
        sp.add_argument("--out", default=None, help="output directory")
    sp = sub.add_parser("sweep")
    sp.add_argument("config")
    sp.add_argument("--axis", required=True)
    sp.add_argument("--values", required=True, help="comma-separated list")
    sp.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config)
        if args.command == "run":
            traj, art = run_pipeline(cfg, out_dir=args.out)
            print(f"ok: {art['resolved']['output.dir'] if args.out is None else args.out}")
            return EXIT_OK
        if args.command == "verify":
            assumptions, positivity, params = verify_pipeline(cfg, out_dir=args.out)
            for line in assumptions.lines() + positivity.lines():
                print(line)
            if not positivity.passed:
                print("verification failed", file=sys.stderr)
                return EXIT_INFEASIBLE
            return EXIT_OK
        if args.command == "sweep":
            values = [s for s in args.values.split(",") if s]
            rows, lines = sweep_pipeline(cfg, args.axis, values, out_dir=args.out)
            print(f"{len(rows)} rows")
            return EXIT_OK
        passed, lines = oracle_suite(cfg)
        for line in lines:
            print(line)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_text(os.path.join(args.out, "oracle.txt"), lines)
        return EXIT_OK if passed else EXIT_ORACLE
    except OSError as exc:
        print(f"error (config): cannot read {args.config}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except GevreyEvolveError as exc:
        cat, code = error_category(exc)
        print(f"error ({cat}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
