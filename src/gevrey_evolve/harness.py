"""Configuration, experiment orchestration, and the command-line interface.

Configs are flat dotted-key text files (``grid.N = 256``); every "auto"
field is resolved before the run and echoed back out, so a finished run can
be replayed from its ``resolved.cfg`` byte-for-byte.

Commands:

* ``run <config>``     end-to-end pipeline, writes report + CSV artifacts
* ``verify <config>``  assumption + positivity reports only, no solve
* ``sweep <config> --axis h --values 1,2,4``  one row per value
* ``oracle <config>``  dense-oracle consistency suite at N <= 256

Exit categories: 0 ok, 2 config, 3 infeasible-parameters, 4 instability,
1 oracle-suite failure.
"""

import argparse
import errno
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .conjugate import build_conjugator
from .errors import (ConfigurationError, ConvergenceError, GevreyEvolveError,
                     InfeasibleError, InstabilityError, ParameterError)
from .evolve import MAX_STEPS, solve_original, synthetic_radius_field
from .grid import make_grid
from .positivity import garding_floors, select_parameters_detailed
from .symbols import (MODEL_PROBLEM_IDS, check_assumptions, model_problem,
                      range_error)

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INSTABILITY = 4

_CATEGORY = {
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
    "data.mode": 1.0,
    "forcing.amplitude": 0.0,
    "tolerances.inverse_tol": 1e-8,
    "tolerances.series_tol": 1e-10,
    "tolerances.garding_tol": 1e-8,
    "output.dir": "out",
    "output.snapshots": False,
    "seed": 0,
}

# every number must be finite and clear its key's bound (low, strict):
# > low where strict, >= low otherwise; a key not named here is bounded
# by _FINITE alone, so nan, inf and -inf are refused for every key
_FINITE = (-np.inf, True)
_BOUNDS = {
    **dict.fromkeys(("grid.L", "problem.T", "gevrey.rho", "data.rho",
                     "data.width", "weights.k0", "select.margin", "run.dt",
                     "tolerances.inverse_tol", "tolerances.series_tol",
                     "tolerances.garding_tol"), (0.0, True)),
    "weights.M2": (0.0, False), "weights.M1": (0.0, False),
    "weights.h": (1.0, False),
    "seed": (0, False),
}
_CHOICES = {"problem.id": MODEL_PROBLEM_IDS,
            "data.kind": ("gevrey", "gaussian", "mode")}
# live complex N x N tables at the peak of a run, rounded up: the dense
# working set is DENSE_TABLES * 16 N^2 bytes, (peak RSS - RSS after import)
# / 16 N^2 measured through main, under its allocator policy
# (reuse_freed_memory).  57, 45 and 42 were measured for complex-damped at
# N = 128, 256 and 1024 (55, 45 and 42 without the policy; real tables are
# float64, and a run drops the tables its solve does not read).  The
# solve's 2B + 1 stage slots, into which each batch forms its start again
# rather than copying it, are allocated after release_tables; at N <= 256
# they come from the heap the released tables leave, and the solve raises
# the setup's peak by 0.9 MiB at N = 128, 0.3 at 256 and 0.3 at 1024,
# which the figures include.  163 to 169 and 158 were measured for
# time-modulated at N = 128 and 256 (168 and 159 without the policy),
# whose assembler keeps the tables of conjugate.MEMO_TIMES coefficient
# times and whose solve, which sets the peak, forms each stage time's own
# coefficient stack, in batches of J steps and 2J + 1 slots
DENSE_TABLES = 60
DENSE_TABLES_TIME_DEPENDENT = 240
ORACLE_N_MAX = 256   # the largest grid.N the oracle suite checks at


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


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
        values[key] = _coerce(key, val, f"line {ln}")
    return values


def _coerce(key, val, where):
    """val as the type of key's default, bool before int; a default of
    "auto" takes "auto" or a float, any other str default a string."""
    default = _DEFAULTS[key]
    if isinstance(default, bool):
        if val.lower() in ("true", "1", "yes"):
            return True
        if val.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"{where}: {key} expects true/false, got {val!r}")
    if default == "auto":
        if val == "auto":
            return val
    elif isinstance(default, str):
        return val
    try:
        return int(val) if isinstance(default, int) else float(val)
    except ValueError:
        raise ConfigurationError(
            f"{where}: cannot parse {key} value {val!r}") from None


@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read {path}: {exc.strerror or exc}") from None
        return cls(parse_config_text(text))

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
        for key, val in v.items():
            if key in _CHOICES and val not in _CHOICES[key]:
                raise ConfigurationError(
                    f"{key} must be {'|'.join(_CHOICES[key])}, got {val!r}")
            low, strict = _BOUNDS.get(key, _FINITE)
            # written so that nan fails it
            if isinstance(val, (str, bool)) or (
                    low < val if strict else low <= val) and val < np.inf:
                continue
            auto = "'auto' or " if _DEFAULTS[key] == "auto" else ""
            bound = f" and {'>' if strict else '>='} {low:g}" if low > -np.inf else ""
            raise ConfigurationError(f"{key} must be {auto}finite{bound}, got {val}")
        sigma, s0 = v["problem.sigma"], v["problem.s0"]
        if bad := range_error(sigma, s0, v["gevrey.theta"],
                              ("problem.sigma", "problem.s0", "gevrey.theta")):
            raise ConfigurationError(bad)
        if v["grid.N"] < 8 or v["grid.N"] % 2:
            raise ConfigurationError(f"grid.N must be even and >= 8, got {v['grid.N']}")
        if v["data.kind"] == "mode":
            # exp(i m x) is periodic on [-L, L) only for m = n pi / L
            m, L = v["data.mode"], v["grid.L"]
            n = round(m * L / np.pi)
            if abs(m * L / np.pi - n) > 1e-9:
                raise ConfigurationError(
                    f"data.mode = {m} is no lattice mode of grid.L = {L!r} "
                    f"(data.mode * grid.L / pi = {m * L / np.pi:.6g}); the "
                    f"nearest lattice mode is {n} pi / grid.L = "
                    f"{n * np.pi / L:.6g} (data.mode = "
                    f"{serialize.fmt(n * np.pi / L)})")
        tables = (DENSE_TABLES_TIME_DEPENDENT
                  if model_problem(v["problem.id"], sigma, s0=s0).time_dependent
                  else DENSE_TABLES)
        need, have = tables * 16 * v["grid.N"] ** 2, _physical_memory()
        if have is not None and need > have:
            raise ConfigurationError(
                f"grid.N = {v['grid.N']} needs about {need / 2**30:.3g} GiB of "
                f"dense N x N tables, more than the {have / 2**30:.3g} GiB of "
                "physical memory; lower grid.N")
        T, dt = v["problem.T"], v["run.dt"]
        if dt != "auto" and T / dt > MAX_STEPS:
            raise ConfigurationError(
                f"run.dt = {dt!r} needs {np.ceil(T / dt):.0f} steps to reach "
                f"problem.T = {T!r}, more than the {MAX_STEPS} allowed")
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
    """Resolve the weight block through selection, each explicit entry
    pinned.  Returns (params, details, resolved_cfg); details["bundle"] is
    the conjugator for the final params and details["report"] its
    positivity certificate."""
    v = cfg.values
    kw = {}
    if v["weights.h"] != "auto":
        kw["h_pin"] = float(v["weights.h"])
    if v["weights.M2"] != "auto":
        kw["M2_pin"] = float(v["weights.M2"])
    if v["weights.M1"] != "auto":
        kw["M1_pin"] = float(v["weights.M1"])
    params, details = select_parameters_detailed(
        problem, v["gevrey.theta"], grid, k0=v["weights.k0"],
        margin=v["select.margin"], series_tol=v["tolerances.series_tol"],
        inverse_tol=v["tolerances.inverse_tol"],
        tol=v["tolerances.garding_tol"], assumptions=assumptions, **kw)
    resolved = cfg.with_overrides(**{"weights.M2": params.M2,
                                     "weights.M1": params.M1,
                                     "weights.h": params.h,
                                     "weights.k0": params.k0})
    return params, details, resolved


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


def require_output_dir(path):
    """Raise, before any work, the OSError that os.makedirs(path,
    exist_ok=True) raises when path is not a directory, or its nearest
    existing ancestor is not one.  Creates nothing."""
    child = None
    while not os.path.lexists(path):
        path, child = os.path.dirname(path) or os.curdir, path
    if not os.path.isdir(path):
        code = errno.EEXIST if child is None else errno.ENOTDIR
        raise OSError(code, os.strerror(code), child or path)


def setup_pipeline(cfg: RunConfig, out_dir=None):
    """The setup that run and verify share: validate the config, refuse an
    output directory out_dir (if given) that cannot be written, check the
    structural hypotheses (any failed row is a ConfigurationError), resolve
    the weights and publish the positivity certificate of the trial that
    selection accepted.  Returns the artifacts dict; its bundle holds the
    grid, the problem and the calibrated params."""
    cfg.validate()
    if out_dir:
        require_output_dir(out_dir)
    v = cfg.values
    grid = make_grid(v["grid.L"], v["grid.N"])
    problem = build_problem(cfg)
    assumptions = check_assumptions(problem, grid, v["gevrey.theta"])
    assumptions.require()
    params, details, resolved = resolve_weights(cfg, problem, grid, assumptions)
    bundle, positivity = details["bundle"], details["report"]
    if grid.N <= 256:
        positivity.garding_floors = garding_floors(bundle.assembler)
    return {"assumptions": assumptions, "positivity": positivity,
            "params": params, "details": details, "resolved": resolved,
            "bundle": bundle}


def run_pipeline(cfg: RunConfig, out_dir=None, write=True):
    """Full run; returns (trajectory, artifacts dict).  Once the setup has
    the Garding floors, the accepted assembler drops every table its solve
    does not read (ConjugationAssembler.release_tables), and the step is
    run.dt, or the solve's default_dt when run.dt is auto."""
    out = (out_dir or cfg["output.dir"]) if write else None
    artifacts = setup_pipeline(cfg, out)
    v = cfg.values
    bundle = artifacts["bundle"]
    T = bundle.problem.T
    g, f, rho = build_data(cfg, bundle.grid)
    bundle.assembler.release_tables()
    dt = None if v["run.dt"] == "auto" else float(v["run.dt"])
    traj = solve_original(bundle, f, g, T, m=v["gevrey.m"], rho=rho, dt=dt)
    artifacts["resolved"] = artifacts["resolved"].with_overrides(
        **{"run.dt": traj.meta["dt"], "data.rho": rho})
    if write:
        _write_setup(out, artifacts, traj)
        _write_text(os.path.join(out, "trajectory.csv"),
                    serialize.trajectory_csv_lines(traj))
        if v["output.snapshots"]:
            serialize.write_fields(os.path.join(out, "snapshots.bin"),
                                   traj.logged_times, traj.u_fields)
    return traj, artifacts


def report_lines(assumptions, positivity, traj, bundle):
    """report.txt: the weights are the bundle's calibrated params."""
    params = bundle.params
    lines = ["gevrey-evolve run report", "========================", ""]
    lines += assumptions.lines() + [""]
    lines += positivity.lines() + [""]
    lines.append(f"weights: M2={params.M2:.6g} M1={params.M1:.6g} h={params.h:.6g} "
                 f"k0={params.k0:.6g} C1={params.C1:.6g} C2={params.C2:.6g}")
    lines.append(f"conjugator: spectral radius {bundle.spectral_radius:.3e}, "
                 f"inverse residual ||E E_inv - I||_F {bundle.residual:.3e}, "
                 f"series terms {bundle.series_terms}")
    if traj is not None:
        lines.append(f"solver: dt={traj.meta['dt']!r} steps={traj.meta['steps']} "
                     f"C'={traj.C_prime:.6g} gronwall ratio={traj.gronwall_C:.6g}")
        lines.append(f"radius: rho_hat(0)={traj.radius[0]:.4f} "
                     f"rho_hat(T)={traj.radius[-1]:.4f} "
                     f"rho'={traj.meta['rho_prime']:.4f}")
        lines.append("equivalence: max |op(e^Lam)u - v| / |v| = "
                     f"{float(np.max(traj.equivalence_residual)):.3e}")
        if "energy_estimate_C" in traj.meta:
            lines.append(f"energy estimate constant: {traj.meta['energy_estimate_C']:.6g}")
    return lines


def _write_text(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_setup(out, art, traj):
    """positivity.csv, resolved.cfg and report.txt (traj None for verify)."""
    os.makedirs(out, exist_ok=True)
    _write_text(os.path.join(out, "positivity.csv"), art["positivity"].csv_lines())
    _write_text(os.path.join(out, "resolved.cfg"), art["resolved"].resolved_lines())
    _write_text(os.path.join(out, "report.txt"),
                report_lines(art["assumptions"], art["positivity"], traj,
                             art["bundle"]))


# ----------------------------------------------------------------------
# verify / sweep / oracle
# ----------------------------------------------------------------------

def verify_pipeline(cfg: RunConfig, out_dir=None, write=True):
    out = (out_dir or cfg["output.dir"]) if write else None
    art = setup_pipeline(cfg, out)
    if write:
        _write_setup(out, art, None)
    return art["assumptions"], art["positivity"], art["params"]


_SWEEP_AXES = {key.rpartition(".")[2]: key for key in (
    "gevrey.theta", "problem.sigma", "weights.h", "weights.M2", "weights.M1",
    "grid.N", "run.dt", "problem.c2", "problem.c1")}


def worker_count():
    cap = os.environ.get("GEVREY_EVOLVE_THREADS")
    if cap:
        try:
            workers = int(cap)
            if workers < 1:
                raise ValueError(cap)
        except ValueError:
            raise ConfigurationError(
                f"GEVREY_EVOLVE_THREADS must be a positive integer, "
                f"got {cap!r}")
        return workers
    return min(4, os.cpu_count() or 1)


def sweep_pipeline(cfg: RunConfig, axis, values, out_dir=None, write=True):
    """One pipeline run per value; failures are recorded in-row."""
    if axis not in _SWEEP_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; known: {', '.join(sorted(_SWEEP_AXES))}")
    key = _SWEEP_AXES[axis]

    def one(val):
        t0 = time.perf_counter()
        sub = cfg.with_overrides(**{key: val})
        row = {"axis": axis, "value": val}
        try:
            traj, art = run_pipeline(sub, write=False)
            pos = art["positivity"]
            row.update(status="ok",
                       margin_order2=pos.min_margin("order2"),
                       margin_order1=pos.min_margin("order1"),
                       margin_theta=pos.min_margin("theta"),
                       terminal_l2=float(traj.l2[-1]),
                       terminal_hm=float(traj.meta["hm_u"][-1]),
                       radius_T=float(traj.radius[-1]),
                       C_prime=traj.C_prime)
        except GevreyEvolveError as exc:
            row.update(status=error_category(exc)[0], error=str(exc))
        row["runtime_s"] = time.perf_counter() - t0
        return row

    # every value is parsed, and the output directory checked, before the
    # first row runs; an empty entry (as in "4,,8" or "4,8,") is refused,
    # not skipped
    if not values:
        raise ConfigurationError(
            f"sweep --values lists no value for axis {axis}")
    for pos, value in enumerate(values, 1):
        if not str(value).strip():
            raise ConfigurationError(
                f"sweep --values lists no value at entry {pos} of "
                f"{len(values)} for axis {axis}")
    vals = [_coerce(key, str(value), f"sweep axis {axis}") for value in values]
    out = out_dir or cfg["output.dir"]
    if write:
        require_output_dir(out)
    # imported here: concurrent.futures pulls in logging, threading and
    # queue, and csv its C module, which no other command reads
    import csv
    import io
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        rows = list(pool.map(one, vals))

    cols = ["axis", "value", "status", "margin_order2", "margin_order1",
            "margin_theta", "terminal_l2", "terminal_hm", "radius_T",
            "C_prime", "runtime_s", "error"]
    lines = ["# schema=3", ",".join(cols)]
    for row in rows:
        # CSV quoting: a failed row's message may hold commas or quotes
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(
            serialize.fmt(v) if isinstance(v, float) else v
            for v in (row.get(c, "") for c in cols))
        lines.append(buf.getvalue())
    if write:
        os.makedirs(out, exist_ok=True)
        _write_text(os.path.join(out, "sweep.csv"), lines)
    return rows, lines


def oracle_suite(cfg: RunConfig, out_dir=None):
    """Oracle consistency checks, on node-value matrices, of what a run
    computes: the setup of run and verify (setup_pipeline) on the config's
    own box at N = min(grid.N, ORACLE_N_MAX).  Returns (passed, lines), the
    first line naming that grid.  The config is validated as given, so a
    grid.N above the cap is refused as a run refuses it; out_dir is
    checked as setup_pipeline checks it."""
    from .quantize import (coefficient_matrix, node_matrix,
                           representable_error, table_from_function,
                           to_dense)
    cfg.validate()
    v = cfg.values
    N = min(v["grid.N"], ORACLE_N_MAX)
    art = setup_pipeline(cfg.with_overrides(**{"grid.N": N}), out_dir)
    bundle = art["bundle"]
    grid = bundle.grid
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
    M, C = to_dense(tab), coefficient_matrix(grid, tab.values)
    errs = [np.max(np.abs(M @ w - grid.inverse(C @ grid.forward(w))))
            for w in (rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N)))]
    check("coefficient-matrix-vs-dense", float(max(errs)), 1e-11)

    E, E_inv = node_matrix(grid, bundle.E), node_matrix(grid, bundle.E_inv)
    check("conjugator-residual",
          float(np.linalg.norm(E @ E_inv - np.eye(N), 2)),
          v["tolerances.inverse_tol"])
    # the row or Neumann-series inverse against the dense inverse
    dense = node_matrix(grid, build_conjugator(bundle.assembler,
                                               mode="dense").E_inv)
    check("neumann-vs-dense",
          float(np.linalg.norm(E_inv - dense, 2))
          / max(1.0, float(np.linalg.norm(dense, 2))), 1e-6)

    spatial = model_problem_spatial_dense(bundle.problem, grid, 0.0)
    lhs = (node_matrix(grid, bundle.time_stage(0.0)) @ E @ spatial @ E_inv
           @ node_matrix(grid, bundle.time_stage(0.0, -1)))
    rhs = to_dense(bundle.assembler.at(0.0).spatial_table())
    check("conjugated-assembly",
          representable_error(lhs, rhs, grid, art["params"].domain_cap), 1e-2)

    lines = [f"oracle grid: N={N} L={v['grid.L']:g}"]
    passed = True
    for name, value, tol, ok in checks:
        passed &= ok
        lines.append(f"[{'pass' if ok else 'FAIL'}] {name}: {value:.3e} "
                     f"(tol {tol:.1e})")
    return passed, lines


def model_problem_spatial_dense(problem, grid, t):
    """The node-value matrix of i (a3 + a2 + a1 + a0)(t, x, D)."""
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

# glibc's allocator policy for a command-line run (malloc.h: M_TRIM_THRESHOLD
# -1, M_MMAP_THRESHOLD -3).  By default glibc maps each block of 128 KiB or
# more, raises that threshold only as mapped blocks are freed, and trims the
# heap top past twice it, so the freed N x N tables of one kernel go back to
# the kernel and the next kernel faults them in again.  Blocks below
# MMAP_THRESHOLD (32 MiB, glibc's cap for its dynamic threshold on 64-bit;
# one N = 1024 complex table is 16 MiB) come from the heap, and the heap
# keeps up to TRIM_THRESHOLD of free top.  Both are set: setting either one
# switches the dynamic threshold off, and the trim threshold alone would
# map every block from 128 KiB on.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def reuse_freed_memory():
    """Set the allocator policy above through glibc's mallopt; returns
    whether both settings took.  A silent no-op, returning False, where
    the C library is not glibc.  main calls it once; a library caller
    (run_pipeline, the tests) keeps its host's allocator."""
    import ctypes
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mmap_set and trim_set)


def main(argv=None):
    reuse_freed_memory()
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
            return EXIT_OK
        if args.command == "sweep":
            rows, lines = sweep_pipeline(cfg, args.axis,
                                         args.values.split(","),
                                         out_dir=args.out)
            print(f"{len(rows)} rows")
            return EXIT_OK
        passed, lines = oracle_suite(cfg, out_dir=args.out)
        for line in lines:
            print(line)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_text(os.path.join(args.out, "oracle.txt"), lines)
        return EXIT_OK if passed else EXIT_ORACLE
    except OSError as exc:
        # from_file reports its own read: this is an artifact write
        print(f"error (config): cannot write {exc.filename}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GevreyEvolveError as exc:
        cat, code = error_category(exc)
        print(f"error ({cat}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
