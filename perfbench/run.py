"""Benchmark of ``gevrey-evolve run``: end-to-end times and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload damped-256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each call is one ``harness.run_pipeline`` through the ``run`` command, in a
fresh interpreter with BLAS pinned to one thread, one after another (a
closed loop with one client).  ``--trace 0`` repeats untraced calls for
``--seconds`` per workload and reports the end-to-end metrics; ``--trace 1``
makes one untraced and one traced call per workload and reports the
per-layer metrics and the tracing overhead.  Without ``--trace`` it does
both.  Every call's outputs are checked against the stored reference; the
last line of output is a JSON summary, and the exit code is 1 if any check
failed.  See README.md next to this file.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = "src"
SRC = os.path.join(SRC_DIR, "gevrey_evolve", "harness.py")
WORK = ".perfbench_work"
CALL_TIMEOUT_S = 900

# problem.id defaults to complex-damped; defaults elsewhere: sigma=0.75,
# theta=1.8, T=1, auto weights and auto dt.  README.md says why each was chosen.
WORKLOADS = {
    "damped-64": "grid.L = 10\ngrid.N = 64\n",
    "damped-256": "grid.L = 20\ngrid.N = 256\n",
    "kdv-forced-256": ("problem.id = kdv-baseline\ngrid.L = 40\ngrid.N = 256\n"
                       "forcing.amplitude = 0.5\nrun.dt = 0.002\n"),
}

# Output checks.  Values are compared with a relative tolerance of
# VALUE_TOL_FACTOR * tolerances.inverse_tol (the pull-back goes through the
# inverse, which is only certified to inverse_tol); the equivalence round
# trip must stay within EQUIV_TOL_FACTOR * inverse_tol, as in acceptance
# criterion 8.
VALUE_TOL_FACTOR = 100.0
EQUIV_TOL_FACTOR = 10.0
PARAMS = ("h", "M2", "M1", "C1", "C2")
COLUMNS = ("l2", "hm_rho_theta", "radius_fit")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("solve_s", "s"),
              ("peak_rss_mb", "MB"))


def config_text(workload, seed):
    return WORKLOADS[workload] + f"output.dir = out\nseed = {seed}\n"


def child_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def read_trajectory(path):
    """trajectory.csv columns by name (floats; nan for 'nan')."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def call(text, trace):
    """One pipeline call on config ``text`` in a fresh interpreter; returns
    its record.

    The record holds the child's measurements (see child.py), the
    trajectory columns and the artifact size, or an ``error``."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        with open(os.path.join(work, "run.cfg"), "w") as fh:
            fh.write(text)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), work, SRC_DIR,
                 "1" if trace else "0"],
                env=child_env(), capture_output=True, text=True,
                timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {CALL_TIMEOUT_S} s"}
        result = os.path.join(work, "result.json")
        if proc.returncode != 0 or not os.path.exists(result):
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            return {"error": f"child exited {proc.returncode}: " + " | ".join(tail)}
        with open(result) as fh:
            record = json.load(fh)
        if record["exit_code"] != 0:
            record["error"] = f"gevrey-evolve run exited {record['exit_code']}"
            return record
        out = os.path.join(work, "out")
        record["trajectory"] = read_trajectory(os.path.join(out, "trajectory.csv"))
        record["artifact_bytes"] = sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def load_reference(workload):
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def reference_from(record):
    """The stored reference for a workload, from a checked-good record."""
    traj = record["trajectory"]
    return {"params": record["params"],
            "positivity_passed": record["positivity_passed"],
            "trajectory": {c: [None if math.isnan(v) else v for v in traj[c]]
                           for c in COLUMNS}}


def _close(got, want, rtol, scale):
    if want is None:
        return math.isnan(got)
    return abs(got - want) <= rtol * scale


def check(record, reference):
    """Failed output checks of one call, as messages (empty when it passed)."""
    if "error" in record:
        return [record["error"]]
    bad = []
    tol = record["inverse_tol"]
    rtol = VALUE_TOL_FACTOR * tol
    if not record["positivity_passed"]:
        bad.append("positivity certificate did not pass")
    if record["positivity_passed"] != reference["positivity_passed"]:
        bad.append("positivity.passed differs from the reference")
    if not record["inverse_residual"] <= tol:
        bad.append(f"inverse residual {record['inverse_residual']:.3e} > {tol:.1e}")
    if not record["equivalence_residual"] <= EQUIV_TOL_FACTOR * tol:
        bad.append(f"equivalence residual {record['equivalence_residual']:.3e} "
                   f"> {EQUIV_TOL_FACTOR * tol:.1e}")
    for name in PARAMS:
        got, want = record["params"][name], reference["params"][name]
        if not _close(got, want, rtol, abs(want)):
            bad.append(f"{name} = {got!r}, reference {want!r}")
    for col in COLUMNS:
        got, want = record["trajectory"][col], reference["trajectory"][col]
        if len(got) != len(want):
            bad.append(f"trajectory.csv has {len(got)} rows, reference {len(want)}")
            break
        scale = max((abs(v) for v in want if v is not None), default=0.0)
        wrong = [i for i, (g, w) in enumerate(zip(got, want))
                 if not _close(g, w, rtol, scale)]
        if wrong:
            i = wrong[0]
            bad.append(f"{col} differs in {len(wrong)} rows; row {i}: "
                       f"{got[i]!r}, reference {want[i]!r}")
    return bad


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

class Tally:
    """The calls made for one workload and the checks they failed."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.records = []
        self.failures = []

    def add(self, record):
        bad = check(record, self.reference)
        record["failed"] = bool(bad)
        self.records.append(record)
        self.failures += [f"{self.workload}: {msg}" for msg in bad]
        return record

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(r["failed"] for r in self.records)

    def samples(self, name):
        return [r[name] for r in self.records if not r["failed"] and name in r]


def untraced_loop(tallies, seed, seconds):
    """Untraced calls, round robin over the workloads, for about ``seconds``
    per workload: a further round starts only if the median round so far
    fits in the time left.  At least one round."""
    budget = seconds * len(tallies)
    start, rounds = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        for tally in tallies:
            tally.add(call(config_text(tally.workload, seed), trace=False))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > budget:
            return


def summary(values):
    """(median, (percentile, value) or None, n).  The percentile is the
    highest one with at least ten samples beyond it, reported only above
    the median."""
    n = len(values)
    if not n:
        return 0.0, None, 0
    ordered = sorted(values)
    rank = n - 10
    high = None
    if rank > n / 2:
        high = (100.0 * rank / n, ordered[rank - 1])
    return statistics.median(ordered), high, n


def layer_report(traced, base_run_s):
    """Per-layer metrics of one traced call: name -> (value, unit)."""
    out = {k: tuple(v) for k, v in traced.get("layers", {}).items()}
    if "run_s" in traced:
        out["trace.run_s"] = (traced["run_s"], "s")
        out["trace.overhead_s"] = (traced["run_s"] - base_run_s, "s")
        out["harness.import_s"] = (traced["import_s"], "s")
        out["serialize.artifact_bytes"] = (traced["artifact_bytes"], "bytes")
    return out


# The share of run_s that the layer predicted to dominate each workload
# takes in the traced call.
DOMINANT = {
    "damped-64": ("symbols.check_assumptions_s",),
    "damped-256": ("positivity.select_s",),
    "kdv-forced-256": ("evolve.solve_conjugated_s", "evolve.pullback_s"),
}


def machine_info():
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_in_calls": 1}


def fmt_summary(name, unit, values):
    med, high, n = summary(values)
    tail = (f"p{high[0]:.0f} {high[1]:.6g} {unit}" if high
            else "no percentile above the median has 10 samples beyond it")
    return f"{name:<16} median {med:.6g} {unit}  ({tail}; n={n})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload, a comma-separated list, or 'all': "
                             + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="written into the config's seed key")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only; default both")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"known: {', '.join(WORKLOADS)}")
    if not os.path.isfile(SRC):
        print(f"error: {SRC} not found; run from the root of a gevrey-evolve "
              "checkout", file=sys.stderr)
        return 2
    missing = [w for w in names if not os.path.isfile(reference_path(w))]
    if missing:
        print(f"error: no reference for {', '.join(missing)}; "
              "run perfbench/make_reference.py", file=sys.stderr)
        return 2

    print("machine: " + json.dumps(machine_info()), flush=True)
    tallies = [Tally(w, load_reference(w)) for w in names]
    untraced = args.trace != 1
    traced = args.trace != 0
    if untraced:
        untraced_loop(tallies, args.seed, args.seconds)
    traces = {}
    for tally in tallies:
        if traced:
            if not untraced:
                tally.add(call(config_text(tally.workload, args.seed), trace=False))
            base = statistics.median(tally.samples("run_s") or [0.0])
            traces[tally.workload] = layer_report(
                tally.add(call(config_text(tally.workload, args.seed), trace=True)), base)

    metrics = {}
    for tally in tallies:
        prefix = "" if len(tallies) == 1 else tally.workload + "."
        print(f"== {tally.workload}: {tally.attempted} calls, {tally.failed} failed "
              f"(fail_ratio {tally.failed}/{tally.attempted} = "
              f"{tally.failed / tally.attempted:.3g})")
        if untraced:
            for name, unit in END_TO_END:
                values = tally.samples(name)
                print("  " + fmt_summary(name, unit, values))
                metrics[prefix + name] = {"value": summary(values)[0], "unit": unit}
        if traced:
            layers = traces[tally.workload]
            for name in sorted(layers):
                value, unit = layers[name]
                print(f"  {name:<40} {value:.6g} {unit}  (n=1)")
                metrics[prefix + name] = {"value": value, "unit": unit}
            run_s = layers.get("trace.run_s", (0.0,))[0]
            keys = DOMINANT.get(tally.workload, ())
            if run_s and keys:
                share = sum(layers[k][0] for k in keys) / run_s
                print(f"  share of traced run_s in {' + '.join(keys)}: {share:.3f}")
    failures = [f for t in tallies for f in t.failures]
    for msg in failures:
        print("FAILED " + msg)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
