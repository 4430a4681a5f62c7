"""One benchmark call: ``gevrey-evolve run`` on a config, in a fresh interpreter.

Usage: python3 perfbench/child.py <work dir> <src dir> <trace 0|1>

The work dir holds ``run.cfg`` (written by run.py).  The call runs there
through ``harness.main(["run", "run.cfg"])`` and leaves the artifacts in
``out/`` and its measurements in ``result.json``.  Timestamps come from
hooks on the ``harness.run_pipeline`` and ``harness.solve_original``
bindings, one call each per run.
"""

import contextlib
import json
import os
import resource
import sys
import time


def timestamp_hooks(harness, marks):
    """Record entry/exit times of run_pipeline and solve_original and keep
    the pipeline's return value; returns a function that undoes the hooks."""
    run_pipeline, solve_original = harness.run_pipeline, harness.solve_original

    def run_hook(*args, **kwargs):
        marks["run_entry"] = time.perf_counter()
        result = run_pipeline(*args, **kwargs)
        marks["run_exit"] = time.perf_counter()
        marks["result"] = result
        return result

    def solve_hook(*args, **kwargs):
        marks["solve_entry"] = time.perf_counter()
        result = solve_original(*args, **kwargs)
        marks["solve_exit"] = time.perf_counter()
        return result

    harness.run_pipeline, harness.solve_original = run_hook, solve_hook

    def undo():
        harness.run_pipeline, harness.solve_original = run_pipeline, solve_original

    return undo


def run_once(trace):
    """Run the pipeline on run.cfg in the current directory; returns the
    result record (timings, output checks and, when traced, layer metrics)."""
    t0 = time.perf_counter()
    from gevrey_evolve import harness
    import_s = time.perf_counter() - t0

    import spans
    recorder = spans.Recorder()
    marks = {}
    with spans.traced(recorder) if trace else contextlib.nullcontext():
        undo = timestamp_hooks(harness, marks)
        try:
            code = harness.main(["run", "run.cfg"])
        finally:
            undo()

    record = {"exit_code": code, "import_s": import_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if code != harness.EXIT_OK:
        return record
    traj, art = marks["result"]
    params, bundle, cfg = art["params"], art["bundle"], art["resolved"]
    record.update(
        run_s=marks["run_exit"] - marks["run_entry"],
        setup_s=import_s + marks["solve_entry"] - marks["run_entry"],
        solve_s=marks["solve_exit"] - marks["solve_entry"],
        params={k: float(getattr(params, k)) for k in ("h", "M2", "M1", "C1", "C2")},
        positivity_passed=bool(art["positivity"].passed),
        inverse_residual=float(bundle.residual),
        inverse_tol=float(cfg["tolerances.inverse_tol"]),
        equivalence_residual=float(max(traj.equivalence_residual)),
    )
    if trace:
        record["layers"] = {k: list(v) for k, v in spans.layer_metrics(recorder).items()}
    return record


def main(argv):
    work, src, trace = argv[0], argv[1], argv[2] == "1"
    sys.path.insert(0, os.path.abspath(src))
    os.chdir(work)
    record = run_once(trace)
    with open("result.json", "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
