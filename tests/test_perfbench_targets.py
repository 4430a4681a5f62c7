"""The benchmark's reads of the package must keep working, so that a
change that breaks one fails here instead of in a benchmark run: the layers
that perfbench/spans.py traces must exist, and perfbench/child.py's record
path must produce its record."""

import json
import pathlib
import sys
import types

import gevrey_evolve  # noqa: F401  (imports every traced module)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = BENCH / "spans.py"

# the benchmark self-test's small traced call: every layer runs on it
SMALL = ("grid.L = 5\ngrid.N = 40\nforcing.amplitude = 0.5\n"
         "output.dir = out\nseed = 0\n")


def load_source(path, name):
    """A perfbench file executed from its source text; nothing is written
    beside it."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    spans = load_source(SPANS, "perfbench_spans")
    assert spans.TARGETS
    for module, path, name, _timed, _hook in spans.TARGETS:
        owner, attr = spans._resolve(module, path)
        assert callable(vars(owner).get(attr)), f"{name}: {module}.{path} is gone"


def test_traced_record_path(tmp_path, monkeypatch):
    spans = load_source(SPANS, "spans")
    child = load_source(BENCH / "child.py", "perfbench_child")
    monkeypatch.setitem(sys.modules, "spans", spans)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(SMALL)
    record = child.run_once(trace=True)
    assert record["exit_code"] == 0
    assert {"params", "inverse_residual", "equivalence_residual"} <= set(record)
    assert record["inverse_residual"] <= record["inverse_tol"]
    per_layer = {m["name"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    for name, (value, unit) in record["layers"].items():
        assert name in per_layer, name
        if unit in ("count", "s"):
            assert value > 0, name
