"""The layers that perfbench/spans.py traces must exist in the package, so
that renaming one fails here instead of in a traced benchmark run."""

import pathlib
import types

import gevrey_evolve  # noqa: F401  (imports every traced module)

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """spans.py executed from its source text; nothing is written beside it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module, path, name, _timed, _hook in spans.TARGETS:
        owner, attr = spans._resolve(module, path)
        assert callable(vars(owner).get(attr)), f"{name}: {module}.{path} is gone"
