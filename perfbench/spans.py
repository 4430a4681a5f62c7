"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``traced()`` replaces
every binding of each layer function listed in ``TARGETS`` -- the defining
module's attribute and every ``from .x import y`` copy in the other
``gevrey_evolve`` modules -- with a wrapper, and restores them on exit.
Methods are patched on their class, which every caller shares.
"""

import contextlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "gevrey_evolve"


class Recorder:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn, hook=None):
        """Wrap fn in a timed span; hook(counts, args, kwargs, result)."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            counts[name + "_calls"] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        """Wrap fn so that each call only increments a counter."""
        counts = self.counts
        key = name + "_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self):
        """Per span name: (inclusive seconds, self seconds)."""
        inclusive, selfs = defaultdict(float), defaultdict(float)
        for (name, start, end, _parent), own in zip(self.spans, self_times(self.spans)):
            inclusive[name] += end - start
            selfs[name] += own
        return inclusive, selfs


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _elems(counts, args, kwargs, result):
    counts["weights.smooth_step_elems"] += int(getattr(result, "size", 1))


def _neumann_terms(counts, args, kwargs, result):
    counts["conjugate.neumann_terms_total"] += int(result.series_terms)


def _selection(counts, args, kwargs, result):
    history = result[1].get("history", [])
    counts["positivity.select_trials"] += len(history)
    counts["positivity.select_accepted"] += sum(1 for t in history if t.get("passed"))


# (module, attribute path, span name, timed?, hook).  Every call of a
# timed entry is a span; the others only count calls, so their time stays
# in the self time of the span around them.
TARGETS = [
    ("harness", "run_pipeline", "harness.run_pipeline", True, None),
    ("symbols", "check_assumptions", "symbols.check_assumptions", True, None),
    ("symbols", "estimate_seminorm", "symbols.estimate_seminorm", True, None),
    ("weights", "smooth_step", "weights.smooth_step", True, _elems),
    ("conjugate", "build_phase_tables", "conjugate.build_phase_tables", True, None),
    ("conjugate", "build_conjugator", "conjugate.build_conjugator", True, _neumann_terms),
    ("conjugate", "ConjugationAssembler.__init__", "conjugate.assembler_init", False, None),
    ("conjugate", "ConjugationAssembler.at", "conjugate.assembler_at", True, None),
    ("conjugate", "ConjugatorBundle.apply_full", "conjugate.apply_full", True, None),
    ("conjugate", "ConjugatorBundle.apply_full_inverse", "conjugate.apply_full_inverse", True, None),
    ("quantize", "operator_norm", "quantize.operator_norm", True, None),
    ("quantize", "to_dense", "quantize.to_dense", True, None),
    ("positivity", "select_parameters_detailed", "positivity.select", True, _selection),
    ("positivity", "calibrate_time_weight", "positivity.calibrate", True, None),
    ("positivity", "verify_lower_bounds", "positivity.verify_lower_bounds", True, None),
    ("positivity", "discrete_garding", "positivity.discrete_garding", True, None),
    ("evolve", "solve_original", "evolve.solve_original", True, None),
    ("evolve", "solve_conjugated", "evolve.solve_conjugated", True, None),
    ("evolve", "step", "evolve.step", True, None),
    ("evolve", "gevrey_norm", "evolve.gevrey_norm", False, None),
    ("evolve", "radius_fit", "evolve.radius_fit", False, None),
    ("grid", "Grid.forward", "grid.forward", False, None),
    ("grid", "Grid.inverse", "grid.inverse", False, None),
]


def _resolve(module, path):
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def traced(recorder, targets=TARGETS):
    """Patch every binding of each target for the duration of the block."""
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    restore = []
    try:
        for module, path, name, timed, hook in targets:
            owner, attr = _resolve(module, path)
            orig = vars(owner)[attr]
            wrapper = (recorder.span(name, orig, hook) if timed
                       else recorder.count(name, orig))
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)
        yield recorder
    finally:
        for holder, key, orig in reversed(restore):
            setattr(holder, key, orig)


def layer_metrics(recorder):
    """The per-layer metrics of one traced pipeline call: name -> (value, unit)."""
    c = recorder.counts
    inclusive, selfs = recorder.totals()
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in ("symbols.check_assumptions", "symbols.estimate_seminorm",
                 "weights.smooth_step", "conjugate.build_phase_tables",
                 "conjugate.build_conjugator", "conjugate.assembler_at",
                 "quantize.operator_norm", "quantize.to_dense",
                 "positivity.calibrate", "positivity.verify_lower_bounds",
                 "positivity.discrete_garding", "evolve.solve_conjugated",
                 "evolve.step"):
        put(name + "_calls", c[name + "_calls"], "count")
        put(name + "_s", inclusive[name], "s")
    put("weights.smooth_step_elems", c["weights.smooth_step_elems"], "count")
    calls = c["weights.smooth_step_calls"]
    put("weights.smooth_step_elems_per_call",
        c["weights.smooth_step_elems"] / calls if calls else 0.0, "count")
    put("conjugate.neumann_terms_total", c["conjugate.neumann_terms_total"], "count")
    put("conjugate.assembler_builds", c["conjugate.assembler_init_calls"], "count")
    put("conjugate.apply_full_calls", c["conjugate.apply_full_calls"], "count")
    put("conjugate.apply_full_inverse_calls", c["conjugate.apply_full_inverse_calls"],
        "count")
    put("conjugate.apply_s", inclusive["conjugate.apply_full"]
        + inclusive["conjugate.apply_full_inverse"], "s")
    trials = c["positivity.select_trials"]
    put("positivity.select_s", inclusive["positivity.select"], "s")
    put("positivity.select_trials", trials, "count")
    put("positivity.select_accepted", c["positivity.select_accepted"], "count")
    put("positivity.select_accept_ratio",
        c["positivity.select_accepted"] / trials if trials else 0.0, "ratio")
    put("evolve.pullback_s", selfs["evolve.solve_original"], "s")
    put("evolve.gevrey_norm_calls", c["evolve.gevrey_norm_calls"], "count")
    put("evolve.radius_fit_calls", c["evolve.radius_fit_calls"], "count")
    put("grid.fft_calls", c["grid.forward_calls"] + c["grid.inverse_calls"], "count")
    put("harness.run_pipeline_self_s", selfs["harness.run_pipeline"], "s")
    return out
