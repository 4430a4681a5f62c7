"""Self-tests of the benchmark (not part of the package's test suite).

Run from the repository root:  python3 perfbench/selftest.py

One small traced pipeline call (complex-damped, N=40, forced) backs the
counter and output-check tests; it takes about half a minute.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

SMALL = ("grid.L = 5\ngrid.N = 40\nforcing.amplitude = 0.5\n"
         "output.dir = out\nseed = 0\n")

# Every layer runs on SMALL: selection runs trials, the forcing makes the
# solve call apply_full at every stage, and the Garding floors run at N <= 256.


class SelfTime(unittest.TestCase):
    def test_duration_minus_child_covered_time(self):
        # name, start, end, parent
        fake = [["outer", 0.0, 10.0, -1],
                ["a", 1.0, 3.0, 0],
                ["b", 2.0, 4.0, 0],     # overlaps a: covered once
                ["c", 8.0, 12.0, 0],    # clipped at the parent's end
                ["d", 1.5, 2.5, 1]]     # grandchild: a's, not outer's
        self.assertEqual(spans.self_times(fake), [10.0 - 3.0 - 2.0, 1.0, 2.0, 4.0, 1.0])

    def test_recorded_spans(self):
        rec = spans.Recorder()
        inner = rec.span("inner", lambda: sum(range(20000)))
        outer = rec.span("outer", lambda: (inner(), inner()))
        outer()
        (_, o0, o1, _), *kids = rec.spans
        inclusive, selfs = rec.totals()
        self.assertEqual(rec.counts["inner_calls"], 2)
        self.assertAlmostEqual(selfs["outer"],
                               (o1 - o0) - sum(k[2] - k[1] for k in kids), places=12)
        self.assertAlmostEqual(inclusive["inner"], selfs["inner"], places=12)


class Bindings(unittest.TestCase):
    def test_every_binding_patched_then_restored(self):
        sys.path.insert(0, os.path.abspath("src"))
        from gevrey_evolve import conjugate, harness, positivity, symbols
        originals = (symbols.check_assumptions, conjugate.build_conjugator)
        with spans.traced(spans.Recorder()):
            for mod in (harness, positivity):
                self.assertIs(mod.check_assumptions, symbols.check_assumptions)
                self.assertIs(mod.build_conjugator, conjugate.build_conjugator)
            self.assertIs(symbols.check_assumptions.__wrapped__, originals[0])
        self.assertEqual((symbols.check_assumptions, conjugate.build_conjugator),
                         originals)
        for mod in (harness, positivity):
            self.assertIs(mod.check_assumptions, originals[0])
            self.assertIs(mod.build_conjugator, originals[1])


class SmallTracedCall(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.record = run.call(SMALL, trace=True)

    def test_call_succeeded(self):
        self.assertNotIn("error", self.record)

    def test_counters_nonzero_where_layer_runs(self):
        layers = run.layer_report(self.record, base_run_s=0.0)
        for name, (value, unit) in layers.items():
            if unit in ("count", "s"):
                self.assertGreater(value, 0, name)
        # once through harness, once inside select_parameters_detailed
        self.assertEqual(layers["symbols.check_assumptions_calls"][0], 2)
        # each selection trial (positivity) plus the harness rebuild
        self.assertEqual(layers["conjugate.build_conjugator_calls"][0],
                         layers["positivity.select_trials"][0] + 1)

    def test_layer_names_match_benchmark_json(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        layers = run.layer_report(self.record, base_run_s=0.0)
        self.assertEqual(sorted(m["name"] for m in bench["per_layer"]), sorted(layers))
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], layers[m["name"]][1], m["name"])
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertLessEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))

    def test_perturbed_reference_fails(self):
        good = run.reference_from(self.record)
        passing = run.Tally("small", good)
        passing.add(dict(self.record))
        self.assertEqual((passing.failed, passing.attempted), (0, 1))

        for perturb in (
                lambda ref: ref["trajectory"]["l2"].__setitem__(
                    -1, ref["trajectory"]["l2"][-1] * (1 + 1e-4)),
                lambda ref: ref["params"].__setitem__("h", ref["params"]["h"] * 2),
                lambda ref: ref.__setitem__("positivity_passed", False)):
            bad = json.loads(json.dumps(good))
            perturb(bad)
            failing = run.Tally("small", bad)
            failing.add(dict(self.record))
            self.assertEqual((failing.failed, failing.attempted), (1, 1))
            self.assertTrue(failing.failures)

    def test_tolerance_is_tied_to_inverse_tol(self):
        ref = run.reference_from(self.record)
        scale = max(abs(v) for v in ref["trajectory"]["l2"])
        rtol = run.VALUE_TOL_FACTOR * self.record["inverse_tol"]
        ref["trajectory"]["l2"][0] += 0.5 * rtol * scale
        self.assertEqual(run.check(self.record, ref), [])
        ref["trajectory"]["l2"][0] += 1.0 * rtol * scale
        self.assertEqual(len(run.check(self.record, ref)), 1)


if __name__ == "__main__":
    unittest.main()
