"""Self-tests for the benchmark's helpers (no program run needed).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ledger  # noqa: E402
import spans  # noqa: E402
import surface  # noqa: E402
from inputs import edit_line, make_inputs  # noqa: E402
from procs import CliRun  # noqa: E402
import workloads  # noqa: E402
from workloads import tally_cli  # noqa: E402

REGRESS_OUTPUT = """\
test           golden  rtl   silicon
-------------  ------  ----  -------
NVM/TEST_A     pass    pass  pass
UART/TEST_B    pass    fail  pass
regression on sc88b: 5/6 runs ok, 1 divergence(s)
  4 run(s) executed, 2 served from cache
engine-stats: jit_chains=3 sb_replays=10
store-stats: saved=2 hits=0
"""

REFERENCE = {
    ("NVM", "TEST_A", "golden"): ("pass", 1, 10, 20),
    ("NVM", "TEST_A", "rtl"): ("pass", 1, 10, 20),
    ("NVM", "TEST_A", "silicon"): ("pass", None, 10, 20),
    ("UART", "TEST_B", "golden"): ("pass", 2, 11, 21),
    ("UART", "TEST_B", "rtl"): ("fail", 2, 11, 21),
    ("UART", "TEST_B", "silicon"): ("pass", None, 11, 21),
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(make_inputs(7), make_inputs(7))
        self.assertEqual(edit_line(7), edit_line(7))

    def test_seeds_vary_the_inputs(self):
        drawn = {make_inputs(seed) for seed in range(20)}
        self.assertEqual(len(drawn), 20)
        for inputs in drawn:
            self.assertEqual(sorted(inputs.pack_order), list(range(6)))


class SelfTimeTest(unittest.TestCase):
    def test_nested_wrappers_split_self_time(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)
        inner = tracer.wrap("inner", lambda seconds: clock.advance(seconds))

        def body():
            clock.advance(1.0)
            inner(2.0)
            clock.advance(0.5)
            inner(3.0)

        outer = tracer.wrap("outer", body)
        outer()
        totals = spans.layer_totals(tracer.spans)
        self.assertAlmostEqual(totals["outer"]["self_s"], 1.5)
        self.assertAlmostEqual(totals["inner"]["self_s"], 5.0)
        self.assertEqual(totals["inner"]["calls"], 2)
        self.assertAlmostEqual(spans.top_level_time(tracer.spans), 6.5)
        outer_id = next(s[0] for s in tracer.spans if s[2] == "outer")
        self.assertEqual(
            {s[1] for s in tracer.spans if s[2] == "inner"}, {outer_id}
        )

    def test_same_layer_recursion_is_not_double_counted(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def save():
            clock.advance(1.0)

        saver = tracer.wrap("store", save)

        def persist():
            clock.advance(0.25)
            saver()

        tracer.wrap("store", persist)()
        totals = spans.layer_totals(tracer.spans)
        self.assertAlmostEqual(totals["store"]["self_s"], 1.25)

    def test_exception_still_records_and_unwinds(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def boom():
            clock.advance(1.0)
            raise ValueError("x")

        failing = tracer.wrap("inner", boom)

        def body():
            clock.advance(1.0)
            with self.assertRaises(ValueError):
                failing()

        tracer.wrap("outer", body)()
        totals = spans.layer_totals(tracer.spans)
        self.assertAlmostEqual(totals["outer"]["self_s"], 1.0)
        self.assertAlmostEqual(totals["inner"]["self_s"], 1.0)

    def test_threads_keep_separate_stacks(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap("leaf", lambda: None)
        worker = threading.Thread(target=leaf)
        tracer.wrap("outer", lambda: (worker.start(), worker.join()))()
        leaf_span = next(s for s in tracer.spans if s[2] == "leaf")
        self.assertEqual(leaf_span[1], 0)

    def test_counts_and_windows(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)
        run = tracer.wrap(
            "session.run",
            lambda: clock.advance(1.0),
            after=lambda args, kwargs, result, state: {"instructions": 4},
        )
        run()
        run()
        clock.advance(10.0)
        run()
        figures = ledger.layer_figures(tracer.spans, window=(0.0, 5.0))
        self.assertEqual(figures["session.runs"], 2)
        self.assertEqual(figures["session.instructions"], 8)
        self.assertAlmostEqual(figures["session.execute_self_s"], 2.0)
        self.assertAlmostEqual(figures["session.ms_per_run"], 1000.0)


class VerdictCheckTest(unittest.TestCase):
    def test_parse_regress(self):
        statuses, counts = surface.parse_regress(REGRESS_OUTPUT)
        self.assertEqual(len(statuses), 6)
        self.assertEqual(statuses[("UART", "TEST_B", "rtl")], "fail")
        self.assertEqual(counts["executed_runs"], 4)
        self.assertEqual(counts["cached_runs"], 2)
        self.assertEqual(counts["engine-stats.jit_chains"], 3)
        self.assertEqual(counts["store-stats.saved"], 2)

    def _run(self, output, returncode=1):
        return CliRun(["regress", "ws"], 1.0, 50.0, returncode, output)

    def test_matching_runs_pass(self):
        outcome = tally_cli(REFERENCE, [self._run(REGRESS_OUTPUT)] * 3)
        self.assertEqual((outcome.attempted, outcome.failed), (3, 0))
        self.assertEqual(outcome.problems, [])

    def test_corrupted_verdict_counts_in_error_rate(self):
        corrupted = REGRESS_OUTPUT.replace(
            "NVM/TEST_A     pass    pass", "NVM/TEST_A     pass    fail"
        )
        self.assertNotEqual(corrupted, REGRESS_OUTPUT)
        outcome = tally_cli(
            REFERENCE,
            [self._run(REGRESS_OUTPUT), self._run(corrupted),
             self._run(REGRESS_OUTPUT)],
        )
        self.assertEqual((outcome.attempted, outcome.failed), (3, 1))
        self.assertIn("NVM/TEST_A/rtl", outcome.problems[0])

    def test_missing_entry_and_quarantine_fail(self):
        truncated = REGRESS_OUTPUT.replace("UART/TEST_B    pass    fail  pass\n", "")
        self.assertTrue(surface.regress_failures(REFERENCE, truncated, 1))
        quarantined = REGRESS_OUTPUT + "  fault tolerance: 1 retried, 0 degraded, 1 quarantined\n"
        self.assertTrue(surface.regress_failures(REFERENCE, quarantined, 1))

    def test_count_drift_fails_the_benchmark(self):
        drifted = REGRESS_OUTPUT.replace("jit_chains=3", "jit_chains=4")
        outcome = tally_cli(
            REFERENCE, [self._run(REGRESS_OUTPUT), self._run(drifted)]
        )
        self.assertEqual(outcome.failed, 0)
        self.assertTrue(any("engine-stats.jit_chains" in p for p in outcome.problems))

    def test_stream_check(self):
        events = [
            {"event": "cell", "environment": "NVM", "cell": "TEST_A",
             "target": target, "status": "pass", "quarantined": False}
            for target in ("golden", "rtl", "silicon")
        ] + [{"event": "done"}]
        self.assertEqual(surface.stream_failures(REFERENCE, events, "NVM"), [])
        events[1] = dict(events[1], status="fail")
        self.assertTrue(surface.stream_failures(REFERENCE, events, "NVM"))
        self.assertTrue(surface.stream_failures(REFERENCE, events[:-1], "NVM"))


class ScalingTest(unittest.TestCase):
    def test_wall_scales_with_the_probes_around_it(self):
        reference = workloads.REFERENCE_PROBE_S
        self.assertAlmostEqual(
            workloads._scaled(1.0, [reference, reference]), 1.0
        )
        # A host running at half speed doubles both the run and the
        # probes, so the scaled time does not move.
        self.assertAlmostEqual(
            workloads._scaled(2.0, [1.5 * reference, 2.5 * reference]), 1.0
        )


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 121))
        self.assertEqual(ledger.percentile(values, 0.9), 108)
        self.assertEqual(sum(v > 108 for v in values), 12)
        self.assertEqual(ledger.percentile([3.0], 0.9), 3.0)


if __name__ == "__main__":
    unittest.main()
