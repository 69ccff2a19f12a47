#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic (perfbench/stats.py and
the step classing of trace_summary.py). They need neither the program
nor a build:

    python3 perfbench/selftest.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
import trace_summary  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_named_percentile_when_supported(self):
        samples = list(range(1, 1001))
        self.assertEqual(stats.percentile(samples, 99), (990, 99.0, 1000))
        self.assertEqual(stats.percentile(samples, 50), (500, 50.0, 1000))

    def test_lowered_to_ten_samples_beyond(self):
        samples = list(range(1, 101))
        value, used, n = stats.percentile(samples, 99)
        self.assertEqual((value, used, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_exactly_ten_beyond_is_enough(self):
        value, used, _ = stats.percentile(list(range(1, 101)), 90)
        self.assertEqual((value, used), (90, 90.0))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(10)), 50)

    def test_order_does_not_matter(self):
        samples = [5, 3, 9, 1, 7, 2, 8, 6, 4, 10, 11, 12, 13, 14, 15, 16,
                   17, 18, 19, 20]
        self.assertEqual(stats.percentile(samples, 50)[0], 10)


class DueTimeLatency(unittest.TestCase):
    def test_stall_counts_against_queued_requests(self):
        # A closed client behind an open-loop schedule: one request due
        # every 1 ms, each served in 0.1 ms, and the server stalls 50 ms
        # on request 10. Timed from the send, only request 10 is slow;
        # timed from the due time, every request queued behind it is.
        due = [i * 1e-3 for i in range(200)]
        done, sent = [], []
        free = 0.0
        for i, u in enumerate(due):
            s = max(u, free)
            d = s + 1e-4 + (50e-3 if i == 10 else 0.0)
            sent.append(s)
            done.append(d)
            free = d
        from_send = [d - s for s, d in zip(sent, done)]
        from_due = stats.due_latencies(due, done)
        self.assertEqual(sum(1 for x in from_send if x > 5e-3), 1)
        self.assertGreater(sum(1 for x in from_due if x > 5e-3), 40)
        self.assertGreater(stats.percentile(from_due, 99)[0],
                           10 * stats.percentile(from_send, 99)[0])

    def test_generator_lateness_is_not_hidden(self):
        # The generator itself wakes 20 ms late for one request.
        due = [0.0, 0.001, 0.002]
        sent = [0.0, 0.021, 0.0211]
        done = [s + 1e-4 for s in sent]
        lat = stats.due_latencies(due, done)
        self.assertAlmostEqual(lat[1], 0.0201)
        self.assertAlmostEqual(lat[2], 0.0192)


class FailedRequests(unittest.TestCase):
    def test_failed_misses_every_limit(self):
        lat = stats.due_latencies([0.0, 1.0], [0.5, None])
        self.assertEqual(lat[1], stats.FAILED)
        self.assertTrue(all(lat[1] > limit for limit in (1e-3, 1.0, 1e9)))

    def test_failures_in_the_tail_fail_the_percentile(self):
        ok = [0.001] * 980
        failed = [stats.FAILED] * 20
        self.assertEqual(stats.percentile(ok + failed, 99)[0], math.inf)
        self.assertEqual(stats.percentile(ok + failed, 50)[0], 0.001)


class SelfTime(unittest.TestCase):
    def test_children_overlap_and_overhang(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
            {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
            {"id": 4, "parent": 1, "start": 8.0, "end": 12.0},
            {"id": 5, "parent": 2, "start": 1.5, "end": 2.0},
        ]
        own = stats.self_times(spans)
        # Children cover [1, 5] and [8, 10] of the parent.
        self.assertAlmostEqual(own[1], 4.0)
        self.assertAlmostEqual(own[2], 1.5)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 4.0)
        self.assertAlmostEqual(own[5], 0.5)

    def test_leaf_self_time_is_its_duration(self):
        own = stats.self_times([{"id": 7, "parent": 0, "start": 2.0,
                                 "end": 2.25}])
        self.assertEqual(own, {7: 0.25})


class StepClassing(unittest.TestCase):
    def test_day_at_default_periods(self):
        counts = {"physics": 0, "telemetry": 0, "control": 0}
        for t in range(1, 86401):
            counts[stats.step_class(t)] += 1
        self.assertEqual(counts, {"physics": 69120, "telemetry": 15840,
                                  "control": 1440})

    def test_control_step_also_samples(self):
        self.assertEqual(stats.step_class(120), "control")
        self.assertEqual(stats.step_class(125), "telemetry")
        self.assertEqual(stats.step_class(121), "physics")

    def test_traced_steps_classed_by_simulated_second(self):
        # Two traced windows of 120 s from t = 120, each step span as
        # long as its class costs: the medians must recover the costs.
        cost_ms = {"physics": 1.0, "telemetry": 2.0, "control": 5.0}
        doc = {"window_start": 120.0, "window_seconds": 120.0}
        spans = [{"name": "core.step", "start": 0.0,
                  "end": 1e-3 * cost_ms[stats.step_class(t)]}
                 for _ in range(2) for t in range(121, 241)]
        medians, n = trace_summary.step_medians(doc, spans)
        self.assertEqual(n, 240)
        self.assertEqual(medians.keys(), cost_ms.keys())
        for k, ms in cost_ms.items():
            self.assertAlmostEqual(medians[k], ms)


class Spread(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        values = [10, 11, 9, 10, 12, 8, 10, 10, 11, 9]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual(med, 10)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 10)


if __name__ == "__main__":
    unittest.main()
