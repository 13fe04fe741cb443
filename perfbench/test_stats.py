"""Tests of the benchmark's own arithmetic on synthetic samples.

    python3 perfbench/test_stats.py
"""

import math
import os
import sys
import unittest

sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileChoiceTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(100000), 99.99)

    def test_tail_value_is_nearest_rank(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.tail(values), (99.0, 990))
        self.assertEqual(stats.tail(list(range(1, 101))), (90.0, 90))
        self.assertIsNone(stats.tail([1.0] * 10))

    def test_percentile_ignores_input_order(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 100), 5)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 1), 1)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # The generator stalled on the second request: it went out 30 ms
        # late, and its latency includes that wait.
        due = [0.000, 0.010, 0.020]
        sent = [0.000, 0.040, 0.041]
        done = [0.002, 0.043, 0.045]
        latency, lag = stats.open_loop(due, sent, done, [True, True, True])
        self.assertEqual([round(x, 6) for x in latency], [2.0, 33.0, 25.0])
        self.assertEqual([round(x, 6) for x in lag], [0.0, 30.0, 21.0])

    def test_generator_lag_tail(self):
        due = [i * 0.001 for i in range(100)]
        sent = [u + (0.005 if i >= 95 else 0.0) for i, u in enumerate(due)]
        _, lag = stats.open_loop(due, sent, sent, [True] * 100)
        p, value = stats.tail(lag)
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(value, 0.0)
        self.assertAlmostEqual(max(lag), 5.0)


class FailureTest(unittest.TestCase):
    def test_failure_counts_as_limit_miss(self):
        latency, _ = stats.open_loop([0, 0, 0], [0, 0, 0], [0.001, 0.001, 0.001],
                                     [True, False, True])
        self.assertTrue(math.isinf(latency[1]))
        self.assertEqual(stats.limit_misses(latency, 50.0), 1)
        self.assertEqual(stats.goodput(latency, 50.0, 1.0), 2.0)

    def test_failures_sort_into_the_tail(self):
        ok = [True] * 90 + [False] * 10
        latency, _ = stats.open_loop([0] * 100, [0] * 100, [0.001] * 100, ok)
        self.assertTrue(math.isinf(stats.percentile(latency, 91)))
        self.assertAlmostEqual(stats.median(latency), 1.0)

    def test_late_answers_miss_the_limit(self):
        self.assertEqual(stats.limit_misses([10.0, 50.0, 50.1, math.inf], 50.0), 2)
        self.assertEqual(stats.goodput([10.0, 50.0, 50.1, math.inf], 50.0, 2.0), 1.0)


class ShareTest(unittest.TestCase):
    def test_unattributed_and_overhead(self):
        self.assertAlmostEqual(stats.unattributed_pct(200.0, 150.0), 25.0)
        self.assertAlmostEqual(stats.unattributed_pct(100.0, 110.0), -10.0)
        self.assertEqual(stats.unattributed_pct(0.0, 0.0), 0.0)
        self.assertAlmostEqual(stats.overhead_pct(105.0, 100.0), 5.0)

    def test_spread_is_interquartile_over_median(self):
        values = [float(v) for v in range(1, 11)]
        q1, q3 = 2.75, 8.25  # statistics.quantiles(n=4), exclusive method
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 5.5)


if __name__ == "__main__":
    unittest.main()
