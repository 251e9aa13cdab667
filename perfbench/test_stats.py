"""Self-test of the benchmark's statistics helpers.

Run with: python3 -m unittest discover -s perfbench -p 'test_*.py'
(or `python3 perfbench/run.py --selftest`).
"""

import json
import math
import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.5), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 0)


class TenBeyondTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertTrue(stats.supported(1000, 0.99))
        self.assertEqual(stats.samples_beyond(999, 0.99), 9)
        self.assertFalse(stats.supported(999, 0.99))

    def test_p50_needs_twenty(self):
        self.assertTrue(stats.supported(20, 0.5))
        self.assertFalse(stats.supported(19, 0.5))


class LowestSegmentsTest(unittest.TestCase):
    def test_keeps_the_lowest_segments_in_order(self):
        # Segments of 2 rounds: medians 5, 2, 4, 1 -> the lowest half is
        # segments 1 and 3.
        values = [5, 5, 2, 2, 4, 4, 1, 1]
        self.assertEqual(stats.lowest_segments(values, 2, 0.5), [2, 3, 6, 7])

    def test_ranks_by_median_not_total(self):
        # Medians 1 and 2: one outlier does not move a segment.
        values = [1, 1, 100, 2, 2, 2]
        self.assertEqual(stats.lowest_segments(values, 3, 0.5), [0, 1, 2])

    def test_ignores_missing_samples(self):
        # Segment 0 has only its 3 (median 3), segment 1 median 4.
        values = [-1, 3, 4, 4]
        self.assertEqual(stats.lowest_segments(values, 2, 0.5), [0, 1])
        # A segment without samples ranks last.
        self.assertEqual(stats.lowest_segments([-1, -1, 9, 9], 2, 0.5),
                         [2, 3])

    def test_drops_a_trailing_partial_segment(self):
        values = [3, 3, 1, 1, 0]
        self.assertEqual(stats.lowest_segments(values, 2, 0.5), [2, 3])

    def test_keeps_at_least_one_segment(self):
        self.assertEqual(stats.lowest_segments([1, 2, 3], 3, 0.1), [0, 1, 2])

    def test_rejects_fewer_rounds_than_a_segment(self):
        with self.assertRaises(ValueError):
            stats.lowest_segments([1, 2], 3, 0.5)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.1, 2.9, 3.3, 3.0, 3.2, 2.8, 3.05, 3.15, 2.95, 3.25]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)

    def test_zero_median_is_infinite_spread(self):
        self.assertTrue(math.isinf(stats.spread([-1, 0, 0, 1])))

    def test_needs_two_values(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class ResultLineTest(unittest.TestCase):
    def test_exact_keys_and_metric_shape(self):
        line = stats.result_line(
            True, 1000, 0,
            {"latency_ms": stats.metric(1.2034, "ms"),
             "setup_s": stats.metric(0.8127, "s")})
        obj = json.loads(line)
        self.assertEqual(list(obj), ["correct", "attempted", "failed",
                                     "metrics"])
        self.assertEqual(obj["metrics"]["latency_ms"],
                         {"value": 1.2034, "unit": "ms"})
        self.assertIs(obj["correct"], True)
        self.assertIsInstance(obj["attempted"], int)

    def test_keeps_every_digit(self):
        value = 0.123456789012345
        obj = json.loads(stats.result_line(
            True, 1, 0, {"x": stats.metric(value, "s")}))
        self.assertEqual(obj["metrics"]["x"]["value"], value)

    def test_single_line(self):
        line = stats.result_line(True, 1, 0, {"x": stats.metric(1, "s")})
        self.assertNotIn("\n", line)

    def test_rejects_bad_counts_and_values(self):
        with self.assertRaises(ValueError):
            stats.result_line(True, 0, 0, {})
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, -1, {})
        with self.assertRaises(ValueError):
            stats.metric(float("nan"), "s")
        with self.assertRaises(ValueError):
            stats.result_line(True, 1, 0, {"x": {"value": 1.0}})


if __name__ == "__main__":
    unittest.main()
