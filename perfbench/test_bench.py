"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import os
import sys
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from spans import Target, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TailTest(unittest.TestCase):
    def test_hundred_samples_gives_p90(self):
        self.assertEqual(summary.tail(range(1, 101)), (90.0, 90, 10))

    def test_order_does_not_matter(self):
        values = list(range(1, 101))
        values.reverse()
        self.assertEqual(summary.tail(values), (90.0, 90, 10))

    def test_eleven_samples_keep_ten_beyond_the_smallest(self):
        pct, value, beyond = summary.tail([5.0] + [9.0 + i for i in range(10)])
        self.assertEqual((value, beyond), (5.0, 10))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_ties_push_the_rank_down(self):
        # the 11th-largest sample ties with larger ones, so only the value
        # below the tie has ten samples strictly beyond it
        values = [1.0] * 20 + [2.0] * 15
        self.assertEqual(summary.tail(values), (100 * 20 / 35, 1.0, 15))

    def test_too_few_samples(self):
        self.assertIsNone(summary.tail(range(10)))
        self.assertIsNone(summary.tail([3.0] * 40))


class SpanTest(unittest.TestCase):
    def test_self_time_from_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [1, 4]
        # holds leaf [2, 3]
        tracer.enter("outer")
        clock.now = 1
        tracer.enter("inner")
        clock.now = 2
        tracer.enter("leaf")
        clock.now = 3
        tracer.leave()
        clock.now = 4
        tracer.leave()
        clock.now = 5
        tracer.enter("inner")
        clock.now = 6
        tracer.leave()
        clock.now = 10
        tracer.leave()
        spans = tracer.spans
        self.assertEqual(spans[(None, "outer", None)].self_s, 6)
        self.assertEqual(spans[(None, "outer", None)].total_s, 10)
        inner = spans[(None, "inner", "outer")]
        self.assertEqual((inner.calls, inner.total_s, inner.self_s), (2, 4, 3))
        self.assertEqual(spans[(None, "leaf", "inner")].self_s, 1)

    def test_aggregates_stay_flat(self):
        tracer = Tracer(FakeClock())
        for _ in range(10_000):
            tracer.enter("a")
            tracer.enter("b")
            tracer.leave()
            tracer.leave()
        self.assertEqual(len(tracer.spans), 2)
        self.assertEqual(tracer.spans[(None, "b", "a")].calls, 10_000)

    def test_wrapping_and_missing_names(self):
        package = types.ModuleType("fakepkg")
        core = types.ModuleType("fakepkg.core")
        user = types.ModuleType("fakepkg.user")

        def work(x):
            return x + 1

        def items(n):
            yield from range(n)

        core.work, core.items = work, items
        user.work = work  # a caller that bound the function by import
        sys.modules.update({"fakepkg": package, "fakepkg.core": core, "fakepkg.user": user})
        try:
            tracer = Tracer()
            tracer.install([Target("core.work", "fakepkg.core", "work"),
                            Target("core.items", "fakepkg.core", "items"),
                            Target("core.gone", "fakepkg.core", "gone")], "fakepkg")
            self.assertEqual(user.work(1), 2)
            self.assertEqual(list(core.items(3)), [0, 1, 2])
            with tracer.paused():
                core.work(1)
            tracer.uninstall()
            self.assertIs(user.work, work)
        finally:
            for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
                del sys.modules[name]
        self.assertEqual(tracer.missing, {"core.gone"})
        self.assertEqual(tracer.spans[(None, "core.work", None)].calls, 1)
        # one span per resumption, including the one that ends the generator
        self.assertEqual(tracer.spans[(None, "core.items", None)].calls, 4)
        folded = layers.fold(tracer.spans)
        self.assertEqual(folded["core.gone"].calls, 0)


class SlopeTest(unittest.TestCase):
    def test_two_points_are_exact(self):
        self.assertAlmostEqual(summary.loglog_slope([(100, 1.0), (400, 16.0)]), 2.0)

    def test_least_squares_over_three_points(self):
        points = [(n, 3e-6 * n ** 1.5) for n in (1_000, 2_000, 4_000)]
        self.assertAlmostEqual(summary.loglog_slope(points), 1.5)

    def test_one_size_has_no_slope(self):
        self.assertIsNone(summary.loglog_slope([(10, 1.0), (10, 2.0)]))

    def test_deepest_flag_only(self):
        # caller and callee both grow quadratically; only the callee is
        # reported, and a linear function is not flagged
        tracer = Tracer(FakeClock())
        for n in (1_000, 4_000):
            tracer.tag = ("fam", n)
            tracer.clock.now = 0.0
            tracer.enter("caller")
            tracer.enter("callee")
            tracer.clock.now = 1e-6 * n * n
            tracer.leave()
            tracer.enter("linear")
            tracer.clock.now += 1e-4 * n
            tracer.leave()
            tracer.leave()
        fitted, deepest = layers.slopes([(1.0, tracer.spans)])
        self.assertAlmostEqual(fitted[("fam", "callee")], 2.0)
        self.assertAlmostEqual(fitted[("fam", "linear")], 1.0)
        self.assertGreater(fitted[("fam", "caller")], layers.SLOPE_FLAG)
        self.assertEqual([name for name, _, _ in deepest], ["callee"])


class SpeedFactorTest(unittest.TestCase):
    def test_slow_host_scales_down(self):
        # the loop took 1.5 and 2.5 ms against a 1 ms reference
        self.assertAlmostEqual(summary.speed_factor([1.5e-3, 2.5e-3], 1e-3), 0.5)

    def test_needs_samples(self):
        with self.assertRaises(ValueError):
            summary.speed_factor([], 1e-3)

    def test_scaling_a_pass_with_two_speeds(self):
        # one traced pass at factor 0.5 and one at 1.0 report the same
        # reference time for the same work
        spans_slow = {(("fam", 10), "f", None): layers.Aggregate(1, 4.0, 4.0, 0)}
        spans_fast = {(("fam", 10), "f", None): layers.Aggregate(1, 2.0, 2.0, 0)}
        typical = layers.typical([(0.5, spans_slow), (1.0, spans_fast)])
        self.assertEqual(typical["f"].self_s, 2.0)


class ErrorRateTest(unittest.TestCase):
    def test_base_is_attempted(self):
        self.assertEqual(summary.error_rate(0, 41), 0.0)
        self.assertEqual(summary.error_rate(2, 8), 0.25)

    def test_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            summary.error_rate(0, 0)
        with self.assertRaises(ValueError):
            summary.error_rate(5, 4)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(summary.ratio(3, 0), 0.0)


class SweepTotalsTest(unittest.TestCase):
    def test_shards_partition_the_main_sweep(self):
        for max_n, pairs in ((workloads.MAIN_MAX_N, workloads.MAIN_PAIRS), (7, 89_629)):
            for shards in (1, 7, workloads.MAIN_SHARDS, 1000):
                total = sum(workloads.shard_pairs(i, shards, max_n) for i in range(shards))
                self.assertEqual(total, pairs)

    def test_lemma_tree_count(self):
        self.assertEqual(sum(max(1, n ** (n - 2)) for n in range(1, workloads.LEMMA_MAX_N + 1)),
                         workloads.LEMMA_TREES)

    def test_pairs_per_pass(self):
        groups = [workloads.Group(None, [op]) for op in workloads.sweep_ops()]
        self.assertEqual(workloads.pairs_per_pass(groups), workloads.MAIN_PAIRS)


class CheckTest(unittest.TestCase):
    def forest(self):
        # path 0-1-2-3
        return types.SimpleNamespace(n=4, edges=((0, 1), (1, 2), (2, 3)))

    def test_valid_coloring(self):
        self.assertIsNone(workloads.valid_coloring(self.forest(), 2, [1, 2, 1, 2]))
        self.assertIsNone(workloads.valid_coloring(self.forest(), 3, [1, 2, 3, 1]))

    def test_alpha_containing(self):
        path = self.forest()
        self.assertEqual([workloads.alpha_containing(path, x) for x in range(4)], [2, 2, 2, 2])
        star = types.SimpleNamespace(n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)))
        self.assertEqual(workloads.alpha_containing(star, 0), 1)
        self.assertEqual(workloads.alpha_containing(star, 3), 4)

    def test_reaches_half(self):
        self.assertTrue(workloads.reaches_half(self.forest()))
        star = types.SimpleNamespace(n=4, edges=((0, 1), (0, 2), (0, 3)))
        self.assertFalse(workloads.reaches_half(star))
        # two stars: sides (1, 3) twice; 1 + 3 = floor(8/2)
        stars = types.SimpleNamespace(n=8, edges=((0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)))
        self.assertTrue(workloads.reaches_half(stars))

    def test_invalid_colorings(self):
        f = self.forest()
        self.assertIn("inside class", workloads.valid_coloring(f, 2, [1, 1, 2, 2]))
        self.assertIn("differ", workloads.valid_coloring(f, 3, [1, 2, 1, 2]))
        self.assertIn("outside", workloads.valid_coloring(f, 2, [1, 2, 3, 1]))
        self.assertIn("covers", workloads.valid_coloring(f, 2, [1, 2]))


if __name__ == "__main__":
    unittest.main()
