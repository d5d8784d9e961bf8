"""Tests of the benchmark harness's statistics, trace analysis and report
comparison. Run with: python3 -m unittest discover bench/e2e"""

import unittest

import analysis
import compare


def span(name, start, end, pid=0, tid=0):
    return {"name": name, "start": float(start), "end": float(end), "pid": pid, "tid": tid}


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(analysis.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))
        self.assertEqual(analysis.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertAlmostEqual(analysis.relative_iqr(list(range(1, 11))), 5.5 / 5.5)

    def test_summary_reports_median_quartiles_and_n(self):
        s = analysis.summary([4.0, 1.0, 3.0, 2.0, 5.0])
        self.assertEqual((s["median"], s["n"]), (3.0, 5))
        self.assertLess(s["q1"], s["median"])
        self.assertGreater(s["q3"], s["median"])

    def test_percentile_interpolates(self):
        self.assertEqual(analysis.percentile([10, 20, 30, 40], 50), 25)
        self.assertEqual(analysis.percentile([10, 20, 30, 40], 100), 40)
        self.assertEqual(analysis.percentile([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        # n=10: not even the median has ten samples beyond it.
        self.assertEqual(analysis.samples_beyond(10, 50), 5)
        self.assertEqual(analysis.tail(list(range(10))), (50.0, 4.5))
        self.assertEqual(analysis.tail(list(range(20)))[0], 50.0)
        self.assertEqual(analysis.samples_beyond(100, 90), 10)
        self.assertEqual(analysis.tail(list(range(100)))[0], 90.0)
        self.assertEqual(analysis.tail(list(range(500)))[0], 90.0)
        self.assertEqual(analysis.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(analysis.tail(list(range(10000)))[0], 99.9)


class Traces(unittest.TestCase):
    def nested_step(self):
        return [
            span("chunk", 0, 100),
            span("sweep", 0, 60),
            span("sweep-batch", 0, 50),
            span("sync", 60, 90),
            span("isend", 62, 64),
            span("recv-wait", 70, 85),
            span("update", 90, 98),
            span("iteration-hooks", 100, 110),
            span("cost-record", 101, 109),
            span("allreduce", 102, 108),
            span("snapshot-write", 20, 80, tid=9),  # background lane: not step time
        ]

    def test_self_time_subtracts_direct_children(self):
        spans = analysis.nest(self.nested_step())
        by_name = {s["name"]: s for s in spans}
        self.assertEqual(by_name["chunk"]["self"], 2)
        self.assertEqual(by_name["sweep"]["self"], 10)
        self.assertEqual(by_name["sync"]["self"], 13)
        self.assertEqual(by_name["recv-wait"]["self"], 15)
        self.assertIsNone(by_name["snapshot-write"]["parent"])

    def test_step_breakdown_shares_and_conservation(self):
        totals, step_us, self_sum, chunks = analysis.step_breakdown(self.nested_step())
        self.assertEqual(step_us, 110)
        self.assertEqual(self_sum, 110)
        self.assertEqual(chunks, {0: [100]})
        self.assertEqual(totals, {"sweep": 60, "sync": 15, "recv_wait": 15, "update": 8,
                                  "cost": 8, "checkpoint": 0, "unattributed": 4})

    def test_child_running_past_its_parent_breaks_conservation(self):
        spans = [span("chunk", 0, 10), span("sync", 5, 15)]
        _, step_us, self_sum, _ = analysis.step_breakdown(spans)
        self.assertEqual((step_us, self_sum), (10, 15))

    def test_hidden_io_ratio(self):
        spans = self.nested_step()
        self.assertEqual(analysis.hidden_io_ratio(spans), 1.0)
        spans.append(span("pass-wait", 110, 120))  # a stall on the write is not busy
        spans.append(span("snapshot-write", 110, 120, tid=9))
        self.assertAlmostEqual(analysis.hidden_io_ratio(spans), 60 / 70)
        self.assertIsNone(analysis.hidden_io_ratio([span("chunk", 0, 1)]))


class Compare(unittest.TestCase):
    BASE = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00]

    def scaled(self, factor):
        return [v * factor for v in self.BASE]

    def test_relative_bound_lower_is_better(self):
        self.assertEqual(compare.verdict(self.BASE, self.scaled(1.2), 0.1, "lower")[0],
                         "regressed")
        self.assertEqual(compare.verdict(self.BASE, self.scaled(1.05), 0.1, "lower")[0],
                         "unchanged")
        self.assertEqual(compare.verdict(self.BASE, self.scaled(0.8), 0.1, "lower")[0],
                         "improved")

    def test_relative_bound_higher_is_better(self):
        self.assertEqual(compare.verdict(self.BASE, self.scaled(0.8), 0.1, "higher")[0],
                         "regressed")
        self.assertEqual(compare.verdict(self.BASE, self.scaled(1.2), 0.1, "higher")[0],
                         "improved")

    def test_absolute_floor_widens_a_small_metric(self):
        base = [0.010, 0.0101, 0.0099, 0.010]
        plus_10pct = [v * 1.1 for v in base]
        plus_30pct = [v * 1.3 for v in base]
        self.assertEqual(compare.verdict(base, plus_10pct, 0.05, "lower")[0], "regressed")
        self.assertEqual(compare.verdict(base, plus_10pct, 0.05, "lower", 0.002)[0],
                         "unchanged")
        self.assertEqual(compare.verdict(base, plus_30pct, 0.05, "lower", 0.002)[0],
                         "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1]
        self.assertEqual(compare.verdict(self.BASE, noisy, 0.1, "lower")[0], "unresolved")
        separated = [0.5, 0.7, 0.55, 0.6, 0.65]
        self.assertEqual(compare.verdict(self.BASE, separated, 0.1, "lower")[0], "improved")

    def test_more_failed_runs_is_a_regression(self):
        spec = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}]}

        def report(failed):
            return {"workloads": {"w": {
                "attempted": 10, "failed": failed,
                "end_to_end": {"t": analysis.summary(self.BASE)}}}}

        rows = compare.compare(report(0), report(1), spec)
        self.assertEqual([r[4] for r in rows], ["unchanged", "regressed"])


if __name__ == "__main__":
    unittest.main()
