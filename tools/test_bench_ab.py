"""Tests of the A/B gate's report merge and its verdicts through
compare.py. Run with: python3 -m unittest discover tools"""

import json
import os
import unittest

import bench_ab

import analysis
import compare

with open(os.path.join(bench_ab.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def report(values, failed=0, attempted=None, workload="gd-small"):
    """A run.py report of one workload whose every end-to-end metric of
    BENCHMARK.json took `values`."""
    entry = {"seed": 42, "failures": [["run0", "exit code 1"]] * failed, "failed": failed,
             "attempted": len(values) + failed if attempted is None else attempted,
             "end_to_end": {m["name"]: analysis.summary(values) for m in SPEC["end_to_end"]}}
    return {"schema": "ptycho.bench-e2e.v1", "provenance": {}, "workloads": {workload: entry}}


class Merge(unittest.TestCase):
    def test_concatenates_values_and_sums_counts(self):
        merged = bench_ab.merge([report([1.0, 2.0], failed=1), report([3.0], attempted=4)])
        entry = merged["workloads"]["gd-small"]
        for metric in SPEC["end_to_end"]:
            self.assertEqual(entry["end_to_end"][metric["name"]]["values"], [1.0, 2.0, 3.0])
        self.assertEqual((entry["failed"], entry["attempted"]), (1, 7))
        self.assertEqual(len(entry["failures"]), 1)

    def test_quartiles_are_those_of_the_pooled_values(self):
        rounds = [[5.0, 1.0, 4.0], [2.0, 8.0], [3.0, 7.0, 6.0, 9.0]]
        merged = bench_ab.merge([report(v) for v in rounds])
        pooled = [x for v in rounds for x in v]
        summary = merged["workloads"]["gd-small"]["end_to_end"]["scaled_time_to_solution_s"]
        self.assertEqual(summary, analysis.summary(pooled))

    def test_keeps_workloads_apart(self):
        merged = bench_ab.merge([report([1.0]), report([2.0], workload="gd-tiny-sync")])
        self.assertEqual(sorted(merged["workloads"]), ["gd-small", "gd-tiny-sync"])


class Workloads(unittest.TestCase):
    def test_gates_only_declared_workloads_and_covers_the_fast_tier(self):
        declared = {w["name"] for w in SPEC["workloads"]}
        self.assertLessEqual(set(bench_ab.WORKLOADS), declared)
        self.assertEqual(len(set(bench_ab.WORKLOADS)), len(bench_ab.WORKLOADS))
        self.assertIn("gd-small-fast", bench_ab.WORKLOADS)
        self.assertIn("gd-small-socket", bench_ab.WORKLOADS)


class Verdicts(unittest.TestCase):
    ROUNDS = [[1.00, 1.02, 0.99, 1.01], [1.03, 0.98, 1.00]]

    def merged(self, failed=0):
        reports = [report(v) for v in self.ROUNDS]
        reports[-1]["workloads"]["gd-small"]["failed"] = failed
        reports[-1]["workloads"]["gd-small"]["attempted"] += failed
        return bench_ab.merge(reports)

    def test_identical_reports_do_not_regress(self):
        rows = compare.compare(self.merged(), self.merged(), SPEC)
        self.assertEqual([r for r in rows if r[4] == "regressed"], [])
        self.assertEqual({r[4] for r in rows}, {"unchanged"})

    def test_one_failed_run_in_head_regresses(self):
        rows = compare.compare(self.merged(), self.merged(failed=1), SPEC)
        regressed = [(r[0], r[1]) for r in rows if r[4] == "regressed"]
        self.assertEqual(regressed, [("gd-small", "failed_runs_ratio")])


if __name__ == "__main__":
    unittest.main()
