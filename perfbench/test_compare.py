#!/usr/bin/env python3
"""Tests of the comparison rule in compare.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The data are two recorded sets of ten-seed runs of the same code
(`data/runs_a.jsonl`, `data/runs_b.jsonl`, written by
`compare.py collect`), so the rule is exercised against the benchmark's
real run-to-run noise.
"""

import copy
import os
import statistics
import unittest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(name):
    return compare.load_runs(os.path.join(HERE, "data", name))


def rep_seconds(runs):
    """Median wall time of one repetition of a workload's runs."""
    return statistics.median(
        r["seconds"] / r["result"]["attempted"] for r in runs)


def slowed(runs, workloads, factor):
    """A copy of `runs` whose `sessions_per_s` is divided by `factor` on
    the named workloads."""
    out = copy.deepcopy(runs)
    for w in workloads:
        for r in out[w]:
            r["result"]["metrics"]["sessions_per_s"]["value"] /= factor
    return out


class ComparisonRule(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = compare.load_spec(ROOT)
        cls.a = load("runs_a.jsonl")
        cls.b = load("runs_b.jsonl")

    def test_recorded_sets_cover_every_workload_without_failures(self):
        names = {w["name"] for w in self.spec["workloads"]}
        for runs in (self.a, self.b):
            self.assertEqual(set(runs), names)
            for rs in runs.values():
                self.assertGreaterEqual(len(rs), 10)
                self.assertTrue(all(r["result"]["failed"] == 0 for r in rs))

    def test_two_sets_of_the_same_code_agree(self):
        for parent, change in ((self.a, self.b), (self.b, self.a)):
            flagged, _ = compare.compare(self.spec, parent, change)
            self.assertEqual(flagged, [])

    def test_spreads_stay_within_bounds(self):
        for runs in (self.a, self.b):
            for w, rs in runs.items():
                for m in self.spec["end_to_end"]:
                    if m["name"] == "setup_s":
                        continue
                    s = compare.spread(compare.values(rs, m["name"]))
                    self.assertLessEqual(s, m["bound"], f"{w} {m['name']}")

    def test_slowdown_on_shortest_and_longest_workload_is_flagged(self):
        by_length = sorted(self.a, key=lambda w: rep_seconds(self.a[w]))
        shortest, longest = by_length[0], by_length[-1]
        self.assertNotEqual(shortest, longest)
        change = slowed(self.b, [shortest, longest], 1.5)
        flagged, _ = compare.compare(self.spec, self.a, change)
        hits = {(w, m) for w, m, *_ in flagged}
        self.assertEqual(hits, {(shortest, "sessions_per_s"), (longest, "sessions_per_s")})

    def test_worse_by_follows_the_metric_direction(self):
        self.assertAlmostEqual(compare.worse_by("higher", 100.0, 80.0), 0.2)
        self.assertAlmostEqual(compare.worse_by("lower", 100.0, 80.0), -0.2)
        self.assertAlmostEqual(compare.worse_by("lower", 2.0, 3.0), 0.5)

    def test_spread_is_the_interquartile_share_of_the_median(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(compare.spread(vals), (q[2] - q[0]) / 5.5)


if __name__ == "__main__":
    unittest.main()
