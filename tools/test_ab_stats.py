#!/usr/bin/env python3
"""Tests of tools/ab_stats.py on canned runs (no build, no timing).

    python3 tools/test_ab_stats.py
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_stats  # noqa: E402


def alternating(ref, new):
    """Pairs as tools/perf_vs_parent.sh runs them: ref first in odd pairs."""
    return [{"first": "ref" if i % 2 == 0 else "new", "ref": r, "new": n}
            for i, (r, n) in enumerate(zip(ref, new))]


def write_footprint_runs(runs_dir, ref, new):
    """One footprint_probe output per run, named PAIR-POS-SIDE."""
    for i, pair in enumerate(alternating(ref, new), start=1):
        order = ("ref", "new") if pair["first"] == "ref" else ("new", "ref")
        for pos, side in enumerate(order, start=1):
            with open(os.path.join(runs_dir, f"{i:02d}-{pos}-{side}"), "w") as f:
                json.dump({"nodes": 2000, "epoch_s": pair[side]}, f)


class AbStatsTest(unittest.TestCase):
    def test_pairs_won_count_a_tie_for_neither_side(self):
        ref = [10.0] * 10
        new = [9.0] * 8 + [10.0, 11.0]  # 8 faster, 1 tie, 1 slower
        s = ab_stats.summarize(alternating(ref, new), "lower")
        self.assertEqual((s["won"], s["lost"], s["pairs"]), (8, 1, 10))
        self.assertEqual(s["verdict"], "no change")  # 8/10 is not enough
        s = ab_stats.summarize(alternating(ref, new), "higher")
        self.assertEqual((s["won"], s["lost"]), (1, 8))

    def test_median_and_quartiles(self):
        s = ab_stats.summarize(alternating([float(v) for v in range(1, 11)], [5.5] * 10), "lower")
        self.assertEqual(s["ref"], (2.75, 5.5, 8.25))  # IQR 5.5
        self.assertEqual(s["new"], (5.5, 5.5, 5.5))
        self.assertAlmostEqual(s["delta"], 0.0)

    def test_position_effect_is_reported_whichever_tree_ran_second(self):
        # Both trees take 100; whichever runs second in a pair is 30% slower.
        pairs = alternating([100.0] * 10, [100.0] * 10)
        for p in pairs:
            second = "new" if p["first"] == "ref" else "ref"
            p[second] *= 1.3
        s = ab_stats.summarize(pairs, "lower")
        self.assertAlmostEqual(s["position"], 0.30)
        self.assertEqual((s["won"], s["lost"]), (5, 5))
        self.assertEqual(s["verdict"], "no change")

    def test_gain_needs_nine_pairs_and_a_gap_beyond_the_reference_iqr(self):
        ref = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]
        self.assertEqual(ab_stats.summarize(
            alternating(ref, [v * 0.8 for v in ref]), "lower")["verdict"], "GAIN")
        self.assertEqual(ab_stats.summarize(
            alternating(ref, [v * 1.25 for v in ref]), "lower")["verdict"], "LOSS")
        # Wins every pair, but by less than the reference's spread.
        self.assertEqual(ab_stats.summarize(
            alternating(ref, [v - 1.0 for v in ref]), "lower")["verdict"], "no change")
        # A big median gap, but only 8 of 10 pairs won.
        new = [v * 0.8 for v in ref[:8]] + [v * 1.01 for v in ref[8:]]
        self.assertEqual(ab_stats.summarize(alternating(ref, new), "lower")["verdict"],
                         "no change")

    def test_run_files_are_paired_by_name(self):
        ref = [5.0, 5.2, 4.9, 5.1, 5.0, 5.3, 4.8, 5.0, 5.1, 4.9]
        new = [v * 0.5 for v in ref]
        with tempfile.TemporaryDirectory() as runs_dir:
            write_footprint_runs(runs_dir, ref, new)
            unit, better, pairs = ab_stats.read_runs("footprint", runs_dir)["epoch_s"]
        self.assertEqual((unit, better), ("s", "lower"))
        self.assertEqual(pairs, alternating(ref, new))
        s = ab_stats.summarize(pairs, better)
        self.assertEqual((s["won"], s["verdict"]), (10, "GAIN"))
        self.assertAlmostEqual(s["delta"], -0.5)


if __name__ == "__main__":
    unittest.main()
