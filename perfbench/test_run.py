"""Tests of run.py's result parsing and spread arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class ParseResultTest(unittest.TestCase):
    GOOD = {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"}}}

    def test_last_line_wins(self):
        out = "build noise\n" + json.dumps(self.GOOD) + "\n"
        self.assertEqual(run.parse_result(out), self.GOOD)

    def test_rejects_extra_or_missing_keys(self):
        bad = dict(self.GOOD, extra=1)
        self.assertIsNone(run.parse_result(json.dumps(bad)))
        bad = {k: v for k, v in self.GOOD.items() if k != "failed"}
        self.assertIsNone(run.parse_result(json.dumps(bad)))

    def test_rejects_non_numeric_metric(self):
        bad = dict(self.GOOD, metrics={"p50_ms": {"value": "1", "unit": "ms"}})
        self.assertIsNone(run.parse_result(json.dumps(bad)))

    def test_rejects_garbage(self):
        self.assertIsNone(run.parse_result(""))
        self.assertIsNone(run.parse_result("not json"))


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3, s = run.spread([1, 2, 3, 4])
        self.assertEqual((q1, med, q3), (1.25, 2.5, 3.75))
        self.assertAlmostEqual(s, 1.0)

    def test_constant_values_have_zero_spread(self):
        self.assertEqual(run.spread([5.0] * 10)[3], 0.0)


if __name__ == "__main__":
    unittest.main()
