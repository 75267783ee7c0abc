"""Tests for compare mode in run.py: verdicts against bounds,
interleaving, failure accounting and reconciliation flags."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402

SPEC = {
    "end_to_end": [{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}],
    "per_layer": [{"name": "reconcile.failed", "unit": "count", "better": "lower"}],
}


def around(c):
    return [c * (1 + 0.001 * i) for i in range(10)]


def record(started, value, failed=0, correct=True, reconcile_failed=None):
    metrics = {"p50_us": {"value": value, "unit": "us"}}
    if reconcile_failed is not None:
        metrics["reconcile.failed"] = {"value": reconcile_failed, "unit": "count"}
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    return json.dumps({"workload": "query_read", "started": started, "result": result})


class Judge(unittest.TestCase):
    def verdict(self, better, bound, old, new):
        return run.judge(better, bound, old, new)[0]

    def test_verdicts(self):
        self.assertEqual(self.verdict("lower", 0.1, around(100), around(105)), "unchanged")
        self.assertEqual(self.verdict("lower", 0.1, around(100), around(120)), "REGRESSION")
        self.assertEqual(self.verdict("lower", 0.1, around(100), around(80)), "improved")
        self.assertEqual(self.verdict("higher", 0.1, around(100), around(80)), "REGRESSION")
        noisy = [50.0, 80.0, 100.0, 120.0, 150.0]
        self.assertEqual(self.verdict("lower", 0.1, noisy, around(100)), "unresolved")
        self.assertEqual(self.verdict("lower", 0.1, noisy, [x / 10 for x in noisy]), "improved")
        self.assertEqual(self.verdict("lower", None, around(1), around(9)), "-")

    def test_spread_uses_python_quartiles(self):
        # statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(run.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)


class Interleaving(unittest.TestCase):
    def side(self, times):
        return [{"started": t} for t in times]

    def test_alternating_pairs_pass(self):
        # old new | new old | old new
        self.assertTrue(run.interleaved(self.side([0, 3, 4]), self.side([1, 2, 5])))

    def test_blocks_fail(self):
        self.assertFalse(run.interleaved(self.side([0, 1, 2]), self.side([3, 4, 5])))


class Compare(unittest.TestCase):
    def compare(self, old_lines, new_lines):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, lines in (("spec", [json.dumps(SPEC)]), ("old", old_lines), ("new", new_lines)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w") as f:
                    f.write("\n".join(lines) + "\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.compare(paths[1], paths[2], spec_path=paths[0])
            return code, out.getvalue()

    def series(self, values, offset, **kw):
        return [record(2 * i + offset, v, **kw) for i, v in enumerate(values)]

    def test_unchanged(self):
        code, out = self.compare(self.series(around(10), 0), self.series(around(10), 1))
        self.assertEqual(code, 0)
        self.assertIn("unchanged", out)

    def test_regression(self):
        code, out = self.compare(self.series(around(10), 0), self.series(around(13), 1))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_faster_but_failing_is_flagged(self):
        code, out = self.compare(
            self.series(around(10), 0), self.series(around(5), 1, failed=3, correct=False)
        )
        self.assertEqual(code, 1)
        self.assertIn("FAILURES", out)
        self.assertIn("30/1000 ops failed, 10 runs incorrect", out)

    def test_failed_reconciliation_is_flagged(self):
        code, out = self.compare(
            self.series(around(10), 0, reconcile_failed=0),
            self.series(around(10), 1, reconcile_failed=1),
        )
        self.assertEqual(code, 1)
        self.assertIn("RECONCILE FAIL", out)

    def test_shared_reconciliation_failures_are_printed_only(self):
        code, out = self.compare(
            self.series(around(10), 0, reconcile_failed=1),
            self.series(around(10), 1, reconcile_failed=1),
        )
        self.assertEqual(code, 0)
        self.assertIn("RECONCILE FAIL", out)

    def test_separate_series_are_refused(self):
        with self.assertRaises(SystemExit) as e:
            self.compare(self.series(around(10), 0), self.series(around(10), 100))
        self.assertEqual(e.exception.code, 2)

    def test_garbage_is_refused(self):
        with self.assertRaises(SystemExit) as e:
            self.compare(['{"x": 1}'], self.series(around(10), 1))
        self.assertEqual(e.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
