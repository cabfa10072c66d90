#!/usr/bin/env python3
"""Tests compare.py's pairing, verdicts and fingerprint refusal.

    python3 bench/e2e/compare_test.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402


def doc(seed, seconds, isa="avx2"):
    metrics = {
        "setup_s": {"value": 1.0, "unit": "s", "exact": False},
        "wall_s": {"value": seconds, "unit": "s", "exact": False},
        "cpu_s": {"value": seconds, "unit": "s", "exact": False},
        "peak_rss_mb": {"value": 30.0, "unit": "MB", "exact": False},
        "control_bits": {"value": 1000.0, "unit": "bits", "exact": True},
        "test_time": {"value": 1.2, "unit": "normalized", "exact": True},
    }
    return {"schema": "xh-bench-e2e/1", "workload": "table1", "seed": seed,
            "fingerprint": {"isa": isa, "nproc": 4, "compiler": "gcc",
                            "build_type": "Release"},
            "correct": True, "end_to_end": metrics, "per_layer": {}}


class Pairs(unittest.TestCase):
    def test_same_unique_seeds_pair_seed_for_seed(self):
        base = [(1, 10.0), (2, 20.0), (3, 30.0)]
        head = [(3, 31.0), (1, 11.0), (2, 21.0)]
        self.assertEqual(sorted(compare.pairs(base, head)),
                         [(10.0, 11.0), (20.0, 21.0), (30.0, 31.0)])

    def test_repeated_seeds_pair_every_run(self):
        base = [(1, 10.0), (1, 20.0), (1, 30.0)]
        head = [(1, 11.0), (1, 21.0), (1, 31.0)]
        self.assertEqual(len(compare.pairs(base, head)), 9)

    def test_different_seeds_pair_every_run(self):
        self.assertEqual(len(compare.pairs([(1, 1.0), (2, 2.0)],
                                           [(3, 1.0), (4, 2.0)])), 4)


class Verdict(unittest.TestCase):
    def test_repeated_seeds_do_not_rest_on_one_base_run(self):
        # Every head run beats the last base run, but only 82 of the 100
        # (base, head) pairs: not the nine tenths a gain needs.
        base = [(1, 0.90)] * 9 + [(1, 1.00)]
        head = [(1, 0.85)] * 8 + [(1, 0.95)] * 2
        self.assertEqual(compare.verdict(base, head, True, 0.2, False)[0],
                         "unchanged")

    def test_gain_needs_ten_runs_a_side(self):
        base = [(s, 1.0 + 0.01 * s) for s in range(1, 10)]
        head = [(s, 0.8 + 0.01 * s) for s in range(1, 10)]
        self.assertEqual(compare.verdict(base, head, True, 0.1, False)[0],
                         "unchanged")

    def test_clear_gain_is_better(self):
        base = [(s, 1.0 + 0.01 * s) for s in range(1, 11)]
        head = [(s, 0.8 + 0.01 * s) for s in range(1, 11)]
        self.assertEqual(compare.verdict(base, head, True, 0.1, False)[0],
                         "better")

    def test_regression_beyond_bound_is_worse(self):
        base = [(s, 1.0 + 0.001 * s) for s in range(1, 11)]
        head = [(s, 1.2 + 0.001 * s) for s in range(1, 11)]
        self.assertEqual(compare.verdict(base, head, True, 0.1, False)[0],
                         "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        base = [(s, v) for s, v in enumerate([1.0, 1.5, 1.0, 1.5], 1)]
        head = [(s, v) for s, v in enumerate([1.1, 1.4, 1.1, 1.4], 1)]
        self.assertEqual(compare.verdict(base, head, True, 0.1, False)[0],
                         "unresolved")

    def test_exact_metrics_must_match_seed_for_seed(self):
        base = [(1, 100.0), (2, 200.0)]
        self.assertEqual(compare.verdict(base, list(base), True, 0.03,
                                         True)[0], "unchanged")
        head = [(1, 100.0), (2, 201.0)]
        self.assertEqual(compare.verdict(base, head, True, 0.03, True)[0],
                         "worse")


class Main(unittest.TestCase):
    def run_compare(self, base_docs, head_docs):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for side, docs in (("base", base_docs), ("head", head_docs)):
                paths[side] = []
                for i, d in enumerate(docs):
                    path = Path(tmp) / f"{side}-{i}.json"
                    path.write_text(json.dumps(d))
                    paths[side].append(str(path))
            return subprocess.run(
                [sys.executable, str(HERE / "compare.py"),
                 "--base", *paths["base"], "--head", *paths["head"]],
                capture_output=True, text=True)

    def test_same_runs_compare_unchanged(self):
        docs = [doc(s, 1.0 + 0.001 * s) for s in (1, 2, 3)]
        result = self.run_compare(docs, docs)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("unchanged", result.stdout)

    def test_different_machines_are_refused(self):
        result = self.run_compare([doc(1, 1.0), doc(2, 1.0)],
                                  [doc(1, 1.0, isa="avx512"),
                                   doc(2, 1.0, isa="avx512")])
        self.assertEqual(result.returncode, 2)
        self.assertIn("different machines", result.stderr)


if __name__ == "__main__":
    unittest.main()
