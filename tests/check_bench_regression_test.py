#!/usr/bin/env python3
"""Unit tests for scripts/check_bench_regression.py (stdlib only; run by ctest).

The guard has two jobs: fail on throughput drops in the guarded row, and fail
when the fresh run silently loses a row or metric the committed baseline has
— the coverage bug this suite pins is that a vanished row used to pass
because only the guarded row was ever read.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "check_bench_regression.py")


def bench_doc(rows, scale=1):
    """rows: {label: {metric: value}} -> BENCH_*.json document."""
    return {"bench": "test", "scale": scale, "rows": [
        {"label": label, "metrics": metrics} for label, metrics in rows.items()
    ]}


ENGINE_ROW = {
    "pooled_events_per_sec": 10e6,
    "cancel_pairs_per_sec": 2e6,
    "legacy_events_per_sec": 5e6,
}
BASELINE = {
    "engine_throughput": ENGINE_ROW,
    "control_plane": {"reconfigs_per_sec": 1000.0},
}


class GuardTest(unittest.TestCase):
    def run_guard(self, baseline, fresh, *extra_args, fresh_scale=1):
        """Writes both docs to temp files and runs the guard; returns the result.

        The baseline is recorded at scale 1; `fresh_scale` sets the fresh run's.
        """
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            with open(base_path, "w", encoding="utf-8") as f:
                json.dump(bench_doc(baseline), f)
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(bench_doc(fresh, fresh_scale), f)
            return subprocess.run(
                [sys.executable, SCRIPT, "--fresh", fresh_path,
                 "--baseline", base_path, *extra_args],
                capture_output=True, text=True)

    def test_identical_runs_pass(self):
        result = self.run_guard(BASELINE, BASELINE)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("OK", result.stdout)

    def test_missing_row_in_fresh_fails(self):
        fresh = {"engine_throughput": ENGINE_ROW}  # control_plane vanished
        result = self.run_guard(BASELINE, fresh)
        self.assertEqual(result.returncode, 1)
        self.assertIn("control_plane", result.stderr)

    def test_missing_metric_in_fresh_fails(self):
        fresh = {
            "engine_throughput": ENGINE_ROW,
            "control_plane": {},  # reconfigs_per_sec vanished
        }
        result = self.run_guard(BASELINE, fresh)
        self.assertEqual(result.returncode, 1)
        self.assertIn("reconfigs_per_sec", result.stderr)

    def test_missing_guarded_row_fails_even_when_baseline_lacks_it_too(self):
        no_guard_row = {"control_plane": {"reconfigs_per_sec": 1000.0}}
        result = self.run_guard(no_guard_row, no_guard_row)
        self.assertEqual(result.returncode, 1)
        self.assertIn("engine_throughput", result.stderr)

    def test_extra_fresh_rows_are_fine(self):
        fresh = dict(BASELINE)
        fresh["brand_new_row"] = {"events_per_sec": 1.0}
        result = self.run_guard(BASELINE, fresh)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_drop_beyond_threshold_fails(self):
        fresh = dict(BASELINE)
        fresh["engine_throughput"] = dict(ENGINE_ROW,
                                          pooled_events_per_sec=8e6)  # -20%
        result = self.run_guard(BASELINE, fresh)
        self.assertEqual(result.returncode, 1)
        self.assertIn("pooled_events_per_sec", result.stderr + result.stdout)

    def test_drop_within_threshold_passes(self):
        fresh = dict(BASELINE)
        fresh["engine_throughput"] = dict(ENGINE_ROW,
                                          pooled_events_per_sec=9e6)  # -10%
        result = self.run_guard(BASELINE, fresh)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_normalize_key_masks_machine_speed(self):
        # Everything halves (slower machine): raw drop is 50%, normalized 0%.
        fresh = dict(BASELINE)
        fresh["engine_throughput"] = {k: v / 2 for k, v in ENGINE_ROW.items()}
        raw = self.run_guard(BASELINE, fresh)
        self.assertEqual(raw.returncode, 1)
        normalized = self.run_guard(BASELINE, fresh,
                                    "--normalize-key", "legacy_events_per_sec")
        self.assertEqual(normalized.returncode, 0, normalized.stderr)

    def test_row_and_metrics_filters_select_the_guarded_row(self):
        baseline = dict(BASELINE)
        baseline["cluster_scale"] = {"events_per_sec_best": 4e6,
                                     "events_per_sec_t1": 1e6}
        fresh = dict(baseline)
        fresh["cluster_scale"] = {"events_per_sec_best": 2e6,  # scaling halved
                                  "events_per_sec_t1": 1e6}
        result = self.run_guard(baseline, fresh,
                                "--row", "cluster_scale",
                                "--metrics", "events_per_sec_best",
                                "--normalize-key", "events_per_sec_t1")
        self.assertEqual(result.returncode, 1)
        self.assertIn("events_per_sec_best", result.stderr + result.stdout)

    def test_missing_baseline_file_fails_with_cannot_read(self):
        # CI points the guard at a committed baseline; if that file is not in
        # the tree, the guard must fail loudly rather than pass vacuously.
        with tempfile.TemporaryDirectory() as tmp:
            fresh_path = os.path.join(tmp, "fresh.json")
            with open(fresh_path, "w", encoding="utf-8") as f:
                json.dump(bench_doc(BASELINE), f)
            missing = os.path.join(tmp, "BENCH_not_committed.json")
            result = subprocess.run(
                [sys.executable, SCRIPT, "--fresh", fresh_path,
                 "--baseline", missing],
                capture_output=True, text=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertIn(f"cannot read {missing}", result.stderr)

    def test_scale_mismatch_fails(self):
        # A reduced-scale run reads a different normalized ratio than the
        # scale-1 baseline, so even identical rows must not be compared.
        result = self.run_guard(BASELINE, BASELINE, fresh_scale=0.05)
        self.assertEqual(result.returncode, 1)
        self.assertIn("scale", result.stderr)

    def test_usage_error_on_bad_max_drop(self):
        result = self.run_guard(BASELINE, BASELINE, "--max-drop", "1.5")
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
