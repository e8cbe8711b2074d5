"""Tests of the benchmark itself, at smoke size.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import Reference, origin_closed_form, origin_rows  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class TestReference(unittest.TestCase):
    def test_known_counts(self):
        ref = Reference([(4, 0, 0), (6, 0, 0), (10, 2, 1), (9, 3, 0), (9, 3, 7)], [])
        self.assertEqual(ref.count(4, 0, 0), 11)
        self.assertEqual(ref.count(6, 0, 0), 85)
        self.assertEqual(ref.count(10, 2, 1), 18199)
        self.assertEqual(ref.count(9, 3, 0), 2096)
        self.assertEqual(ref.count(9, 3, 7), 0)

    def test_origin_closed_form(self):
        self.assertEqual(origin_closed_form(5), [1, 2, 11, 85, 782, 8004])

    def test_origin_rows(self):
        # F(2n; 0, 0) sits at packed indices 4, 24, 60, 112, ...
        self.assertEqual([origin_rows(k) for k in (3, 4, 23, 24, 60)], [0, 1, 1, 2, 3])

    def test_table_digest_counts_records(self):
        ref = Reference([], [("json", 3), ("csv", 3)])
        self.assertEqual(ref.tables[("json", 3)][0], 1 + 2 + 5 + 7)
        self.assertEqual(ref.tables[("csv", 3)][0], ref.tables[("json", 3)][0])


class TestContract(unittest.TestCase):
    def test_benchmark_json_names_the_driver_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_METRICS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_METRICS)

    def test_seed_fixes_the_job_list(self):
        for name in workloads.WORKLOADS:
            first = [j.argv for j in workloads.build(name, 3)]
            self.assertEqual(first, [j.argv for j in workloads.build(name, 3)])
            self.assertNotEqual(first, [j.argv for j in workloads.build(name, 4)])
            self.assertGreaterEqual(len(first), 20)


class TestSmoke(unittest.TestCase):
    def test_untraced_reports_every_end_to_end_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                rc, out = bench("--workload", name, "--trace", "0", "--smoke")
                result = result_of(out)
                self.assertEqual(rc, 0, out)
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 run.E2E_METRICS)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_reports_every_layer_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                rc, out = bench("--workload", name, "--trace", "1", "--smoke")
                result = result_of(out)
                self.assertEqual(rc, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 run.LAYER_METRICS)
                self.assertGreater(result["metrics"]["cli.main_s"]["value"], 0)

    def test_negative_control_fails(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                rc, out = bench("--workload", name, "--trace", "0", "--smoke",
                                "--negative-control")
                result = result_of(out)
                self.assertEqual(rc, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH.glob("*.py"):
                shutil.copy(path, bare / "bench")
            rc, out = bench("--workload", "dp-point", "--trace", "0", cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertNotIn('"correct"', out)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
