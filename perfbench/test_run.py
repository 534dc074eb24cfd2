"""Smoke tests of the benchmark driver, at tiny sizes.

Run from the root of the repository:

    python3 -m unittest perfbench/test_run.py

The first test builds the release binary and the tracer if they are stale.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = bench("--workload", workload["name"], "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace), "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = result_of(done)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout[-3000:] + done.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_same_seed_same_inputs(self):
        runs = [result_of(bench("--workload", "mixed_faults", "--seed", "5", "--seconds", "1",
                                "--trace", "0", "--smoke"))["metrics"] for _ in range(2)]
        for name in ("makespan_ratio", "sim_time"):
            self.assertEqual(runs[0][name], runs[1][name], name)

    def test_refuses_a_directory_without_the_program(self):
        bare = ROOT / "perfbench" / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", "Cargo.lock"))
        try:
            done = bench("--workload", "drain_journal", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
