#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

- fixed-input checks of the percentile helper, the trigger mapping of
  tick warnings and the multiset comparison (perfbench selftest);
- a tiny-size smoke run of all four workloads, untraced and traced, that
  must pass the output check and report exactly BENCHMARK.json's metrics;
- a negative check: one perturbed warning fails the output check;
- without the daemon's sources the benchmark fails fast and prints no
  result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402


def run_bench(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_selftest(self):
        done = subprocess.run([os.path.join(run.BUILD, "perfbench"),
                               "selftest"], stderr=subprocess.PIPE)
        self.assertEqual(done.returncode, 0, done.stderr)

    def test_tiny_smoke_all_workloads(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"] for m in self.bench[key]}
            for workload in self.bench["workloads"]:
                name = workload["name"]
                with self.subTest(workload=name, trace=trace):
                    code, result = run_bench(
                        "--workload", name, "--tiny", "--seed", "3",
                        "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]), expected)

    def test_perturbed_warning_fails_the_output_check(self):
        code, result = run_bench("--workload", "paced_durable", "--tiny",
                                 "--seed", "3", "--seconds", "1",
                                 "--perturb")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        # One altered warning: one missing and one extra.
        self.assertEqual(result["failed"], 2)

    def test_fails_without_daemon_sources(self):
        bare = os.path.join(run.BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "raw_replay",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
