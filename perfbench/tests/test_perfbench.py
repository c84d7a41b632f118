#!/usr/bin/env python3
"""Tests of the benchmark itself: input generation, output schema, the
correctness gate and the store's work directory.

Run from the root of a checkout (builds the driver first if needed):

    python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402

WORKLOADS = ["q9_exchange", "hsn_exchange", "hsn_degraded", "design_sweep"]


def driver():
    if not hasattr(driver, "exe"):
        driver.exe = run.build(run.build_dir())
    return driver.exe


def run_driver(*args, work_dir=None):
    """Runs the driver; returns (exit code, parsed last line or None, stderr)."""
    work_dir = work_dir or os.path.join(run.build_dir(), "test-work")
    proc = subprocess.run([driver(), "--work-dir", work_dir, *args],
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class InputsTest(unittest.TestCase):
    def inputs(self, workload, seed):
        out = subprocess.run([driver(), "--workload", workload, "--seed", str(seed),
                              "--print-inputs"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()

    def test_equal_seeds_give_equal_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.inputs(w, 7), self.inputs(w, 7))
                self.assertNotEqual(self.inputs(w, 7), self.inputs(w, 8))


class OutputTest(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_names_and_units_match_benchmark_json(self):
        code, result, err = run_driver("--workload", "q9_exchange", "--seed", "1",
                                       "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0, err)
        self.check_metrics(result, benchmark_json()["end_to_end"])
        self.assertTrue(result["correct"], err)
        self.assertEqual(result["failed"], 0)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        code, result, err = run_driver("--workload", "q9_exchange", "--seed", "1",
                                       "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0, err)
        self.check_metrics(result, benchmark_json()["per_layer"])
        self.assertTrue(result["correct"], err)


class GateTest(unittest.TestCase):
    def test_wrong_expected_digest_is_a_failed_operation(self):
        code, result, err = run_driver("--workload", "q9_exchange", "--seed", "1",
                                       "--seconds", "1", "--trace", "0",
                                       "--expect", "arena=0000000000000000")
        self.assertEqual(code, 0, err)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("arena digest", err)

    def test_engine_mismatch_is_a_failed_operation(self):
        code, result, err = run_driver("--workload", "q9_exchange", "--seed", "1",
                                       "--seconds", "1", "--trace", "0",
                                       "--force-mismatch")
        self.assertEqual(code, 0, err)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("kSharded differs from kArena", err)
        # The run finished: every end-to-end metric is still reported.
        self.assertEqual(len(result["metrics"]), len(benchmark_json()["end_to_end"]))


class WorkDirTest(unittest.TestCase):
    def test_store_directory_is_fresh_and_removed_at_exit(self):
        work = tempfile.mkdtemp(prefix="perfbench-test-")
        try:
            code, result, err = run_driver("--workload", "design_sweep", "--seed", "1",
                                           "--seconds", "1", "--trace", "0",
                                           work_dir=work)
            self.assertEqual(code, 0, err)
            # A store left over from an earlier run would fail the cold pass.
            self.assertTrue(result["correct"], err)
            used = re.search(r"work directory (\S+)", err).group(1)
            self.assertTrue(used.startswith(work))
            self.assertFalse(os.path.exists(used))
            self.assertEqual(os.listdir(work), [])
        finally:
            shutil.rmtree(work, ignore_errors=True)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_repo_sources(self):
        bare = tempfile.mkdtemp(prefix="perfbench-bare-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "q9_exchange",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
