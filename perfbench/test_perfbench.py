#!/usr/bin/env python3
"""Tests of the benchmark's failure accounting and output checks.

    python3 perfbench/test_perfbench.py

Runs perfbench/run.py (building genax_perfbench on first use) with
faults armed through the program's FaultInjector (GENAX_FAULT_INJECT)
and checks that the failures are counted at the armed share while the
output checks still pass, that a run whose output is wrong exits
non-zero, and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def run_bench(workload, trace=0, faults=None, seed=7, cwd=ROOT):
    env = dict(os.environ)
    env.pop("GENAX_FAULT_INJECT", None)
    if faults:
        env["GENAX_FAULT_INJECT"] = faults
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def full_report(workload, seed, trace):
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        return json.load(f)


class FailureAccounting(unittest.TestCase):
    READ_P = 0.01
    LANE_P = 0.02

    def assertShare(self, got, want, what):
        # Deterministic per seed; the tolerance covers sampling noise
        # of a 1-2 % rate over tens of thousands of draws.
        self.assertGreater(got, 0.6 * want, what)
        self.assertLess(got, 1.4 * want, what)

    def test_failed_reads_counted_offline_sw(self):
        code, result, err = run_bench(
            "offline-sw", faults=f"genax.pipeline.read:p={self.READ_P},seed=3")
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], err)
        self.assertShare(result["failed"] / result["attempted"], self.READ_P,
                         "failed_frac")

    def test_failed_reads_and_degraded_jobs_offline_genax(self):
        faults = (f"genax.pipeline.read:p={self.READ_P},seed=3;"
                  f"sillax.lane.issue:p={self.LANE_P},seed=5")
        code, result, err = run_bench("offline-genax", faults=faults)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], err)
        self.assertShare(result["failed"] / result["attempted"], self.READ_P,
                         "failed_frac")

        code, result, err = run_bench("offline-genax", trace=1, faults=faults)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], err)
        degraded = result["metrics"]["genax.degraded_jobs"]["value"]
        jobs = full_report("offline-genax", 7, 1)["details"]["model_extension_jobs"]
        self.assertShare(degraded / jobs, self.LANE_P, "degraded job share")


class OutputChecks(unittest.TestCase):
    def test_broken_output_exits_nonzero(self):
        # A SAM write fault mid-run leaves a short output file: the run
        # must report correct=false and fail.
        code, result, err = run_bench("offline-genax",
                                      faults="io.sam.write:n=100")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result, err)
        self.assertFalse(result["correct"])

    def test_refuses_without_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run_bench("offline-sw", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
