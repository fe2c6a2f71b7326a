"""Smoke tests: tiny-size runs of every workload, untraced and traced.

They check the result format and the output checks, never a timing:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, ROOT)
from perfbench.run import tail  # noqa: E402


def bench(script, workload, trace, size="tiny"):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", size],
        capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def check(self, workload, trace):
        proc = bench(RUN, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        report = json.loads(proc.stdout.splitlines()[-2])["report"]
        for key in ("python", "nproc", "commit", "seed", "source_sha256", "failed_ratio"):
            self.assertIn(key, report)
        return result, report

    def test_workloads_untraced(self):
        for workload in ("harness", "mutants", "long_run"):
            with self.subTest(workload=workload):
                result, _ = self.check(workload, 0)
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_workloads_traced(self):
        for workload in ("harness", "mutants", "long_run"):
            with self.subTest(workload=workload):
                result, report = self.check(workload, 1)
                counts = report["exact_counts"]
                self.assertGreater(counts["interp.imp_steps"], 0)
                self.assertGreater(counts["compiler.asm_instrs"], 0)
                if workload == "mutants":
                    self.assertGreater(result["metrics"]["bisim.verdict_refuted"]["value"], 0)
                else:
                    self.assertEqual(result["metrics"]["bisim.verdict_refuted"]["value"], 0)

    def test_refuses_without_library(self):
        lonely = os.path.join(HERE, "out", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
            shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench(os.path.join(lonely, "perfbench", "run.py"), "harness", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(lonely, ignore_errors=True)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        value, pct, beyond = tail([float(i) for i in range(20)])
        self.assertEqual((value, pct, beyond), (9.0, 50.0, 10))


if __name__ == "__main__":
    unittest.main()
