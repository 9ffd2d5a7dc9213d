"""Smoke test of the benchmark's own code at tiny sizes.

    python3 perfbench/test_smoke.py

Run from the root of a checkout.  Runs every workload once, untraced and
traced, and checks that each run passes its output checks and prints exactly
the metric names and units BENCHMARK.json declares.  Also checks that the
benchmark refuses to run, without printing a result, where the package
sources are missing.
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


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    """Run the copy of the benchmark that lives under `cwd`."""
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        declared = {
            trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))
        }
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = _bench(
                        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, declared[trace])

    def test_refuses_without_sources(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = _bench(bare, "--workload", "checks", "--seconds", "1")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
