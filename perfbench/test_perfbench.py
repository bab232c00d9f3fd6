#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale. Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper", "city", "monitor", "contacts"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class EveryMetric(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]], WORKLOADS)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines, r = result(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
                    fingerprint = json.loads(lines[0])["fingerprint"]
                    for field in ("nproc", "cpu_model", "simd_tier", "compiler", "build_type",
                                  "threads", "daemon_workers", "seed"):
                        self.assertIn(field, fingerprint)
                    self.assertEqual(fingerprint["seed"], 5)
                    if trace == 0:
                        for name, m in r["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


class CorruptedOutput(unittest.TestCase):
    def test_corrupted_output_raises_error_rate(self):
        # paper: a changed score; city: a flipped corpus byte; monitor: a
        # flipped verdict byte; contacts: a wrong ranking.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                _, r = result(proc)
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertGreater(r["failed"] / r["attempted"], 0)


class MonitorGenerator(unittest.TestCase):
    def test_monitor_generator_reports_its_lateness(self):
        proc = run("monitor", 1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines, r = result(proc)
        p50 = r["metrics"]["stream.pacer_late_p50_ms"]["value"]
        p99 = r["metrics"]["stream.pacer_late_p99_ms"]["value"]
        self.assertGreater(p50, 0)  # a sleeper never wakes exactly on time
        self.assertGreaterEqual(p99, p50)
        self.assertTrue(any("generator late" in line for line in lines))


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-test")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
