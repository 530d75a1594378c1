#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size.

    python3 perfbench/test_perfbench.py

Checks that each workload prints every metric BENCHMARK.json names, with its
unit, in both modes; that the traced run's trace file parses and
trace.unaccounted_frac is reported; and that a deliberately wrong oracle
gives failures and a non-zero exit.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["tune_measured", "scan_resident", "scan_paged", "tune_predicted"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_lines(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "5", "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def bench(workload, trace, *extra):
    code, lines, err = bench_lines(workload, trace, *extra)
    return code, (json.loads(lines[-1]) if lines else None), err


class PerfbenchTest(unittest.TestCase):
    spec = load_spec()

    def test_spec_lists_the_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)

    def check_metrics(self, result, listed):
        expected = {m["name"]: m["unit"] for m in self.spec[listed]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = bench(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, listed)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_trace_file_parses(self):
        code, lines, err = bench_lines("scan_paged", 1)
        self.assertEqual(code, 0, err)
        self.assertIn("trace.unaccounted_frac", json.loads(lines[-1])["metrics"])
        path = json.loads(lines[-2])["samples"]["trace_file"]
        with open(path) as f:
            trace = json.load(f)
        names = {e["name"] for e in trace["traceEvents"]}
        self.assertIn("bench.round", names)
        self.assertIn("core.run_fleet", names)
        self.assertEqual(trace["otherData"]["workload"], "scan_paged")
        for event in trace["traceEvents"]:
            self.assertEqual(event["ph"], "X")
            self.assertGreaterEqual(event["dur"], 0)

    def test_wrong_oracle_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = bench(workload, 1, "--oracle-skew", "1")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["fail_frac"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
