#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Runs every workload briefly, untraced and traced, and checks that the
result line carries exactly the metrics BENCHMARK.json declares, with
the declared units; that an unknown workload fails with one `error:`
line; and that the benchmark fails, printing no result, when the
library sources are missing. Takes about two minutes.
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


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
        return json.load(file)


def run_bench(cwd, *args):
    config = load_config()
    return subprocess.run(config["command"] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class BenchmarkOutput(unittest.TestCase):
    def check_workload(self, workload, trace, declared):
        done = run_bench(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, done.stderr)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {metric["name"]: metric["unit"] for metric in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_every_workload_prints_every_declared_metric(self):
        config = load_config()
        for workload in config["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name, trace=0):
                result = self.check_workload(name, "0",
                                             config["end_to_end"])
                for metric in config["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][metric["name"]]["value"], 0,
                        metric["name"])
            with self.subTest(workload=name, trace=1):
                self.check_workload(name, "1", config["per_layer"])

    def test_unknown_workload_fails_with_one_error_line(self):
        done = run_bench(ROOT, "--workload", "no-such-workload", "--seed",
                         "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        lines = done.stderr.strip().splitlines()
        self.assertEqual(len(lines), 1, done.stderr)
        self.assertTrue(lines[0].startswith("error:"), lines[0])
        self.assertEqual(done.stdout.strip(), "")

    def test_fails_without_library_sources(self):
        config = load_config()
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in config["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            done = run_bench(bare, "--workload", "fleet-storm", "--seed",
                             "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + sys.argv[1:])
