#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

- BENCHMARK.json satisfies the result contract (keys, limits, bounds);
- the C++ unit tests (tail-percentile rule, failure accounting, result
  schema) pass;
- smoke mode runs every workload at toy size, untraced and traced, and each
  prints a correct result line holding exactly the catalog's metrics;
- the runner refuses, without a result line, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace), "--smoke", "1"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertLessEqual(len(bench["command"]), 32)
        for path in bench["paths"]:
            self.assertRegex(path, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        names = set()
        for workload in bench["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            names.add(workload["name"])
        for metric in bench["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in bench["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            self.assertNotIn(metric["name"], names)
            names.add(metric["name"])
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))
        runs = 4 + 22 * len(bench["workloads"])
        self.assertLess(runs * (bench["run_seconds"] + 12), 3420 - 2 * 300)


class UnitTest(unittest.TestCase):
    def test_cpp_unit_tests(self):
        build = os.path.join(ROOT, ".bench_build", "perfbench-tests")
        configure = ["cmake", "-S", "perfbench", "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release", "-DPERFBENCH_BUILD_TESTS=ON"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(configure, check=True, stdout=subprocess.DEVNULL)
        subprocess.run(["cmake", "--build", build, "--target", "perfbench_unit_test",
                        "-j", "4"], check=True, stdout=subprocess.DEVNULL)
        done = subprocess.run([os.path.join(build, "perfbench_unit_test")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        bench = load_benchmark()
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        catalog = bench["per_layer"] if trace else bench["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in catalog])
        for metric in catalog:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertEqual(entry["unit"], metric["unit"])
            if not trace:
                self.assertGreater(entry["value"], 0, metric["name"])
        detail = json.loads(done.stdout.strip().splitlines()[-2][len("detail "):])
        provenance = detail["provenance"]
        for key in ("nproc", "hardware_concurrency", "compiler", "build_type",
                    "source_id", "seed", "worker_threads"):
            self.assertIn(key, provenance)
        self.assertEqual(provenance["build_type"], "Release")
        return result

    def test_every_workload(self):
        for workload in [w["name"] for w in load_benchmark()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


class RefusalTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in load_benchmark()["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            done = run_bench("serve_mixed", 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            last = (done.stdout.strip().splitlines() or [""])[-1]
            self.assertFalse(last.startswith("{"), last)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
