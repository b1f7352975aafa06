#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py if needed, then checks BENCHMARK.json's
declarations, runs the test-only "smoke" workload (untraced and traced)
and checks that every declared metric is printed, and that both run.py and
the benchmark binary reject bad arguments with exit code 2.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, check=False)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Declarations(unittest.TestCase):
    def test_names_match_the_allowed_characters_and_are_unique(self):
        spec = declared()
        for group in ("workloads", "end_to_end", "per_layer"):
            names = [m["name"] for m in spec[group]]
            self.assertEqual(len(names), len(set(names)), group)
            for name in names:
                self.assertRegex(name, NAME)
                self.assertIsNotNone(NAME.fullmatch(name), name)

    def test_units_and_bounds(self):
        spec = declared()
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertIsNotNone(UNIT.fullmatch(m["unit"]), m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = declared()
        cls.untraced = result_of(run_py("--workload", "smoke", "--seed", "3",
                                        "--seconds", "1", "--trace", "0"))
        cls.traced = result_of(run_py("--workload", "smoke", "--seed", "3",
                                      "--seconds", "1", "--trace", "1"))

    def check_result(self, result, group):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_result(self.untraced, "end_to_end")
        for m in self.spec["end_to_end"]:
            self.assertNotEqual(self.untraced["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_result(self.traced, "per_layer")

    def test_cpu_shares_sum_to_one(self):
        shares = [m["value"] for name, m in self.traced["metrics"].items()
                  if name.endswith(".cpu_share")]
        self.assertGreater(len(shares), 1)
        self.assertIn("unattributed.cpu_share", self.traced["metrics"])
        self.assertAlmostEqual(sum(shares), 1.0, places=9)


class StrictArguments(unittest.TestCase):
    BAD = [
        (["--workload", "nope"], "--workload"),
        (["--workload", "smoke", "--seed", "abc"], "--seed"),
        (["--workload", "smoke", "--seed", "-1"], "--seed"),
        (["--workload", "smoke", "--seed", "1.5"], "--seed"),
        (["--workload", "smoke", "--seed"], "--seed"),
        (["--workload", "smoke", "--seconds", "0"], "--seconds"),
        (["--workload", "smoke", "--trace", "2"], "--trace"),
        (["--workload", "smoke", "--bogus", "1"], "--bogus"),
        (["--seed", "1"], "--workload"),
    ]

    def test_run_py_exits_2_and_names_the_flag(self):
        for args, flag in self.BAD:
            proc = run_py(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertIn(flag, proc.stderr, args)
            self.assertEqual(proc.stdout, "", args)

    def test_binary_exits_2_and_names_the_flag(self):
        if not BINARY.exists():
            result_of(run_py("--workload", "smoke", "--seconds", "1"))
        for args, flag in self.BAD:
            proc = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                                  check=False)
            self.assertEqual(proc.returncode, 2, args)
            self.assertIn(flag, proc.stderr, args)


if __name__ == "__main__":
    unittest.main()
