#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 xdb-bench/test_bench.py

Builds xdb-bench (as run.py does), runs its C++ self-test (generator
determinism, the percentile rule, self-time arithmetic), and checks that
every metric BENCHMARK.json lists is printed with its unit and that every
printed name and unit follows the grammar.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("xdb-bench build failed")

    def test_selftest(self):
        res = subprocess.run([os.path.join(run.BUILD, "xdb_bench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(res.returncode, 0, res.stderr)

    def test_printed_metrics_match(self):
        s = spec()
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in s[k]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "ingest", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            self.assertEqual(res.returncode, 0, res.stderr[-2000:])
            lines = res.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in s[kind]})
            printed = run.printed_metrics(lines[:-1])
            for m in s[kind]:
                self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])
            for name, (_, unit) in printed.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)


if __name__ == "__main__":
    unittest.main()
