#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        # from the repository root, ~2 min

They check that BENCHMARK.json and the benchmark's metric table agree,
that every metric name is well formed, that two seeds and a traced run
simulate identical cycles and report exactly the metrics BENCHMARK.json
names, and that the command fails without the repository around it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

PKG = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DIGEST = re.compile(r"digest ([0-9a-f]{16})")


def run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr}"
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.e2e = [m["name"] for m in cls.bench["end_to_end"]]
        cls.layers = [m["name"] for m in cls.bench["per_layer"]]

    def quick(self, workload, seed, trace):
        proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        out = result(proc)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        digest = DIGEST.search(proc.stderr)
        self.assertIsNotNone(digest, proc.stderr[-2000:])
        return out, digest.group(1)

    def test_metric_table_matches_benchmark_json(self):
        proc = run("--list-metrics")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        table = [json.loads(line) for line in proc.stdout.splitlines()]
        want_e2e = [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in table
            if m["kind"] == "end_to_end"
        ]
        want_layers = [
            {k: m[k] for k in ("name", "unit", "better")} for m in table if m["kind"] == "per_layer"
        ]
        self.assertEqual(self.bench["end_to_end"], want_e2e)
        self.assertEqual(self.bench["per_layer"], want_layers)
        for m in table:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            if m["kind"] == "per_layer":
                self.assertTrue(m["moves"], m["name"])
        names = [m["name"] for m in table]
        self.assertEqual(len(names), len(set(names)))

    def test_seeds_and_tracing_simulate_the_same_cycles(self):
        a, digest_a = self.quick("cycle-tiny", 1, 0)
        b, digest_b = self.quick("cycle-tiny", 2, 0)
        traced, digest_t = self.quick("cycle-tiny", 3, 1)
        self.assertEqual(digest_a, digest_b)
        self.assertEqual(digest_a, digest_t)
        self.assertEqual(list(a["metrics"]), self.e2e)
        self.assertEqual(list(traced["metrics"]), self.layers)
        for out in (a, b):
            for name, m in out["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        self.assertEqual(a["metrics"]["wall_s"]["unit"], self.bench["end_to_end"][self.e2e.index("wall_s")]["unit"])

    def test_fails_without_the_repository(self):
        lone = os.path.join(PKG, "out", f"lone-{os.getpid()}")
        shutil.rmtree(lone, ignore_errors=True)
        try:
            shutil.copytree(PKG, os.path.join(lone, "perfbench"), ignore=shutil.ignore_patterns("out"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(lone, ".bench_build"))
            proc = run("--workload", "cycle-tiny", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=lone, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
