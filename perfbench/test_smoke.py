#!/usr/bin/env python3
"""The benchmark's own tests: short runs on a small seeded graph.

Run from the root of a checkout:

    python3 perfbench/test_smoke.py

Each case starts the real benchmark (build included on first use) on the
`cascade` workload for one timed query, which runs `Pipeline.run` end to
end on a 60-vertex aminer-lite analog, and checks the result line against
BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class SmokeTest(unittest.TestCase):

    def result(self, trace):
        p = run("--workload", "cascade", "--seed", "16", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        lines = p.stdout.strip().splitlines()
        self.assertTrue(all(line.startswith("#") for line in lines[:-1]), lines)
        out = json.loads(lines[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 2)
        return out["metrics"]

    def assert_metrics(self, metrics, declared):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])

    def test_end_to_end_metrics(self):
        metrics = self.result(0)
        self.assert_metrics(metrics, spec()["end_to_end"])
        for m in spec()["end_to_end"]:
            self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
        self.assertEqual(metrics["correct_frac"]["value"], 1.0)

    def test_per_layer_metrics(self):
        metrics = self.result(1)
        self.assert_metrics(metrics, spec()["per_layer"])
        self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.9)
        self.assertGreater(metrics["core.Reductions.colorfulSupReduce.spark_jobs"]["value"], 0)
        self.assertGreater(metrics["core.Search.maxRFC.nodes"]["value"], 0)

    def test_fails_without_the_program(self):
        bare = os.path.join(HERE, "target", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            p = run("--workload", "cascade", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
