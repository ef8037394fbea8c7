"""Self-test of the benchmark.

Run from the repository root (builds the CLI and the harness first):

    python3 -m unittest discover -s perfbench -p 'test_*.py' -v

* A reduced run of every workload, untraced and traced, exits 0, passes
  its output checks, and prints exactly the metrics BENCHMARK.json
  declares for that mode, each with its declared unit.
* The same seed generates the same CLI flags and request lines; another
  seed generates different ones.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def declared():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(*args):
    done = subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout, done.stderr


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = declared()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def reduced_run(self, workload, trace):
        code, out, err = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--reduced")
        self.assertEqual(code, 0, f"{workload} trace={trace} failed:\n{err[-3000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], f"{workload} trace={trace}: output checks failed")
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected, f"{workload} trace={trace}: metric names or units differ")
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_reduced_runs_report_every_metric(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.reduced_run(workload, trace)

    def test_inputs_are_seed_deterministic(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                inputs = []
                for seed in ("11", "11", "12"):
                    code, out, err = run("--workload", workload, "--seed", seed, "--print-inputs")
                    self.assertEqual(code, 0, err[-3000:])
                    self.assertTrue(out.strip(), "no inputs printed")
                    inputs.append(out)
                self.assertEqual(inputs[0], inputs[1], "same seed, different inputs")
                self.assertNotEqual(inputs[0], inputs[2], "different seeds, same inputs")


if __name__ == "__main__":
    unittest.main()
