#!/usr/bin/env python3
"""Exact gate on perfbench's deterministic fields.

Run from anywhere in a checkout (it builds the CLI and the harness
through perfbench/run.py):

    python3 scripts/perfbench_gate.py

For each workload below it runs a reduced perfbench at seed 7, once
untraced and once traced. Every run must pass its output checks
(`correct: true`) with no failed operation. The simulated fields of
each run (training minutes, pick slowdowns, iteration, point, message
and database-entry counts) depend only on the seed, so they are
compared exactly against scripts/perfbench_pins.json. Host timings are
not compared.

On a mismatch the script exits non-zero, names each differing field
with its pinned and observed value, and prints the whole observed block
in the pin file's form. A change meant to move these outputs pastes
that block into the pin file and says in its description why each
value moved.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "scripts", "perfbench_pins.json")
WORKLOADS = ["tune-small", "serve-socket"]
# Fields compared exactly, by the --trace mode that reports them.
FIELDS = {
    0: ["sim_train_min", "avg_slowdown", "p95_slowdown"],
    1: ["core.iterations", "core.points", "netsim.msgs", "dataset.entries"],
}


def run(workload, trace):
    """One reduced perfbench run; returns its result line, parsed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--reduced"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench gate: {' '.join(cmd[1:])} exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(PINS) as f:
        pins = json.load(f)
    observed = {w: {} for w in WORKLOADS}
    problems = []
    for workload in WORKLOADS:
        for trace, fields in FIELDS.items():
            result = run(workload, trace)
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: correct={result['correct']} failed={result['failed']}")
            for field in fields:
                value = result["metrics"][field]["value"]
                # Counts print as 215.0; pin them as 215.
                observed[workload][field] = int(value) if float(value).is_integer() else value
    for workload in sorted(set(pins) | set(observed)):
        want, got = pins.get(workload, {}), observed.get(workload, {})
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                problems.append(f"{workload} {field}: pinned {want.get(field)}, observed {got.get(field)}")
    if problems:
        print("perfbench gate: FAILED")
        for problem in problems:
            print(f"  {problem}")
        print("observed block (scripts/perfbench_pins.json form):")
        print(json.dumps(observed, indent=2))
        sys.exit(1)
    print(f"perfbench gate: ok ({sum(len(v) for v in observed.values())} fields match the pins)")


if __name__ == "__main__":
    main()
