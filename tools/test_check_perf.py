#!/usr/bin/env python3
"""Self-test for check_perf.py on synthetic benchmark reports.

Builds baseline/current google-benchmark JSON pairs for 44 benchmarks
whose ratios carry a uniform machine-speed factor plus evenly spread
timing noise, then checks the gate's verdicts:

  * a 5x speedup of 5 of the 44 benchmarks flags nothing;
  * a 1.6x slowdown of one benchmark fails, with or without those
    speedups.

Run from anywhere: python3 tools/test_check_perf.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_perf.py")
COUNT = 44
MACHINE = 1.3       # current runner is uniformly 30% slower
NOISE = 0.21        # per-benchmark log-ratio noise, evenly spread
SPEDUP = (3, 12, 21, 30, 39)
SLOWED = 22         # its noise is ~0: the slowdown shows undiluted


def noise(i):
    return -NOISE + 2 * NOISE * i / (COUNT - 1)


def report(times):
    return {
        "context": {"tbstc_isa": "scalar"},
        "benchmarks": [
            {"name": f"BM_Synthetic/{i}", "run_type": "iteration",
             "cpu_time": t}
            for i, t in enumerate(times)
        ],
    }


def run_gate(speedups=(), slowdowns=(), tolerance=0.25):
    """Exit status and output of check_perf on one synthetic pair."""
    base = [1000.0 * (1 + i) for i in range(COUNT)]
    cur = []
    for i, t in enumerate(base):
        ratio = MACHINE * math.exp(noise(i))
        if i in speedups:
            ratio /= 5.0
        if i in slowdowns:
            ratio *= 1.6
        cur.append(t * ratio)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, times in (("cur.json", cur), ("base.json", base)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(report(times), f)
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, CHECK, *paths, "--tolerance", str(tolerance)],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class CheckPerfGate(unittest.TestCase):
    TOLERANCES = (0.25, 0.5)

    def test_uniform_machine_difference_passes(self):
        for tol in self.TOLERANCES:
            code, out = run_gate(tolerance=tol)
            self.assertEqual(code, 0, out)

    def test_large_speedups_of_a_few_flag_nothing(self):
        for tol in self.TOLERANCES:
            code, out = run_gate(speedups=SPEDUP, tolerance=tol)
            self.assertEqual(code, 0, out)
            self.assertNotIn("REGRESSION", out)

    def test_one_slowdown_fails(self):
        for speedups in ((), SPEDUP):
            for tol in self.TOLERANCES:
                code, out = run_gate(speedups=speedups,
                                     slowdowns=(SLOWED,), tolerance=tol)
                self.assertEqual(code, 1, out)
                flagged = [line for line in out.splitlines()
                           if "REGRESSION" in line]
                self.assertEqual(len(flagged), 1, out)
                self.assertIn(f"BM_Synthetic/{SLOWED} ", flagged[0])


if __name__ == "__main__":
    unittest.main()
