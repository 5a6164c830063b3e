#!/usr/bin/env python3
"""Tests of the benchmark's own checks. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

The end-to-end cases build the driver on first use (.bench_build/).
"""

import copy
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load_pins():
    with open(run.PINS) as f:
        return json.load(f)


def execution(key, pin, seed_free=True, **changes):
    e = dict(pin, key=key, pin_key=key, seed_free=seed_free, round=0,
             checkFailures=0)
    e.update(changes)
    return e


def bench(*args):
    """Run the benchmark; return its exit code, its last stdout line as
    JSON, and the finished process."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=run.ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


class Judge(unittest.TestCase):
    def setUp(self):
        self.pins = load_pins()
        self.key, self.pin = next(iter(self.pins["cells"].items()))

    def test_pinned_result_passes(self):
        e = execution(self.key, self.pin)
        self.assertEqual(run.judge([e], self.pins, self.pins["seed"]), [])

    def test_perturbed_pin_fails_the_cell(self):
        pins = copy.deepcopy(self.pins)
        pins["cells"][self.key]["cycles"] += 1
        e = execution(self.key, self.pin)
        [failure] = run.judge([e], pins, pins["seed"])
        self.assertIn("differs from its pin in cycles", failure["why"])

    def test_checker_mismatch_fails_the_cell(self):
        e = execution(self.key, self.pin, checkFailures=3)
        [failure] = run.judge([e], self.pins, self.pins["seed"])
        self.assertEqual(failure["why"], ["3 checker mismatches"])

    def test_other_seed_checks_pins_of_seed_free_kernels_only(self):
        other = self.pins["seed"] + 1
        wrong = dict(self.pin, cycles=self.pin["cycles"] + 1)
        free = execution(self.key, wrong, seed_free=True)
        drawn = execution(self.key, wrong, seed_free=False)
        self.assertEqual(len(run.judge([free], self.pins, other)), 1)
        self.assertEqual(run.judge([drawn], self.pins, other), [])

    def test_unpinned_cell_fails_at_the_default_seed(self):
        e = execution("no/such/cell", self.pin)
        [failure] = run.judge([e], self.pins, self.pins["seed"])
        self.assertEqual(failure["why"], ["no pinned result"])

    def test_a_repeat_that_differs_fails(self):
        first = execution(self.key, self.pin, seed_free=False)
        again = execution(self.key, self.pin, seed_free=False, round=1,
                          memBytes=self.pin["memBytes"] + 8)
        [failure] = run.judge([first, again], self.pins,
                              self.pins["seed"] + 1)
        self.assertEqual(failure["round"], 1)


class PinsMatchCiBaselines(unittest.TestCase):
    """Cells that CI's bench gates also run must agree with them."""

    def test_shared_cells_agree(self):
        baselines = glob.glob(os.path.join(run.ROOT, "ci", "baselines",
                                           "BENCH_*.json"))
        if not baselines:
            self.skipTest("no ci/baselines in this checkout")
        pins = load_pins()["cells"]
        shared = 0
        for path in baselines:
            with open(path) as f:
                cells = json.load(f)
            for key, cell in cells.items():
                if key in pins and "result" in cell:
                    shared += 1
                    self.assertEqual(pins[key]["cycles"],
                                     cell["result"]["cycles"], key)
        self.assertGreater(shared, 0)


class EndToEnd(unittest.TestCase):
    def test_checker_mismatch_makes_the_run_incorrect(self):
        code, result, proc = bench("--workload", "mda-timed", "--seed", "1",
                                   "--seconds", "0", "--only-cells", "2",
                                   "--inject-mismatch")
        self.assertEqual(code, 0, proc.stderr)
        self.assertEqual((result["correct"], result["attempted"],
                          result["failed"]), (False, 2, 1))
        self.assertIn("checker mismatches", proc.stdout)
        self.assertNotIn("differs from its pin", proc.stdout)

    def test_refuses_to_run_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "conv-timed", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
