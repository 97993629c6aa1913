#!/usr/bin/env python3
"""The benchmark's own tests: smoke runs of every workload and the gates.

    python3 perfbench/test_perfbench.py

Runs from any directory; builds the benchmark program on first use (see
run.py). Each smoke run uses a fraction of a second of work per workload, so
the whole file takes well under a minute once the program is built.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "0.5"


def bench(*args):
    """Runs run.py; returns (exit code, parsed last stdout line)."""
    r = subprocess.run([sys.executable, str(HERE / "run.py")] + list(args),
                       cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


def program(*args):
    r = subprocess.run([str(run.BINARY)] + list(args), cwd=ROOT,
                       stdout=subprocess.PIPE, text=True, timeout=600,
                       check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    """Every workload prints every metric, by name and with its unit."""

    def check(self, workload, trace, kind):
        code, out = bench("--workload", workload, "--seed", "1",
                          "--seconds", SMOKE_SECONDS, "--trace", str(trace))
        self.assertEqual(code, 0)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        # At least 100 tasks, so task_p90_ms has 10 samples beyond it.
        self.assertGreaterEqual(out["attempted"], 100)
        want = {m["name"]: m["unit"] for m in BENCH[kind]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for k, v in out["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_end_to_end(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, "end_to_end")

    def test_per_layer(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, "per_layer")


class Gates(unittest.TestCase):
    """The correctness gates fire."""

    def test_mutated_library_fails_the_sweep(self):
        code, out = bench("--workload", "sweep", "--seed", "1",
                          "--seconds", SMOKE_SECONDS, "--mutation",
                          "treiber_pop_below_top")
        self.assertEqual(code, 1)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)

    def test_loop_agrees_with_runsweep(self):
        # The sweep's own settings and draw on a small configuration. On
        # the default seed the stratified sample is the streams' first
        # scenarios, which runSweep explores.
        res = program("sweep", "--seed", "1", "--seconds", "0.1",
                      "--compare-runsweep")
        self.assertTrue(res["detail"]["runsweep_agrees"])
        self.assertEqual(res["failed"], 0)

    def test_pinned_fold_mismatch_fails(self):
        pins = run.PINS["oracle"]
        self.assertTrue(pins, "no pinned oracle folds")
        key, folds = next(iter(pins.items()))
        _, seed, _, size = key.split()
        lib = next(iter(folds))
        res = {"size": int(size), "detail": {"lib_folds": dict(folds)}}
        self.assertEqual(run.pin_gate("oracle", int(seed), res), [])
        res["detail"]["lib_folds"][lib] = "0x0"
        self.assertEqual(len(run.pin_gate("oracle", int(seed), res)), 1)

    def traced_pair(self, workload):
        args = (workload, "--seed", "1", "--seconds", "0.1")
        return program(*args), program(*args, "--trace")

    def test_trace_fidelity_mismatch_fails(self):
        plain, traced = self.traced_pair("oracle")
        self.assertEqual(run.gates(plain, traced), [])
        bad = copy.deepcopy(traced)
        bad["detail"]["exhausted"]["cow_resumes"] += 1
        self.assertTrue(any("cow_resumes" in f
                            for f in run.gates(plain, bad)))

    def test_self_time_gate_fires(self):
        plain, traced = self.traced_pair("hunt")
        b = traced["body"]
        self.assertEqual(run.gates(plain, traced), [])
        self.assertGreater(b["min_span_raw_self_s"], 0)
        # Closures counted twice would take more CPU than their span.
        bad = copy.deepcopy(traced)
        bad["body"]["min_span_raw_self_s"] = -b["check_s"]
        self.assertTrue(any("more CPU than the span" in f
                            for f in run.gates(plain, bad)))


if __name__ == "__main__":
    run.build()
    unittest.main()
