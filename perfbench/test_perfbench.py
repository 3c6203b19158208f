#!/usr/bin/env python3
"""The benchmark's own test, at small sizes for every workload.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py

Checks, for every workload in BENCHMARK.json:
  * every declared end-to-end metric (untraced run) and per-layer metric
    (traced run) is emitted with its declared unit;
  * the correctness gate fails, and the run exits non-zero, when the
    benchmark deliberately perturbs its reference;
  * in the traced run's span file, each round's child-span self times
    plus its unattributed self time add up to the round's wall time.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
         "--small", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    record = json.loads(lines[-2]) if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, record, result, p.stderr


def spans_path(workload):
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"),
                        "perfbench", f"spans-{workload}.json")


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, result, key):
        for m in SPEC[key]:
            self.assertIn(m["name"], result["metrics"], m["name"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])

    def test_untraced_emits_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, record, result, err = run(w, 0)
                self.assertEqual(rc, 0, err[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(record["seed"], SEED)
                self.assertIn("nproc", record["host"])
                self.check_metrics(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_perturbed_reference_fails_the_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, _, result, _ = run(w, 0, "--perturb-reference")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_traced_run_emits_layers_and_spans_add_up(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, record, result, err = run(w, 1)
                self.assertEqual(rc, 0, err[-2000:])
                self.check_metrics(result, "per_layer")
                with open(spans_path(w)) as f:
                    spans = json.load(f)["spans"]
                children = {}
                for s in spans:
                    children.setdefault(s["parent"], []).append(s)

                def dur(s):
                    return s["end_s"] - s["start_s"]

                def self_time(s):
                    return dur(s) - sum(dur(c) for c in
                                        children.get(s["id"], []))

                def subtree_self(s):
                    return self_time(s) + sum(subtree_self(c) for c in
                                              children.get(s["id"], []))

                rounds = [s for s in spans if s["name"] == "round"]
                self.assertGreater(len(rounds), 0)
                for r in rounds:
                    self.assertAlmostEqual(subtree_self(r), dur(r), delta=1e-6)
                    self.assertGreaterEqual(self_time(r), -1e-6)
                metrics = result["metrics"]
                self.assertLess(metrics["trace.sum_error_s"]["value"], 1e-6)
                self.assertGreater(metrics["round.wall_s"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
