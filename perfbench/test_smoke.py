#!/usr/bin/env python3
"""The benchmark's own tests, at smoke scale (3-day datasets, 2-second runs).

    python3 perfbench/test_smoke.py

Runs every workload untraced and traced through perfbench/run.py and checks
that every metric is present, finite and in its unit; that the generator
stays within nproc threads and connections; that the reproduce stage spans
plus the unattributed remainder add up to the wall time; and that a failed
request can never make a percentile better.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d failed:\n%s" % (workload, trace,
                                                          proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    spec = None
    results = {}

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        for w in cls.spec["workloads"]:
            for trace in (0, 1):
                cls.results[(w["name"], trace)] = run(w["name"], trace)

    def test_every_metric_present_finite_with_unit(self):
        for (workload, trace), result in self.results.items():
            self.assertEqual(
                set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], (workload, trace))
            self.assertGreaterEqual(result["attempted"], 1)
            wanted = self.spec["per_layer" if trace else "end_to_end"]
            self.assertEqual({m["name"] for m in wanted},
                             set(result["metrics"]), (workload, trace))
            for m in wanted:
                got = result["metrics"][m["name"]]
                self.assertEqual(got["unit"], m["unit"], m["name"])
                self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                for name, got in result["metrics"].items():
                    self.assertGreater(got["value"], 0.0, (workload, name))

    def test_generator_within_nproc(self):
        nproc = os.cpu_count()
        for workload in ("serve_open", "serve_ingest"):
            metrics = self.results[(workload, 1)]["metrics"]
            self.assertEqual(metrics["gen.threads"]["value"], 1)
            self.assertGreaterEqual(metrics["gen.connections"]["value"], 1)
            self.assertLessEqual(metrics["gen.connections"]["value"], nproc)

    def test_reproduce_stages_add_up_to_wall_time(self):
        metrics = self.results[("reproduce", 1)]["metrics"]
        path = os.path.join(ROOT, ".bench_build", "perfbench-traces",
                            "reproduce-%d.json" % SEED)
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        by_id = {e["args"]["id"]: e for e in events}
        reps = [e for e in events if e["name"] == "reproduce.rep"]
        self.assertGreaterEqual(len(reps), 2)
        rep_ids = {e["args"]["id"] for e in reps}
        stages = [e for e in events if e["args"]["parent"] in rep_ids]
        self.assertEqual(
            {e["name"] for e in stages},
            {"atlas.campaign", "serve.store_build", "core.fig4", "core.fig5",
             "core.fig6", "core.fig7", "core.fig8", "io.snapshot_save"})
        for e in stages:
            parent = by_id[e["args"]["parent"]]
            self.assertGreaterEqual(e["ts"], parent["ts"])
            self.assertLessEqual(e["ts"] + e["dur"],
                                 parent["ts"] + parent["dur"] + 1e-3)
        wall_s = sum(e["dur"] for e in reps) / 1e6
        stage_s = sum(e["dur"] for e in stages) / 1e6
        unattributed_s = metrics["trace.unattributed_s"]["value"]
        self.assertGreaterEqual(unattributed_s, 0.0)
        self.assertAlmostEqual(stage_s + unattributed_s, wall_s, delta=1e-5)
        self.assertAlmostEqual(metrics["trace.wall_s"]["value"], wall_s,
                               delta=1e-5)

    def test_failed_request_never_improves_a_percentile(self):
        harness = os.path.join(ROOT, ".bench_build", "perfbench-build",
                               "perfbench_harness")
        proc = subprocess.run([harness, "selftest"], capture_output=True,
                              text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
