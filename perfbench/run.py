#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command per workload run.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the harness (perfbench/,
on top of the libraries in src/) into .bench_build/, prepares the
workload's inputs from --seed, runs the workload in a process of its own,
and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer ones, measured in a traced run whose
spans are written to .bench_build/perfbench-traces/<workload>-<seed>.json.
The line before it records the machine, the build and the seed.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-build")
HARNESS = os.path.join(BUILD, "perfbench_harness")

# Campaign length behind every dataset: the paper's nine months, or a few
# days at the smoke scale the benchmark's own tests use.
DAYS = {"full": 270, "smoke": 3}

# The per-layer metrics each workload measures. A layer a workload never
# calls is reported as 0 in its traced run; a listed metric the harness did
# not report fails the run.
REPRODUCE = {
    "atlas.campaign_s", "atlas.bursts_per_s", "atlas.cached_frac",
    "atlas.path_cache_s", "core.fig4_s", "core.fig5_s", "core.fig6_s",
    "core.fig7_s", "core.fig8_s", "serve.store_build_s",
    "serve.store_rows_per_s", "io.snapshot_save_s", "io.snapshot_mb",
    "io.snapshot_load_s", "rows_per_s", "p99_ms", "trace.wall_s",
    "trace.unattributed_s", "trace.overhead_pct",
}
SERVING = {
    "io.snapshot_load_s", "serve.oracle_init_s", "serve.oracle_batch_ms.p50",
    "serve.oracle_batch_ms.p99", "serve.oracle_batch_size",
    "serve.oracle_ok_frac", "front.service_ms.p50", "front.service_ms.p99",
    "front.batches", "front.batch_size", "front.shed_frac",
    "front.expired_frac", "front.max_queue_depth", "front.modelled_hold_ms",
    "front.stale_refreshes", "transport.poll_us.p50", "transport.poll_us.p99",
    "transport.polls_per_req", "transport.bytes_out_per_req",
    "transport.partial_writes", "gen.lag_ms.p99", "gen.sent",
    "gen.completed", "gen.failed", "gen.threads", "gen.connections",
    "error_frac", "p99_ms", "trace.overhead_pct",
}
LAYERS = {
    "reproduce": REPRODUCE,
    "serve_open": SERVING | {
        "low.p50_ms", "low.p99_ms", "high.p50_ms", "high.p99_ms",
        "qps_at_slo", "transport.loop_cpu_us_per_req",
    },
    "serve_ingest": SERVING | {
        "freshness_ms", "serve.store_refresh_ms.p50",
        "serve.store_refresh_ms.max", "serve.store_refreshed_shards",
        "io.deltalog_publish_ms.p50", "io.deltalog_publish_ms.max",
    },
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/); "
             "run from the root of a full checkout")
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                fail("build failed; see " + log_path)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def harness(args, timeout):
    """Runs the harness; returns its stdout, or exits on failure."""
    try:
        proc = subprocess.run([HARNESS] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(args[:3]))
    if proc.returncode != 0:
        fail("harness failed (exit %d): %s" % (proc.returncode,
                                               " ".join(args[:3])))
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(DAYS), default="full")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    work = os.path.join(ROOT, ".bench_build", "perfbench-work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--days", str(DAYS[args.scale]), "--dir", work]
        harness(["prepare"] + common + ["--seconds", str(args.seconds)], 170)
        out = harness(["run"] + common + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)], 170)
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copy(os.path.join(work, "trace.json"),
                        os.path.join(traces, "%s-%d.json" % (args.workload,
                                                             args.seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    metrics = {}
    problems = list(result["problems"])
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if args.trace and name not in LAYERS[args.workload]:
                metrics[name] = {"value": 0.0, "unit": unit}
                continue
            problems.append("metric %s was not measured" % name)
            continue
        value = got["value"]
        if value is None or not math.isfinite(value):
            problems.append("metric %s is not finite" % name)
            continue
        if got["unit"] != unit:
            problems.append("metric %s has unit %s, not %s" % (name, got["unit"],
                                                               unit))
        metrics[name] = {"value": value, "unit": unit}
    for p in problems:
        print("perfbench: check failed: " + p, file=sys.stderr)

    meta = dict(result["meta"])
    meta["git_commit"] = git_commit()
    meta["scale"] = args.scale
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
