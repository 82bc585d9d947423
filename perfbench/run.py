#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload, prints its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload batch|serve_read|serve_churn \
        --seed N --seconds S --trace 0|1 [--top-down-only]

The library and the benchmark binary are compiled from ../src and
perfbench/src into .bench_build/perfbench (the first run builds; later
runs only re-check). Generated edge lists are cached in
.bench_build/cache.

Stdout: one line per metric (name, value, unit), then the context
numbers, the environment fingerprint, and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end-to-end metrics, with
--trace 1 its per-layer metrics; every workload measures all of them.
Context numbers are what only some workloads measure (the served
latencies, the dense graph's GTEPS, ...); they are printed and saved,
never compared. The full result (fingerprint, shares, notes) is also
written to .bench_build/results/.

Exit status: 0 on a valid run whose checked answers all matched;
non-zero on a wrong answer, an invalid run (the load generator fell
behind its schedule), a metric whose sample came out empty, a metric
BENCHMARK.json does not name, a metric of the mode the workload did not
measure, or a failed build.
"""

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
CACHE = os.path.join(BUILD_ROOT, "cache")
RESULTS = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD, "pbfs_perfbench")

# Whole-run limit for the benchmark binary; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(multiprocessing.cpu_count())
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--top-down-only", action="store_true",
                        help="batch only: disable bottom-up traversal "
                             "(the sensitivity check's slower configuration)")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-topdown" if args.top_down_only else "")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cache-dir", CACHE, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(RESULTS, tag + ".trace.json")]
    if args.top_down_only:
        cmd.append("--top-down-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S, 5)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark binary exited %d without a result" % proc.returncode, 6)
    result["wall_s"] = time.monotonic() - started
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    # BENCHMARK.json is the one list of metric names and units; every
    # workload measures every metric of the mode. Context numbers are
    # the ones only some workloads measure; they are printed, never
    # compared.
    measured = result["metrics"]
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name, got in measured.items():
        if name not in known:
            fail("metric %s is not named in BENCHMARK.json" % name, 6)
        if got["unit"] != known[name]["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (name, got["unit"], known[name]["unit"]), 6)
        if got["value"] is None:
            fail("metric %s was not measured: its sample was empty" % name, 6)
    for name in result["context"]:
        if name in known:
            fail("context number %s is named in BENCHMARK.json" % name, 6)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("workload %s did not measure %s" %
             (args.workload, ", ".join(missing)), 6)

    metrics = {}
    for m in wanted:
        got = measured[m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print("%-28s %16.6g %s" % (m["name"], got["value"], m["unit"]))
    for name, got in sorted(result["context"].items()):
        value = got["value"]
        print("context %-36s %16s %s" %
              (name, "null" if value is None else "%.6g" % value, got["unit"]))
    env = {k: v for k, v in result["notes"].items() if k.startswith("env.")}
    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in result.get("problems", []):
        print("problem: " + problem)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
