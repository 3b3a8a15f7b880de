#!/usr/bin/env python3
"""Builds and runs the parsim benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the parsim sources
it compiles) in Release mode under .bench_build/, runs the benchmark's
self-checks, then the workload. The workload's provenance line and result
line are passed through; the result (last line of stdout) is printed only
when it is correct and names exactly the metrics BENCHMARK.json declares
for the mode (end_to_end with --trace 0, per_layer with --trace 1).
Exits non-zero, without a result line, on any failure.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160
WORKLOADS = ("knn-hotspot", "selfjoin", "dynamic-mix")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures (once) and builds the benchmark; returns success.

    Flushes the file system afterwards, so the build's write-back does not
    land inside the measurement.
    """
    jobs = str(nproc())
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed: %s" % err)
            return False
        if done.returncode != 0:
            log("build step failed: %s" % " ".join(cmd))
            return False
    os.sync()
    return True


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else "unknown"


def source_sha256():
    """Hash of every source the benchmark compiles, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "bench", "microbench_common.h")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        return 1
    try:
        selftest = subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")], stdout=sys.stderr,
            timeout=60, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark self-checks timed out")
        return 1
    if selftest.returncode != 0:
        log("benchmark self-checks failed")
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit(),
               PERFBENCH_SOURCE_SHA256=source_sha256())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        for line in lines:
            print(line)
        log("workload failed with exit code %d" % done.returncode)
        return 1

    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if (set(result) != {"correct", "attempted", "failed", "metrics"}
            or result["correct"] is not True or result["attempted"] < 1
            or got != want):
        for line in lines[:-1]:
            print(line)
        log("result does not match BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)),
            sorted(set(got) - set(want))))
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
