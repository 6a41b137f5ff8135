#!/usr/bin/env python3
"""Build and run one stordep benchmark run.

    python3 perfbench/run.py --workload hot|cold --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the stordep libraries from src/) into the perfbench/ subdirectory of
$CARGO_TARGET_DIR, or of .bench_build when that is unset, then runs the
benchmark binary and relays its output. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names are checked
against BENCHMARK.json before it is printed. Exits non-zero, without a
result line, when the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, jobs):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            fail(f"{build_dir} is configured for {home[0]}; "
                 "remove it or point CARGO_TARGET_DIR elsewhere")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "stordep_perfbench", "-j", str(jobs)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "stordep_perfbench")


def git_rev():
    """Short HEAD of the repository at ROOT; "unknown" outside a git tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = done.stdout.split()
    if done.returncode != 0 or len(out) != 2 or \
            os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return "unknown"
    return out[1]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["hot", "cold"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    # A SIGTERM to this script still stops and reaps the build or the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("stordep sources (src/) not found next to perfbench/")
    # A directory of its own under the target directory, which may be shared.
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build")), "perfbench")
    jobs = min(4, os.cpu_count() or 1)
    binary = build(build_dir, jobs)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir, "--git-rev", git_rev()]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    lines = stdout.rstrip("\n").splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"stordep_perfbench exited with code {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("stordep_perfbench did not end with a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        fail(f"metrics {sorted(result['metrics'])} != BENCHMARK.json {sorted(want)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
