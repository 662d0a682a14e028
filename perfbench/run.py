#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload service_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload explore_mix --seed 7 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

The benchmark is built from source (CMake, Release) into the directory named
by $CARGO_TARGET_DIR, default .bench_build, under the current directory.
Every run rebuilds incrementally, then runs one workload. The last line of
stdout is the JSON result; --trace 1 also writes Chrome trace JSON under
<build dir>/traces/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("service_mix", "explore_mix", "certify_10k")
RUN_TIMEOUT_S = 175


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                  "perfbench_selftest"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def source_id():
    """The git commit when run inside a git checkout, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", choices=("fingerprint", "report", "final_state"),
                        help="corrupt one observed result to show the checks reject it")
    parser.add_argument("--self-test", action="store_true",
                        help="run the correctness checks' self-test and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", trace_dir,
               "--git-sha", source_id()]
    if args.tamper:
        command += ["--tamper", args.tamper]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
