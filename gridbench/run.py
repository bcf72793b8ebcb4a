#!/usr/bin/env python3
"""Builds and runs the GridBox benchmark.

Run from the root of a checkout:

    python3 gridbench/run.py --workload oneshot_n10k --seed 1 \
        --seconds 45 --trace 0

The first call configures and builds gridbench/ (the gridbox library from
src/ plus the gridbench binary) in Release mode under
$CARGO_TARGET_DIR/gridbench, default .bench_build/gridbench. Every call
then runs one workload and passes the binary's output through; its last
line is the result JSON.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("oneshot_n200", "oneshot_n10k", "service_udp_n200")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0  # the binary's run, after the build step
BUILD_LIMIT_S = 850.0  # a cold build, on the first run in a checkout


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "gridbench")


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    binary = os.path.join(out, "gridbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        subprocess.run(step, check=True, stdout=sys.stderr,
                       timeout=BUILD_LIMIT_S)
    return binary


def source_rev(root):
    """The git revision, or a digest of the sources a checkout carries."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true",
                   help="self-test size: a few aggregations, no timing loop")
    return p.parse_args(argv)


def result_of(stdout):
    """The last line as a result object, or None when it is not one."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src",
                                       "CMakeLists.txt")):
        print("gridbench: no src/ beside the benchmark; run from a full "
              "checkout", file=sys.stderr)
        return 1
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"gridbench: build failed: {e}", file=sys.stderr)
        return 1
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", traces, "--rev", source_rev(root)]
    if args.tiny:
        cmd.append("--tiny")
    # A backstop only: the binary's own watchdog ends a stalled run first.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"gridbench: run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or result_of(stdout) is None:
        print(f"gridbench: binary exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
