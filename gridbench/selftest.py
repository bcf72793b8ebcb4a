#!/usr/bin/env python3
"""Self-test of the GridBox benchmark.

Run from the root of a checkout:

    python3 gridbench/selftest.py

Runs every workload at its tiny size twice with the same seed and checks
that both runs pass the correctness gate and print identical "check:"
lines: per aggregation the simulator's event count, messages sent and
delivered, and the completeness bits; per service instance the ground-truth
aggregate bits. Exits non-zero on any difference or failure.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("oneshot_n200", "oneshot_n10k", "service_udp_n200")


def tiny_run(workload, seed):
    p = subprocess.run([sys.executable, RUN, "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", "0",
                        "--tiny"], capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {p.returncode}\n"
                           f"{p.stdout}{p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    checks = [line for line in lines if line.startswith("check:")]
    return result, checks


def main():
    ok = True
    for workload in WORKLOADS:
        first, checks_a = tiny_run(workload, 7)
        second, checks_b = tiny_run(workload, 7)
        same = checks_a == checks_b and len(checks_a) > 0
        passed = first["correct"] and second["correct"]
        print(f"{workload}: {len(checks_a)} checks, "
              f"{'identical' if same else 'DIFFER'}, "
              f"{'correct' if passed else 'INCORRECT'}")
        if not same:
            for a, b in zip(checks_a, checks_b):
                if a != b:
                    print(f"  first : {a}\n  second: {b}")
        ok = ok and same and passed
    print("selftest OK" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
