"""Check that traced runs are deterministic in everything but time.

Runs ``run.py --trace 1`` twice with the same workload and seed, in fresh
interpreters, and compares the per-layer metrics.  Counts and ratios must be
identical; only metrics in seconds may differ.  Run from the repository root:

    python3 benchmarks/check_trace.py --workload oracle-slow --seed 0 --seconds 5

Exits 0 when the two runs agree, 1 when a count or ratio differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_metrics(args) -> dict:
    cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args()
    first, second = traced_metrics(args), traced_metrics(args)
    differing = []
    for name, m in first.items():
        a, b = m["value"], second[name]["value"]
        if m["unit"] != "s" and a != b:
            differing.append(name)
        print(f"{name:45s} {a!r:>24} {b!r:>24}")
    if differing or set(first) != set(second):
        print(f"counts differ: {differing}", file=sys.stderr)
        return 1
    print("counts and ratios identical; only timings differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
