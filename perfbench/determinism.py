#!/usr/bin/env python3
"""Determinism self-check and held-out seed check of the count metrics.

For each workload, runs the traced benchmark (``--trace 1``) twice on
one seed and requires every count metric (units ``count`` and
``bytes``) to be identical across the two runs. Then runs the held-out
seed and requires a correct result with no failed operation, and every
count within one order of magnitude of the first seed's (a count that
is 0 on one seed must be 0 on the other). Run it from the repository
root, after building the benchmark once:

    python3 perfbench/determinism.py --seed 1 --held-out 9001
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = {"count", "bytes"}


def traced(command, workload, seed):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", "10", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    result = json.loads(out[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=9001)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced(spec["command"], workload, args.seed)
        second = traced(spec["command"], workload, args.seed)
        for name, value in first.items():
            if second[name] != value:
                ok = False
                print(f"{workload}: {name} differs across runs of seed "
                      f"{args.seed}: {value} vs {second[name]}")
        held = traced(spec["command"], workload, args.held_out)
        for name, value in first.items():
            other = held[name]
            if value == other == 0:
                continue
            if value == 0 or other == 0 or not 0.1 <= other / value <= 10:
                ok = False
                print(f"{workload}: {name} = {other} on seed {args.held_out}, "
                      f"not within 10x of {value} on seed {args.seed}")
        print(f"{workload}: {len(first)} counts checked "
              f"(seed {args.seed} twice, held-out seed {args.held_out})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
