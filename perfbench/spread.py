#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload, with tracing
off, and prints for every end-to-end metric its median and its spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from BENCHMARK.json. Run it from the repository
root, after building the benchmark once:

    python3 perfbench/spread.py --seeds 1-10 reach pointsto ivm_pointsto
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()
    raw = next((l for l in out if l.startswith("# raw wall:")), "")
    return json.loads(out[-1]), raw


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            result, raw = run(spec["command"], workload, seed, args.seconds)
            took = time.monotonic() - start
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({took:.0f} s): "
                  + " ".join(f"{n}={values[n][-1]:.4g}" for n in bounds))
            if raw:
                print("   ", raw)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print(f"  {workload:<13} {name:<22} median {med:<12.6g} "
                  f"spread {spread:.3f} bound {bounds[name]}"
                  + ("  OVER A THIRD OF BOUND" if spread > bounds[name] / 3 else ""))
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
