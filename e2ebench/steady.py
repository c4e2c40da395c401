#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds and prints, for
every end-to-end metric, the median, the quartiles and the quartile spread
as a share of the median, next to the bound BENCHMARK.json sets.

Run from the repository root:

    python3 e2ebench/steady.py                      # 10 seeds, every workload
    python3 e2ebench/steady.py --seeds 5 --workloads quantile_serve

The bounds in BENCHMARK.json are set from this output: each spread should
sit below a third of its bound. Seeds run from 1 to --seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correctness check failed\n{out.stderr[-2000:]}")
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    opts = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in opts.workloads:
        runs = []
        for seed in range(1, opts.seeds + 1):
            r = run(bench["command"], workload, seed, opts.seconds)
            runs.append(r)
            print(f"  {workload} seed {seed}: attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs of {opts.seconds} s, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            worst = max(worst, spread / bound)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} "
                  f"{bound:>6.2f}{flag}  [{unit}]")
            print("      " + " ".join(f"{v:.6g}" for v in values))
    print(f"\nworst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
