#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs the command in BENCHMARK.json once per seed (ten seeds by default)
on each workload, and reports for each end-to-end metric the median of
its values and its spread: the distance between the first and the third
quartile (statistics.quantiles, n=4) as a share of the median. A spread
is flagged when it is not below a third of the metric's bound (setup_s
is exempt). With --compare, it also flags every metric whose median is
worse than the earlier set's by more than its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--out FILE] [--compare FILE]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, new, old):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    report, flagged = {}, []
    for w in workloads:
        runs = [run_once(bench, w, args.first_seed + i) for i in range(args.runs)]
        report[w] = {}
        for m in metrics:
            name = m["name"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report[w][name] = {"median": med, "spread": spread, "values": values}
            line = f"{w:<16} {name:<18} median {med:14.6f}  spread {spread:7.4f}  bound {m['bound']}"
            if name != "setup_s" and spread >= m["bound"] / 3:
                flagged.append(f"{w} {name}: spread {spread:.4f}")
                line += "  SPREAD"
            if name in earlier.get(w, {}):
                drift = worse_by(m, med, earlier[w][name]["median"])
                line += f"  worse by {drift:+.4f}"
                if drift > m["bound"]:
                    flagged.append(f"{w} {name}: worse by {drift:.4f}")
                    line += "  DRIFT"
            print(line, flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    for line in flagged:
        print("flagged:", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
