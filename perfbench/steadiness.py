#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

Runs each workload once per seed (one run after another, never in
parallel) and reports, per metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --workloads event_flood --seeds 11-15
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit("%s seed %d failed the output check" % (workload, seed))
            runs.append({"seed": seed,
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
        metrics = {}
        print("%s (%d seeds)" % (workload, len(runs)))
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound,
                             "values": values}
            worst = max(worst, spread / bound)
            print("  %-18s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.3f"
                  " bound %.2f%s" % (name, median, q1, q3, spread, bound,
                                      "" if spread < bound / 3
                                      else "  <-- above a third of the bound"))
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
    print("largest spread / bound: %.3f" % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
