"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py [--seeds 1-10] [--trace 0|1]
                                 [--out perfbench/results/NAME.json]

Runs perfbench/run.py once per workload of BENCHMARK.json and seed, one
run at a time, for run_seconds each, and prints for each metric its
median, quartiles and spread (quartile distance over median), flagging
an end-to-end spread that is not below a third of the metric's bound.  With --out it writes
every run's result, the summary and the provenance of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds_from(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if "provenance" not in report:
                report["provenance"] = json.loads(lines[0].partition(": ")[2])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            flag = ""
            if name in bounds and s["spread"] >= bounds[name] / 3:
                flag = f"  <-- spread not below a third of the bound {bounds[name]}"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name} = {s['median']:.6g} {unit} [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] "
                  f"spread {s['spread']:.3f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
