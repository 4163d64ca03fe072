#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workloads predict_lr,table4_cv --seeds 1-10 [--out FILE]

Run from the repository root. For every workload and metric it prints the
median of the per-seed values and their spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median, next to the metric's bound from BENCHMARK.json. With `--out`, it
also writes every run's record (seed, request counts, metrics) and the
summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                         f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next((l for l in lines if l.startswith("record:")), "")
    return {"seed": seed, "record": record, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds(args.seeds):
            r = run(workload, seed, bench["run_seconds"], args.trace)
            runs[workload].append(r)
            shown = ", ".join(f"{k} {v:.4g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: correct {r['correct']} attempted {r['attempted']} "
                  f"failed {r['failed']}: {shown}", flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name] for r in runs[workload]]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            summary[workload][name] = {"median": med, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:14s} {name:28s} median {med:14.6g} spread {spread:7.4f}"
                  f" bound {bound}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
