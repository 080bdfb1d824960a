#!/usr/bin/env python3
"""Runs a workload once per seed and reports how steady each metric is.

    python3 perfbench/spread.py --workload paper_suite --seeds 1-10 [--trace]

For every metric it prints the number of runs, the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median. An end-to-end metric whose
spread exceeds a third of its bound in BENCHMARK.json is marked NOISY.
With --trace it adds one traced run and reports the tracing overhead: how
much lower the traced run's ops_per_s is than the untraced median.
paper_suite's sim_device_us must repeat exactly under a repeated seed:
--repeat reruns the first seed and exits nonzero if it does not.
The summary is printed as one JSON line at the end.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("run failed: %s (status %d)" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    host = None
    for seed in seeds_of(args.seeds):
        record, result = run(args.workload, seed, seconds, 0)
        host = record["host"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
              file=sys.stderr)

    summary = {"workload": args.workload, "runs": len(seeds_of(args.seeds)),
               "seconds": seconds, "host": host, "metrics": {}}
    noisy = []
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bounds[name]}
        flag = ""
        if name != "setup_s" and spread > bounds[name] / 3:
            flag = " NOISY"
            noisy.append(name)
        print("%-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f)%s"
              % (name, med, q1, q3, spread, bounds[name], flag), file=sys.stderr)

    if args.repeat:
        first = seeds_of(args.seeds)[0]
        _, again = run(args.workload, first, seconds, 0)
        same = again["metrics"]["sim_device_us"]["value"] == values["sim_device_us"][0]
        summary["sim_device_us_repeats"] = same
        print("sim_device_us repeats under seed %d: %s" % (first, same), file=sys.stderr)
        if not same:
            noisy.append("sim_device_us (not repeating)")

    if args.trace:
        record, _ = run(args.workload, seeds_of(args.seeds)[0], seconds, 1)
        traced = record["metrics"]["trace.ops_per_s"]["value"]
        untraced = summary["metrics"]["ops_per_s"]["median"]
        summary["trace_overhead_share"] = 1 - traced / untraced
        print("tracing overhead: %.4f of ops_per_s" % summary["trace_overhead_share"],
              file=sys.stderr)

    print(json.dumps(summary))
    sys.exit(1 if noisy else 0)


if __name__ == "__main__":
    main()
