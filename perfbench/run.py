#!/usr/bin/env python3
"""Builds and runs one perfbench workload; prints its result as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0

The benchmark is built from source on first use (CMake, into
$CARGO_TARGET_DIR or .bench_build). The output ends with two lines: a
record of the run (host, build, sample counts and quartiles of every
metric), then the result, which holds exactly the metrics BENCHMARK.json
names (its end_to_end metrics untraced, its per_layer metrics with
--trace 1). Exit status is 0 only when every output checked correct.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once and builds the perfbench target; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(out, "perfbench")


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    return [m["name"] for m in load_spec()["per_layer" if trace else "end_to_end"]]


def unit_of(name):
    spec = load_spec()
    return next(m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
                if m["name"] == name)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = declared_metrics(args.trace)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            build_dir(), "trace-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("perfbench: run failed with status %d" % proc.returncode)
    record = json.loads(lines[-1])
    record["host"]["git_sha"] = git_sha()
    record["runs"] = 1

    missing = [n for n in names if n not in record["metrics"]]
    if missing and not args.trace:
        sys.exit("perfbench: metrics not measured: " + ", ".join(missing))
    # A per-layer metric of a layer this workload does not pass through
    # (serve.* on paper_suite, core.* on the serving workloads) reads 0.
    for n in missing:
        record["metrics"][n] = {"value": 0, "unit": unit_of(n), "n": 0}
    record["not_exercised"] = missing
    result = {
        "correct": bool(record["correct"]) and proc.returncode == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n]["value"],
                        "unit": record["metrics"][n]["unit"]} for n in names},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
