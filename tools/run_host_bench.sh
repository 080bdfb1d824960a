#!/usr/bin/env bash
# Runs the host-side simulator microbenchmarks (google-benchmark) and writes
# the JSON report to BENCH_sim_host.json at the repository root.
#
# Usage:
#   tools/run_host_bench.sh [build-dir] [extra google-benchmark flags...]
#
# The end-to-end rows (BM_Session*, BM_RepeatedLaunch) report
# `launches_per_s`: simulated kernel launches retired per host second.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

bench_bin="$build_dir/bench/bench_sim_host"
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found or not executable." >&2
  echo "Build it first:  cmake -B build -S . && cmake --build build --target bench_sim_host -j" >&2
  exit 1
fi

out_json="$repo_root/BENCH_sim_host.json"
"$bench_bin" \
  --benchmark_format=json \
  --benchmark_out="$out_json" \
  --benchmark_out_format=json \
  "$@"

echo
echo "Wrote $out_json"

# Summarise the launch throughput rows if python3 is available.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out_json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)

for b in data.get("benchmarks", []):
    if "launches_per_s" in b:
        print(f"{b['name']}: {b['launches_per_s']:.0f} launches/s")
EOF
fi
