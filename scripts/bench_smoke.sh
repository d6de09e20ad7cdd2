#!/usr/bin/env bash
# Bench smoke: build one representative bench (fig07, the real-datacenter
# repair-time figure), run it at the smallest scale, and verify that it emits
# a machine-readable BENCH_*.json with at least one measurement row. CI uses
# this to catch regressions in the bench harness itself without paying for a
# full paper-scale benchmark run.
#
# Usage: scripts/bench_smoke.sh [output.json]
#   output.json   where to write the bench JSON (default build/BENCH_smoke.json)

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-build/BENCH_smoke.json}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" --target fig07_realdc_time

echo "== bench smoke: fig07_realdc_time (1 network) =="
CPR_BENCH_NETWORKS=1 CPR_BENCH_JSON="$out" build/bench/fig07_realdc_time

if [[ ! -s "$out" ]]; then
  echo "bench smoke FAILED: $out missing or empty" >&2
  exit 1
fi
for key in '"bench"' '"rows"' '"summary"'; do
  if ! grep -q -- "$key" "$out"; then
    echo "bench smoke FAILED: missing $key in $out" >&2
    exit 1
  fi
done
echo "bench smoke OK: $out ($(wc -c < "$out") bytes)"
