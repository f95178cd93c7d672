#!/usr/bin/env bash
# Builds rfaas_perf from this checkout and runs the repository benchmark.
#
#   bench/perf/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
#   bench/perf/run.sh --selftest
#
# Run it from anywhere inside the checkout. Without --workload it runs
# the four workloads in turn. Each run prints `workload metric value
# unit` lines and, as its last line, one JSON object with the keys
# correct, attempted, failed and metrics, and writes its results to
# build-perf/results/seed<N>/ (or --out). --trace runs the traced
# variant: calibration probes, per-layer metrics and a Chrome trace.
# See bench/perf/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root holds no simulator sources (CMakeLists.txt and src/)" >&2
  exit 2
fi
build="$root/build-perf"

workload=""
seed=1
seconds=20
trace=0
out=""
selftest=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --out) out="${2:?--out needs a value}"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then
        trace="$2"
        shift 2
      else
        trace=1
        shift
      fi
      ;;
    --selftest) selftest=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
out="${out:-$build/results/seed$seed}"

# Configure once; afterwards the build is incremental (a no-op when no
# source changed). Build output goes to stderr, so the last line on
# stdout stays the result.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target rfaas_perf -j4 >&2

bin="$build/rfaas_perf"
if [[ $selftest == 1 ]]; then
  exec "$bin" --selftest
fi
if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out "$out"
fi
status=0
for w in invoke_open parallel_batches lease_churn alloc_churn; do
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" ||
    status=1
done
exit $status
