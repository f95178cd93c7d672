#!/usr/bin/env bash
# Tier-1 verification: configure, build (warnings-as-errors for src/,
# tests and benches), and run the full test suite. This is the gate every
# PR must keep green, locally and in CI (.github/workflows/ci.yml).
#
#   ./scripts/check.sh [--sanitize=address,undefined|thread] [--chaos] [--overload] [--ha] [--gray] [build-dir]
#
# --chaos restricts the test run to the lossy-network suite (the ctest
# `chaos` label: fault-injector determinism, retransmission FSMs, wire
# fuzzing) — the quick loop when iterating on protocol hardening.
# --overload restricts it to the ingress-protection suite (the ctest
# `overload` label: admission/WFQ determinism and end-to-end storm
# invariants) — the quick loop when iterating on admission control.
# --ha restricts it to the high-availability suite (the ctest `ha`
# label: journal replay equivalence, manager failover, failover under
# link chaos) — the quick loop when iterating on replication.
# --gray restricts it to the data-plane fault-tolerance suite (the ctest
# `dataplane-chaos` label: worker-fault injection, deadline/retry/hedging
# recovery, breaker-driven quarantine) — the quick loop when iterating
# on gray-failure handling.
#
# Extra cmake arguments (compiler launcher, generators) can be injected
# through RFS_CMAKE_ARGS, e.g.
#   RFS_CMAKE_ARGS="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache" ./scripts/check.sh
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sanitize=""
build=""
ctest_args=()

for arg in "$@"; do
  case "$arg" in
    --sanitize=*) sanitize="${arg#--sanitize=}" ;;
    --chaos) ctest_args+=(-L chaos) ;;
    --overload) ctest_args+=(-L overload) ;;
    --ha) ctest_args+=(-L ha) ;;
    --gray) ctest_args+=(-L dataplane-chaos) ;;
    --help|-h)
      sed -n '2,/^[^#]/p' "$0" | sed -n 's/^# \{0,1\}//p'
      exit 0
      ;;
    *) build="$arg" ;;
  esac
done

if [[ -z "$build" ]]; then
  build="$repo/build"
  [[ -n "$sanitize" ]] && build="$repo/build-${sanitize//,/-}"
fi

cmake_args=(-DRFS_WERROR=ON)
[[ -n "$sanitize" ]] && cmake_args+=("-DRFS_SANITIZE=$sanitize")
# shellcheck disable=SC2206 # intentional word splitting of extra args
[[ -n "${RFS_CMAKE_ARGS:-}" ]] && cmake_args+=(${RFS_CMAKE_ARGS})

cmake -B "$build" -S "$repo" "${cmake_args[@]}"
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" ${ctest_args[@]+"${ctest_args[@]}"}
