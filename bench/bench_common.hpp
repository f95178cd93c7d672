// Shared helpers of the figure-reproduction benchmarks: standard cluster
// scenarios matching the paper's testbed (built through the rfs::cluster
// harness), invocation timing loops, and table output. Every bench prints
// a human-readable table (paper layout) followed by a CSV block for
// plotting, and writes a machine-readable BENCH_<tag>.json next to the
// working directory so the perf trajectory can be tracked across PRs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/harness.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "workloads/faas_functions.hpp"

namespace rfs::bench {

/// Global operator new calls so far in this binary. Only the benches that
/// gate on allocation counts define it: CMake compiles the counting
/// operator new/delete of bench/common/alloc_counter.cpp into them.
extern std::atomic<std::uint64_t> g_allocations;

/// The paper's testbed: nodes with two 18-core Xeon Gold 6154 and a
/// 100 Gb/s RoCEv2 NIC.
inline cluster::ScenarioSpec paper_testbed(unsigned executors = 2) {
  return cluster::ScenarioSpec::uniform(executors, /*cores=*/36,
                                        /*memory_bytes=*/64ull << 30, /*clients=*/1);
}

/// Smoke mode (RFS_SMOKE=1): CI's bench-smoke job shrinks iteration
/// counts and horizons so every bench finishes in seconds while still
/// exercising the full pipeline and emitting valid BENCH_*.json files.
inline bool smoke_mode() {
  const char* v = std::getenv("RFS_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Iteration count for the current mode: `full` normally, `full`
/// divided by `shrink` (at least 2) under RFS_SMOKE=1.
inline unsigned scaled_reps(unsigned full, unsigned shrink = 10) {
  if (!smoke_mode()) return full;
  return std::max(2u, full / std::max(1u, shrink));
}

/// Duration for the current mode: `full` normally, `full / shrink`
/// under RFS_SMOKE=1 (never below one tenth of a second).
inline Duration scaled_horizon(Duration full, unsigned shrink = 10) {
  if (!smoke_mode()) return full;
  return std::max<Duration>(100_ms, full / std::max(1u, shrink));
}

/// Statistics of a batch of timed invocations, in nanoseconds.
struct LatencyStats {
  double median = 0;
  double p99 = 0;
  double mean = 0;
  std::size_t failures = 0;

  static LatencyStats from(const std::vector<double>& samples, std::size_t failures = 0) {
    LatencyStats s;
    if (!samples.empty()) {
      Summary summary(samples);
      s.median = summary.median();
      s.p99 = summary.percentile(99);
      s.mean = summary.mean();
    }
    s.failures = failures;
    return s;
  }
};

/// Repeatedly invokes `fn_index` with the given payload size and collects
/// round-trip latencies (client-observed, busy-polling client).
inline sim::Task<LatencyStats> measure_invocations(rfaas::Invoker& invoker,
                                                   std::uint16_t fn_index,
                                                   rdmalib::Buffer<std::uint8_t>& in,
                                                   std::size_t payload,
                                                   rdmalib::Buffer<std::uint8_t>& out,
                                                   unsigned repetitions,
                                                   unsigned warmup = 2) {
  std::vector<double> samples;
  std::size_t failures = 0;
  for (unsigned i = 0; i < warmup; ++i) {
    (void)co_await invoker.invoke(fn_index, in, payload, out);
  }
  for (unsigned i = 0; i < repetitions; ++i) {
    auto result = co_await invoker.invoke(fn_index, in, payload, out);
    if (result.ok) {
      samples.push_back(static_cast<double>(result.latency()));
    } else {
      ++failures;
    }
  }
  co_return LatencyStats::from(samples, failures);
}

/// Prints the standard header of a bench binary.
inline void banner(const char* figure, const char* description) {
  std::printf("============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("(deterministic virtual-time simulation; see docs/BENCHMARKS.md)\n");
  std::printf("============================================================\n\n");
}

/// Directory the BENCH_<tag>.json files land in; override with the
/// RFS_BENCH_JSON_DIR environment variable, disable with an empty value.
inline std::string bench_json_path(const char* tag) {
  const char* dir = std::getenv("RFS_BENCH_JSON_DIR");
  if (dir != nullptr && dir[0] == '\0') return {};
  std::string path = dir != nullptr ? std::string(dir) + "/" : std::string{};
  return path + "BENCH_" + tag + ".json";
}

/// Prints a table followed by its CSV form and writes BENCH_<tag>.json.
inline void emit(Table& table, const char* csv_tag) {
  table.print();
  std::printf("\n--- CSV (%s) ---\n", csv_tag);
  table.print_csv();
  std::printf("\n");

  const std::string path = bench_json_path(csv_tag);
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    table.print_json(f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

}  // namespace rfs::bench
