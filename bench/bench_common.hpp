// Shared helpers of the figure-reproduction benchmarks: standard cluster
// scenarios matching the paper's testbed (built through the rfs::cluster
// harness), invocation timing loops, table output, and the gates a bench
// judges its own results with (its exit status). Every bench prints
// a human-readable table (paper layout) followed by a CSV block for
// plotting, and writes a machine-readable BENCH_<tag>.json next to the
// working directory so the perf trajectory can be tracked across PRs.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "cluster/harness.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "workloads/faas_functions.hpp"

namespace rfs::bench {

/// Global operator new calls so far in this binary. Only the binaries that
/// gate on allocation counts (fig16, fig18, fig21 and dataplane_test)
/// define it: CMake compiles the counting operator new/delete of
/// bench/common/alloc_counter.cpp into them.
extern std::atomic<std::uint64_t> g_allocations;

/// The paper's testbed: nodes with two 18-core Xeon Gold 6154 and a
/// 100 Gb/s RoCEv2 NIC.
inline cluster::ScenarioSpec paper_testbed(unsigned executors = 2) {
  return cluster::ScenarioSpec::uniform(executors, /*cores=*/36,
                                        /*memory_bytes=*/64ull << 30, /*clients=*/1);
}

namespace detail {
/// True when environment variable `name` is set, non-empty and not "0...".
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}
}  // namespace detail

/// Smoke mode (RFS_SMOKE=1): CI's bench-smoke job shrinks iteration
/// counts and horizons so every bench finishes in seconds while still
/// exercising the full pipeline and emitting valid BENCH_*.json files.
inline bool smoke_mode() { return detail::env_flag("RFS_SMOKE"); }

/// Soak mode (RFS_CHAOS_SOAK=1): the chaos benches add harsher schedules
/// or repetitions (the nightly soak).
inline bool soak_mode() { return detail::env_flag("RFS_CHAOS_SOAK"); }

/// RFS_CHAOS_SEED, the one seed of a chaos bench's fault injectors and
/// seeded workloads: 1 when unset or empty. Anything but a whole decimal
/// number exits 2, so a typo cannot quietly run (and pass) another seed.
inline std::uint64_t chaos_seed() {
  const char* v = std::getenv("RFS_CHAOS_SEED");
  if (v == nullptr || v[0] == '\0') return 1;
  const char* end = v + std::strlen(v);
  std::uint64_t seed = 0;
  const auto [stop, ec] = std::from_chars(v, end, seed);
  if (ec != std::errc{} || stop != end) {
    std::fprintf(stderr, "RFS_CHAOS_SEED=%s is not a whole decimal number\n", v);
    std::exit(2);
  }
  return seed;
}

/// A bench's verdict. Each failed check() prints `GATE FAILED [gate]
/// under where`; finish() then prints the command that reproduces the run
/// and exits 1. The exit status is the whole verdict: CI and the chaos
/// soaks read nothing else.
class Gates {
 public:
  /// `bench` is the binary's name under build/bench/.
  explicit Gates(const char* bench) : bench_(bench) {}

  void check(bool holds, const char* gate, std::string_view where) {
    ++checked_;
    if (holds) return;
    ++failed_;
    std::fflush(stdout);  // keep the failure after the tables it judges
    std::fprintf(stderr, "GATE FAILED [%s] under %.*s\n", gate, static_cast<int>(where.size()),
                 where.data());
  }

  /// Returns when every check held; otherwise exits 1.
  void finish() const {
    std::string run;
    for (const char* name : {"RFS_SMOKE", "RFS_CHAOS_SOAK", "RFS_CHAOS_SEED"}) {
      const char* v = std::getenv(name);
      if (v != nullptr && v[0] != '\0') run += std::string(name) + "=" + v + " ";
    }
    run += std::string("./bench/") + bench_;
    if (failed_ == 0) {
      std::printf("\nall %u gates hold: %s\n", checked_, run.c_str());
      return;
    }
    std::fflush(stdout);
    std::fprintf(stderr, "\n%u of %u gates failed; reproduce with: %s\n", failed_, checked_,
                 run.c_str());
    std::exit(1);
  }

 private:
  const char* bench_;
  unsigned checked_ = 0;
  unsigned failed_ = 0;
};

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
