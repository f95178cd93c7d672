// google-benchmark microbenchmarks of the real (wall-clock) building
// blocks: simulation engine throughput, fabric data movement, base64,
// CRC-32C, and the workload kernels. These measure the *simulator's* speed,
// complementing the virtual-time figure benches.
//
// After a run that timed the 4 KiB CRC rows it judges crc32c's dispatch
// and exits 1 when it fell back to a slower tier (see CrcDispatchCheck).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/base64.hpp"
#include "common/bytes.hpp"
#include "fabric/fabric.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/image.hpp"
#include "workloads/linalg.hpp"

namespace rfs {
namespace {

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int count = 0;
    auto actor = [&]() -> sim::Task<void> {
      for (int i = 0; i < 1000; ++i) {
        co_await sim::delay(10);
        ++count;
      }
    };
    sim::spawn(eng, actor());
    eng.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_FabricWriteRoundTrip(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    eng.make_current();
    fabric::Fabric fab(eng);
    auto& devA = fab.create_device("a");
    auto& devB = fab.create_device("b");
    auto* pdA = devA.alloc_pd();
    auto* pdB = devB.alloc_pd();
    fabric::CompletionQueue scq(fab.model()), rcq(fab.model());
    fabric::CompletionQueue scq2(fab.model()), rcq2(fab.model());
    auto* qa = devA.create_qp(pdA, &scq, &rcq);
    auto* qb = devB.create_qp(pdB, &scq2, &rcq2);
    fabric::QueuePair::connect_pair(*qa, *qb);
    Bytes src(size), dst(size);
    auto* mra = pdA->register_memory(src.data(), size, fabric::LocalWrite);
    auto* mrb = pdB->register_memory(dst.data(), size, fabric::RemoteWrite);
    fabric::SendWr wr;
    wr.opcode = fabric::Opcode::Write;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), static_cast<std::uint32_t>(size),
               mra->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
    wr.rkey = mrb->rkey();
    benchmark::DoNotOptimize(qa->post_send(wr));
    eng.run();
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_FabricWriteRoundTrip)->Arg(4096)->Arg(1 << 20);

void BM_Base64Encode(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  fill_pattern(data, 1);
  for (auto _ : state) {
    auto s = base64::encode(std::span<const std::uint8_t>(data));
    benchmark::DoNotOptimize(s.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Base64Encode)->Arg(1024)->Arg(1 << 20);

void time_crc32c(benchmark::State& state, std::uint32_t (*crc)(std::span<const std::uint8_t>)) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  fill_pattern(data, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// The payload checksum as dispatched on this CPU, labelled with the tier
// that runs at each size. 256 B to 4 KiB is the span of
// parallel_batches payloads; 64 B guards the short-input path.
void BM_Crc32c(benchmark::State& state) {
  const char* dispatched = "";
  for (const detail::Crc32cTier& tier : detail::crc32c_tiers()) {
    if (static_cast<std::size_t>(state.range(0)) >= tier.min_bytes) dispatched = tier.name;
  }
  state.SetLabel(dispatched);
  time_crc32c(state, crc32c);
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(256)->Arg(2048)->Arg(4096)->Arg(1 << 20);

// One tier by name, whichever crc32c dispatches to; an error row where
// this CPU lacks the tier's instructions.
void time_crc32c_tier(benchmark::State& state, std::string_view name) {
  for (const detail::Crc32cTier& tier : detail::crc32c_tiers()) {
    if (tier.name == name) return time_crc32c(state, tier.crc);
  }
  state.SkipWithError("this CPU lacks the tier's instructions");
}

// The table loop that CPUs without SSE4.2 and PCLMULQDQ run: the
// dispatch check compares BM_Crc32c/4096 against it.
void BM_Crc32cPortable(benchmark::State& state) { time_crc32c_tier(state, "portable"); }
BENCHMARK(BM_Crc32cPortable)->Arg(4096);

// The three `crc32` lanes: the dispatch check compares BM_Crc32c/4096
// against it where crc32c dispatches to the VPCLMULQDQ folds.
void BM_Crc32cLanes(benchmark::State& state) { time_crc32c_tier(state, "sse4.2"); }
BENCHMARK(BM_Crc32cLanes)->Arg(4096);

void BM_Crc32cFold(benchmark::State& state) { time_crc32c_tier(state, "vpclmulqdq"); }
BENCHMARK(BM_Crc32cFold)->Arg(4096);

void BM_BlackScholes(benchmark::State& state) {
  auto options = workloads::generate_options(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<float> prices(options.size());
  for (auto _ : state) {
    workloads::price_all(options, prices);
    benchmark::DoNotOptimize(prices.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlackScholes)->Arg(10000);

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = workloads::Matrix::random(n, n, 1);
  auto b = workloads::Matrix::random(n, n, 2);
  workloads::Matrix c(n, n);
  for (auto _ : state) {
    workloads::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulBlocked)->Arg(128);

void BM_ThumbnailPipeline(benchmark::State& state) {
  auto img = workloads::synthetic_image(97'000, 4);
  auto ppm = workloads::encode_ppm(img);
  for (auto _ : state) {
    auto out = workloads::thumbnail(ppm, 128);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(ppm.size()));
}
BENCHMARK(BM_ThumbnailPipeline);

// Guards crc32c's dispatch: a CPU check that silently fell back to a
// slower tier would return the same values, so no correctness test can
// see it. BM_Crc32c/4096 must run at least 4x BM_Crc32cPortable/4096's
// bytes/s and, where its label names the VPCLMULQDQ folds, at least 1.5x
// BM_Crc32cLanes/4096's. At 4 KiB on a 4-vCPU Xeon VM the three `crc32`
// lanes run ~57x the table loop and the folds ~3.7x the lanes. The folds
// were measured on Intel only: CPUs that split 512-bit operations into
// two 256-bit halves (AMD Zen 4) report the same flags and were not
// measured, so the bound against the lanes is 1.5x, which still fails a
// dispatch that fell back to them (~1x). Every run goes on to the
// display reporter that --benchmark_format picked.
class CrcDispatchCheck : public benchmark::BenchmarkReporter {
 public:
  CrcDispatchCheck() : display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const auto rate = run.counters.find("bytes_per_second");
      if (run.error_occurred || run.run_type != Run::RT_Iteration || rate == run.counters.end()) {
        continue;
      }
      rates_[run.benchmark_name()] = rate->second.value;
      if (run.benchmark_name() == "BM_Crc32c/4096") tier_ = run.report_label;
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

  /// False, after printing the failed comparison, when the dispatch fell
  /// back; true when it holds or the run did not time the rows.
  [[nodiscard]] bool holds() const {
    bool ok = at_least(4.0, "BM_Crc32cPortable/4096");
    if (tier_ == "vpclmulqdq") {
      ok = at_least(1.5, "BM_Crc32cLanes/4096") && ok;
    } else if (rates_.contains("BM_Crc32c/4096")) {
      std::fprintf(stderr,
                   "crc32c runs the %s tier at 4 KiB: no VPCLMULQDQ tier on this CPU, no "
                   "check against the lanes\n",
                   tier_.c_str());
    }
    return ok;
  }

 private:
  /// BM_Crc32c/4096 runs at least `factor` times `base`'s bytes/s (or
  /// one of the two rows was not timed).
  [[nodiscard]] bool at_least(double factor, const std::string& base) const {
    const auto dispatched = rates_.find("BM_Crc32c/4096");
    const auto other = rates_.find(base);
    if (dispatched == rates_.end() || other == rates_.end() ||
        dispatched->second >= factor * other->second) {
      return true;
    }
    std::fprintf(stderr,
                 "CRC DISPATCH CHECK FAILED: BM_Crc32c/4096 (%s) runs %.3g GB/s, less than "
                 "%.1fx %s's %.3g GB/s\n",
                 tier_.c_str(), dispatched->second / 1e9, factor, base.c_str(),
                 other->second / 1e9);
    return false;
  }

  std::unique_ptr<benchmark::BenchmarkReporter> display_;
  std::map<std::string, double> rates_;  // bytes/s by benchmark name
  std::string tier_;                     // BM_Crc32c/4096's label
};

}  // namespace
}  // namespace rfs

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  rfs::CrcDispatchCheck check;
  benchmark::RunSpecifiedBenchmarks(&check);
  benchmark::Shutdown();
  return check.holds() ? 0 : 1;
}
