// google-benchmark microbenchmarks of the real (wall-clock) building
// blocks: simulation engine throughput, fabric data movement, base64,
// CRC-32C, and the workload kernels. These measure the *simulator's* speed,
// complementing the virtual-time figure benches.
#include <benchmark/benchmark.h>

#include <string_view>

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

// The table loop that CPUs without SSE4.2 and PCLMULQDQ run: CI compares
// BM_Crc32c/4096 against it to catch a dispatch that falls back to it.
void BM_Crc32cPortable(benchmark::State& state) { time_crc32c_tier(state, "portable"); }
BENCHMARK(BM_Crc32cPortable)->Arg(4096);

// The three `crc32` lanes: CI compares BM_Crc32c/4096 against it where
// crc32c dispatches to the VPCLMULQDQ folds.
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

}  // namespace
}  // namespace rfs

BENCHMARK_MAIN();
