// Figure 18 (zero-copy data plane + predictive warm pool): the invocation
// fast path against the per-call-buffer `Bytes` path, and the warm
// sandbox pool against plain keep-alive.
//
//  (a) High-fan-out p99 — F concurrent no-op invocations over W hot
//      workers. Old path: every call constructs fresh input/output
//      buffers and registers them with the client PD (the registrations
//      serialize on the process's mmap write lock — the per-PD
//      registration gate in the fabric model). Fast path: invoke_pooled()
//      over slots registered once by reserve_slots(). Gate: >= 10x p99.
//  (b) Allocations per invocation — the frame path (encode_into into a
//      registered slot, stack WR + SGE list, packed immediate, response
//      decode from the completion) counted by a global allocation hook,
//      against the per-call buffer construction + registration it
//      replaces. Gate: exactly 0 allocations on the fast path.
//  (c) Doorbell/completion batching — 16 small writes posted and drained
//      one-at-a-time (post, wait, post, wait — the seed's billing-flush
//      discipline) vs one post_send_many + batched wait_polling_many
//      drain: N concurrent WRs cost one doorbell and one poll sweep.
//  (d) Warm pool on a multi-tenant allocate/invoke/idle trace — 4
//      tenants cycling lease -> invoke -> deallocate -> idle with
//      tenant-specific gaps. Predictive keep-alive (idle-histogram
//      quantile, the SeBS eviction model) vs fixed 120 s keep-alive:
//      same warm-hit rate, far less memory held once tenants go quiet.
//      Gate: warm-hit >= 95% on the trace.
//
// Emits BENCH_fig18_dataplane.json (columns metric/baseline/fast/ratio),
// gated in CI's bench-smoke job. The old paths are kept callable (invoke
// with per-call buffers, single post/wait, capacity-0 pool) so the
// comparison stays honest before/after, as in fig16.
#include "bench_common.hpp"
#include "rfaas/protocol.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

constexpr std::size_t kPayload = 8;
constexpr std::size_t kBufBytes = 64;

// --------------------------------------------------------------------------
// (a) High-fan-out invocation p99: Bytes path vs pooled fast path
// --------------------------------------------------------------------------

struct FanoutResult {
  LatencyStats bytes_path;
  LatencyStats fast_path;
};

/// One old-path invocation: fresh buffers, timed registration (serialized
/// on the PD's registration gate), invoke, deregister.
sim::Task<void> bytes_path_call(rfaas::Invoker& invoker, std::vector<double>& samples,
                                std::size_t* failures, sim::WaitGroup* wg) {
  const Time t0 = sim::Engine::current()->now();
  rdmalib::Buffer<std::uint8_t> in(kBufBytes, rfaas::InvocationHeader::kSize);
  rdmalib::Buffer<std::uint8_t> out(kBufBytes);
  (void)co_await in.register_memory_timed(*invoker.pd(), fabric::LocalWrite);
  (void)co_await out.register_memory_timed(*invoker.pd(),
                                           fabric::RemoteWrite | fabric::LocalWrite);
  auto r = co_await invoker.invoke(0, in, kPayload, out);
  if (r.ok) {
    samples.push_back(static_cast<double>(sim::Engine::current()->now() - t0));
  } else {
    ++*failures;
  }
  in.deregister();
  out.deregister();
  wg->done();
}

sim::Task<void> fast_path_call(rfaas::Invoker& invoker,
                               std::span<const std::uint8_t> payload,
                               std::vector<double>& samples, std::size_t* failures,
                               sim::WaitGroup* wg) {
  const Time t0 = sim::Engine::current()->now();
  auto r = co_await invoker.invoke_pooled(0, payload);
  if (r.ok) {
    samples.push_back(static_cast<double>(sim::Engine::current()->now() - t0));
  } else {
    ++*failures;
  }
  wg->done();
}

FanoutResult run_fanout(unsigned workers, unsigned fanout, unsigned rounds) {
  cluster::Harness h(paper_testbed(1));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  FanoutResult result;
  std::vector<double> bytes_samples, fast_samples;
  std::size_t bytes_failures = 0, fast_failures = 0;

  auto scenario = [&]() -> sim::Task<void> {
    rfaas::AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = workers;
    spec.policy = rfaas::InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "allocation failed: %s\n", st.error().message.c_str());
      co_return;
    }
    invoker->reserve_slots(fanout, kBufBytes, kBufBytes);
    std::array<std::uint8_t, kPayload> payload;
    payload.fill(0x42);

    // Warm the workers so both paths measure hot invocations only.
    {
      auto in = invoker->input_buffer<std::uint8_t>(kBufBytes);
      auto out = invoker->output_buffer<std::uint8_t>(kBufBytes);
      for (unsigned i = 0; i < workers; ++i) {
        (void)co_await invoker->invoke(0, in, kPayload, out);
      }
    }

    for (unsigned round = 0; round < rounds; ++round) {
      {
        sim::WaitGroup wg(fanout);
        for (unsigned i = 0; i < fanout; ++i) {
          sim::spawn(h.engine(),
                     bytes_path_call(*invoker, bytes_samples, &bytes_failures, &wg));
        }
        co_await wg.wait();
      }
      co_await sim::delay(1_ms);
      {
        sim::WaitGroup wg(fanout);
        for (unsigned i = 0; i < fanout; ++i) {
          sim::spawn(h.engine(),
                     fast_path_call(*invoker, payload, fast_samples, &fast_failures, &wg));
        }
        co_await wg.wait();
      }
      co_await sim::delay(1_ms);
    }
    co_await invoker->deallocate();
  };
  h.spawn(scenario());
  h.run_for(600_s);

  result.bytes_path = LatencyStats::from(bytes_samples, bytes_failures);
  result.fast_path = LatencyStats::from(fast_samples, fast_failures);
  return result;
}

// --------------------------------------------------------------------------
// (b) Allocations per invocation: frame path vs per-call buffers
// --------------------------------------------------------------------------

struct AllocCounts {
  double bytes_per_call = 0;
  double fast_per_call = 0;
};

AllocCounts run_alloc_count(unsigned rounds) {
  sim::Engine eng;
  eng.make_current();
  fabric::Fabric fab(eng);
  auto& dev = fab.create_device("client");
  auto* pd = dev.alloc_pd();

  AllocCounts counts;

  // Old path: per-call buffer construction + registration (untimed here —
  // we count heap traffic, the latency cost is measured in part (a)).
  {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < rounds; ++i) {
      rdmalib::Buffer<std::uint8_t> in(kBufBytes, rfaas::InvocationHeader::kSize);
      rdmalib::Buffer<std::uint8_t> out(kBufBytes);
      (void)in.register_memory(*pd, fabric::LocalWrite);
      (void)out.register_memory(*pd, fabric::RemoteWrite | fabric::LocalWrite);
      rfaas::InvocationHeader h;
      h.result_addr = reinterpret_cast<std::uint64_t>(out.raw());
      h.result_rkey = out.mr()->rkey();
      h.pack(in.raw());
      in.deregister();
      out.deregister();
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    counts.bytes_per_call = static_cast<double>(after - before) / rounds;
  }

  // Fast path: one pre-registered slot recycled per call; per call only
  // the header encode, the stack WR + SGE list, the packed immediate and
  // the response decode remain.
  {
    rdmalib::Buffer<std::uint8_t> in(kBufBytes, rfaas::InvocationHeader::kSize);
    rdmalib::Buffer<std::uint8_t> out(kBufBytes);
    (void)in.register_memory(*pd, fabric::LocalWrite);
    (void)out.register_memory(*pd, fabric::RemoteWrite | fabric::LocalWrite);

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < rounds; ++i) {
      rfaas::InvocationHeader h;
      h.result_addr = reinterpret_cast<std::uint64_t>(out.raw());
      h.result_rkey = out.mr()->rkey();
      (void)rfaas::encode_into(h, in.raw(), rfaas::InvocationHeader::kSize);
      fabric::SendWr wr;
      wr.opcode = fabric::Opcode::WriteImm;
      wr.sge = {in.sge_with_header(kPayload)};
      wr.imm = rfaas::Imm::invocation(0, i & 0x7FFFF);
      fabric::Wc wc;
      wc.imm = rfaas::Imm::result(rfaas::Imm::invocation_id(wr.imm), false);
      wc.has_imm = true;
      wc.byte_len = kPayload;
      auto resp = rfaas::decode_invocation_response(wc);
      if (resp.invocation_id != (i & 0x7FFFF)) std::abort();
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    counts.fast_per_call = static_cast<double>(after - before) / rounds;
    in.deregister();
    out.deregister();
  }
  return counts;
}

// --------------------------------------------------------------------------
// (c) Doorbell/completion batching
// --------------------------------------------------------------------------

struct BatchTimes {
  Duration sequential = 0;  // N x (post_send + wait_polling)
  Duration batched = 0;     // post_send_many + wait_polling_many drain
};

BatchTimes run_doorbell(unsigned n) {
  sim::Engine eng;
  eng.make_current();
  fabric::Fabric fab(eng);
  auto& devA = fab.create_device("A");
  auto& devB = fab.create_device("B");
  auto* pdA = devA.alloc_pd();
  auto* pdB = devB.alloc_pd();
  fabric::CompletionQueue scq(fab.model()), rcq(fab.model());
  fabric::CompletionQueue scqB(fab.model()), rcqB(fab.model());
  auto* qpA = devA.create_qp(pdA, &scq, &rcq);
  auto* qpB = devB.create_qp(pdB, &scqB, &rcqB);
  fabric::QueuePair::connect_pair(*qpA, *qpB);

  std::vector<std::uint8_t> src(8 * n, 0x7E), dst(8 * n, 0);
  auto* mrA = pdA->register_memory(src.data(), src.size(), fabric::LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), fabric::RemoteWrite);

  auto make_wr = [&](unsigned i) {
    fabric::SendWr wr;
    wr.wr_id = i + 1;
    wr.opcode = fabric::Opcode::Write;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src.data() + 8 * i), 8, mrA->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data() + 8 * i);
    wr.rkey = mrB->rkey();
    wr.inline_data = true;
    return wr;
  };

  BatchTimes times;
  auto body = [&]() -> sim::Task<void> {
    // Sequential: one doorbell and one CQ wait per WR (the discipline the
    // seed's billing flush used).
    Time t0 = eng.now();
    for (unsigned i = 0; i < n; ++i) {
      (void)qpA->post_send(make_wr(i));
      (void)co_await scq.wait_polling();
    }
    times.sequential = eng.now() - t0;

    // Batched: one doorbell for the chain, then drain the CQ in sweeps.
    std::vector<fabric::SendWr> wrs;
    for (unsigned i = 0; i < n; ++i) wrs.push_back(make_wr(i));
    t0 = eng.now();
    (void)qpA->post_send_many({wrs.data(), wrs.size()});
    std::size_t drained = 0;
    std::vector<fabric::Wc> wcs(n);
    while (drained < n) {
      drained += co_await scq.wait_polling_many({wcs.data(), n - drained});
    }
    times.batched = eng.now() - t0;
  };
  sim::spawn(eng, body());
  eng.run();
  return times;
}

// --------------------------------------------------------------------------
// (d) Warm pool on a multi-tenant allocate/invoke/idle trace
// --------------------------------------------------------------------------

struct TraceResult {
  double hit_rate = 0;
  std::uint64_t cold_starts = 0;
  double avg_memory_mb = 0;  // pool memory averaged over the whole window
};

/// Deterministic per-(tenant, round) idle gap: tenant-specific base with
/// a hashed jitter, 2-6.2 s.
Duration idle_gap(unsigned tenant, unsigned round) {
  const std::uint64_t h = (tenant * 40503u + round * 2654435761u) % 1000;
  return (2000 + tenant * 800 + h) * 1_ms;
}

sim::Task<void> tenant_loop(cluster::Harness& h, rfaas::Invoker& invoker, unsigned tenant,
                            unsigned rounds, sim::WaitGroup* wg) {
  rfaas::AllocationSpec spec;
  spec.function_name = "echo";
  spec.workers = 1;
  spec.policy = rfaas::InvocationPolicy::HotAlways;

  auto in = invoker.input_buffer<std::uint8_t>(kBufBytes);
  auto out = invoker.output_buffer<std::uint8_t>(kBufBytes);
  for (unsigned round = 0; round < rounds; ++round) {
    auto st = co_await invoker.allocate(spec);
    if (st.ok()) {
      for (int i = 0; i < 3; ++i) (void)co_await invoker.invoke(0, in, kPayload, out);
      co_await invoker.deallocate();
    }
    co_await sim::delay(idle_gap(tenant, round));
  }
  wg->done();
}

TraceResult run_trace(unsigned tenants, unsigned rounds, Duration min_keepalive,
                      Duration max_keepalive, Duration tail) {
  auto spec = paper_testbed(1);
  spec.config.warm_pool_capacity = 8;
  spec.config.warm_pool_min_keepalive = min_keepalive;
  spec.config.warm_pool_max_keepalive = max_keepalive;
  cluster::Harness h(spec);
  h.registry().add_echo();
  h.start();

  std::vector<std::unique_ptr<rfaas::Invoker>> invokers;
  for (unsigned t = 0; t < tenants; ++t) invokers.push_back(h.make_invoker(0, t + 1));

  // Integrate pool memory over the run (1 s sampling) to price the
  // keep-alive policy: what the provider holds, not just the hit rate.
  double mb_integral = 0;
  std::uint64_t samples = 0;
  bool sampling = true;
  auto sampler = [&]() -> sim::Task<void> {
    while (sampling) {
      co_await sim::delay(1_s);
      mb_integral += static_cast<double>(h.executor(0).warm_pool_memory_bytes()) / (1 << 20);
      ++samples;
    }
  };

  auto body = [&]() -> sim::Task<void> {
    sim::WaitGroup wg(tenants);
    for (unsigned t = 0; t < tenants; ++t) {
      sim::spawn(h.engine(), tenant_loop(h, *invokers[t], t, rounds, &wg));
    }
    co_await wg.wait();
    co_await sim::delay(tail);  // watch the pool drain after the last tenant leaves
    sampling = false;
  };
  sim::spawn(h.engine(), sampler());
  h.spawn(body());
  h.run_for(3600_s);

  const auto& stats = h.executor(0).warm_pool_stats();
  TraceResult r;
  const std::uint64_t total = stats.hits + stats.misses;
  r.hit_rate = total > 0 ? static_cast<double>(stats.hits) / total : 0;
  r.cold_starts = stats.misses;
  r.avg_memory_mb = samples > 0 ? mb_integral / samples : 0;
  return r;
}

// --------------------------------------------------------------------------

void run() {
  banner("Figure 18",
         "zero-copy invocation data plane + predictive warm sandbox pool");

  const unsigned workers = 32;
  const unsigned fanout = smoke_mode() ? 16 : 64;
  const unsigned fan_rounds = scaled_reps(6, 3);
  const unsigned alloc_rounds = scaled_reps(10000);
  const unsigned batch_n = 16;
  const unsigned tenants = 4;
  // The trace length is NOT shrunk in smoke mode: the warm-hit rate is
  // bounded by 1 - 1/rounds (the first allocation per tenant is an
  // unavoidable cold start), so a short trace cannot clear the 95% gate.
  // The trace is event-driven and cheap in real time.
  const unsigned trace_rounds = 48;

  std::printf("fan-out: %u concurrent invocations over %u hot workers, %u rounds\n",
              fanout, workers, fan_rounds);
  auto fan = run_fanout(workers, fanout, fan_rounds);
  std::printf("alloc count: %u rounds\n", alloc_rounds);
  auto allocs = run_alloc_count(alloc_rounds);
  std::printf("doorbell batching: %u WRs\n", batch_n);
  auto batch = run_doorbell(batch_n);
  std::printf("warm-pool trace: %u tenants x %u rounds (predictive vs fixed keep-alive)\n\n",
              tenants, trace_rounds);
  auto predictive = run_trace(tenants, trace_rounds, /*min=*/1_s, /*max=*/120_s,
                              /*tail=*/140_s);
  auto fixed = run_trace(tenants, trace_rounds, /*min=*/120_s, /*max=*/120_s,
                         /*tail=*/140_s);

  Table table({"metric", "baseline", "fast", "ratio"});
  auto ratio = [](double base, double fast) {
    return fast > 0 ? Table::num(base / fast) : std::string{};
  };
  table.row({"invoke-p99-us", Table::num(fan.bytes_path.p99 / 1000.0),
             Table::num(fan.fast_path.p99 / 1000.0),
             ratio(fan.bytes_path.p99, fan.fast_path.p99)});
  table.row({"invoke-median-us", Table::num(fan.bytes_path.median / 1000.0),
             Table::num(fan.fast_path.median / 1000.0),
             ratio(fan.bytes_path.median, fan.fast_path.median)});
  table.row({"invoke-failures", Table::num(static_cast<double>(fan.bytes_path.failures), 0),
             Table::num(static_cast<double>(fan.fast_path.failures), 0), ""});
  table.row({"allocs-per-invocation", Table::num(allocs.bytes_per_call),
             Table::num(allocs.fast_per_call), ""});
  table.row({"doorbell-batch-16-us",
             Table::num(static_cast<double>(batch.sequential) / 1000.0),
             Table::num(static_cast<double>(batch.batched) / 1000.0),
             ratio(static_cast<double>(batch.sequential),
                   static_cast<double>(batch.batched))});
  table.row({"warm-hit-rate", Table::num(fixed.hit_rate, 4),
             Table::num(predictive.hit_rate, 4), ""});
  table.row({"warm-cold-starts", Table::num(static_cast<double>(fixed.cold_starts), 0),
             Table::num(static_cast<double>(predictive.cold_starts), 0), ""});
  table.row({"warm-memory-held-mb", Table::num(fixed.avg_memory_mb),
             Table::num(predictive.avg_memory_mb),
             ratio(fixed.avg_memory_mb, predictive.avg_memory_mb)});
  emit(table, "fig18_dataplane");

  std::printf(
      "Old path: per-call buffers + PD registration (serialized on the mmap write\n"
      "lock) collapse under fan-out; pre-registered slots keep the hot RTT flat.\n"
      "Predictive keep-alive matches fixed keep-alive's hit rate while releasing\n"
      "pool memory as soon as the idle histogram says the tenant is gone.\n");
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
