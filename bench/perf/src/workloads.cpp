// The four workloads of rfaas_perf. Each one stresses a different layer,
// so a change to one layer moves one workload and leaves the others as
// the control (README.md lists which metric each layer should move):
//
//  invoke_open       open-loop hot invocations: the paper's headline
//                    data plane, control plane idle after set-up;
//  parallel_batches  closed-loop fan-out of 32 warm invocations with
//                    fault tolerance on: the HPC offload pattern, where
//                    the slowest part sets the round's time;
//  lease_churn       open-loop lease requests at 1.2x admission capacity:
//                    the control plane alone (session, codecs, admission,
//                    sharded manager), no invocations;
//  alloc_churn       allocate / invoke / deallocate cycles: cold starts
//                    and warm-pool revivals, and the per-call-buffer
//                    invoke() entry point.
//
// Op counts are fixed per segment and a run's segments depend on
// --seconds only, so two commits do the same virtual work.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "perf.hpp"
#include "rfaas/protocol.hpp"

namespace rfs::perf {
namespace {

constexpr std::uint32_t kMaxPayload = 4096;

void require(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "rfaas_perf: %s\n", what.c_str());
  std::exit(1);
}

/// Fills `payload` with `size` fixed pattern bytes, the op id in the
/// first 8 (where perf_echo reads it).
void fill_payload(std::uint8_t* payload, std::uint64_t op, std::uint32_t size) {
  static const auto pattern = [] {
    std::array<std::uint8_t, kMaxPayload> b{};
    std::uint64_t s = 0x5eed;
    for (auto& x : b) x = static_cast<std::uint8_t>(splitmix64(s += kSplitmix64Gamma));
    return b;
  }();
  std::memcpy(payload, pattern.data(), size);
  std::memcpy(payload, &op, sizeof op);
}

/// An invocation of perf_echo succeeded and echoed all `size` bytes.
bool echoed(const rfaas::InvocationResult& r, std::uint32_t size) {
  return r.ok && !r.timed_out && !r.corrupt && r.output_bytes == size;
}

/// Poisson inter-arrival gap at `rate_hz`.
Duration gap(Rng& rng, double rate_hz) {
  return static_cast<Duration>(rng.exponential(rate_hz) * 1e9);
}

/// Every workload runs the paper's calibration with 16 KiB worker
/// buffers: payloads stop at 4 KiB, and the 8 MiB default would make the
/// host memory of the simulation, not its logic, dominate peak RSS. (A
/// cold worker pins 8 pages instead of 4096, ~1.2 ms less cold start.)
rfaas::Config base_config() {
  rfaas::Config config;
  config.worker_buffer_bytes = 16_KiB;
  return config;
}

sim::Task<void> allocate_or_exit(rfaas::Invoker& invoker, std::uint32_t workers,
                                 rfaas::InvocationPolicy policy, const char* workload) {
  rfaas::AllocationSpec spec;
  spec.function_name = "perf_echo";
  spec.workers = workers;
  spec.policy = policy;
  const auto st = co_await invoker.allocate(spec);
  require(st.ok() && invoker.connected_workers() == workers,
          std::string(workload) + ": allocation failed");
}

// --------------------------------------------------------------------------

/// Open-loop Poisson invocations at ~60% of 8 hot workers' capacity,
/// payloads log-uniform in [8 B, 4 KiB) so ~40% fit the 128 B inline
/// limit with the 32 B header. Latency runs from each op's due time.
class InvokeOpen final : public Workload {
 public:
  using Workload::Workload;

  static cluster::ScenarioSpec scenario() {
    auto spec = cluster::ScenarioSpec::uniform(2);
    spec.config = base_config();
    spec.assert_drained = false;
    return spec;
  }

  void build() override {
    h_ = std::make_unique<cluster::Harness>(scenario());
    register_echo(h_->registry(), entries_, 0);
    h_->start();
  }

  void deploy() override {
    invoker_ = h_->make_invoker(0, 1);
    run_to_completion(
        allocate_or_exit(*invoker_, kWorkers, rfaas::InvocationPolicy::HotAlways, "invoke_open"));
    invoker_->reserve_slots(kSlots, kMaxPayload, kMaxPayload);
    warm_up();
  }

  [[nodiscard]] std::uint64_t segment_ops() const override { return scaled(80'000); }

  sim::Task<void> segment(std::uint64_t k, std::uint64_t ops, Recorder& rec) override {
    Rng rng(segment_seed(k));
    sim::WaitGroup wg(ops);
    const double lo = std::log(8.0);
    const double hi = std::log(static_cast<double>(kMaxPayload));
    for (std::uint64_t i = 0; i < ops; ++i) {
      co_await sim::delay(gap(rng, kRateHz));
      const auto size = std::clamp<std::uint32_t>(
          static_cast<std::uint32_t>(std::exp(rng.uniform(lo, hi))), 8, kMaxPayload);
      sim::spawn(h_->engine(), invoke((k << 32) + i, size, rec, wg));
    }
    co_await wg.wait();
  }

  void finish(Recorder& rec, Layers& layers) override {
    layers["invoker.rejections"] = static_cast<double>(invoker_->total_rejections());
    layers["invoker.unloaded_rtt_us.64B"] = to_us(unloaded_.rtt_64);
    run_to_completion(invoker_->deallocate());
    finish_manager(rec, layers);
  }

 protected:
  UnloadedLegs probe_unloaded() override {
    return probe_invocations(scenario(), rfaas::InvocationPolicy::HotAlways, true, 0);
  }

 private:
  static constexpr double kRateHz = 1.2e6;
  static constexpr std::uint32_t kWorkers = 8;
  static constexpr std::size_t kSlots = 32;

  sim::Task<void> invoke(std::uint64_t op, std::uint32_t size, Recorder& rec,
                         sim::WaitGroup& wg) {
    std::array<std::uint8_t, kMaxPayload> payload;
    fill_payload(payload.data(), op, size);
    const Time due = h_->engine().now();
    const auto r = co_await invoker_->invoke_pooled(0, {payload.data(), size});
    ++rec.attempted;
    if (echoed(r, size)) {
      rec.latency(r.completed_at - due);
      ++rec.ok_ops;
      if (rec.trace) record_legs(rec, op, op, size, 0, due, r.completed_at);
    } else {
      ++rec.failed;
    }
    wg.done();
  }

  std::unique_ptr<rfaas::Invoker> invoker_;
};

// --------------------------------------------------------------------------

/// Closed loop of rounds; each round fans out 32 invoke_pooled() calls to
/// 32 warm workers with fault tolerance on (2 ms deadline, retry budget
/// 2, checksums) and waits for all. Payloads uniform in [256 B, 4 KiB],
/// user code 5 ns per byte. Latency is the round's makespan.
class ParallelBatches final : public Workload {
 public:
  using Workload::Workload;

  static cluster::ScenarioSpec scenario() {
    auto spec = cluster::ScenarioSpec::uniform(4);
    spec.config = base_config();
    auto& ft = spec.config.fault_tolerance;
    ft.invocation_deadline = 2_ms;
    ft.retry_budget = 2;
    ft.checksum = true;
    ft.hedging = false;
    spec.assert_drained = false;
    return spec;
  }

  void build() override {
    h_ = std::make_unique<cluster::Harness>(scenario());
    register_echo(h_->registry(), entries_, kNsPerByte);
    h_->start();
  }

  void deploy() override {
    invoker_ = h_->make_invoker(0, 1);
    run_to_completion(allocate_or_exit(*invoker_, kWorkers, rfaas::InvocationPolicy::WarmAlways,
                                       "parallel_batches"));
    invoker_->reserve_slots(kWorkers, kMaxPayload, kMaxPayload);
    warm_up();
  }

  /// Ops are invocations: 800 rounds of 32.
  [[nodiscard]] std::uint64_t segment_ops() const override { return scaled(800) * kWorkers; }

  sim::Task<void> segment(std::uint64_t k, std::uint64_t ops, Recorder& rec) override {
    Rng rng(segment_seed(k));
    const std::uint64_t rounds = std::max<std::uint64_t>(1, ops / kWorkers);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t round = (k << 32) + r;
      Round state{sim::WaitGroup(kWorkers), true, h_->engine().now()};
      const Time start = state.last;
      for (std::uint32_t i = 0; i < kWorkers; ++i) {
        const auto size = static_cast<std::uint32_t>(rng.uniform_int(256, kMaxPayload));
        sim::spawn(h_->engine(), invoke(round, round * kWorkers + i, size, rec, state));
      }
      co_await state.wg.wait();
      if (state.ok) rec.latency(state.last - start);
      rec.span(round, 0, "batch", "", start, state.last);
    }
  }

  void finish(Recorder& rec, Layers& layers) override {
    layers["invoker.rejections"] = static_cast<double>(invoker_->total_rejections());
    layers["invoker.ft_retries"] = static_cast<double>(invoker_->ft_retries());
    layers["invoker.ft_timeouts"] = static_cast<double>(invoker_->ft_timeouts());
    layers["invoker.ft_corruptions"] = static_cast<double>(invoker_->ft_corruptions());
    layers["invoker.unloaded_rtt_us.64B"] = to_us(unloaded_.rtt_64);
    // No fault is injected, so the fault-tolerance machinery must stay idle.
    if (invoker_->ft_retries() + invoker_->ft_timeouts() + invoker_->ft_corruptions() != 0) {
      rec.fail("fault tolerance fired without injected faults");
    }
    run_to_completion(invoker_->deallocate());
    finish_manager(rec, layers);
  }

 protected:
  UnloadedLegs probe_unloaded() override {
    return probe_invocations(scenario(), rfaas::InvocationPolicy::WarmAlways, true, kNsPerByte);
  }

 private:
  static constexpr std::uint32_t kWorkers = 32;
  static constexpr Duration kNsPerByte = 5;

  struct Round {
    sim::WaitGroup wg;
    bool ok;
    Time last;  ///< latest completion so far
  };

  sim::Task<void> invoke(std::uint64_t round, std::uint64_t op, std::uint32_t size,
                         Recorder& rec, Round& state) {
    std::array<std::uint8_t, kMaxPayload> payload;
    fill_payload(payload.data(), op, size);
    const Time due = h_->engine().now();
    const auto r = co_await invoker_->invoke_pooled(0, {payload.data(), size});
    ++rec.attempted;
    if (echoed(r, size)) {
      ++rec.ok_ops;
      if (rec.trace) {
        record_legs(rec, round, op, size, kNsPerByte * size, due, r.completed_at, "batch");
      }
      state.last = std::max(state.last, r.completed_at);
    } else {
      ++rec.failed;
      state.ok = false;
    }
    state.wg.done();
  }

  std::unique_ptr<rfaas::Invoker> invoker_;
};

// --------------------------------------------------------------------------

/// Four tenants (WFQ weights 4/2/1/1), one Session each, offer 6,000
/// Poisson lease requests/s together against a 256-executor, 4-shard
/// manager admitting 5,000/s. Each grant (1 worker) is held 50-150 ms
/// and released with an acked ReleaseResources call. Latency runs from
/// each request's due time to its decoded grant, admitted requests only.
class LeaseChurn final : public Workload {
 public:
  using Workload::Workload;

  void build() override {
    auto spec = cluster::ScenarioSpec::large_fleet(256, kTenants, 8, 2023);
    spec.config = base_config();
    spec.config.manager_shards = 4;
    spec.config.admission.capacity_hz = 5000;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      spec.config.admission.tenant_weights.emplace_back(kFirstTenant + t, kWeights[t]);
    }
    spec.assert_drained = false;
    h_ = std::make_unique<cluster::Harness>(spec);
    h_->start();
  }

  void deploy() override {
    run_to_completion(connect());
    warm_up();
    admitted_before_ = h_->rm().admission().admitted();
    shed_wfq_before_ = h_->rm().admission().shed_wfq();
  }

  [[nodiscard]] std::uint64_t segment_ops() const override {
    return std::max<std::uint64_t>(kTenants, scaled(120'000) / kTenants * kTenants);
  }

  sim::Task<void> segment(std::uint64_t k, std::uint64_t ops, Recorder& rec) override {
    const std::uint64_t per_tenant = std::max<std::uint64_t>(1, ops / kTenants);
    sim::WaitGroup wg(per_tenant * kTenants);
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      sim::spawn(h_->engine(), tenant(k, t, per_tenant, rec, wg));
    }
    co_await wg.wait();
  }

  void finish(Recorder& rec, Layers& layers) override {
    std::uint64_t retransmits = 0, call_failures = 0, double_grants = 0;
    for (const auto& s : sessions_) {
      retransmits += s->retransmits();
      call_failures += s->call_failures();
      double_grants += s->double_grants();
    }
    if (double_grants != 0) rec.fail("sessions saw double grants");
    const auto& admission = h_->rm().admission();
    const double requests = static_cast<double>(std::max<std::uint64_t>(1, requests_));
    layers["session.retransmits"] = static_cast<double>(retransmits);
    layers["session.call_failures"] = static_cast<double>(call_failures);
    layers["admission.admitted"] = static_cast<double>(admission.admitted() - admitted_before_);
    layers["admission.shed_pct"] = 100.0 * static_cast<double>(sheds_) / requests;
    layers["admission.shed_wfq_pct"] =
        100.0 * static_cast<double>(admission.shed_wfq() - shed_wfq_before_) / requests;
    finish_manager(rec, layers);
  }

 private:
  static constexpr std::uint32_t kTenants = 4;
  static constexpr std::array<std::uint32_t, kTenants> kWeights{4, 2, 1, 1};
  static constexpr std::uint32_t kFirstTenant = 101;
  static constexpr double kOfferedHz = 6000;
  static constexpr std::uint64_t kMemory = 64_MiB;

  sim::Task<void> connect() {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      auto conn = co_await h_->tcp().connect(h_->client_device(t).id(), h_->rm().device().id(),
                                             h_->rm().port());
      require(conn.ok(), "lease_churn: cannot reach the manager");
      sessions_.push_back(std::make_shared<rfaas::Session>(h_->engine(), conn.value()));
    }
  }

  sim::Task<void> tenant(std::uint64_t k, std::uint32_t t, std::uint64_t requests, Recorder& rec,
                         sim::WaitGroup& wg) {
    Rng rng(segment_seed(k, t));
    for (std::uint64_t i = 0; i < requests; ++i) {
      co_await sim::delay(gap(rng, kOfferedHz / kTenants));
      const Duration hold = rng.uniform_int(50_ms, 150_ms);
      sim::spawn(h_->engine(), request(t, (k << 32) + i * kTenants + t, hold, rec, wg));
    }
  }

  sim::Task<void> request(std::uint32_t t, std::uint64_t op, Duration hold, Recorder& rec,
                          sim::WaitGroup& wg) {
    auto& session = *sessions_[t];
    auto& engine = h_->engine();
    rfaas::LeaseRequestMsg req;
    req.client_id = kFirstTenant + t;
    req.workers = 1;
    req.memory_bytes = kMemory;
    req.timeout = 30_s;
    req.request_id = session.next_request_id();
    const Time due = engine.now();
    const auto reply = co_await session.call(rfaas::encode(req), req.request_id);
    const Time replied = engine.now();
    ++rec.attempted;
    ++requests_;
    bool ok = reply.ok();
    if (ok) {
      if (rec.trace) rec.sample("session.call_us", to_us(replied - due));
      rec.span(op, op, "session.call", "lease", due, replied);
      if (const auto grant = rfaas::decode_lease_grant(reply.value()); grant.ok()) {
        rec.latency(replied - due);
        ++rec.ok_ops;
        co_await sim::delay(hold);
        const Time release_at = engine.now();
        rfaas::ReleaseResourcesMsg rel;
        rel.lease_id = grant.value().lease_id;
        rel.workers = grant.value().workers;
        rel.memory_bytes = kMemory * grant.value().workers;
        rel.request_id = session.next_request_id();
        const auto ack = co_await session.call(rfaas::encode(rel), rel.request_id);
        ok = ack.ok() && rfaas::decode_release_ok(ack.value()).ok();
        if (rec.trace) rec.sample("session.call_us", to_us(engine.now() - release_at));
        rec.span(op, op, "hold", "lease", replied, release_at);
        rec.span(op, op, "session.call", "lease", release_at, engine.now());
      } else if (rfaas::decode_lease_denied(reply.value()).ok()) {
        ++sheds_;
      } else {
        ok = false;  // a capacity refusal: the fleet is sized so none occur
      }
    }
    if (!ok) ++rec.failed;
    rec.span(op, op, "lease", "", due, engine.now());
    wg.done();
  }

  std::vector<std::shared_ptr<rfaas::Session>> sessions_;
  std::uint64_t requests_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t admitted_before_ = 0;
  std::uint64_t shed_wfq_before_ = 0;
};

// --------------------------------------------------------------------------

/// Four tenants cycle allocate -> 16 invoke() calls on caller-owned 64 B
/// buffers (outputs compared byte for byte) -> deallocate -> exponential
/// idle gap (mean 300 ms) against 4 executors with an 8-deep warm pool.
/// Tenant t allocates t+1 hot workers, but 10% of cycles draw another
/// count from 1-8, so both warm revivals and cold starts occur. Each
/// tenant's function library has its own size, log-uniform in 16-64 KiB
/// per seed: code shipping and installation scale with it. Latency is
/// the allocate() duration.
class AllocChurn final : public Workload {
 public:
  using Workload::Workload;

  static cluster::ScenarioSpec scenario() {
    auto spec = cluster::ScenarioSpec::uniform(4, 36, 64_GiB, kTenants);
    spec.config = base_config();
    spec.config.warm_pool_capacity = 8;
    spec.assert_drained = false;
    return spec;
  }

  void build() override {
    h_ = std::make_unique<cluster::Harness>(scenario());
    register_echo(h_->registry(), entries_, 0);
    h_->start();
  }

  void deploy() override {
    Rng rng(segment_seed(kWarmupSegment + 1));  // per run, not per segment
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      code_size_.push_back(static_cast<std::uint64_t>(
          std::exp(rng.uniform(std::log(16.0 * 1024), std::log(64.0 * 1024)))));
      invokers_.push_back(h_->make_invoker(t, t + 1));
      in_.push_back(invokers_.back()->input_buffer<std::uint8_t>(kPayload));
      out_.push_back(invokers_.back()->output_buffer<std::uint8_t>(kPayload));
    }
    warm_up();
    pool_before_ = pool_stats();
  }

  /// Ops are allocation cycles.
  [[nodiscard]] std::uint64_t segment_ops() const override {
    return std::max<std::uint64_t>(kTenants, scaled(4000) / kTenants * kTenants);
  }

  sim::Task<void> segment(std::uint64_t k, std::uint64_t ops, Recorder& rec) override {
    const std::uint64_t per_tenant = std::max<std::uint64_t>(1, ops / kTenants);
    sim::WaitGroup wg(kTenants);
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      sim::spawn(h_->engine(), tenant(k, t, per_tenant, rec, wg));
    }
    co_await wg.wait();
  }

  void sample() override {
    Workload::sample();
    std::uint64_t bytes = 0;
    for (std::size_t e = 0; e < h_->executor_count(); ++e) {
      bytes += h_->executor(e).warm_pool_memory_bytes();
    }
    pool_mb_sum_ += static_cast<double>(bytes) / static_cast<double>(1_MiB);
    ++pool_samples_;
  }

  void finish(Recorder& rec, Layers& layers) override {
    const auto now = pool_stats();
    const auto hits = static_cast<double>(now.hits - pool_before_.hits);
    const auto misses = static_cast<double>(now.misses - pool_before_.misses);
    const auto evictions = [](const rfaas::WarmPoolStats& s) {
      return s.predictive_evictions + s.capacity_evictions + s.pressure_evictions;
    };
    layers["executor.warm_hit_pct"] = hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0;
    layers["executor.pool_evictions"] =
        static_cast<double>(evictions(now) - evictions(pool_before_));
    layers["executor.pool_memory_mb"] =
        pool_samples_ == 0 ? 0 : pool_mb_sum_ / static_cast<double>(pool_samples_);
    std::uint64_t rejections = 0;
    for (const auto& inv : invokers_) rejections += inv->total_rejections();
    layers["invoker.rejections"] = static_cast<double>(rejections);
    layers["invoker.unloaded_rtt_us.64B"] = to_us(unloaded_.rtt_64);
    finish_manager(rec, layers);
  }

 protected:
  UnloadedLegs probe_unloaded() override {
    return probe_invocations(scenario(), rfaas::InvocationPolicy::HotAlways, false, 0);
  }

 private:
  static constexpr std::uint32_t kTenants = 4;
  static constexpr unsigned kInvokes = 16;
  static constexpr std::size_t kPayload = 64;

  [[nodiscard]] rfaas::WarmPoolStats pool_stats() const {
    rfaas::WarmPoolStats sum;
    for (std::size_t e = 0; e < h_->executor_count(); ++e) {
      const auto& s = h_->executor(e).warm_pool_stats();
      sum.hits += s.hits;
      sum.misses += s.misses;
      sum.predictive_evictions += s.predictive_evictions;
      sum.capacity_evictions += s.capacity_evictions;
      sum.pressure_evictions += s.pressure_evictions;
    }
    return sum;
  }

  sim::Task<void> tenant(std::uint64_t k, std::uint32_t t, std::uint64_t cycles, Recorder& rec,
                         sim::WaitGroup& wg) {
    Rng rng(segment_seed(k, t));
    for (std::uint64_t c = 0; c < cycles; ++c) {
      const std::uint32_t workers =
          rng.bernoulli(0.1) ? static_cast<std::uint32_t>(rng.uniform_int(1, 8)) : t + 1;
      co_await cycle(t, (k << 32) + c * kTenants + t, workers, rng, rec);
      co_await sim::delay(gap(rng, 1.0 / 0.3));
    }
    wg.done();
  }

  sim::Task<void> cycle(std::uint32_t t, std::uint64_t id, std::uint32_t workers, Rng& rng,
                        Recorder& rec) {
    auto& invoker = *invokers_[t];
    auto& engine = h_->engine();
    rfaas::AllocationSpec spec;
    spec.function_name = "perf_echo";
    spec.workers = workers;
    spec.policy = rfaas::InvocationPolicy::HotAlways;
    spec.code_size = code_size_[t];
    const rfaas::ColdStartBreakdown before = invoker.cold_start();
    const Time start = engine.now();
    const auto st = co_await invoker.allocate(spec);
    const Time allocated = engine.now();
    bool ok = st.ok() && invoker.connected_workers() == workers;
    if (ok && rec.trace) record_stages(rec, id, before, invoker.cold_start(), start);

    auto& in = in_[t];
    auto& out = out_[t];
    for (unsigned i = 0; ok && i < kInvokes; ++i) {
      const std::uint64_t op = (id << 4) | i;
      std::memcpy(in.data(), &op, sizeof op);
      for (std::size_t b = sizeof op; b < kPayload; ++b) {
        in.data()[b] = static_cast<std::uint8_t>(rng.next());
      }
      std::memset(out.data(), 0, kPayload);
      const Time due = engine.now();
      const auto r = co_await invoker.invoke(0, in, kPayload, out);
      ok = r.ok && r.output_bytes == kPayload && std::memcmp(out.data(), in.data(), kPayload) == 0;
      if (ok && rec.trace) record_legs(rec, id, op, kPayload, 0, due, r.completed_at, "cycle");
    }
    co_await invoker.deallocate();
    ok = ok && invoker.connected_workers() == 0;

    ++rec.attempted;
    if (!ok) {
      ++rec.failed;
    } else {
      rec.latency(allocated - start);
      ++rec.ok_ops;
    }
    rec.span(id, id, "allocate", "cycle", start, allocated);
    rec.span(id, id, "cycle", "", start, engine.now());
  }

  /// Per-call stage durations of one allocate(): every breakdown field
  /// but connect_manager accumulates across calls, so take deltas. The
  /// spans lay the stages end to end from the call's start.
  static void record_stages(Recorder& rec, std::uint64_t id, const rfaas::ColdStartBreakdown& a,
                            const rfaas::ColdStartBreakdown& b, Time start) {
    const std::array<std::pair<const char*, Duration>, 6> stages{{
        {"alloc.connect_manager", b.connect_manager},
        {"alloc.lease", b.lease - a.lease},
        {"alloc.submit_allocation", b.submit_allocation - a.submit_allocation},
        {"alloc.spawn_workers", b.spawn_workers - a.spawn_workers},
        {"alloc.connect_workers", b.connect_workers - a.connect_workers},
        {"alloc.submit_code", b.submit_code - a.submit_code},
    }};
    Time at = start;
    for (const auto& [name, d] : stages) {
      if (std::strcmp(name, "alloc.connect_manager") != 0) {
        rec.sample(std::string(name) + "_ms", to_ms(d));
      }
      rec.span(id, id, name, "allocate", at, at + d);
      at += d;
    }
  }

  std::vector<std::uint64_t> code_size_;  ///< per tenant, bytes
  std::vector<std::unique_ptr<rfaas::Invoker>> invokers_;
  std::vector<rdmalib::Buffer<std::uint8_t>> in_;   ///< per tenant, registered once
  std::vector<rdmalib::Buffer<std::uint8_t>> out_;
  rfaas::WarmPoolStats pool_before_;
  double pool_mb_sum_ = 0;
  std::uint64_t pool_samples_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"invoke_open", "parallel_batches", "lease_churn",
                                              "alloc_churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "invoke_open") return std::make_unique<InvokeOpen>(opt);
  if (opt.workload == "parallel_batches") return std::make_unique<ParallelBatches>(opt);
  if (opt.workload == "lease_churn") return std::make_unique<LeaseChurn>(opt);
  if (opt.workload == "alloc_churn") return std::make_unique<AllocChurn>(opt);
  return nullptr;
}

}  // namespace rfs::perf
