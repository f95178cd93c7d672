// Figure 21 (data-plane fault tolerance): invocations under seeded
// executor-side chaos — worker crash mid-invocation, stuck sandboxes,
// gray slowness and response corruption — recovered by the client-side
// deadline/retry/hedging layer and the health-scoring quarantine loop.
//
// The control plane already survives a lossy network (fig19) and a dead
// manager (fig20); this bench attacks the part rFaaS deliberately keeps
// manager-free: the RDMA data plane itself. A WorkerFaultInjector seeded
// from RFS_CHAOS_SEED decides the fate of each dispatch, and the gates
// enforce the recovery contract end to end:
//
//   1. 100% invocation survival — crashes, wedged sandboxes and gray
//      pauses surface as deadline timeouts and are absorbed by budgeted
//      retries rotating across held workers; no invocation is lost and
//      none hangs forever;
//   2. zero double-executions — retries and hedges carry idempotent
//      invocation tags; the executor dedup table replays instead of
//      re-executing (the injector counts every tag it actually ran);
//   3. detected = injected corruptions — every flipped response payload
//      is caught by the 12-bit folded CRC-32C checksum in the response imm
//      and healed by a same-worker dedup replay;
//   4. hedged tail containment — with one gray executor in the fleet,
//      p99 completion stays within 5x the fault-free baseline because
//      the backup invocation answers while the primary is still parked
//      in its gray pause;
//   5. quarantine convergence — the client breaker plus the manager's
//      HealthReport-driven drain move >= 90% of post-trip traffic off
//      the gray executor, and the manager records the quarantine;
//   6. zero-allocation fast path — the per-invocation client-side work
//      with fault tolerance enabled (32-byte header with tag, deadline
//      and checksum; imm pack; response decode + checksum verify) stays
//      allocation-free.
//
// Every run is replayable from RFS_CHAOS_SEED; a failing gate prints the
// repro command. CI runs the smoke gate plus a 10-seed matrix; the
// nightly soak widens the seed set (RFS_CHAOS_SOAK=1 adds repetitions).
#include <array>
#include <cinttypes>
#include <cstring>

#include "bench_common.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

std::uint64_t chaos_seed() {
  const char* v = std::getenv("RFS_CHAOS_SEED");
  if (v == nullptr || v[0] == '\0') return 1;
  return std::strtoull(v, nullptr, 10);
}

bool soak_mode() {
  const char* v = std::getenv("RFS_CHAOS_SOAK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr std::size_t kBufBytes = 4096;
constexpr std::size_t kPayload = 1024;

/// One chaos schedule: a fleet-wide fault spec, an optional gray spec
/// pinned to executor 0 only, and the recovery features under test.
struct Schedule {
  const char* name;
  net::WorkerFaultSpec fleet{};  // default spec of every executor
  net::WorkerFaultSpec gray{};   // executor-0 override when enabled()
  bool hedging = false;
  /// Measure the share of post-breaker-trip invocations that still land
  /// on the gray executor (the quarantine-convergence gate).
  bool quarantine = false;
};

struct ScheduleResult {
  Schedule schedule;
  LatencyStats stats;
  unsigned reps = 0;
  bool allocated = false;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t corruptions_detected = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t rm_quarantined = 0;
  net::WorkerFaultInjector::Counters injected{};
  // Quarantine-convergence tally: invocations issued after the first
  // breaker trip, and how many of them touched the gray executor.
  unsigned post_trip = 0;
  unsigned post_trip_on_gray = 0;
};

ScheduleResult run_schedule(const Schedule& schedule, std::uint64_t seed, unsigned reps) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/4, /*cores=*/4,
                                             /*memory_bytes=*/16ull << 30, /*clients=*/1);
  auto& ft = spec.config.fault_tolerance;
  ft.invocation_deadline = 1_ms;  // >> the ~10 us healthy RTT, << a gray pause
  ft.retry_budget = 3;
  ft.checksum = true;
  if (schedule.hedging) {
    ft.hedging = true;
    // Well above the healthy RTT, well below gray_pause_min: the backup
    // fires only when the primary is genuinely slow, and its cancel
    // reaches the gray executor while the pause still holds the
    // original (no double-execution race).
    ft.hedge_delay = 10_us;
  }
  if (schedule.quarantine) {
    // The first invocation may burn one attempt per gray worker before
    // the breaker trips; budget past the gray executor's 4 workers.
    ft.retry_budget = 6;
    // Short Open windows: HalfOpen probes (which mostly fail against a
    // gray_p=0.9 executor) re-trip the breaker quickly enough that the
    // manager sees ResourceManager::kQuarantineTrips reports in the run.
    ft.breaker_open_timeout = 100_us;
  }
  spec.inject_worker_faults = schedule.fleet.enabled() || schedule.gray.enabled();
  spec.worker_faults = schedule.fleet;
  spec.fault_seed = seed;

  cluster::Harness harness(spec);
  harness.registry().add_echo();
  harness.start();

  const fabric::DeviceId gray_device = harness.executor(0).device().id();
  if (schedule.gray.enabled() && harness.worker_fault_injector() != nullptr) {
    harness.worker_fault_injector()->set_executor(gray_device, schedule.gray);
  }

  ScheduleResult result;
  result.schedule = schedule;
  result.reps = reps;

  auto invoker = harness.make_invoker(0, /*client_id=*/1);
  auto scenario = [&]() -> sim::Task<void> {
    rfaas::AllocationSpec alloc;
    alloc.function_name = "echo";
    alloc.workers = 8;  // 4 on the (possibly gray) executor 0, 4 elsewhere
    alloc.policy = rfaas::InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(alloc);
    if (!st.ok()) co_return;
    result.allocated = true;
    invoker->reserve_slots(4, kBufBytes, kBufBytes);

    std::array<std::uint8_t, kPayload> payload;
    payload.fill(0x42);

    // Convergence is measured on completions the gray executor served:
    // HalfOpen probe attempts (which mostly time out against it) are the
    // breaker doing its job, not traffic the executor carried.
    auto gray_tally = [&]() -> std::uint64_t {
      const auto* h = invoker->health_of(gray_device);
      return h == nullptr ? 0 : h->ok_count();
    };

    std::vector<double> samples;
    samples.reserve(reps);
    std::size_t failures = 0;
    for (unsigned i = 0; i < reps; ++i) {
      const bool tripped = schedule.quarantine && invoker->breaker_trips() > 0;
      const std::uint64_t gray_before = tripped ? gray_tally() : 0;
      const Time t0 = harness.engine().now();
      auto r = co_await invoker->invoke_pooled(0, payload);
      if (r.ok) {
        samples.push_back(static_cast<double>(harness.engine().now() - t0));
      } else {
        ++failures;
      }
      if (tripped) {
        ++result.post_trip;
        if (gray_tally() > gray_before) ++result.post_trip_on_gray;
      }
      if (schedule.quarantine) {
        // Paced client: reaped gray workers rejoin the pool only once their
        // multi-ms pause elapses, so an unpaced loop finishes before the
        // breaker's HalfOpen window can ever probe them (and re-trip).
        co_await sim::delay(1_ms);
      }
    }
    result.stats = LatencyStats::from(samples, failures);
  };
  harness.spawn(scenario());
  harness.run(harness.engine().now() + 600_s);

  result.retries = invoker->ft_retries();
  result.timeouts = invoker->ft_timeouts();
  result.corruptions_detected = invoker->ft_corruptions();
  result.hedges = invoker->hedges_launched();
  result.hedge_wins = invoker->hedge_wins();
  result.breaker_trips = invoker->breaker_trips();
  result.rm_quarantined = harness.rm().quarantined_executors();
  if (harness.worker_fault_injector() != nullptr) {
    result.injected = harness.worker_fault_injector()->counters();
  }
  return result;
}

/// Gate 6: per-invocation client-side fast-path work with every fault-
/// tolerance field live — 32-byte header (tag + deadline + request
/// checksum) encode, imm pack, response decode and checksum verify —
/// counted by the global allocation hook. Mirrors fig18's synthetic
/// loop so the two gates bracket the same code.
double run_ft_alloc_count(unsigned rounds) {
  sim::Engine eng;
  eng.make_current();
  fabric::Fabric fab(eng);
  auto& dev = fab.create_device("client");
  auto* pd = dev.alloc_pd();

  rdmalib::Buffer<std::uint8_t> in(kBufBytes, rfaas::InvocationHeader::kSize);
  rdmalib::Buffer<std::uint8_t> out(kBufBytes);
  (void)in.register_memory(*pd, fabric::LocalWrite);
  (void)out.register_memory(*pd, fabric::RemoteWrite | fabric::LocalWrite);
  std::memset(in.data(), 0x42, kPayload);
  std::memset(out.raw(), 0x42, kPayload);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < rounds; ++i) {
    rfaas::InvocationHeader h;
    h.result_addr = reinterpret_cast<std::uint64_t>(out.raw());
    h.result_rkey = out.mr()->rkey();
    h.invocation_tag = (static_cast<std::uint64_t>(2) << 32) | (i + 1);
    h.deadline = static_cast<Time>(i) + 1_ms;
    h.checksum = rfaas::payload_checksum(in.data(), kPayload);
    (void)rfaas::encode_into(h, in.raw(), rfaas::InvocationHeader::kSize);
    fabric::SendWr wr;
    wr.opcode = fabric::Opcode::WriteImm;
    wr.sge = {in.sge_with_header(kPayload)};
    wr.imm = rfaas::Imm::invocation(0, i & 0x7FFFF);
    fabric::Wc wc;
    const std::uint32_t checksum12 =
        rfaas::fold12(rfaas::payload_checksum(out.raw(), kPayload));
    wc.imm = rfaas::Imm::result(rfaas::Imm::invocation_id(wr.imm), false, checksum12);
    wc.has_imm = true;
    wc.byte_len = kPayload;
    auto resp = rfaas::decode_invocation_response(wc);
    if (resp.invocation_id != (i & 0x7FFFF)) std::abort();
    if (rfaas::fold12(rfaas::payload_checksum(out.raw(), resp.output_bytes)) !=
        resp.checksum12) {
      std::abort();
    }
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  in.deregister();
  out.deregister();
  return static_cast<double>(after - before) / rounds;
}

void run() {
  const std::uint64_t seed = chaos_seed();
  banner("Figure 21 (data-plane fault tolerance)",
         "gray-failure detection, deadlines + idempotent retries, hedging, quarantine");
  std::printf("chaos seed: %" PRIu64 "%s\n\n", seed, soak_mode() ? " (soak schedule)" : "");

  // Gray executor: long pre-dispatch pauses, far past the 1 ms deadline.
  net::WorkerFaultSpec gray;
  gray.gray_p = 0.8;
  gray.gray_pause_min = 2_ms;
  gray.gray_pause_max = 20_ms;

  net::WorkerFaultSpec gray_hard = gray;
  gray_hard.gray_p = 0.9;  // HalfOpen probes keep failing -> re-trips
  // Shorter pauses so reaped workers rejoin within a few paced invocations
  // and become available for HalfOpen probes.
  gray_hard.gray_pause_min = 2_ms;
  gray_hard.gray_pause_max = 4_ms;

  net::WorkerFaultSpec crash;
  crash.crash_p = 0.02;

  net::WorkerFaultSpec stuck;
  stuck.stuck_p = 0.02;

  net::WorkerFaultSpec corrupt;
  corrupt.corrupt_p = 0.05;

  std::vector<Schedule> schedules;
  schedules.push_back({"fault-free", {}, {}, false, false});
  schedules.push_back({"crash", crash, {}, false, false});
  schedules.push_back({"stuck", stuck, {}, false, false});
  schedules.push_back({"corrupt", corrupt, {}, false, false});
  schedules.push_back({"gray-hedge", {}, gray, true, false});
  schedules.push_back({"gray-quarantine", {}, gray_hard, false, true});

  const unsigned base_reps = scaled_reps(soak_mode() ? 600 : 200, 10);
  const unsigned quarantine_reps = scaled_reps(soak_mode() ? 900 : 300, 10);

  std::vector<ScheduleResult> results;
  for (const auto& s : schedules) {
    std::printf("running %s...\n", s.name);
    results.push_back(run_schedule(s, seed, s.quarantine ? quarantine_reps : base_reps));
  }

  const double base_p99 = results.front().stats.p99;
  Table table({"schedule", "invocations", "failures", "retries", "timeouts", "corrupt-inj",
               "corrupt-det", "hedges", "hedge-wins", "trips", "double-exec", "quarantined",
               "post-gray-pct", "survival-pct", "p99-us", "inflation-x"});
  for (const auto& r : results) {
    const double survival =
        r.reps == 0 ? 100.0
                    : 100.0 * static_cast<double>(r.reps - r.stats.failures) / r.reps;
    const double post_gray_pct =
        r.post_trip == 0 ? 0.0
                         : 100.0 * static_cast<double>(r.post_trip_on_gray) / r.post_trip;
    const double inflation = base_p99 > 0 ? r.stats.p99 / base_p99 : 1.0;
    table.row({r.schedule.name, std::to_string(r.reps), std::to_string(r.stats.failures),
               std::to_string(r.retries), std::to_string(r.timeouts),
               std::to_string(r.injected.corruptions),
               std::to_string(r.corruptions_detected), std::to_string(r.hedges),
               std::to_string(r.hedge_wins), std::to_string(r.breaker_trips),
               std::to_string(r.injected.double_executions), std::to_string(r.rm_quarantined),
               Table::num(post_gray_pct, 2), Table::num(survival, 2),
               Table::us(r.stats.p99), Table::num(inflation, 2)});
  }
  emit(table, "fig21_grayfailure");

  const unsigned alloc_rounds = scaled_reps(10000);
  const double allocs_per_call = run_ft_alloc_count(alloc_rounds);
  Table alloc_table({"path", "rounds", "allocs-per-call"});
  alloc_table.row({"ft-fast-path", std::to_string(alloc_rounds),
                   Table::num(allocs_per_call, 4)});
  emit(alloc_table, "fig21_ft_alloc");

  for (const auto& r : results) {
    std::printf("%-16s injected: %" PRIu64 " dispatches, %" PRIu64 " crashes, %" PRIu64
                " stuck, %" PRIu64 " gray, %" PRIu64 " corrupted\n",
                r.schedule.name, r.injected.invocations, r.injected.crashes,
                r.injected.stucks, r.injected.grays, r.injected.corruptions);
  }

  // ---- Gates (also enforced by CI on the emitted JSON) ----
  bool ok = true;
  auto fail = [&](const char* gate, const char* schedule) {
    std::printf("GATE FAILED [%s] under %s\n", gate, schedule);
    ok = false;
  };
  for (const auto& r : results) {
    if (!r.allocated) fail("allocation succeeded", r.schedule.name);
    if (r.stats.failures != 0) fail("100% invocation survival", r.schedule.name);
    if (r.injected.double_executions != 0) fail("zero double-executions", r.schedule.name);
    if (r.corruptions_detected != r.injected.corruptions) {
      fail("detected == injected corruptions", r.schedule.name);
    }
    if (r.schedule.hedging) {
      if (r.hedge_wins == 0 && r.injected.grays > 0) {
        fail("hedged backup won at least once", r.schedule.name);
      }
      if (base_p99 > 0 && r.stats.p99 > 5.0 * base_p99) {
        fail("hedged p99 <= 5x fault-free", r.schedule.name);
      }
    }
    if (r.schedule.quarantine) {
      if (r.post_trip == 0) fail("breaker tripped during the run", r.schedule.name);
      if (r.post_trip_on_gray * 10 > r.post_trip) {
        fail(">= 90% of post-trip traffic off the gray executor", r.schedule.name);
      }
      if (r.rm_quarantined == 0) fail("manager quarantined the gray executor", r.schedule.name);
    }
  }
  if (allocs_per_call != 0.0) fail("0 allocations per FT fast-path call", "ft-fast-path");

  if (ok) {
    std::printf("\nall data-plane fault-tolerance gates hold (seed %" PRIu64 ")\n", seed);
  } else {
    std::printf("\nreproduce with: RFS_CHAOS_SEED=%" PRIu64 "%s ./bench/fig21_grayfailure\n",
                seed, soak_mode() ? " RFS_CHAOS_SOAK=1" : "");
    std::exit(1);
  }
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
