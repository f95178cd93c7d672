// Data-plane fault-tolerance tests: the WorkerFaultInjector's replay
// discipline and double-execution registry, plus end-to-end recovery —
// crash/stuck/gray/corrupt workers survived by deadlines + idempotent
// retries, hedging against gray executors, and breaker-driven
// quarantine through the resource manager — through both entry points,
// invoke_pooled() slots and invoke() on caller buffers. Labeled `dataplane-chaos`
// in CMake so `ctest -L dataplane-chaos` runs this suite alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/harness.hpp"
#include "common/units.hpp"
#include "net/faulty.hpp"
#include "rfaas/invoker.hpp"

namespace rfs {
namespace {

TEST(WorkerFaultInjector, SameSeedReplaysIdenticalDecisionSequence) {
  net::WorkerFaultInjector a(0xFEED);
  net::WorkerFaultInjector b(0xFEED);
  net::WorkerFaultSpec spec;
  spec.crash_p = 0.1;
  spec.stuck_p = 0.1;
  spec.gray_p = 0.2;
  spec.corrupt_p = 0.1;
  a.set_default(spec);
  b.set_default(spec);
  for (int i = 0; i < 5000; ++i) {
    const auto da = a.decide(3);
    const auto db = b.decide(3);
    EXPECT_EQ(da.crash, db.crash) << "diverged at dispatch " << i;
    EXPECT_EQ(da.stuck, db.stuck) << "diverged at dispatch " << i;
    EXPECT_EQ(da.corrupt, db.corrupt) << "diverged at dispatch " << i;
    EXPECT_EQ(da.gray_delay, db.gray_delay) << "diverged at dispatch " << i;
  }
  EXPECT_EQ(a.counters().crashes, b.counters().crashes);
  EXPECT_EQ(a.counters().grays, b.counters().grays);
}

TEST(WorkerFaultInjector, PerExecutorSpecOverridesDefault) {
  net::WorkerFaultInjector inj(7);
  net::WorkerFaultSpec gray;
  gray.gray_p = 1.0;
  gray.gray_pause_min = 3_ms;
  gray.gray_pause_max = 5_ms;
  inj.set_executor(/*device=*/9, gray);
  for (int i = 0; i < 200; ++i) {
    const auto on_gray = inj.decide(9);
    EXPECT_GE(on_gray.gray_delay, 3_ms);
    EXPECT_LE(on_gray.gray_delay, 5_ms);
    const auto elsewhere = inj.decide(8);  // default spec: healthy
    EXPECT_EQ(elsewhere.gray_delay, 0u);
    EXPECT_FALSE(elsewhere.crash);
  }
  EXPECT_EQ(inj.counters().grays, 200u);
}

TEST(WorkerFaultInjector, ExecutionRegistryCountsDoubles) {
  net::WorkerFaultInjector inj(1);
  EXPECT_TRUE(inj.note_execution(42));
  EXPECT_FALSE(inj.note_execution(42));  // the double-execution gate
  EXPECT_TRUE(inj.note_execution(43));
  // Tag 0 means "fault tolerance off": never tracked, never a double.
  EXPECT_TRUE(inj.note_execution(0));
  EXPECT_TRUE(inj.note_execution(0));
  EXPECT_EQ(inj.counters().double_executions, 1u);
}

// ---------------------------------------------------------------------
// End-to-end recovery through the harness.

struct FaultRun {
  unsigned ok = 0;
  unsigned failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t corruptions_detected = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t rm_quarantined = 0;
  unsigned echo_mismatches = 0;  // ok results whose output is not the echo
  net::WorkerFaultInjector::Counters injected{};
};

/// Which client entry point a fault run drives.
enum class Entry { Pooled, CallerBuffers };

struct FaultRunOptions {
  net::WorkerFaultSpec fleet{};    // default spec for every executor
  net::WorkerFaultSpec gray{};     // extra spec pinned to executor 0
  unsigned reps = 40;
  Duration think = 0;              // inter-invocation pacing
  bool hedging = false;
  bool quarantine_tuning = false;  // short Open windows + deep budget
  std::uint32_t retry_budget = 3;
  Entry entry = Entry::Pooled;
  std::size_t payload_bytes = 512;
};

FaultRun run_faulted(const FaultRunOptions& opt, std::uint64_t seed = 1) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/4, /*cores=*/4,
                                             /*memory_bytes=*/16ull << 30, /*clients=*/1);
  auto& ft = spec.config.fault_tolerance;
  ft.invocation_deadline = 1_ms;
  ft.retry_budget = opt.retry_budget;
  ft.checksum = true;
  if (opt.hedging) {
    ft.hedging = true;
    ft.hedge_delay = 10_us;
  }
  if (opt.quarantine_tuning) {
    ft.retry_budget = 6;
    ft.breaker_open_timeout = 100_us;
  }
  spec.inject_worker_faults = true;
  spec.worker_faults = opt.fleet;
  spec.fault_seed = seed;

  cluster::Harness h(spec);
  h.registry().add_echo();
  h.start();
  if (opt.gray.enabled()) {
    h.worker_fault_injector()->set_executor(h.executor(0).device().id(), opt.gray);
  }

  FaultRun run;
  auto invoker = h.make_invoker(0, /*client_id=*/1);
  auto scenario = [&]() -> sim::Task<void> {
    rfaas::AllocationSpec alloc;
    alloc.function_name = "echo";
    alloc.workers = 8;  // 4 on (possibly gray) executor 0, 4 elsewhere
    alloc.policy = rfaas::InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(alloc);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    if (!st.ok()) co_return;
    invoker->reserve_slots(4, 4096, 4096);

    const std::vector<std::uint8_t> payload(opt.payload_bytes, 0x42);
    auto in = invoker->input_buffer<std::uint8_t>(payload.size());
    auto out = invoker->output_buffer<std::uint8_t>(payload.size());
    for (unsigned i = 0; i < opt.reps; ++i) {
      rfaas::InvocationResult r;
      if (opt.entry == Entry::Pooled) {
        r = co_await invoker->invoke_pooled(0, payload);
      } else {
        // A fresh pattern per call, so a stale or mangled output cannot
        // pass for this call's echo.
        fill_pattern({in.data(), payload.size()}, i);
        std::fill_n(out.data(), payload.size(), std::uint8_t{0});
        r = co_await invoker->invoke(0, in, payload.size(), out);
        if (r.ok && (r.output_bytes != payload.size() ||
                     !std::equal(in.data(), in.data() + payload.size(), out.data()))) {
          ++run.echo_mismatches;
        }
      }
      if (r.ok) {
        ++run.ok;
      } else {
        ++run.failed;
      }
      if (opt.think != 0) co_await sim::delay(opt.think);
    }
  };
  h.spawn(scenario());
  h.run(h.engine().now() + 600_s);

  run.retries = invoker->ft_retries();
  run.timeouts = invoker->ft_timeouts();
  run.corruptions_detected = invoker->ft_corruptions();
  run.hedges = invoker->hedges_launched();
  run.hedge_wins = invoker->hedge_wins();
  run.breaker_trips = invoker->breaker_trips();
  run.rm_quarantined = h.rm().quarantined_executors();
  run.injected = h.worker_fault_injector()->counters();
  return run;
}

TEST(WorkerFaults, CrashesSurvivedByIdempotentRetries) {
  FaultRunOptions opt;
  opt.fleet.crash_p = 0.05;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_GT(run.injected.crashes, 0u) << "chaos schedule injected nothing";
  EXPECT_GE(run.retries, run.injected.crashes);  // each crash costs >= 1 retry
  EXPECT_EQ(run.injected.double_executions, 0u);
}

TEST(WorkerFaults, StuckSandboxesSurfaceAsTimeoutsThenRecover) {
  FaultRunOptions opt;
  opt.fleet.stuck_p = 0.05;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_GT(run.injected.stucks, 0u);
  EXPECT_GE(run.timeouts, run.injected.stucks);  // stuck = deadline expiry
  EXPECT_EQ(run.injected.double_executions, 0u);
}

TEST(WorkerFaults, CorruptionDetectedByChecksumAndRetried) {
  FaultRunOptions opt;
  opt.fleet.corrupt_p = 0.1;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_GT(run.injected.corruptions, 0u);
  // Every injected flip is caught by the response checksum — none leak
  // into a "successful" result.
  EXPECT_EQ(run.corruptions_detected, run.injected.corruptions);
  EXPECT_EQ(run.injected.double_executions, 0u);
}

TEST(WorkerFaults, CallerBufferCrashesSurvivedByIdempotentRetries) {
  FaultRunOptions opt;
  opt.fleet.crash_p = 0.05;
  opt.entry = Entry::CallerBuffers;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_GT(run.injected.crashes, 0u) << "chaos schedule injected nothing";
  EXPECT_GE(run.retries, run.injected.crashes);
  EXPECT_EQ(run.echo_mismatches, 0u);
  EXPECT_EQ(run.injected.double_executions, 0u);
}

TEST(WorkerFaults, CallerBufferCorruptionDetectedByChecksumAndRetried) {
  // invoke() on caller-registered buffers runs the same invocation core
  // as invoke_pooled(): the request carries a checksum, so the executor
  // stamps the reply's, and every flipped response is caught and
  // replayed clean into the caller's output buffer.
  FaultRunOptions opt;
  opt.fleet.corrupt_p = 0.1;
  opt.entry = Entry::CallerBuffers;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_GT(run.injected.corruptions, 0u);
  EXPECT_EQ(run.corruptions_detected, run.injected.corruptions);
  EXPECT_EQ(run.echo_mismatches, 0u);
  EXPECT_EQ(run.injected.double_executions, 0u);
}

TEST(WorkerFaults, OneByteOutputCorruptionIsDetectedAndReplayed) {
  // The injector flips the first and the last output byte; for a 1-byte
  // output they are the same byte, which must flip once, not twice back
  // to clean. Every execution is corrupted and every same-worker retry
  // replays the stored clean byte. (An empty output has nothing to flip,
  // so it is never corrupted.) The 8 workers fill two 4-core executors,
  // so 300 invocations put ~150 on each and wrap its 128-entry dedup
  // window: replays must still find the newest entries after the oldest
  // are overwritten.
  FaultRunOptions opt;
  opt.fleet.corrupt_p = 1.0;
  opt.entry = Entry::CallerBuffers;
  opt.payload_bytes = 1;
  opt.reps = 300;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.ok, opt.reps);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.echo_mismatches, 0u);
  EXPECT_GT(run.injected.corruptions, 0u);
  EXPECT_EQ(run.corruptions_detected, run.injected.corruptions);
  EXPECT_EQ(run.injected.double_executions, 0u);
}

TEST(WorkerFaults, ExhaustedRetryBudgetSurfacesTheTimeout) {
  FaultRunOptions opt;
  opt.fleet.stuck_p = 1.0;  // every worker wedges, everywhere
  // 2 attempts x 3 invocations = 6 wedged workers of the 8 held: each
  // invocation fails within its budget while free capacity remains (a
  // fully wedged pool correctly blocks on capacity instead).
  opt.retry_budget = 1;
  opt.reps = 3;
  const auto run = run_faulted(opt);
  // With all attempts wedged the deadline must surface to the caller
  // instead of hanging the client coroutine forever.
  EXPECT_EQ(run.ok, 0u);
  EXPECT_EQ(run.failed, 3u);
  EXPECT_GT(run.timeouts, 0u);
}

TEST(WorkerFaults, HedgingMasksGrayExecutorLatency) {
  FaultRunOptions opt;
  opt.gray.gray_p = 0.8;
  opt.gray.gray_pause_min = 2_ms;
  opt.gray.gray_pause_max = 20_ms;
  opt.hedging = true;
  opt.reps = 20;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_GT(run.injected.grays, 0u);
  EXPECT_GT(run.hedges, 0u);
  EXPECT_GT(run.hedge_wins, 0u) << "backup on a healthy device should beat a gray pause";
  EXPECT_EQ(run.injected.double_executions, 0u);
}

TEST(WorkerFaults, RepeatedBreakerTripsQuarantineTheGrayExecutor) {
  FaultRunOptions opt;
  opt.gray.gray_p = 0.9;
  opt.gray.gray_pause_min = 2_ms;
  opt.gray.gray_pause_max = 4_ms;
  opt.quarantine_tuning = true;
  opt.reps = 30;
  // Paced client: reaped gray workers need their pause to elapse before
  // they rejoin the pool and can be probed (and re-trip the breaker).
  opt.think = 1_ms;
  const auto run = run_faulted(opt);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_GE(run.breaker_trips, 2u);
  EXPECT_EQ(run.rm_quarantined, 1u) << "the one gray executor, quarantined once";
  EXPECT_EQ(run.injected.double_executions, 0u);
}

}  // namespace
}  // namespace rfs
