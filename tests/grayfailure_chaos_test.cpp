// Chaos-composed data-plane fault tolerance: a gray executor (long
// pre-dispatch pauses) while every control link drops/duplicates/
// reorders 5% of its messages AND the primary resource manager dies
// mid-run with a standby promotion. The data plane must ride through
// all three at once: deadlines + idempotent retries + hedging mask the
// gray executor, the session layer absorbs the link chaos, and the
// manager blackout must not stall invocations that hold valid leases.
// Seeded through RFS_CHAOS_SEED exactly like the fig19/fig21 suites so
// a failing seed replays. Labeled `chaos` AND `dataplane-chaos` in
// CMake.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>

#include "cluster/harness.hpp"
#include "net/faulty.hpp"
#include "rfaas/invoker.hpp"

namespace rfs::cluster {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("RFS_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ull;
}

TEST(GrayFailureChaos, GrayExecutorUnderLossyLinksAndFailover) {
  const std::uint64_t seed = chaos_seed();
  auto spec = ScenarioSpec::uniform(/*executors=*/4, /*cores=*/4,
                                    /*memory_bytes=*/16ull << 30, /*clients=*/1);
  auto& ft = spec.config.fault_tolerance;
  ft.invocation_deadline = 1_ms;
  ft.retry_budget = 4;
  ft.checksum = true;
  ft.hedging = true;
  ft.hedge_delay = 10_us;

  // Layer 1: control-link chaos (client<->manager, executor<->manager).
  spec.config.executor_reconnect_attempts = 20;
  spec.config.executor_reconnect_backoff = 25_ms;
  spec.client_reconnect_attempts = 20;
  spec.client_reconnect_backoff = 25_ms;
  spec.inject_faults = true;
  spec.faults = net::FaultSpec::symmetric(0.05);
  spec.faults.delay_min = 100_us;
  spec.faults.delay_max = 1_ms;
  spec.session_options.max_retransmits = 8;
  // Layer 2: worker faults — executor 0 goes gray below.
  spec.inject_worker_faults = true;
  spec.fault_seed = seed;
  spec.assert_drained = false;  // the failover window may strand leases

  Harness h(spec);
  h.registry().add_echo();
  h.start();

  net::WorkerFaultSpec gray;
  gray.gray_p = 0.8;
  gray.gray_pause_min = 2_ms;
  gray.gray_pause_max = 20_ms;
  h.worker_fault_injector()->set_executor(h.executor(0).device().id(), gray);

  // Layer 3: primary manager dies at 100 ms, standby promotes 80 ms in.
  ASSERT_NE(h.attach_standby(), nullptr) << "seed " << seed;
  h.schedule_failover(/*kill_after=*/100_ms, /*promote_after=*/80_ms);

  unsigned ok = 0, failed = 0;
  auto invoker = h.make_invoker(0, /*client_id=*/1);
  auto scenario = [&]() -> sim::Task<void> {
    rfaas::AllocationSpec alloc;
    alloc.function_name = "echo";
    alloc.workers = 8;  // 4 on the gray executor, 4 elsewhere
    alloc.policy = rfaas::InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(alloc);
    EXPECT_TRUE(st.ok()) << "seed " << seed;
    if (!st.ok()) co_return;
    invoker->reserve_slots(4, 4096, 4096);

    std::array<std::uint8_t, 512> payload;
    payload.fill(0x42);
    // Paced across ~400 ms of virtual time, spanning the kill/promote
    // window: leases (300 s timeout) stay valid through the blackout,
    // so the direct worker connections must keep serving.
    for (unsigned i = 0; i < 40; ++i) {
      auto r = co_await invoker->invoke_pooled(0, payload);
      if (r.ok) {
        ++ok;
      } else {
        ++failed;
      }
      co_await sim::delay(10_ms);
    }
  };
  h.spawn(scenario());
  h.run(h.engine().now() + 600_s);

  EXPECT_EQ(h.rm().manager_epoch(), 2u) << "seed " << seed;
  EXPECT_TRUE(h.rm().restored()) << "seed " << seed;
  EXPECT_EQ(ok, 40u) << "seed " << seed;
  EXPECT_EQ(failed, 0u) << "seed " << seed;
  const auto& injected = h.worker_fault_injector()->counters();
  EXPECT_GT(injected.grays, 0u) << "seed " << seed;
  EXPECT_EQ(injected.double_executions, 0u) << "seed " << seed;
}

}  // namespace
}  // namespace rfs::cluster
