// Chaos-composed failover: the primary dies and a standby is promoted
// while every client<->manager control link drops, duplicates and
// reorders 5% of its messages. The blackout is no longer clean — calls
// die to loss as well as to the crash, retransmits race the redial
// loop, and duplicate replies arrive under a bumped session epoch.
// Seeded through RFS_CHAOS_SEED exactly like the fig19 suite, so a
// failing seed replays. Labeled `ha` AND `chaos` in CMake.
#include <gtest/gtest.h>

#include <cstdlib>

#include "cluster/harness.hpp"
#include "net/faulty.hpp"

namespace rfs::cluster {
namespace {

std::uint64_t chaos_seed() {
  const char* env = std::getenv("RFS_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1ull;
}

// Manager kill + promotion under 5% symmetric link chaos: the composed
// failure mode the nightly seed sweep hammers. The invariants are the
// same as the clean-failover suite — chaos may slow recovery but must
// never corrupt it.
TEST(FailoverChaos, CrashUnderLossyLinksStaysConsistent) {
  auto spec = ScenarioSpec::uniform(/*executors=*/4, /*cores=*/8,
                                    /*memory_bytes=*/16ull << 30, /*clients=*/4);
  spec.config.executor_reconnect_attempts = 20;
  spec.config.executor_reconnect_backoff = 25_ms;
  spec.client_reconnect_attempts = 20;
  spec.client_reconnect_backoff = 25_ms;
  spec.inject_faults = true;
  spec.faults = net::FaultSpec::symmetric(0.05);
  spec.faults.delay_min = 100_us;
  spec.faults.delay_max = 1_ms;
  spec.fault_seed = chaos_seed();
  // Loss stretches call completion: widen the per-call retransmit
  // budget so chaos alone cannot kill a session the way a crash does.
  spec.session_options.max_retransmits = 8;
  spec.assert_drained = false;  // the test owns the leak assertion

  Harness h(spec);
  h.start();
  ASSERT_NE(h.attach_standby(), nullptr) << "seed " << chaos_seed();
  h.schedule_failover(/*kill_after=*/700_ms, /*promote_after=*/80_ms);

  LeaseWorkload w;
  w.workers_min = 1;
  w.workers_max = 2;
  w.memory_per_worker = 64ull << 20;
  w.hold_min = 20_ms;
  w.hold_max = 80_ms;
  w.think_min = 10_ms;
  w.think_max = 40_ms;
  w.lease_timeout = 2_s;
  w.subscribe_events = true;
  w.seed = 5 + chaos_seed();
  const auto trace = h.run_lease_workload(w, /*horizon=*/3_s);

  EXPECT_EQ(h.rm().manager_epoch(), 2u) << "seed " << chaos_seed();
  EXPECT_TRUE(h.rm().restored()) << "seed " << chaos_seed();
  EXPECT_GT(trace.granted, 0u) << "seed " << chaos_seed();
  EXPECT_EQ(trace.client_deaths, 0u) << "seed " << chaos_seed();
  EXPECT_EQ(trace.double_grants, 0u) << "seed " << chaos_seed();
  EXPECT_GE(trace.reconnects, 4u) << "seed " << chaos_seed();
  // Chaos-era losses drain through expiry: grace covers a full lease
  // timeout past the horizon.
  EXPECT_EQ(h.leaked_leases_after(3_s), 0u) << "seed " << chaos_seed();
}

}  // namespace
}  // namespace rfs::cluster
