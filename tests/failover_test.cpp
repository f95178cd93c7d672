// Deterministic failover suite (HA, ROADMAP #2): kill the primary
// resource manager mid-grant, mid-renew and mid-eviction-storm on the
// virtual clock, promote a warm standby under a bumped manager epoch,
// and assert the invariants the journal/replica layer promises — zero
// double-grants, zero leaked leases after drain, every lease held
// across the outage re-validated or healed, executors re-attached in
// place, and a zombie (isolated, not crashed) primary staying
// consistent because its journal keeps replicating until it truly
// dies. Also checks that a standby's state and digest equal the
// primary's after a drained churn run, and that the comparison fires on
// a forged record. Labeled `ha` in CMake (`ctest -L ha`,
// scripts/check.sh --ha).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cluster/harness.hpp"
#include "common/units.hpp"
#include "rfaas/journal.hpp"
#include "rfaas/replica.hpp"

namespace rfs::cluster {
namespace {

/// Bounded client/executor redial budgets: the configuration every
/// failover scenario shares.
ScenarioSpec ha_spec(unsigned executors, unsigned clients) {
  auto spec = ScenarioSpec::uniform(executors, /*cores=*/8, /*memory_bytes=*/16ull << 30,
                                    clients);
  spec.config.executor_reconnect_attempts = 10;
  spec.config.executor_reconnect_backoff = 20_ms;
  spec.client_reconnect_attempts = 10;
  spec.client_reconnect_backoff = 20_ms;
  spec.assert_drained = false;  // the tests own the leak assertion
  return spec;
}

LeaseWorkload fast_workload(std::uint64_t seed) {
  LeaseWorkload w;
  w.workers_min = 1;
  w.workers_max = 2;
  w.memory_per_worker = 64ull << 20;
  w.hold_min = 10_ms;
  w.hold_max = 40_ms;
  w.think_min = 5_ms;
  w.think_max = 20_ms;
  w.lease_timeout = 2_s;
  w.seed = seed;
  return w;
}

// Crash mid-grant: four clients in a tight request/hold/release loop
// when the primary dies. Every client must ride the blackout into the
// promoted standby, no grant may be duplicated, and the executor fleet
// must re-attach in place instead of re-registering from scratch.
TEST(Failover, CrashMidGrantClientsAndExecutorsRecover) {
  Harness h(ha_spec(/*executors=*/4, /*clients=*/4));
  h.start();
  ASSERT_NE(h.attach_standby(), nullptr);
  h.schedule_failover(/*kill_after=*/500_ms, /*promote_after=*/60_ms);

  const auto trace = h.run_lease_workload(fast_workload(11), /*horizon=*/2_s);

  EXPECT_EQ(h.rm().manager_epoch(), 2u);
  EXPECT_TRUE(h.rm().restored());
  EXPECT_EQ(trace.client_deaths, 0u);
  EXPECT_EQ(trace.double_grants, 0u);
  EXPECT_GE(trace.reconnects, 4u);  // every client redialed at least once
  EXPECT_FALSE(trace.blackout_ns.empty());
  EXPECT_GT(trace.granted, 0u);
  // Executors redialed the manager address and re-attached under their
  // preserved registration epoch — capacity is not double-counted.
  EXPECT_GE(h.rm().reattached_executors(), 1u);
  EXPECT_EQ(h.rm().total_workers(), 4u * 8u);
  // Grace covers one lease timeout: a release that died with the old
  // primary is healed by the expiry sweep at worst.
  EXPECT_EQ(h.leaked_leases_after(3_s), 0u);
}

// Crash mid-renew: auto-renewing clients hold leases across the
// outage. On reconnect the LeaseSet re-subscribes the notification
// stream and revalidates every tracked lease against the promoted
// primary; nothing may be lost to a spurious expiry.
TEST(Failover, HeldLeasesRevalidateAfterCrash) {
  Harness h(ha_spec(/*executors=*/4, /*clients=*/4));
  h.start();
  ASSERT_NE(h.attach_standby(), nullptr);
  h.schedule_failover(/*kill_after=*/2_s, /*promote_after=*/80_ms);

  LeaseWorkload w = fast_workload(23);
  w.hold_min = 1_s;
  w.hold_max = 3_s;
  w.think_min = 100_ms;
  w.think_max = 300_ms;
  w.lease_timeout = 6_s;
  w.auto_renew = true;
  w.renew_margin = 1500_ms;
  w.subscribe_events = true;
  const auto trace = h.run_lease_workload(w, /*horizon=*/6_s);

  EXPECT_EQ(h.rm().manager_epoch(), 2u);
  EXPECT_EQ(trace.client_deaths, 0u);
  EXPECT_EQ(trace.double_grants, 0u);
  EXPECT_GE(trace.reconnects, 1u);
  // Leases held across the kill were re-validated, not re-granted: the
  // promoted primary answered LeaseRevalidate from adopted state.
  EXPECT_GT(h.rm().revalidations(), 0u);
  EXPECT_EQ(trace.spurious_expiries, 0u);
  EXPECT_EQ(h.leaked_leases_after(8_s), 0u);
}

// Crash mid-eviction-storm: quota-pressure evictions keep firing
// through the kill window (the storm driver survives the dead
// manager), termination pushes lost in the blackout surface as
// revalidation losses, and self-healing replaces them. The journal
// replicates the storm's evictions, so the promoted state never
// resurrects an evicted lease.
TEST(Failover, EvictionStormAcrossFailoverSelfHeals) {
  Harness h(ha_spec(/*executors=*/4, /*clients=*/4));
  h.start();
  ASSERT_NE(h.attach_standby(), nullptr);
  auto storm = h.start_eviction_storm(/*period=*/50_ms, /*leases_per_tick=*/2,
                                      /*duration=*/3_s);
  h.schedule_failover(/*kill_after=*/1_s, /*promote_after=*/60_ms);

  LeaseWorkload w = fast_workload(37);
  w.hold_min = 200_ms;
  w.hold_max = 600_ms;
  w.think_min = 50_ms;
  w.think_max = 150_ms;
  w.lease_timeout = 3_s;
  w.subscribe_events = true;
  w.self_heal = true;
  const auto trace = h.run_lease_workload(w, /*horizon=*/4_s);

  EXPECT_EQ(h.rm().manager_epoch(), 2u);
  EXPECT_GT(storm->evicted, 0u);
  EXPECT_EQ(trace.client_deaths, 0u);
  EXPECT_EQ(trace.double_grants, 0u);
  EXPECT_GT(trace.terminations + trace.reallocations, 0u);
  EXPECT_EQ(h.leaked_leases_after(5_s), 0u);
}

/// Zombie window: isolate the primary (listeners down, established
/// streams live) so it keeps serving its connected clients as a stale
/// primary, then really crash it and promote. Runs as a coroutine so
/// the window lands mid-workload.
sim::Task<void> zombie_script(Harness& h) {
  co_await sim::delay(600_ms);
  h.kill_manager(/*zombie=*/true);
  co_await sim::delay(150_ms);
  h.kill_manager(/*zombie=*/false);
  co_await sim::delay(50_ms);
  h.promote_standby();
}

// A zombie primary is not a split brain here: during the window its
// journal still streams every grant and release to the standby, and
// new connections cannot reach it (its listener is gone). When it
// finally dies, clients fail over onto state that includes the zombie
// window — nothing double-granted, nothing leaked, nothing lost.
TEST(Failover, ZombieWindowStaysConsistent) {
  Harness h(ha_spec(/*executors=*/4, /*clients=*/4));
  h.start();
  ASSERT_NE(h.attach_standby(), nullptr);
  h.spawn(zombie_script(h));

  LeaseWorkload w = fast_workload(53);
  w.subscribe_events = true;
  const auto trace = h.run_lease_workload(w, /*horizon=*/2_s);

  EXPECT_EQ(h.rm().manager_epoch(), 2u);
  EXPECT_TRUE(h.rm().restored());
  EXPECT_EQ(trace.client_deaths, 0u);
  EXPECT_EQ(trace.double_grants, 0u);
  EXPECT_GE(trace.reconnects, 4u);
  EXPECT_EQ(h.leaked_leases_after(3_s), 0u);
}

// Two failovers back to back: promotion re-attaches the surviving
// standby to the new primary from a fresh snapshot, so a second kill
// is survivable too — the "warm standbys" plural in the design.
TEST(Failover, SecondFailoverUsesReattachedStandby) {
  Harness h(ha_spec(/*executors=*/4, /*clients=*/3));
  h.start();
  ASSERT_NE(h.attach_standby(), nullptr);
  ASSERT_NE(h.attach_standby(), nullptr);
  ASSERT_EQ(h.standby_count(), 2u);
  h.schedule_failover(/*kill_after=*/400_ms, /*promote_after=*/60_ms);
  h.spawn([](Harness& harness) -> sim::Task<void> {
    co_await sim::delay(1200_ms);
    harness.kill_manager();
    co_await sim::delay(60_ms);
    harness.promote_standby();
  }(h));

  const auto trace = h.run_lease_workload(fast_workload(71), /*horizon=*/2500_ms);

  EXPECT_EQ(h.rm().manager_epoch(), 3u);
  EXPECT_EQ(h.standby_count(), 0u);
  EXPECT_EQ(trace.client_deaths, 0u);
  EXPECT_EQ(trace.double_grants, 0u);
  EXPECT_EQ(h.leaked_leases_after(3_s), 0u);
}

// The digest invariant at harness level, on fig20's no-failover shape:
// a standby streamed from attach onward holds the primary's exact state
// once the workload has drained. The negative half forges one Renew
// onto the standby, correctly sequenced and chained, so the stream
// checks pass it: the comparison, not the stream, must catch it.
TEST(Failover, StandbyMatchesPrimaryAfterChurn) {
  auto spec = ha_spec(/*executors=*/8, /*clients=*/8);
  spec.config.manager_shards = 2;
  spec.config.lease_processing = 250_us;
  Harness h(spec);
  h.start();
  auto standby = h.attach_standby();
  ASSERT_NE(standby, nullptr);

  LeaseWorkload w = LeaseWorkload::churn(/*lease_timeout=*/2_s, /*seed=*/12);
  w.workers_min = 1;
  w.workers_max = 2;
  w.memory_per_worker = 64ull << 20;
  w.hold_min = 10_ms;
  w.hold_max = 40_ms;
  w.think_min = 5_ms;
  w.think_max = 20_ms;
  w.subscribe_events = true;
  (void)h.run_lease_workload(w, /*horizon=*/4_s);

  const rfaas::Journal& journal = h.rm().core().journal();
  ASSERT_GT(journal.last_seq(), 1024u);
  EXPECT_EQ(h.leaked_leases_after(3 * w.lease_timeout), 0u);
  const auto primary = h.rm().core().export_state();
  EXPECT_TRUE(standby->export_state() == primary);
  EXPECT_EQ(standby->export_state().digest(), primary.digest());
  EXPECT_EQ(standby->applied_seq(), journal.last_seq());
  EXPECT_EQ(h.rm().replication_errors(), 0u);

  // A forged Renew needs a live lease: a short second burst leaves its
  // clients mid-hold at the horizon.
  (void)h.run_lease_workload(w, /*horizon=*/30_ms);
  ASSERT_TRUE(standby->export_state() == h.rm().core().export_state());
  const auto held = standby->export_state();
  const auto shard = std::find_if(held.shards.begin(), held.shards.end(),
                                  [](const auto& s) { return !s.leases.empty(); });
  ASSERT_NE(shard, held.shards.end());
  rfaas::JournalRecordMsg forged;
  forged.seq = journal.last_seq() + 1;
  forged.op = static_cast<std::uint8_t>(rfaas::journal::Op::Renew);
  forged.lease_id = shard->leases.front().lease_id;
  forged.time = shard->leases.front().expires_at + 1_s;
  forged.checksum = rfaas::journal::chain_checksum(forged, journal.last_checksum());
  ASSERT_TRUE(standby->apply(forged).ok());
  EXPECT_FALSE(standby->export_state() == h.rm().core().export_state());
  EXPECT_NE(standby->export_state().digest(), h.rm().core().export_state().digest());
}

// The journal stamps records only while a standby listens: a run with
// none leaves it at seq 0. A standby attached mid-run starts from that
// empty offer, so every record it takes is gap-free from seq 1 (a gap
// would count as a replication error), and once the workload drained it
// holds the primary's state, digest and seq.
TEST(Failover, JournalRecordsOnlyWhileAStandbyListens) {
  Harness h(ha_spec(/*executors=*/4, /*clients=*/4));
  h.start();
  const LeaseWorkload w = fast_workload(/*seed=*/21);
  (void)h.run_lease_workload(w, /*horizon=*/500_ms);
  ASSERT_GT(h.rm().core().grants(), 0u);
  EXPECT_EQ(h.rm().core().journal().last_seq(), 0u);

  auto standby = h.attach_standby();
  ASSERT_NE(standby, nullptr);
  EXPECT_EQ(standby->applied_seq(), 0u);
  (void)h.run_lease_workload(w, /*horizon=*/500_ms);
  EXPECT_EQ(h.leaked_leases_after(3 * w.lease_timeout), 0u);

  const rfaas::Journal& journal = h.rm().core().journal();
  ASSERT_GT(journal.last_seq(), 0u);
  EXPECT_EQ(standby->applied_seq(), journal.last_seq());
  EXPECT_EQ(h.rm().replication_errors(), 0u);
  const auto primary = h.rm().core().export_state();
  EXPECT_TRUE(standby->export_state() == primary);
  EXPECT_EQ(standby->export_state().digest(), primary.digest());
}

}  // namespace
}  // namespace rfs::cluster
