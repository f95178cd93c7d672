// Tests of the sharded resource-manager core: id encoding, round-robin
// executor assignment, deterministic power-of-two shard routing,
// cross-shard work stealing, per-shard lease expiry sweeping, renewals,
// single-shard equivalence with the classic manager, a threaded
// grant/release stress (run under TSan/ASan in CI), and the control-plane
// integration (sharded harness runs, ExtendLease over the wire).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "cluster/harness.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs::rfaas {
namespace {

using SRM = ShardedResourceManager;

ExecutorEntry entry(std::uint32_t workers, std::uint64_t memory = 64ull << 30) {
  ExecutorEntry e;
  e.total_workers = workers;
  e.free_workers = workers;
  e.free_memory = memory;
  e.alive = true;
  return e;
}

ScheduleRequest request(std::uint32_t workers, std::uint64_t memory_per_worker = 1 << 20) {
  ScheduleRequest r;
  r.workers = workers;
  r.memory_per_worker = memory_per_worker;
  return r;
}

Config sharded_config(unsigned shards, SchedulingPolicy policy = SchedulingPolicy::RoundRobin,
                      std::uint64_t seed = 42) {
  Config c;
  c.manager_shards = shards;
  c.scheduling = policy;
  c.scheduler_seed = seed;
  return c;
}

// --------------------------------------------------------------------------
// Id encoding and executor assignment
// --------------------------------------------------------------------------

TEST(ShardedIds, RoundTripShardAndLow) {
  const std::uint64_t id = SRM::make_id(5, 1234);
  EXPECT_EQ(SRM::id_shard(id), 5u);
  EXPECT_EQ(SRM::id_low(id), 1234u);
  // Single-shard ids collapse to the raw low value (seed compatibility).
  EXPECT_EQ(SRM::make_id(0, 7), 7u);
}

TEST(ShardedAssignment, RoundRobinBalancesSkewedFleets) {
  SRM m(sharded_config(4));
  std::set<std::uint32_t> shards_hit;
  for (int i = 0; i < 8; ++i) {
    const auto id = m.add_executor(entry(4));
    EXPECT_EQ(SRM::id_shard(id), static_cast<std::uint32_t>(i % 4));
    shards_hit.insert(SRM::id_shard(id));
  }
  EXPECT_EQ(shards_hit.size(), 4u);
  EXPECT_EQ(m.size(), 8u);
  EXPECT_EQ(m.free_workers_total(), 32u);
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(m.shard_free_workers(s), 8u);
}

// --------------------------------------------------------------------------
// Routing determinism
// --------------------------------------------------------------------------

TEST(ShardedRouting, DeterministicForFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    SRM m(sharded_config(8, SchedulingPolicy::RoundRobin, seed));
    for (int i = 0; i < 32; ++i) m.add_executor(entry(8));
    std::vector<std::uint64_t> grants;
    for (int i = 0; i < 128; ++i) {
      auto g = m.grant(request(1), /*client=*/1, /*timeout=*/1000, /*now=*/0);
      EXPECT_TRUE(g.has_value());
      if (g) grants.push_back(g->executor);
    }
    return grants;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));  // different stream, same mechanism
}

TEST(ShardedRouting, PreferredShardFollowsFreeCapacity) {
  SRM m(sharded_config(2));
  m.add_executor(entry(16));  // shard 0
  m.add_executor(entry(2));   // shard 1
  // Power-of-two over 2 shards always samples both; shard 0 has more
  // free workers, so every routed grant must land there while it leads.
  for (int i = 0; i < 8; ++i) {
    auto g = m.grant(request(1), 1, 1000, 0);
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->shard, 0u);
    EXPECT_FALSE(g->stolen);
  }
}

// --------------------------------------------------------------------------
// Cross-shard work stealing
// --------------------------------------------------------------------------

TEST(ShardedStealing, GrantsFromAnotherShardWhenRoutedShardIsExhausted) {
  SRM m(sharded_config(2));
  m.add_executor(entry(2));  // shard 0
  m.add_executor(entry(8));  // shard 1
  // Explicitly route to shard 0 and drain it...
  auto g1 = m.grant(request(2), 1, 1000, 0, /*routed=*/0u);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->shard, 0u);
  EXPECT_EQ(m.shard_free_workers(0), 0u);
  // ...then route to it again: the grant must be stolen from shard 1.
  auto g2 = m.grant(request(4), 1, 1000, 0, /*routed=*/0u);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->shard, 1u);
  EXPECT_TRUE(g2->stolen);
  EXPECT_EQ(m.steals(), 1u);
}

TEST(ShardedStealing, StealsFromFreestShardFirst) {
  SRM m(sharded_config(3));
  m.add_executor(entry(1));  // shard 0
  m.add_executor(entry(4));  // shard 1
  m.add_executor(entry(8));  // shard 2
  ASSERT_TRUE(m.grant(request(1), 1, 1000, 0, /*routed=*/0u).has_value());
  auto g = m.grant(request(2), 1, 1000, 0, /*routed=*/0u);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->shard, 2u);  // 8 free > 4 free
  EXPECT_TRUE(g->stolen);
}

TEST(ShardedStealing, FleetWideExhaustionDenies) {
  SRM m(sharded_config(2));
  m.add_executor(entry(1));
  m.add_executor(entry(1));
  ASSERT_TRUE(m.grant(request(1), 1, 1000, 0).has_value());
  ASSERT_TRUE(m.grant(request(1), 1, 1000, 0).has_value());
  EXPECT_FALSE(m.grant(request(1), 1, 1000, 0).has_value());
  EXPECT_EQ(m.denials(), 1u);
  EXPECT_EQ(m.grants(), 2u);
}

// --------------------------------------------------------------------------
// Lease lifecycle: release, renew, per-shard expiry sweep
// --------------------------------------------------------------------------

TEST(ShardedLeases, ReleaseReturnsCapacityToTheOwningShard) {
  SRM m(sharded_config(2));
  m.add_executor(entry(4));  // shard 0
  m.add_executor(entry(4));  // shard 1
  auto g = m.grant(request(3), 1, 1000, 0, /*routed=*/1u);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(m.shard_free_workers(1), 1u);
  EXPECT_EQ(m.active_leases(), 1u);
  EXPECT_TRUE(m.release(g->lease_id));
  EXPECT_EQ(m.shard_free_workers(1), 4u);
  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_FALSE(m.release(g->lease_id));  // double release is a no-op
}

TEST(ShardedLeases, SweepReclaimsExpiredPerShard) {
  SRM m(sharded_config(3));
  for (int i = 0; i < 3; ++i) m.add_executor(entry(4));
  // One lease per shard with staggered deadlines.
  auto g0 = m.grant(request(2), 1, /*timeout=*/100, /*now=*/0, 0u);
  auto g1 = m.grant(request(2), 1, /*timeout=*/200, /*now=*/0, 1u);
  auto g2 = m.grant(request(2), 1, /*timeout=*/300, /*now=*/0, 2u);
  ASSERT_TRUE(g0 && g1 && g2);
  EXPECT_EQ(m.active_leases(), 3u);

  EXPECT_EQ(m.sweep_expired(/*now=*/150), 1u);
  EXPECT_EQ(m.active_leases(), 2u);
  EXPECT_EQ(m.shard_free_workers(0), 4u);  // shard 0's lease reclaimed
  EXPECT_EQ(m.shard_free_workers(1), 2u);  // shard 1's still live

  EXPECT_EQ(m.sweep_expired(/*now=*/500), 2u);
  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_EQ(m.free_workers_total(), 12u);
}

TEST(ShardedLeases, RenewPushesExpiryPastTheSweep) {
  SRM m(sharded_config(2));
  m.add_executor(entry(4));
  auto g = m.grant(request(1), 1, /*timeout=*/100, /*now=*/0);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(m.renew(g->lease_id, /*new_expires_at=*/1000));
  EXPECT_EQ(m.sweep_expired(/*now=*/500), 0u);  // renewed: survives
  EXPECT_EQ(m.active_leases(), 1u);
  EXPECT_EQ(m.sweep_expired(/*now=*/1500), 1u);
  EXPECT_FALSE(m.renew(g->lease_id, 2000));  // gone after the sweep
  EXPECT_FALSE(m.renew(SRM::make_id(7, 1), 2000));  // bogus shard
}

TEST(ShardedDeath, DropsLeasesAndCapacityOfTheDeadExecutorOnly) {
  SRM m(sharded_config(2));
  const auto e0 = m.add_executor(entry(4));  // shard 0
  m.add_executor(entry(4));                  // shard 1
  auto g0 = m.grant(request(2), 1, 1000, 0, 0u);
  auto g1 = m.grant(request(2), 1, 1000, 0, 1u);
  ASSERT_TRUE(g0 && g1);

  auto info = m.mark_dead(e0);
  EXPECT_TRUE(info.has_value());
  EXPECT_FALSE(m.mark_dead(e0).has_value());  // second kill is a no-op
  EXPECT_EQ(m.alive_count(), 1u);
  EXPECT_EQ(m.active_leases(), 1u);           // shard 0's lease dropped
  EXPECT_EQ(m.free_workers_total(), 2u);      // only shard 1's survivors
  EXPECT_EQ(m.total_workers(), 4u);
  EXPECT_FALSE(m.release(g0->lease_id));      // dropped at death
}

// --------------------------------------------------------------------------
// Batched grants: per-shard partial fulfillment, all-or-nothing rollback
// --------------------------------------------------------------------------

TEST(BatchedGrants, AggregatesPartialPlacementsAcrossShards) {
  SRM m(sharded_config(4));
  for (int i = 0; i < 4; ++i) m.add_executor(entry(2));  // one 2-worker exec per shard
  auto out = m.grant_batch(request(8), /*client=*/1, /*timeout=*/1000, /*now=*/0,
                           /*all_or_nothing=*/false);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.granted_workers, 8u);
  EXPECT_EQ(out.grants.size(), 4u);
  EXPECT_EQ(out.shards_touched, 4u);
  EXPECT_EQ(m.active_leases(), 4u);
  EXPECT_EQ(m.free_workers_total(), 0u);
  EXPECT_EQ(m.batches(), 1u);
  // Every granted lease is routable for release by its shard-tagged id.
  for (const auto& g : out.grants) EXPECT_TRUE(m.release(g.lease_id));
  EXPECT_EQ(m.free_workers_total(), 8u);
}

TEST(BatchedGrants, BestEffortDeliversWhatFits) {
  SRM m(sharded_config(2));
  m.add_executor(entry(2));
  m.add_executor(entry(1));
  auto out = m.grant_batch(request(8), 1, 1000, 0, /*all_or_nothing=*/false);
  EXPECT_FALSE(out.complete);
  EXPECT_EQ(out.granted_workers, 3u);
  EXPECT_EQ(out.grants.size(), 2u);
  EXPECT_EQ(m.active_leases(), 2u);
  EXPECT_EQ(m.denials(), 1u);  // the final unsatisfiable remainder
}

TEST(BatchedGrants, AllOrNothingReleasesPartialLeases) {
  SRM m(sharded_config(2));
  m.add_executor(entry(2));
  m.add_executor(entry(2));
  const std::uint32_t before = m.free_workers_total();
  auto out = m.grant_batch(request(8), 1, 1000, 0, /*all_or_nothing=*/true);
  EXPECT_FALSE(out.complete);
  EXPECT_TRUE(out.grants.empty());
  EXPECT_EQ(out.granted_workers, 0u);
  // The partial placements were rolled back in full.
  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_EQ(m.free_workers_total(), before);
  // The scans still happened: both shards were touched.
  EXPECT_EQ(out.shards_touched, 2u);
}

TEST(BatchedGrants, AllOrNothingSucceedsWhenTheFleetFits) {
  SRM m(sharded_config(2));
  m.add_executor(entry(4));
  m.add_executor(entry(4));
  auto out = m.grant_batch(request(6), 1, 1000, 0, /*all_or_nothing=*/true);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.granted_workers, 6u);
  EXPECT_EQ(m.free_workers_total(), 2u);
}

// --------------------------------------------------------------------------
// Renewal races: a renewed lease must never be reaped by the sweep
// --------------------------------------------------------------------------

TEST(RenewalRace, ConcurrentRenewAndSweepNeverReapALiveLease) {
  constexpr unsigned kSweeps = 2000;
  SRM m(sharded_config(4));
  for (int i = 0; i < 8; ++i) m.add_executor(entry(8));

  // One long-lived lease per shard, each renewed far past every sweep
  // the sweeper thread will run. However the renewals and sweeps
  // interleave, a renewed lease must survive every sweep below its
  // (renewed) deadline.
  std::vector<std::uint64_t> held;
  for (std::uint32_t s = 0; s < 4; ++s) {
    auto g = m.grant(request(2), 1, /*timeout=*/1'000'000, /*now=*/0, s);
    ASSERT_TRUE(g.has_value());
    held.push_back(g->lease_id);
  }

  std::thread renewer([&m, &held] {
    for (unsigned i = 0; i < kSweeps; ++i) {
      for (auto id : held) {
        EXPECT_TRUE(m.renew(id, /*new_expires_at=*/2'000'000 + i).has_value())
            << "renewed lease was reaped at round " << i;
      }
    }
  });
  std::thread sweeper([&m] {
    for (unsigned i = 0; i < kSweeps; ++i) m.sweep_expired(/*now=*/i * 100);
  });
  renewer.join();
  sweeper.join();

  EXPECT_EQ(m.active_leases(), 4u);  // nothing was spuriously reaped
  for (auto id : held) EXPECT_TRUE(m.release(id));
  EXPECT_EQ(m.free_workers_total(), m.total_workers());
}

TEST(RenewalRace, SweepAtTheOldDeadlineAfterRenewDoesNotReap) {
  SRM m(sharded_config(2));
  m.add_executor(entry(4));
  auto g = m.grant(request(2), 1, /*timeout=*/100, /*now=*/0);
  ASSERT_TRUE(g.has_value());
  // Renew exactly at the old deadline, then sweep at it: the order the
  // control plane serializes through the shard gate.
  EXPECT_TRUE(m.renew(g->lease_id, /*new_expires_at=*/500).has_value());
  EXPECT_EQ(m.sweep_expired(/*now=*/100), 0u);
  EXPECT_EQ(m.active_leases(), 1u);
  EXPECT_EQ(m.sweep_expired(/*now=*/500), 1u);  // renewed deadline enforced
}

// --------------------------------------------------------------------------
// Manager-initiated reclamation: evict, quota pressure, drain, rebalance
// --------------------------------------------------------------------------

TEST(Eviction, ReturnsCapacityAndResolvesRacesToOneWinner) {
  SRM m(sharded_config(2));
  m.add_executor(entry(4));
  auto g = m.grant(request(3), /*client=*/7, /*timeout=*/1000, /*now=*/0);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(m.free_workers_total(), 1u);

  auto ev = m.evict(g->lease_id);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->lease_id, g->lease_id);
  EXPECT_EQ(ev->client_id, 7u);
  EXPECT_EQ(ev->workers, 3u);
  EXPECT_EQ(m.free_workers_total(), 4u);
  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_EQ(m.evictions(), 1u);
  // Second eviction, release and renew of the evicted lease all miss.
  EXPECT_FALSE(m.evict(g->lease_id).has_value());
  EXPECT_FALSE(m.release(g->lease_id));
  EXPECT_FALSE(m.renew(g->lease_id, 9999).has_value());
  EXPECT_FALSE(m.evict(SRM::make_id(9, 1)).has_value());  // bogus shard
}

TEST(Eviction, QuotaPressureEvictsOverQuotaTenantsOnly) {
  SRM m(sharded_config(2));
  m.add_executor(entry(8));
  m.add_executor(entry(8));
  // Tenant 1 hogs 12 workers over three leases; tenant 2 holds 2.
  std::vector<std::uint64_t> hog;
  for (int i = 0; i < 3; ++i) {
    auto g = m.grant(request(4), /*client=*/1, 1000, 0);
    ASSERT_TRUE(g.has_value());
    hog.push_back(g->lease_id);
  }
  auto small = m.grant(request(2), /*client=*/2, 1000, 0);
  ASSERT_TRUE(small.has_value());

  // Requester 3 needs 6 workers; quota is 4: only tenant 1's leases may
  // go, and only until 6 workers are reclaimed (or it drops to quota).
  auto evicted = m.reclaim_quota(/*requesting_client=*/3, /*quota_workers=*/4,
                                 /*workers_needed=*/6);
  ASSERT_EQ(evicted.size(), 2u);
  for (const auto& ev : evicted) EXPECT_EQ(ev.client_id, 1u);
  EXPECT_TRUE(m.release(small->lease_id));  // tenant 2 untouched
  // Tenant 1 keeps exactly one lease (4 workers = its quota).
  EXPECT_EQ(m.active_leases(), 1u);

  // Nothing over quota: nothing to reclaim.
  EXPECT_TRUE(m.reclaim_quota(3, 4, 6).empty());
}

TEST(Eviction, DrainEvictsLeasesAndParksCapacity) {
  SRM m(sharded_config(2));
  const auto e0 = m.add_executor(entry(4));  // shard 0
  m.add_executor(entry(4));                  // shard 1
  auto g = m.grant(request(2), /*client=*/1, 1000, 0, /*routed=*/0u);
  ASSERT_TRUE(g.has_value());

  auto evicted = m.drain_executor(e0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].lease_id, g->lease_id);
  // The drained host's capacity left the pool entirely.
  EXPECT_EQ(m.shard_free_workers(0), 0u);
  EXPECT_EQ(m.shard_total_workers(0), 0u);
  EXPECT_EQ(m.free_workers_total(), 4u);
  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_EQ(m.alive_count(), 2u);  // still alive, just not schedulable
  // Late release of an already-evicted lease must not resurrect workers.
  EXPECT_FALSE(m.release(g->lease_id));
  EXPECT_EQ(m.shard_free_workers(0), 0u);
  // New placements route around the drained host (stealing if needed).
  auto g2 = m.grant(request(4), 1, 1000, 0, /*routed=*/0u);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->shard, 1u);
  // Draining twice (or a dead executor) is a no-op.
  EXPECT_TRUE(m.drain_executor(e0).empty());
  // Death of a draining host must not drift the aggregates.
  EXPECT_TRUE(m.mark_dead(e0).has_value());
  EXPECT_EQ(m.shard_total_workers(0), 0u);
  EXPECT_EQ(m.total_workers(), 4u);
}

TEST(Rebalance, MigratesCapacityFromFullestToEmptiestShard) {
  SRM m(sharded_config(4));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(m.add_executor(entry(8)));  // 4 per shard
  // Leases on shard 0, so a migration off it must evict them.
  auto g = m.grant(request(2), /*client=*/1, 1000, 0, /*routed=*/0u);
  ASSERT_TRUE(g.has_value());
  // Capacity evaporates from shards 2/3: three of four die in each.
  for (const auto id : ids) {
    if (SRM::id_shard(id) >= 2 && SRM::id_low(id) >= 1) (void)m.mark_dead(id);
  }
  EXPECT_EQ(m.shard_total_workers(2), 8u);
  const double skew_before = 32.0 / 8.0;

  auto report = m.rebalance(/*max_skew=*/1.3, /*max_moves=*/8, /*now=*/42);
  EXPECT_DOUBLE_EQ(report.skew_before, skew_before);
  EXPECT_LT(report.skew_after, report.skew_before);
  EXPECT_FALSE(report.migrations.empty());
  EXPECT_EQ(m.migrations(), report.migrations.size());
  // Total schedulable capacity is conserved across the sweep.
  EXPECT_EQ(m.total_workers(), 8u * 16u - 8u * 6u);
  EXPECT_EQ(m.free_workers_total(), m.total_workers());  // leases evicted

  // The evicted lease belongs to a migrated executor and is unknown now.
  bool lease_evicted = false;
  for (const auto& ev : report.evictions) lease_evicted |= ev.lease_id == g->lease_id;
  if (lease_evicted) {
    EXPECT_FALSE(m.release(g->lease_id));
  }

  // Migrated registrations serve grants from their new shards.
  for (const auto& mig : report.migrations) {
    EXPECT_NE(SRM::id_shard(mig.old_id), SRM::id_shard(mig.new_id));
    auto g2 = m.grant(request(1), 1, 1000, 0, /*routed=*/SRM::id_shard(mig.new_id));
    ASSERT_TRUE(g2.has_value());
    EXPECT_TRUE(m.release(g2->lease_id));
  }
  // Balanced within threshold: another sweep is a no-op.
  auto again = m.rebalance(1.3, 8, 43);
  EXPECT_TRUE(again.migrations.empty());
  EXPECT_DOUBLE_EQ(again.skew_before, report.skew_after);
}

// --------------------------------------------------------------------------
// Eviction races (threaded): evict-vs-renew and evict-vs-grant
// --------------------------------------------------------------------------

TEST(EvictionRace, ConcurrentEvictAndRenewResolveToOneOutcome) {
  constexpr unsigned kRounds = 500;
  SRM m(sharded_config(4));
  for (int i = 0; i < 8; ++i) m.add_executor(entry(16));
  const std::uint32_t total = m.free_workers_total();

  // Each round grants one lease per shard, then a renewer hammers them
  // while an evictor takes them down. Whatever the interleaving, every
  // lease must end exactly once (the eviction wins it or the release
  // does), renewals of a gone lease must fail cleanly, and no capacity
  // may be lost or invented.
  for (unsigned round = 0; round < kRounds / 50; ++round) {
    std::vector<std::uint64_t> held;
    for (std::uint32_t s = 0; s < 4; ++s) {
      for (int i = 0; i < 4; ++i) {
        auto g = m.grant(request(2), /*client=*/1, /*timeout=*/1'000'000, /*now=*/0, s);
        ASSERT_TRUE(g.has_value());
        held.push_back(g->lease_id);
      }
    }
    std::atomic<std::uint64_t> renew_wins{0};
    std::thread renewer([&m, &held, &renew_wins] {
      for (unsigned i = 0; i < 50; ++i) {
        for (const auto id : held) {
          if (m.renew(id, 2'000'000 + i).has_value()) {
            renew_wins.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
    std::thread evictor([&m, &held] {
      for (const auto id : held) {
        (void)m.evict(id);
      }
    });
    renewer.join();
    evictor.join();
    // The evictor visited every lease: all of them are gone, all
    // capacity is back, however many renewals squeezed in between.
    EXPECT_EQ(m.active_leases(), 0u);
    EXPECT_EQ(m.free_workers_total(), total);
    for (const auto id : held) EXPECT_FALSE(m.renew(id, 9'000'000).has_value());
  }
}

TEST(EvictionRace, StormAgainstGrantsAndReleasesConservesCapacity) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kIterations = 300;
  SRM m(sharded_config(4, SchedulingPolicy::PowerOfTwoChoices));
  for (int i = 0; i < 8; ++i) m.add_executor(entry(32));
  const std::uint32_t total = m.free_workers_total();

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      std::vector<std::uint64_t> held;
      for (unsigned i = 0; i < kIterations; ++i) {
        auto g = m.grant(request(1 + (i + t) % 3), t, /*timeout=*/1'000'000, /*now=*/i);
        if (g) held.push_back(g->lease_id);
        if (held.size() > 6) {
          // Alternate releasing and evicting our own backlog; both paths
          // return capacity exactly once.
          const auto id = held.front();
          held.erase(held.begin());
          if (i % 2 == 0) {
            (void)m.release(id);
          } else {
            (void)m.evict(id);
          }
        }
      }
      for (const auto id : held) (void)m.release(id);
    });
  }
  // A storm thread evicts random snapshots out from under the workers.
  threads.emplace_back([&m] {
    for (unsigned i = 0; i < 2 * kIterations; ++i) {
      auto ids = m.active_lease_ids(/*max=*/4);
      for (const auto id : ids) (void)m.evict(id);
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_EQ(m.free_workers_total(), total);
  EXPECT_GT(m.evictions(), 0u);
}

// --------------------------------------------------------------------------
// Locality-first shard routing
// --------------------------------------------------------------------------

TEST(LocalityRouting, ExecutorsShardByRackAndRequestsRouteHome) {
  Config c = sharded_config(4, SchedulingPolicy::LocalityFirst);
  SRM m(c);
  // Two executors per rack, racks 0-3: rack r must land on shard r.
  for (std::uint32_t rack = 0; rack < 4; ++rack) {
    for (int i = 0; i < 2; ++i) {
      auto e = entry(4);
      e.locality = rack;
      const auto id = m.add_executor(std::move(e));
      EXPECT_EQ(SRM::id_shard(id), rack);
    }
  }
  // A client in rack 2 routes to shard 2 and gets a rack-2 executor.
  EXPECT_EQ(m.preferred_shard_for(2), 2u);
  ScheduleRequest req = request(2);
  req.client_locality = 2;
  auto g = m.grant(req, 1, 1000, 0, m.preferred_shard_for(2));
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->shard, 2u);
  EXPECT_EQ(g->executor_locality, 2u);
  EXPECT_EQ(m.local_grants(), 1u);
}

TEST(LocalityRouting, ExhaustedHomeShardFallsBackToOtherRacks) {
  Config c = sharded_config(2, SchedulingPolicy::LocalityFirst);
  SRM m(c);
  auto local = entry(1);
  local.locality = 0;
  m.add_executor(std::move(local));
  auto remote = entry(8);
  remote.locality = 1;
  m.add_executor(std::move(remote));

  ScheduleRequest req = request(1);
  req.client_locality = 0;
  auto g1 = m.grant(req, 1, 1000, 0, m.preferred_shard_for(0));
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(g1->executor_locality, 0u);  // local while capacity lasts
  // Home shard drained: the next request must still be served, remotely.
  auto g2 = m.grant(req, 1, 1000, 0, m.preferred_shard_for(0));
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->executor_locality, 1u);
  EXPECT_EQ(m.local_grants(), 1u);
}

// --------------------------------------------------------------------------
// Single-shard equivalence: the classic manager, bit for bit
// --------------------------------------------------------------------------

TEST(SingleShard, ReproducesRoundRobinSeedOrder) {
  SRM m(sharded_config(1));
  for (int i = 0; i < 3; ++i) m.add_executor(entry(2));
  std::vector<std::uint64_t> order;
  std::vector<std::uint64_t> lease_ids;
  for (int i = 0; i < 6; ++i) {
    auto g = m.grant(request(1), 1, 1000, 0);
    ASSERT_TRUE(g.has_value());
    order.push_back(g->executor);
    lease_ids.push_back(g->lease_id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(lease_ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(m.steals(), 0u);
}

// --------------------------------------------------------------------------
// Concurrency: threaded grant/release stress (TSan/ASan target)
// --------------------------------------------------------------------------

TEST(ShardedConcurrency, ParallelGrantReleaseConservesCapacity) {
  constexpr unsigned kShards = 4;
  constexpr unsigned kExecutors = 16;
  constexpr unsigned kWorkersEach = 32;
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIterations = 400;

  SRM m(sharded_config(kShards, SchedulingPolicy::PowerOfTwoChoices));
  for (unsigned i = 0; i < kExecutors; ++i) m.add_executor(entry(kWorkersEach));
  const std::uint32_t total = m.free_workers_total();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      std::vector<std::uint64_t> held;
      for (unsigned i = 0; i < kIterations; ++i) {
        auto g = m.grant(request(1 + (i + t) % 4), /*client=*/t, /*timeout=*/1'000'000,
                         /*now=*/i);
        if (g) held.push_back(g->lease_id);
        // Release in FIFO order with a small backlog, so grants and
        // releases from all threads interleave on every shard.
        if (held.size() > 8) {
          EXPECT_TRUE(m.release(held.front()));
          held.erase(held.begin());
        }
      }
      for (auto id : held) EXPECT_TRUE(m.release(id));
    });
  }
  for (auto& t : threads) t.join();

  // Every grant was eventually released: no capacity lost or invented.
  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_EQ(m.free_workers_total(), total);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::uint32_t registry_free = 0;
    for (std::size_t i = 0; i < m.registry(s).size(); ++i) {
      registry_free += m.registry(s).at(i).free_workers;
    }
    EXPECT_EQ(m.shard_free_workers(s), registry_free) << "shard " << s;
  }
  EXPECT_GT(m.grants(), 0u);
}

TEST(ShardedConcurrency, ParallelSweepAndRenewStayConsistent) {
  constexpr unsigned kThreads = 4;
  SRM m(sharded_config(4));
  for (int i = 0; i < 8; ++i) m.add_executor(entry(64));

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      for (unsigned i = 0; i < 200; ++i) {
        auto g = m.grant(request(1), t, /*timeout=*/10, /*now=*/i);
        if (g && i % 3 == 0) m.renew(g->lease_id, i + 1000);
        if (i % 5 == 0) m.sweep_expired(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  m.sweep_expired(/*now=*/1'000'000);
  EXPECT_EQ(m.active_leases(), 0u);
  EXPECT_EQ(m.free_workers_total(), m.total_workers());
}

// --------------------------------------------------------------------------
// Control-plane integration through the harness
// --------------------------------------------------------------------------

cluster::ScenarioSpec sharded_spec(unsigned shards, unsigned executors = 12,
                                   unsigned clients = 8) {
  auto spec = cluster::ScenarioSpec::uniform(executors, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, clients);
  spec.racks = 4;
  spec.config.manager_shards = shards;
  spec.config.scheduling = SchedulingPolicy::PowerOfTwoChoices;
  return spec;
}

cluster::LeaseWorkload quick_workload() {
  cluster::LeaseWorkload w;
  w.workers_min = 1;
  w.workers_max = 4;
  w.memory_per_worker = 64ull << 20;
  w.hold_min = 500_ms;
  w.hold_max = 4_s;
  w.think_min = 50_ms;
  w.think_max = 500_ms;
  w.seed = 77;
  return w;
}

TEST(ShardedHarness, ExecutorsSpreadAcrossShardsAndWorkloadRuns) {
  cluster::Harness h(sharded_spec(/*shards=*/4));
  h.start();
  ASSERT_EQ(h.rm().core().shard_count(), 4u);
  EXPECT_EQ(h.rm().registered_executors(), 12u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(h.rm().core().registry(s).size(), 3u) << "shard " << s;
  }
  auto trace = h.run_lease_workload(quick_workload(), /*horizon=*/20_s);
  EXPECT_GT(trace.granted, 0u);
  EXPECT_EQ(trace.grant_latency.size(), trace.granted);
  EXPECT_EQ(h.rm().core().grants(), trace.granted);
  // All leases drain back after the horizon: run past the last expiry.
  h.run_for(400_s);
  EXPECT_EQ(h.rm().active_leases(), 0u);
  EXPECT_EQ(h.rm().free_workers_total(), h.rm().total_workers());
}

TEST(ShardedHarness, DeterministicAcrossRuns) {
  auto run_once = [] {
    cluster::Harness h(sharded_spec(/*shards=*/4));
    h.start();
    return h.run_lease_workload(quick_workload(), /*horizon=*/15_s);
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_GT(a.granted, 0u);
  EXPECT_EQ(a.granted, b.granted);
  // The (executor, workers) sequence the clients decoded, folded.
  EXPECT_EQ(a.placement_digest, b.placement_digest);
}

TEST(ShardedHarness, MultiTenantTraceSplitsPerTenant) {
  cluster::Harness h(sharded_spec(/*shards=*/2, /*executors=*/8, /*clients=*/6));
  h.start();
  cluster::TenantWorkload alpha{"alpha", /*clients=*/4, /*arrival_hz=*/20.0, quick_workload()};
  alpha.lease.hold_min = 10_ms;
  alpha.lease.hold_max = 100_ms;
  cluster::TenantWorkload beta{"beta", /*clients=*/2, /*arrival_hz=*/5.0, quick_workload()};
  beta.lease.seed = 1234;
  beta.lease.hold_min = 10_ms;
  beta.lease.hold_max = 100_ms;

  auto trace = h.run_multi_tenant_workload({alpha, beta}, /*horizon=*/10_s);
  ASSERT_EQ(trace.tenants.size(), 2u);
  EXPECT_EQ(trace.tenants[0].name, "alpha");
  EXPECT_GT(trace.tenants[0].granted, 0u);
  EXPECT_GT(trace.tenants[1].granted, 0u);
  // Four clients at 4x the rate: alpha must out-request beta.
  EXPECT_GT(trace.tenants[0].granted, trace.tenants[1].granted);
  EXPECT_EQ(trace.aggregate.granted,
            trace.tenants[0].granted + trace.tenants[1].granted);
  EXPECT_EQ(trace.aggregate.grant_latency.size(), trace.aggregate.granted);
  EXPECT_GT(trace.aggregate.grant_latency_percentile(99), 0.0);
}

TEST(ShardedHarness, QuotaPressureEvictsAndRetriesOverTheWire) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/1, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/2);
  spec.config.tenant_quota_workers = 4;
  cluster::Harness h(spec);
  h.start();

  // Raw wire, one request at a time: each request carries its own
  // nonzero id (the manager refuses id 0), unique per stream.
  auto acquire = [](cluster::Harness* hp, std::shared_ptr<net::TcpStream> stream,
                    std::uint32_t client, std::uint32_t workers, std::uint64_t request_id)
      -> sim::Task<Result<LeaseGrantMsg>> {
    LeaseRequestMsg req;
    req.client_id = client;
    req.workers = workers;
    req.memory_bytes = 64ull << 20;
    req.timeout = 60_s;
    req.request_id = request_id;
    stream->send(encode(req));
    auto raw = co_await stream->recv();
    (void)hp;
    if (!raw.has_value()) co_return Error::make(1, "stream closed");
    co_return decode_lease_grant(*raw);
  };

  auto scenario = [&]() -> sim::Task<void> {
    auto a = co_await h.tcp().connect(h.client_device(0).id(), h.rm().device().id(),
                                      h.rm().port());
    auto b = co_await h.tcp().connect(h.client_device(1).id(), h.rm().device().id(),
                                      h.rm().port());
    EXPECT_TRUE(a.ok() && b.ok());
    if (!a.ok() || !b.ok()) co_return;

    // Tenant 1 hogs the whole 8-worker fleet, double its quota of 4.
    auto a1 = co_await acquire(&h, a.value(), /*client=*/1, 4, /*request_id=*/1);
    auto a2 = co_await acquire(&h, a.value(), /*client=*/1, 4, /*request_id=*/2);
    EXPECT_TRUE(a1.ok() && a2.ok());
    EXPECT_EQ(h.rm().free_workers_total(), 0u);

    // Tenant 2's request would be denied for capacity — quota pressure
    // evicts one of tenant 1's leases and the retry grants it.
    auto b1 = co_await acquire(&h, b.value(), /*client=*/2, 4, /*request_id=*/1);
    EXPECT_TRUE(b1.ok());
    if (b1.ok()) {
      EXPECT_EQ(b1.value().workers, 4u);
    }
    EXPECT_EQ(h.rm().core().evictions(), 1u);
  };
  h.spawn(scenario());
  h.run_for(5_s);
  EXPECT_EQ(h.rm().active_leases(), 2u);  // one of tenant 1's + tenant 2's
}

TEST(ShardedHarness, PeriodicRebalanceRestoresBalanceAfterCrashes) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/8, /*cores=*/4,
                                             /*memory_bytes=*/16ull << 30, /*clients=*/4);
  spec.config.manager_shards = 4;  // two executors per shard
  spec.config.rebalance_period = 500_ms;
  spec.config.rebalance_max_skew = 1.5;
  cluster::Harness h(spec);
  h.start();
  for (std::uint32_t s = 0; s < 4; ++s) {
    ASSERT_EQ(h.rm().core().shard_total_workers(s), 8u) << "shard " << s;
  }

  // Both executors of shards 2 and 3 crash (registration is round-robin,
  // so executor index i lands on shard i % 4).
  for (std::size_t i : {std::size_t{2}, std::size_t{3}, std::size_t{6}, std::size_t{7}}) {
    h.executor(i).stop();
  }
  h.run_for(3_s);  // disconnect reclamation + a few rebalance sweeps

  // The sweep spread the four survivors back over all shards.
  EXPECT_GE(h.rm().core().migrations(), 2u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(h.rm().core().shard_total_workers(s), 4u) << "shard " << s;
  }

  // Migrated executors keep answering heartbeats under their new ids —
  // nobody gets falsely reaped — and the fleet still serves leases.
  h.run_for(5_s);
  EXPECT_EQ(h.rm().alive_executors(), 4u);
  auto trace = h.run_lease_workload(quick_workload(), /*horizon=*/5_s);
  EXPECT_GT(trace.granted, 0u);
}

TEST(ShardedHarness, ExtendLeaseOverTheWire) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/2, /*cores=*/4);
  spec.config.manager_shards = 2;
  cluster::Harness h(spec);
  h.start();

  auto client = [](cluster::Harness* hp) -> sim::Task<void> {
    auto conn = co_await hp->tcp().connect(hp->client_device(0).id(), hp->rm().device().id(),
                                           hp->rm().port());
    EXPECT_TRUE(conn.ok());
    if (!conn.ok()) co_return;
    auto stream = conn.value();

    LeaseRequestMsg req;
    req.client_id = 1;
    req.workers = 2;
    req.memory_bytes = 64ull << 20;
    req.timeout = 2_s;
    req.request_id = 1;  // the manager refuses id 0
    stream->send(encode(req));
    auto raw = co_await stream->recv();
    EXPECT_TRUE(raw.has_value());
    if (!raw.has_value()) co_return;
    auto grant = decode_lease_grant(*raw);
    EXPECT_TRUE(grant.ok());
    if (!grant.ok()) co_return;

    // Renew for 30 s: the manager must answer ExtendOk with the pushed
    // deadline and the heartbeat sweep must not reclaim at the old one.
    ExtendLeaseMsg extend;
    extend.lease_id = grant.value().lease_id;
    extend.extension = 30_s;
    extend.request_id = 2;
    stream->send(encode(extend));
    auto raw2 = co_await stream->recv();
    EXPECT_TRUE(raw2.has_value());
    if (!raw2.has_value()) co_return;
    auto ok = decode_extend_ok(*raw2);
    EXPECT_TRUE(ok.ok());
    if (!ok.ok()) co_return;
    EXPECT_EQ(ok.value().lease_id, grant.value().lease_id);
    EXPECT_GT(ok.value().expires_at, grant.value().expires_at);

    // Renewing a bogus lease fails with a lease error.
    ExtendLeaseMsg bogus;
    bogus.lease_id = ShardedResourceManager::make_id(1, 999);
    bogus.extension = 1_s;
    bogus.request_id = 3;
    stream->send(encode(bogus));
    auto raw3 = co_await stream->recv();
    EXPECT_TRUE(raw3.has_value());
    if (!raw3.has_value()) co_return;
    EXPECT_FALSE(decode_extend_ok(*raw3).ok());
  };
  h.spawn(client(&h));
  h.run_for(5_s);  // past the original 2 s expiry plus a heartbeat
  EXPECT_EQ(h.rm().active_leases(), 1u);  // renewed lease survived
  h.run_for(40_s);
  EXPECT_EQ(h.rm().active_leases(), 0u);  // renewed deadline enforced
}

// --------------------------------------------------------------------------
// Expiry-index (timer heap) edge cases
// --------------------------------------------------------------------------

TEST(ExpiryIndex, RenewalRearmAtTheHeapBoundary) {
  SRM m(sharded_config(1));
  m.add_executor(entry(8));
  auto g = m.grant(request(2), 1, /*timeout=*/100, /*now=*/0);
  ASSERT_TRUE(g.has_value());

  // Re-arm to the *same* deadline: the heap now holds two entries for
  // the lease. The sweep one tick early must not reap, the sweep at the
  // boundary reclaims exactly once, and capacity comes back exactly once.
  ASSERT_TRUE(m.renew(g->lease_id, 100).has_value());
  EXPECT_EQ(m.sweep_expired(99), 0u);
  EXPECT_EQ(m.sweep_expired(100), 1u);
  EXPECT_EQ(m.sweep_expired(100), 0u);  // duplicate heap entry is stale
  EXPECT_EQ(m.free_workers_total(), 8u);
  EXPECT_EQ(m.active_leases(), 0u);

  // Re-arm *earlier* than the armed deadline: the new entry must fire at
  // the earlier time even though the original one is still queued.
  auto g2 = m.grant(request(2), 1, /*timeout=*/200, /*now=*/0);
  ASSERT_TRUE(g2.has_value());
  ASSERT_TRUE(m.renew(g2->lease_id, 150).has_value());
  EXPECT_EQ(m.sweep_expired(149), 0u);
  EXPECT_EQ(m.sweep_expired(150), 1u);
  EXPECT_EQ(m.sweep_expired(200), 0u);  // original entry surfaces stale
  EXPECT_EQ(m.free_workers_total(), 8u);
}

TEST(ExpiryIndex, EvictingAnAlreadyExpiredLeaseResolvesOnce) {
  SRM m(sharded_config(1));
  m.add_executor(entry(8));
  auto g = m.grant(request(4), 1, /*timeout=*/100, /*now=*/0);
  ASSERT_TRUE(g.has_value());

  // The lease is past its deadline but not yet swept: evict() wins the
  // race, returns the capacity, and the later sweep must not double
  // count the stale heap entry.
  auto ev = m.evict(g->lease_id);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->workers, 4u);
  EXPECT_EQ(m.free_workers_total(), 8u);
  EXPECT_EQ(m.sweep_expired(500), 0u);
  EXPECT_EQ(m.free_workers_total(), 8u);
  // And the mirror race: swept first, evicted second resolves to a no-op.
  auto g2 = m.grant(request(4), 1, /*timeout=*/100, /*now=*/0);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(m.sweep_expired(1000), 1u);
  EXPECT_FALSE(m.evict(g2->lease_id).has_value());
  EXPECT_EQ(m.free_workers_total(), 8u);
}

TEST(ExpiryIndex, ClockRegressionNeverReapsEarlyOrWedgesTheHeap) {
  SRM m(sharded_config(1));
  m.add_executor(entry(8));
  auto early = m.grant(request(2), 1, /*timeout=*/100, /*now=*/0);
  auto late = m.grant(request(2), 1, /*timeout=*/200, /*now=*/0);
  ASSERT_TRUE(early.has_value() && late.has_value());

  EXPECT_EQ(m.sweep_expired(120), 1u);  // the 100-deadline lease
  // The clock runs backwards (a resynced heartbeat loop): nothing may be
  // reaped early, and the index must stay functional afterwards.
  EXPECT_EQ(m.sweep_expired(10), 0u);
  EXPECT_EQ(m.active_leases(), 1u);
  EXPECT_EQ(m.sweep_expired(199), 0u);
  EXPECT_EQ(m.sweep_expired(200), 1u);
  EXPECT_EQ(m.free_workers_total(), 8u);
}

TEST(ExpiryIndex, RenewalChurnIsCompactedAndStaysCorrect) {
  SRM m(sharded_config(1));
  m.add_executor(entry(8));
  auto g = m.grant(request(1), 1, /*timeout=*/10, /*now=*/0);
  ASSERT_TRUE(g.has_value());
  // Thousands of re-arms of one lease: the heap must not blow up the
  // sweep (compaction) and the final deadline must be the binding one.
  Time deadline = 10;
  for (int i = 0; i < 5000; ++i) {
    deadline += 10;
    ASSERT_TRUE(m.renew(g->lease_id, deadline).has_value());
    if (i % 100 == 0) {
      EXPECT_EQ(m.sweep_expired(deadline - 1), 0u);
    }
  }
  EXPECT_EQ(m.sweep_expired(deadline - 1), 0u);
  EXPECT_EQ(m.sweep_expired(deadline), 1u);
  EXPECT_EQ(m.free_workers_total(), 8u);
}

// --------------------------------------------------------------------------
// Index-vs-scan equivalence (the *_scan reference implementations)
// --------------------------------------------------------------------------

TEST(IndexEquivalence, SweepMatchesTheScanReference) {
  // Two managers driven through the same grant/renew/release sequence:
  // the indexed sweep and the full-table scan must reclaim the same
  // leases and leave identical capacity behind.
  auto build = [] {
    auto m = std::make_unique<SRM>(sharded_config(4));
    for (int i = 0; i < 8; ++i) m->add_executor(entry(16));
    return m;
  };
  auto drive = [](SRM& m) {
    Rng rng(2024);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 400; ++i) {
      auto g = m.grant(request(1 + i % 3), 1 + i % 5,
                       /*timeout=*/100 + rng.uniform_int(0, 900), /*now=*/0);
      if (g) ids.push_back(g->lease_id);
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) (void)m.release(ids[i]);
    for (std::size_t i = 1; i < ids.size(); i += 4) (void)m.renew(ids[i], 5000);
    return ids;
  };
  auto indexed = build();
  auto scanned = build();
  drive(*indexed);
  drive(*scanned);

  for (Time now : {Time{300}, Time{600}, Time{900}, Time{5000}}) {
    EXPECT_EQ(indexed->sweep_expired(now), scanned->sweep_expired_scan(now)) << now;
    EXPECT_EQ(indexed->active_leases(), scanned->active_leases()) << now;
    EXPECT_EQ(indexed->free_workers_total(), scanned->free_workers_total()) << now;
    EXPECT_EQ(indexed->active_lease_ids(), scanned->active_lease_ids()) << now;
  }
}

TEST(IndexEquivalence, QuotaReclaimMatchesTheScanReference) {
  auto build = [] {
    auto m = std::make_unique<SRM>(sharded_config(4));
    for (int i = 0; i < 8; ++i) m->add_executor(entry(16));
    // Tenants 1-6 hold skewed worker counts across shards.
    for (int i = 0; i < 60; ++i) {
      (void)m->grant(request(1 + i % 4), /*client=*/1 + i % 6, /*timeout=*/100000, 0);
    }
    return m;
  };
  auto indexed = build();
  auto scanned = build();
  ASSERT_EQ(indexed->active_leases(), scanned->active_leases());

  for (std::uint32_t quota : {12u, 8u, 4u}) {
    auto a = indexed->reclaim_quota(/*requesting_client=*/2, quota, /*workers_needed=*/7);
    auto b = scanned->reclaim_quota_scan(/*requesting_client=*/2, quota, 7);
    ASSERT_EQ(a.size(), b.size()) << "quota " << quota;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].lease_id, b[i].lease_id);
      EXPECT_EQ(a[i].client_id, b[i].client_id);
      EXPECT_EQ(a[i].workers, b[i].workers);
    }
    EXPECT_EQ(indexed->active_leases(), scanned->active_leases());
    EXPECT_EQ(indexed->free_workers_total(), scanned->free_workers_total());
  }
}

TEST(IndexEquivalence, TenantCountersTrackGrantsReleasesAndEvictions) {
  SRM m(sharded_config(2));
  m.add_executor(entry(16));
  m.add_executor(entry(16));
  auto g1 = m.grant(request(4), /*client=*/7, 1000, 0);
  auto g2 = m.grant(request(2), /*client=*/7, 1000, 0);
  auto g3 = m.grant(request(3), /*client=*/9, 1000, 0);
  ASSERT_TRUE(g1 && g2 && g3);
  EXPECT_EQ(m.tenant_held_workers(7), 6u);
  EXPECT_EQ(m.tenant_held_workers(9), 3u);
  EXPECT_EQ(m.tenant_held_workers(1), 0u);

  EXPECT_TRUE(m.release(g2->lease_id));
  EXPECT_EQ(m.tenant_held_workers(7), 4u);
  ASSERT_TRUE(m.evict(g1->lease_id).has_value());
  EXPECT_EQ(m.tenant_held_workers(7), 0u);
  EXPECT_EQ(m.sweep_expired(2000), 1u);  // g3 expires
  EXPECT_EQ(m.tenant_held_workers(9), 0u);
}

TEST(IndexEquivalence, QuotaEvictionTakesTheOldestSurvivorsAfterCompaction) {
  // Tenant 1 takes 20 one-worker leases and releases 14 of them out of
  // order. Its index drops the released ids at the 11th release, when
  // they outnumber the live ones, and keeps the last three as dead
  // entries. Quota eviction must still take the oldest survivors first.
  std::vector<std::uint64_t> ids;
  std::uint64_t young = 0;
  auto build = [&] {
    auto m = std::make_unique<SRM>(sharded_config(1));
    m->add_executor(entry(32));
    ids.clear();
    for (int i = 0; i < 20; ++i) {
      auto g = m->grant(request(1), /*client=*/1, /*timeout=*/100000, 0);
      EXPECT_TRUE(g.has_value());
      ids.push_back(g ? g->lease_id : 0);
    }
    for (int i : {18, 0, 7, 2, 16, 1, 9, 14, 5, 12, 4, 10, 6, 13}) {
      EXPECT_TRUE(m->release(ids[i]));
    }
    auto g = m->grant(request(1), /*client=*/1, /*timeout=*/100000, 0);  // after the compaction
    EXPECT_TRUE(g.has_value());
    young = g ? g->lease_id : 0;
    return m;
  };
  auto indexed = build();
  auto scanned = build();

  const std::vector<std::uint64_t> survivors = {ids[3],  ids[8],  ids[11], ids[15],
                                                ids[17], ids[19], young};
  const auto state = indexed->export_state();
  ASSERT_EQ(state.shards[0].tenants.size(), 1u);
  EXPECT_EQ(state.shards[0].tenants[0].leases, survivors);  // ascending, released ids gone
  EXPECT_EQ(state.shards[0].tenants[0].held_workers, 7u);

  // Requester 2 needs 3 workers under a quota of 2: tenant 1's three
  // oldest surviving leases go, in id order.
  auto a = indexed->reclaim_quota(/*requesting_client=*/2, /*quota_workers=*/2,
                                  /*workers_needed=*/3);
  auto b = scanned->reclaim_quota_scan(2, 2, 3);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lease_id, survivors[i]);
    EXPECT_EQ(b[i].lease_id, survivors[i]);
  }
  EXPECT_EQ(indexed->tenant_held_workers(1), 4u);
  EXPECT_EQ(indexed->export_state().digest(), scanned->export_state().digest());
}

// --------------------------------------------------------------------------
// Storm-aware rebalance backoff
// --------------------------------------------------------------------------

TEST(ShardedHarness, StormAwareBackoffDefersRebalanceDuringEvictionStorms) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/8, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/8);
  spec.config.manager_shards = 2;  // four executors per shard
  spec.config.rebalance_period = 300_ms;
  spec.config.rebalance_max_skew = 1.3;
  cluster::Harness h(spec);
  h.start();

  // Skew the fleet: drain three of shard 1's executors so a rebalance
  // sweep has every reason to migrate capacity over. Executors register
  // round-robin, so index i lands on shard i % 2.
  unsigned drained = 0;
  for (std::size_t i = 1; i < 8 && drained < 3; i += 2) {
    ASSERT_TRUE(h.drain_executor(i).has_value());
    ++drained;
  }
  ASSERT_EQ(drained, 3u);
  ASSERT_GT(h.rm().core().shard_total_workers(0), 2 * h.rm().core().shard_total_workers(1));

  // Phase 1: an eviction storm rages across the whole workload horizon.
  // Every rebalance round sees the eviction counter rising and must sit
  // out — no migrations, only skips. Holds and thinks are short so lease
  // arrivals outpace the storm (the fleet never runs dry of victims).
  cluster::LeaseWorkload workload = quick_workload();
  workload.hold_min = 300_ms;
  workload.hold_max = 1_s;
  workload.think_min = 20_ms;
  workload.think_max = 100_ms;
  const std::uint64_t evictions_after_drain = h.rm().core().evictions();
  (void)h.start_eviction_storm(/*period=*/100_ms, /*leases_per_tick=*/1,
                               /*duration=*/12_s, /*seed=*/5);
  (void)h.run_lease_workload(workload, /*horizon=*/6_s);
  EXPECT_GT(h.rm().core().evictions(), evictions_after_drain);  // the storm did evict
  EXPECT_GT(h.rm().rebalance_sweeps_skipped(), 0u);
  EXPECT_EQ(h.rm().core().migrations(), 0u);

  // Phase 2: the storm ends (duration covers phase 1 plus slack; once
  // leases drain there is nothing left to evict) — the next quiet round
  // rebalances the drained-away skew.
  h.run_for(20_s);
  EXPECT_GT(h.rm().core().migrations(), 0u);
  const double skew =
      static_cast<double>(std::max(h.rm().core().shard_total_workers(0),
                                   h.rm().core().shard_total_workers(1))) /
      static_cast<double>(std::max(1u, std::min(h.rm().core().shard_total_workers(0),
                                                h.rm().core().shard_total_workers(1))));
  EXPECT_LE(skew, 1.5);
}

}  // namespace
}  // namespace rfs::rfaas
