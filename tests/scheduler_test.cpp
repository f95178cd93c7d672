// Tests of the lease-scheduling layer: ExecutorRegistry bookkeeping, the
// three placement policies (placement order, partial grants, capacity
// exhaustion, oversubscription), determinism across runs with the same
// seed, and the harness-driven utilization comparison that backs Fig. 2b.
#include <gtest/gtest.h>

#include <set>

#include "cluster/harness.hpp"
#include "rfaas/scheduler.hpp"

namespace rfs::rfaas {
namespace {

ExecutorEntry entry(std::uint32_t free_workers, std::uint64_t free_memory = 64ull << 30,
                    std::uint32_t locality = 0) {
  ExecutorEntry e;
  e.total_workers = free_workers;
  e.free_workers = free_workers;
  e.free_memory = free_memory;
  e.alive = true;
  e.locality = locality;
  return e;
}

ScheduleRequest request(std::uint32_t workers, std::uint64_t memory_per_worker = 1 << 20,
                        std::uint32_t locality = 0) {
  ScheduleRequest r;
  r.workers = workers;
  r.memory_per_worker = memory_per_worker;
  r.client_locality = locality;
  return r;
}

/// Runs one place-and-commit cycle the way the resource manager does.
std::optional<Placement> grant(Scheduler& s, ExecutorRegistry& reg, const ScheduleRequest& req) {
  std::vector<bool> excluded(reg.size(), false);
  while (auto p = s.place(reg, req, excluded)) {
    if (reg.try_claim(p->executor, p->workers, p->memory)) return p;
    excluded[p->executor] = true;
  }
  return std::nullopt;
}

// --------------------------------------------------------------------------
// ExecutorRegistry
// --------------------------------------------------------------------------

TEST(ExecutorRegistry, ClaimReleaseRoundTrip) {
  ExecutorRegistry reg;
  reg.add(entry(4, 1 << 30));
  EXPECT_TRUE(reg.try_claim(0, 3, 3 << 20));
  EXPECT_EQ(reg.at(0).free_workers, 1u);
  EXPECT_EQ(reg.free_workers_total(), 1u);
  reg.release(0, 3, 3 << 20);
  EXPECT_EQ(reg.at(0).free_workers, 4u);
  EXPECT_EQ(reg.at(0).free_memory, 1ull << 30);
}

TEST(ExecutorRegistry, ClaimFailsOnDeadOrOverCapacity) {
  ExecutorRegistry reg;
  reg.add(entry(4, 1 << 30));
  EXPECT_FALSE(reg.try_claim(0, 5, 0));          // more workers than free
  EXPECT_FALSE(reg.try_claim(0, 1, 2ull << 30));  // more memory than free
  reg.mark_dead(0);
  EXPECT_FALSE(reg.try_claim(0, 1, 0));
  EXPECT_EQ(reg.alive_count(), 0u);
  EXPECT_EQ(reg.free_workers_total(), 0u);
}

TEST(ExecutorRegistry, ReleaseOnDeadExecutorIsNoOp) {
  ExecutorRegistry reg;
  reg.add(entry(4));
  ASSERT_TRUE(reg.try_claim(0, 2, 0));
  reg.mark_dead(0);
  reg.release(0, 2, 0);  // late release of a lease the death already dropped
  EXPECT_EQ(reg.at(0).free_workers, 0u);
}

// --------------------------------------------------------------------------
// Round-robin: seed-equivalent placement order
// --------------------------------------------------------------------------

TEST(RoundRobin, ReproducesSeedPlacementOrder) {
  // The seed scanned from a cursor, granted min(free, requested) on the
  // first executor with spare capacity, and advanced the cursor past the
  // grantee. Three 2-worker executors, six 1-worker requests must land
  // 0, 1, 2, 0, 1, 2 — exactly the seed's order.
  ExecutorRegistry reg;
  for (int i = 0; i < 3; ++i) reg.add(entry(2));
  RoundRobinScheduler rr;
  std::vector<std::size_t> order;
  for (int i = 0; i < 6; ++i) {
    auto p = grant(rr, reg, request(1));
    ASSERT_TRUE(p.has_value());
    order.push_back(p->executor);
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
}

TEST(RoundRobin, PartialGrantAndCursorAdvance) {
  ExecutorRegistry reg;
  reg.add(entry(2));
  reg.add(entry(8));
  RoundRobinScheduler rr;

  // Request 8 workers: executor 0 grants only its 2 free (partial).
  auto p1 = grant(rr, reg, request(8));
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->executor, 0u);
  EXPECT_EQ(p1->workers, 2u);

  // The cursor moved past executor 0; the next request lands on 1.
  auto p2 = grant(rr, reg, request(8));
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->executor, 1u);
  EXPECT_EQ(p2->workers, 8u);
}

TEST(RoundRobin, SkipsExecutorWithoutMemory) {
  // Seed rule: min(free, requested) workers must fit in free memory or
  // the executor is skipped entirely (no shrinking).
  ExecutorRegistry reg;
  reg.add(entry(4, /*free_memory=*/1 << 20));
  reg.add(entry(4, /*free_memory=*/1 << 30));
  RoundRobinScheduler rr;
  auto p = grant(rr, reg, request(4, /*memory_per_worker=*/1 << 20));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->executor, 1u);
}

TEST(RoundRobin, ExhaustionYieldsNoPlacement) {
  ExecutorRegistry reg;
  reg.add(entry(1));
  RoundRobinScheduler rr;
  ASSERT_TRUE(grant(rr, reg, request(1)).has_value());
  EXPECT_FALSE(grant(rr, reg, request(1)).has_value());
}

TEST(RoundRobin, DeadBetweenScanAndGrantFailsCleanly) {
  ExecutorRegistry reg;
  reg.add(entry(4));
  reg.add(entry(4));
  RoundRobinScheduler rr;

  // The policy picks executor 0, but it dies before the commit: the
  // grant loop must exclude it and retry, landing on executor 1.
  std::vector<bool> excluded(reg.size(), false);
  auto p = rr.place(reg, request(2), excluded);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->executor, 0u);
  reg.mark_dead(0);
  EXPECT_FALSE(reg.try_claim(p->executor, p->workers, p->memory));

  excluded[p->executor] = true;
  auto retry = rr.place(reg, request(2), excluded);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->executor, 1u);
  EXPECT_TRUE(reg.try_claim(retry->executor, retry->workers, retry->memory));

  // With everything dead the loop terminates with no placement.
  reg.mark_dead(1);
  EXPECT_FALSE(grant(rr, reg, request(1)).has_value());
}

// --------------------------------------------------------------------------
// Least-loaded
// --------------------------------------------------------------------------

TEST(LeastLoaded, PicksFreestAndBreaksTiesByIndex) {
  ExecutorRegistry reg;
  reg.add(entry(2));
  reg.add(entry(6));
  reg.add(entry(6));
  LeastLoadedScheduler ll;
  auto p1 = grant(ll, reg, request(1));
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->executor, 1u);  // tie between 1 and 2 -> lowest index
  auto p2 = grant(ll, reg, request(1));
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->executor, 2u);  // now 2 is freest
}

TEST(LeastLoaded, PartialGrantsPreferBiggestPool) {
  // Round-robin would grant 1 worker from the nearly-full executor the
  // cursor points at; least-loaded always grants from the deepest pool.
  ExecutorRegistry reg;
  reg.add(entry(1));
  reg.add(entry(8));
  LeastLoadedScheduler ll;
  auto p = grant(ll, reg, request(4));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->executor, 1u);
  EXPECT_EQ(p->workers, 4u);
}

TEST(LeastLoaded, ExhaustionYieldsNoPlacement) {
  ExecutorRegistry reg;
  reg.add(entry(2));
  reg.add(entry(2));
  LeastLoadedScheduler ll;
  ASSERT_TRUE(grant(ll, reg, request(4)).has_value());
  ASSERT_TRUE(grant(ll, reg, request(4)).has_value());
  EXPECT_FALSE(grant(ll, reg, request(1)).has_value());
}

// --------------------------------------------------------------------------
// Power-of-two-choices
// --------------------------------------------------------------------------

TEST(PowerOfTwo, DeterministicForFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    ExecutorRegistry reg;
    for (int i = 0; i < 8; ++i) reg.add(entry(16));
    PowerOfTwoScheduler p2c(seed);
    std::vector<std::size_t> order;
    for (int i = 0; i < 32; ++i) {
      auto p = grant(p2c, reg, request(2));
      EXPECT_TRUE(p.has_value());
      if (!p) break;
      order.push_back(p->executor);
    }
    return order;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));  // different stream, same mechanism
}

TEST(PowerOfTwo, PrefersClientLocalityWithTwoExecutors) {
  // With exactly two executors the sampled pair is always {0, 1}, so the
  // locality preference fully determines the winner while both fit.
  ExecutorRegistry reg;
  reg.add(entry(4, 64ull << 30, /*locality=*/0));
  reg.add(entry(4, 64ull << 30, /*locality=*/1));
  PowerOfTwoScheduler p2c(7);
  for (int i = 0; i < 4; ++i) {
    auto p = grant(p2c, reg, request(1, 1 << 20, /*locality=*/1));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->executor, 1u);
  }
  // Local executor exhausted: the remote one serves the overflow.
  auto p = grant(p2c, reg, request(1, 1 << 20, /*locality=*/1));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->executor, 0u);
}

TEST(PowerOfTwo, BalancesBetterThanArrivalOrder) {
  // Classic two-choices property: with many single-worker grants and no
  // releases, the max load across executors stays near the mean.
  ExecutorRegistry reg;
  for (int i = 0; i < 16; ++i) reg.add(entry(64));
  PowerOfTwoScheduler p2c(11);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(grant(p2c, reg, request(1)).has_value());
  }
  std::uint32_t max_used = 0, min_used = UINT32_MAX;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const std::uint32_t used = 64 - reg.at(i).free_workers;
    max_used = std::max(max_used, used);
    min_used = std::min(min_used, used);
  }
  EXPECT_LE(max_used - min_used, 8u);  // mean load is 16 per executor
}

// --------------------------------------------------------------------------
// LocalityFirst: rack-local least-loaded, power-of-two fallback
// --------------------------------------------------------------------------

TEST(LocalityFirst, PicksLeastLoadedExecutorInTheClientsRack) {
  ExecutorRegistry reg;
  reg.add(entry(8, 64ull << 30, /*locality=*/0));   // remote, freest overall
  reg.add(entry(2, 64ull << 30, /*locality=*/1));   // local
  reg.add(entry(4, 64ull << 30, /*locality=*/1));   // local, freer
  LocalityFirstScheduler sched(7);
  auto p = grant(sched, reg, request(1, 1 << 20, /*locality=*/1));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->executor, 2u);  // local beats freer-but-remote
}

TEST(LocalityFirst, FallsBackToPowerOfTwoWhenTheRackIsFull) {
  ExecutorRegistry reg;
  reg.add(entry(1, 64ull << 30, /*locality=*/1));
  reg.add(entry(8, 64ull << 30, /*locality=*/0));
  LocalityFirstScheduler sched(7);
  auto p1 = grant(sched, reg, request(1, 1 << 20, /*locality=*/1));
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->executor, 0u);  // drains the rack
  auto p2 = grant(sched, reg, request(1, 1 << 20, /*locality=*/1));
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->executor, 1u);  // cross-rack fallback still places
}

TEST(LocalityFirst, SkipsExcludedLocalExecutors) {
  ExecutorRegistry reg;
  reg.add(entry(4, 64ull << 30, /*locality=*/1));
  reg.add(entry(2, 64ull << 30, /*locality=*/1));
  LocalityFirstScheduler sched(7);
  std::vector<bool> excluded{true, false};  // e.g. found dead at commit
  auto p = sched.place(reg, request(1, 1 << 20, /*locality=*/1), excluded);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->executor, 1u);
}

// --------------------------------------------------------------------------
// Config plumbing and oversubscription (platform level)
// --------------------------------------------------------------------------

TEST(SchedulerConfig, FactorySelectsPolicy) {
  Config c;
  EXPECT_STREQ(make_scheduler(c)->name(), "round-robin");
  c.scheduling = SchedulingPolicy::LeastLoaded;
  EXPECT_STREQ(make_scheduler(c)->name(), "least-loaded");
  c.scheduling = SchedulingPolicy::PowerOfTwoChoices;
  EXPECT_STREQ(make_scheduler(c)->name(), "power-of-two");
  c.scheduling = SchedulingPolicy::LocalityFirst;
  EXPECT_STREQ(make_scheduler(c)->name(), "locality-first");
  EXPECT_STREQ(to_string(SchedulingPolicy::LeastLoaded), "least-loaded");
  EXPECT_STREQ(to_string(SchedulingPolicy::LocalityFirst), "locality-first");
}

TEST(SchedulerConfig, OversubscriptionScalesLeaseCapacity) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/2, /*cores=*/4);
  spec.config.lease_oversubscription = 2.0;
  cluster::Harness h(spec);
  h.start();
  // 2 executors x 4 cores x 2.0 oversubscription = 16 leasable workers.
  EXPECT_EQ(h.rm().free_workers_total(), 16u);
  EXPECT_EQ(h.rm().registry().total_workers(), 16u);
}

// --------------------------------------------------------------------------
// Harness-level: placement determinism and utilization ordering
// --------------------------------------------------------------------------

cluster::ScenarioSpec hetero_spec(SchedulingPolicy policy) {
  cluster::ScenarioSpec spec;
  spec.executors = {{1, 16, 64ull << 30}, {3, 4, 16ull << 30}};
  spec.client_hosts = 6;
  spec.racks = 2;
  spec.config.scheduling = policy;
  return spec;
}

cluster::LeaseWorkload test_workload() {
  cluster::LeaseWorkload w;
  w.workers_min = 1;
  w.workers_max = 8;
  w.memory_per_worker = 64ull << 20;
  w.hold_min = 1_s;
  w.hold_max = 8_s;
  w.think_min = 50_ms;
  w.think_max = 500_ms;
  w.seed = 99;
  return w;
}

TEST(HarnessScheduling, IdenticalPlacementsAcrossTwoSeededRuns) {
  auto run_once = [](SchedulingPolicy policy) {
    cluster::Harness h(hetero_spec(policy));
    h.start();
    return h.run_lease_workload(test_workload(), /*horizon=*/20_s);
  };
  std::set<std::uint64_t> digests;
  for (auto policy : {SchedulingPolicy::RoundRobin, SchedulingPolicy::LeastLoaded,
                      SchedulingPolicy::PowerOfTwoChoices}) {
    auto a = run_once(policy);
    auto b = run_once(policy);
    ASSERT_GT(a.granted, 0u);
    EXPECT_EQ(a.granted, b.granted);
    // The (executor, workers) sequence the clients decoded, folded.
    EXPECT_EQ(a.placement_digest, b.placement_digest);
    digests.insert(a.placement_digest);
  }
  // The digest sees the placements: each policy places differently.
  EXPECT_EQ(digests.size(), 3u);
}

TEST(HarnessScheduling, LeastLoadedUtilizationAtLeastRoundRobin) {
  auto run_once = [](SchedulingPolicy policy) {
    cluster::Harness h(hetero_spec(policy));
    h.start();
    return h.run_lease_workload(test_workload(), /*horizon=*/40_s);
  };
  auto rr = run_once(SchedulingPolicy::RoundRobin);
  auto ll = run_once(SchedulingPolicy::LeastLoaded);
  EXPECT_GE(ll.mean_utilization(), rr.mean_utilization());
  EXPECT_GT(ll.granted + ll.denied, 0u);
}

TEST(LeaseLifecycle, HeartbeatSweepReclaimsExpiredLease) {
  // A lease acquired over raw TCP with no sandbox behind it: the executor
  // side never tears anything down, so only the resource manager's
  // heartbeat sweep can return the workers to the free pool.
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/1, /*cores=*/4);
  cluster::Harness h(spec);
  h.start();
  ASSERT_EQ(h.rm().free_workers_total(), 4u);

  auto client = [](cluster::Harness* hp) -> sim::Task<void> {
    auto conn = co_await hp->tcp().connect(hp->client_device(0).id(), hp->rm().device().id(),
                                           hp->rm().port());
    EXPECT_TRUE(conn.ok());
    if (!conn.ok()) co_return;
    LeaseRequestMsg req;
    req.client_id = 1;
    req.workers = 2;
    req.memory_bytes = 64ull << 20;
    req.timeout = 3_s;
    req.request_id = 1;  // the manager refuses id 0
    conn.value()->send(encode(req));
    auto raw = co_await conn.value()->recv();
    EXPECT_TRUE(raw.has_value());
    if (!raw.has_value()) co_return;
    EXPECT_TRUE(decode_lease_grant(*raw).ok());
    // Never released: the client walks away holding the grant.
  };
  h.spawn(client(&h));
  h.run_for(1_s);
  EXPECT_EQ(h.rm().active_leases(), 1u);
  EXPECT_EQ(h.rm().free_workers_total(), 2u);

  // Past the 3 s expiry plus a heartbeat period: the sweep reclaims.
  h.run_for(5_s);
  EXPECT_EQ(h.rm().active_leases(), 0u);
  EXPECT_EQ(h.rm().free_workers_total(), 4u);
}

TEST(HarnessScheduling, EveryPlacementFlowsThroughScheduler) {
  // The manager counts placements in its single grant step; the number
  // committed must equal the number of grants observed by the workload
  // counters.
  cluster::Harness h(hetero_spec(SchedulingPolicy::RoundRobin));
  h.start();
  auto trace = h.run_lease_workload(test_workload(), /*horizon=*/20_s);
  EXPECT_GT(trace.granted, 0u);
  EXPECT_EQ(h.rm().core().grants(), trace.granted);
}

}  // namespace
}  // namespace rfs::rfaas
