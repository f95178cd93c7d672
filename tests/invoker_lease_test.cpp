// Tests of the client-side lease lifecycle: the LeaseSet auto-renewal
// component (renew-ahead-of-expiry, failure/expiry callbacks), invoker
// auto-renewal end to end (renewed leases keep their sandboxes alive past
// the original TTL via the manager's LeaseRenewed push), batched lease
// acquisition through the invoker and over a bare session, and the harness
// churn workload sustaining leases past the TTL with zero spurious
// expiries.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/harness.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs::rfaas {
namespace {

cluster::ScenarioSpec small_fleet(unsigned executors = 1, unsigned cores = 4,
                                  unsigned shards = 1) {
  auto spec = cluster::ScenarioSpec::uniform(executors, cores, 32ull << 30, /*clients=*/1);
  spec.config.manager_shards = shards;
  return spec;
}

/// Opens a session to the resource manager from client host 0; null
/// (after a failed expectation) when the connection is refused.
sim::Task<std::shared_ptr<Session>> open_session(cluster::Harness& h) {
  auto conn = co_await h.tcp().connect(h.client_device(0).id(), h.rm().device().id(),
                                       h.rm().port());
  EXPECT_TRUE(conn.ok());
  if (!conn.ok()) co_return nullptr;
  co_return std::make_shared<Session>(h.engine(), conn.value());
}

/// One request/reply call on `session`, stamped with its next request id.
template <typename Msg>
sim::Task<Result<Bytes>> call(const std::shared_ptr<Session>& session, Msg msg) {
  msg.request_id = session->next_request_id();
  co_return co_await session->call(encode(msg), msg.request_id);
}

/// Acquires one lease of `workers` workers with the given timeout over
/// a session to the resource manager.
sim::Task<Result<LeaseGrantMsg>> acquire_one(std::shared_ptr<Session> session,
                                             std::uint32_t workers, Duration timeout) {
  LeaseRequestMsg req;
  req.client_id = 1;
  req.workers = workers;
  req.memory_bytes = 64ull << 20;
  req.timeout = timeout;
  auto raw = co_await call(session, req);
  if (!raw.ok()) co_return raw.error();
  co_return decode_lease_grant(raw.value());
}

// --------------------------------------------------------------------------
// LeaseSet: renewal ahead of expiry, callbacks, failure modes
// --------------------------------------------------------------------------

TEST(LeaseSet, RenewsAheadOfExpiryAndSurvivesTheSweep) {
  cluster::Harness h(small_fleet());
  h.start();

  LeaseSetOptions opts;
  opts.renew_margin = 500_ms;
  opts.extension = 2_s;
  LeaseSet leases(h.engine(), opts);
  std::vector<std::uint64_t> renewed_ids;
  leases.on_renewed([&](std::uint64_t id, Time) { renewed_ids.push_back(id); });

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    if (session == nullptr) co_return;
    auto grant = co_await acquire_one(session, 2, 2_s);
    EXPECT_TRUE(grant.ok());
    if (!grant.ok()) co_return;

    leases.bind(session);
    leases.track(grant.value().lease_id, grant.value().expires_at, 2_s);
    leases.start();
  };
  h.spawn(scenario());

  // 10 s is five TTLs: without renewal the heartbeat sweep reclaims the
  // lease after ~2-3 s; with renewal it must still be live.
  h.run_for(10_s);
  EXPECT_EQ(h.rm().active_leases(), 1u);
  EXPECT_GE(leases.renewals(), 3u);
  EXPECT_EQ(leases.renewal_failures(), 0u);
  EXPECT_EQ(leases.expiries(), 0u);
  EXPECT_EQ(leases.size(), 1u);
  EXPECT_FALSE(renewed_ids.empty());
  EXPECT_GT(leases.earliest_expiry(), h.engine().now());

  // Stop renewing: the manager's sweep must reclaim at the last deadline.
  leases.stop();
  h.run_for(10_s);
  EXPECT_EQ(h.rm().active_leases(), 0u);
}

TEST(LeaseSet, UnknownLeaseSurfacesFailureAndExpiry) {
  cluster::Harness h(small_fleet());
  h.start();

  LeaseSetOptions opts;
  opts.renew_margin = 500_ms;
  opts.extension = 2_s;
  LeaseSet leases(h.engine(), opts);
  std::string failure_reason;
  std::vector<std::uint64_t> expired_ids;
  leases.on_renewal_failed(
      [&](std::uint64_t, const std::string& reason) { failure_reason = reason; });
  leases.on_expired([&](std::uint64_t id) { expired_ids.push_back(id); });

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    if (session == nullptr) co_return;
    leases.bind(session);
    // Never granted: the manager answers every renewal with LeaseError.
    leases.track(/*lease_id=*/4242, h.engine().now() + 2_s, 2_s);
    leases.start();
  };
  h.spawn(scenario());

  h.run_for(5_s);
  EXPECT_GE(leases.renewal_failures(), 1u);
  EXPECT_EQ(leases.expiries(), 1u);
  EXPECT_EQ(leases.size(), 0u);  // given up after the refusal
  EXPECT_EQ(failure_reason, "unknown lease");
  EXPECT_EQ(expired_ids, (std::vector<std::uint64_t>{4242}));
}

TEST(LeaseSet, LaterShortLeaseInterruptsALongSleep) {
  cluster::Harness h(small_fleet(/*executors=*/2));
  h.start();

  LeaseSetOptions opts;
  opts.renew_margin = 1_s;
  LeaseSet leases(h.engine(), opts);

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    if (session == nullptr) co_return;
    leases.bind(session);

    // A long lease first: the renewal actor goes to sleep until ~t+299s.
    auto long_grant = co_await acquire_one(session, 1, 300_s);
    EXPECT_TRUE(long_grant.ok());
    if (!long_grant.ok()) co_return;
    leases.track(long_grant.value().lease_id, long_grant.value().expires_at, 300_s);
    leases.start();
    co_await sim::delay(1_s);

    // A short lease tracked mid-sleep must interrupt that sleep: its
    // renewal window (due ~t+3s) is far earlier than the sleep target.
    auto short_grant = co_await acquire_one(session, 1, 4_s);
    EXPECT_TRUE(short_grant.ok());
    if (!short_grant.ok()) co_return;
    leases.track(short_grant.value().lease_id, short_grant.value().expires_at, 4_s);
  };
  h.spawn(scenario());

  h.run_for(20_s);
  EXPECT_GE(leases.renewals(), 3u);  // the short lease kept renewing
  EXPECT_EQ(leases.expiries(), 0u);
  EXPECT_EQ(leases.size(), 2u);
  EXPECT_EQ(h.rm().active_leases(), 2u);  // both still live at t=20s
}

TEST(LeaseSet, DueRenewalsFireInRenewalOrder) {
  cluster::Harness h(small_fleet());
  h.start();

  LeaseSetOptions opts;
  opts.renew_margin = 1_s;
  opts.extension = 20_s;
  LeaseSet leases(h.engine(), opts);
  std::vector<std::uint64_t> ids;
  Time tracked_at = 0;
  std::vector<std::uint64_t> renewed_ids;
  std::vector<Time> renewed_at;
  leases.on_renewed([&](std::uint64_t id, Time) {
    renewed_ids.push_back(id);
    renewed_at.push_back(h.engine().now());
  });

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    if (session == nullptr) co_return;
    leases.bind(session);
    leases.start();  // the actor sleeps on an empty table
    for (int i = 0; i < 3; ++i) {
      auto grant = co_await acquire_one(session, 1, 30_s);
      EXPECT_TRUE(grant.ok());
      if (!grant.ok()) co_return;
      ids.push_back(grant.value().lease_id);
    }
    co_await sim::delay(2_s);

    // Track all three with deadlines inside the 1 s margin, so every
    // renewal instant (deadline - 1 s) already lies behind the clock —
    // and in an order that is not the id order: ids[1] (now - 0.7 s),
    // ids[2] (now - 0.5 s), ids[0] (now - 0.3 s).
    tracked_at = h.engine().now();
    leases.track(ids[0], tracked_at + 700_ms, 30_s);
    leases.track(ids[1], tracked_at + 300_ms, 30_s);
    leases.track(ids[2], tracked_at + 500_ms, 30_s);
  };
  h.spawn(scenario());

  h.run_for(3_s);
  ASSERT_EQ(ids.size(), 3u);
  // One pass, started at the tracking instant: three back-to-back
  // ExtendLease round trips (~140 us each), earliest renewal instant
  // first.
  EXPECT_EQ(renewed_ids, (std::vector<std::uint64_t>{ids[1], ids[2], ids[0]}));
  ASSERT_EQ(renewed_at.size(), 3u);
  EXPECT_LT(renewed_at.back() - tracked_at, 1_ms);
  EXPECT_EQ(leases.renewal_failures(), 0u);
  EXPECT_EQ(leases.expiries(), 0u);
  EXPECT_EQ(h.rm().active_leases(), 3u);
}

TEST(LeaseSet, StopStartCycleLeavesASingleRenewalActor) {
  cluster::Harness h(small_fleet());
  h.start();

  LeaseSetOptions opts;
  opts.renew_margin = 500_ms;
  opts.extension = 2_s;
  LeaseSet leases(h.engine(), opts);

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    if (session == nullptr) co_return;
    leases.bind(session);
    auto grant = co_await acquire_one(session, 1, 2_s);
    EXPECT_TRUE(grant.ok());
    if (!grant.ok()) co_return;
    leases.track(grant.value().lease_id, grant.value().expires_at, 2_s);

    // Start, stop while the actor sleeps, start again: exactly one
    // actor may survive, or renewals double (and so would the wire
    // traffic and the renewal counters the benches gate on).
    leases.start();
    co_await sim::delay(200_ms);
    leases.stop();
    co_await sim::delay(200_ms);
    leases.start();
  };
  h.spawn(scenario());

  // TTL 2s, margin 0.5s: one actor renews at ~1.5s intervals — at most
  // 5 renewals fit in 7s; a duplicated actor would roughly double that.
  h.run_for(7_s);
  EXPECT_GE(leases.renewals(), 3u);
  EXPECT_LE(leases.renewals(), 5u);
  EXPECT_EQ(leases.expiries(), 0u);
  EXPECT_EQ(h.rm().active_leases(), 1u);
}

TEST(LeaseSet, UntrackedLeaseIsNeverRenewed) {
  cluster::Harness h(small_fleet());
  h.start();

  LeaseSetOptions opts;
  opts.renew_margin = 500_ms;
  LeaseSet leases(h.engine(), opts);

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    if (session == nullptr) co_return;
    auto grant = co_await acquire_one(session, 1, 2_s);
    EXPECT_TRUE(grant.ok());
    if (!grant.ok()) co_return;
    leases.bind(session);
    leases.track(grant.value().lease_id, grant.value().expires_at, 2_s);
    leases.start();
    EXPECT_TRUE(leases.untrack(grant.value().lease_id));
    EXPECT_FALSE(leases.untrack(grant.value().lease_id));
  };
  h.spawn(scenario());

  h.run_for(6_s);
  EXPECT_EQ(leases.renewals(), 0u);
  // Nobody renewed: the manager sweep reclaims at the original TTL.
  EXPECT_EQ(h.rm().active_leases(), 0u);
}

// --------------------------------------------------------------------------
// Invoker auto-renewal end to end
// --------------------------------------------------------------------------

TEST(InvokerLease, AutoRenewKeepsSandboxAlivePastTtl) {
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult late{};
  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    spec.lease_timeout = 2_s;
    spec.auto_renew = true;
    spec.renew_margin = 500_ms;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    if (!st.ok()) co_return;

    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    // Two and a half TTLs after allocation the sandbox would be gone
    // without renewal (executors enforce expiry exactly); the renewed
    // lease must still serve invocations.
    co_await sim::delay(5_s);
    late = co_await invoker->invoke(0, in, 16, out);
    co_await invoker->deallocate();
  };
  h.spawn(scenario());
  h.run_for(20_s);

  EXPECT_TRUE(late.ok);
  EXPECT_GE(invoker->leases().renewals(), 2u);
  EXPECT_EQ(invoker->leases().expiries(), 0u);
  EXPECT_EQ(invoker->leases().size(), 0u);  // deallocate untracked it
  EXPECT_EQ(h.rm().active_leases(), 0u);
}

TEST(InvokerLease, WithoutRenewalTheSandboxDiesAtTtl) {
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult late{};
  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    spec.lease_timeout = 2_s;  // no auto_renew
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    if (!st.ok()) co_return;

    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    co_await sim::delay(5_s);
    late = co_await invoker->invoke(0, in, 16, out);
  };
  h.spawn(scenario());
  h.run_for(20_s);

  // The executor tore the sandbox down at the 2 s deadline.
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(invoker->leases().renewals(), 0u);
}

// --------------------------------------------------------------------------
// Batched acquisition
// --------------------------------------------------------------------------

TEST(InvokerLease, BatchedAllocationAggregatesLeasesInOneRoundTrip) {
  cluster::Harness h(small_fleet(/*executors=*/4, /*cores=*/2, /*shards=*/2));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 8;  // needs all four 2-core executors
    spec.batched_leases = true;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  };
  h.spawn(scenario());
  h.run_for(10_s);

  EXPECT_EQ(invoker->connected_workers(), 8u);
  EXPECT_EQ(invoker->lease_count(), 4u);
  EXPECT_EQ(h.rm().active_leases(), 4u);
  // The whole multi-lease acquisition was one BatchAllocate.
  EXPECT_EQ(h.rm().core().batches(), 1u);
}

TEST(BatchWire, AllOrNothingRollsBackAndBestEffortDeliversPartials) {
  cluster::Harness h(small_fleet(/*executors=*/2, /*cores=*/2, /*shards=*/2));
  h.start();
  const std::uint32_t fleet_free = h.rm().free_workers_total();
  ASSERT_EQ(fleet_free, 4u);

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    if (session == nullptr) co_return;

    // All-or-nothing for more than the fleet has: empty reply, and the
    // provisionally granted leases are rolled back.
    BatchAllocateMsg req;
    req.client_id = 1;
    req.workers = 8;
    req.memory_bytes = 64ull << 20;
    req.timeout = 60_s;
    req.mode = static_cast<std::uint8_t>(BatchMode::AllOrNothing);
    auto raw = co_await call(session, req);
    EXPECT_TRUE(raw.ok());
    if (!raw.ok()) co_return;
    auto reply = decode_batch_granted(raw.value());
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) co_return;
    EXPECT_FALSE(reply.value().complete);
    EXPECT_TRUE(reply.value().grants.empty());
    EXPECT_FALSE(reply.value().error.empty());
    EXPECT_EQ(h.rm().active_leases(), 0u);
    EXPECT_EQ(h.rm().free_workers_total(), fleet_free);

    // Best-effort with the same ask: both executors' capacity comes back
    // as partial leases spanning both shards.
    req.mode = static_cast<std::uint8_t>(BatchMode::BestEffort);
    auto raw2 = co_await call(session, req);
    EXPECT_TRUE(raw2.ok());
    if (!raw2.ok()) co_return;
    auto reply2 = decode_batch_granted(raw2.value());
    EXPECT_TRUE(reply2.ok());
    if (!reply2.ok()) co_return;
    EXPECT_FALSE(reply2.value().complete);
    EXPECT_EQ(reply2.value().grants.size(), 2u);
    if (reply2.value().grants.size() != 2u) co_return;
    std::uint32_t total = 0;
    for (const auto& g : reply2.value().grants) total += g.workers;
    EXPECT_EQ(total, fleet_free);
    EXPECT_NE(ShardedResourceManager::id_shard(reply2.value().grants[0].lease_id),
              ShardedResourceManager::id_shard(reply2.value().grants[1].lease_id));
  };
  h.spawn(scenario());
  h.run_for(5_s);
  EXPECT_EQ(h.rm().active_leases(), 2u);
}

// --------------------------------------------------------------------------
// Self-healing allocations: manager-initiated eviction, drain, storms
// --------------------------------------------------------------------------

TEST(SelfHeal, EvictionMigratesTheAllocationTransparently) {
  cluster::Harness h(small_fleet(/*executors=*/2));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult before{}, after{};
  std::size_t live_after_heal = 0;
  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    spec.lease_timeout = 30_s;
    spec.self_heal = true;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    if (!st.ok()) co_return;

    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    before = co_await invoker->invoke(0, in, 16, out);

    // The manager reclaims the allocation's only lease.
    auto ids = h.rm().core().active_lease_ids();
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_EQ(h.rm().evict_leases(ids, TerminationReason::QuotaPressure), 1u);

    co_await sim::delay(2_s);  // push -> heal -> redeploy settles
    live_after_heal = h.executor(0).live_sandboxes() + h.executor(1).live_sandboxes();
    after = co_await invoker->invoke(0, in, 16, out);
    co_await invoker->deallocate();
  };
  h.spawn(scenario());
  h.run_for(20_s);

  EXPECT_TRUE(before.ok);
  EXPECT_TRUE(after.ok);  // the workload migrated instead of failing
  EXPECT_EQ(invoker->leases().terminations(), 1u);
  EXPECT_EQ(invoker->leases().reallocations(), 1u);
  EXPECT_EQ(invoker->redeployments(), 1u);
  EXPECT_EQ(live_after_heal, 1u);  // old sandbox reclaimed, one redeployed
  EXPECT_EQ(h.rm().active_leases(), 0u);  // deallocate released the healed lease
}

TEST(SelfHeal, EvictVsInvokeRaceRecoversWithinTheLoop) {
  cluster::Harness h(small_fleet(/*executors=*/2));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  unsigned ok_count = 0, failures = 0;
  bool last_ok = false;
  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    spec.lease_timeout = 30_s;
    spec.self_heal = true;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    if (!st.ok()) co_return;

    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    for (int i = 0; i < 60; ++i) {
      if (i == 20) {
        // Evict mid-loop: invocations race the teardown + re-allocation.
        (void)h.rm().evict_leases(h.rm().core().active_lease_ids(),
                                  TerminationReason::QuotaPressure);
      }
      auto r = co_await invoker->invoke(0, in, 16, out);
      last_ok = r.ok;
      r.ok ? ++ok_count : ++failures;
      co_await sim::delay(10_ms);
    }
  };
  h.spawn(scenario());
  h.run_for(60_s);

  EXPECT_EQ(invoker->leases().reallocations(), 1u);
  EXPECT_TRUE(last_ok);          // serving again after the heal
  EXPECT_GE(ok_count, 50u);      // only the heal window can fail
  EXPECT_LE(failures, 10u);
}

TEST(SelfHeal, WithoutSelfHealingEvictionKillsTheAllocation) {
  cluster::Harness h(small_fleet(/*executors=*/2));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult after{};
  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    spec.lease_timeout = 30_s;
    spec.auto_renew = true;  // renewing, but not self-healing
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    if (!st.ok()) co_return;

    (void)h.rm().evict_leases(h.rm().core().active_lease_ids(),
                              TerminationReason::QuotaPressure);
    co_await sim::delay(2_s);
    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    after = co_await invoker->invoke(0, in, 16, out);
  };
  h.spawn(scenario());
  // Long enough for the renewal actor to notice: its ExtendLease at
  // ~22.5 s (margin = TTL/4) is refused — the client's first signal.
  h.run_for(40_s);

  EXPECT_FALSE(after.ok);  // the failing control of fig15
  EXPECT_EQ(invoker->leases().reallocations(), 0u);
  EXPECT_GE(invoker->leases().losses(), 1u);
}

TEST(SelfHeal, DrainMigratesTheSandboxOffTheDrainedHost) {
  cluster::Harness h(small_fleet(/*executors=*/2));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult after{};
  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    spec.lease_timeout = 30_s;
    spec.self_heal = true;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    if (!st.ok()) co_return;
    // Round-robin placement put the sandbox on executor 0; drain it.
    EXPECT_EQ(h.executor(0).live_sandboxes(), 1u);
    auto evicted = h.drain_executor(0);
    EXPECT_TRUE(evicted.has_value());
    if (evicted.has_value()) EXPECT_EQ(*evicted, 1u);

    co_await sim::delay(2_s);
    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    after = co_await invoker->invoke(0, in, 16, out);
  };
  h.spawn(scenario());
  h.run_for(20_s);

  EXPECT_TRUE(after.ok);
  EXPECT_EQ(invoker->leases().terminations(), 1u);
  EXPECT_EQ(invoker->leases().reallocations(), 1u);
  // The replacement could only land on the other host.
  EXPECT_EQ(h.executor(0).live_sandboxes(), 0u);
  EXPECT_EQ(h.executor(1).live_sandboxes(), 1u);
}

TEST(SelfHeal, PartialReplacementReRequestsTheRemainder) {
  // The lost lease held 4 workers on a 4-core host; after that host is
  // drained the survivors offer only 2 workers each, so the heal must
  // fan the chain out over two partial grants instead of settling for a
  // shrunken allocation.
  cluster::ScenarioSpec spec;
  spec.executors = {{1, 4, 32ull << 30}, {2, 2, 32ull << 30}};
  spec.client_hosts = 1;
  cluster::Harness h(spec);
  h.start();

  LeaseSetOptions opts;
  opts.self_heal = true;
  opts.realloc_budget = 4;
  opts.realloc_backoff = 10_ms;
  LeaseSet leases(h.engine(), opts);
  std::vector<LeaseGrantMsg> replacements;
  leases.on_reallocated(
      [&](std::uint64_t, const LeaseGrantMsg& g) { replacements.push_back(g); });
  std::vector<LeaseGrantMsg> extensions;
  leases.on_chain_extended(
      [&](std::uint64_t, const LeaseGrantMsg& g) { extensions.push_back(g); });

  std::uint64_t origin = 0;
  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    auto notify = co_await open_session(h);
    if (session == nullptr || notify == nullptr) co_return;
    leases.bind(session);
    leases.subscribe(notify, /*client_id=*/1);

    auto grant = co_await acquire_one(session, /*workers=*/4, /*timeout=*/300_s);
    EXPECT_TRUE(grant.ok());
    if (!grant.ok()) co_return;
    EXPECT_EQ(grant.value().workers, 4u);  // landed whole on the 4-core host
    origin = grant.value().lease_id;
    leases.track(origin, grant.value().expires_at, 300_s, /*workers=*/4,
                 /*memory_per_worker=*/64ull << 20);
    leases.start();

    // Drain the hosting executor: the lease is terminated and no
    // replacement that large exists anywhere.
    EXPECT_EQ(h.drain_executor(0), std::optional<std::size_t>{1});
    co_await sim::delay(2_s);  // push -> heal -> remainder re-request settles

    // One healed lease, fanned out over two partial grants of 2 workers.
    EXPECT_EQ(leases.terminations(), 1u);
    EXPECT_EQ(leases.reallocations(), 1u);
    EXPECT_EQ(leases.realloc_failures(), 0u);
    EXPECT_EQ(leases.size(), 2u);
    EXPECT_EQ(replacements.size(), 1u);
    EXPECT_EQ(extensions.size(), 1u);
    if (replacements.size() != 1 || extensions.size() != 1) co_return;
    EXPECT_EQ(replacements[0].workers + extensions[0].workers, 4u);
    EXPECT_EQ(h.rm().core().tenant_held_workers(1), 4u);  // full shape restored
    EXPECT_EQ(h.rm().active_leases(), 2u);
    // The chain resolves to the first replacement grant.
    EXPECT_EQ(leases.resolve(origin), replacements[0].lease_id);

    // Abandoning the chain releases the secondary lease internally and
    // hands the primary back for the holder to release.
    const std::uint64_t primary = leases.abandon(origin);
    EXPECT_EQ(primary, replacements[0].lease_id);
    EXPECT_EQ(leases.size(), 0u);
    ReleaseResourcesMsg rel;
    rel.lease_id = primary;
    rel.workers = replacements[0].workers;
    rel.memory_bytes = (64ull << 20) * replacements[0].workers;
    auto ack = co_await call(session, rel);
    EXPECT_TRUE(ack.ok() && decode_release_ok(ack.value()).ok());
    co_await sim::delay(100_ms);
    EXPECT_EQ(h.rm().active_leases(), 0u);  // nothing leaked
    EXPECT_EQ(h.rm().free_workers_total(), 4u);  // both survivors whole again
    leases.stop();
  };
  h.spawn(scenario());
  h.run_for(10_s);
  EXPECT_EQ(h.rm().active_leases(), 0u);
}

TEST(SelfHeal, PartialHealGivesUpCleanlyWhenTheBudgetRunsOut) {
  // Only 2 of the lost 4 workers exist anywhere: the heal lands the
  // partial grant, keeps re-requesting the remainder, and runs out of
  // budget without counting a failure for the workers it did replace.
  cluster::ScenarioSpec spec;
  spec.executors = {{1, 4, 32ull << 30}, {1, 2, 32ull << 30}};
  spec.client_hosts = 1;
  cluster::Harness h(spec);
  h.start();

  LeaseSetOptions opts;
  opts.self_heal = true;
  opts.realloc_budget = 2;
  opts.realloc_backoff = 5_ms;
  LeaseSet leases(h.engine(), opts);

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    auto notify = co_await open_session(h);
    if (session == nullptr || notify == nullptr) co_return;
    leases.bind(session);
    leases.subscribe(notify, /*client_id=*/1);

    auto grant = co_await acquire_one(session, /*workers=*/4, /*timeout=*/300_s);
    EXPECT_TRUE(grant.ok());
    if (!grant.ok()) co_return;
    EXPECT_EQ(grant.value().workers, 4u);
    leases.track(grant.value().lease_id, grant.value().expires_at, 300_s, 4, 64ull << 20);
    leases.start();

    EXPECT_EQ(h.drain_executor(0), std::optional<std::size_t>{1});
    co_await sim::delay(2_s);

    // The 2-worker survivor carries half the shape; the remainder denial
    // burns the budget. The heal still counts as a reallocation (some
    // capacity came back) and not as a failure.
    EXPECT_EQ(leases.reallocations(), 1u);
    EXPECT_EQ(leases.realloc_failures(), 0u);
    EXPECT_EQ(leases.size(), 1u);
    EXPECT_EQ(h.rm().core().tenant_held_workers(1), 2u);
    leases.stop();
  };
  h.spawn(scenario());
  h.run_for(10_s);
}

/// Shared setup for the retry_after regression pair: a manager whose
/// admission layer has exactly one capacity token (refilling at 0.2/s,
/// so the next token is ~5 s out), a tracked 4-worker lease, and an
/// eviction that sends the heal loop through that admission wall.
struct HealBackoffProbe {
  std::uint64_t reallocations = 0;
  std::uint64_t realloc_failures = 0;
  std::uint64_t overload_denials = 0;
};

HealBackoffProbe run_heal_against_admission(bool honor_retry_after) {
  cluster::ScenarioSpec spec;
  spec.executors = {{1, 4, 32ull << 30}, {1, 4, 32ull << 30}};
  spec.client_hosts = 1;
  // One token up front (the initial acquire spends it); the refill is
  // so slow that any heal attempt inside the next ~5 s is shed with a
  // retry_after hint of that entire wait.
  spec.config.admission.capacity_hz = 0.2;
  spec.config.admission.retry_after_max = 5_s;
  cluster::Harness h(spec);
  h.start();

  LeaseSetOptions opts;
  opts.self_heal = true;
  opts.realloc_budget = 4;
  opts.realloc_backoff = 2_ms;
  opts.honor_retry_after = honor_retry_after;
  opts.backoff_jitter = 0;  // exact timelines — this test counts attempts
  LeaseSet leases(h.engine(), opts);

  auto scenario = [&]() -> sim::Task<void> {
    auto session = co_await open_session(h);
    auto notify = co_await open_session(h);
    if (session == nullptr || notify == nullptr) co_return;
    leases.bind(session);
    leases.subscribe(notify, /*client_id=*/1);

    auto grant = co_await acquire_one(session, /*workers=*/4, /*timeout=*/300_s);
    EXPECT_TRUE(grant.ok());
    if (!grant.ok()) co_return;
    leases.track(grant.value().lease_id, grant.value().expires_at, 300_s, 4, 64ull << 20);
    leases.start();
    EXPECT_EQ(h.drain_executor(0), std::optional<std::size_t>{1});
  };
  h.spawn(scenario());
  h.run_for(12_s);

  HealBackoffProbe probe;
  probe.reallocations = leases.reallocations();
  probe.realloc_failures = leases.realloc_failures();
  probe.overload_denials = leases.overload_denials();
  leases.stop();
  return probe;
}

TEST(SelfHeal, DenialRetryAfterFloorsTheHealBackoff) {
  // Regression: heal loops used to back off by their own exponential
  // schedule only, ignoring the manager's retry_after hint — a 2 ms
  // initial backoff re-offered the denied request long before capacity
  // could exist, burning the whole realloc budget into the wall (see
  // the companion test below for that amplification). Honoring the hint
  // floors the wait: one denial, one ~5 s sleep, then a heal that lands.
  auto probe = run_heal_against_admission(/*honor_retry_after=*/true);
  EXPECT_EQ(probe.reallocations, 1u);
  EXPECT_EQ(probe.realloc_failures, 0u);
  // The timer truncation on the hint can land the retry 1 ns before the
  // token is whole; at most one extra denial, never a storm.
  EXPECT_LE(probe.overload_denials, 2u);
  EXPECT_GE(probe.overload_denials, 1u);
}

TEST(SelfHeal, IgnoringRetryAfterAmplifiesTheStorm) {
  // The pre-fix behavior, pinned deliberately: with the hint ignored,
  // every backoff in the budget fires inside the 5 s capacity gap, so
  // the heal dies at the wall having amplified one eviction into
  // budget-many denied requests. This is what honor_retry_after is for.
  auto probe = run_heal_against_admission(/*honor_retry_after=*/false);
  EXPECT_EQ(probe.reallocations, 0u);
  EXPECT_EQ(probe.realloc_failures, 1u);
  EXPECT_EQ(probe.overload_denials, 4u);  // the entire realloc budget
}

TEST(SelfHealWorkload, SurvivesAnEvictionStorm) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/8, /*cores=*/8, 32ull << 30,
                                             /*clients=*/4);
  spec.config.manager_shards = 2;
  cluster::Harness h(spec);
  h.start();

  cluster::LeaseWorkload workload;
  workload.workers_min = 1;
  workload.workers_max = 4;
  workload.memory_per_worker = 64ull << 20;
  workload.hold_min = 1_s;
  workload.hold_max = 4_s;
  workload.think_min = 50_ms;
  workload.think_max = 300_ms;
  workload.lease_timeout = 5_s;
  workload.auto_renew = true;
  workload.subscribe_events = true;
  workload.self_heal = true;
  workload.seed = 11;

  auto storm = h.start_eviction_storm(/*period=*/100_ms, /*leases_per_tick=*/1,
                                      /*duration=*/10_s);
  auto trace = h.run_lease_workload(workload, /*horizon=*/15_s);

  EXPECT_GT(storm->evicted, 0u);
  EXPECT_GT(trace.terminations, 0u);
  EXPECT_GE(trace.survival_pct(), 99.0);  // lost leases were replaced
  EXPECT_GT(trace.reclaim_latency_percentile(99), 0.0);
  // Everything drains once holds end and renewals stop: no leaked
  // replacements, no stranded capacity.
  h.run_for(30_s);
  EXPECT_EQ(h.rm().active_leases(), 0u);
  EXPECT_EQ(h.rm().free_workers_total(), h.rm().total_workers());
}

// --------------------------------------------------------------------------
// Renewal-aware billing: the full renewed span accrues, not the original
// --------------------------------------------------------------------------

TEST(Billing, RenewedAllocationSpanKeepsAccruing) {
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  auto scenario = [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.memory_per_worker = 64ull << 20;
    spec.lease_timeout = 2_s;
    spec.auto_renew = true;
    spec.renew_margin = 500_ms;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  };
  h.spawn(scenario());
  h.run_for(10_s);

  // Still held (renewals keep it alive) — and still billed: ~10 s of a
  // 64 MiB reservation. Billing the original 2 s span only would cap at
  // 64 MiB x 2000 ms; billing at teardown only would read zero here.
  EXPECT_EQ(h.rm().active_leases(), 1u);
  const auto usage = h.rm().billing().usage(invoker->client_id());
  EXPECT_GT(usage.allocation_mib_ms, 64ull * 5000);
}

// --------------------------------------------------------------------------
// Harness churn workload: leases outlive the TTL with zero expiries
// --------------------------------------------------------------------------

TEST(ChurnWorkload, SustainsLeasesPastTtlWithZeroSpuriousExpiries) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/4, /*cores=*/8, 32ull << 30,
                                             /*clients=*/4);
  spec.config.manager_shards = 2;
  cluster::Harness h(spec);
  h.start();

  auto workload = cluster::LeaseWorkload::churn(/*lease_timeout=*/2_s, /*seed=*/5);
  workload.workers_min = 1;
  workload.workers_max = 4;
  workload.memory_per_worker = 64ull << 20;
  auto trace = h.run_lease_workload(workload, /*horizon=*/30_s);

  EXPECT_GT(trace.granted, 0u);
  EXPECT_GT(trace.renewals, trace.granted);  // holds span several TTLs
  EXPECT_EQ(trace.renewal_failures, 0u);
  EXPECT_EQ(trace.spurious_expiries, 0u);
  // Everything drains once the holds end and renewals stop.
  h.run_for(60_s);
  EXPECT_EQ(h.rm().active_leases(), 0u);
  EXPECT_EQ(h.rm().free_workers_total(), h.rm().total_workers());
}

}  // namespace
}  // namespace rfs::rfaas
