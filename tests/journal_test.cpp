// Replay-equivalence tests of the replication journal (journal.hpp) and
// the warm standby replica (replica.hpp): seeded random op sequences —
// grants, renews, releases, expiry sweeps, quota evictions, drains,
// rebalances, executor deaths, re-attaches — run against a journaling
// primary whose live stream feeds a replica through the wire encoding,
// the way ResourceManager::attach_standby wires one, and the two
// managers' canonical states must compare (and digest) identically.
// Also pinned: a snapshot installed mid-history plus the live stream
// equals the stream from genesis, duplicated records are benign, and a
// corrupted, gapped or reordered stream is detected rather than applied.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "rfaas/journal.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/replica.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs::rfaas {
namespace {

using SRM = ShardedResourceManager;

ExecutorEntry entry(std::uint32_t workers, std::uint64_t memory = 64ull << 30,
                    std::uint32_t locality = 0) {
  ExecutorEntry e;
  e.total_workers = workers;
  e.free_workers = workers;
  e.free_memory = memory;
  e.alive = true;
  e.locality = locality;
  e.info.cores = workers;
  e.info.memory_bytes = memory;
  return e;
}

ScheduleRequest request(std::uint32_t workers, std::uint64_t memory_per_worker = 1 << 20) {
  ScheduleRequest r;
  r.workers = workers;
  r.memory_per_worker = memory_per_worker;
  return r;
}

Config journaled_config(unsigned shards, std::uint64_t seed = 42,
                        SchedulingPolicy policy = SchedulingPolicy::RoundRobin) {
  Config c;
  c.manager_shards = shards;
  c.scheduling = policy;
  c.scheduler_seed = seed;
  c.journal_enabled = true;
  return c;
}

/// Drives a seeded random op mix against a primary, remembering the
/// lease ids and executor ids it created so later ops can target them.
/// Stale targets are fine — release/renew/evict of a gone lease is a
/// no-op on the primary and journals nothing.
struct OpDriver {
  SRM& m;
  Rng rng;
  Time now = 0;
  std::vector<std::uint64_t> leases;
  std::vector<std::uint64_t> executors;

  OpDriver(SRM& manager, std::uint64_t seed) : m(manager), rng(seed) {}

  std::uint64_t pick(const std::vector<std::uint64_t>& v) {
    return v[rng.uniform_int(0, v.size() - 1)];
  }

  void grant(std::uint32_t max_workers, Duration timeout) {
    const auto client = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    auto g = m.grant(request(static_cast<std::uint32_t>(rng.uniform_int(1, max_workers))),
                     client, timeout, now);
    if (g) leases.push_back(g->lease_id);
  }

  void release() {
    if (!leases.empty()) m.release(pick(leases));
  }

  void renew(Duration extend) {
    if (!leases.empty()) m.renew(pick(leases), now + extend);
  }

  void evict() {
    if (!leases.empty()) m.evict(pick(leases));
  }
};

/// Feeds `replica` every record the primary journals from now on, each
/// one through its wire frame (encode -> apply_wire), as the manager's
/// standby sink does. A record that fails to apply fails the test.
void stream_to(SRM& primary, StandbyReplica& replica) {
  primary.journal()->add_sink([&replica](const JournalRecordMsg& r) {
    if (auto applied = replica.apply_wire(encode(r)); !applied.ok()) {
      ADD_FAILURE() << "seq " << r.seq << ": " << applied.error().message;
    }
  });
}

/// Collects every record the primary journals from now on.
void record_stream(SRM& primary, std::vector<JournalRecordMsg>& out) {
  primary.journal()->add_sink([&out](const JournalRecordMsg& r) { out.push_back(r); });
}

/// The offer vouching for `state` at the primary's current journal seq.
SnapshotOfferMsg offer_for(const SRM& primary, const SRM::ManagerState& state,
                           std::uint32_t epoch) {
  SnapshotOfferMsg offer;
  offer.manager_epoch = epoch;
  offer.upto_seq = primary.journal()->last_seq();
  offer.digest = state.digest();
  for (const auto& shard : state.shards) offer.lease_count += shard.leases.size();
  return offer;
}

/// Asserts that a replica streamed from genesis has applied every record
/// and holds the primary's canonical state and digest.
void expect_replay_equivalent(const SRM& primary, const StandbyReplica& replica) {
  EXPECT_EQ(replica.applied_seq(), primary.journal()->last_seq());
  const auto want = primary.export_state();
  const auto got = replica.export_state();
  EXPECT_TRUE(want == got);
  EXPECT_EQ(want.digest(), got.digest());
}

// --------------------------------------------------------------------------
// Journal mechanics
// --------------------------------------------------------------------------

TEST(Journal, AppendAssignsSeqAndChainsChecksums) {
  Journal j;
  JournalRecordMsg a;
  a.op = static_cast<std::uint8_t>(journal::Op::Grant);
  a.lease_id = 7;
  const auto a_out = j.append(a);
  JournalRecordMsg b;
  b.op = static_cast<std::uint8_t>(journal::Op::Release);
  b.lease_id = 7;
  const auto b_out = j.append(b);

  EXPECT_EQ(a_out.seq, 1u);
  EXPECT_EQ(b_out.seq, 2u);
  EXPECT_EQ(a_out.checksum, journal::chain_checksum(a_out, 0));
  EXPECT_EQ(b_out.checksum, journal::chain_checksum(b_out, a_out.checksum));
  EXPECT_EQ(j.last_seq(), 2u);
  EXPECT_EQ(j.last_checksum(), b_out.checksum);
}

TEST(Journal, SinksSeeEveryRecordInOrder) {
  Journal j;
  std::vector<std::uint64_t> seen;
  j.add_sink([&](const JournalRecordMsg& r) { seen.push_back(r.seq); });
  for (int i = 0; i < 5; ++i) {
    JournalRecordMsg r;
    r.op = static_cast<std::uint8_t>(journal::Op::Renew);
    j.append(r);
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

// --------------------------------------------------------------------------
// Corruption detection
// --------------------------------------------------------------------------

// One bit flipped anywhere in one of 8 streamed wire frames, then a 9th
// genuine frame. Most flips fail at the flipped frame (decode, gap or
// checksum chain); a flip that lowers the seq passes as a duplicate and
// surfaces as a gap at the next frame. Either way the replica refuses
// the stream before it applies anything the primary did not journal.
TEST(JournalCorruption, BitFlipsAreDetected) {
  const Config config = journaled_config(1);
  SRM primary(config);
  std::vector<JournalRecordMsg> records;
  record_stream(primary, records);
  primary.add_executor(entry(8));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(primary.grant(request(1), 1, 1000, 0).has_value());
  ASSERT_EQ(records.size(), 9u);

  Rng rng(0xC0FFEEu);
  for (int t = 0; t < 200; ++t) {
    std::vector<Bytes> frames;
    for (const auto& r : records) frames.push_back(encode(r));
    const auto k = rng.uniform_int(0, 7);
    const auto at = rng.uniform_int(0, frames[k].size() - 1);
    frames[k][at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));

    StandbyReplica replica(config);
    std::vector<bool> failed;
    for (const auto& frame : frames) failed.push_back(!replica.apply_wire(frame).ok());
    EXPECT_TRUE(failed[k] || failed[k + 1])
        << "trial " << t << ": flip of bit at byte " << at << " of frame " << k
        << " went undetected";
  }
}

TEST(JournalCorruption, ReplicaRejectsSeqGapsAndChainBreaks) {
  Journal j;
  std::vector<JournalRecordMsg> records;
  for (int i = 0; i < 4; ++i) {
    JournalRecordMsg r;
    r.op = static_cast<std::uint8_t>(journal::Op::Renew);
    r.lease_id = 99;  // no such lease: apply() would fail, but the
                      // sequencing checks fire first on the bad records
    records.push_back(j.append(r));
  }
  const Config config = journaled_config(1);

  // Gap: skipping record 1 means record 2 arrives at applied_seq 0.
  StandbyReplica gap(config);
  auto gapped = gap.apply(records[1]);
  ASSERT_FALSE(gapped.ok());
  EXPECT_EQ(gapped.error().code, 53);

  // Chain break: record 1 with a tampered payload fails the checksum.
  StandbyReplica chain(config);
  JournalRecordMsg tampered = records[0];
  tampered.lease_id = 100;
  auto broken = chain.apply(tampered);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.error().code, 54);

  // Duplicate delivery of an applied seq is benign (at-least-once sink).
  StandbyReplica dup(config);
  JournalRecordMsg grant;
  grant.op = static_cast<std::uint8_t>(journal::Op::AddExecutor);
  grant.workers = 4;
  grant.memory = 64ull << 30;
  Journal j2;
  const auto rec = j2.append(grant);
  ASSERT_TRUE(dup.apply(rec).ok());
  ASSERT_TRUE(dup.apply(rec).ok());  // replayed duplicate: no-op
  EXPECT_EQ(dup.applied_seq(), 1u);
}

TEST(JournalCorruption, SnapshotDigestMismatchIsRejected) {
  const Config config = journaled_config(2);
  SRM primary(config);
  primary.add_executor(entry(8));
  primary.add_executor(entry(8));
  ASSERT_TRUE(primary.grant(request(2), 1, 1000, 0).has_value());

  auto state = primary.export_state();
  const SnapshotOfferMsg offer = offer_for(primary, state, /*epoch=*/2);

  // Tamper with the state after the digest was taken: a torn snapshot.
  auto torn = state;
  torn.shards[0].next_lease += 1;
  StandbyReplica replica(config);
  auto installed = replica.install_snapshot(torn, offer, 0);
  ASSERT_FALSE(installed.ok());
  EXPECT_EQ(installed.error().code, 50);

  // The intact snapshot installs and reports the offered epoch.
  auto ok = replica.install_snapshot(state, offer, 0);
  ASSERT_TRUE(ok.ok()) << ok.error().message;
  EXPECT_EQ(replica.snapshot_epoch(), 2u);
  EXPECT_TRUE(replica.export_state() == state);
}

// --------------------------------------------------------------------------
// Replay equivalence: seeded op-sequence shapes
// --------------------------------------------------------------------------

// Shape 1: grant/release-heavy steady state — the common-case traffic of
// a loaded manager, across shards and tenants, with occasional renews.
TEST(ReplayEquivalence, GrantReleaseHeavyShape) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    const Config config = journaled_config(4, seed);
    SRM primary(config);
    StandbyReplica standby(config);
    stream_to(primary, standby);
    OpDriver drv(primary, seed);
    for (int i = 0; i < 12; ++i) drv.executors.push_back(primary.add_executor(entry(8)));
    for (int i = 0; i < 400; ++i) {
      const double p = drv.rng.uniform();
      if (p < 0.55) {
        drv.grant(/*max_workers=*/3, /*timeout=*/10'000'000);
      } else if (p < 0.85) {
        drv.release();
      } else {
        drv.renew(/*extend=*/20'000'000);
      }
      drv.now += 1000;
    }
    ASSERT_GT(primary.grants(), 0u);
    expect_replay_equivalent(primary, standby);
  }
}

// Shape 2: churn with expiry — short leases, periodic heartbeat-style
// sweeps (both the indexed heap drain and the reference full scan) and
// renewals racing the deadline.
TEST(ReplayEquivalence, ExpiryChurnShape) {
  for (const std::uint64_t seed : {3u, 11u, 2026u}) {
    const Config config = journaled_config(2, seed, SchedulingPolicy::PowerOfTwoChoices);
    SRM primary(config);
    StandbyReplica standby(config);
    stream_to(primary, standby);
    OpDriver drv(primary, seed);
    for (int i = 0; i < 6; ++i) drv.executors.push_back(primary.add_executor(entry(6)));
    for (int i = 0; i < 300; ++i) {
      const double p = drv.rng.uniform();
      if (p < 0.5) {
        drv.grant(/*max_workers=*/2, /*timeout=*/5'000);  // expires in 5 us
      } else if (p < 0.7) {
        drv.renew(/*extend=*/8'000);
      } else if (p < 0.8) {
        drv.release();
      }
      drv.now += 1'000;
      if (i % 16 == 0) primary.sweep_expired(drv.now);
      if (i % 64 == 32) primary.sweep_expired_scan(drv.now);  // reference path
    }
    primary.sweep_expired(drv.now + 100'000);
    expect_replay_equivalent(primary, standby);
  }
}

// Shape 3: operator-driven reshaping — quota evictions, drains, shard
// rebalances, executor deaths and late registrations interleaved with
// live traffic. Exercises Migrate, SetDraining and MarkDead; it never
// renews, sweeps or re-attaches (see EveryJournalOpReplays).
TEST(ReplayEquivalence, RebalanceDrainEvictShape) {
  for (const std::uint64_t seed : {5u, 21u, 4242u}) {
    const Config config = journaled_config(3, seed);
    SRM primary(config);
    StandbyReplica standby(config);
    stream_to(primary, standby);
    OpDriver drv(primary, seed);
    for (int i = 0; i < 9; ++i) {
      drv.executors.push_back(
          primary.add_executor(entry(8, 64ull << 30, static_cast<std::uint32_t>(i % 3))));
    }
    for (int i = 0; i < 250; ++i) {
      const double p = drv.rng.uniform();
      if (p < 0.45) {
        drv.grant(/*max_workers=*/4, /*timeout=*/50'000'000);
      } else if (p < 0.6) {
        drv.release();
      } else if (p < 0.7) {
        drv.evict();
      } else if (p < 0.78) {
        primary.reclaim_quota(/*requesting_client=*/7, /*quota_workers=*/6,
                              /*workers_needed=*/4);
      } else if (p < 0.86) {
        primary.drain_executor(drv.pick(drv.executors));
      } else if (p < 0.92) {
        primary.rebalance(/*max_skew=*/1.2, /*max_moves=*/2, drv.now);
      } else if (p < 0.96) {
        primary.mark_dead(drv.pick(drv.executors));
      } else {
        drv.executors.push_back(primary.add_executor(
            entry(static_cast<std::uint32_t>(drv.rng.uniform_int(2, 8)))));
      }
      drv.now += 10'000;
    }
    expect_replay_equivalent(primary, standby);
  }
}

// Shape 4: every journal op in one history. LocalityFirst homes each
// rack on its own shard, so drains and late registrations skew the
// shards and rebalance migrates; short leases expire under the sweep;
// unsatisfiable all-or-nothing batches roll back through release; live
// executors re-attach in place under rising epochs.
TEST(ReplayEquivalence, EveryJournalOpReplays) {
  for (const std::uint64_t seed : {8u, 31u, 777u}) {
    const Config config = journaled_config(3, seed, SchedulingPolicy::LocalityFirst);
    SRM primary(config);
    StandbyReplica standby(config);
    stream_to(primary, standby);
    std::set<journal::Op> seen;
    primary.journal()->add_sink(
        [&seen](const JournalRecordMsg& r) { seen.insert(static_cast<journal::Op>(r.op)); });
    OpDriver drv(primary, seed);
    auto rack = [&] { return static_cast<std::uint32_t>(drv.rng.uniform_int(0, 2)); };
    auto client = [&] { return static_cast<std::uint32_t>(drv.rng.uniform_int(1, 6)); };
    for (int i = 0; i < 9; ++i) {
      drv.executors.push_back(
          primary.add_executor(entry(8, 64ull << 30, static_cast<std::uint32_t>(i % 3))));
    }
    std::uint64_t epoch = 1;
    for (int i = 0; i < 300; ++i) {
      const double p = drv.rng.uniform();
      if (p < 0.30) {
        ScheduleRequest req = request(static_cast<std::uint32_t>(drv.rng.uniform_int(1, 4)));
        req.client_locality = rack();
        const Duration timeout = drv.rng.bernoulli(0.3) ? 5'000 : 50'000'000;
        auto g = primary.grant(req, client(), timeout, drv.now,
                               primary.preferred_shard_for(req.client_locality));
        if (g) drv.leases.push_back(g->lease_id);
      } else if (p < 0.40) {
        drv.release();
      } else if (p < 0.48) {
        drv.renew(/*extend=*/20'000'000);
      } else if (p < 0.54) {
        drv.evict();
      } else if (p < 0.60) {
        const auto batch = primary.grant_batch(
            request(static_cast<std::uint32_t>(drv.rng.uniform_int(4, 40))), client(),
            50'000'000, drv.now, /*all_or_nothing=*/true);
        for (const auto& g : batch.grants) drv.leases.push_back(g.lease_id);
      } else if (p < 0.66) {
        primary.drain_executor(drv.pick(drv.executors));
      } else if (p < 0.74) {
        primary.rebalance(/*max_skew=*/1.2, /*max_moves=*/2, drv.now);
      } else if (p < 0.78) {
        primary.mark_dead(drv.pick(drv.executors));
      } else if (p < 0.86) {
        primary.reattach_executor(drv.pick(drv.executors), nullptr, ++epoch, drv.now);
      } else {
        drv.executors.push_back(primary.add_executor(
            entry(static_cast<std::uint32_t>(drv.rng.uniform_int(2, 8)), 64ull << 30, rack())));
      }
      drv.now += 10'000;
      if (i % 8 == 0) primary.sweep_expired(drv.now);
    }

    for (auto op = static_cast<std::uint8_t>(journal::Op::AddExecutor);
         op <= static_cast<std::uint8_t>(journal::Op::Reattach); ++op) {
      EXPECT_TRUE(seen.contains(static_cast<journal::Op>(op)))
          << "seed " << seed << " never journaled "
          << journal::to_string(static_cast<journal::Op>(op));
    }
    expect_replay_equivalent(primary, standby);
  }
}

// --------------------------------------------------------------------------
// Wire-framed replication stream
// --------------------------------------------------------------------------

// The live replication path ships each record as a wire frame the moment
// it is appended; a replica fed through encode/decode must converge to
// the same state as one fed the in-memory records.
TEST(ReplayEquivalence, WireFramedSinkStreamsLosslessly) {
  const std::uint64_t seed = 99;
  const Config config = journaled_config(2, seed);
  SRM primary(config);
  StandbyReplica wire(config);
  stream_to(primary, wire);
  StandbyReplica direct(config);
  primary.journal()->add_sink(
      [&direct](const JournalRecordMsg& r) { EXPECT_TRUE(direct.apply(r).ok()); });

  OpDriver drv(primary, seed);
  for (int i = 0; i < 8; ++i) drv.executors.push_back(primary.add_executor(entry(8)));
  for (int i = 0; i < 200; ++i) {
    const double p = drv.rng.uniform();
    if (p < 0.5) {
      drv.grant(3, 10'000'000);
    } else if (p < 0.75) {
      drv.release();
    } else if (p < 0.9) {
      drv.renew(20'000'000);
    } else {
      drv.evict();
    }
    drv.now += 2'000;
    if (i % 32 == 0) primary.sweep_expired(drv.now);
  }

  expect_replay_equivalent(primary, wire);
  expect_replay_equivalent(primary, direct);
}

// --------------------------------------------------------------------------
// Snapshot + suffix equals the stream from genesis
// --------------------------------------------------------------------------

// A standby that attaches mid-history — a snapshot install, then the live
// stream on top of it, ResourceManager::attach_standby's path — ends
// equal to a standby streamed from genesis and to the primary.
TEST(ReplayEquivalence, SnapshotPlusSuffixEqualsFullReplay) {
  const std::uint64_t seed = 17;
  const Config config = journaled_config(3, seed);
  SRM primary(config);
  StandbyReplica full(config);
  stream_to(primary, full);
  OpDriver drv(primary, seed);
  for (int i = 0; i < 9; ++i) drv.executors.push_back(primary.add_executor(entry(8)));

  auto run_ops = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const double p = drv.rng.uniform();
      if (p < 0.5) {
        drv.grant(3, 10'000'000);
      } else if (p < 0.75) {
        drv.release();
      } else if (p < 0.9) {
        drv.renew(20'000'000);
      } else {
        drv.evict();
      }
      drv.now += 1'500;
    }
  };

  run_ops(150);

  // Mid-history snapshot, exactly what attach_standby offers.
  const auto snapshot = primary.export_state();
  const SnapshotOfferMsg offer = offer_for(primary, snapshot, /*epoch=*/1);
  StandbyReplica warm(config);
  auto installed = warm.install_snapshot(snapshot, offer, drv.now);
  ASSERT_TRUE(installed.ok()) << installed.error().message;
  EXPECT_EQ(warm.applied_seq(), offer.upto_seq);
  stream_to(primary, warm);

  run_ops(150);
  primary.sweep_expired(drv.now + 100'000'000);
  ASSERT_GT(primary.journal()->last_seq(), offer.upto_seq);

  expect_replay_equivalent(primary, full);
  expect_replay_equivalent(primary, warm);
  EXPECT_TRUE(full.export_state() == warm.export_state());
}

// A standby that receives every streamed record a second time (a
// retransmission after a reconnect) converges once and ignores the
// duplicates.
TEST(ReplayEquivalence, DuplicateSuffixReplayIsIdempotent) {
  const Config config = journaled_config(2, 23);
  SRM primary(config);
  StandbyReplica replica(config);
  stream_to(primary, replica);
  std::vector<JournalRecordMsg> records;
  record_stream(primary, records);
  OpDriver drv(primary, 23);
  for (int i = 0; i < 4; ++i) drv.executors.push_back(primary.add_executor(entry(4)));
  for (int i = 0; i < 60; ++i) {
    if (drv.rng.uniform() < 0.7) {
      drv.grant(2, 5'000'000);
    } else {
      drv.release();
    }
    drv.now += 1'000;
  }

  for (const auto& r : records) {
    auto again = replica.apply_wire(encode(r));  // retransmission: benign
    EXPECT_TRUE(again.ok()) << "seq " << r.seq << ": " << again.error().message;
  }
  expect_replay_equivalent(primary, replica);
}

}  // namespace
}  // namespace rfs::rfaas
