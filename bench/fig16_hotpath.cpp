// Figure 16 (hot-path overhaul): indexed lease tables vs. full scans,
// and the zero-allocation wire fast path.
//
// The paper's control plane only beats serverless platforms if its
// per-operation overheads stay microsecond-scale *independent of fleet
// state*. This bench pits the indexed hot paths against the scan-based
// reference implementations they replaced, on identical manager state —
// the `*_scan` methods preserve the pre-index algorithms exactly (the
// equivalence tests in tests/sharded_manager_test.cpp pin both to the
// same outcomes), so the comparison is apples to apples:
//
//  (a) Expiry sweep — N live leases across 8 shards, a fixed batch of
//      expired ones per round. Indexed: pop the expiry heap, O(expired).
//      Scan: walk all N. Gate: >= 10x at the full live-lease count.
//  (b) reclaim_quota — N live leases over 64 tenants, one tenant over
//      quota. Indexed: O(tenants) counters + that tenant's candidates.
//      Scan: snapshot all N per denied request (the ROADMAP item this
//      PR closes). Gate: p99 >= 10x at the full count.
//  (c) Grant scaling — grant+release latency at 1k vs. 100k live
//      leases. The indexes add O(log live) heap pushes; the gate bounds
//      the growth at 3x so grant throughput cannot regress with fleet
//      occupancy (the "no worse than PR 4" guard).
//  (d) Wire fast path — encode_into/span-decode of the hot messages
//      (LeaseRequest/LeaseGrant/ExtendLease/ExtendOk) plus the
//      data-plane invoke header, counted by a global allocation hook.
//      Gate: exactly 0 heap allocations per round trip.
//
// Emits BENCH_fig16_hotpath.json (columns metric/live-leases/indexed/
// baseline/ratio), gated in CI's bench-smoke job.
#include <chrono>

#include "bench_common.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;
using rfaas::ShardedResourceManager;

constexpr Duration kFar = 1ull << 60;  // "never expires" within the run

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

rfaas::ExecutorEntry big_host(std::uint32_t workers) {
  rfaas::ExecutorEntry e;
  e.info.memory_bytes = 64ull << 30;
  e.total_workers = workers;
  e.free_workers = workers;
  e.free_memory = 64ull << 30;
  e.alive = true;
  return e;
}

rfaas::ScheduleRequest one_worker() {
  rfaas::ScheduleRequest r;
  r.workers = 1;
  r.memory_per_worker = 1 << 20;
  return r;
}

std::unique_ptr<ShardedResourceManager> make_core(std::uint32_t capacity_workers,
                                                  unsigned shards = 8) {
  rfaas::Config config;
  config.manager_shards = shards;
  auto m = std::make_unique<ShardedResourceManager>(config);
  const std::uint32_t per_host = 1024;
  const std::uint32_t hosts = capacity_workers / per_host + shards;
  for (std::uint32_t i = 0; i < hosts; ++i) (void)m->add_executor(big_host(per_host));
  return m;
}

// --------------------------------------------------------------------------
// (a) Expiry sweep: O(expired) heap drain vs O(live) table walk
// --------------------------------------------------------------------------

struct SweepResult {
  std::size_t live = 0;
  double indexed_us = 0;  // mean per sweep round
  double scan_us = 0;
};

SweepResult run_sweep(std::size_t live, unsigned rounds, unsigned expired_per_round) {
  SweepResult result;
  result.live = live;

  auto drive = [&](ShardedResourceManager& m, auto sweep) {
    // Live leases never expire; round r's batch expires at (r+1)*1000.
    for (std::size_t i = 0; i < live; ++i) {
      (void)m.grant(one_worker(), /*client=*/1 + i % 16, kFar, /*now=*/0);
    }
    for (unsigned r = 0; r < rounds; ++r) {
      for (unsigned i = 0; i < expired_per_round; ++i) {
        (void)m.grant(one_worker(), /*client=*/1, /*timeout=*/(r + 1) * 1000, /*now=*/0);
      }
    }
    double total = 0;
    for (unsigned r = 0; r < rounds; ++r) {
      const double t0 = now_us();
      const std::size_t reclaimed = sweep(m, (r + 1) * 1000);
      total += now_us() - t0;
      if (reclaimed != expired_per_round) {
        std::fprintf(stderr, "sweep reclaimed %zu, expected %u\n", reclaimed,
                     expired_per_round);
        std::exit(1);
      }
    }
    return total / rounds;
  };

  const std::uint32_t capacity =
      static_cast<std::uint32_t>(live + rounds * expired_per_round);
  auto indexed = make_core(capacity);
  auto scanned = make_core(capacity);
  result.indexed_us =
      drive(*indexed, [](ShardedResourceManager& m, Time t) { return m.sweep_expired(t); });
  result.scan_us = drive(
      *scanned, [](ShardedResourceManager& m, Time t) { return m.sweep_expired_scan(t); });
  return result;
}

// --------------------------------------------------------------------------
// (b) reclaim_quota: O(tenants) counters vs O(total leases) snapshot
// --------------------------------------------------------------------------

struct ReclaimResult {
  std::size_t live = 0;
  double indexed_p99_us = 0;
  double scan_p99_us = 0;
};

ReclaimResult run_reclaim(std::size_t live, unsigned calls) {
  ReclaimResult result;
  constexpr unsigned kTenants = 64;
  live = live / kTenants * kTenants;  // equal shares: only the boosted tenant exceeds
  result.live = live;

  auto drive = [&](ShardedResourceManager& m, auto reclaim) {
    // 64 tenants share the table evenly; tenant 63 runs `calls` leases
    // over its quota, so every denied-request reclaim evicts exactly one
    // of its oldest leases and it stays over quota for the next call.
    for (std::size_t i = 0; i < live; ++i) {
      (void)m.grant(one_worker(), /*client=*/2 + i % kTenants, kFar, /*now=*/0);
    }
    const std::uint32_t base_held =
        static_cast<std::uint32_t>(m.tenant_held_workers(2 + kTenants - 1));
    for (unsigned i = 0; i < calls; ++i) {
      (void)m.grant(one_worker(), /*client=*/2 + kTenants - 1, kFar, /*now=*/0);
    }
    const std::uint32_t quota = base_held;  // everyone else is exactly at quota

    std::vector<double> samples;
    samples.reserve(calls);
    for (unsigned i = 0; i < calls; ++i) {
      const double t0 = now_us();
      auto evicted = reclaim(m, quota);
      const double elapsed = now_us() - t0;
      if (i > 0) samples.push_back(elapsed);  // first call warms caches
      if (evicted.size() != 1) {
        std::fprintf(stderr, "reclaim evicted %zu leases, expected 1\n", evicted.size());
        std::exit(1);
      }
    }
    return Summary(samples).percentile(99);
  };

  const std::uint32_t capacity = static_cast<std::uint32_t>(live + calls);
  auto indexed = make_core(capacity);
  auto scanned = make_core(capacity);
  result.indexed_p99_us = drive(*indexed, [](ShardedResourceManager& m, std::uint32_t q) {
    return m.reclaim_quota(/*requesting_client=*/1, q, /*workers_needed=*/1);
  });
  result.scan_p99_us = drive(*scanned, [](ShardedResourceManager& m, std::uint32_t q) {
    return m.reclaim_quota_scan(/*requesting_client=*/1, q, /*workers_needed=*/1);
  });
  return result;
}

// --------------------------------------------------------------------------
// (c) Grant scaling: per-op latency at 1k vs 100k live leases
// --------------------------------------------------------------------------

struct GrantResult {
  double us_small = 0;  // per grant+release at the small live count
  double us_large = 0;  // ... at the full live count
  double grants_per_s_large = 0;
  std::size_t small = 0;
  std::size_t large = 0;
};

double grant_us_per_op(std::size_t live, unsigned ops) {
  auto m = make_core(static_cast<std::uint32_t>(live) + 2048);
  for (std::size_t i = 0; i < live; ++i) {
    (void)m->grant(one_worker(), /*client=*/1 + i % 16, kFar, /*now=*/0);
  }
  // Best of three repetitions: the gate compares *scaling*, and a single
  // OS descheduling blip inside one pass must not fake a regression.
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_us();
    for (unsigned i = 0; i < ops; ++i) {
      auto g = m->grant(one_worker(), /*client=*/1, kFar, /*now=*/0);
      if (!g || !m->release(g->lease_id)) {
        std::fprintf(stderr, "grant/release failed at op %u\n", i);
        std::exit(1);
      }
    }
    const double per_op = (now_us() - t0) / ops;
    if (rep == 0 || per_op < best) best = per_op;
  }
  return best;
}

// --------------------------------------------------------------------------
// (d) Wire fast path: zero allocations per hot round trip
// --------------------------------------------------------------------------

struct WireResult {
  std::uint64_t fast_allocs = 0;   // across the whole fast-path loop
  double bytes_allocs_per_op = 0;  // the Bytes-API baseline
  double fast_ns_per_op = 0;
};

WireResult run_wire(unsigned iterations) {
  WireResult result;
  rfaas::LeaseRequestMsg request{9, 16, 256ull << 20, 60_s};
  rfaas::LeaseGrantMsg grant;
  grant.lease_id = (5ull << 48) | 12345;
  grant.device = 3;
  grant.alloc_port = 7000;
  grant.rdma_port = 7001;
  grant.workers = 4;
  grant.expires_at = 90_s;
  rfaas::ExtendLeaseMsg extend{grant.lease_id, 30_s};
  rfaas::ExtendOkMsg extend_ok{grant.lease_id, 120_s};

  // Checksum defeats dead-code elimination of the decode results.
  std::uint64_t checksum = 0;
  std::uint8_t buf[64];
  std::uint8_t header_buf[rfaas::InvocationHeader::kSize];

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const double t0 = now_us();
  for (unsigned i = 0; i < iterations; ++i) {
    std::size_t n = rfaas::encode_into(request, buf, sizeof buf);
    auto req = rfaas::decode_lease_request(std::span<const std::uint8_t>(buf, n));
    checksum += req.ok() ? req.value().workers : 0;

    n = rfaas::encode_into(grant, buf, sizeof buf);
    auto g = rfaas::decode_lease_grant(std::span<const std::uint8_t>(buf, n));
    checksum += g.ok() ? g.value().lease_id : 0;

    n = rfaas::encode_into(extend, buf, sizeof buf);
    auto ext = rfaas::decode_extend_lease(std::span<const std::uint8_t>(buf, n));
    checksum += ext.ok() ? ext.value().extension : 0;

    n = rfaas::encode_into(extend_ok, buf, sizeof buf);
    auto ok = rfaas::decode_extend_ok(std::span<const std::uint8_t>(buf, n));
    checksum += ok.ok() ? ok.value().expires_at : 0;

    // Data-plane invoke: 32-byte header + packed immediate.
    rfaas::InvocationHeader header;
    header.result_addr = 0xdeadbeef00ull + i;
    header.result_rkey = 77;
    header.pack(header_buf);
    const auto unpacked = rfaas::InvocationHeader::unpack(header_buf);
    checksum += unpacked.result_addr;
    checksum += rfaas::Imm::invocation(3, i & 0x7FFFF);
  }
  const double fast_us = now_us() - t0;
  result.fast_allocs = g_allocations.load(std::memory_order_relaxed) - before;
  result.fast_ns_per_op = fast_us * 1e3 / iterations;

  const std::uint64_t bytes_before = g_allocations.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < iterations; ++i) {
    checksum += rfaas::encode(request).size();
    checksum += rfaas::encode(grant).size();
    checksum += rfaas::encode(extend).size();
    checksum += rfaas::encode(extend_ok).size();
  }
  result.bytes_allocs_per_op =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - bytes_before) /
      iterations;

  std::printf("wire checksum %llu (anti-DCE)\n",
              static_cast<unsigned long long>(checksum));
  return result;
}

// --------------------------------------------------------------------------

void run() {
  banner("Figure 16 (hot-path overhaul)",
         "indexed lease tables vs full scans, zero-allocation wire path");

  // The live-lease count is the experiment, not the iteration budget:
  // smoke mode keeps the full 100k-lease table (cheap to build — grants
  // are sub-microsecond) and only shrinks repetition counts.
  const std::size_t live_large = 100'000;
  const std::size_t live_small = 1'000;
  const unsigned sweep_rounds = smoke_mode() ? 8 : 16;
  const unsigned expired_per_round = 512;
  // Enough samples that the p99 is a real percentile, not the worst of
  // a handful — one OS descheduling blip must not swing the CI gate.
  const unsigned reclaim_calls = scaled_reps(100, 2);
  const unsigned grant_ops = scaled_reps(5000, 5);
  const unsigned wire_iters = scaled_reps(200'000, 10);

  std::printf("part (a): expiry sweep at %zu and %zu live leases...\n", live_small,
              live_large);
  auto sweep_small = run_sweep(live_small, sweep_rounds, expired_per_round);
  auto sweep_large = run_sweep(live_large, sweep_rounds, expired_per_round);

  std::printf("part (b): reclaim_quota over 64 tenants at %zu live leases...\n",
              live_large);
  auto reclaim_small = run_reclaim(live_small, reclaim_calls);
  auto reclaim_large = run_reclaim(live_large, reclaim_calls);

  std::printf("part (c): grant+release scaling %zu -> %zu live leases...\n", live_small,
              live_large);
  GrantResult grants;
  grants.small = live_small;
  grants.large = live_large;
  grants.us_small = grant_us_per_op(live_small, grant_ops);
  grants.us_large = grant_us_per_op(live_large, grant_ops);
  grants.grants_per_s_large = 1e6 / std::max(1e-9, grants.us_large);

  std::printf("part (d): wire fast path, %u round trips...\n", wire_iters);
  auto wire = run_wire(wire_iters);

  Table table({"metric", "live-leases", "indexed", "baseline", "ratio"});
  auto ratio = [](double baseline, double indexed) {
    return baseline / std::max(1e-9, indexed);
  };
  table.row({"sweep-us", std::to_string(sweep_small.live),
             Table::num(sweep_small.indexed_us, 3), Table::num(sweep_small.scan_us, 3),
             Table::num(ratio(sweep_small.scan_us, sweep_small.indexed_us), 2)});
  table.row({"sweep-us", std::to_string(sweep_large.live),
             Table::num(sweep_large.indexed_us, 3), Table::num(sweep_large.scan_us, 3),
             Table::num(ratio(sweep_large.scan_us, sweep_large.indexed_us), 2)});
  table.row({"reclaim-p99-us", std::to_string(reclaim_small.live),
             Table::num(reclaim_small.indexed_p99_us, 3),
             Table::num(reclaim_small.scan_p99_us, 3),
             Table::num(ratio(reclaim_small.scan_p99_us, reclaim_small.indexed_p99_us), 2)});
  table.row({"reclaim-p99-us", std::to_string(reclaim_large.live),
             Table::num(reclaim_large.indexed_p99_us, 3),
             Table::num(reclaim_large.scan_p99_us, 3),
             Table::num(ratio(reclaim_large.scan_p99_us, reclaim_large.indexed_p99_us), 2)});
  // Grant scaling: "indexed" is the cost at the large count, "baseline"
  // at the small one; the ratio must stay near 1 (grants independent of
  // live-lease count). Gated <= 3 in CI.
  table.row({"grant-us-per-op", std::to_string(grants.large),
             Table::num(grants.us_large, 3), Table::num(grants.us_small, 3),
             Table::num(grants.us_large / std::max(1e-9, grants.us_small), 2)});
  // Wire path: "indexed" is the RAW fast-path allocation count over the
  // whole loop (the gate demands exactly 0 — a per-op average would
  // round a handful of allocations down to 0.0000), "live-leases" the
  // round-trip count, "baseline" the Bytes-API allocations per op.
  table.row({"wire-fast-path-allocs", std::to_string(wire_iters),
             std::to_string(wire.fast_allocs), Table::num(wire.bytes_allocs_per_op, 2),
             Table::num(wire.bytes_allocs_per_op, 2)});
  emit(table, "fig16_hotpath");

  std::printf("sweep at %zu live: indexed %.3f us vs scan %.3f us (%.1fx, %s)\n",
              sweep_large.live, sweep_large.indexed_us, sweep_large.scan_us,
              ratio(sweep_large.scan_us, sweep_large.indexed_us),
              ratio(sweep_large.scan_us, sweep_large.indexed_us) >= 10 ? "OK"
                                                                       : "REGRESSION");
  std::printf("reclaim_quota p99 at %zu live: indexed %.3f us vs scan %.3f us (%.1fx, %s)\n",
              reclaim_large.live, reclaim_large.indexed_p99_us, reclaim_large.scan_p99_us,
              ratio(reclaim_large.scan_p99_us, reclaim_large.indexed_p99_us),
              ratio(reclaim_large.scan_p99_us, reclaim_large.indexed_p99_us) >= 10
                  ? "OK"
                  : "REGRESSION");
  std::printf("grant+release: %.3f us/op at %zu live vs %.3f at %zu (%.0f grants/s, %s)\n",
              grants.us_large, grants.large, grants.us_small, grants.small,
              grants.grants_per_s_large,
              grants.us_large <= 3 * grants.us_small ? "scale-independent: OK"
                                                     : "REGRESSION");
  std::printf("wire fast path: %llu allocations over %u round trips, %.1f ns/op "
              "(Bytes API: %.1f allocs/op) — %s\n",
              static_cast<unsigned long long>(wire.fast_allocs), wire_iters,
              wire.fast_ns_per_op, wire.bytes_allocs_per_op,
              wire.fast_allocs == 0 ? "zero-allocation: OK" : "REGRESSION");
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
