// Figure 14 (client-side lease lifecycle): batched cross-shard grants,
// lease auto-renewal, and locality-first routing.
//
// The paper's decentralized allocation model only pays off when clients
// can hold, renew and aggregate leases without round-tripping through a
// serialized manager per lease. This bench measures the three client-side
// mechanisms this repo adds on top of the sharded manager:
//
//  (a) Batched acquisition — one BatchAllocate round trip aggregating a
//      wide allocation across executors and shards vs. the serial loop of
//      one LeaseRequest per partial grant. Reported: p50/p99 acquisition
//      latency (request start -> all leases held) and round trips per
//      acquisition, for 8+-lease requests. Gate: batched p99 <= serial
//      p99.
//
//  (b) Renewal overhead — the churn workload (holds of 3-6x the lease
//      TTL) kept alive purely by the LeaseSet's ExtendLease renewals.
//      Gates: renewals > 0, zero spurious expiries and zero leaked leases
//      after the drain.
//
//  (c) Locality hit rate — LocalityFirst (rack-affine shards, rack-local
//      placement first) vs. PowerOfTwoChoices on a racked fleet.
#include <optional>

#include "bench_common.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

constexpr std::uint32_t kWorkersPerAcq = 32;   // 8+ leases on 4-core executors
constexpr std::uint64_t kMemoryPerWorker = 256ull << 20;
constexpr unsigned kClients = 6;

// --------------------------------------------------------------------------
// Part (a): batched vs. serial multi-lease acquisition
// --------------------------------------------------------------------------

struct AcqStats {
  std::vector<double> latency;  // ns per completed acquisition
  std::uint64_t round_trips = 0;
  std::uint64_t leases = 0;
  std::uint64_t acquisitions = 0;
};

rfaas::ReleaseResourcesMsg release_for(const rfaas::LeaseGrantMsg& grant) {
  rfaas::ReleaseResourcesMsg rel;
  rel.lease_id = grant.lease_id;
  rel.workers = grant.workers;
  rel.memory_bytes = kMemoryPerWorker * grant.workers;
  return rel;
}

/// Next reply on a raw control stream, skipping the ReleaseOk acks of
/// earlier releases (the client sends one request at a time, so the
/// first other message answers it).
sim::Task<std::optional<Bytes>> next_reply(const std::shared_ptr<net::TcpStream>& stream) {
  while (true) {
    auto raw = co_await stream->recv();
    if (!raw.has_value()) co_return raw;
    auto type = rfaas::peek_type(*raw);
    if (!type.ok() || type.value() != rfaas::MsgType::ReleaseOk) co_return raw;
  }
}

/// One client acquiring `target` bundles of kWorkersPerAcq workers each,
/// serially (one LeaseRequest per partial grant) or batched (one
/// BatchAllocate per remainder), holding briefly, then releasing. Every
/// message carries its own request id: the manager refuses id 0.
sim::Task<void> acquisition_client(cluster::Harness* h, std::size_t client, bool batched,
                                   unsigned target, Time deadline,
                                   std::shared_ptr<AcqStats> out) {
  auto conn = co_await h->tcp().connect(h->client_device(client).id(),
                                        h->rm().device().id(), h->rm().port());
  if (!conn.ok()) co_return;
  auto stream = conn.value();
  Rng rng(991 + client);
  std::uint64_t request_id = 0;

  for (unsigned a = 0; a < target && h->engine().now() < deadline; ++a) {
    std::vector<rfaas::LeaseGrantMsg> grants;
    std::uint32_t remaining = kWorkersPerAcq;
    const Time t0 = h->engine().now();
    while (remaining > 0 && h->engine().now() < deadline) {
      if (batched) {
        rfaas::BatchAllocateMsg req;
        req.client_id = static_cast<std::uint32_t>(client + 1);
        req.workers = remaining;
        req.memory_bytes = kMemoryPerWorker;
        req.timeout = 60_s;
        req.mode = static_cast<std::uint8_t>(rfaas::BatchMode::BestEffort);
        req.request_id = ++request_id;
        stream->send(rfaas::encode(req));
        auto raw = co_await next_reply(stream);
        if (!raw.has_value()) co_return;
        ++out->round_trips;
        auto reply = rfaas::decode_batch_granted(*raw);
        if (!reply.ok() || reply.value().grants.empty()) {
          co_await sim::delay(1_ms);  // transient exhaustion: back off
          continue;
        }
        for (const auto& g : reply.value().grants) {
          remaining -= std::min(remaining, g.workers);
          grants.push_back(g);
        }
      } else {
        rfaas::LeaseRequestMsg req;
        req.client_id = static_cast<std::uint32_t>(client + 1);
        req.workers = remaining;
        req.memory_bytes = kMemoryPerWorker;
        req.timeout = 60_s;
        req.request_id = ++request_id;
        stream->send(rfaas::encode(req));
        auto raw = co_await next_reply(stream);
        if (!raw.has_value()) co_return;
        ++out->round_trips;
        auto grant = rfaas::decode_lease_grant(*raw);
        if (!grant.ok()) {
          co_await sim::delay(1_ms);
          continue;
        }
        remaining -= std::min(remaining, grant.value().workers);
        grants.push_back(grant.value());
      }
    }
    if (remaining > 0) break;  // deadline hit mid-acquisition: discard
    out->latency.push_back(static_cast<double>(h->engine().now() - t0));
    out->leases += grants.size();
    ++out->acquisitions;

    co_await sim::delay(rng.uniform_int(2_ms, 6_ms));  // hold
    for (const auto& g : grants) {
      auto rel = release_for(g);
      rel.request_id = ++request_id;
      stream->send(rfaas::encode(rel));
    }
    co_await sim::delay(rng.uniform_int(1_ms, 4_ms));  // think
  }
  stream->close();
}

cluster::ScenarioSpec lifecycle_fleet() {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/64, /*cores=*/4,
                                             /*memory_bytes=*/16ull << 30,
                                             /*clients=*/kClients);
  spec.racks = 8;
  spec.config.manager_shards = 8;
  spec.config.scheduling = rfaas::SchedulingPolicy::PowerOfTwoChoices;
  // Fleet-scale decision cost: a 64-entry scan per placement. The batch
  // amortizes it per shard; the serial loop pays it per lease.
  spec.config.lease_processing = 500_us;
  return spec;
}

std::shared_ptr<AcqStats> run_acquisitions(bool batched) {
  cluster::Harness harness(lifecycle_fleet());
  harness.start();
  auto stats = std::make_shared<AcqStats>();
  const unsigned per_client = scaled_reps(30, 6);
  const Time deadline = harness.engine().now() + 60_s;
  for (std::size_t c = 0; c < kClients; ++c) {
    harness.spawn(acquisition_client(&harness, c, batched, per_client, deadline, stats));
  }
  harness.run(deadline);
  return stats;
}

// --------------------------------------------------------------------------
// Part (b): renewal-enabled churn workload
// --------------------------------------------------------------------------

struct RenewalResult {
  cluster::UtilizationTrace trace;
  Duration ttl = 0;
  std::size_t leaked_leases = 0;  // manager-side leases left after drain
};

RenewalResult run_renewal_churn() {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/8, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/6);
  spec.config.manager_shards = 2;
  cluster::Harness harness(spec);
  harness.start();

  RenewalResult result;
  result.ttl = 2_s;
  auto workload = cluster::LeaseWorkload::churn(result.ttl, /*seed=*/17);
  workload.workers_min = 1;
  workload.workers_max = 4;
  workload.memory_per_worker = 128ull << 20;
  result.trace =
      harness.run_lease_workload(workload, scaled_horizon(60_s, 6), /*sample_every=*/1_s);
  // Drain: every lease must come back once holds end and renewals stop.
  harness.run_for(12 * result.ttl);
  result.leaked_leases = harness.rm().active_leases();
  return result;
}

// --------------------------------------------------------------------------
// Part (c): locality-first routing vs. power-of-two-choices
// --------------------------------------------------------------------------

struct LocalityResult {
  rfaas::SchedulingPolicy policy;
  cluster::UtilizationTrace trace;
  std::uint64_t grants = 0;
  std::uint64_t local = 0;
};

LocalityResult run_locality(rfaas::SchedulingPolicy policy) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/64, /*cores=*/4,
                                             /*memory_bytes=*/16ull << 30, /*clients=*/8);
  spec.racks = 8;
  spec.config.manager_shards = 8;
  spec.config.scheduling = policy;
  cluster::Harness harness(spec);
  harness.start();

  cluster::LeaseWorkload workload;
  workload.workers_min = 1;
  workload.workers_max = 4;
  workload.memory_per_worker = 128ull << 20;
  workload.hold_min = 50_ms;
  workload.hold_max = 500_ms;
  workload.think_min = 10_ms;
  workload.think_max = 100_ms;
  workload.lease_timeout = 60_s;
  workload.seed = 23;

  LocalityResult result;
  result.policy = policy;
  result.trace =
      harness.run_lease_workload(workload, scaled_horizon(30_s, 6), /*sample_every=*/1_s);
  result.grants = harness.rm().core().grants();
  result.local = harness.rm().core().local_grants();
  return result;
}

// --------------------------------------------------------------------------

void run() {
  banner("Figure 14 (lease lifecycle)",
         "batched cross-shard grants, auto-renewal, locality-first routing");

  std::printf("part (a): %u clients acquiring %u-worker bundles, serial vs batched...\n",
              kClients, kWorkersPerAcq);
  auto serial = run_acquisitions(/*batched=*/false);
  auto batched = run_acquisitions(/*batched=*/true);

  Table acq({"mode", "acquisitions", "leases-per-acq", "round-trips-per-acq", "p50-acq-ms",
             "p99-acq-ms"});
  for (const auto& [name, s] : {std::pair{"serial", serial}, std::pair{"batched", batched}}) {
    const double acqs = std::max<double>(1, static_cast<double>(s->acquisitions));
    auto stats = LatencyStats::from(s->latency);
    acq.row({name, std::to_string(s->acquisitions),
             Table::num(static_cast<double>(s->leases) / acqs, 2),
             Table::num(static_cast<double>(s->round_trips) / acqs, 2),
             Table::num(stats.median / 1e6, 3), Table::num(stats.p99 / 1e6, 3)});
  }
  emit(acq, "fig14_lease_lifecycle");

  std::printf("part (b): churn workload, holds 3-6x a %.0f s lease TTL, auto-renewed...\n", 2.0);
  auto renewal = run_renewal_churn();
  Table renew({"workload", "lease-ttl-s", "granted", "renewals", "renewal-failures",
               "spurious-expiries", "leaked-leases", "mean-util-%"});
  renew.row({"churn", Table::num(static_cast<double>(renewal.ttl) / 1e9, 1),
             std::to_string(renewal.trace.granted), std::to_string(renewal.trace.renewals),
             std::to_string(renewal.trace.renewal_failures),
             std::to_string(renewal.trace.spurious_expiries),
             std::to_string(renewal.leaked_leases),
             Table::num(renewal.trace.mean_utilization(), 2)});
  emit(renew, "fig14_renewal");

  std::printf("part (c): locality-first vs power-of-two on an 8-rack fleet...\n");
  Table loc({"policy", "granted", "local-grants", "hit-rate-%", "p50-grant-ms"});
  for (auto policy : {rfaas::SchedulingPolicy::PowerOfTwoChoices,
                      rfaas::SchedulingPolicy::LocalityFirst}) {
    auto r = run_locality(policy);
    const double hit =
        r.grants == 0 ? 0 : 100.0 * static_cast<double>(r.local) / static_cast<double>(r.grants);
    loc.row({rfaas::to_string(policy), std::to_string(r.grants), std::to_string(r.local),
             Table::num(hit, 1), Table::num(r.trace.grant_latency_percentile(50) / 1e6, 3)});
  }
  emit(loc, "fig14_locality");

  auto serial_stats = LatencyStats::from(serial->latency);
  auto batched_stats = LatencyStats::from(batched->latency);
  std::printf("p99 acquisition: batched %.3f ms vs serial %.3f ms\n", batched_stats.p99 / 1e6,
              serial_stats.p99 / 1e6);
  std::printf("renewals %llu, spurious expiries %llu, leaked %zu\n",
              static_cast<unsigned long long>(renewal.trace.renewals),
              static_cast<unsigned long long>(renewal.trace.spurious_expiries),
              renewal.leaked_leases);

  Gates gates("fig14_lease_lifecycle");
  gates.check(batched_stats.p99 <= serial_stats.p99,
              "batched multi-lease acquisition p99 <= serial", "part (a)");
  gates.check(renewal.trace.renewals > 0, "renewals performed", "renewal churn");
  gates.check(renewal.trace.spurious_expiries == 0, "zero spurious expiries", "renewal churn");
  gates.check(renewal.leaked_leases == 0, "zero leaked leases after drain", "renewal churn");
  gates.finish();
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
