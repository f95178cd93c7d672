// Figure 15 (fast reclamation & self-healing): manager-initiated
// LeasesTerminated, invoker re-allocation, and shard rebalancing.
//
// The paper's disaggregated model only works if the resource manager can
// take leased compute back quickly (spot capacity vanishes, tenants
// exceed quotas, shards drift) and if clients survive that reclamation.
// This bench measures the recovery path end to end:
//
//  (a) Eviction storm — a lease workload under manager-initiated
//      evictions (random live leases terminated every few ms). The
//      self-healing arm re-allocates each lost lease transparently
//      (LeaseSet heal actors, budgeted retries); the control arm only
//      observes the terminations. Reported: client-observed reclamation
//      latency (eviction decision -> push absorbed) and the workload
//      survival rate (lost leases replaced / lost leases). Gates: the
//      storm terminated leases, self-heal survival >= 99% while the
//      control fails (< 99%), a measured p99 reclamation latency and zero
//      self-healed leases leaked after the drain.
//
//  (b) Rebalance sweep — a 4-shard core skewed by executor deaths. One
//      rebalance() migrates executor registrations from the fullest
//      shard to the emptiest (evicting their active leases; holders
//      re-allocate). Gate: at least one migration, and the max/min
//      shard-capacity skew strictly decreases.
#include "bench_common.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

// --------------------------------------------------------------------------
// Part (a): eviction storm — self-healing vs. control
// --------------------------------------------------------------------------

struct StormResult {
  cluster::UtilizationTrace trace;
  cluster::Harness::StormStats storm;
  std::size_t leaked_leases = 0;  // manager-side leases left after drain
};

StormResult run_storm(bool self_heal) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/16, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/8);
  spec.config.manager_shards = 2;
  cluster::Harness harness(spec);
  harness.start();

  cluster::LeaseWorkload workload;
  workload.workers_min = 1;
  workload.workers_max = 4;
  workload.memory_per_worker = 128ull << 20;
  workload.hold_min = 2_s;
  workload.hold_max = 6_s;
  workload.think_min = 100_ms;
  workload.think_max = 400_ms;
  workload.lease_timeout = 8_s;
  workload.auto_renew = true;
  workload.subscribe_events = true;  // both arms observe terminations
  workload.self_heal = self_heal;
  workload.realloc_budget = 6;
  workload.realloc_backoff = 10_ms;
  workload.seed = 31;

  const Duration horizon = scaled_horizon(40_s, 6);
  // The storm ends ahead of the workload so tail heals can finish before
  // the clients stop (an in-flight heal canceled at shutdown would read
  // as a lost lease that never was).
  auto storm = harness.start_eviction_storm(/*period=*/40_ms, /*leases_per_tick=*/1,
                                            /*duration=*/horizon * 3 / 4, /*seed=*/47);

  StormResult result;
  result.trace = harness.run_lease_workload(workload, horizon, /*sample_every=*/1_s);
  result.storm = *storm;
  // Drain: once holds end and renewals stop, every lease must come back.
  harness.run_for(4 * workload.lease_timeout);
  result.leaked_leases = harness.rm().active_leases();
  return result;
}

// --------------------------------------------------------------------------
// Part (b): rebalance sweep on a skewed core
// --------------------------------------------------------------------------

rfaas::ExecutorEntry bench_entry(std::uint32_t workers) {
  rfaas::ExecutorEntry e;
  e.info.memory_bytes = 64ull << 30;
  e.total_workers = workers;
  e.free_workers = workers;
  e.free_memory = 64ull << 30;
  e.alive = true;
  return e;
}

struct RebalanceResult {
  rfaas::ShardedResourceManager::RebalanceReport report;
  std::uint32_t executors = 32;
  std::uint32_t shards = 4;
};

RebalanceResult run_rebalance() {
  RebalanceResult result;
  rfaas::Config config;
  config.manager_shards = result.shards;
  rfaas::ShardedResourceManager m(config);

  std::vector<std::uint64_t> ids;
  for (std::uint32_t i = 0; i < result.executors; ++i) {
    ids.push_back(m.add_executor(bench_entry(8)));  // round-robin: 8 per shard
  }
  // Leases on the future donor shards, so migration exercises the
  // evict-and-reallocate path.
  for (int i = 0; i < 6; ++i) {
    rfaas::ScheduleRequest req;
    req.workers = 2;
    req.memory_per_worker = 1 << 20;
    (void)m.grant(req, /*client=*/1, /*timeout=*/1'000'000'000, /*now=*/0,
                  /*routed=*/static_cast<std::uint32_t>(i % 2));
  }
  // Skew: spot capacity evaporates from shards 2 and 3 (6 of 8 die in
  // each), leaving 64/64/16/16 schedulable workers.
  for (const auto id : ids) {
    const auto shard = rfaas::ShardedResourceManager::id_shard(id);
    const auto low = rfaas::ShardedResourceManager::id_low(id);
    if (shard >= 2 && low >= 2) (void)m.mark_dead(id);
  }

  result.report = m.rebalance(/*max_skew=*/1.3, /*max_moves=*/16, /*now=*/0);
  return result;
}

// --------------------------------------------------------------------------

void run() {
  banner("Figure 15 (fast reclamation & self-healing)",
         "manager-initiated LeasesTerminated, invoker re-allocation, shard rebalancing");

  std::printf("part (a): eviction storm over a renewing lease workload, "
              "self-healing vs control...\n");
  auto healed = run_storm(/*self_heal=*/true);
  auto control = run_storm(/*self_heal=*/false);

  Table storm({"mode", "evictions", "terminations", "spurious-expiries", "losses",
               "reallocations", "survival-%", "p50-reclaim-ms", "p99-reclaim-ms",
               "leaked-leases"});
  for (const auto& [name, r] :
       {std::pair{"self-heal", &healed}, std::pair{"control", &control}}) {
    storm.row({name, std::to_string(r->storm.evicted), std::to_string(r->trace.terminations),
               std::to_string(r->trace.spurious_expiries), std::to_string(r->trace.losses()),
               std::to_string(r->trace.reallocations), Table::num(r->trace.survival_pct(), 2),
               Table::num(r->trace.reclaim_latency_percentile(50) / 1e6, 4),
               Table::num(r->trace.reclaim_latency_percentile(99) / 1e6, 4),
               std::to_string(r->leaked_leases)});
  }
  emit(storm, "fig15_reclamation");

  std::printf("part (b): rebalance sweep on a death-skewed 4-shard core...\n");
  auto rebalance = run_rebalance();
  Table reb({"executors", "shards", "skew-before", "skew-after", "moves", "evicted-leases"});
  reb.row({std::to_string(rebalance.executors), std::to_string(rebalance.shards),
           Table::num(rebalance.report.skew_before, 3),
           Table::num(rebalance.report.skew_after, 3),
           std::to_string(rebalance.report.migrations.size()),
           std::to_string(rebalance.report.evictions.size())});
  emit(reb, "fig15_rebalance");

  const auto& heal = healed.trace;
  const auto& report = rebalance.report;
  std::printf("survival under eviction storm: self-heal %.2f%% vs control %.2f%% "
              "(%llu losses)\n",
              heal.survival_pct(), control.trace.survival_pct(),
              static_cast<unsigned long long>(heal.losses()));
  std::printf("p99 reclamation latency: %.4f ms over %llu terminations\n",
              heal.reclaim_latency_percentile(99) / 1e6,
              static_cast<unsigned long long>(heal.terminations));
  std::printf("rebalance skew: %.3f -> %.3f in %zu moves\n", report.skew_before,
              report.skew_after, report.migrations.size());

  Gates gates("fig15_reclamation");
  gates.check(heal.losses() > 0, "the eviction storm terminated leases", "self-heal");
  gates.check(heal.survival_pct() >= 99.0, "self-healing survival >= 99%", "self-heal");
  gates.check(control.trace.survival_pct() < 99.0,
              "the no-self-healing control survives < 99%", "control");
  gates.check(heal.reclaim_latency_percentile(99) > 0, "reclamation latency measured",
              "self-heal");
  gates.check(healed.leaked_leases == 0, "zero leaked leases after drain", "self-heal");
  gates.check(!report.migrations.empty() && report.skew_after < report.skew_before,
              "rebalance sweep reduces shard-load skew", "rebalance");
  gates.finish();
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
