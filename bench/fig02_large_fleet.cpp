// Figure 2 (large-fleet variant): the resource manager at 1000-executor
// scale, single-manager vs. sharded.
//
// The paper's control-plane split keeps the manager off the invocation
// path, but every allocation still serializes on the manager's lease
// decision. At rack scale that lock never shows; at fleet scale it is the
// whole story. This bench deploys a skewed 1000-executor spot fleet
// (ScenarioSpec::large_fleet) behind the same control plane twice — once
// with the classic single lock-protected manager (manager_shards = 1) and
// once with the sharded core (power-of-two shard routing + cross-shard
// stealing) — and drives four tenants with different arrival rates and
// lease shapes against it. Reported per configuration: grant throughput,
// median/p99 grant latency (the decision queueing is the dominant term),
// denial rate and cross-shard steal count.
//
// Gate: the sharded manager's grant throughput is at least the single
// manager's. Both p99 grant latencies are printed alongside.
#include "bench_common.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

constexpr unsigned kExecutors = 1000;
constexpr unsigned kClients = 48;

struct RunResult {
  unsigned shards = 0;
  cluster::MultiTenantTrace trace;
  std::uint64_t steals = 0;
  Duration horizon = 0;
};

std::vector<cluster::TenantWorkload> tenant_mix() {
  // Four tenants with skewed arrival rates and lease shapes: a latency
  //-sensitive interactive tenant, two steady services, and a bursty
  // batch tenant asking for wide leases.
  auto lease = [](std::uint32_t wmin, std::uint32_t wmax, Duration hold_min,
                  Duration hold_max, std::uint64_t seed) {
    cluster::LeaseWorkload w;
    w.workers_min = wmin;
    w.workers_max = wmax;
    w.memory_per_worker = 128ull << 20;
    w.hold_min = hold_min;
    w.hold_max = hold_max;
    w.lease_timeout = 60_s;
    w.seed = seed;
    return w;
  };
  std::vector<cluster::TenantWorkload> tenants;
  tenants.push_back({"interactive", 16, /*arrival_hz=*/60.0, lease(1, 2, 5_ms, 20_ms, 101)});
  tenants.push_back({"service-a", 12, /*arrival_hz=*/40.0, lease(2, 4, 10_ms, 40_ms, 202)});
  tenants.push_back({"service-b", 12, /*arrival_hz=*/40.0, lease(2, 4, 10_ms, 40_ms, 303)});
  tenants.push_back({"batch", 8, /*arrival_hz=*/15.0, lease(8, 16, 50_ms, 200_ms, 404)});
  return tenants;
}

RunResult run_fleet(unsigned shards) {
  auto spec = cluster::ScenarioSpec::large_fleet(kExecutors, kClients, /*racks=*/16,
                                                 /*seed=*/2023);
  spec.config.manager_shards = shards;
  spec.config.scheduling = rfaas::SchedulingPolicy::PowerOfTwoChoices;
  // A 1000-entry registry scan is not a 8-entry scan: model the fleet-
  // scale decision cost. The sharded manager pays the same per decision
  // but runs N decisions concurrently.
  spec.config.lease_processing = 1_ms;

  cluster::Harness harness(spec);
  harness.start();

  RunResult result;
  result.shards = shards;
  result.horizon = scaled_horizon(20_s, /*shrink=*/8);
  result.trace = harness.run_multi_tenant_workload(tenant_mix(), result.horizon,
                                                   /*sample_every=*/500_ms);
  result.steals = harness.rm().core().steals();
  return result;
}

void run() {
  banner("Figure 2 (large fleet)",
         "1000-executor spot fleet: single-manager vs. sharded lease grants");

  std::vector<RunResult> results;
  for (unsigned shards : {1u, 8u}) {
    std::printf("deploying %u executors behind %u shard%s...\n", kExecutors, shards,
                shards == 1 ? "" : "s");
    results.push_back(run_fleet(shards));
  }

  Table table({"manager", "shards", "executors", "granted", "denied", "grants-per-s",
               "p50-grant-ms", "p99-grant-ms", "mean-util-%", "steals"});
  for (const auto& r : results) {
    const auto& agg = r.trace.aggregate;
    table.row({r.shards == 1 ? "single" : "sharded", std::to_string(r.shards),
               std::to_string(kExecutors), std::to_string(agg.granted),
               std::to_string(agg.denied), Table::num(agg.grant_throughput(r.horizon), 1),
               Table::num(agg.grant_latency_percentile(50) / 1e6, 3),
               Table::num(agg.grant_latency_percentile(99) / 1e6, 3),
               Table::num(agg.mean_utilization(), 2), std::to_string(r.steals)});
  }
  emit(table, "fig02_large_fleet");

  Table tenants({"manager", "tenant", "granted", "denied", "p50-grant-ms", "p99-grant-ms"});
  for (const auto& r : results) {
    for (const auto& t : r.trace.tenants) {
      tenants.row({r.shards == 1 ? "single" : "sharded", t.name, std::to_string(t.granted),
                   std::to_string(t.denied), Table::num(t.grant_latency_percentile(50) / 1e6, 3),
                   Table::num(t.grant_latency_percentile(99) / 1e6, 3)});
    }
  }
  emit(tenants, "fig02_large_fleet_tenants");

  const double single_tp = results[0].trace.aggregate.grant_throughput(results[0].horizon);
  const double sharded_tp = results[1].trace.aggregate.grant_throughput(results[1].horizon);
  const double single_p99 = results[0].trace.aggregate.grant_latency_percentile(99);
  const double sharded_p99 = results[1].trace.aggregate.grant_latency_percentile(99);
  std::printf("grant throughput: sharded %.1f/s vs single %.1f/s\n", sharded_tp, single_tp);
  std::printf("p99 grant latency: sharded %.3f ms vs single %.3f ms\n", sharded_p99 / 1e6,
              single_p99 / 1e6);

  Gates gates("fig02_large_fleet");
  gates.check(sharded_tp >= single_tp, "sharded grant throughput >= single manager",
              "1000-executor fleet");
  gates.finish();
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
