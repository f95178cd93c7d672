// Figure 2: cluster utilization, in two parts.
//
// (a) The paper's measurement: Piz Daint-style supercomputer utilization
//     over one week at a one-minute sampling interval — idle CPU rate and
//     free memory rate from the batch-scheduler substrate (FCFS + EASY
//     backfill over a synthetic job mix).
//
// (b) The rFaaS answer to that idle capacity: a spot-executor fleet
//     driven through the rfs::cluster harness, comparing the lease
//     scheduling policies (round-robin / least-loaded / power-of-two) on
//     a heterogeneous fleet under the same open-loop lease workload.
//     Least-loaded targets the freest executor, so partial grants are
//     larger and fewer requests are denied — worker utilization must be
//     at least round-robin's. A fourth row runs the power-of-two policy
//     behind the 4-shard manager: at rack scale sharding must not cost
//     utilization (the fleet-scale win is bench/fig02_large_fleet.cpp).
#include "bench_common.hpp"
#include "workloads/cluster.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;
using namespace rfs::workloads;

cluster::UtilizationTrace run_policy(rfaas::SchedulingPolicy policy, unsigned shards = 1) {
  cluster::ScenarioSpec spec;
  // Heterogeneous spot fleet: a couple of big nodes plus many small ones
  // (the shape idle HPC capacity actually has), 16 client hosts.
  spec.executors = {{2, 36, 64ull << 30}, {6, 8, 16ull << 30}};
  spec.client_hosts = 16;
  spec.racks = 4;
  spec.config.scheduling = policy;
  spec.config.manager_shards = shards;
  cluster::Harness harness(spec);
  harness.start();

  cluster::LeaseWorkload workload;
  workload.workers_min = 2;
  workload.workers_max = 16;
  workload.memory_per_worker = 256ull << 20;
  workload.hold_min = 2_s;
  workload.hold_max = 20_s;
  workload.think_min = 100_ms;
  workload.think_max = 2_s;
  workload.seed = 2021;
  return harness.run_lease_workload(workload, scaled_horizon(120_s), /*sample_every=*/1_s);
}

void run() {
  banner("Figure 2", "cluster utilization: idle capacity, and rFaaS filling it");

  // --- (a) The batch cluster the paper measured ---------------------------
  ClusterConfig cfg;
  cfg.nodes = 1000;
  auto trace = simulate_cluster(cfg, /*seed=*/2021);

  // Hourly digest of the week-long minute-resolution trace.
  Table table({"day-hour", "idle-cpu-%", "free-mem-%", "queued", "running"});
  const std::size_t per_hour = 60;
  for (std::size_t i = 0; i + per_hour <= trace.samples.size(); i += per_hour * 6) {
    OnlineStats idle, mem;
    std::size_t queued = 0, running = 0;
    for (std::size_t j = i; j < i + per_hour; ++j) {
      idle.add(trace.samples[j].idle_cpu_pct);
      mem.add(trace.samples[j].free_memory_pct);
      queued = trace.samples[j].queued_jobs;
      running = trace.samples[j].running_jobs;
    }
    const auto hours = trace.samples[i].at / 3'600'000'000'000ull;
    table.row({"d" + std::to_string(hours / 24) + "-h" + std::to_string(hours % 24),
               Table::num(idle.mean(), 1), Table::num(mem.mean(), 1),
               std::to_string(queued), std::to_string(running)});
  }
  emit(table, "fig02");

  std::printf("Mean idle CPU: %.1f%%   (paper: bursty 0-50%%, avg utilization 80-94%%)\n",
              trace.mean_idle_cpu());
  std::printf("Peak idle CPU: %.1f%%\n", trace.max_idle_cpu());
  std::printf("Mean free memory: %.1f%%  (paper: ~3/4 of memory unused, 80-95%% free)\n\n",
              trace.mean_free_memory());

  // --- (b) rFaaS spot fleet under each scheduling policy ------------------
  struct PolicyResult {
    std::string name;
    cluster::UtilizationTrace trace;
  };
  std::vector<PolicyResult> results;
  for (auto policy : {rfaas::SchedulingPolicy::RoundRobin, rfaas::SchedulingPolicy::LeastLoaded,
                      rfaas::SchedulingPolicy::PowerOfTwoChoices}) {
    results.push_back({rfaas::to_string(policy), run_policy(policy)});
  }
  results.push_back({"power-of-two/4-shards",
                     run_policy(rfaas::SchedulingPolicy::PowerOfTwoChoices, /*shards=*/4)});

  Table policies({"policy", "mean-util-%", "peak-util-%", "granted", "denied", "grant-rate-%",
                  "p99-grant-ms"});
  for (const auto& r : results) {
    const double total = static_cast<double>(r.trace.granted + r.trace.denied);
    policies.row({r.name, Table::num(r.trace.mean_utilization(), 1),
                  Table::num(r.trace.peak_utilization(), 1), std::to_string(r.trace.granted),
                  std::to_string(r.trace.denied),
                  Table::num(total == 0 ? 0 : 100.0 * r.trace.granted / total, 1),
                  Table::num(r.trace.grant_latency_percentile(99) / 1e6, 3)});
  }
  emit(policies, "fig02_policies");

  const double rr = results[0].trace.mean_utilization();
  const double ll = results[1].trace.mean_utilization();
  std::printf("least-loaded vs round-robin worker utilization: %.1f%% vs %.1f%% (%s)\n",
              ll, rr, ll >= rr ? "least-loaded >= round-robin: OK" : "REGRESSION");
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
