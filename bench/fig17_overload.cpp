// Figure 17 (million-client ingress): admission control under 10-100x
// overload — token-bucket early shed, weighted fair queueing, and
// client-side retry budgets, driven by open-loop arrival generation.
//
// The control plane survives demand far beyond its capacity only if
// saying "no" is near-free and saying "yes" is paced: every LeaseRequest
// passes the manager's admission layer (token bucket + WFQ,
// src/rfaas/admission.hpp) before any shard lock or placement work, and
// shed clients back off at least the manager's retry_after hint. This
// bench multiplexes one million simulated clients over a handful of
// sessions (open-loop Poisson/diurnal/heavy-tail arrivals — offered load
// never waits for service, unlike a closed loop that self-throttles) at
// 10x to 100x the configured admission capacity, and enforces:
//
//   1. goodput >= 90% of capacity while overloaded — overload must not
//      turn into collapse: the admitted stream stays at line rate while
//      the excess is shed in O(1);
//   2. admitted p99 <= 5x the unloaded baseline — requests that get in
//      must not queue behind the storm being rejected;
//   3. per-tenant fairness within 15% of WFQ weight shares — four
//      tenants of weights 4/2/1/1, all backlogged, split the admitted
//      capacity by weight, not by aggression;
//   4. retry budgets hold — no client spends more than its budget, and
//      retries are paced by retry_after, not by luck;
//   5. zero leaked leases after drain — every granted lease under the
//      storm is returned (acked releases + expiry sweep).
//
// It also gates zero client deaths, and that at least one overloaded
// schedule and one fairness-gated tenant row ran. A failing gate prints
// the exact repro command.
#include <cinttypes>
#include <cmath>

#include "bench_common.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

/// Aggregate admission capacity of every schedule (requests/s): the
/// denominator of the goodput gate and of WFQ weight shares.
constexpr double kCapacityHz = 300.0;
/// Four weighted tenants; total simulated clients across them is 1M.
constexpr std::uint32_t kWeights[4] = {4, 2, 1, 1};
constexpr std::uint64_t kMultiplex = 125'000;  // per host, 2 hosts/tenant
constexpr unsigned kHostsPerTenant = 2;

struct Schedule {
  const char* name;
  double overload = 10;  ///< offered load as a multiple of capacity
  cluster::ArrivalProcess arrivals = cluster::ArrivalProcess::Poisson;
  unsigned retry_budget = 0;
  bool gate_fairness = true;  ///< heavy-tail bursts are too spiky to gate
  bool gate_p99 = true;       ///< retried grants legitimately carry their waits
};

struct OverloadResult {
  Schedule schedule;
  cluster::MultiTenantTrace trace;
  std::size_t leaked = 0;
  std::uint64_t admitted = 0;       // manager-side admission counter
  std::uint64_t sheds = 0;          // manager-side total sheds
  std::uint64_t shed_wfq = 0;       // fairness-credit sheds
  Duration horizon = 0;
};

OverloadResult run_schedule(const Schedule& schedule) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/16, /*cores=*/36,
                                             /*memory_bytes=*/64ull << 30, /*clients=*/8);
  spec.config.admission.capacity_hz = kCapacityHz;
  // A tight fairness credit: the credit is a per-tenant burst allowance
  // (credit * weight admissions ahead of the GPS clock), and every unit
  // of it is start-up slack the measured shares carry as error. At 2,
  // the transient washes out within the smoke horizon while sustained
  // shares still pin to capacity * weight / weight_sum.
  spec.config.admission.wfq_credit = 2;
  spec.assert_drained = false;  // the bench reports the leak gate itself

  cluster::Harness harness(spec);
  harness.start();

  // Four tenants, weights 4/2/1/1, equal offered load: fairness must
  // come from the admitter, not from the arrival processes.
  std::vector<cluster::TenantWorkload> tenants;
  const double offered_hz = schedule.overload * kCapacityHz;
  for (unsigned t = 0; t < 4; ++t) {
    cluster::TenantWorkload w;
    w.name = "w" + std::to_string(kWeights[t]);
    w.clients = kHostsPerTenant;
    w.tenant_id = 101 + t;
    w.weight = kWeights[t];
    w.arrivals = schedule.arrivals;
    w.multiplex = kMultiplex;
    // Per simulated client: the superposed per-host rate is what matters.
    w.arrival_hz = (offered_hz / 4.0) / static_cast<double>(kHostsPerTenant * kMultiplex);
    w.retry_budget = schedule.retry_budget;
    w.retry_backoff = 5_ms;
    w.diurnal_period = 4_s;
    w.lease.workers_min = 1;
    w.lease.workers_max = 1;
    w.lease.memory_per_worker = 64ull << 20;
    w.lease.hold_min = 50_ms;
    w.lease.hold_max = 150_ms;
    w.lease.lease_timeout = 30_s;
    w.lease.seed = 1000 + t;
    tenants.push_back(w);
  }

  OverloadResult result;
  result.schedule = schedule;
  result.horizon = scaled_horizon(12_s, 5);
  result.trace = harness.run_multi_tenant_workload(tenants, result.horizon,
                                                   /*sample_every=*/1_s);
  // Drain: detached holds release through their sessions; anything a
  // shed retry left behind must be nothing at all.
  result.leaked = harness.leaked_leases_after(5_s);
  result.admitted = harness.rm().admission().admitted();
  result.sheds = harness.rm().admission().sheds();
  result.shed_wfq = harness.rm().admission().shed_wfq();
  return result;
}

void run() {
  banner("Figure 17 (million-client ingress)",
         "admission control + WFQ + retry budgets under 10-100x open-loop overload");
  std::printf("capacity %.0f req/s, %" PRIu64 " simulated clients over %u sessions\n\n",
              kCapacityHz, std::uint64_t{4} * kHostsPerTenant * kMultiplex, 4u * kHostsPerTenant);

  // The unloaded baseline anchors the admitted-p99 gate; it is not
  // itself gated (nothing is overloaded at half capacity).
  std::vector<Schedule> schedules = {
      {"baseline 0.5x", 0.5, cluster::ArrivalProcess::Poisson, 0, false, false},
      {"poisson 10x", 10, cluster::ArrivalProcess::Poisson, 0, true, true},
      {"poisson 100x", 100, cluster::ArrivalProcess::Poisson, 0, true, true},
      {"diurnal 100x", 100, cluster::ArrivalProcess::Diurnal, 0, true, true},
      {"heavy-tail 100x", 100, cluster::ArrivalProcess::HeavyTail, 0, false, true},
      {"retries 50x", 50, cluster::ArrivalProcess::Poisson, 3, true, false},
  };

  std::vector<OverloadResult> results;
  for (const auto& s : schedules) {
    std::printf("running %s...\n", s.name);
    results.push_back(run_schedule(s));
  }
  std::printf("\n");

  Table table({"schedule", "offered", "granted", "goodput-hz", "goodput-pct", "sheds",
               "wfq-sheds", "retries", "retry-exhausted", "max-retries", "p99-admit-ms",
               "inflation-x", "leaked", "deaths"});
  const double base_p99 = results.front().trace.aggregate.grant_latency_percentile(99);
  for (const auto& r : results) {
    const auto& a = r.trace.aggregate;
    const double horizon_s = static_cast<double>(r.horizon) * 1e-9;
    const double goodput = static_cast<double>(a.granted) / horizon_s;
    const double p99 = a.grant_latency_percentile(99);
    table.row({r.schedule.name, std::to_string(a.offered), std::to_string(a.granted),
               Table::num(goodput, 1), Table::num(100.0 * goodput / kCapacityHz, 1),
               std::to_string(r.sheds), std::to_string(r.shed_wfq), std::to_string(a.retries),
               std::to_string(a.retry_exhausted), std::to_string(a.max_retries),
               Table::num(p99 / 1e6, 4),
               Table::num(base_p99 > 0 ? p99 / base_p99 : 1.0, 2), std::to_string(r.leaked),
               std::to_string(a.client_deaths)});
  }
  emit(table, "fig17_overload");

  // Per-tenant fairness: grant share vs WFQ weight share, per schedule.
  Table fairness({"schedule", "tenant", "weight", "offered", "granted", "share-pct",
                  "expected-pct", "error-pct", "gated"});
  double weight_sum = 0;
  for (auto w : kWeights) weight_sum += w;
  for (const auto& r : results) {
    if (r.schedule.overload < 10) continue;  // fairness is an overload property
    for (const auto& t : r.trace.tenants) {
      const double share = r.trace.aggregate.granted > 0
                               ? 100.0 * static_cast<double>(t.granted) /
                                     static_cast<double>(r.trace.aggregate.granted)
                               : 0.0;
      const double expected = 100.0 * static_cast<double>(t.weight) / weight_sum;
      fairness.row({r.schedule.name, t.name, std::to_string(t.weight),
                    std::to_string(t.offered), std::to_string(t.granted),
                    Table::num(share, 2), Table::num(expected, 2),
                    Table::num(100.0 * (share - expected) / expected, 2),
                    r.schedule.gate_fairness ? "yes" : "no"});
    }
  }
  emit(fairness, "fig17_fairness");

  Gates gates("fig17_overload");
  unsigned overloaded = 0;
  unsigned fairness_gated = 0;
  for (const auto& r : results) {
    const auto& a = r.trace.aggregate;
    gates.check(r.leaked == 0, "zero leaked leases after drain", r.schedule.name);
    gates.check(a.client_deaths == 0, "zero client deaths under overload", r.schedule.name);
    if (r.schedule.overload >= 10) {
      ++overloaded;
      const double horizon_s = static_cast<double>(r.horizon) * 1e-9;
      const double goodput = static_cast<double>(a.granted) / horizon_s;
      gates.check(goodput >= 0.9 * kCapacityHz, "goodput >= 90% of capacity", r.schedule.name);
      if (r.schedule.gate_fairness) {
        for (const auto& t : r.trace.tenants) {
          ++fairness_gated;
          const double share = a.granted > 0 ? static_cast<double>(t.granted) /
                                                   static_cast<double>(a.granted)
                                             : 0.0;
          const double expected = static_cast<double>(t.weight) / weight_sum;
          gates.check(std::abs(share - expected) <= 0.15 * expected,
                      "per-tenant goodput within 15% of weight share",
                      std::string(r.schedule.name) + " " + t.name);
        }
      }
    }
    if (r.schedule.gate_p99) {
      const double p99 = a.grant_latency_percentile(99);
      gates.check(base_p99 <= 0 || p99 <= 5.0 * base_p99, "admitted p99 <= 5x unloaded baseline",
                  r.schedule.name);
    }
    if (r.schedule.retry_budget > 0) {
      gates.check(a.max_retries <= r.schedule.retry_budget, "retry budget never exceeded",
                  r.schedule.name);
      gates.check(a.retries > 0, "retry discipline exercised", r.schedule.name);
    }
  }
  gates.check(overloaded > 0, "at least one overloaded schedule ran", "all schedules");
  gates.check(fairness_gated > 0, "at least one fairness-gated tenant row", "all schedules");
  gates.finish();
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
