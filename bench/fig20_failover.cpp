// Figure 20 (manager failover): grant-path blackout when the resource
// manager dies mid-workload and a warm standby takes over.
//
// The control plane of Sec. III is a single point of failure unless the
// lease state it holds survives the process that holds it. PR 9 adds a
// journaled, snapshot-seeded replication stream to warm standby
// managers; this bench kills the primary in the middle of a lease-churn
// workload, promotes a standby under a bumped manager epoch, and
// measures what clients actually experience: the blackout from the
// first failed call to the next successful grant. Gates:
//
//   1. zero double-grants    — failover must not re-issue capacity the
//      old primary already granted (journal replay + dedup table);
//   2. zero leaked leases    — every lease granted across the failover
//      is released or swept once the clients drain;
//   3. 100% client survival  — fig15's bar: no client loop dies because
//      the manager did; bounded redial + lease revalidation heal them;
//   4. bounded blackout      — p99 grant-path blackout stays within
//      10x the no-failover p99 grant latency. The blackout includes
//      the kill->promote window, so the gate bounds the whole outage,
//      not just the queueing tail;
//   5. epoch advances        — the promoted manager serves under
//      old epoch + 1 and reports restored(), so stale-epoch fencing
//      (PR 7) applies to anything the dead primary left behind.
//
// Schedules: a no-failover baseline (sets the blackout bound), a hard
// crash (streams severed), and a zombie window (isolated primary keeps
// answering established streams until it is crashed and superseded).
// Every run is replayable via RFS_CHAOS_SEED.
#include <cinttypes>

#include "bench_common.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

/// One failover schedule: how (and whether) the primary dies.
struct Schedule {
  const char* name;
  bool failover = false;
  bool zombie = false;
};

struct FailoverResult {
  Schedule schedule;
  cluster::UtilizationTrace trace;
  std::size_t leaked = 0;
  std::uint32_t epoch = 1;
  bool restored = false;
  std::uint64_t revalidations = 0;
  std::uint64_t reattached = 0;
  std::uint64_t fenced = 0;
};

/// The zombie schedule needs three beats (isolate, crash, promote), so
/// it scripts the failover by hand instead of schedule_failover().
sim::Task<void> zombie_script(cluster::Harness& h, Duration isolate_after, Duration window,
                              Duration promote_after) {
  co_await sim::delay(isolate_after);
  h.kill_manager(/*zombie=*/true);
  co_await sim::delay(window);
  h.kill_manager(/*zombie=*/false);
  co_await sim::delay(promote_after);
  h.promote_standby();
}

FailoverResult run_schedule(const Schedule& schedule, std::uint64_t seed, Duration horizon) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/8, /*cores=*/8,
                                             /*memory_bytes=*/16ull << 30, /*clients=*/8);
  spec.config.manager_shards = 2;
  // A loaded manager, as in fig19: decisions cost 250 us behind the
  // shard gates so the no-failover baseline carries a realistic
  // queueing tail. The blackout bound is 10x THAT p99, and the blackout
  // itself contains the kill->promote window — so the promote delay and
  // redial backoff below are chosen well inside the bound.
  spec.config.lease_processing = 250_us;
  spec.config.journal_enabled = true;
  spec.config.executor_reconnect_attempts = 20;
  spec.config.executor_reconnect_backoff = 1_ms;
  spec.client_reconnect_attempts = 20;
  spec.client_reconnect_backoff = 1_ms;
  spec.session_options.rto_min = 100_us;
  spec.session_options.rto_initial = 1_ms;
  spec.assert_drained = false;  // the bench reports the leak gate itself

  cluster::Harness harness(spec);
  harness.start();

  auto standby = harness.attach_standby();
  if (standby == nullptr) {
    std::fprintf(stderr, "fatal: could not attach standby (journal disabled?)\n");
    std::exit(1);
  }

  // The kill lands a third into the horizon: enough churn before it that
  // the standby replays real state, enough after it that every client
  // reconnects, revalidates and keeps allocating on the new primary.
  const Duration kill_after = horizon / 3;
  const Duration promote_after = 2_ms;
  if (schedule.failover && !schedule.zombie) {
    harness.schedule_failover(kill_after, promote_after);
  } else if (schedule.failover) {
    // Zombie: 100 ms where the isolated primary still answers its
    // established streams (journaling every decision to the standby),
    // then the real crash and promotion.
    harness.spawn(zombie_script(harness, kill_after, 100_ms, promote_after));
  }

  cluster::LeaseWorkload workload = cluster::LeaseWorkload::churn(
      /*lease_timeout=*/2_s, /*seed=*/11 + seed);
  workload.workers_min = 1;
  workload.workers_max = 2;
  workload.memory_per_worker = 64ull << 20;
  workload.hold_min = 10_ms;
  workload.hold_max = 40_ms;
  workload.think_min = 5_ms;
  workload.think_max = 20_ms;
  workload.subscribe_events = true;

  FailoverResult result;
  result.schedule = schedule;
  result.trace = harness.run_lease_workload(workload, horizon, /*sample_every=*/500_ms);
  result.leaked = harness.leaked_leases_after(3 * workload.lease_timeout);
  result.epoch = harness.rm().manager_epoch();
  result.restored = harness.rm().restored();
  result.revalidations = harness.rm().revalidations();
  result.reattached = harness.rm().reattached_executors();
  result.fenced = harness.rm().fenced_registrations();
  return result;
}

void run() {
  const std::uint64_t seed = chaos_seed();
  banner("Figure 20 (manager failover)",
         "grant-path blackout under a mid-workload manager kill + standby promotion");
  std::printf("chaos seed: %" PRIu64 "\n\n", seed);

  const Duration horizon = scaled_horizon(12_s, 6);
  const std::vector<Schedule> schedules = {{"no-failover", false, false},
                                           {"crash", true, false},
                                           {"zombie-window", true, true}};

  std::vector<FailoverResult> results;
  for (const auto& s : schedules) {
    std::printf("running %s (lease churn, kill at horizon/3)...\n", s.name);
    results.push_back(run_schedule(s, seed, horizon));
  }

  Table table({"schedule", "granted", "reconnects", "revalidations", "reattached-ex",
               "double-grants", "leaked-leases", "deaths", "survival-%", "epoch",
               "p99-grant-ms", "p99-blackout-ms", "blackout-x"});
  const double base_p99 = results.front().trace.grant_latency_percentile(99);
  for (const auto& r : results) {
    const double blackout = r.trace.blackout_percentile(99);
    const double inflation = base_p99 > 0 ? blackout / base_p99 : 0.0;
    table.row({r.schedule.name, std::to_string(r.trace.granted),
               std::to_string(r.trace.reconnects), std::to_string(r.revalidations),
               std::to_string(r.reattached), std::to_string(r.trace.double_grants),
               std::to_string(r.leaked), std::to_string(r.trace.client_deaths),
               Table::num(r.trace.client_survival_pct(), 2), std::to_string(r.epoch),
               Table::num(r.trace.grant_latency_percentile(99) / 1e6, 4),
               Table::num(blackout / 1e6, 4), Table::num(inflation, 2)});
  }
  emit(table, "fig20_failover");

  Gates gates("fig20_failover");
  unsigned failovers = 0;
  for (const auto& r : results) {
    gates.check(r.trace.double_grants == 0, "zero double-grants", r.schedule.name);
    gates.check(r.leaked == 0, "zero leaked leases after drain", r.schedule.name);
    gates.check(r.trace.client_deaths == 0, "100% client survival", r.schedule.name);
    if (!r.schedule.failover) continue;
    ++failovers;
    gates.check(r.epoch == 2 && r.restored, "promoted manager serves at epoch 2 (restored)",
                r.schedule.name);
    gates.check(r.trace.reconnects > 0, "clients reconnect to the new primary", r.schedule.name);
    gates.check(!r.trace.blackout_ns.empty(), "blackout window observed and measured",
                r.schedule.name);
    gates.check(base_p99 <= 0 || r.trace.blackout_percentile(99) <= 10.0 * base_p99,
                "p99 grant-path blackout <= 10x no-failover p99", r.schedule.name);
  }
  gates.check(failovers > 0, "at least one failover schedule ran", "all schedules");
  gates.finish();
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
