// Cluster scenario harness: one declarative description of a complete
// rFaaS deployment — engine, fabric, TCP overlay, topology, resource
// manager, N spot executors (possibly heterogeneous) and M client hosts —
// shared by every bench, example and end-to-end test. Mirrors how SeBS
// separates the FaaS `System` abstraction from its experiment drivers:
// scenarios say *what* to deploy, the harness owns *how*.
//
// Beyond construction, the harness drives lease-level workloads for
// cluster-utilization experiments (Fig. 2 style): M clients allocating,
// holding and releasing leases against the resource manager, sampled into
// a utilization trace. Multi-tenant runs (run_multi_tenant_workload)
// drive several tenants with independent arrival rates and lease shapes
// against the same fleet and record per-grant latencies, which is how the
// large-fleet single-vs-sharded manager comparison measures tail grant
// latency. Like a SeBS experiment driver, which reaches the platform only
// through `System`, every workload client runs on rfaas::LeaseSet — the
// client side of the lease protocol the Invoker uses too — and the
// harness adds only workload logic: arrivals, holds, shed-retry and
// redial budgets, and counting. Invocation-level experiments build
// invokers via make_invoker().
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/faulty.hpp"
#include "rfaas/executor.hpp"
#include "rfaas/invoker.hpp"
#include "rfaas/resource_manager.hpp"
#include "rfaas/session.hpp"

namespace rfs::cluster {

/// One group of identical spot executors.
struct ExecutorGroup {
  unsigned count = 1;
  unsigned cores = 36;  // two 18-core Xeon Gold 6154
  std::uint64_t memory_bytes = 64ull << 30;
};

/// Declarative description of a deployment.
struct ScenarioSpec {
  std::vector<ExecutorGroup> executors{{2, 36, 64ull << 30}};
  unsigned client_hosts = 1;
  unsigned cores_per_client = 36;
  std::uint64_t memory_per_client = 64ull << 30;
  /// Topology groups (racks); hosts are assigned round-robin. 1 = flat.
  unsigned racks = 1;
  rfaas::Config config{};

  /// Chaos knobs (bench/fig19_chaos.cpp): when `inject_faults` is set the
  /// harness owns a net::FaultInjector seeded with `fault_seed` and runs
  /// every client<->manager control link under `faults`. Executor
  /// registration links keep the lossless default unless a test retunes
  /// them through fault_injector(), and the RDMA data plane is never
  /// faulted — RoCE RC retransmits below the protocol under test.
  net::FaultSpec faults{};
  bool inject_faults = false;
  std::uint64_t fault_seed = 1;
  /// Executor-side data-plane chaos (bench/fig21_grayfailure): when
  /// `inject_worker_faults` is set the harness owns a seeded
  /// net::WorkerFaultInjector (same `fault_seed`) wired into every
  /// ExecutorManager, with `worker_faults` as the fleet-wide default
  /// spec. Per-executor overrides (e.g. exactly one gray host) go
  /// through worker_fault_injector()->set_executor().
  net::WorkerFaultSpec worker_faults{};
  bool inject_worker_faults = false;
  /// Retransmission parameters of every workload client session. Soak
  /// schedules widen max_retransmits so partition windows longer than
  /// the adaptive-RTO backoff sum cannot kill a client.
  rfaas::SessionOptions session_options{};
  /// When set (the default), leaked_leases_after() aborts on a nonzero
  /// result, so chaos tests get the no-leaked-leases invariant for free;
  /// benches that report the gate themselves clear it.
  bool assert_drained = true;

  /// Client failover knobs: when a workload client's session dies it
  /// redials the manager up to this many times (backoff apart) with a
  /// bumped session epoch, re-binds its LeaseSet, re-subscribes the
  /// notification stream and revalidates held leases against the
  /// promoted primary. 0 keeps the pre-HA behaviour: a dead session is
  /// a dead client.
  unsigned client_reconnect_attempts = 0;
  Duration client_reconnect_backoff = 20_ms;

  /// Homogeneous fleet shorthand.
  static ScenarioSpec uniform(unsigned executors, unsigned cores = 36,
                              std::uint64_t memory_bytes = 64ull << 30, unsigned clients = 1) {
    ScenarioSpec spec;
    spec.executors = {{executors, cores, memory_bytes}};
    spec.client_hosts = clients;
    return spec;
  }

  /// Thousands-of-executors fleet with the skew idle HPC capacity really
  /// has: a few big nodes, a medium tier, and a long tail of small hosts
  /// whose 8-core/4-core split is drawn deterministically from `seed`.
  /// Always generates exactly `executors` executors.
  static ScenarioSpec large_fleet(unsigned executors, unsigned clients, unsigned racks = 8,
                                  std::uint64_t seed = 2023);
};

/// Parameters of the lease-level open-loop workload each client runs
/// during run_lease_workload(): allocate a lease of a random size, hold
/// it, release it, think, repeat.
struct LeaseWorkload {
  std::uint32_t workers_min = 1;
  std::uint32_t workers_max = 8;
  std::uint64_t memory_per_worker = 256ull << 20;
  Duration hold_min = 2_s;
  Duration hold_max = 20_s;
  Duration think_min = 100_ms;
  Duration think_max = 2_s;
  Duration lease_timeout = 300_s;
  std::uint64_t seed = 7;
  /// Keep held leases alive with ExtendLease through a client-side
  /// rfaas::LeaseSet while the hold outlives the lease timeout.
  bool auto_renew = false;
  /// Renew when remaining validity drops below this; 0 = timeout / 4.
  Duration renew_margin = 0;
  /// Open a notification stream (SubscribeEvents) so manager-initiated
  /// LeaseTerminated pushes are observed and counted — the control arm
  /// of the self-healing comparison subscribes without healing.
  bool subscribe_events = false;
  /// Self-healing: re-allocate terminated/expired leases transparently
  /// (implies subscribe_events).
  bool self_heal = false;
  unsigned realloc_budget = 6;
  Duration realloc_backoff = 10_ms;

  /// Churn preset: leases deliberately outlive their TTL (holds of 3-6x
  /// the timeout), kept alive purely by auto-renewal — the scenario that
  /// flushes out renewal races against the manager's expiry sweep.
  static LeaseWorkload churn(Duration lease_timeout = 5_s, std::uint64_t seed = 7) {
    LeaseWorkload w;
    w.lease_timeout = lease_timeout;
    w.hold_min = 3 * lease_timeout;
    w.hold_max = 6 * lease_timeout;
    w.think_min = lease_timeout / 10;
    w.think_max = lease_timeout / 2;
    w.auto_renew = true;
    w.renew_margin = lease_timeout / 4;
    w.seed = seed;
    return w;
  }
};

/// Counters of a lease workload run, or of one tenant's share of it:
/// grant/denial tallies, lease-lifecycle events, overload and failover
/// accounting, and the client-observed latency samples (virtual ns).
struct LeaseCounters {
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
  std::uint64_t renewals = 0;           // successful ExtendLease round trips
  std::uint64_t renewal_failures = 0;   // refused / failed renewals
  std::uint64_t spurious_expiries = 0;  // held leases lost to expiry
  std::uint64_t terminations = 0;       // manager-initiated LeaseTerminated
  std::uint64_t reallocations = 0;      // lost leases replaced (self-healing)
  // Overload accounting (admission control + client retry budgets).
  std::uint64_t offered = 0;            // arrivals generated (open-loop offered load)
  std::uint64_t overload_denials = 0;   // admission sheds observed (subset of denied)
  std::uint64_t retries = 0;            // shed requests re-attempted within budget
  std::uint64_t retry_exhausted = 0;    // arrivals whose retry budget ran dry
  std::uint64_t max_retries = 0;        // most retries any single arrival spent
  std::uint64_t clients_started = 0;
  std::uint64_t client_deaths = 0;      // loops that died on a transport failure
  // Failover accounting (manager kill + standby promotion).
  std::uint64_t reconnects = 0;         // sessions re-established after a dead one
  std::uint64_t reconnect_failures = 0; // redial attempts that could not connect
  /// 64-bit FNV-1a over the (executor device, workers) of every grant the
  /// clients decoded, in decode order: equal runs place leases alike.
  std::uint64_t placement_digest = 0xcbf29ce484222325ull;  // the offset basis
  std::vector<double> grant_latency;  // ns per successful grant
  /// Client-observed reclamation latency per termination push: manager
  /// eviction decision -> push absorbed by the holder (virtual ns).
  std::vector<double> reclaim_latency;
  /// Grant-path blackout per outage a client observed: first failed
  /// call -> next successful grant (virtual ns). The fig20 failover
  /// bench gates its p99 against the unloaded grant tail.
  std::vector<double> blackout_ns;

  /// Adds `other`'s counts, keeps the larger max_retries, appends its
  /// latency samples and folds its placement digest into this one.
  LeaseCounters& operator+=(const LeaseCounters& other);
  /// Folds one decoded grant into placement_digest.
  void note_placement(std::uint32_t device, std::uint32_t workers);

  /// Linear-interpolated grant-latency percentile, 0 when no grants.
  [[nodiscard]] double grant_latency_percentile(double p) const;
  /// Grants per virtual second over `horizon`.
  [[nodiscard]] double grant_throughput(Duration horizon) const;
  /// Reclamation-latency percentile, 0 when nothing was terminated.
  [[nodiscard]] double reclaim_latency_percentile(double p) const;
  /// Blackout percentile over every client-observed outage, 0 when no
  /// client ever lost its session.
  [[nodiscard]] double blackout_percentile(double p) const;
  /// Held leases lost involuntarily: terminations + spurious expiries.
  [[nodiscard]] std::uint64_t losses() const { return terminations + spurious_expiries; }
  /// Share of lost leases the client replaced before the workload ended:
  /// the self-healing survival rate (100 when nothing was lost).
  [[nodiscard]] double survival_pct() const {
    return losses() == 0 ? 100.0
                         : 100.0 * static_cast<double>(reallocations) /
                               static_cast<double>(losses());
  }
  /// Share of client loops that reached the horizon instead of dying on
  /// a transport failure — the fig19 chaos gate requires 100.
  [[nodiscard]] double client_survival_pct() const {
    return clients_started == 0 ? 100.0
                                : 100.0 * static_cast<double>(clients_started - client_deaths) /
                                      static_cast<double>(clients_started);
  }
};

/// Result of a lease workload run: the sampled worker-utilization trace,
/// the run's lease counters, and the chaos counters of its sessions.
struct UtilizationTrace : LeaseCounters {
  struct Sample {
    Time at = 0;
    double utilization_pct = 0;  // busy workers / total workers
  };
  std::vector<Sample> samples;
  // Chaos accounting, summed over every client session of the run.
  std::uint64_t retransmits = 0;        // timed-out requests sent again
  std::uint64_t call_failures = 0;      // calls that exhausted the retransmit budget
  std::uint64_t duplicate_replies = 0;  // replies absorbed by session dedup
  std::uint64_t duplicate_pushes = 0;   // eviction pushes absorbed by seq dedup
  std::uint64_t double_grants = 0;      // duplicate grant with a DIFFERENT lease id

  [[nodiscard]] double mean_utilization() const;
  [[nodiscard]] double peak_utilization() const;
};

/// Arrival process of one tenant's request generator.
enum class ArrivalProcess : std::uint8_t {
  /// Legacy closed loop: one outstanding request per client, exponential
  /// think time — manager queueing throttles a saturated tenant.
  Closed,
  /// Open loop: Poisson arrivals fired as detached request coroutines,
  /// so offered load is independent of how the manager responds — the
  /// overload regime admission control exists for.
  Poisson,
  /// Open loop, sinusoidally modulated Poisson (thinning against the
  /// peak rate): a compressed diurnal demand curve whose peak is
  /// `arrival_hz` and trough is ~10% of it.
  Diurnal,
  /// Open loop, lognormal inter-arrivals (sigma 2) with the same mean
  /// rate but heavy-tailed gaps — long quiets punctured by bursts that
  /// slam the admission window all at once.
  HeavyTail,
};

/// One tenant of a multi-tenant lease workload: a group of client hosts
/// issuing requests at a per-client arrival rate. The default Closed
/// process keeps the legacy behaviour; the open-loop processes decouple
/// offered load from service and can multiplex thousands of simulated
/// clients per connection (a million-client ingress on a handful of
/// hosts). Leases are released from detached hold coroutines, so hold
/// times occupy the fleet without limiting the tenant's request rate.
struct TenantWorkload {
  std::string name = "tenant";
  unsigned clients = 4;     // client hosts dedicated to this tenant
  double arrival_hz = 5.0;  // per simulated client lease-request rate
  LeaseWorkload lease{};    // sizes, hold times, lease timeout, seed

  /// WFQ weight at the manager's admission layer; applied by
  /// run_multi_tenant_workload before the run when admission is
  /// configured (Config::admission).
  std::uint32_t weight = 1;
  /// Tenant identity presented in LeaseRequest.client_id by ALL of this
  /// tenant's clients (0 = legacy per-client ids). Admission fairness is
  /// keyed on this id, so weighted sharing needs every client of a
  /// tenant to present the same one. Incompatible with per-client
  /// notification subscriptions (subscribe_events/self_heal): the
  /// manager keeps one push stream per id.
  std::uint32_t tenant_id = 0;
  ArrivalProcess arrivals = ArrivalProcess::Closed;
  /// Simulated clients multiplexed on each real connection (open-loop
  /// processes only): the host fires `multiplex * arrival_hz` aggregate
  /// arrivals per second over one shared session.
  std::uint64_t multiplex = 1;
  /// Retries per arrival after an admission shed (0 = shed requests are
  /// simply counted as denied). Each retry waits
  /// max(retry_backoff * 2^attempt, the manager's retry_after hint)
  /// plus up to 25% upward jitter — the client-side retry-budget
  /// discipline that keeps retries from amplifying a storm.
  unsigned retry_budget = 0;
  Duration retry_backoff = 5_ms;
  /// Period of the Diurnal modulation.
  Duration diurnal_period = 60_s;
};

/// Per-tenant slice of a multi-tenant run.
struct TenantTrace : LeaseCounters {
  std::string name;
  std::uint32_t weight = 1;
};

struct MultiTenantTrace {
  UtilizationTrace aggregate;  // fleet samples + summed counters/latencies
  std::vector<TenantTrace> tenants;
};

class Harness {
 public:
  explicit Harness(ScenarioSpec spec);
  ~Harness();

  /// Spawns the resource manager and executor managers, then runs the
  /// engine briefly so registration completes.
  void start();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] fabric::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] net::TcpNetwork& tcp() { return *tcp_; }
  [[nodiscard]] rfaas::FunctionRegistry& registry() { return registry_; }
  [[nodiscard]] const rfaas::Config& config() const { return spec_.config; }
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] rfaas::ResourceManager& rm() { return *rm_; }

  [[nodiscard]] std::size_t executor_count() const { return executors_.size(); }
  [[nodiscard]] rfaas::ExecutorManager& executor(std::size_t i) { return *executors_.at(i); }

  [[nodiscard]] sim::Host& client_host(std::size_t i) { return *client_hosts_.at(i); }
  [[nodiscard]] fabric::Device& client_device(std::size_t i) { return *client_devices_.at(i); }

  /// Builds an invoker bound to client host `i`.
  std::unique_ptr<rfaas::Invoker> make_invoker(std::size_t client_host = 0,
                                               std::uint32_t client_id = 1);

  /// Spawns a scenario coroutine on the engine.
  void spawn(sim::Task<void> task) { sim::spawn(engine_, std::move(task)); }

  /// Runs the engine until no events remain (or `until` when nonzero).
  void run(Time until = 0);

  /// Runs the engine for `d` more virtual nanoseconds.
  void run_for(Duration d) { engine_.run_until(engine_.now() + d); }

  /// Drives every client host through `workload` for `horizon` virtual
  /// time while sampling cluster worker utilization every `sample_every`.
  /// The scenario must be start()ed first.
  UtilizationTrace run_lease_workload(const LeaseWorkload& workload, Duration horizon,
                                      Duration sample_every = 1_s);

  /// Drives the tenants concurrently for `horizon`: tenant i occupies the
  /// next `tenants[i].clients` client hosts (wrapping modulo the host
  /// count), each issuing lease requests at the tenant's arrival rate.
  /// The scenario must be start()ed first.
  MultiTenantTrace run_multi_tenant_workload(const std::vector<TenantWorkload>& tenants,
                                             Duration horizon, Duration sample_every = 1_s);

  /// Tally of one eviction storm (see start_eviction_storm()).
  struct StormStats {
    std::uint64_t requested = 0;  ///< eviction attempts issued
    std::uint64_t evicted = 0;    ///< leases actually live when evicted
  };

  /// Failure-injection knob: every `period`, evicts up to
  /// `leases_per_tick` random live leases (reason QuotaPressure) for
  /// `duration` virtual time. Deterministic for a fixed seed. Runs
  /// alongside a lease workload; read the tally after run()/run_for().
  std::shared_ptr<StormStats> start_eviction_storm(Duration period, unsigned leases_per_tick,
                                                   Duration duration, std::uint64_t seed = 99);

  /// Failure-injection knob: drains executor `index` — every lease it
  /// hosts is terminated (LeaseTerminated to both sides) and it receives
  /// no further placements. Returns the number of evicted leases, or
  /// nullopt when the executor is not (or no longer) registered.
  std::optional<std::size_t> drain_executor(std::size_t index);

  /// Attaches a warm standby to the current primary: snapshot install +
  /// live journal-record streaming (requires Config::journal_enabled).
  /// Returns nullptr when the primary has no journal or the snapshot
  /// offer is rejected.
  std::shared_ptr<rfaas::StandbyReplica> attach_standby();
  [[nodiscard]] std::size_t standby_count() const { return standbys_.size(); }

  /// Kills the current primary. Default: hard crash — listeners down,
  /// every established control stream severed, clients and executors
  /// see dead sessions. `zombie`: network isolation only — listeners
  /// down but established streams stay up, so the stale primary keeps
  /// answering in-flight calls until epoch fencing cuts it off.
  void kill_manager(bool zombie = false);

  /// Promotes standby `index` to primary: a fresh ResourceManager on the
  /// manager host/device (same address and port) adopts the replica's
  /// exported state under the old epoch + 1 and starts serving. Any
  /// remaining standbys are re-attached to the new primary. The retired
  /// manager object stays alive (parked coroutines reference it) but
  /// never serves again. Aborts if adoption fails — a digest-verified
  /// replica that cannot seed a manager is a replication bug.
  rfaas::ResourceManager& promote_standby(std::size_t index = 0);

  /// Schedules a failover inside a workload run: after `kill_after` the
  /// primary dies (crash or zombie), then `promote_after` later standby
  /// 0 is promoted. Attach a standby first; spawn before the run so the
  /// kill lands mid-horizon.
  void schedule_failover(Duration kill_after, Duration promote_after, bool zombie = false);

  /// The chaos decision source when ScenarioSpec::inject_faults is set
  /// (nullptr otherwise); tests add partitions or retune individual
  /// links through it.
  [[nodiscard]] net::FaultInjector* fault_injector() { return faults_.get(); }

  /// The executor-side fault source when ScenarioSpec::inject_worker_faults
  /// is set (nullptr otherwise); benches retune per-executor specs and
  /// read the crash/stuck/gray/double-execution counters through it.
  [[nodiscard]] net::WorkerFaultInjector* worker_fault_injector() { return worker_faults_.get(); }

  /// Black-holes the control link between client host `i` and the
  /// manager for virtual time [from, until). No-op without fault
  /// injection.
  void partition_client(std::size_t i, Time from, Time until);

  /// Post-drain leak gate: runs the engine for `grace` so in-flight
  /// releases and the expiry sweep land, then returns how many leases
  /// are still live in any shard's table. After every client drained, a
  /// nonzero result is a protocol bug (double-release miscount or a
  /// grant the client never learned it owns) — with
  /// ScenarioSpec::assert_drained set it aborts instead of returning.
  std::size_t leaked_leases_after(Duration grace);

  /// Re-sums the chaos counter block of `trace` from the client sessions
  /// of the most recent workload run. Call after a post-horizon drain:
  /// clients parked on a hold when the horizon hit keep their sessions
  /// (and late duplicate deliveries) live past run_lease_workload().
  void refresh_chaos_counters(UtilizationTrace& trace) const;

 private:
  // Heap-shared so client coroutines still parked on a hold/think delay
  // when the horizon ends can outlive run_lease_workload() safely.
  struct WorkloadCounters : LeaseCounters {
    /// Every session the run's clients opened (request + notification),
    /// harvested when traces are built — kept as shared_ptrs so chaos
    /// counters stay readable after the owning loop unwound.
    std::vector<std::shared_ptr<rfaas::Session>> sessions;
  };

  /// Starts workload client `client`: a LeaseSet dialed into the manager
  /// (nullptr, a client death, when the dial fails). When `tracked`, the
  /// workload's renewal, subscription and healing run on it too, their
  /// callbacks feeding `out`.
  sim::Task<std::shared_ptr<rfaas::LeaseSet>> open_client(std::size_t client,
                                                         const LeaseWorkload& workload,
                                                         bool tracked,
                                                         std::shared_ptr<WorkloadCounters> out);

  /// One lease round trip for `workers`, accounted into `out`
  /// (granted/denied/shed + grant latency). Shared by every client loop.
  sim::Task<rfaas::LeaseOutcome> request_lease(rfaas::LeaseSet& leases, std::uint32_t client_id,
                                               std::uint32_t workers,
                                               const LeaseWorkload& workload,
                                               WorkloadCounters& out);

  /// request_lease wrapped in the client-side retry-budget discipline:
  /// an admission shed is retried up to `workload.retry_budget` times,
  /// spaced by rfaas::RetryBackoff with 25% jitter from `rng`. Grant
  /// latency spans the whole retried attempt (first send -> grant).
  sim::Task<rfaas::LeaseOutcome> request_lease_with_retries(rfaas::LeaseSet& leases,
                                                            std::uint32_t client_id,
                                                            std::uint32_t workers,
                                                            const TenantWorkload& workload,
                                                            Rng& rng, Time deadline,
                                                            WorkloadCounters& out);

  /// Bounded redial of one workload client after its session died:
  /// rfaas::LeaseSet::reconnect() up to ScenarioSpec's attempt budget,
  /// then, for a `tracked` client, revalidation of the leases it held
  /// across the outage. False when the budget ran dry.
  sim::Task<bool> reconnect_client(rfaas::LeaseSet& leases, bool tracked, Time deadline,
                                   WorkloadCounters& out);

  sim::Task<void> lease_client_loop(std::size_t client, LeaseWorkload workload,
                                    std::uint64_t seed, Time deadline,
                                    std::shared_ptr<WorkloadCounters> out);
  sim::Task<void> tenant_client_loop(std::size_t client, TenantWorkload workload,
                                     std::uint64_t seed, Time deadline,
                                     std::shared_ptr<WorkloadCounters> out);
  /// Open-loop generator of one tenant client host: fires arrivals at
  /// the aggregate rate of `workload.multiplex` simulated clients as
  /// detached request coroutines over one shared session — offered load
  /// never waits for service (ArrivalProcess::Poisson/Diurnal/HeavyTail).
  sim::Task<void> open_loop_tenant_loop(std::size_t client, TenantWorkload workload,
                                        std::uint64_t seed, Time deadline,
                                        std::shared_ptr<WorkloadCounters> out);
  /// One open-loop arrival: retried lease request, hold and release on
  /// grant.
  sim::Task<void> open_loop_request(std::shared_ptr<rfaas::LeaseSet> leases,
                                    std::uint32_t client_id, std::uint32_t workers,
                                    TenantWorkload workload, std::uint64_t seed, Time deadline,
                                    std::shared_ptr<WorkloadCounters> out);
  sim::Task<void> eviction_storm_loop(Duration period, unsigned leases_per_tick,
                                      Time deadline, std::uint64_t seed,
                                      std::shared_ptr<StormStats> out);
  sim::Task<void> sample_utilization(std::shared_ptr<std::vector<UtilizationTrace::Sample>> out,
                                     Time deadline, Duration every);

  ScenarioSpec spec_;
  sim::Engine engine_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<net::TcpNetwork> tcp_;
  std::unique_ptr<net::FaultInjector> faults_;
  std::unique_ptr<net::WorkerFaultInjector> worker_faults_;
  rfaas::FunctionRegistry registry_;

  /// Counter sinks of the most recent workload run, kept so
  /// refresh_chaos_counters() can re-sum them after a drain.
  std::vector<std::shared_ptr<WorkloadCounters>> last_sinks_;

  std::unique_ptr<sim::Host> rm_host_;
  fabric::Device* rm_device_ = nullptr;
  std::unique_ptr<rfaas::ResourceManager> rm_;
  /// Warm standbys attached to the current primary (promotion consumes
  /// one and re-attaches the rest).
  std::vector<std::shared_ptr<rfaas::StandbyReplica>> standbys_;
  /// Managers retired by promote_standby(): dead to the network but kept
  /// alive because their parked coroutine frames still reference them.
  std::vector<std::unique_ptr<rfaas::ResourceManager>> retired_rms_;

  std::vector<std::unique_ptr<sim::Host>> executor_hosts_;
  std::vector<fabric::Device*> executor_devices_;
  std::vector<std::unique_ptr<rfaas::ExecutorManager>> executors_;

  std::vector<std::unique_ptr<sim::Host>> client_hosts_;
  std::vector<fabric::Device*> client_devices_;
};

}  // namespace rfs::cluster
