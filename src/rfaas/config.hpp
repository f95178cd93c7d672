// rFaaS platform configuration: calibration constants for invocation
// overheads, sandbox models and billing rates. Defaults reproduce the
// paper's measured values (Sec. V-A, Fig. 9, Sec. IV-C).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "fabric/model.hpp"

namespace rfs::rfaas {

/// Sandbox/isolation technology of a user-code executor.
enum class SandboxType : std::uint8_t {
  BareMetal,  // plain Linux process
  Docker,     // container with SR-IOV virtual function passthrough
};

/// Lease-placement policy of the resource manager's scheduling layer
/// (src/rfaas/scheduler.hpp). The paper keeps the manager off the hot
/// path, so the policy only affects allocation, never invocation.
enum class SchedulingPolicy : std::uint8_t {
  RoundRobin,         // seed-equivalent scan over executors with capacity
  LeastLoaded,        // most free workers first; balances heterogeneous fleets
  PowerOfTwoChoices,  // two random candidates, locality-preferring tie-break
  LocalityFirst,      // client's rack (and its shard) first, else power-of-two
};

const char* to_string(SchedulingPolicy p);

/// Cost model of one sandbox technology.
struct SandboxModel {
  /// Creating the sandbox + starting the executor process. The paper
  /// measures ~25 ms bare-metal and ~2.7 s for Docker with SR-IOV.
  Duration spawn_latency = 25_ms;

  /// Extra per-invocation latency on the critical path caused by the
  /// virtualized NIC (measured: +50 ns hot, +650 ns warm for Docker).
  Duration hot_invocation_overhead = 0;
  Duration warm_invocation_overhead = 0;

  /// Relative slowdown of user code inside the sandbox (cgroups, seccomp,
  /// virtual memory overheads); Fig. 11 shows ~1.7x for the Docker
  /// thumbnailer and ~1.05x for inference.
  double compute_multiplier = 1.0;
};

/// Billing rates of the three cost components (Sec. IV-C):
/// C = Ca * ta + Cc * tc + Ch * th.
struct BillingRates {
  double allocation_per_gb_s = 0.15e-4;  // Ca: memory reservation, per GB-second
  double compute_per_s = 0.45e-4;        // Cc: busy execution, per core-second
  double hot_poll_per_s = 0.30e-4;       // Ch: hot polling occupancy, per core-second
};

/// Ingress admission control of the resource manager (0 rates = the
/// feature is off, the pre-admission behaviour). Two mechanisms compose
/// (src/rfaas/admission.hpp): a per-tenant token bucket *polices*
/// absolute request rates, and a start-time-fair-queueing credit check
/// *shares* the manager's aggregate admission capacity by tenant weight
/// when demand exceeds it. Both shed with `LeaseDenied{Overload,
/// retry_after}` before any shard lock, placement scan or quota-eviction
/// work — rejecting must stay near-free under overload, or overload
/// turns into collapse.
struct AdmissionConfig {
  /// Aggregate admission capacity (requests/s) shared by all tenants
  /// under WFQ (0 disables the capacity/WFQ layer). The capacity bucket
  /// holds capacity_hz/100 requests of burst (min 1): about 10 ms at
  /// line rate.
  double capacity_hz = 0;
  /// Default per-tenant policing rate (requests/s; 0 disables policing
  /// for tenants without an explicit override).
  double tenant_rate_hz = 0;
  /// Default per-tenant policing burst (requests; 0 = tenant_rate_hz/100,
  /// min 1).
  double tenant_burst = 0;
  /// WFQ lag credit: how many admissions a tenant of weight w may run
  /// ahead of the global virtual time (credit * w requests of burst
  /// before weight-proportional shedding kicks in).
  double wfq_credit = 8;
  /// Explicit per-tenant weights, applied at manager construction
  /// (tenant id, weight); every other tenant has weight 1. Weights can
  /// also be set later through Admission::set_weight.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tenant_weights;
  /// Bounds of the retry_after hint carried by LeaseDenied.
  Duration retry_after_min = 1_ms;
  Duration retry_after_max = 2_s;

  [[nodiscard]] bool enabled() const { return capacity_hz > 0 || tenant_rate_hz > 0; }
};

/// Data-plane fault tolerance of the client's Invoker (all off by
/// default — the seed behaviour: an invocation waits forever and trusts
/// every response byte). When `invocation_deadline` is nonzero the
/// invoker stamps idempotent invocation tags and absolute deadlines into
/// the 32-byte header, surfaces a timeout instead of hanging when an
/// executor dies after submit, and retries on another held worker up to
/// `retry_budget` times (the executor dedup table guarantees a retried
/// invocation never double-executes). Hedging launches a backup on a
/// second warm worker after `hedge_delay`; first response wins, the
/// loser is cancelled. A per-executor EWMA and circuit breaker
/// (HealthTracker) feed gray-failure detection: a tripped breaker steers
/// traffic off the executor and reports it to the resource manager,
/// which quarantines (drains) it after ResourceManager::kQuarantineTrips
/// trips.
struct FaultToleranceConfig {
  /// Per-invocation deadline (0 = unbounded, the seed behaviour).
  Duration invocation_deadline = 0;
  /// Retries after a timeout/corruption, rotating across held workers.
  std::uint32_t retry_budget = 2;
  /// Launch a backup invocation on a second warm worker when the first
  /// has not answered after `hedge_delay`.
  bool hedging = false;
  /// Hedge trigger (0 = auto: a multiple of the observed EWMA latency).
  Duration hedge_delay = 0;
  /// Open -> HalfOpen probe delay of the circuit breaker.
  Duration breaker_open_timeout = 50_ms;
  /// Stamp and verify payload checksums (request header field + the
  /// 12-bit response imm checksum); a mismatch counts as a failure and
  /// triggers a retry.
  bool checksum = false;

  [[nodiscard]] bool enabled() const { return invocation_deadline != 0; }
};

struct Config {
  fabric::NetworkModel network{};

  /// Executor-side dispatch: parse the 32 B header, look up the function
  /// index, call through the trampoline. Calibrated so that a hot no-op
  /// invocation costs ~326 ns over the raw RDMA round trip.
  Duration executor_dispatch = 170;

  /// Client-side completion handling: match the immediate value to the
  /// pending invocation and flip the future.
  Duration client_completion = 150;

  /// Warm path only: re-arming the completion channel and transitioning
  /// the worker thread in/out of the blocked state.
  Duration warm_rearm = 1200;

  /// Warm path only: the single local RDMA communication between the user
  /// code executor and its allocator that verifies resource status.
  Duration warm_resource_check = 900;

  /// Worker thread creation + core pinning during cold start.
  Duration worker_spawn = 180_us;

  /// Code package instantiation after transfer (dlopen + relocations).
  Duration code_install_base = 800_us;
  Duration code_install_per_kb = 4_us;

  /// Executor manager processing of an allocation request.
  Duration allocation_processing = 350_us;

  /// Resource manager lease decision processing.
  Duration lease_processing = 120_us;

  /// Receive buffer size of each worker (bounds the max payload).
  std::uint64_t worker_buffer_bytes = 8_MiB;

  /// Output buffer size of each worker; 0 means "same as the receive
  /// buffer". It sets the modelled registration cost of the output
  /// buffer: benches with asymmetric payloads (large in, small out)
  /// register a small one. Host memory follows only the pages a run
  /// writes either way (rdmalib::Buffer maps lazily).
  std::uint64_t worker_out_buffer_bytes = 0;

  /// Heartbeat period of the resource manager. Also the granularity of
  /// manager-side lease-expiry reclamation: the heartbeat loop sweeps
  /// expired leases, so an expired lease can hold its capacity for up to
  /// one extra period. (Executors enforce expiry on their side exactly.)
  Duration heartbeat_period = 1_s;

  /// Lease oversubscription: the resource manager hands out up to
  /// cores * factor worker leases per executor. "Large amounts of free
  /// memory can be used to retain more warm sandboxes than available CPU
  /// cores" (Sec. III-D); warm invocations are rejected when the cores
  /// are actually busy.
  double lease_oversubscription = 1.0;

  /// Idle executor reaping threshold of the lightweight allocator.
  Duration executor_idle_timeout = 60_s;

  /// Warm sandbox pool of the executor manager (0 = disabled, the
  /// seed behaviour). When enabled, retired sandboxes — lease expired,
  /// terminated, deallocated or reaped — park in a bounded keep-alive
  /// pool instead of tearing down: the executor process, its workers and
  /// their registered RDMA buffers stay alive, so a repeat allocation of
  /// the same shape by the same tenant revives in `warm_pool_revive`
  /// instead of paying sandbox spawn + buffer registration + worker
  /// spawn. Pooled sandboxes hold their host memory reservation (the
  /// provider-funded cost of keep-alive; clients are not billed for it).
  std::uint32_t warm_pool_capacity = 0;

  /// Predictive eviction (the SeBS keep-alive model): a pooled sandbox's
  /// keep-alive horizon is predicted from its function's observed idle
  /// times (ExecutorManager::keepalive_horizon) and clamped to these
  /// bounds. Functions with no history yet get the max (optimistic start).
  Duration warm_pool_min_keepalive = 1_s;
  Duration warm_pool_max_keepalive = 120_s;
  Duration warm_pool_sweep_period = 1_s;

  /// Reviving a pooled sandbox on a warm hit: rebind the allocation and
  /// signal the worker threads (process and registrations are live).
  Duration warm_pool_revive = 50_us;

  /// How often executor managers flush accounting to the billing DB.
  Duration billing_flush_period = 2_s;

  /// Shards of the resource manager's allocation core. 1 reproduces the
  /// single lock-protected manager exactly; N > 1 splits the executor
  /// population over N registries with power-of-two-choices routing and
  /// cross-shard work stealing (src/rfaas/sharded_manager.hpp), so lease
  /// grant/renew/expiry only ever contends on one shard.
  unsigned manager_shards = 1;

  /// Ingress admission control (token bucket + WFQ early shed); disabled
  /// by default — see AdmissionConfig above.
  AdmissionConfig admission{};

  /// Data-plane fault tolerance (deadlines/retries/hedging/breakers);
  /// disabled by default — see FaultToleranceConfig above.
  FaultToleranceConfig fault_tolerance{};

  /// Tenant worker quota (0 = no quota policy). When a lease request is
  /// denied for lack of capacity, the manager evicts leases of tenants
  /// holding more than this many workers (LeasesTerminated pushed to the
  /// executor and the owning client) and retries the placement once —
  /// quota-pressure fast reclamation (docs/FAULT_TOLERANCE.md).
  std::uint32_t tenant_quota_workers = 0;

  /// Period of the shard rebalance sweep (0 = disabled). Each sweep
  /// migrates executor registrations from the fullest shard to the
  /// emptiest while the max/min schedulable-capacity skew exceeds
  /// `rebalance_max_skew`, at most four moves per sweep. A periodic sweep
  /// is skipped while the eviction counter still rises (see
  /// ResourceManager::rebalance_sweeps_skipped).
  Duration rebalance_period = 0;
  double rebalance_max_skew = 1.5;

  /// Executor re-registration attempts after its manager session dies
  /// (manager crash/failover). 0 keeps the pre-HA behaviour: the session
  /// loss is permanent and the executor waits to be reaped. Each attempt
  /// bumps the registration epoch, so a zombie primary's stale session
  /// is fenced by the epoch machinery.
  unsigned executor_reconnect_attempts = 0;

  /// Backoff between executor re-registration attempts.
  Duration executor_reconnect_backoff = 50_ms;

  /// Lease scheduling policy and its knobs.
  SchedulingPolicy scheduling = SchedulingPolicy::RoundRobin;
  /// Seed of the randomized policies (power-of-two-choices); placements
  /// are fully deterministic for a fixed seed.
  std::uint64_t scheduler_seed = 42;

  SandboxModel bare_metal{};
  SandboxModel docker{2700_ms, 50, 650, 1.7};

  BillingRates billing{};

  [[nodiscard]] const SandboxModel& sandbox(SandboxType t) const {
    return t == SandboxType::Docker ? docker : bare_metal;
  }
};

}  // namespace rfs::rfaas
