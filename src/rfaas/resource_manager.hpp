// Resource manager (Sec. III-A/III-B).
//
// The manager optimizes the FaaS control plane by splitting allocation
// from invocation: clients involve it exactly once per allocation to
// acquire a *lease* on a spot executor; all warm and hot invocations
// bypass it entirely. All allocation state lives in the sharded core
// (src/rfaas/sharded_manager.hpp): per-shard ExecutorRegistry + pluggable
// Scheduler, power-of-two shard routing and cross-shard work stealing.
// With Config::manager_shards == 1 (the default) the core degenerates to
// the classic single lock-protected manager.
//
// The serialization a real manager pays — one critical section per lease
// decision — is modeled by per-shard grant gates: every LeaseRequest
// holds its routed shard's gate for `lease_processing`, so a single-shard
// manager processes grants strictly one at a time while an N-shard
// manager sustains N concurrent decisions. That contention difference is
// exactly what fig02's large-fleet comparison measures.
//
// The manager also hosts the billing database updated by executor
// managers with RDMA atomics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/tcp.hpp"
#include "rdmalib/connection.hpp"
#include "rfaas/admission.hpp"
#include "rfaas/billing.hpp"
#include "rfaas/config.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/replica.hpp"
#include "rfaas/scheduler.hpp"
#include "rfaas/sharded_manager.hpp"
#include "sim/host.hpp"
#include "sim/sync.hpp"

namespace rfs::rfaas {

class ResourceManager {
 public:
  ResourceManager(sim::Engine& engine, fabric::Fabric& fabric, net::TcpNetwork& tcp,
                  sim::Host& host, fabric::Device& device, Config config);

  /// Starts the TCP control server, the RDMA billing listener and the
  /// heartbeat loop.
  void start();
  void stop();

  // ---- Replication / failover (docs/FAULT_TOLERANCE.md) ----

  /// Crash fault injection: kills the manager abruptly — listeners shut
  /// down AND every established control/notification stream closes, the
  /// way a dead process's sockets do. Clients and executors observe the
  /// closure and run their reconnect paths against the promoted standby.
  void crash();

  /// Zombie fault injection: the manager stops accepting new connections
  /// (a partition from everything that would redial) but keeps serving
  /// its established streams — the stale-primary scenario the epoch
  /// fencing must defeat.
  void isolate();

  /// Seeds a fresh (not yet start()ed) manager from a standby's exported
  /// state under a bumped manager epoch: the promotion path. Rebuilds
  /// the per-device registration-epoch fence from the restored executor
  /// table, so the old primary's sessions stay fenced.
  Status adopt(const ShardedResourceManager::ManagerState& state, std::uint32_t epoch);

  /// Attaches a warm standby: installs a digest-verified snapshot of the
  /// current state, then streams every subsequent journal record to it
  /// through the wire encoding (encode -> apply_wire), keeping the
  /// replica in lockstep. Requires Config::journal_enabled.
  Status attach_standby(std::shared_ptr<StandbyReplica> standby);

  /// Current manager epoch (1 at first boot; promotion installs old + 1).
  [[nodiscard]] std::uint32_t manager_epoch() const { return manager_epoch_; }
  /// True when this manager was seeded from a standby via adopt().
  [[nodiscard]] bool restored() const { return restored_; }
  /// LeaseRevalidate requests answered (failover lease re-validation).
  [[nodiscard]] std::uint64_t revalidations() const { return revalidations_; }
  /// Journal records a standby failed to apply (replication divergence).
  [[nodiscard]] std::uint64_t replication_errors() const { return replication_errors_; }
  /// Executors re-attached in place (leases preserved) after a failover.
  [[nodiscard]] std::uint64_t reattached_executors() const { return reattached_executors_; }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t rdma_port() const { return rdma_port_; }
  [[nodiscard]] fabric::Device& device() { return device_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] BillingDatabase& billing() { return billing_; }

  /// Introspection for tests and benches. `registry()`/`scheduler()`
  /// view shard 0 — the whole manager when manager_shards == 1; use
  /// `core()` for per-shard state of a sharded manager.
  [[nodiscard]] const ShardedResourceManager& core() const { return core_; }
  [[nodiscard]] const ExecutorRegistry& registry() const { return core_.registry(0); }
  [[nodiscard]] const Scheduler& scheduler() const { return core_.scheduler(0); }
  [[nodiscard]] std::size_t registered_executors() const { return core_.size(); }
  [[nodiscard]] std::size_t alive_executors() const { return core_.alive_count(); }
  [[nodiscard]] std::size_t active_leases() const { return core_.active_leases(); }
  [[nodiscard]] std::uint32_t free_workers_total() const { return core_.free_workers_total(); }
  [[nodiscard]] std::uint32_t total_workers() const { return core_.total_workers(); }

  // ---- Manager-initiated reclamation (docs/FAULT_TOLERANCE.md) ----

  /// Terminates the given leases ahead of their deadlines: capacity
  /// returns to the pool immediately and LeaseTerminated is pushed to
  /// each hosting executor (sandbox teardown) and each owning client's
  /// notification stream. Returns how many leases were actually live.
  std::size_t evict_leases(const std::vector<std::uint64_t>& lease_ids,
                           TerminationReason reason);

  /// Drains the executor registered for fabric device `device`: all its
  /// leases are evicted (reason Drain) and it receives no further
  /// placements. Returns the number of evicted leases, or nullopt when
  /// no alive executor is registered for that device.
  std::optional<std::size_t> drain_executor_on_device(std::uint32_t device);

  /// Runs one rebalance sweep now (also runs periodically when
  /// Config::rebalance_period > 0): migrates executor registrations from
  /// the fullest shard to the emptiest and evicts (reason Rebalance) the
  /// active leases of every migrated executor.
  ShardedResourceManager::RebalanceReport rebalance_now();

  /// Periodic rebalance sweeps skipped by the storm-aware backoff: rounds
  /// in which the eviction counter was still rising when the sweep came
  /// due (manual rebalance_now() calls are never skipped).
  [[nodiscard]] std::uint64_t rebalance_sweeps_skipped() const { return rebalance_skips_; }

  /// Eviction-notification coalescing: total evicted leases announced,
  /// and how many push messages carried them. A sweep that evicts N
  /// leases hosted on one executor and owned by one client costs two
  /// messages (one batched LeasesTerminated per stream), not 2N.
  [[nodiscard]] std::uint64_t evictions_notified() const { return evictions_notified_; }
  [[nodiscard]] std::uint64_t notification_messages() const { return notification_messages_; }

  /// Ingress admission control (Config::admission): the token-bucket +
  /// WFQ early-shed layer every LeaseRequest/BatchAllocate passes before
  /// any shard lock or eviction work. Mutable access lets tests and
  /// benches adjust tenant weights/rates mid-run.
  [[nodiscard]] Admission& admission() { return admission_; }
  [[nodiscard]] const Admission& admission() const { return admission_; }

  /// Retransmitted requests answered from the per-stream dedup table
  /// instead of re-running the decision (each hit is a double-grant or
  /// double-release that did not happen).
  [[nodiscard]] std::uint64_t dedup_hits() const { return dedup_hits_; }
  /// Re-registrations refused because a newer epoch already owns the
  /// device (stale-session fencing).
  [[nodiscard]] std::uint64_t fenced_registrations() const { return fenced_registrations_; }

  /// Client HealthReport messages processed (each one = a circuit-breaker
  /// trip some client observed against an executor).
  [[nodiscard]] std::uint64_t health_reports() const { return health_reports_; }
  /// Executors drained because their trip count reached
  /// kQuarantineTrips.
  [[nodiscard]] std::uint64_t quarantined_executors() const { return quarantined_executors_; }

 private:
  sim::Task<void> run_server();
  sim::Task<void> handle_stream(std::shared_ptr<net::TcpStream> stream);
  sim::Task<void> run_billing_accept();
  sim::Task<void> heartbeat_loop();
  sim::Task<void> rebalance_loop();

  /// Pushes termination notices to each hosting executor's registration
  /// stream and each owning client's notification stream. Notices to the
  /// same stream coalesce into one LeasesTerminated message per sweep (a
  /// single eviction keeps the legacy LeaseTerminated form).
  void notify_evictions(const std::vector<ShardedResourceManager::Eviction>& evictions,
                        TerminationReason reason);

  /// Builds the reply for one lease request; sets `stolen` when the
  /// placement was stolen from another shard (the caller bills the
  /// second decision scan).
  Bytes grant_lease(const LeaseRequestMsg& req, std::uint32_t client_locality,
                    std::uint32_t shard, bool& stolen);

  /// Builds the BatchGranted reply for one batched allocation; sets
  /// `extra_shards` to the number of shards beyond the routed one the
  /// batch touched (the caller bills one extra decision scan each).
  Bytes grant_batch(const BatchAllocateMsg& req, std::uint32_t client_locality,
                    std::uint32_t shard, std::uint32_t& extra_shards);
  void mark_executor_dead(std::uint64_t executor_id);

  /// The RegisterOk reply (billing window + rdma port) shared by fresh
  /// registrations and failover re-attachments.
  Bytes make_register_ok(std::uint64_t request_id);

  sim::Engine& engine_;
  fabric::Fabric& fabric_;
  net::TcpNetwork& tcp_;
  sim::Host& host_;
  fabric::Device& device_;
  Config config_;

  std::uint16_t port_ = 6000;
  std::uint16_t rdma_port_ = 6001;
  bool alive_ = false;

  fabric::ProtectionDomain* pd_ = nullptr;
  BillingDatabase billing_;
  std::vector<std::unique_ptr<rdmalib::Connection>> billing_conns_;

  ShardedResourceManager core_;
  /// Ingress admission: evaluated before routing, shard gates, or any
  /// eviction work — the cheap early-shed path.
  Admission admission_;
  /// One FIFO gate per shard: the simulated critical section of a lease
  /// decision (grant and renew both pass through it).
  std::vector<std::unique_ptr<sim::Mutex>> grant_gates_;

  /// Notification streams by client id (SubscribeEvents): where
  /// LeaseTerminated pushes for that tenant's leases go.
  std::map<std::uint32_t, std::shared_ptr<net::TcpStream>> subscribers_;
  /// Current executor id per registration stream. Rebalance migrations
  /// re-tag an executor's id, so heartbeat acks and disconnects resolve
  /// the id through this table instead of a value captured at
  /// registration time.
  std::map<const net::TcpStream*, std::uint64_t> executor_ids_;
  /// Highest registration epoch seen per device, with the executor id it
  /// granted. A RegisterExecutor carrying an older (nonzero) epoch is a
  /// retransmission from a session the executor already abandoned:
  /// refuse it, or the device's capacity would be counted twice.
  struct RegistrationEpoch {
    std::uint64_t epoch = 0;
    std::uint64_t executor_id = 0;
  };
  std::map<std::uint32_t, RegistrationEpoch> executor_epochs_;
  /// Monotonic sequence number per push stream (executor registration and
  /// client notification streams): lets the receiving session discard
  /// duplicated deliveries of eviction pushes.
  std::map<const net::TcpStream*, std::uint64_t> push_seqs_;
  /// Executor moves per rebalance sweep, at most.
  static constexpr unsigned kRebalanceMaxMoves = 4;
  /// Breaker trips (HealthReports) of one executor before it is drained.
  static constexpr std::uint32_t kQuarantineTrips = 2;
  /// Storm-aware backoff state of rebalance_loop(): the eviction count
  /// observed at the end of the previous round, and how many rounds the
  /// backoff skipped because the counter was still rising.
  std::uint64_t rebalance_last_evictions_ = 0;
  std::uint64_t rebalance_skips_ = 0;
  /// Notification-coalescing counters (evicted leases vs push messages).
  std::uint64_t evictions_notified_ = 0;
  std::uint64_t notification_messages_ = 0;
  std::uint64_t dedup_hits_ = 0;
  std::uint64_t fenced_registrations_ = 0;

  /// Gray-failure quarantine state: breaker-trip reports per device (the
  /// trigger counts trips, not raw failures) and the report/drain tallies.
  std::map<std::uint32_t, std::uint32_t> health_trip_counts_;
  std::uint64_t health_reports_ = 0;
  std::uint64_t quarantined_executors_ = 0;

  /// Failover state: the manager epoch every promotion bumps, and every
  /// established server-side stream (weak — the coroutine frames own
  /// them) so crash() can sever them the way a dying process would.
  std::uint32_t manager_epoch_ = 1;
  bool restored_ = false;
  Time promoted_at_ = 0;
  std::vector<std::weak_ptr<net::TcpStream>> server_streams_;
  std::uint64_t revalidations_ = 0;
  std::uint64_t replication_errors_ = 0;
  std::uint64_t reattached_executors_ = 0;
};

}  // namespace rfs::rfaas
