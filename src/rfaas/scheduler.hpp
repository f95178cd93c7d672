// Lease-scheduling layer of the resource manager (Sec. III-A/III-C).
//
// The paper's key control-plane split — allocation through the resource
// manager, invocation bypassing it — means the placement policy only runs
// once per lease and never on the hot path. This file separates the two
// concerns the seed kept fused inside ResourceManager::grant_lease:
//
//  * ExecutorRegistry — the ground truth about spot executors: capacity,
//    liveness, heartbeat bookkeeping and reclamation. A future sharded
//    resource manager reuses it per shard.
//  * Scheduler — a pluggable placement policy consulted for every lease
//    decision. Policies see the registry read-only and return a Placement;
//    the resource manager commits it through ExecutorRegistry::try_claim,
//    which revalidates liveness and capacity (the executor may have died
//    between scan and grant).
//
// Policies (selectable via Config::scheduling):
//  * RoundRobin — the seed's behavior, bit-for-bit: scan from the cursor,
//    grant min(free, requested) workers on the first fitting executor.
//  * LeastLoaded — pick the executor with the most free workers; balances
//    heterogeneous fleets and raises cluster utilization (Fig. 2).
//  * PowerOfTwoChoices — sample two random candidates, prefer the one in
//    the client's topology group, else the less loaded; O(1) per decision
//    with near-optimal balance, the classic two-choices result.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/tcp.hpp"
#include "rfaas/config.hpp"
#include "rfaas/protocol.hpp"

namespace rfs::rfaas {

/// State of one registered spot executor.
struct ExecutorEntry {
  RegisterExecutorMsg info;
  std::uint32_t total_workers = 0;  // cores * oversubscription
  std::uint32_t free_workers = 0;
  std::uint64_t free_memory = 0;
  bool alive = true;
  /// Draining: the host stays alive (heartbeats continue) but its
  /// capacity left the schedulable pool — no new placements, and
  /// released leases do not return workers to it.
  bool draining = false;
  /// Degraded: a client HealthReport tripped this executor's circuit
  /// breaker (gray failure — reachable but slow/failing). Capacity stays
  /// in the pool, but every policy deprioritizes the executor: placements
  /// land here only when no healthy executor fits.
  bool degraded = false;
  Time last_ack = 0;
  std::uint32_t locality = 0;  // topology group of the executor NIC
  std::shared_ptr<net::TcpStream> stream;

  /// Eligible to host new leases.
  [[nodiscard]] bool schedulable() const { return alive && !draining; }
};

/// Registry of spot executors: capacity accounting, heartbeat bookkeeping
/// and reclamation. Owned by the resource manager; read by schedulers.
///
/// The liveness and capacity aggregates are maintained incrementally on
/// every add/claim/release/death/drain, so alive_count(),
/// free_workers_total() and total_workers() are O(1) reads instead of
/// O(executors) scans — they sit on utilization sampling and snapshot
/// paths that used to wait behind grants.
///
/// Mutations must be made one at a time by the owner (the sharded manager holds
/// its shard's write lock). free_workers_total() and total_workers() may
/// additionally be read without that lock: they are relaxed atomics, the
/// values shard routing and work stealing decide on.
class ExecutorRegistry {
 public:
  /// Registers an executor; returns its stable index.
  std::size_t add(ExecutorEntry entry);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] ExecutorEntry& at(std::size_t i) { return entries_.at(i); }
  [[nodiscard]] const ExecutorEntry& at(std::size_t i) const { return entries_.at(i); }

  /// Alive executors (incremental counter, O(1)).
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }
  /// Free workers over schedulable executors (incremental, O(1), lock-free).
  [[nodiscard]] std::uint32_t free_workers_total() const {
    return free_workers_total_.load(std::memory_order_relaxed);
  }
  /// Total workers over schedulable executors (incremental, O(1), lock-free).
  [[nodiscard]] std::uint32_t total_workers() const {
    return total_workers_.load(std::memory_order_relaxed);
  }

  /// Commits a placement: claims `workers` workers and `memory` bytes on
  /// executor `i`. Fails (false) when the executor died between the
  /// scheduling decision and the commit, or no longer has the capacity.
  bool try_claim(std::size_t i, std::uint32_t workers, std::uint64_t memory);

  /// Returns capacity reclaimed from a released or expired lease. No-op
  /// on a dead executor: its counters were zeroed at death.
  void release(std::size_t i, std::uint32_t workers, std::uint64_t memory);

  /// Marks an executor dead and zeroes its capacity (fast reclamation).
  void mark_dead(std::size_t i);

  /// Marks an executor draining: it stays alive but its capacity leaves
  /// the schedulable pool (free workers zeroed, no future claims).
  void set_draining(std::size_t i);

  /// Flags (or clears) gray-failure degradation. Unlike draining this
  /// keeps the capacity schedulable — policies merely deprioritize it.
  void set_degraded(std::size_t i, bool degraded);
  /// Currently degraded executors (incremental counter, O(1)).
  [[nodiscard]] std::size_t degraded_count() const { return degraded_count_; }

 private:
  std::vector<ExecutorEntry> entries_;
  std::size_t alive_count_ = 0;
  std::size_t degraded_count_ = 0;
  std::atomic<std::uint32_t> free_workers_total_{0};  // over schedulable entries
  std::atomic<std::uint32_t> total_workers_{0};       // over schedulable entries
};

/// One placement decision: grant `workers` on executor `executor`,
/// claiming `memory` bytes. Partial grants are allowed — the client
/// library aggregates leases until it reaches the requested parallelism
/// (Sec. III-D).
struct Placement {
  std::size_t executor = 0;
  std::uint32_t workers = 0;
  std::uint64_t memory = 0;  // total bytes claimed on that executor
};

/// The slice of a lease request a policy needs, plus the client's
/// topology group (derived from its TCP stream, not the wire protocol).
struct ScheduleRequest {
  std::uint32_t workers = 1;
  std::uint64_t memory_per_worker = 0;
  std::uint32_t client_locality = 0;
};

/// Placement-policy interface. Implementations may keep internal state
/// (cursor, RNG) but must be deterministic for a fixed seed.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Picks an executor for (part of) the request. `excluded[i]` marks
  /// executors already tried and refused during this grant (e.g. found
  /// dead at commit); policies must skip them. Returns nullopt when no
  /// eligible executor has capacity.
  ///
  /// Degradation-aware: runs the policy once over healthy executors only,
  /// and falls back to a second pass admitting degraded (gray) executors
  /// when nothing healthy fits — capacity beats latency, but only as a
  /// last resort.
  [[nodiscard]] std::optional<Placement> place(const ExecutorRegistry& registry,
                                               const ScheduleRequest& request,
                                               const std::vector<bool>& excluded) {
    if (auto p = place_pass(registry, request, excluded, /*allow_degraded=*/false)) return p;
    if (registry.degraded_count() == 0) return std::nullopt;
    return place_pass(registry, request, excluded, /*allow_degraded=*/true);
  }

  /// One policy pass. When `allow_degraded` is false, degraded executors
  /// are invisible to the policy.
  [[nodiscard]] virtual std::optional<Placement> place_pass(const ExecutorRegistry& registry,
                                                            const ScheduleRequest& request,
                                                            const std::vector<bool>& excluded,
                                                            bool allow_degraded) = 0;
};

/// Seed-equivalent round-robin scan.
class RoundRobinScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "round-robin"; }
  [[nodiscard]] std::optional<Placement> place_pass(const ExecutorRegistry& registry,
                                                    const ScheduleRequest& request,
                                                    const std::vector<bool>& excluded,
                                                    bool allow_degraded) override;

 private:
  std::size_t next_ = 0;  // scan start cursor
};

/// Most-free-workers-first; ties broken by lowest index.
class LeastLoadedScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "least-loaded"; }
  [[nodiscard]] std::optional<Placement> place_pass(const ExecutorRegistry& registry,
                                                    const ScheduleRequest& request,
                                                    const std::vector<bool>& excluded,
                                                    bool allow_degraded) override;
};

/// Two random candidates; prefer the client's topology group, else the
/// less loaded one. Falls back to a full scan when sampling finds no
/// eligible executor (small or nearly-full fleets).
class PowerOfTwoScheduler final : public Scheduler {
 public:
  explicit PowerOfTwoScheduler(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] const char* name() const override { return "power-of-two"; }
  [[nodiscard]] std::optional<Placement> place_pass(const ExecutorRegistry& registry,
                                                    const ScheduleRequest& request,
                                                    const std::vector<bool>& excluded,
                                                    bool allow_degraded) override;

 private:
  Rng rng_;
};

/// Locality-first placement: among the executors in the client's rack
/// (matching topology group) pick the least loaded; when no local
/// executor fits, fall back to power-of-two-choices over the whole
/// registry. Under a sharded manager this policy also switches the
/// shard layout to rack-affine (executors shard by rack, requests route
/// to the client rack's shard first) — see ShardedResourceManager.
class LocalityFirstScheduler final : public Scheduler {
 public:
  explicit LocalityFirstScheduler(std::uint64_t seed) : fallback_(seed) {}

  [[nodiscard]] const char* name() const override { return "locality-first"; }
  [[nodiscard]] std::optional<Placement> place_pass(const ExecutorRegistry& registry,
                                                    const ScheduleRequest& request,
                                                    const std::vector<bool>& excluded,
                                                    bool allow_degraded) override;

 private:
  PowerOfTwoScheduler fallback_;
};

/// Builds the policy selected by `config.scheduling`.
std::unique_ptr<Scheduler> make_scheduler(const Config& config);

}  // namespace rfs::rfaas
