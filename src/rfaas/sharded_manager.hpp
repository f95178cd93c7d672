// Sharded lease-allocation core of the resource manager (Sec. III-A at
// 1000-executor scale).
//
// A single lock-protected registry runs every grant, renew and expiry
// sweep one at a time — fine for a rack, fatal for a fleet. This core splits the
// executor population over N shards, each owning its own ExecutorRegistry
// and Scheduler (the same pluggable policy interface of scheduler.hpp),
// so the grant path only ever takes one shard's lock:
//
//  * Routing (level 1): power-of-two-choices over shards on their
//    registries' free-worker aggregates — two relaxed atomic loads and a
//    compare, no locks. Deterministic for a fixed seed (the routing RNG
//    is a lock-free splitmix64 counter).
//  * Placement (level 2): inside the routed shard, the shard's Scheduler
//    picks the executor exactly as the single-manager path always did;
//    the registry commit revalidates under the shard lock.
//  * Work stealing: when the routed shard cannot place the request, the
//    remaining shards are tried in descending free-capacity order. A
//    fleet-wide denial therefore still means "no executor anywhere has
//    capacity", not "my shard happened to be full".
//
// Lease ids and executor ids carry the owning shard in their high bits,
// so release/renew/expiry route straight to one shard with no global
// lookup structure. With shards == 1 the core degenerates to the exact
// single-manager behavior (same scheduler stream, same lease-id
// sequence), which is what the single-vs-sharded benchmarks compare.
//
// Hot-path indexes (fig16): the lease table itself is a hash map, and
// three side indexes keep every periodic or reactive path off the
// full-table scan the seed paid —
//
//  * Expiry min-heap per shard, keyed by deadline with lazy deletion:
//    the heartbeat sweep pops only entries whose deadline has passed, so
//    sweeping costs O(expired + stale) instead of O(live leases).
//    ExtendLease re-arms by pushing the new deadline; the superseded
//    entry is discarded when it surfaces.
//  * Per-tenant index (held-worker counter + the tenant's lease ids),
//    maintained incrementally on grant/release/evict: reclaim_quota
//    reads O(tenants) counters and walks only over-quota tenants'
//    leases instead of snapshotting the whole table per denied request.
//  * Per-executor hosted-lease sets: drain/death/migration evict only
//    the host's own leases, O(hosted) instead of O(shard leases).
//
// The `*_scan` variants of sweep and quota reclaim preserve the seed's
// full-table algorithms as reference implementations — bench/fig16
// measures the indexed paths against them, and the equivalence tests in
// tests/sharded_manager_test.cpp pin both to the same outcomes.
//
// The core is deliberately independent of the simulation engine: it is a
// plain thread-safe state machine (per-shard std::shared_mutex — grants
// and sweeps write-lock one shard, snapshots and routing reads share it
// or use the lock-free atomic aggregates), usable from real threads in
// stress tests and from sim coroutines in the control plane alike.
//
// Replication (journal.hpp, replica.hpp): every replicated state change
// is one journal::Op, and each op changes state in exactly one transition
// step (`*_step` below) that runs under its shard's write lock. A primary
// method makes the decision — routing, placement, victim choice, whether
// capacity returns — fills the JournalRecordMsg, runs the step and
// appends the record; a standby's apply() checks the replayed record
// against its own state and runs the same step. There is no second copy
// of a transition for a standby to drift through.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rfaas/config.hpp"
#include "rfaas/journal.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/scheduler.hpp"

namespace rfs::rfaas {

class ShardedResourceManager {
 public:
  /// Shard index lives in the high bits of lease and executor ids; the
  /// low bits are the per-shard counter / registry index. With one shard
  /// every id equals its low part, matching the unsharded manager.
  static constexpr unsigned kShardShift = 48;

  /// One committed grant: everything the control plane needs to answer a
  /// LeaseRequest, plus the shard bookkeeping for introspection.
  struct Grant {
    std::uint64_t lease_id = 0;
    std::uint64_t executor = 0;  ///< global executor id (shard-tagged)
    std::uint32_t shard = 0;
    std::uint32_t workers = 0;
    std::uint64_t memory = 0;  ///< total bytes claimed
    Time expires_at = 0;
    bool stolen = false;  ///< placed outside the routed shard
    std::uint32_t executor_locality = 0;  ///< rack of the granted executor
    RegisterExecutorMsg executor_info;  ///< device + ports for the grant msg
  };

  /// Result of a batched multi-lease grant (see grant_batch()).
  struct BatchGrant {
    std::vector<Grant> grants;          ///< the committed leases, grant order
    std::uint32_t granted_workers = 0;  ///< sum over `grants`
    std::uint32_t shards_touched = 0;   ///< distinct shards scanned/placed on
    bool complete = false;              ///< every requested worker granted
  };

  /// Result of a successful renew(): the registration stream of the
  /// executor hosting the lease (may be null for core-only deployments),
  /// so the control plane can push the new deadline to the sandbox.
  struct Renewal {
    std::shared_ptr<net::TcpStream> executor_stream;
  };

  /// One manager-initiated lease termination (fast reclamation): the
  /// capacity is already back in the pool; the control plane still owes
  /// a LeaseTerminated push to the hosting executor (sandbox teardown)
  /// and to the owning client's notification stream.
  struct Eviction {
    std::uint64_t lease_id = 0;
    std::uint32_t client_id = 0;
    std::uint32_t workers = 0;
    std::uint64_t memory = 0;
    std::shared_ptr<net::TcpStream> executor_stream;  ///< may be null (core-only)
  };

  /// One executor moved between shards by rebalance(); the control plane
  /// uses `stream` to remap its per-stream executor-id table so later
  /// heartbeat acks land on the new registration.
  struct Migration {
    std::uint64_t old_id = 0;
    std::uint64_t new_id = 0;
    std::shared_ptr<net::TcpStream> stream;  ///< may be null (core-only)
  };

  /// Outcome of one rebalance sweep. Skew is max/min schedulable worker
  /// capacity across shards (1.0 = perfectly balanced).
  struct RebalanceReport {
    double skew_before = 1.0;
    double skew_after = 1.0;
    std::vector<Migration> migrations;
    std::vector<Eviction> evictions;  ///< leases evicted off migrated executors
  };

  explicit ShardedResourceManager(const Config& config);
  ~ShardedResourceManager();

  ShardedResourceManager(const ShardedResourceManager&) = delete;
  ShardedResourceManager& operator=(const ShardedResourceManager&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Registers an executor on the next shard (round-robin assignment
  /// keeps skewed fleets balanced across shards; with the LocalityFirst
  /// policy the shard is the executor's rack modulo the shard count, so
  /// each rack has a home shard). Returns its global id.
  std::uint64_t add_executor(ExecutorEntry entry);

  /// Level-1 routing decision: power-of-two-choices over the shards'
  /// aggregate free-worker counters. Lock-free; consumes one value of the
  /// routing RNG (none with a single shard).
  [[nodiscard]] std::uint32_t preferred_shard();

  /// Locality-aware routing: with the LocalityFirst policy the client
  /// rack's home shard is preferred while it has free capacity; all
  /// other configurations (and an exhausted home shard) fall back to
  /// preferred_shard().
  [[nodiscard]] std::uint32_t preferred_shard_for(std::uint32_t client_locality);

  /// Grants a lease: places inside `routed` (defaults to a fresh
  /// preferred_shard() decision), stealing from the other shards in
  /// descending free-capacity order when the routed shard is full.
  std::optional<Grant> grant(const ScheduleRequest& request, std::uint32_t client_id,
                             Duration timeout, Time now,
                             std::optional<std::uint32_t> routed = std::nullopt);

  /// Grants a batch of leases totalling `request.workers` workers in one
  /// call, aggregating partial placements across executors and shards
  /// (per-shard partial fulfillment). `routed` seeds the first
  /// sub-placement; later ones route freshly. When `all_or_nothing` is
  /// set and the fleet cannot satisfy the whole request, every
  /// provisional lease is released and the returned grant list is empty.
  BatchGrant grant_batch(const ScheduleRequest& request, std::uint32_t client_id,
                         Duration timeout, Time now, bool all_or_nothing,
                         std::optional<std::uint32_t> routed = std::nullopt);

  /// Extends a live lease to the given expiry; nullopt when unknown. On
  /// success carries the hosting executor's registration stream so the
  /// caller can push the renewal to the sandbox.
  std::optional<Renewal> renew(std::uint64_t lease_id, Time new_expires_at);

  /// Returns the lease's capacity to its executor; false when unknown
  /// (already released, expired, or dropped at executor death).
  bool release(std::uint64_t lease_id);

  /// Reclaims every lease past its deadline by draining the per-shard
  /// expiry heaps — O(expired + stale renewal entries), independent of
  /// the live-lease count. Returns the number of leases reclaimed. Safe
  /// against clock regression: a `now` earlier than a previous sweep's
  /// reclaims nothing early and leaves the index intact.
  std::size_t sweep_expired(Time now);

  /// Reference implementation of the pre-index sweep: walks the full
  /// lease table of every shard, O(live leases). Same outcome as
  /// sweep_expired (the equivalence tests pin this); kept so
  /// bench/fig16_hotpath can measure the indexed sweep against the scan
  /// it replaced on identical state.
  std::size_t sweep_expired_scan(Time now);

  // ---- Manager-initiated reclamation (evict / drain / rebalance) ----

  /// Terminates a live lease ahead of its deadline and returns its
  /// capacity to the pool. nullopt when the lease is unknown (already
  /// released, expired, or evicted — eviction races resolve to exactly
  /// one winner).
  std::optional<Eviction> evict(std::uint64_t lease_id);

  /// Snapshot of up to `max` live lease ids, shard-major. For eviction
  /// policies and scenario drivers; ids may be gone again by the time
  /// they are evicted (evict() then returns nullopt).
  [[nodiscard]] std::vector<std::uint64_t> active_lease_ids(
      std::size_t max = static_cast<std::size_t>(-1)) const;

  /// Tenant quota pressure: evicts leases of clients holding more than
  /// `quota_workers` (never the requester's own) until `workers_needed`
  /// workers are reclaimed or no over-quota lease remains. Oldest leases
  /// of each over-quota tenant go first (shard-major id order). Reads
  /// the incremental per-tenant held-worker counters — O(tenants) plus
  /// the over-quota candidates, not O(total leases) per denied request.
  std::vector<Eviction> reclaim_quota(std::uint32_t requesting_client,
                                      std::uint32_t quota_workers,
                                      std::uint32_t workers_needed);

  /// Reference implementation of the pre-index quota reclaim: snapshots
  /// every lease of every shard and rebuilds the per-tenant held counts
  /// from scratch, O(total leases). Same evictions as reclaim_quota;
  /// kept for the fig16 before/after measurement and equivalence tests.
  std::vector<Eviction> reclaim_quota_scan(std::uint32_t requesting_client,
                                           std::uint32_t quota_workers,
                                           std::uint32_t workers_needed);

  /// Workers currently held by `client_id` across all shards — a sum of
  /// the per-shard tenant counters, O(shards).
  [[nodiscard]] std::uint64_t tenant_held_workers(std::uint32_t client_id) const;

  /// Drains an executor: evicts every lease it hosts and parks its
  /// capacity out of the schedulable pool. The host stays alive
  /// (heartbeats continue) but receives no further placements.
  std::vector<Eviction> drain_executor(std::uint64_t executor_id);

  /// One rebalance sweep: while the max/min schedulable-capacity skew
  /// across shards exceeds `max_skew` (and at most `max_moves` times),
  /// migrates an executor registration from the fullest shard to the
  /// emptiest. Active leases of a migrated executor are evicted — their
  /// owners re-allocate (self-healing) and land on the new registration.
  /// `now` seeds the migrated entries' heartbeat clocks.
  RebalanceReport rebalance(double max_skew, unsigned max_moves, Time now);

  /// Global id of the alive executor registered for fabric device
  /// `device` (nullopt when unknown). For scenario drivers that address
  /// executors by host rather than by registration id.
  [[nodiscard]] std::optional<std::uint64_t> find_executor_by_device(
      std::uint32_t device) const;

  /// True when executor `executor_id` is registered and draining.
  [[nodiscard]] bool draining(std::uint64_t executor_id) const;

  /// Marks an executor dead, drops its leases and zeroes its capacity.
  /// Returns the executor's registration info when this call was the one
  /// that killed it (for logging), nullopt when it was already dead.
  std::optional<RegisterExecutorMsg> mark_dead(std::uint64_t executor_id);

  /// Flags (or clears) gray-failure degradation on an executor — its
  /// capacity stays schedulable, but placement policies deprioritize it.
  /// Soft state, deliberately unjournaled: after a failover the clients
  /// whose breakers tripped will re-report. False when the id is unknown.
  bool set_degraded(std::uint64_t executor_id, bool degraded);

  /// Records a heartbeat ack. False when the id is unknown.
  bool touch(std::uint64_t executor_id, Time now);

  /// Owner and deadline of a live lease (shared lock on its shard);
  /// nullopt when unknown. The failover revalidation path answers
  /// LeaseRevalidate from this without mutating anything.
  struct LeaseInfo {
    std::uint32_t client_id = 0;
    std::uint32_t workers = 0;
    Time expires_at = 0;
  };
  [[nodiscard]] std::optional<LeaseInfo> lease_info(std::uint64_t lease_id) const;

  /// Calls fn(global_executor_id, const ExecutorEntry&) for every
  /// registered executor, shard by shard under a shared (read) lock, so
  /// concurrent grants on other threads do not wait behind the
  /// visit. The callback must not reenter the manager (collect, then
  /// act).
  template <typename Fn>
  void visit_executors(Fn&& fn) const {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      auto& shard = *shards_[s];
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      for (std::size_t i = 0; i < shard.registry.size(); ++i) {
        fn(make_id(s, i), shard.registry.at(i));
      }
    }
  }

  // ---- Aggregates (lock-free where counters exist, else per-shard) ----
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] std::uint32_t free_workers_total() const;
  [[nodiscard]] std::uint32_t total_workers() const;
  [[nodiscard]] std::size_t active_leases() const;

  [[nodiscard]] std::uint64_t grants() const { return grants_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t denials() const { return denials_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  /// Grants whose executor sits in the requesting client's rack — the
  /// numerator of the locality hit rate benches report.
  [[nodiscard]] std::uint64_t local_grants() const {
    return local_grants_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  /// Manager-initiated lease terminations (evict/drain/rebalance paths).
  [[nodiscard]] std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Executor registrations moved between shards by rebalance().
  [[nodiscard]] std::uint64_t migrations() const {
    return migrations_.load(std::memory_order_relaxed);
  }

  /// Per-shard introspection for tests and the single-shard compatibility
  /// accessors of ResourceManager. Not synchronized: call only while no
  /// other thread mutates the manager.
  [[nodiscard]] const ExecutorRegistry& registry(std::uint32_t shard = 0) const {
    return shards_.at(shard)->registry;
  }
  [[nodiscard]] const Scheduler& scheduler(std::uint32_t shard = 0) const {
    return *shards_.at(shard)->scheduler;
  }
  [[nodiscard]] std::uint32_t shard_free_workers(std::uint32_t shard) const {
    return shards_.at(shard)->registry.free_workers_total();
  }
  /// Schedulable worker capacity of one shard — the load metric of the
  /// rebalance sweep.
  [[nodiscard]] std::uint32_t shard_total_workers(std::uint32_t shard) const {
    return shards_.at(shard)->registry.total_workers();
  }

  // ---- Replication / failover (journal.hpp, replica.hpp) ----

  /// Deep, canonical snapshot of the manager's replicated state: every
  /// shard's executor table, lease table, tenant index, canonical expiry
  /// index and counters, plus the manager-level counters a failover must
  /// preserve. Canonical means deterministic ordering (leases and
  /// tenants sorted by id, expiry deduplicated to the live deadlines),
  /// so two managers that went through equivalent histories compare and
  /// digest identically even though their hash tables and lazy heaps
  /// differ internally. Heartbeat clocks (`last_ack`) and streams are
  /// carried for restore but excluded from equality and the digest —
  /// heartbeats are not journaled.
  struct ManagerState {
    /// One executor registration (registry order, tombstones included).
    struct ExecutorState {
      RegisterExecutorMsg info;
      std::uint32_t total_workers = 0;
      std::uint32_t free_workers = 0;
      std::uint64_t free_memory = 0;
      bool alive = true;
      bool draining = false;
      std::uint32_t locality = 0;
      Time last_ack = 0;  ///< restored but not compared (not journaled)

      /// Not last_ack, nor info.request_id (retransmission-scoped).
      static auto fields(auto& m) {
        return std::tie(m.info.device, m.info.alloc_port, m.info.rdma_port, m.info.cores,
                        m.info.memory_bytes, m.info.epoch, m.total_workers, m.free_workers,
                        m.free_memory, m.alive, m.draining, m.locality);
      }
      bool operator==(const ExecutorState& o) const { return fields(*this) == fields(o); }
    };
    /// One live lease (sorted by id).
    struct LeaseState {
      std::uint64_t lease_id = 0;
      std::uint32_t client_id = 0;
      std::uint64_t executor = 0;  ///< shard-local registry index
      std::uint32_t workers = 0;
      std::uint64_t memory = 0;
      Time expires_at = 0;

      static auto fields(auto& m) {
        return std::tie(m.lease_id, m.client_id, m.executor, m.workers, m.memory, m.expires_at);
      }
      bool operator==(const LeaseState& o) const { return fields(*this) == fields(o); }
    };
    /// One tenant's slice (sorted by client id; leases in age order).
    struct TenantState {
      std::uint32_t client_id = 0;
      std::uint64_t held_workers = 0;
      std::vector<std::uint64_t> leases;

      static auto fields(auto& m) { return std::tie(m.client_id, m.held_workers, m.leases); }
      bool operator==(const TenantState& o) const { return fields(*this) == fields(o); }
    };
    struct ShardState {
      std::vector<ExecutorState> executors;
      std::vector<LeaseState> leases;
      std::vector<TenantState> tenants;
      /// Canonical deadline index: sorted (expires_at, lease_id) over the
      /// live leases — the lazy heaps' stale entries are not state.
      std::vector<std::pair<Time, std::uint64_t>> expiry;
      std::uint64_t next_lease = 1;
      std::int64_t free_workers = 0;
      std::int64_t total_workers = 0;

      static auto fields(auto& m) {
        return std::tie(m.next_lease, m.free_workers, m.total_workers, m.executors, m.leases,
                        m.tenants, m.expiry);
      }
      bool operator==(const ShardState& o) const { return fields(*this) == fields(o); }
    };
    std::vector<ShardState> shards;
    std::uint64_t grants = 0;
    std::uint64_t local_grants = 0;
    std::uint64_t evictions = 0;
    std::uint64_t migrations = 0;
    std::uint64_t next_shard = 0;
    std::uint64_t executor_count = 0;

    static auto fields(auto& m) {
      return std::tie(m.grants, m.local_grants, m.evictions, m.migrations, m.next_shard,
                      m.executor_count, m.shards);
    }

    /// Replicated-state equality over the fields() lists: everything
    /// except heartbeat clocks, streams and the registration's request
    /// id. This is what the replay-equivalence tests assert.
    [[nodiscard]] bool operator==(const ManagerState& o) const {
      return fields(*this) == fields(o);
    }

    /// Order-sensitive checksum over the same fields() lists (the chained
    /// journal mix). Snapshot offers carry it so a standby rejects a torn
    /// or stale snapshot before replaying records on top of it.
    [[nodiscard]] std::uint64_t digest() const;
  };

  /// The replication journal (null unless Config::journal_enabled).
  [[nodiscard]] Journal* journal() const { return journal_.get(); }

  /// Exports the canonical state snapshot. Takes each shard's shared
  /// lock in turn — never call while holding a shard lock.
  [[nodiscard]] ManagerState export_state() const;

  /// Rebuilds this manager from a snapshot. Must be called on a freshly
  /// constructed manager with the same shard count; replays the executor
  /// lifecycle (add, claim, drain, death) so the registry's incremental
  /// aggregates match a live manager's by construction. Heartbeat clocks
  /// are reset to `now` so a just-promoted standby does not instantly
  /// reap every executor. Nothing is journaled.
  Status restore_state(const ManagerState& state, Time now);

  /// Replays one journal record into this manager's state (the standby
  /// path; see replica.hpp for sequencing and checksum verification).
  /// Records are deltas — no placement policy or routing re-runs — so a
  /// record that does not apply cleanly means the replica diverged and
  /// an Error is returned. Nothing is re-journaled.
  Status apply(const JournalRecordMsg& record);

  /// Re-attaches a live executor after a failover: same registration,
  /// new control stream and session epoch, leases and capacity
  /// preserved. False when the id is unknown or the executor is dead
  /// (the caller falls back to a fresh add_executor path). Journaled.
  bool reattach_executor(std::uint64_t executor_id, std::shared_ptr<net::TcpStream> stream,
                         std::uint64_t epoch, Time now);

  static constexpr std::uint64_t make_id(std::uint32_t shard, std::uint64_t low) {
    return (static_cast<std::uint64_t>(shard) << kShardShift) | low;
  }
  static constexpr std::uint32_t id_shard(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> kShardShift);
  }
  static constexpr std::uint64_t id_low(std::uint64_t id) {
    return id & ((1ull << kShardShift) - 1);
  }

 private:
  struct LeaseRecord {
    std::uint32_t client_id = 0;
    std::size_t executor = 0;  // shard-local registry index
    std::uint32_t workers = 0;
    std::uint64_t memory = 0;
    Time expires_at = 0;
  };
  using LeaseTable = std::unordered_map<std::uint64_t, LeaseRecord>;

  /// One armed deadline in a shard's expiry heap. Entries are never
  /// removed in place: release/evict/renew leave them behind, and the
  /// sweep discards any entry whose lease is gone or whose deadline no
  /// longer matches the lease's (lazy deletion).
  struct ExpiryEntry {
    Time at = 0;
    std::uint64_t lease_id = 0;
  };
  /// Min-heap order for std::push_heap/pop_heap (which build max-heaps):
  /// earliest deadline at the front, ties broken by lease id so sweep
  /// order is deterministic.
  struct ExpiryLater {
    bool operator()(const ExpiryEntry& a, const ExpiryEntry& b) const {
      return a.at != b.at ? a.at > b.at : a.lease_id > b.lease_id;
    }
  };

  /// Incremental per-tenant slice of one shard's lease table. `leases`
  /// holds ids in insertion order; its readers sort what they take from
  /// it (quota eviction its candidates, export_state its snapshot). A
  /// released id stays behind, and readers skip the ids gone from the
  /// lease table, until dead ids outnumber live ones and a compaction
  /// drops them all.
  struct TenantIndex {
    std::uint64_t held_workers = 0;
    std::size_t live = 0;               // ids in `leases` still in the lease table
    std::vector<std::uint64_t> leases;  // insertion order
  };

  struct Shard {
    mutable std::shared_mutex mu;
    ExecutorRegistry registry;
    std::unique_ptr<Scheduler> scheduler;
    LeaseTable leases;  // keyed by full lease id
    /// Deadline index over `leases` (lazy deletion, see ExpiryEntry).
    std::vector<ExpiryEntry> expiry;
    /// Lease ids hosted by each registry index (parallel to registry).
    std::vector<std::unordered_set<std::uint64_t>> hosted;
    /// client id -> held workers + lease ids.
    std::unordered_map<std::uint32_t, TenantIndex> tenants;
    std::uint64_t next_lease = 1;
    /// leases.size(), readable without the shard lock. Written only by
    /// index_lease/unindex_lease, the lease table's two mutators. (The
    /// capacity aggregates routing reads live in the registry itself.)
    std::atomic<std::size_t> lease_count{0};
  };

  /// Lock-free deterministic routing randomness: a splitmix64 stream
  /// driven by an atomic counter. Single-threaded callers (the sim) see
  /// the exact same sequence every run.
  std::uint64_t next_random();

  std::optional<Grant> grant_on(std::uint32_t shard_index, const ScheduleRequest& request,
                                std::uint32_t client_id, Duration timeout, Time now);

  /// Under the shard write lock: inserts the lease into the table and
  /// every side index (expiry heap, per-executor set, tenant counters,
  /// lease_count).
  static void index_lease(Shard& shard, std::uint64_t lease_id, const LeaseRecord& record);

  /// Under the shard write lock: removes the lease from the table, the
  /// per-executor set, the tenant index and lease_count; returns the
  /// next table iterator. The expiry-heap entry stays behind and is
  /// discarded lazily by a later sweep.
  static LeaseTable::iterator unindex_lease(Shard& shard, LeaseTable::iterator it);

  /// Under the shard write lock: pushes `lease_id`'s deadline `at` onto
  /// the expiry heap (at the grant, and again at each renewal).
  static void push_expiry(Shard& shard, Time at, std::uint64_t lease_id);

  /// Shared tail of reclaim_quota / reclaim_quota_scan: evicts the
  /// candidate (lease id, client) pairs in id order while their holder
  /// stays over quota, until `workers_needed` workers came back.
  std::vector<Eviction> evict_quota_candidates(
      const std::vector<std::pair<std::uint64_t, std::uint32_t>>& candidates,
      std::map<std::uint32_t, std::uint64_t>& held, std::uint32_t requesting_client,
      std::uint32_t quota_workers, std::uint32_t workers_needed);

  /// Under the shard write lock: evicts every lease hosted by registry
  /// index `local` (via its hosted-lease set, O(hosted)), appending
  /// Eviction records. Capacity is NOT released back to the entry — drain
  /// parks it, migration moves it wholesale. Returns the evicted leases'
  /// total memory (migration folds it back into the moved entry).
  std::uint64_t evict_hosted_leases(std::uint32_t shard_index, Shard& shard, std::size_t local,
                                    const std::shared_ptr<net::TcpStream>& stream,
                                    std::vector<Eviction>& out);

  /// The primary's side of Release/Expire/Evict under the shard write
  /// lock: journals the drop of `it` with the capacity decision already
  /// made and runs drop_step. Returns the next table iterator.
  LeaseTable::iterator commit_drop(journal::Op op, std::uint32_t shard_index, Shard& shard,
                                   LeaseTable::iterator it, bool returned_capacity);

  /// Appends to the replication journal when enabled. Called under the
  /// mutating shard's lock, so a shard's records stream in commit order;
  /// the journal's own mutex orders records across shards.
  void journal_append(const JournalRecordMsg& r) {
    if (journal_) journal_->append(r);
  }

  // ---- Transition steps: the only code that changes replicated state ----
  // One per journal::Op (Migrate has a donor and a receiver half), each
  // run under its shard's write lock with the record the primary is about
  // to journal or the standby is replaying.

  /// AddExecutor: registers `entry` (the primary's carries its stream).
  /// Returns the registry index.
  std::size_t add_step(Shard& shard, ExecutorEntry entry);
  /// Grant: claims the record's capacity and indexes the lease. False,
  /// with nothing changed, when the registry refuses the claim.
  bool grant_step(Shard& shard, const JournalRecordMsg& r);
  /// Renew: moves the deadline and re-arms the expiry heap.
  static void renew_step(Shard& shard, LeaseTable::iterator it, const JournalRecordMsg& r);
  /// Release/Expire/Evict: returns the capacity when the record says so
  /// and unindexes the lease. Returns the next table iterator.
  LeaseTable::iterator drop_step(Shard& shard, LeaseTable::iterator it, const JournalRecordMsg& r);
  /// SetDraining: parks the executor's capacity out of the pool.
  static void drain_step(Shard& shard, const JournalRecordMsg& r);
  /// MarkDead: drops the hosted leases and zeroes the capacity.
  static void dead_step(Shard& shard, const JournalRecordMsg& r);
  /// Migrate, donor half: tombstones the executor and returns the entry
  /// to re-register (capacity whole, free memory and clock from `r`).
  static ExecutorEntry migrate_out_step(Shard& shard, const JournalRecordMsg& r);
  /// Migrate, receiver half: registers the moved entry.
  std::size_t migrate_in_step(Shard& shard, ExecutorEntry moved);
  /// Reattach: new session epoch and heartbeat clock, state preserved.
  static void reattach_step(Shard& shard, const JournalRecordMsg& r);

  std::unique_ptr<Journal> journal_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool locality_sharding_ = false;  // LocalityFirst: shard executors by rack
  std::atomic<std::uint64_t> next_shard_{0};  // round-robin executor assignment
  std::atomic<std::size_t> executor_count_{0};  // lock-free size() for the grant path
  std::atomic<std::uint64_t> rng_counter_;
  std::atomic<std::uint64_t> grants_{0};
  std::atomic<std::uint64_t> denials_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> local_grants_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> migrations_{0};
};

}  // namespace rfs::rfaas
