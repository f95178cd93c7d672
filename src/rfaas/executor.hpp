// Spot executor: the lightweight allocator and the user-code executors.
//
// Each spot host runs one ExecutorManager ("lightweight allocator",
// Sec. III-A): it accepts allocation requests from leased clients, spawns
// isolated sandboxes with RDMA-capable executor processes, accounts for
// resource consumption, reaps idle executors, and flushes billing data to
// the resource manager with RDMA fetch-and-add.
//
// Each Worker is one function instance: a thread pinned to a core that
// serves invocations either hot (busy-polling the CQ) or warm (blocking
// on the completion channel, with a resource check and possible rejection
// under oversubscription, Fig. 6).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/slot_index.hpp"
#include "net/faulty.hpp"
#include "net/tcp.hpp"
#include "rdmalib/buffer.hpp"
#include "rdmalib/connection.hpp"
#include "rfaas/billing.hpp"
#include "rfaas/config.hpp"
#include "rfaas/functions.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/session.hpp"
#include "sim/alarm.hpp"
#include "sim/fifo.hpp"
#include "sim/host.hpp"
#include "sim/sync.hpp"

namespace rfs::rfaas {

class ExecutorManager;
class IdleHistory;
struct Sandbox;

/// One function instance inside a sandbox.
class Worker {
 public:
  Worker(ExecutorManager& mgr, Sandbox& sandbox);
  /// Closes the connection and deallocates the worker's protection domain.
  ~Worker();

  /// Cold-start initialization: allocate + register RDMA buffers (timed),
  /// spawn and pin the worker thread, then start the serving loop.
  sim::Task<void> init();

  /// Accepts the client's RDMA connection for this worker.
  void attach_connection(std::unique_ptr<rdmalib::Connection> conn);

  /// Requests shutdown and wakes the loop.
  void stop();

  /// Graceful shutdown: if an invocation is executing, lets it finish and
  /// deliver its result before closing the connection; otherwise behaves
  /// like stop(). Teardown paths (evict, drain, expiry, deallocate) use
  /// this so in-flight work is never cut off mid-reply.
  sim::Task<void> drain();

  /// Warm-pool revival: restarts the serving loop of a worker whose
  /// process survived in the keep-alive pool. Buffers, protection domain
  /// and registrations are reused as-is; the caller must have awaited
  /// done() so the previous loop has fully exited.
  void rearm();

  /// Final teardown: deregisters the RDMA buffers and hands them to the
  /// manager's buffer freelist for the next cold start to recycle.
  void surrender_buffers();

  /// Completion event of the serving loop (awaited during teardown).
  sim::Event& done() { return done_; }

  [[nodiscard]] bool connected() const { return conn_ != nullptr; }
  /// True once an injected stuck-sandbox fault wedged this worker: its
  /// invocation will never complete, so teardown must not wait for it
  /// and the warm pool must never adopt its sandbox.
  [[nodiscard]] bool wedged() const { return wedged_; }

 private:
  friend class ExecutorManager;

  sim::Task<void> run();
  sim::Task<void> execute_and_reply(const fabric::Wc& wc, bool hot);
  void post_receive();
  void release_core_if_held();

  ExecutorManager& mgr_;
  Sandbox& sandbox_;
  std::unique_ptr<rdmalib::Connection> conn_;
  sim::Event connected_;
  sim::Event done_;
  sim::Event wedge_;  // never set: a stuck worker parks on it forever
  fabric::ProtectionDomain* pd_ = nullptr;
  std::unique_ptr<rdmalib::Buffer<std::uint8_t>> recv_buf_;
  std::unique_ptr<rdmalib::Buffer<std::uint8_t>> out_buf_;
  bool running_ = true;
  bool hot_ = false;
  bool holds_core_ = false;
  bool in_flight_ = false;  // an accepted invocation is executing
  bool wedged_ = false;     // injected stuck fault: never completes
  std::uint64_t served_ = 0;  // invocations answered; numbers the receive work requests
};

/// An isolated execution context hosting one executor process with N
/// worker threads serving functions of one client allocation.
struct Sandbox {
  std::uint64_t id = 0;
  std::uint64_t lease_id = 0;
  std::uint32_t client_id = 0;
  SandboxType type = SandboxType::BareMetal;
  InvocationPolicy policy = InvocationPolicy::Adaptive;
  Duration hot_timeout = 0;
  std::uint64_t memory_bytes = 0;  // total reservation across workers
  /// Function table: the immediate value's function index selects the
  /// entry ("we enable the execution of different functions in the same
  /// worker process", Sec. IV-A).
  std::vector<const CodePackage*> codes;
  std::vector<std::unique_ptr<Worker>> workers;
  Time created_at = 0;
  Time last_invocation = 0;
  Time expires_at = 0;
  /// Allocation billing (Ca) high-water mark: the reservation is billed
  /// up to here. Advanced by every billing flush and finished at
  /// teardown, so long-lived (renewed) sandboxes are billed for their
  /// full span as it accrues.
  Time billed_until = 0;
  /// When the sandbox entered the warm keep-alive pool (0 = live).
  Time pooled_at = 0;
  /// Idle-time history of the sandbox's function key (tenant and primary
  /// function), looked up when it is parked: the key cannot change while
  /// it is pooled, and the sweep reads the history on every period.
  IdleHistory* idle_history = nullptr;
  bool dead = false;
  /// Manager coroutines holding the sandbox across a suspension
  /// (allocation, code install, teardown); a torn-down sandbox is freed
  /// only when this is 0.
  std::uint32_t pins = 0;
};

/// Per-function histogram of observed idle times (retire → next request
/// for the same shape). The warm pool's predictive keep-alive horizon is
/// a quantile of this distribution, following the SeBS eviction model:
/// keep a sandbox exactly long enough to cover the typical idle gap.
class IdleHistory {
 public:
  static constexpr std::size_t kWindow = 64;
  /// The share of idle gaps the keep-alive horizon covers.
  static constexpr double kHorizonQuantile = 0.99;

  void record(Duration idle) {
    samples_[next_] = idle;
    next_ = (next_ + 1) % kWindow;
    if (count_ < kWindow) ++count_;
    horizon_quantile_ = quantile(kHorizonQuantile);
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Quantile over the retained window; call only with count() > 0.
  [[nodiscard]] Duration quantile(double q) const;
  /// quantile(kHorizonQuantile) as of the last record(): the sweep reads
  /// it for every pooled sandbox, far more often than samples arrive.
  [[nodiscard]] Duration horizon_quantile() const { return horizon_quantile_; }

 private:
  std::array<Duration, kWindow> samples_{};
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  Duration horizon_quantile_ = 0;
};

/// Observability counters of the warm sandbox pool.
struct WarmPoolStats {
  std::uint64_t hits = 0;    // allocations served by reviving a pooled sandbox
  std::uint64_t misses = 0;  // allocations that went cold with the pool enabled
  std::uint64_t parked = 0;  // retirements that entered the pool
  std::uint64_t predictive_evictions = 0;  // idle past the keep-alive horizon
  std::uint64_t capacity_evictions = 0;    // pushed out by a newer retirement
  std::uint64_t pressure_evictions = 0;    // reclaimed to satisfy a cold allocation
};

class ExecutorManager {
 public:
  ExecutorManager(sim::Engine& engine, fabric::Fabric& fabric, net::TcpNetwork& tcp,
                  sim::Host& host, fabric::Device& device, Config config,
                  const FunctionRegistry& registry);

  /// Starts the allocator actors and registers with the resource manager.
  void start(fabric::DeviceId rm_device, std::uint16_t rm_port);

  /// Stops serving, as a crash would: sandboxes die and heartbeats stop
  /// without notifying anyone.
  void stop();

  [[nodiscard]] sim::Host& host() { return host_; }
  [[nodiscard]] fabric::Device& device() { return device_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint16_t alloc_port() const { return alloc_port_; }
  [[nodiscard]] std::uint16_t rdma_port() const { return rdma_port_; }
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] fabric::Fabric& fabric() { return fabric_; }

  /// Resource accounting hooks used by workers and sandboxes.
  void account_compute(std::uint32_t client_id, Duration d);
  void account_hot_poll(std::uint32_t client_id, Duration d);
  void account_allocation(std::uint32_t client_id, std::uint64_t mib_ms);

  [[nodiscard]] std::size_t live_sandboxes() const;
  [[nodiscard]] Sandbox* find_sandbox(std::uint64_t id);
  /// Torn-down sandboxes not freed yet (see bury()).
  [[nodiscard]] std::size_t buried_sandboxes() const { return graveyard_.size(); }

  /// Warm-pool observability (tests, benches, fig18).
  [[nodiscard]] const WarmPoolStats& warm_pool_stats() const { return pool_stats_; }
  [[nodiscard]] std::size_t warm_pool_size() const { return warm_pool_.size(); }
  /// Host memory held by pooled (keep-alive) sandboxes — the provider-side
  /// cost of the pool, reported as "memory held" in fig18.
  [[nodiscard]] std::uint64_t warm_pool_memory_bytes() const;
  /// Keep-alive horizon the predictive policy currently assigns to this
  /// sandbox's function (quantile of the idle histogram, clamped).
  [[nodiscard]] Duration keepalive_horizon(const Sandbox& sb) const;
  /// Invocations that were executing when their sandbox was torn down and
  /// were allowed to finish (graceful drain), instead of being cut off.
  [[nodiscard]] std::uint64_t drained_in_flight() const { return drained_in_flight_; }

  /// Wires the seeded executor-fault injector (chaos harness). nullptr
  /// (the default) means no injected worker faults.
  void set_worker_faults(net::WorkerFaultInjector* faults) { worker_faults_ = faults; }

 private:
  friend class Worker;

  sim::Task<void> run_alloc_server();
  sim::Task<void> handle_stream(std::shared_ptr<net::TcpStream> stream);
  sim::Task<void> run_rdma_accept();
  sim::Task<void> register_with_rm(fabric::DeviceId rm_device, std::uint16_t rm_port);
  /// One registration session: connect, register under a fresh epoch,
  /// then pump manager pushes until the session dies. True when the
  /// registration itself completed (the push pump may still end later —
  /// e.g. the manager crashed — which is what the reconnect loop in
  /// register_with_rm retries on).
  sim::Task<bool> register_session(fabric::DeviceId rm_device, std::uint16_t rm_port);
  sim::Task<void> billing_flush_loop();
  sim::Task<void> flush_billing();
  /// Accrues the allocation component (Ca) of every live sandbox up to
  /// now, in whole milliseconds (the sub-ms remainder carries over).
  void accrue_allocation();
  sim::Task<void> reaper_loop();
  /// The lease-expiry alarm's fire: tears down the sandboxes expired by
  /// `now` in sandbox-id order and returns the earliest expires_at left.
  /// Renewals (LeaseRenewed pushed by the manager) move expires_at, and
  /// deallocated sandboxes leave, so every wake re-reads the live ones.
  Time expire_sandboxes(Time now);
  /// Tears down a live sandbox without a ReleaseResources back (lease
  /// expired or reclaimed by the manager).
  sim::Task<void> reclaim_sandbox(std::uint64_t sandbox_id);

  sim::Task<AllocationReplyMsg> allocate_sandbox(const AllocationRequestMsg& req);
  sim::Task<void> teardown_sandbox(Sandbox& sb, bool notify_rm);

  /// Warm sandbox pool (keep-alive; see Config::warm_pool_capacity).
  [[nodiscard]] bool poolable(const Sandbox& sb) const;
  std::unique_ptr<Sandbox> take_from_pool(const AllocationRequestMsg& req,
                                          std::uint64_t total_memory);
  /// Irreversible teardown of a retired/pooled sandbox: releases the host
  /// memory, recycles the worker buffers and buries the object.
  void destroy_sandbox_final(std::unique_ptr<Sandbox> sb);
  /// Moves a torn-down sandbox to the graveyard, first freeing the buried
  /// ones nothing uses any more: every serving loop has exited (a wedged
  /// worker's never does) and no pin is held.
  void bury(std::unique_ptr<Sandbox> sb);
  sim::Task<void> warm_pool_sweeper();
  /// Tears down every live sandbox of a lease the manager reclaimed.
  void reclaim_lease(std::uint64_t lease_id);

  /// Registered-buffer freelist: retired worker buffers (deregistered) are
  /// kept for the next cold start to reuse, so steady-state churn does not
  /// re-allocate + re-fault 8 MiB regions per worker.
  std::unique_ptr<rdmalib::Buffer<std::uint8_t>> take_pooled_buffer(std::uint64_t bytes);
  void recycle_buffer(std::unique_ptr<rdmalib::Buffer<std::uint8_t>> buf);

  /// Idempotency dedup window: a tag that already executed on this
  /// manager replays its stored reply instead of running user code
  /// again. Entry absent = never executed here (or evicted).
  struct DedupEntry {
    std::uint32_t checksum12 = 0;           ///< reply imm checksum (0 = unchecked)
    std::vector<std::uint8_t> output;       ///< completed result bytes
  };
  [[nodiscard]] const DedupEntry* dedup_find(std::uint64_t tag) const;
  void dedup_record(std::uint64_t tag, std::uint32_t checksum12,
                    const std::uint8_t* out, std::uint32_t len);
  /// Hedge-loser cancellation: parks `tag` so a not-yet-dispatched
  /// invocation carrying it is dropped instead of executed.
  void note_cancel(std::uint64_t tag);
  /// True (and consumes the parked cancel) when `tag` was cancelled.
  bool consume_cancel(std::uint64_t tag);

  sim::Engine& engine_;
  fabric::Fabric& fabric_;
  net::TcpNetwork& tcp_;
  sim::Host& host_;
  fabric::Device& device_;
  Config config_;
  const FunctionRegistry& registry_;
  fabric::ProtectionDomain* pd_ = nullptr;

  std::uint16_t alloc_port_ = 7000;
  std::uint16_t rdma_port_ = 7001;
  bool alive_ = false;

  sim::Alarm expiry_alarm_{[this](Time now) { return expire_sandboxes(now); }};

  std::map<std::uint64_t, std::unique_ptr<Sandbox>> sandboxes_;
  // Torn-down sandboxes wait here until bury() frees them: their worker
  // coroutines may still be draining error completions and must find the
  // objects alive.
  std::vector<std::unique_ptr<Sandbox>> graveyard_;
  std::uint64_t next_sandbox_id_ = 1;

  /// Keep-alive pool, oldest first (front is the first capacity victim).
  std::deque<std::unique_ptr<Sandbox>> warm_pool_;
  std::map<std::string, IdleHistory> idle_history_;
  WarmPoolStats pool_stats_;
  std::uint64_t drained_in_flight_ = 0;

  static constexpr std::size_t kBufferPoolCap = 64;
  std::map<std::uint64_t, std::vector<std::unique_ptr<rdmalib::Buffer<std::uint8_t>>>>
      buffer_pool_;
  std::size_t buffer_pool_count_ = 0;

  struct PendingUsage {
    std::uint64_t allocation_mib_ms = 0;
    std::uint64_t compute_ns = 0;
    std::uint64_t hot_poll_ns = 0;
  };
  std::map<std::uint32_t, PendingUsage> pending_usage_;
  std::unique_ptr<rdmalib::Connection> rm_conn_;
  std::uint64_t billing_addr_ = 0;
  std::uint32_t billing_rkey_ = 0;
  std::unique_ptr<rdmalib::Buffer<std::uint64_t>> billing_scratch_;
  // Serializes flush_billing bodies: the batched completion sweep (the
  // send CQ's wait_polling_many) must not drain CQEs a concurrent flush
  // posted, so concurrent flushes take turns on the shared billing QP.
  sim::Mutex billing_flush_gate_;
  /// Session to the resource manager: registration and teardown releases
  /// retransmit under loss, and duplicated eviction pushes are filtered
  /// before they can reclaim a sandbox twice.
  std::shared_ptr<Session> rm_session_;
  /// Bumped per registration attempt; the manager fences RegisterExecutor
  /// retransmissions from superseded sessions by this epoch.
  std::uint64_t registration_epoch_ = 0;

  /// Data-plane fault tolerance (PR 10). The injector is harness-owned;
  /// dedup/cancel windows are bounded FIFOs so a long-lived manager's
  /// memory stays flat.
  net::WorkerFaultInjector* worker_faults_ = nullptr;
  static constexpr std::size_t kDedupWindow = 128;
  /// Ring of the last kDedupWindow executions, grown on demand (most
  /// managers never see a tag) and then overwritten oldest first, each
  /// slot reusing its output capacity.
  std::vector<DedupEntry> dedup_;
  std::size_t dedup_oldest_ = 0;
  SlotIndex<kDedupWindow> dedup_tags_;  ///< tag -> its entry's slot in dedup_
  static constexpr std::size_t kCancelWindow = 256;
  std::unordered_set<std::uint64_t> cancelled_tags_;
  sim::Fifo<std::uint64_t> cancel_fifo_;
};

}  // namespace rfs::rfaas
