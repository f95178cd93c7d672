// Client library: the paper's `rfaas::invoker` programming model
// (Sec. IV-B, Listing 2). The invoker acquires leases from the resource
// manager — serially or batched (BatchAllocate, one round trip for a
// whole multi-lease allocation) — allocates sandboxes on spot executors,
// connects directly to every worker over RDMA, and submits invocations
// that return futures. Rejected warm invocations are transparently
// redirected to another worker (Sec. III-D).
//
// The invoker talks to the manager through a LeaseSet, the client side of
// the lease protocol: it dials, requests, releases and reconnects, and
// renews held leases via ExtendLease ahead of every expiry (driven by the
// sim engine's clock) so long-lived clients keep their placement instead
// of paying a fresh cold start.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/tcp.hpp"
#include "rdmalib/buffer.hpp"
#include "rdmalib/connection.hpp"
#include "rfaas/config.hpp"
#include "rfaas/health.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/session.hpp"
#include "sim/alarm.hpp"
#include "sim/fifo.hpp"
#include "sim/host.hpp"
#include "sim/sync.hpp"

namespace rfs::rfaas {

/// Tuning knobs of a LeaseSet.
struct LeaseSetOptions {
  /// A lease is renewed once its remaining validity drops below this.
  Duration renew_margin = 30_s;
  /// Extension requested per renewal; 0 = the lease's original timeout.
  Duration extension = 0;
  /// Self-healing: when a tracked lease is terminated by the manager
  /// (LeasesTerminated push) or lost to expiry/refused renewal, request a
  /// replacement lease of the same shape instead of surfacing a dead
  /// allocation. A replacement grant smaller than the lost lease does
  /// not end the heal: the remainder is re-requested until the lost
  /// worker count is fully replaced (or the budget runs out), and every
  /// partial grant joins the lease chain. Requires subscribe() and
  /// tracked lease shapes.
  bool self_heal = false;
  /// Denied re-allocation requests per lost lease before giving up.
  /// Successful (even partial) grants consume none of the budget — a
  /// partial replacement re-requests its remainder for free.
  unsigned realloc_budget = 4;
  /// Backoff after the first denial; doubles per further denial.
  Duration realloc_backoff = 20_ms;
  /// Honor the retry_after hint of LeaseDenied{Overload}: a heal's
  /// backoff never waits less than the manager asked for, so a mass
  /// eviction cannot turn the heal loops into a retry storm that
  /// amplifies the very overload that caused it.
  bool honor_retry_after = true;
  /// Upward jitter on every heal backoff (fraction of the wait, drawn
  /// uniformly in [0, backoff_jitter]); desynchronizes the heal herd a
  /// fleet-wide eviction creates. 0 disables jitter.
  double backoff_jitter = 0.25;
  /// Seed of the jitter stream; give each client its own so their
  /// jittered waits decorrelate deterministically.
  std::uint64_t jitter_seed = 0x5eed;
};

/// Outcome of one LeaseRequest or BatchAllocate round trip, as the client
/// reads the manager's reply.
struct LeaseOutcome {
  enum class Kind : std::uint8_t {
    Granted,  ///< `grants` holds the grant, or the batch's grants
    Shed,     ///< admission control turned it away: retry after `retry_after`
    Refused,  ///< the manager said no; `reason` is its reason
    Dead,     ///< the session failed; `reason` is its error
  };
  Kind kind = Kind::Dead;
  std::vector<LeaseGrantMsg> grants;
  Duration retry_after = 0;
  std::string reason;
};

/// Reads the manager's reply to a LeaseRequest or BatchAllocate (an error
/// means the session died).
LeaseOutcome classify_lease_reply(const Result<Bytes>& reply);

/// Spacing of retried lease requests: each wait is max(the backoff, the
/// manager's retry_after hint) stretched upward by up to `jitter` of
/// itself (no draw when `jitter` is 0), and the backoff doubles per wait.
class RetryBackoff {
 public:
  explicit RetryBackoff(Duration first) : backoff_(std::max<Duration>(1_us, first)) {}
  Duration next(Duration hint, double jitter, Rng& rng);

 private:
  Duration backoff_;
};

/// The client side of the lease protocol: dials the resource manager,
/// requests and releases leases, reconnects after a failover, and tracks
/// the live leases — renewing each via ExtendLease ahead of its expiry
/// and reporting renewals, renewal failures and expiries through
/// callbacks and counters.
///
/// Every exchange with the manager (request, renewal, heal, release,
/// revalidation) is a call on the request session, dialed by connect()
/// or attached with bind(): the session stamps request ids, queues
/// calls and retransmits lost ones.
///
/// Lifetime: the renewal actor only references the internal shared state,
/// so destroying the LeaseSet (or the engine draining detached actors)
/// is always safe.
class LeaseSet {
 public:
  using RenewedFn = std::function<void(std::uint64_t lease_id, Time new_expires_at)>;
  using RenewalFailedFn = std::function<void(std::uint64_t lease_id, const std::string& reason)>;
  using ExpiredFn = std::function<void(std::uint64_t lease_id)>;
  /// Manager-initiated termination received on the notification stream.
  /// `evicted_at` is the manager's decision timestamp — now() minus it is
  /// the client-observed reclamation latency.
  using TerminatedFn =
      std::function<void(std::uint64_t lease_id, TerminationReason reason, Time evicted_at)>;
  /// A lost lease was transparently replaced: `grant` is the new lease
  /// (already tracked). Owners deploy sandboxes/workers onto it here.
  /// Fires once per lost lease; when the replacement was partial, each
  /// further remainder grant fires the chain-extended callback instead
  /// (same signature, `old_lease_id` = the grant it chains off).
  using ReallocatedFn =
      std::function<void(std::uint64_t old_lease_id, const LeaseGrantMsg& grant)>;

  /// `manager` is where connect(), subscribe() and reconnect() dial.
  explicit LeaseSet(sim::Engine& engine, LeaseSetOptions options = {},
                    ManagerLink manager = {});
  ~LeaseSet();

  LeaseSet(const LeaseSet&) = delete;
  LeaseSet& operator=(const LeaseSet&) = delete;

  /// Dials the manager at the link's next epoch and binds the session.
  sim::Task<Status> connect();

  /// Attaches the resource-manager session requests, renewals, heals and
  /// releases go through (shared so the renewal actor can outlive the
  /// acquiring scope).
  void bind(std::shared_ptr<Session> rm_session);

  /// Dials a notification session and subscribes `client_id` on it. A
  /// later reconnect() subscribes again, even when this dial failed.
  sim::Task<Status> subscribe(std::uint32_t client_id);

  /// Opens the termination-push channel: sends SubscribeEvents for
  /// `client_id` on `notify_session` (a dedicated connection to the
  /// resource manager — pushes never share the request stream) and
  /// spawns a listener reacting to LeasesTerminated; the session's pump
  /// filters duplicated pushes (by seq) first. Enables self-healing
  /// re-allocation when the options ask for it.
  void subscribe(std::shared_ptr<Session> notify_session, std::uint32_t client_id);

  /// Manager failover recovery: connect() at the next epoch (replies
  /// addressed to the dead session's id space are fenced) and, once
  /// subscribed, a subscribe() on a fresh notification session. Fails
  /// only when the request dial does; held leases are not revalidated
  /// here (see revalidate()).
  sim::Task<Status> reconnect();

  /// One LeaseRequest or BatchAllocate round trip on the request session
  /// (after connect() or bind()).
  template <typename Msg>
  sim::Task<LeaseOutcome> request(Msg msg) {
    co_return classify_lease_reply(co_await state_->session->request(msg));
  }

  /// Gives the chain started by `grant` back: abandon(), then the acked
  /// release of its live lease, awaited. Sends nothing while disconnected.
  sim::Task<void> release(LeaseGrantMsg grant, std::uint64_t memory_per_worker);

  /// True while the request session can carry a call.
  [[nodiscard]] bool connected() const { return connected(*state_); }
  /// True while the notification session is open.
  [[nodiscard]] bool subscribed() const { return notify_ != nullptr && !notify_->closed(); }
  [[nodiscard]] const std::shared_ptr<Session>& session() const { return state_->session; }
  /// The last notification session subscribe() dialed (nullptr when that
  /// dial failed).
  [[nodiscard]] const std::shared_ptr<Session>& notification_session() const { return notify_; }

  /// Failover lease re-validation: asks the manager whether each tracked
  /// lease still stands (LeaseRevalidate, read-only on the manager). A
  /// confirmed lease adopts the manager's authoritative deadline; a
  /// refused one was lost in the failover window — it is untracked,
  /// counted as a loss and, when healing is enabled, transparently
  /// re-acquired. Triggered automatically by a FailoverAnnounce push on
  /// the notification stream; callable directly after a reconnect.
  void revalidate();

  /// Replaces the renewal options (margin, extension). Takes effect from
  /// the next renewal decision.
  void configure(LeaseSetOptions options);

  /// Starts tracking a granted lease. `original_timeout` is the grant's
  /// validity (the default renewal extension when options.extension == 0).
  /// `workers`/`memory_per_worker` record the lease's shape — required
  /// for self-healing re-allocation (0 = shape unknown, never healed).
  void track(std::uint64_t lease_id, Time expires_at, Duration original_timeout,
             std::uint32_t workers = 0, std::uint64_t memory_per_worker = 0);

  /// Stops tracking (released/deallocated lease). False when unknown.
  bool untrack(std::uint64_t lease_id);

  /// Current lease id standing in for `origin` (the originally granted
  /// id): self-healing replaces lost leases, so the holder's handle and
  /// the live lease id can diverge. Returns `origin` when never replaced.
  [[nodiscard]] std::uint64_t resolve(std::uint64_t origin) const;

  /// Gives up the lease chain started by `origin`: cancels any
  /// re-allocation in flight (a late replacement grant is released, not
  /// tracked), untracks the current lease and returns its id so the
  /// holder can release it with the manager. Secondary chain leases —
  /// partial heals fan a chain out over several grants — are untracked
  /// and released to the manager here, each by a detached session call
  /// that retransmits until the ReleaseOk ack lands.
  std::uint64_t abandon(std::uint64_t origin);

  /// Spawns the renewal actor (idempotent). bind() must have been called.
  void start();

  /// Stops the renewal actor at its next wake; tracked leases remain.
  void stop();

  /// Lifecycle callbacks. Settable any time; invoked from the renewal,
  /// notification and re-allocation actors.
  void on_renewed(RenewedFn fn);
  void on_renewal_failed(RenewalFailedFn fn);
  void on_expired(ExpiredFn fn);
  void on_terminated(TerminatedFn fn);
  void on_reallocated(ReallocatedFn fn);
  /// Remainder grant of a partial heal joined a chain (deploy a sandbox
  /// onto it, but do not count a second healed lease).
  void on_chain_extended(ReallocatedFn fn);

  [[nodiscard]] std::size_t size() const;
  /// Deadline of the earliest-expiring tracked lease (0 when empty).
  [[nodiscard]] Time earliest_expiry() const;
  /// Successful ExtendLease round trips.
  [[nodiscard]] std::uint64_t renewals() const;
  /// ExtendLease round trips answered with an error (lease unknown, ...).
  [[nodiscard]] std::uint64_t renewal_failures() const;
  /// Tracked leases that reached their deadline without a successful
  /// renewal — each one is a spurious expiry from the holder's view.
  [[nodiscard]] std::uint64_t expiries() const;
  /// Manager-initiated LeasesTerminated pushes received for tracked leases.
  [[nodiscard]] std::uint64_t terminations() const;
  /// Tracked leases lost involuntarily (terminated, expired, or renewal
  /// refused) — the denominator of the self-healing survival rate.
  [[nodiscard]] std::uint64_t losses() const;
  /// Lost leases successfully replaced by a fresh grant.
  [[nodiscard]] std::uint64_t reallocations() const;
  /// Lost leases whose re-allocation budget ran out unreplaced.
  [[nodiscard]] std::uint64_t realloc_failures() const;
  /// Heal requests shed by admission control (LeaseDenied{Overload});
  /// each consumed one unit of its heal's realloc budget and backed off
  /// at least the manager's retry_after hint.
  [[nodiscard]] std::uint64_t overload_denials() const;

 private:
  struct Tracked {
    Time expires_at = 0;
    Duration original_timeout = 0;
    /// Lease shape, for self-healing re-allocation (0 = unknown).
    std::uint32_t workers = 0;
    std::uint64_t memory_per_worker = 0;
    /// First lease id of this chain: replacements keep the origin, so
    /// holders can resolve their original handle to the live lease.
    std::uint64_t origin = 0;
  };
  /// Heap-shared with the renewal actor so the actor can outlive the
  /// LeaseSet object (same pattern as the harness workload counters).
  struct State {
    sim::Engine* engine = nullptr;
    LeaseSetOptions options;
    std::shared_ptr<Session> session;
    std::map<std::uint64_t, Tracked> leases;
    /// Wakes the sleeping renewal actor: set by track() (a new lease may
    /// be due sooner than the current sleep target), stop(), and
    /// wake_alarm at the earliest renewal instant.
    sim::Event wake;
    sim::Alarm wake_alarm{[this](Time) {
      wake.set();
      return sim::kNever;
    }};
    bool running = false;
    /// Actor generation: start() bumps it and spawns a loop bound to the
    /// new value, so an actor from before a stop()/start() cycle retires
    /// itself instead of running alongside its replacement.
    std::uint64_t epoch = 0;
    std::uint64_t renewals = 0;
    std::uint64_t renewal_failures = 0;
    std::uint64_t expiries = 0;
    std::uint64_t terminations = 0;
    std::uint64_t losses = 0;
    std::uint64_t reallocations = 0;
    std::uint64_t realloc_failures = 0;
    std::uint64_t overload_denials = 0;
    /// Jitter stream of the heal backoffs (seeded from the options).
    Rng jitter{0x5eed};
    /// Tenant id the notification subscription (and healing LeaseRequests)
    /// run under; set by subscribe().
    std::uint32_t client_id = 0;
    /// Healing gate, independent of the renewal actor: set by subscribe(),
    /// cleared by stop() and the destructor so in-flight re-allocations
    /// retire instead of touching a torn-down owner.
    bool healing_enabled = false;
    /// origin -> current *primary* lease id of every tracked chain (a
    /// partially healed chain may track further secondary leases that
    /// share the origin).
    std::map<std::uint64_t, std::uint64_t> current_of_origin;
    /// In-flight heal actors per origin (secondary losses of the same
    /// chain heal concurrently) / origins canceled mid-heal.
    std::map<std::uint64_t, unsigned> healing;
    std::set<std::uint64_t> canceled;
    RenewedFn renewed_fn;
    RenewalFailedFn renewal_failed_fn;
    ExpiredFn expired_fn;
    TerminatedFn terminated_fn;
    ReallocatedFn reallocated_fn;
    ReallocatedFn chain_extended_fn;
  };

  static sim::Task<void> renew_loop(std::shared_ptr<State> state, std::uint64_t epoch);
  static sim::Task<void> push_loop(std::shared_ptr<State> state,
                                   std::shared_ptr<Session> session);
  /// Reacts to one termination push (single or batched form).
  static void handle_notification(const std::shared_ptr<State>& state, const Bytes& raw);
  /// True while the bound session can carry a call.
  static bool connected(const State& state);
  /// Hands a lease back to the manager: a detached, acked session call.
  static void send_release(const std::shared_ptr<State>& state, ReleaseResourcesMsg rel);
  static sim::Task<void> heal(std::shared_ptr<State> state, std::uint64_t old_id, Tracked lost);
  /// Revalidates every tracked lease against the manager in turn (the
  /// failover path; see revalidate()).
  static sim::Task<void> revalidate_all(std::shared_ptr<State> state);
  /// Spawns heal() for a lost lease when healing is enabled and the
  /// lease's shape is known.
  static void maybe_heal(const std::shared_ptr<State>& state, std::uint64_t old_id,
                         const Tracked& lost);

  std::shared_ptr<State> state_;
  ManagerLink manager_;
  std::shared_ptr<Session> notify_;
  /// Client id of the last subscribe(client_id), re-subscribed on reconnect.
  std::optional<std::uint32_t> subscriber_;
};

/// Parameters of an allocation ("clients acquire leases by requesting the
/// desired core count, memory, and timeout", Sec. III-C).
struct AllocationSpec {
  std::string function_name;
  std::uint32_t workers = 1;
  std::uint64_t memory_per_worker = 64 * 1024 * 1024;
  Duration lease_timeout = 300_s;
  SandboxType sandbox = SandboxType::BareMetal;
  InvocationPolicy policy = InvocationPolicy::Adaptive;
  Duration hot_timeout = kDefaultHotTimeout;  ///< Adaptive hot-poll window
  std::uint64_t code_size = 0;    ///< 0 = the package's declared size
  bool polling_client = true;     ///< busy-poll for results vs blocking wait
  /// Acquire all leases of this allocation in one BatchAllocate round
  /// trip (best-effort; the invoker still aggregates until `workers` is
  /// reached) instead of one LeaseRequest per partial grant.
  bool batched_leases = false;
  /// Keep the allocation's leases alive past `lease_timeout` by renewing
  /// them through the invoker's LeaseSet.
  bool auto_renew = false;
  /// Renew when a lease's remaining validity drops below this; 0 picks
  /// a quarter of `lease_timeout`.
  Duration renew_margin = 0;
  /// Self-healing allocation: subscribe to manager termination pushes
  /// and, when a lease is reclaimed (eviction, drain, rebalance) or lost
  /// to expiry, transparently re-acquire a lease of the same shape and
  /// redeploy its sandbox + workers, so in-flight workloads migrate
  /// instead of failing. Implies auto-renewal: a self-healing allocation
  /// stays alive until deallocate(). Heals use the LeaseSetOptions
  /// defaults for their budget, backoff and jitter.
  bool self_heal = false;
};

/// Client-observed stages of a cold start (Fig. 9).
struct ColdStartBreakdown {
  Duration connect_manager = 0;    // TCP connect to the resource manager
  Duration lease = 0;              // lease request -> grant
  Duration submit_allocation = 0;  // allocator round trip minus spawn
  Duration spawn_workers = 0;      // sandbox + worker creation (executor-measured)
  Duration connect_workers = 0;    // RDMA connections to every worker
  Duration submit_code = 0;        // code shipping + installation
  [[nodiscard]] Duration total() const {
    return connect_manager + lease + submit_allocation + spawn_workers + connect_workers +
           submit_code;
  }
};

/// Outcome of one invocation.
struct InvocationResult {
  bool ok = false;
  bool rejected = false;        // all redirect attempts were rejected
  bool timed_out = false;       // the invocation deadline fired (FT mode)
  bool corrupt = false;         // response failed its checksum (FT mode)
  bool hedge_won = false;       // the hedged backup answered first
  std::uint32_t attempts = 1;   // 1 = no retry was needed
  std::uint32_t output_bytes = 0;
  Time submitted_at = 0;
  Time completed_at = 0;
  [[nodiscard]] Duration latency() const { return completed_at - submitted_at; }
};

class Invoker {
 public:
  /// `device` is the NIC of the client host; the resource manager address
  /// comes from the platform deployment.
  Invoker(sim::Engine& engine, fabric::Fabric& fabric, net::TcpNetwork& tcp, const Config& config,
          fabric::Device& device, fabric::DeviceId rm_device, std::uint16_t rm_port,
          std::uint32_t client_id);
  ~Invoker();

  /// Acquires leases and allocates sandboxes until `spec.workers` function
  /// instances are connected. Records the cold-start breakdown.
  sim::Task<Status> allocate(const AllocationSpec& spec);

  /// Registers an additional function with every allocated sandbox;
  /// returns its function-table index.
  sim::Task<Result<std::uint16_t>> add_function(const std::string& name);

  /// Creates a page-aligned input buffer with the 32-byte rFaaS header.
  template <typename T>
  rdmalib::Buffer<T> input_buffer(std::size_t count) {
    rdmalib::Buffer<T> buf(count, InvocationHeader::kSize);
    (void)buf.register_memory(*pd_, fabric::LocalWrite);
    return buf;
  }

  /// Creates an output buffer the executor writes results into.
  template <typename T>
  rdmalib::Buffer<T> output_buffer(std::size_t count) {
    rdmalib::Buffer<T> buf(count, 0);
    (void)buf.register_memory(*pd_, fabric::RemoteWrite | fabric::LocalWrite);
    return buf;
  }

  /// Submits an invocation of function `fn_index` with `payload_bytes`
  /// from `in` (past the header); the output lands in `out`. Returns a
  /// future fulfilled when the result write arrives. The caller's buffers
  /// are the frame of the same invocation core invoke_pooled() runs, so
  /// deadlines, retries, checksums and hedging apply here too.
  template <typename TIn, typename TOut>
  sim::Future<InvocationResult> submit(std::uint16_t fn_index, rdmalib::Buffer<TIn>& in,
                                       std::size_t payload_bytes, rdmalib::Buffer<TOut>& out) {
    return submit_frame(fn_index, frame_of(in, payload_bytes, out));
  }

  /// Submits and awaits completion, in the caller's frame: no detached
  /// task and no future.
  template <typename TIn, typename TOut>
  sim::Task<InvocationResult> invoke(std::uint16_t fn_index, rdmalib::Buffer<TIn>& in,
                                     std::size_t payload_bytes, rdmalib::Buffer<TOut>& out) {
    const Frame frame = frame_of(in, payload_bytes, out);
    const Time submitted = engine_.now();
    InvocationResult result = co_await invoke_frame(fn_index, frame);
    result.submitted_at = submitted;
    co_return result;
  }

  /// Zero-copy data plane: pre-registers `count` invocation slots (input
  /// with the 32 B header + output), each registered once with the client
  /// PD and recycled per call. With slots reserved, invoke_pooled() never
  /// allocates or registers on the invocation path — the contrast to
  /// per-call buffers, whose registrations queue on the process's
  /// mmap lock and collapse under fan-out (fig18).
  void reserve_slots(std::size_t count, std::size_t max_input, std::size_t max_output);
  [[nodiscard]] std::size_t slot_count() const { return slot_pool_.size(); }

  /// Fast-path invocation on a pooled slot: copies `payload` into the
  /// slot's registered input region (clipped to the slot size), writes
  /// header + payload to a worker as a single span, and decodes the
  /// result notification without staging. Waits for a free slot when all
  /// are in flight; redirects rejections like submit().
  sim::Task<InvocationResult> invoke_pooled(std::uint16_t fn_index,
                                            std::span<const std::uint8_t> payload);

  /// Releases all sandboxes and leases ("Remote resources are allocated
  /// and deallocated as needed").
  sim::Task<void> deallocate();

  [[nodiscard]] std::uint32_t connected_workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }
  [[nodiscard]] const ColdStartBreakdown& cold_start() const { return cold_start_; }
  [[nodiscard]] std::uint32_t client_id() const { return client_id_; }
  [[nodiscard]] std::uint64_t total_rejections() const { return rejections_; }
  [[nodiscard]] fabric::ProtectionDomain* pd() { return pd_; }
  /// Leases this invoker currently holds. Mutable access so callers can
  /// install renewal/expiry callbacks.
  [[nodiscard]] LeaseSet& leases() { return *lease_set_; }
  [[nodiscard]] const LeaseSet& leases() const { return *lease_set_; }
  /// Leases acquired by the current allocation (one per sandbox).
  [[nodiscard]] std::size_t lease_count() const { return allocations_.size(); }
  /// Sandboxes redeployed onto self-healed (re-allocated) leases.
  [[nodiscard]] std::uint64_t redeployments() const { return redeployments_; }

 private:
  struct WorkerRef {
    std::shared_ptr<rdmalib::Connection> conn;  ///< shared with a pending reap_worker
    rdmalib::RemoteBuffer remote_buf;
    std::uint64_t max_payload = 0;
    /// Executor identity + control channel, for health scoring and
    /// hedge-loser cancellation (fault-tolerant data plane).
    fabric::DeviceId device = 0;
    std::shared_ptr<net::TcpStream> mgr_stream;
  };

  /// One pre-registered invocation slot of the zero-copy data plane.
  struct InvocationSlot {
    rdmalib::Buffer<std::uint8_t> in;   // 32 B header + input payload
    rdmalib::Buffer<std::uint8_t> out;  // result landing zone
    InvocationSlot(std::size_t max_input, std::size_t max_output)
        : in(max_input, InvocationHeader::kSize), out(max_output) {}
  };

  struct Allocation {
    std::uint64_t lease_id = 0;
    std::uint64_t sandbox_id = 0;
    std::shared_ptr<net::TcpStream> mgr_stream;
  };

  /// One invocation's registered memory: the region its 32 B header and
  /// payload leave from, and the region the result lands in. Pool slots
  /// and caller-owned buffers are both sources of frames.
  struct Frame {
    std::uint8_t* in = nullptr;  ///< header, then payload
    fabric::Sge sge{};           ///< header + payload, as posted
    std::uint8_t* out = nullptr;
    std::uint32_t out_rkey = 0;
    std::uint32_t out_capacity = 0;
    [[nodiscard]] std::size_t payload_bytes() const {
      return sge.length - InvocationHeader::kSize;
    }
  };

  template <typename TIn, typename TOut>
  static Frame frame_of(rdmalib::Buffer<TIn>& in, std::size_t payload_bytes,
                        rdmalib::Buffer<TOut>& out) {
    const rdmalib::RemoteBuffer dst = out.remote_data();
    return Frame{in.raw(), in.sge_with_header(payload_bytes),
                 reinterpret_cast<std::uint8_t*>(dst.addr), dst.rkey, dst.length};
  }

  /// Shared fate of one (possibly hedged) fault-tolerant invocation:
  /// every attempt reports in; the first success resolves, and losers
  /// are cancelled on their executor managers.
  struct Hedge {
    explicit Hedge(const Frame& f) : primary(f) {}
    Frame primary;  ///< the caller's frame: a winning backup's output lands here
    sim::Event done;
    bool resolved = false;
    unsigned pending = 0;
    InvocationResult result;
    std::vector<std::size_t> in_flight;  ///< workers of unresolved attempts
  };

  /// Detached run of invoke_frame() behind submit()'s future.
  sim::Future<InvocationResult> submit_frame(std::uint16_t fn_index, Frame frame);
  /// The invocation core behind submit(), invoke() and invoke_pooled():
  /// the redirect loop, or with fault tolerance on, invoke_reliable().
  sim::Task<InvocationResult> invoke_frame(std::uint16_t fn_index, const Frame& frame);
  /// One attempt of `frame` on `worker`: header into the frame, one
  /// WRITE_WITH_IMM, then the result notification (deadline-bounded when
  /// `deadline` is set).
  sim::Task<InvocationResult> attempt(std::size_t worker, std::uint16_t fn_index,
                                      const Frame& frame, std::uint64_t tag = 0,
                                      Time deadline = 0);
  /// Fault-tolerant invocation: per-attempt deadlines, budgeted retries
  /// rotating across healthy workers, same-worker dedup-replay retry on
  /// corruption, optional hedging on the first attempt.
  sim::Task<InvocationResult> invoke_reliable(std::uint16_t fn_index, const Frame& frame);
  sim::Task<InvocationResult> run_hedged(std::size_t widx, std::uint16_t fn_index,
                                         const Frame& frame, std::uint64_t tag, Time deadline);
  /// One attempt of a hedged invocation; a backup returns its staging
  /// pool slot `backup_slot` when done (none for the primary).
  sim::Task<void> hedge_attempt(std::shared_ptr<Hedge> hs, std::size_t widx,
                                std::uint16_t fn_index, Frame frame, std::uint64_t tag,
                                Time deadline, std::optional<std::size_t> backup_slot);
  sim::Task<void> hedge_backup(std::shared_ptr<Hedge> hs, std::uint16_t fn_index,
                               std::uint64_t tag, Time deadline,
                               fabric::DeviceId primary_device);
  /// Globally unique idempotent invocation id: (client epoch << 32) | seq.
  std::uint64_t mint_tag();
  /// Pops the next free worker: HalfOpen probes first (an expired Open
  /// breaker admits exactly one), then executors whose breaker admits
  /// traffic; must run after slots_->acquire().
  std::size_t pick_worker();
  /// pick_worker for hedge backups: prefers any device other than the
  /// straggling primary's; falls back to pick_worker().
  std::size_t pick_worker_avoiding(fabric::DeviceId device);
  void release_worker(std::size_t widx);
  /// Settles the worker of a finished fault-tolerant attempt: a timed
  /// out one is reaped, a dead one dropped, any other released.
  void settle_worker(std::size_t widx, const InvocationResult& r);
  /// Post-timeout worker recycling: drains the late/stale completion the
  /// abandoned attempt left behind (bounded wait) before the worker may
  /// rejoin the rotation; dead and wedged workers never rejoin.
  sim::Task<void> reap_worker(std::size_t widx);
  /// Feeds the per-executor health tracker and, on a breaker trip,
  /// reports the executor to the resource manager (quarantine signal).
  void record_outcome(fabric::DeviceId device, bool ok, Duration latency);
  sim::Task<Status> connect_worker(const LeaseGrantMsg& grant, std::uint64_t sandbox_id,
                                   std::uint32_t index);
  /// Acquires leases totalling up to `remaining` workers: one serial
  /// LeaseRequest (single grant) or one BatchAllocate (many grants).
  sim::Task<Result<std::vector<LeaseGrantMsg>>> acquire_leases(const AllocationSpec& spec,
                                                               std::uint32_t remaining);
  /// Stages 3-5 of a cold start for one granted lease: sandbox
  /// allocation, worker connections, code submission.
  sim::Task<Status> deploy_grant(const AllocationSpec& spec, const LeaseGrantMsg& grant);
  /// Deploys a replacement grant produced by self-healing re-allocation.
  sim::Task<void> redeploy(AllocationSpec spec, LeaseGrantMsg grant);

  sim::Engine& engine_;
  fabric::Fabric& fabric_;
  net::TcpNetwork& tcp_;
  const Config& config_;
  fabric::Device& device_;
  std::uint32_t client_id_;

  fabric::ProtectionDomain* pd_ = nullptr;
  /// Every exchange of this invoker with the resource manager runs on the
  /// LeaseSet's sessions.
  std::unique_ptr<LeaseSet> lease_set_;
  /// Spec that created each self-healing lease, keyed by lease id (the
  /// mapping follows replacements), so a redeploy uses the allocation's
  /// own function/sandbox/policy even across multiple allocate() calls.
  std::map<std::uint64_t, std::shared_ptr<const AllocationSpec>> lease_specs_;
  std::uint64_t redeployments_ = 0;
  std::vector<Allocation> allocations_;
  std::vector<WorkerRef> workers_;
  sim::Fifo<std::size_t> free_workers_;
  std::unique_ptr<sim::Semaphore> slots_;
  std::vector<std::unique_ptr<InvocationSlot>> slot_pool_;
  sim::Fifo<std::size_t> free_slots_;
  std::unique_ptr<sim::Semaphore> slot_sem_;
  bool polling_client_ = true;
  std::uint32_t next_invocation_ = 1;
  std::uint64_t rejections_ = 0;
  ColdStartBreakdown cold_start_;

  /// Fault-tolerant data plane state (all client-side).
  std::map<fabric::DeviceId, HealthTracker> health_;
  /// Breakers out of Closed; only record_outcome() moves one in or out.
  std::size_t unclosed_breakers_ = 0;
  std::uint64_t next_tag_seq_ = 0;
  double latency_ewma_ = 0.0;  ///< healthy completions, feeds auto hedge delay
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t corruptions_detected_ = 0;
  std::uint64_t hedges_launched_ = 0;
  std::uint64_t hedge_wins_ = 0;
  std::uint64_t breaker_trips_ = 0;

 public:
  /// FT observability (fig21 + tests).
  [[nodiscard]] std::uint64_t ft_retries() const { return retries_; }
  [[nodiscard]] std::uint64_t ft_timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t ft_corruptions() const { return corruptions_detected_; }
  [[nodiscard]] std::uint64_t hedges_launched() const { return hedges_launched_; }
  [[nodiscard]] std::uint64_t hedge_wins() const { return hedge_wins_; }
  [[nodiscard]] std::uint64_t breaker_trips() const { return breaker_trips_; }
  /// Health tracker of one executor device (nullptr = never observed).
  [[nodiscard]] const HealthTracker* health_of(fabric::DeviceId device) const {
    auto it = health_.find(device);
    return it == health_.end() ? nullptr : &it->second;
  }
};

}  // namespace rfs::rfaas
