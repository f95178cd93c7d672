// Wire protocol of rFaaS.
//
// Control plane (TCP): executor registration, lease requests/grants,
// allocation requests, code submission. Data plane (RDMA): the invocation
// format of Sec. IV-A — a 32-byte header carrying the client's
// result-buffer address and rkey plus the fault-tolerance fields
// (idempotent invocation tag, absolute deadline, payload checksum),
// followed by the payload, written via RDMA WRITE_WITH_IMM whose
// immediate value packs the function index and the invocation identifier.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "fabric/verbs.hpp"
#include "rfaas/config.hpp"

namespace rfs::rfaas {

/// The 32-byte invocation header preceding every input payload: the
/// executor writes the output directly into this client buffer. The
/// trailing fault-tolerance fields are all-zero when FT is disabled:
/// `invocation_tag` ((client epoch << 32) | sequence, 0 = no dedup) lets
/// the executor recognise a retried or hedged invocation and replay the
/// stored result instead of executing twice; `deadline` (absolute time,
/// 0 = none) lets it drop an invocation that has already timed out on
/// the client — a late duplicate is never executed; `checksum` (0 = not
/// checked) is the client's checksum over the input payload, verified
/// executor-side so a corrupted submit frame is rejected, not executed.
struct InvocationHeader {
  std::uint64_t result_addr = 0;
  std::uint32_t result_rkey = 0;
  std::uint64_t invocation_tag = 0;
  Time deadline = 0;
  std::uint32_t checksum = 0;

  static constexpr std::size_t kSize = 32;

  void pack(std::uint8_t* out) const;
  static InvocationHeader unpack(const std::uint8_t* in);
};

/// Immediate-value encoding: high 12 bits function index, low 20 bits
/// invocation id. Result immediates set the reject bit on rejection and
/// carry a 12-bit output checksum in the otherwise-unused high bits, so
/// a corrupted response is detected from the completion alone.
struct Imm {
  static constexpr std::uint32_t kRejectBit = 1u << 19;

  static std::uint32_t invocation(std::uint16_t fn_index, std::uint32_t invocation_id) {
    return (static_cast<std::uint32_t>(fn_index) << 20) | (invocation_id & 0xFFFFFu);
  }
  static std::uint32_t result(std::uint32_t invocation_id, bool rejected,
                              std::uint32_t checksum12 = 0) {
    return (invocation_id & 0x7FFFFu) | (rejected ? kRejectBit : 0u) |
           ((checksum12 & 0xFFFu) << 20);
  }
  static std::uint16_t fn_index(std::uint32_t imm) { return static_cast<std::uint16_t>(imm >> 20); }
  static std::uint32_t invocation_id(std::uint32_t imm) { return imm & 0xFFFFFu; }
  static std::uint32_t result_id(std::uint32_t imm) { return imm & 0x7FFFFu; }
  static bool rejected(std::uint32_t imm) { return (imm & kRejectBit) != 0; }
  static std::uint32_t result_checksum(std::uint32_t imm) { return imm >> 20; }
};

/// CRC-32C over a payload: the data-plane integrity check, the payload
/// CRC RDMA-class transports use (iWARP MPA, iSCSI, NVMe/TCP). The header
/// reads 0 as "not checked", and the CRC of an empty payload is 0, so a
/// zero CRC maps to a fixed nonzero sentinel, on both sides alike.
/// fold12() compresses it into the 12 imm bits available for the
/// response direction.
inline std::uint32_t payload_checksum(const std::uint8_t* data, std::size_t len) {
  const std::uint32_t crc = crc32c({data, len});
  return crc != 0 ? crc : 0xFFFFFFFFu;
}

inline std::uint32_t fold12(std::uint32_t checksum) {
  // CRC is linear over GF(2), so any XOR fold of it misses a fixed error
  // pattern at some payload lengths whatever the data. A multiply by an
  // odd constant (Fibonacci hashing) carries across bits: which flips
  // the top 12 bits miss depends on the data, ~1 in 4096.
  const std::uint32_t folded = (checksum * 0x9E3779B1u) >> 20;
  // 0 means "not checked" on the wire, so a genuinely zero fold maps to
  // a fixed nonzero sentinel — verification stays deterministic.
  return folded != 0 ? folded : 0xFFFu;
}

/// Message kinds on the TCP control plane.
enum class MsgType : std::uint8_t {
  RegisterExecutor,     // executor manager -> resource manager
  RegisterOk,
  LeaseRequest,         // client -> resource manager
  LeaseGrant,
  LeaseError,
  AllocationRequest,    // client -> executor manager
  AllocationReply,
  SubmitCode,           // client -> executor manager
  SubmitCodeOk,
  Deallocate,           // client -> executor manager
  DeallocateOk,
  Heartbeat,            // resource manager -> executor manager
  HeartbeatAck,
  // 13 stays unassigned (a retired push): wire type numbers are never reused.
  ReleaseResources = 14,  // executor manager -> resource manager (early return)
  ExtendLease,          // client -> resource manager (renew before expiry)
  ExtendOk,
  BatchAllocate,        // client -> resource manager (multi-lease, one trip)
  BatchGranted,
  LeaseRenewed,         // resource manager -> executor manager (push)
  SubscribeEvents,      // client -> resource manager (open a notification stream)
  LeasesTerminated,     // resource manager -> client/executor (coalesced sweep)
  ReleaseOk,            // resource manager -> releaser (ack, retransmit stop)
  LeaseDenied,          // resource manager -> client (admission shed, retry hint)
  JournalRecord,        // primary manager -> standby replica (state stream)
  SnapshotOffer,        // primary manager -> standby replica (snapshot header)
  FailoverAnnounce,     // promoted manager -> subscriber (push, new epoch)
  LeaseRevalidate,      // client -> promoted manager (held-lease audit)
  InvocationCancel,     // client -> executor manager (hedge loser suppression)
  HealthReport,         // client -> resource manager (executor health observations)
  HealthReportOk,       // resource manager -> client (ack, retransmit stop)
  Count,                // sentinel, keep last
};

// ---------------------------------------------------------------------------
// Lossy-network hardening. Lease-critical messages carry a trailing
// monotonically increasing request id ((epoch << 32) | sequence, see
// rfaas/session.hpp); replies echo it so a retransmitting sender can
// match a reply to the attempt it answers, and the manager's bounded
// per-stream dedup table can replay the cached reply for a retransmitted
// request instead of executing it twice (no double-grants). The field is
// always on the wire and id 0 is no session's id: the manager refuses an
// id-0 request with a LeaseError without executing it. Push
// notifications (LeasesTerminated) carry a per-stream sequence number
// instead, so duplicated deliveries are counted and ignored client-side.
// ---------------------------------------------------------------------------

/// Worker polling policy of an allocation.
enum class InvocationPolicy : std::uint8_t {
  WarmAlways,  // workers always block on the completion channel
  HotAlways,   // workers busy-poll for the lease lifetime
  Adaptive,    // hot after each execution, roll back to warm on timeout
};

/// Spot-executor registration with the resource manager (Sec. III-A).
struct RegisterExecutorMsg {
  static constexpr MsgType kType = MsgType::RegisterExecutor;
  std::uint32_t device = 0;       ///< fabric device id of the spot host
  std::uint16_t alloc_port = 0;   ///< TCP port of the lightweight allocator
  std::uint16_t rdma_port = 0;    ///< fabric CM port for worker connections
  std::uint32_t cores = 0;        ///< schedulable cores of the host
  std::uint64_t memory_bytes = 0; ///< offerable memory of the host
  std::uint64_t epoch = 0;        ///< registration session epoch (fences stale sessions)
  std::uint64_t request_id = 0;   ///< session request id; 0 is refused

  static auto fields(auto& m) {
    return std::tie(m.device, m.alloc_port, m.rdma_port, m.cores, m.memory_bytes, m.epoch,
                    m.request_id);
  }
};

/// Registration reply: where the executor's billing atomics land.
struct RegisterOkMsg {
  static constexpr MsgType kType = MsgType::RegisterOk;
  std::uint16_t rm_rdma_port = 0;     ///< where executors connect for billing atomics
  std::uint64_t billing_addr = 0;     ///< base of the billing counter array
  std::uint32_t billing_rkey = 0;     ///< rkey of the billing counter array
  std::uint64_t request_id = 0;       ///< echoes RegisterExecutorMsg::request_id

  static auto fields(auto& m) {
    return std::tie(m.rm_rdma_port, m.billing_addr, m.billing_rkey, m.request_id);
  }
};

/// One lease acquisition (Sec. III-C): "clients acquire leases by
/// requesting the desired core count, memory, and timeout". Grants may be
/// partial; clients aggregate (or use BatchAllocateMsg).
struct LeaseRequestMsg {
  static constexpr MsgType kType = MsgType::LeaseRequest;
  std::uint32_t client_id = 0;     ///< billing tenant of the requester
  std::uint32_t workers = 0;       ///< requested function instances
  std::uint64_t memory_bytes = 0;  ///< per-worker memory
  Duration timeout = 0;            ///< lease validity
  std::uint64_t request_id = 0;    ///< session request id; 0 is refused

  static auto fields(auto& m) {
    return std::tie(m.client_id, m.workers, m.memory_bytes, m.timeout, m.request_id);
  }
};

/// A granted lease: where to allocate the sandbox and until when the
/// capacity is held. Lease ids are shard-tagged (high 16 bits) under a
/// sharded manager.
struct LeaseGrantMsg {
  static constexpr MsgType kType = MsgType::LeaseGrant;
  std::uint64_t lease_id = 0;   ///< shard-tagged lease identifier
  std::uint32_t device = 0;     ///< fabric device of the granted executor
  std::uint16_t alloc_port = 0; ///< its lightweight allocator's TCP port
  std::uint16_t rdma_port = 0;  ///< its fabric CM port for worker connections
  std::uint32_t workers = 0;    ///< workers granted on this executor
  Time expires_at = 0;          ///< lease deadline (renewable via ExtendLease)
  std::uint64_t request_id = 0; ///< echoes LeaseRequestMsg::request_id

  /// The grant without its request id: the 28-byte element of
  /// BatchGrantedMsg::grants, whose reply carries one id for the batch.
  static auto body(auto& m) {
    return std::tie(m.lease_id, m.device, m.alloc_port, m.rdma_port, m.workers, m.expires_at);
  }
  static auto fields(auto& m) { return std::tuple_cat(body(m), std::tie(m.request_id)); }
};

/// Time an Adaptive worker keeps busy-polling after an invocation before
/// rolling back to warm, unless the allocation sets its own.
inline constexpr Duration kDefaultHotTimeout = 500_ms;

/// Sandbox allocation on the leased executor (A2 in the cold-start path).
struct AllocationRequestMsg {
  static constexpr MsgType kType = MsgType::AllocationRequest;
  std::uint64_t lease_id = 0;    ///< the backing lease
  std::uint32_t client_id = 0;   ///< billing tenant
  std::uint32_t workers = 0;     ///< worker threads to spawn
  std::uint64_t memory_bytes = 0;///< per-worker memory reservation
  std::uint8_t sandbox = 0;      ///< SandboxType
  std::uint8_t policy = 0;       ///< InvocationPolicy
  Duration hot_timeout = kDefaultHotTimeout;  ///< Adaptive rollback timeout
  Time expires_at = 0;           ///< lease expiry (sandbox self-destructs)

  static auto fields(auto& m) {
    return std::tie(m.lease_id, m.client_id, m.workers, m.memory_bytes, m.sandbox, m.policy,
                    m.hot_timeout, m.expires_at);
  }
};

/// Early return of leased capacity to the resource manager.
struct ReleaseResourcesMsg {
  static constexpr MsgType kType = MsgType::ReleaseResources;
  std::uint64_t lease_id = 0;     ///< lease being released
  std::uint32_t workers = 0;      ///< workers coming back
  std::uint64_t memory_bytes = 0; ///< memory coming back
  std::uint64_t request_id = 0;   ///< session request id; 0 is refused

  static auto fields(auto& m) {
    return std::tie(m.lease_id, m.workers, m.memory_bytes, m.request_id);
  }
};

/// Acknowledges a ReleaseResourcesMsg, so the releaser can stop
/// retransmitting. A release whose retransmissions all get lost is
/// reclaimed by the manager's lease-expiry sweep instead.
struct ReleaseOkMsg {
  static constexpr MsgType kType = MsgType::ReleaseOk;
  std::uint64_t lease_id = 0;
  std::uint64_t request_id = 0;  ///< echoes ReleaseResourcesMsg::request_id

  static auto fields(auto& m) { return std::tie(m.lease_id, m.request_id); }
};

/// Lease renewal: extends a live lease by `extension` from now. Granted
/// leases are time-limited; long-running clients renew instead of paying
/// a fresh placement.
struct ExtendLeaseMsg {
  static constexpr MsgType kType = MsgType::ExtendLease;
  std::uint64_t lease_id = 0;
  Duration extension = 0;
  std::uint64_t request_id = 0;  ///< session request id; 0 is refused

  static auto fields(auto& m) { return std::tie(m.lease_id, m.extension, m.request_id); }
};

struct ExtendOkMsg {
  static constexpr MsgType kType = MsgType::ExtendOk;
  std::uint64_t lease_id = 0;
  Time expires_at = 0;           ///< the new deadline
  std::uint64_t request_id = 0;  ///< echoes ExtendLeaseMsg::request_id

  static auto fields(auto& m) { return std::tie(m.lease_id, m.expires_at, m.request_id); }
};

/// Fulfillment contract of a batched allocation (BatchAllocateMsg::mode).
enum class BatchMode : std::uint8_t {
  BestEffort,   ///< return whatever subset of the request fits
  AllOrNothing, ///< grant everything or nothing (partials are rolled back)
};

/// Batched lease acquisition: one round trip acquires leases totalling
/// `workers` function instances, aggregated across executors — and, on a
/// sharded manager, across shards. Replaces the serial client loop of
/// one LeaseRequest per partial grant (Sec. III-D) for wide allocations.
struct BatchAllocateMsg {
  static constexpr MsgType kType = MsgType::BatchAllocate;
  std::uint32_t client_id = 0;
  std::uint32_t workers = 0;       ///< total function instances wanted
  std::uint64_t memory_bytes = 0;  ///< per-worker memory
  Duration timeout = 0;            ///< validity of every granted lease
  std::uint8_t mode = 0;           ///< BatchMode
  std::uint64_t request_id = 0;    ///< session request id; 0 is refused

  static auto fields(auto& m) {
    return std::tie(m.client_id, m.workers, m.memory_bytes, m.timeout, m.mode, m.request_id);
  }
};

/// Reply to BatchAllocateMsg: the granted leases (possibly spanning
/// several executors and shards). `complete` is false when the request
/// was only partially satisfiable — under AllOrNothing the grant list is
/// then empty and every provisional lease has been released.
struct BatchGrantedMsg {
  static constexpr MsgType kType = MsgType::BatchGranted;
  bool complete = false;
  std::vector<LeaseGrantMsg> grants;
  std::string error;             ///< set when `grants` is empty
  std::uint64_t request_id = 0;  ///< echoes BatchAllocateMsg::request_id

  static auto fields(auto& m) { return std::tie(m.complete, m.grants, m.error, m.request_id); }
};

/// Push notification from the resource manager to the executor manager
/// that hosts a renewed lease: the sandbox deadline moves to the new
/// expiry, so renewal stays a single client<->manager round trip.
struct LeaseRenewedMsg {
  static constexpr MsgType kType = MsgType::LeaseRenewed;
  std::uint64_t lease_id = 0;
  Time expires_at = 0;  ///< the renewed deadline

  static auto fields(auto& m) { return std::tie(m.lease_id, m.expires_at); }
};

/// Why the resource manager refused to even process a request.
enum class DenialReason : std::uint8_t {
  Overload,      ///< ingress admission shed the request (token bucket / WFQ)
  QuotaExceeded, ///< reserved: per-tenant policy refusal at admission time
};

/// Admission-control shed (ingress protection): the manager refused the
/// request *before* any shard lock, placement scan, or quota-eviction
/// work — the whole point is that saying no is nearly free under
/// overload. `retry_after` is the manager's backoff hint (how long until
/// the tenant's token bucket refills enough to admit one request);
/// well-behaved clients wait at least that long before retrying, and
/// LeaseSet heal loops treat it as a floor under their jittered
/// exponential backoff. Fixed layout, hot under overload by definition —
/// rides the zero-allocation fast path like LeaseGrant.
struct LeaseDeniedMsg {
  static constexpr MsgType kType = MsgType::LeaseDenied;
  std::uint8_t reason = 0;       ///< DenialReason
  Duration retry_after = 0;      ///< backoff hint (0 = none)
  std::uint64_t request_id = 0;  ///< echoes the denied request's id

  static auto fields(auto& m) { return std::tie(m.reason, m.retry_after, m.request_id); }
};

/// Why the resource manager reclaimed a lease ahead of its deadline.
enum class TerminationReason : std::uint8_t {
  QuotaPressure,  ///< evicted to make room under a tenant worker quota
  Drain,          ///< hosting executor is being drained
  Rebalance,      ///< hosting executor migrated to another shard
};

/// Fast reclamation (Sec. III-B): the manager terminates live leases and
/// pushes this to both sides — the hosting executor tears the sandboxes
/// down, the owning client (on its notification stream, see
/// SubscribeEventsMsg) untracks the leases and, with self-healing
/// enabled, transparently re-allocates. One eviction sweep pushes one
/// message per stream, carrying every lease of that stream it evicted
/// (one or many), so reclamation storms cost one notification per stream
/// per sweep instead of one per lease. Reason and decision timestamp are
/// shared — a sweep has one cause and one decision point; `evicted_at`
/// lets receivers report end-to-end reclamation latency.
struct LeasesTerminatedMsg {
  static constexpr MsgType kType = MsgType::LeasesTerminated;
  std::uint8_t reason = 0;  ///< TerminationReason
  Time evicted_at = 0;      ///< when the manager made the eviction decision
  std::vector<std::uint64_t> lease_ids;
  std::uint64_t seq = 0;    ///< per-stream push sequence, from 1

  static auto fields(auto& m) { return std::tie(m.reason, m.evicted_at, m.lease_ids, m.seq); }
};

/// Opens a notification stream: the client sends this once on a dedicated
/// connection and then only receives pushes (LeasesTerminated) for leases
/// owned by `client_id`. Keeping pushes off the request stream preserves
/// its strict request-response discipline.
struct SubscribeEventsMsg {
  static constexpr MsgType kType = MsgType::SubscribeEvents;
  std::uint32_t client_id = 0;

  static auto fields(auto& m) { return std::tie(m.client_id); }
};

/// One entry of the manager's replicated lease-state log (rfaas/journal.hpp):
/// every lease state transition the primary applies is appended as one of
/// these fixed-layout records and streamed to warm standby replicas, which
/// replay them into an identical in-memory state. Field meaning depends on
/// the op (journal::op semantics); `checksum` chains over every field plus
/// the previous record's checksum, so a corrupted or reordered stream is
/// detected at the first bad record. Hot on every grant — rides the
/// zero-allocation fast path.
struct JournalRecordMsg {
  static constexpr MsgType kType = MsgType::JournalRecord;
  std::uint64_t seq = 0;       ///< monotonically increasing log position (1-based)
  std::uint8_t op = 0;         ///< journal::Op discriminator
  std::uint64_t lease_id = 0;  ///< shard-tagged lease id (lease ops)
  std::uint32_t client_id = 0; ///< owning tenant (Grant) / locality (AddExecutor)
  std::uint64_t executor = 0;  ///< shard-tagged global executor id
  std::uint32_t workers = 0;   ///< workers of the lease / executor capacity
  std::uint64_t memory = 0;    ///< lease memory / executor free memory
  Time time = 0;               ///< expires_at (lease ops) or last_ack (executor ops)
  std::uint64_t aux = 0;       ///< op-specific (flags, packed endpoint, peer id)
  std::uint64_t aux2 = 0;      ///< op-specific (packed epoch|cores)
  std::uint64_t checksum = 0;  ///< chained integrity checksum

  static auto fields(auto& m) {
    return std::tie(m.seq, m.op, m.lease_id, m.client_id, m.executor, m.workers, m.memory, m.time,
                    m.aux, m.aux2, m.checksum);
  }
};

/// Header of a snapshot transfer to a (re)attaching standby: the state it
/// is about to install covers the journal up to `upto_seq`, and `digest`
/// must match the installed state's digest — a torn or stale snapshot is
/// rejected before any record is replayed on top of it. `chain_checksum`
/// seeds the standby's checksum chain, so the first record streamed on
/// top of the snapshot is verified like every later one.
struct SnapshotOfferMsg {
  static constexpr MsgType kType = MsgType::SnapshotOffer;
  std::uint32_t manager_epoch = 0;  ///< epoch of the snapshotting primary
  std::uint64_t upto_seq = 0;       ///< journal position the snapshot covers
  std::uint64_t digest = 0;         ///< ManagerState::digest() of the snapshot
  std::uint64_t lease_count = 0;    ///< live leases in the snapshot (sanity)
  std::uint64_t chain_checksum = 0; ///< journal chain value at upto_seq

  static auto fields(auto& m) {
    return std::tie(m.manager_epoch, m.upto_seq, m.digest, m.lease_count, m.chain_checksum);
  }
};

/// Pushed by a freshly promoted manager on every (re)subscribed
/// notification stream: the manager epoch moved, so clients must
/// re-validate every lease they hold (LeaseRevalidate) — grants issued by
/// the dead primary after its last journaled record, or by a fenced
/// zombie, fail re-validation and flow into the self-healing path.
struct FailoverAnnounceMsg {
  static constexpr MsgType kType = MsgType::FailoverAnnounce;
  std::uint32_t manager_epoch = 0; ///< epoch of the announcing manager
  std::uint64_t applied_seq = 0;   ///< last journal record the standby replayed
  Time promoted_at = 0;            ///< when the standby took over

  static auto fields(auto& m) { return std::tie(m.manager_epoch, m.applied_seq, m.promoted_at); }
};

/// Client-side lease audit after a failover: "do you still honour this
/// lease?" The manager answers ExtendOk with the lease's current deadline
/// when it survived replay, or LeaseError when it is unknown — the client
/// then treats it as lost and heals. Hot during reconnect storms — rides
/// the zero-allocation fast path.
struct LeaseRevalidateMsg {
  static constexpr MsgType kType = MsgType::LeaseRevalidate;
  std::uint32_t client_id = 0;   ///< owning tenant presented for the audit
  std::uint64_t lease_id = 0;    ///< lease being re-validated
  std::uint64_t request_id = 0;  ///< session request id; 0 is refused

  static auto fields(auto& m) { return std::tie(m.client_id, m.lease_id, m.request_id); }
};

/// Best-effort cancellation of an in-flight invocation, sent on the
/// executor manager's control stream when a hedged duplicate lost the
/// race. Fire-and-forget: the manager parks the tag in a bounded set and
/// workers drop a matching invocation before dispatch — a cancel that
/// arrives too late costs one wasted execution, never a wrong result
/// (the client already consumed the winner; the executor dedup table
/// absorbs the loser's reply). Fixed layout — rides the zero-allocation
/// fast path since it fires on the invocation hot path.
struct InvocationCancelMsg {
  static constexpr MsgType kType = MsgType::InvocationCancel;
  std::uint32_t client_id = 0;       ///< cancelling tenant
  std::uint64_t invocation_tag = 0;  ///< (epoch << 32) | seq of the doomed invocation
  std::uint64_t request_id = 0;      ///< unused for matching (fire-and-forget); 0 ok

  static auto fields(auto& m) { return std::tie(m.client_id, m.invocation_tag, m.request_id); }
};

/// Client-observed executor health, pushed to the resource manager when a
/// client's per-worker circuit breaker trips (and periodically while
/// degraded). The manager folds the observation into the executor's
/// registry entry so every scheduler policy deprioritizes the gray host,
/// and drains it outright after ResourceManager::kQuarantineTrips trips.
/// Fixed layout — health reports spike exactly when the fleet is sick.
struct HealthReportMsg {
  static constexpr MsgType kType = MsgType::HealthReport;
  std::uint32_t client_id = 0;    ///< reporting tenant
  std::uint32_t device = 0;       ///< fabric device of the suspect executor
  std::uint32_t latency_us = 0;   ///< EWMA invocation latency observed (µs)
  std::uint32_t ok_count = 0;     ///< successful invocations in this window
  std::uint32_t fail_count = 0;   ///< timeouts/corruptions in this window
  std::uint64_t request_id = 0;   ///< session request id; 0 is refused

  static auto fields(auto& m) {
    return std::tie(m.client_id, m.device, m.latency_us, m.ok_count, m.fail_count, m.request_id);
  }
};

/// Acknowledges a HealthReportMsg so the reporter can stop retransmitting.
struct HealthReportOkMsg {
  static constexpr MsgType kType = MsgType::HealthReportOk;
  std::uint64_t request_id = 0;  ///< echoes HealthReportMsg::request_id

  static auto fields(auto& m) { return std::tie(m.request_id); }
};

/// Allocation outcome from the lightweight allocator.
struct AllocationReplyMsg {
  static constexpr MsgType kType = MsgType::AllocationReply;
  bool ok = false;               ///< sandbox up and workers spawned
  std::uint64_t sandbox_id = 0;  ///< handle for code submission/deallocation
  std::uint16_t rdma_port = 0;   ///< port workers accept on
  std::uint64_t spawn_ns = 0;    ///< measured sandbox+worker spawn time
  std::string error;             ///< failure reason when !ok

  static auto fields(auto& m) {
    return std::tie(m.ok, m.sandbox_id, m.rdma_port, m.spawn_ns, m.error);
  }
};

/// Code-submission acknowledgement.
struct SubmitCodeOkMsg {
  static constexpr MsgType kType = MsgType::SubmitCodeOk;
  std::uint16_t fn_index = 0;  ///< index in the sandbox's function table

  static auto fields(auto& m) { return std::tie(m.fn_index); }
};

/// Function-code shipping into a live sandbox (padded to the library
/// size on the wire, so the transfer cost is real).
struct SubmitCodeMsg {
  static constexpr MsgType kType = MsgType::SubmitCode;
  std::uint64_t sandbox_id = 0; ///< target sandbox
  std::string function_name;    ///< registry name of the function package
  std::uint64_t code_size = 0;  ///< shipped library size (bytes on the wire)

  static auto fields(auto& m) { return std::tie(m.sandbox_id, m.function_name, m.code_size); }
};

/// Sandbox teardown; the executor returns the lease to the manager.
struct DeallocateMsg {
  static constexpr MsgType kType = MsgType::Deallocate;
  std::uint64_t sandbox_id = 0; ///< sandbox to tear down
  std::uint64_t lease_id = 0;   ///< its backing lease

  static auto fields(auto& m) { return std::tie(m.sandbox_id, m.lease_id); }
};

// ---------------------------------------------------------------------------
// Control-message codecs. Each message struct above names its MsgType
// (kType) and lists its fields once, in wire order (fields()); every codec
// is derived from that list. The envelope is [u8 type] followed by the
// fields, little-endian: an integer takes its size, a bool one byte
// (decoded as != 0), and a string or vector a u32 count followed by its
// elements. A vector of grants repeats LeaseGrantMsg::body(), the grant
// without its request id. Every reply keeps request_id as its last field,
// because reply_request_id() reads the trailing 8 bytes.
//
// Zero-allocation fast path (fig16). A message whose fields are all
// integers has a fixed layout of kWireSize<M> bytes: encode_into() writes
// it into a caller-provided buffer, and its decoder checks the span size
// once and copies the fields out, with no heap traffic. Its Bytes encode()
// allocates the exact size once and calls encode_into(). Messages with a
// string or vector go through ByteWriter and ByteReader; their encoder
// sums the fields' wire sizes first, so it too allocates once. Every
// decoder rejects a wrong type byte and any truncation, ignores trailing
// bytes, and never reserves memory from a count read off the wire.
// ---------------------------------------------------------------------------

namespace wire {

/// The fields of message M, as the tuple of references fields() returns.
template <class M>
using Fields = decltype(M::fields(std::declval<M&>()));

/// The integer a field travels as: a bool is one byte, 0 or 1.
template <class T>
using Int = std::conditional_t<std::is_same_v<T, bool>, std::uint8_t, T>;

template <class FieldTuple>
struct Layout;

/// Fixed when every field is an integer (bool included); the size counts
/// the type byte.
template <class... T>
struct Layout<std::tuple<T&...>> {
  static constexpr bool kFixed = (std::is_integral_v<T> && ...);
  static constexpr std::size_t kSize = (std::size_t{1} + ... + sizeof(Int<T>));
};

/// Writes one integer field at `p` and returns the byte after it.
template <class T>
std::uint8_t* put(std::uint8_t* p, T v) {
  const Int<T> x = v;
  std::memcpy(p, &x, sizeof x);
  return p + sizeof x;
}

}  // namespace wire

/// A control message whose fields are all integers.
template <class M>
concept FixedLayout = wire::Layout<wire::Fields<M>>::kFixed;

/// Wire size, type byte included, of a fixed-layout message.
template <FixedLayout M>
inline constexpr std::size_t kWireSize = wire::Layout<wire::Fields<M>>::kSize;

/// Encodes a fixed-layout message into `out` (caller-provided, no
/// allocation). Returns its wire size, or 0 when `capacity` is too small.
template <FixedLayout M>
std::size_t encode_into(const M& m, std::uint8_t* out, std::size_t capacity) {
  if (capacity < kWireSize<M>) return 0;
  out[0] = static_cast<std::uint8_t>(M::kType);
  std::apply([p = out + 1](const auto&... f) mutable { ((p = wire::put(p, f)), ...); },
             M::fields(m));
  return kWireSize<M>;
}

// Every control message with a field list, as X(Name, decoder) for the
// struct Name##Msg. This one list declares encode() and the named decoder
// of each message (below), defines them (protocol.cpp), and drives the
// protocol fuzz suite. A decode error reads "protocol: malformed Name".
#define RFS_CONTROL_MESSAGES(X)                   \
  X(RegisterExecutor, decode_register)            \
  X(RegisterOk, decode_register_ok)               \
  X(LeaseRequest, decode_lease_request)           \
  X(LeaseGrant, decode_lease_grant)               \
  X(AllocationRequest, decode_allocation_request) \
  X(AllocationReply, decode_allocation_reply)     \
  X(SubmitCode, decode_submit_code)               \
  X(SubmitCodeOk, decode_submit_code_ok)          \
  X(Deallocate, decode_deallocate)                \
  X(ReleaseResources, decode_release)             \
  X(ReleaseOk, decode_release_ok)                 \
  X(ExtendLease, decode_extend_lease)             \
  X(ExtendOk, decode_extend_ok)                   \
  X(BatchAllocate, decode_batch_allocate)         \
  X(BatchGranted, decode_batch_granted)           \
  X(LeaseRenewed, decode_lease_renewed)           \
  X(LeasesTerminated, decode_leases_terminated)   \
  X(SubscribeEvents, decode_subscribe_events)     \
  X(LeaseDenied, decode_lease_denied)             \
  X(JournalRecord, decode_journal_record)         \
  X(SnapshotOffer, decode_snapshot_offer)         \
  X(FailoverAnnounce, decode_failover_announce)   \
  X(LeaseRevalidate, decode_lease_revalidate)     \
  X(InvocationCancel, decode_invocation_cancel)   \
  X(HealthReport, decode_health_report)           \
  X(HealthReportOk, decode_health_report_ok)

// Decoders take a span, so a stack buffer or a received frame decodes
// without a copy; Bytes converts implicitly.
#define RFS_DECLARE_CODEC(Name, decoder) \
  Bytes encode(const Name##Msg& m);      \
  Result<Name##Msg> decoder(std::span<const std::uint8_t> raw);
RFS_CONTROL_MESSAGES(RFS_DECLARE_CODEC)
#undef RFS_DECLARE_CODEC

/// A bare envelope: Heartbeat, HeartbeatAck and DeallocateOk carry no body.
Bytes encode(MsgType type);

/// LeaseError: a reason string and the refused request's id (0 when the
/// request carried none).
Bytes encode_lease_error(const std::string& reason, std::uint64_t request_id = 0);
Result<std::string> decode_lease_error(std::span<const std::uint8_t> raw);

Result<MsgType> peek_type(const Bytes& raw);

/// True for message types that answer a request (and so echo its id):
/// LeaseGrant, LeaseError, LeaseDenied, ExtendOk, BatchGranted,
/// ReleaseOk, RegisterOk, HealthReportOk.
bool is_reply_type(MsgType t);

/// Extracts the echoed request id from a reply message — the trailing 8
/// bytes of every reply body. Fails on non-reply types and truncated
/// messages; returns 0 for the LeaseError refusing an id-0 request.
Result<std::uint64_t> reply_request_id(const Bytes& raw);

// ---------------------------------------------------------------------------
// Invocation data-plane frames (fig18). The submit frame is the 32-byte
// InvocationHeader followed by the input payload, written directly into
// the worker's registered buffer; the response carries no body at all —
// the executor writes the output into the client's result buffer and the
// completion's immediate value plus byte count are the entire response.
// Both directions encode into registered memory and decode from spans:
// zero heap traffic, zero intermediate copies.
// ---------------------------------------------------------------------------

/// Decoded view of a received submit frame. `payload` aliases the
/// registered receive buffer — nothing is copied or allocated.
struct InvocationFrame {
  InvocationHeader header;
  std::span<const std::uint8_t> payload;
};

/// Decoded result completion: the responder's entire reply is the packed
/// immediate of the result WRITE_WITH_IMM plus the completion byte count.
/// `checksum12` is the 12-bit folded output checksum carried in the high
/// imm bits (0 = responder did not checksum).
struct InvocationResponse {
  std::uint32_t invocation_id = 0;
  bool rejected = false;
  std::uint32_t output_bytes = 0;
  std::uint32_t checksum12 = 0;
};

/// Writes the submit-frame header into a registered buffer. Returns
/// InvocationHeader::kSize, or 0 when `capacity` is too small (the
/// unchecked InvocationHeader::pack stays available for fixed buffers).
std::size_t encode_into(const InvocationHeader& h, std::uint8_t* out, std::size_t capacity);

/// Bounds-checked decode of a received submit frame; `byte_len` is the
/// byte count of the WRITE_WITH_IMM completion. Fails when the write is
/// shorter than the header or overruns the buffer.
Result<InvocationFrame> decode_invocation_frame(std::span<const std::uint8_t> buf,
                                                std::uint32_t byte_len);

/// Decodes a result completion (immediate + byte count).
InvocationResponse decode_invocation_response(const fabric::Wc& wc);

}  // namespace rfs::rfaas
