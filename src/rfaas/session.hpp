// Idempotent request/reply session over a lossy control-plane stream.
//
// The seed protocol was pure send-then-recv: one dropped LeaseRequest and
// the client hung forever, one duplicated reply and the next round trip
// decoded the wrong message. A Session owns exactly one TcpStream and
// turns it into a lease-protocol FSM (the shape of 802.15.4 submac
// retransmission and PPP control protocols over lossy serial links):
//
//  - every call() carries a monotonically increasing request id
//    ((epoch << 32) | sequence) echoed by the reply, so replies match
//    attempts positionally even when duplicated, delayed or reordered;
//  - lost exchanges retransmit on an adaptive timeout (SRTT + 4*RTTVAR,
//    RFC 6298 shape) with capped exponential backoff and a bounded
//    retransmit budget — Karn's rule: retransmitted exchanges never
//    feed the RTT estimator;
//  - one sim::Alarm per session serves every call's retransmission
//    deadline: it wakes the call in progress only if its deadline has
//    passed with no reply. Back-to-back calls, whose replies arrive well
//    inside the timeout, so share one timer actor instead of each leaving
//    a timer queued for a full timeout after its reply;
//  - a pump coroutine is the stream's only reader, classifying inbound
//    messages into the pending reply, duplicate replies (counted and
//    dropped — a LeaseGrant re-answering a completed request with a
//    DIFFERENT lease id increments double_grants, the invariant the
//    chaos gate enforces to zero), stale replies (dropped), and push
//    notifications drained via next_push();
//  - when the stream dies or the budget is exhausted the call fails
//    cleanly and the owner runs its recovery action (the PR 4
//    self-healing path re-allocates; executors re-register under a
//    fresh epoch, fencing the stale session at the manager).
//
// One session per stream: two id spaces on one stream would corrupt the
// manager's per-stream dedup table. Exactly one call() is outstanding at
// a time (an internal FIFO mutex queues callers), which also bounds
// the manager-side dedup window a stream can ever need.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "common/id_window.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "net/tcp.hpp"
#include "rfaas/protocol.hpp"
#include "sim/alarm.hpp"
#include "sim/fifo.hpp"
#include "sim/sync.hpp"

namespace rfs::rfaas {

/// Retransmission parameters of a Session.
struct SessionOptions {
  Duration rto_initial = 5_ms;  ///< first-attempt timeout before any RTT sample
  Duration rto_min = 1_ms;      ///< floor of the adaptive timeout
  Duration rto_max = 200_ms;    ///< backoff cap (and ceiling of the adaptive timeout)
  unsigned max_retransmits = 6; ///< extra attempts after the first send
  std::uint32_t epoch = 1;      ///< high half of every request id; bump per reconnect
};

/// One hardened request/reply session. Create one per control stream;
/// share it between every component that talks on that stream.
class Session {
 public:
  Session(sim::Engine& engine, std::shared_ptr<net::TcpStream> stream,
          SessionOptions options = {});

  /// Next request id to stamp into an outgoing message, monotonically
  /// increasing within the session's epoch.
  [[nodiscard]] std::uint64_t next_request_id();

  /// Sends `request` (which must carry `request_id`) and waits for the
  /// reply echoing that id, retransmitting on timeout. Fails when the
  /// stream closes or the retransmit budget is exhausted.
  sim::Task<Result<Bytes>> call(Bytes request, std::uint64_t request_id);

  /// Stamps the next request id into `msg` and calls with it: how every
  /// client-side request/reply exchange is made.
  template <typename Msg>
  sim::Task<Result<Bytes>> request(Msg msg) {
    msg.request_id = next_request_id();
    co_return co_await call(encode(msg), msg.request_id);
  }

  /// Next push notification (non-reply message) received on the stream;
  /// nullopt once the stream closed and the queue drained. Eviction pushes
  /// (LeaseTerminated/LeasesTerminated) must carry a seq, which the
  /// manager numbers per stream from 1: one with seq 0 or that does not
  /// decode is dropped, and a duplicated delivery is counted
  /// (duplicate_pushes) and filtered here. Other pushes carry no seq.
  sim::Task<std::optional<Bytes>> next_push();

  /// Fire-and-forget passthrough for messages outside the request/reply
  /// discipline (HeartbeatAck, SubscribeEvents).
  void send_raw(Bytes message);

  [[nodiscard]] const std::shared_ptr<net::TcpStream>& stream() const { return state_->stream; }
  [[nodiscard]] bool closed() const { return state_->closed || state_->stream->closed(); }
  [[nodiscard]] std::uint32_t epoch() const { return state_->options.epoch; }

  /// Chaos accounting.
  [[nodiscard]] std::uint64_t calls() const { return state_->calls; }
  [[nodiscard]] std::uint64_t retransmits() const { return state_->retransmits; }
  [[nodiscard]] std::uint64_t call_failures() const { return state_->call_failures; }
  [[nodiscard]] std::uint64_t duplicate_replies() const { return state_->duplicate_replies; }
  [[nodiscard]] std::uint64_t duplicate_pushes() const { return state_->duplicate_pushes; }
  [[nodiscard]] std::uint64_t double_grants() const { return state_->double_grants; }

  /// Current adaptive retransmission timeout (exposed for tests).
  [[nodiscard]] Duration current_rto() const;

 private:
  /// Bound on remembered completed-request ids and push sequence numbers.
  /// One outstanding call per session means a wandering duplicate can lag
  /// the live request by at most the injector's delay bound, far less than
  /// 256 exchanges; eviction therefore never forgets a live duplicate.
  static constexpr std::size_t kCompletedWindow = 256;
  static constexpr std::size_t kPushSeqWindow = 256;

  /// Shared by the pump coroutine and in-flight calls, so either may
  /// outlive the Session handle itself.
  struct State {
    State(sim::Engine& eng, std::shared_ptr<net::TcpStream> s, SessionOptions opts)
        : engine(eng), stream(std::move(s)), options(opts) {}

    sim::Engine& engine;
    std::shared_ptr<net::TcpStream> stream;
    SessionOptions options;

    sim::Mutex call_mutex;        ///< one outstanding call at a time
    std::uint32_t sequence = 0;

    bool waiting = false;         ///< a call is blocked on pending_id
    std::uint64_t pending_id = 0;
    std::optional<Bytes> pending_reply;
    sim::Event reply_event;

    Time deadline = sim::kNever;  ///< retransmission deadline of the waiting call
    sim::Alarm retransmit_alarm{[this](Time now) { return retransmit_due(*this, now); }};

    sim::Fifo<Bytes> pushes;
    sim::Event push_event;
    /// Seen eviction-push seqs. The manager numbers them per stream from
    /// 1, so the window holds the last kPushSeqWindow of them.
    IdWindow<bool, kPushSeqWindow> push_seqs;

    bool closed = false;

    /// Completed request ids -> granted lease id (0 when the reply was
    /// not a grant). Request ids grow by one per call, so old entries
    /// age out in call order, which is safe because one-call-at-a-time
    /// bounds how stale a wandering duplicate can be when it finally
    /// lands.
    IdWindow<std::uint64_t, kCompletedWindow> completed;

    // RFC 6298 estimator state (nanoseconds, like every sim Duration).
    bool has_rtt = false;
    double srtt = 0;
    double rttvar = 0;

    std::uint64_t calls = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t call_failures = 0;
    std::uint64_t duplicate_replies = 0;
    std::uint64_t duplicate_pushes = 0;
    std::uint64_t double_grants = 0;
  };

  static sim::Task<void> pump(std::shared_ptr<State> st);
  /// The retransmission alarm's fire: wakes the waiting call once its
  /// deadline has passed, else returns that deadline (kNever when no call
  /// is waiting).
  static Time retransmit_due(State& st, Time now);
  static void classify(State& st, Bytes msg);
  static void record_completed(State& st, std::uint64_t id, const Bytes& reply);
  static void note_rtt(State& st, Duration sample);
  static Duration rto_of(const State& st);

  std::shared_ptr<State> state_;
};

/// Where a resource-manager client dials from and to, and the parameters
/// of the sessions it opens there (`options.epoch` stamps the next one).
struct ManagerLink {
  net::TcpNetwork* tcp = nullptr;
  fabric::DeviceId device = 0;   ///< the client's own device
  fabric::DeviceId manager = 0;  ///< the resource manager's device
  std::uint16_t port = 0;
  SessionOptions options{};
};

/// The manager dial: connects over `link` and wraps the stream in a
/// Session, its only reader. Fails with the connect's error.
sim::Task<Result<std::shared_ptr<Session>>> dial(sim::Engine& engine, ManagerLink link);

/// A call whose reply only acknowledges it — a lease release, a health
/// report — retransmitted until the ack lands (a release that never does
/// is reclaimed by the manager's expiry sweep). Callers that need not
/// wait for the ack detach it.
template <typename Msg>
sim::Task<void> send_acked(std::shared_ptr<Session> session, Msg msg) {
  (void)co_await session->request(msg);
}

}  // namespace rfs::rfaas
