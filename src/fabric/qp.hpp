// Reliable-connected queue pair.
//
// post_send validates the request and starts a detached fabric task that
// moves real bytes at the modelled time: payload serialization on the
// switch links, DMA-read cost for non-inlined data, CQE generation delay.
// Remote operations check rkey/bounds/access and fail with error CQEs on
// violation, so the protection model is enforced, not assumed. Every key
// check, the rkey at the landing and each SGE's lkey at post time, is
// one read of the key's slot in the fabric's KeyTable (device.hpp),
// which holds the registration's PD, bounds and access flags.
//
// A payload work request costs three engine events, all in its task's one
// coroutine frame: the launch (the task is started at post time + the
// doorbell, plus the DMA read of a non-inlined payload), the landing
// (bytes placed, a Send scattered, the target's receive consumed) and the
// CQE, cqe_overhead later, where both completions are posted. A Read
// adds the request leg, an atomic the request leg and its execution. A
// Send/WriteImm that finds no receive under RnrPolicy::Wait parks on the
// target; the post_recv that takes it lands it and starts a task due
// cqe_overhead later, which posts both completions through the same
// helper.
//
// Device::destroy_qp() acts like ibv_destroy_qp: posted receives flush,
// the peer's later operations fail with RetryExceeded, and no completion
// of the QP reaches its CQs afterwards (their owner may free them next).
// Fabric tasks still in flight hold counted references; the device frees
// the QP when the last one finishes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "fabric/cq.hpp"
#include "fabric/device.hpp"
#include "fabric/verbs.hpp"
#include "sim/fifo.hpp"

namespace rfs::fabric {

enum class QpState : std::uint8_t { Reset, Rts, Error };

/// Behaviour when a Send/WriteImm arrives and no receive is posted.
enum class RnrPolicy : std::uint8_t {
  Error,  // sender gets RnrRetryExceeded (rnr_retry exhausted)
  Wait,   // delivery parks until a receive is posted (infinite rnr_retry)
};

class QueuePair {
 public:
  QueuePair(Device& dev, std::uint32_t qp_num, ProtectionDomain* pd, CompletionQueue* send_cq,
            CompletionQueue* recv_cq)
      : dev_(dev), qp_num_(qp_num), pd_(pd), send_cq_(send_cq), recv_cq_(recv_cq) {}

  [[nodiscard]] std::uint32_t qp_num() const { return qp_num_; }
  [[nodiscard]] QpState state() const { return state_; }
  [[nodiscard]] Device& device() { return dev_; }
  [[nodiscard]] ProtectionDomain* pd() { return pd_; }
  [[nodiscard]] CompletionQueue* send_cq() { return send_cq_; }
  [[nodiscard]] CompletionQueue* recv_cq() { return recv_cq_; }
  [[nodiscard]] QueuePair* peer() { return peer_; }

  void set_rnr_policy(RnrPolicy p) { rnr_policy_ = p; }

  /// Connects this QP to `remote` (both transition to RTS). The
  /// ConnectionManager performs the out-of-band exchange; tests may call
  /// this directly.
  static void connect_pair(QueuePair& a, QueuePair& b);

  /// Posts a receive work request.
  Status post_recv(RecvWr wr);

  /// Posts a send-side work request. Validation errors (bad state, bad
  /// lkey, oversized inline) are returned synchronously; transport and
  /// remote-protection errors arrive as error CQEs.
  Status post_send(SendWr wr);

  /// Posts a chain of work requests with a single doorbell, mirroring the
  /// linked-list form of ibv_post_send: the first WR pays post_overhead,
  /// the rest ride the same MMIO write. All WRs are validated up front —
  /// a validation failure of any WR fails the whole chain before anything
  /// is posted (as a real post_send stops at the bad_wr).
  Status post_send_many(std::span<SendWr> wrs);

  /// Transitions to the error state, flushing posted receives.
  void set_error();

  [[nodiscard]] std::size_t recv_queue_depth() const { return recv_queue_.size(); }

 private:
  /// Counted reference a fabric task holds on a QP, so that a destroyed
  /// QP outlives the tasks still using it.
  class Ref {
   public:
    explicit Ref(QueuePair* qp) : qp_(qp) {
      if (qp_ != nullptr) ++qp_->refs_;
    }
    Ref(Ref&& o) noexcept : qp_(std::exchange(o.qp_, nullptr)) {}
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    Ref& operator=(Ref&&) = delete;
    ~Ref();

    [[nodiscard]] QueuePair* get() const { return qp_; }
    QueuePair* operator->() const { return qp_; }

   private:
    QueuePair* qp_;
  };

  struct Parked {
    SendWr wr;
    // Send/SendImm park a copy of the payload (the sender's buffer may be
    // reused before a receive shows up); WriteImm data is already placed
    // via the rkey, so only the byte count is kept — no copy.
    Bytes payload;
    std::uint32_t byte_len = 0;
  };

  /// The bytes of an inline send, captured at post time. Up to
  /// kStaged bytes (the default max_inline) they ride in the fabric
  /// task's frame, which is recycled, so the post allocates nothing; a
  /// larger max_inline falls back to a heap copy. Empty for other sends.
  class InlineCopy {
   public:
    static constexpr std::size_t kStaged = 128;

    InlineCopy() = default;
    explicit InlineCopy(const SgeList& sge);

    [[nodiscard]] std::span<const std::uint8_t> bytes() const {
      return {size_ <= kStaged ? staged_.data() : heap_.data(), size_};
    }

   private:
    std::size_t size_ = 0;
    Bytes heap_;
    std::array<std::uint8_t, kStaged> staged_;
  };

  /// The two completions of a landed Send/SendImm/WriteImm, posted
  /// together cqe_overhead after the landing.
  struct Delivery {
    Wc remote;              // for the target's receive CQ
    Wc local;               // for the initiator's send CQ
    bool signaled = false;  // the initiator wants a completion on success
  };

  Status validate_send(const SendWr& wr) const;
  /// Starts `wr`'s fabric task at its launch, its first resumption: now
  /// + `doorbell` (the MMIO write + WQE fetch, zero for a chained WR
  /// after the first), plus a PCIe DMA read for a non-inlined payload.
  void start_send(SendWr wr, Duration doorbell);
  sim::Task<void> run_send(Ref self, Ref remote, SendWr wr, InlineCopy inline_copy);
  /// The landing on the target ("this"): pops the receive, scatters a
  /// Send into it and fills both completions.
  Delivery deliver_with_recv(const SendWr& wr, std::span<const std::uint8_t> payload,
                             std::uint32_t byte_len);
  /// The CQE stage on the target: posts `d` to the CQs of the target and
  /// of `origin`, skipping a destroyed QP (its CQs may be gone) and an
  /// unsignaled success.
  void post_completions(QueuePair* origin, const Delivery& d);
  void complete_local(const SendWr& wr, WcStatus status, std::uint32_t byte_len);
  [[nodiscard]] static Bytes gather(const SgeList& sge);
  [[nodiscard]] Status validate_sges(const SgeList& sge) const;

  Device& dev_;
  std::uint32_t qp_num_;
  ProtectionDomain* pd_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  QueuePair* peer_ = nullptr;
  QpState state_ = QpState::Reset;
  RnrPolicy rnr_policy_ = RnrPolicy::Error;
  sim::Fifo<RecvWr> recv_queue_;
  sim::Fifo<Parked> parked_;  // deliveries waiting for a receive (RnrPolicy::Wait)
  std::uint32_t refs_ = 0;    // fabric tasks holding a Ref
  bool destroyed_ = false;    // Device::destroy_qp() ran; freed once refs_ is 0

  friend class Device;
};

}  // namespace rfs::fabric
