#include "fabric/qp.hpp"

#include <cstring>

#include "fabric/fabric.hpp"

namespace rfs::fabric {

QueuePair::Ref::~Ref() {
  // A drain may destroy the frame holding this reference after the
  // device that owned the QP is gone.
  if (qp_ == nullptr || sim::Engine::draining()) return;
  if (--qp_->refs_ == 0 && qp_->destroyed_) qp_->dev_.reclaim_qp(qp_);
}

void QueuePair::connect_pair(QueuePair& a, QueuePair& b) {
  a.peer_ = &b;
  b.peer_ = &a;
  a.state_ = QpState::Rts;
  b.state_ = QpState::Rts;
}

Status QueuePair::post_recv(RecvWr wr) {
  if (state_ == QpState::Error) return Error::make(1, "post_recv on error QP");
  if (auto st = validate_sges(wr.sge); !st) return st;
  if (!parked_.empty()) {
    // A delivery has been waiting for this receive (RnrPolicy::Wait).
    Parked p = std::move(parked_.front());
    parked_.pop_front();
    recv_queue_.push_back(std::move(wr));
    // It lands now; its CQE stage is a task due cqe_overhead from now.
    const Delivery d = deliver_with_recv(p.wr, p.payload, p.byte_len);
    auto cqe = [](Ref target, Ref origin, Delivery delivery) -> sim::Task<void> {
      target->post_completions(origin.get(), delivery);
      co_return;
    };
    auto& engine = dev_.fabric().engine();
    sim::spawn_at(engine, engine.now() + dev_.fabric().model().cqe_overhead,
                  cqe(Ref(this), Ref(peer_), d));
    return Status::success();
  }
  recv_queue_.push_back(std::move(wr));
  return Status::success();
}

Status QueuePair::validate_send(const SendWr& wr) const {
  if (state_ != QpState::Rts) return Error::make(1, "post_send: QP not in RTS");
  const auto& model = dev_.fabric().model();

  switch (wr.opcode) {
    case Opcode::Send:
    case Opcode::SendImm:
    case Opcode::Write:
    case Opcode::WriteImm: {
      if (auto st = validate_sges(wr.sge); !st) return st;
      if (wr.inline_data && wr.sge.total_length() > model.max_inline) {
        return Error::make(2, "post_send: inline payload exceeds max_inline");
      }
      break;
    }
    case Opcode::Read: {
      // SGEs are the local destination; they must be writable locally.
      if (auto st = validate_sges(wr.sge); !st) return st;
      if (wr.inline_data) return Error::make(2, "post_send: READ cannot be inlined");
      break;
    }
    case Opcode::FetchAdd:
    case Opcode::CmpSwap: {
      if (wr.sge.size() != 1 || wr.sge[0].length != 8) {
        return Error::make(2, "post_send: atomics need one 8-byte response SGE");
      }
      if (auto st = validate_sges(wr.sge); !st) return st;
      if (wr.remote_addr % 8 != 0) {
        return Error::make(2, "post_send: atomic target must be 8-byte aligned");
      }
      break;
    }
    default:
      return Error::make(2, "post_send: invalid opcode");
  }
  return Status::success();
}

QueuePair::InlineCopy::InlineCopy(const SgeList& sge) : size_(sge.total_length()) {
  std::uint8_t* out = staged_.data();
  if (size_ > kStaged) {
    heap_.resize(size_);
    out = heap_.data();
  }
  for (const auto& s : sge) {
    if (s.length == 0) continue;  // its address may be null
    std::memcpy(out, reinterpret_cast<const void*>(s.addr), s.length);
    out += s.length;
  }
}

Status QueuePair::post_send(SendWr wr) {
  if (auto st = validate_send(wr); !st) return st;
  start_send(std::move(wr), dev_.fabric().model().post_overhead);
  return Status::success();
}

Status QueuePair::post_send_many(std::span<SendWr> wrs) {
  // Validate the whole chain before posting anything: ibv_post_send stops
  // at the first bad WR, and a half-posted chain is useless to callers.
  for (const SendWr& wr : wrs) {
    if (auto st = validate_send(wr); !st) return st;
  }

  const Duration doorbell = dev_.fabric().model().post_overhead;
  bool first = true;
  for (SendWr& wr : wrs) {
    // One doorbell for the chain: the first WR pays the MMIO write + WQE
    // fetch; later WRs are fetched with the same doorbell.
    start_send(std::move(wr), first ? doorbell : 0);
    first = false;
  }
  return Status::success();
}

void QueuePair::start_send(SendWr wr, Duration doorbell) {
  Duration launch = doorbell;
  const bool is_payload_op = wr.opcode == Opcode::Send || wr.opcode == Opcode::SendImm ||
                             wr.opcode == Opcode::Write || wr.opcode == Opcode::WriteImm;
  if (is_payload_op && !wr.inline_data) launch += dev_.fabric().model().dma_read_latency;
  InlineCopy inline_copy = wr.inline_data ? InlineCopy(wr.sge) : InlineCopy();
  auto& engine = dev_.fabric().engine();
  sim::spawn_at(engine, engine.now() + launch,
                run_send(Ref(this), Ref(peer_), std::move(wr), std::move(inline_copy)));
}

sim::Task<void> QueuePair::run_send([[maybe_unused]] Ref self, Ref remote, SendWr wr,
                                    InlineCopy inline_copy) {
  const auto& model = dev_.fabric().model();
  auto& net = dev_.fabric().net();

  // `remote` is the peer as of posting (destroy_qp() unlinks peer_); its
  // reference keeps a destroyed peer alive for the checks below.
  if (remote.get() == nullptr || remote->state_ == QpState::Error) {
    complete_local(wr, WcStatus::RetryExceeded, 0);
    co_return;
  }
  QueuePair& peer = *remote.get();
  const DeviceId src = dev_.id();
  const DeviceId dst = peer.dev_.id();

  if (wr.opcode == Opcode::FetchAdd || wr.opcode == Opcode::CmpSwap) {
    Time delivered = net.reserve_rdma(src, dst, 8);
    co_await sim::delay_until(delivered);
    if (peer.state_ == QpState::Error) {
      complete_local(wr, WcStatus::RetryExceeded, 0);
      co_return;
    }
    const KeyTable::Slot* mr = dev_.fabric().keys().rkey(peer.pd_, wr.rkey);
    if (mr == nullptr || !mr->contains(wr.remote_addr, 8) || !(mr->access & RemoteAtomic)) {
      complete_local(wr, WcStatus::RemoteAccessError, 0);
      co_return;
    }
    co_await sim::delay(model.atomic_latency);
    auto* target = reinterpret_cast<std::uint64_t*>(wr.remote_addr);
    std::uint64_t original = *target;
    if (wr.opcode == Opcode::FetchAdd) {
      *target = original + wr.swap_or_add;
    } else if (original == wr.compare) {
      *target = wr.swap_or_add;
    }
    Time response = net.reserve_rdma(dst, src, 8);
    co_await sim::delay_until(response);
    std::memcpy(reinterpret_cast<void*>(wr.sge[0].addr), &original, 8);
    co_await sim::delay(model.cqe_overhead);
    complete_local(wr, WcStatus::Success, 8);
    co_return;
  }

  if (wr.opcode == Opcode::Read) {
    const std::uint64_t total = wr.sge.total_length();
    Time request_at = net.reserve_rdma(src, dst, 16);
    co_await sim::delay_until(request_at);
    if (peer.state_ == QpState::Error) {
      complete_local(wr, WcStatus::RetryExceeded, 0);
      co_return;
    }
    const KeyTable::Slot* mr = dev_.fabric().keys().rkey(peer.pd_, wr.rkey);
    if (mr == nullptr || !mr->contains(wr.remote_addr, total) || !(mr->access & RemoteRead)) {
      complete_local(wr, WcStatus::RemoteAccessError, 0);
      co_return;
    }
    Time response = net.reserve_rdma(dst, src, total);
    co_await sim::delay_until(response);
    // Scatter the remote bytes into the local SGE list.
    const auto* cursor = reinterpret_cast<const std::uint8_t*>(wr.remote_addr);
    for (const auto& s : wr.sge) {
      std::memcpy(reinterpret_cast<void*>(s.addr), cursor, s.length);
      cursor += s.length;
    }
    co_await sim::delay(model.cqe_overhead);
    complete_local(wr, WcStatus::Success, static_cast<std::uint32_t>(total));
    co_return;
  }

  // Payload-carrying operations. Single-SGE non-inlined payloads — the
  // entire invocation data plane — move straight out of the registered
  // application buffer with no intermediate copy: the NIC reads the
  // buffer at transfer time, which is exactly the registered-memory
  // contract. Multi-SGE payloads gather into a staging copy (real HCAs
  // coalesce SGEs in the DMA engine; one copy models that fairly).
  Bytes staged;
  std::span<const std::uint8_t> payload;
  if (wr.inline_data) {
    payload = inline_copy.bytes();
  } else if (wr.sge.size() == 1) {
    payload = {reinterpret_cast<const std::uint8_t*>(wr.sge[0].addr), wr.sge[0].length};
  } else if (!wr.sge.empty()) {
    staged = gather(wr.sge);
    payload = {staged.data(), staged.size()};
  }
  const auto byte_len = static_cast<std::uint32_t>(payload.size());

  Time delivered = net.reserve_rdma(src, dst, payload.size());
  co_await sim::delay_until(delivered);
  if (peer.state_ == QpState::Error) {
    complete_local(wr, WcStatus::RetryExceeded, 0);
    co_return;
  }

  if (wr.opcode == Opcode::Write || wr.opcode == Opcode::WriteImm) {
    const KeyTable::Slot* mr = dev_.fabric().keys().rkey(peer.pd_, wr.rkey);
    if (mr == nullptr || !mr->contains(wr.remote_addr, payload.size()) ||
        !(mr->access & RemoteWrite)) {
      complete_local(wr, WcStatus::RemoteAccessError, 0);
      co_return;
    }
    // Zero-length RDMA writes are legal; memcpy from a null data() is not.
    if (!payload.empty()) {
      std::memcpy(reinterpret_cast<void*>(wr.remote_addr), payload.data(), payload.size());
    }
    if (wr.opcode == Opcode::Write) {
      co_await sim::delay(model.cqe_overhead);
      complete_local(wr, WcStatus::Success, byte_len);
      co_return;
    }
  }

  // Send/SendImm/WriteImm consume a receive at the target.
  if (peer.recv_queue_.empty()) {
    if (peer.rnr_policy_ == RnrPolicy::Wait) {
      // WriteImm data is already placed via the rkey above; only sends
      // must park a payload copy (the source buffer may be reused before
      // a receive shows up).
      Bytes copy;
      if (wr.opcode != Opcode::WriteImm) copy.assign(payload.begin(), payload.end());
      peer.parked_.push_back(Parked{wr, std::move(copy), byte_len});
      co_return;  // local completion generated on eventual delivery
    }
    complete_local(wr, WcStatus::RnrRetryExceeded, 0);
    co_return;
  }
  const Delivery d = peer.deliver_with_recv(wr, payload, byte_len);
  // CQE generation cost, then both completions become visible.
  co_await sim::delay(model.cqe_overhead);
  peer.post_completions(this, d);
}

QueuePair::Delivery QueuePair::deliver_with_recv(const SendWr& wr,
                                                 std::span<const std::uint8_t> payload,
                                                 std::uint32_t byte_len) {
  // Runs on the *receiving* QP ("this" is the target). For parked
  // WriteImm deliveries `payload` is empty (the data was placed when the
  // write landed) and `byte_len` carries the completion byte count.
  RecvWr recv = std::move(recv_queue_.front());
  recv_queue_.pop_front();

  Wc remote{};
  remote.wr_id = recv.wr_id;
  remote.qp_num = qp_num_;
  remote.byte_len = byte_len;

  Wc local{};
  local.wr_id = wr.wr_id;
  local.qp_num = peer_ != nullptr ? peer_->qp_num() : 0;
  local.opcode = wr.opcode;
  local.byte_len = byte_len;

  if (wr.opcode == Opcode::Send || wr.opcode == Opcode::SendImm) {
    const std::uint64_t capacity = recv.sge.total_length();
    if (payload.size() > capacity) {
      remote.status = WcStatus::LocalProtectionError;
      remote.opcode = Opcode::Recv;
      local.status = WcStatus::RemoteAccessError;
    } else {
      const std::uint8_t* cursor = payload.data();
      std::size_t remaining = payload.size();
      for (const auto& s : recv.sge) {
        std::size_t n = std::min<std::size_t>(remaining, s.length);
        if (n == 0) break;
        std::memcpy(reinterpret_cast<void*>(s.addr), cursor, n);
        cursor += n;
        remaining -= n;
      }
      remote.status = WcStatus::Success;
      remote.opcode = wr.opcode == Opcode::SendImm ? Opcode::RecvImm : Opcode::Recv;
      local.status = WcStatus::Success;
    }
  } else {  // WriteImm: payload already placed via rkey, receive only signals
    remote.status = WcStatus::Success;
    remote.opcode = Opcode::RecvImm;
    local.status = WcStatus::Success;
  }

  if (wr.opcode == Opcode::SendImm || wr.opcode == Opcode::WriteImm) {
    remote.imm = wr.imm;
    remote.has_imm = true;
  }

  return Delivery{remote, local, wr.signaled};
}

void QueuePair::post_completions(QueuePair* origin, const Delivery& d) {
  // A QP destroyed since the landing posts nothing: its CQs may be gone.
  if (!destroyed_) recv_cq_->push(d.remote);
  if (origin != nullptr && !origin->destroyed_ &&
      (d.signaled || d.local.status != WcStatus::Success)) {
    origin->send_cq_->push(d.local);
  }
}

void QueuePair::complete_local(const SendWr& wr, WcStatus status, std::uint32_t byte_len) {
  // A destroyed QP's CQs may be gone (see Device::destroy_qp()).
  if (destroyed_ || (!wr.signaled && status == WcStatus::Success)) return;
  Wc wc{};
  wc.wr_id = wr.wr_id;
  wc.status = status;
  wc.opcode = wr.opcode;
  wc.byte_len = byte_len;
  wc.qp_num = qp_num_;
  send_cq_->push(wc);
}

Bytes QueuePair::gather(const SgeList& sge) {
  Bytes out;
  out.reserve(sge.total_length());
  for (const auto& s : sge) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.addr);
    out.insert(out.end(), p, p + s.length);
  }
  return out;
}

Status QueuePair::validate_sges(const SgeList& sge) const {
  const KeyTable& keys = dev_.fabric().keys();
  for (const auto& s : sge) {
    const KeyTable::Slot* mr = keys.lkey(pd_, s.lkey);
    if (mr == nullptr) return Error::make(3, "invalid lkey");
    if (!mr->contains(s.addr, s.length)) return Error::make(3, "SGE outside memory region");
  }
  return Status::success();
}

void QueuePair::set_error() {
  if (state_ == QpState::Error) return;
  state_ = QpState::Error;
  while (!recv_queue_.empty()) {
    Wc wc{};
    wc.wr_id = recv_queue_.front().wr_id;
    wc.status = WcStatus::FlushError;
    wc.opcode = Opcode::Recv;
    wc.qp_num = qp_num_;
    recv_cq_->push(wc);
    recv_queue_.pop_front();
  }
  parked_.clear();
}

}  // namespace rfs::fabric
