#include "fabric/device.hpp"

#include "fabric/fabric.hpp"
#include "fabric/qp.hpp"

namespace rfs::fabric {

const char* to_string(WcStatus s) {
  switch (s) {
    case WcStatus::Success: return "success";
    case WcStatus::LocalProtectionError: return "local-protection-error";
    case WcStatus::RemoteAccessError: return "remote-access-error";
    case WcStatus::RnrRetryExceeded: return "rnr-retry-exceeded";
    case WcStatus::RetryExceeded: return "retry-exceeded";
    case WcStatus::FlushError: return "flush-error";
  }
  return "?";
}

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::Send: return "send";
    case Opcode::SendImm: return "send-imm";
    case Opcode::Write: return "write";
    case Opcode::WriteImm: return "write-imm";
    case Opcode::Read: return "read";
    case Opcode::FetchAdd: return "fetch-add";
    case Opcode::CmpSwap: return "cmp-swap";
    case Opcode::Recv: return "recv";
    case Opcode::RecvImm: return "recv-imm";
  }
  return "?";
}

MemoryRegion* ProtectionDomain::register_memory(void* base, std::uint64_t length,
                                                std::uint32_t access) {
  std::uint32_t lkey = fabric_.next_key();
  std::uint32_t rkey = fabric_.next_key();
  auto mr = std::make_unique<MemoryRegion>(reinterpret_cast<std::uint64_t>(base), length, lkey,
                                           rkey, access);
  MemoryRegion* ptr = mr.get();
  by_lkey_[lkey] = ptr;
  by_rkey_[rkey] = std::move(mr);
  return ptr;
}

sim::Task<MemoryRegion*> ProtectionDomain::register_memory_timed(void* base, std::uint64_t length,
                                                                 std::uint32_t access) {
  co_await register_gate_.lock();
  co_await sim::delay(fabric_.model().mr_register_time(length));
  register_gate_.unlock();
  co_return register_memory(base, length, access);
}

void ProtectionDomain::deregister(MemoryRegion* mr) {
  if (mr == nullptr) return;
  by_lkey_.erase(mr->lkey());
  by_rkey_.erase(mr->rkey());
}

MemoryRegion* ProtectionDomain::find_rkey(std::uint32_t rkey) const {
  auto it = by_rkey_.find(rkey);
  return it == by_rkey_.end() ? nullptr : it->second.get();
}

MemoryRegion* ProtectionDomain::find_lkey(std::uint32_t lkey) const {
  auto it = by_lkey_.find(lkey);
  return it == by_lkey_.end() ? nullptr : it->second;
}

Device::Device(Fabric& fabric, DeviceId id, std::string name, sim::Host* host)
    : fabric_(fabric), id_(id), name_(std::move(name)), host_(host) {}

Device::~Device() = default;

ProtectionDomain* Device::alloc_pd() {
  pds_.push_back(std::make_unique<ProtectionDomain>(fabric_));
  return pds_.back().get();
}

void Device::dealloc_pd(ProtectionDomain* pd) {
  if (pd == nullptr) return;
  pd->deallocated_ = true;
  if (pd->qps_ == 0) free_pd(pd);
}

void Device::free_pd(ProtectionDomain* pd) {
  std::erase_if(pds_, [pd](const std::unique_ptr<ProtectionDomain>& p) { return p.get() == pd; });
}

QueuePair* Device::create_qp(ProtectionDomain* pd, CompletionQueue* send_cq,
                             CompletionQueue* recv_cq) {
  std::uint32_t qpn = fabric_.next_qp_num();
  auto qp = std::make_unique<QueuePair>(*this, qpn, pd, send_cq, recv_cq);
  QueuePair* ptr = qp.get();
  qps_[qpn] = std::move(qp);
  if (pd != nullptr) ++pd->qps_;
  return ptr;
}

void Device::destroy_qp(QueuePair* qp) {
  if (qp == nullptr) return;
  qp->set_error();  // posted receives flush into the recv CQ, still alive here
  qp->destroyed_ = true;
  // The peer observes RetryExceeded on its next operation, like a real RC
  // QP whose counterpart vanished.
  if (qp->peer_ != nullptr && qp->peer_->peer_ == qp) qp->peer_->peer_ = nullptr;
  qp->peer_ = nullptr;
  if (qp->refs_ == 0) reclaim_qp(qp);
}

void Device::reclaim_qp(QueuePair* qp) {
  ProtectionDomain* pd = qp->pd();
  qps_.erase(qp->qp_num());
  if (pd != nullptr && --pd->qps_ == 0 && pd->deallocated_) free_pd(pd);
}

std::size_t Device::destroyed_qps() const {
  std::size_t n = 0;
  for (const auto& entry : qps_) {
    if (entry.second->destroyed_) ++n;
  }
  return n;
}

}  // namespace rfs::fabric
