#include "fabric/device.hpp"

#include <algorithm>
#include <stdexcept>

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

std::uint32_t KeyTable::add(const ProtectionDomain& pd, std::uint64_t addr, std::uint64_t length,
                           std::uint32_t access) {
  std::uint32_t index = 0;
  if (!free_.empty()) {
    index = free_.front();
    free_.pop_front();
  } else {
    if (slots_.size() == kMaxSlots) throw std::length_error("fabric: memory key table is full");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{.lkey = index << kIndexShift});  // generation 0: never issued
    regions_.emplace_back();
  }
  Slot& s = slots_[index];
  s.pd = &pd;
  s.addr = addr;
  s.length = length;
  s.access = access;
  s.lkey += kGeneration;
  const MemoryRegion mr(addr, length, s.lkey, s.lkey | kRemote, access);
  if (regions_[index] == nullptr) {
    regions_[index] = std::make_unique<MemoryRegion>(mr);
  } else {
    *regions_[index] = mr;
  }
  return index;
}

void KeyTable::release(std::uint32_t index) {
  Slot& s = slots_[index];
  s.pd = nullptr;
  if ((s.lkey & kGenerationMask) != kGenerationMask) {
    free_.push_back(index);
  } else {
    regions_[index].reset();  // every generation spent: retired
  }
}

ProtectionDomain::~ProtectionDomain() {
  for (const std::uint32_t index : slots_) fabric_.keys().release(index);
}

MemoryRegion* ProtectionDomain::register_memory(void* base, std::uint64_t length,
                                                std::uint32_t access) {
  const std::uint32_t index =
      fabric_.keys().add(*this, reinterpret_cast<std::uint64_t>(base), length, access);
  slots_.push_back(index);
  return fabric_.keys().region(index);
}

sim::Task<MemoryRegion*> ProtectionDomain::register_memory_timed(void* base, std::uint64_t length,
                                                                 std::uint32_t access) {
  co_await register_gate_.lock();
  co_await sim::delay(fabric_.model().mr_register_time(length));
  register_gate_.unlock();
  co_return register_memory(base, length, access);
}

void ProtectionDomain::deregister(MemoryRegion* mr) {
  if (mr == nullptr || fabric_.keys().lkey(this, mr->lkey()) == nullptr) return;
  const std::uint32_t index = KeyTable::index_of(mr->lkey());
  auto it = std::find(slots_.begin(), slots_.end(), index);
  *it = slots_.back();
  slots_.pop_back();
  fabric_.keys().release(index);
}

MemoryRegion* ProtectionDomain::find_rkey(std::uint32_t rkey) const {
  const KeyTable& keys = fabric_.keys();
  return keys.rkey(this, rkey) != nullptr ? keys.region(KeyTable::index_of(rkey)) : nullptr;
}

MemoryRegion* ProtectionDomain::find_lkey(std::uint32_t lkey) const {
  const KeyTable& keys = fabric_.keys();
  return keys.lkey(this, lkey) != nullptr ? keys.region(KeyTable::index_of(lkey)) : nullptr;
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
