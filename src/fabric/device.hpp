// Device, protection domain and memory region objects.
//
// A Device models one RDMA NIC attached to a simulated host. Protection
// domains scope memory registrations; every remote operation validates the
// rkey, bounds and access flags of the target region exactly as a real
// HCA would, so protection bugs in layers above surface as error CQEs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "fabric/model.hpp"
#include "fabric/verbs.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rfs::sim {
class Host;
}

namespace rfs::fabric {

class Fabric;
class ProtectionDomain;
class QueuePair;

/// A registered memory region. Does not own the memory.
class MemoryRegion {
 public:
  MemoryRegion(std::uint64_t addr, std::uint64_t length, std::uint32_t lkey, std::uint32_t rkey,
               std::uint32_t access)
      : addr_(addr), length_(length), lkey_(lkey), rkey_(rkey), access_(access) {}

  [[nodiscard]] std::uint64_t addr() const { return addr_; }
  [[nodiscard]] std::uint64_t length() const { return length_; }
  [[nodiscard]] std::uint32_t lkey() const { return lkey_; }
  [[nodiscard]] std::uint32_t rkey() const { return rkey_; }
  [[nodiscard]] std::uint32_t access() const { return access_; }

  /// True when [a, a+len) lies inside the region.
  [[nodiscard]] bool contains(std::uint64_t a, std::uint64_t len) const {
    return a >= addr_ && len <= length_ && a - addr_ <= length_ - len;
  }

 private:
  std::uint64_t addr_;
  std::uint64_t length_;
  std::uint32_t lkey_;
  std::uint32_t rkey_;
  std::uint32_t access_;
};

/// Protection domain: a namespace of memory registrations.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(Fabric& fabric) : fabric_(fabric) {}

  /// Registers `[base, base+length)` with the given access flags.
  /// Zero-cost variant used by unit tests and setup code.
  MemoryRegion* register_memory(void* base, std::uint64_t length, std::uint32_t access);

  /// Registration with the pinning cost applied in virtual time; used on
  /// the executor cold path where registration latency matters.
  /// Registrations within one PD serialize: ibv_reg_mr pins pages under
  /// the owning process's mmap write lock, so concurrent calls from one
  /// process queue up (one PD per actor models one process). This is why
  /// per-invocation registration collapses under fan-out while a
  /// pre-registered buffer pool does not (fig18).
  sim::Task<MemoryRegion*> register_memory_timed(void* base, std::uint64_t length,
                                                 std::uint32_t access);

  /// Invalidates a registration; later remote ops on its rkey fail.
  void deregister(MemoryRegion* mr);

  /// rkey lookup used by remote operations.
  [[nodiscard]] MemoryRegion* find_rkey(std::uint32_t rkey) const;
  /// lkey lookup used to validate local SGEs.
  [[nodiscard]] MemoryRegion* find_lkey(std::uint32_t lkey) const;

  [[nodiscard]] Fabric& fabric() { return fabric_; }

 private:
  friend class Device;

  Fabric& fabric_;
  std::unordered_map<std::uint32_t, std::unique_ptr<MemoryRegion>> by_rkey_;
  std::unordered_map<std::uint32_t, MemoryRegion*> by_lkey_;
  sim::Mutex register_gate_;  // mmap-lock serialization of timed registrations
  std::uint32_t qps_ = 0;     // queue pairs created on this PD and not yet freed
  bool deallocated_ = false;  // Device::dealloc_pd() ran; freed once qps_ is 0
};

/// One NIC. Owns its protection domains and queue pairs.
class Device {
 public:
  // Constructor and destructor are out of line: QueuePair is incomplete
  // here and both ODR-use the member containers' destructors.
  Device(Fabric& fabric, DeviceId id, std::string name, sim::Host* host);
  ~Device();

  [[nodiscard]] DeviceId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  /// Host the NIC is attached to (may be null in pure-fabric tests).
  [[nodiscard]] sim::Host* host() const { return host_; }

  /// Topology group (rack / leaf switch) of the NIC. Deployment helpers
  /// assign groups; locality-aware schedulers read them. Group 0 is the
  /// default "unplaced" group.
  [[nodiscard]] std::uint32_t locality() const { return locality_; }
  void set_locality(std::uint32_t group) { locality_ = group; }

  ProtectionDomain* alloc_pd();

  /// Deallocates a PD together with its registrations. A queue pair
  /// still on it (open, or destroyed with fabric tasks in flight) keeps
  /// it until the device frees that queue pair.
  void dealloc_pd(ProtectionDomain* pd);

  /// Protection domains not yet freed.
  [[nodiscard]] std::size_t pd_count() const { return pds_.size(); }

  /// Creates an unconnected RC queue pair.
  QueuePair* create_qp(ProtectionDomain* pd, class CompletionQueue* send_cq,
                       class CompletionQueue* recv_cq);

  /// Destroys a QP like ibv_destroy_qp: flushes its receive queue, fails
  /// the peer's later operations and stops the QP's completions. The
  /// object is freed once no in-flight fabric task references it.
  void destroy_qp(QueuePair* qp);

  /// Frees a destroyed QP whose last fabric task finished (fabric internal).
  void reclaim_qp(QueuePair* qp);

  /// Destroyed QPs that in-flight fabric tasks still hold (0 once the
  /// fabric is quiet).
  [[nodiscard]] std::size_t destroyed_qps() const;

 private:
  void free_pd(ProtectionDomain* pd);

  Fabric& fabric_;
  DeviceId id_;
  std::string name_;
  sim::Host* host_;
  std::uint32_t locality_ = 0;
  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
  std::unordered_map<std::uint32_t, std::unique_ptr<QueuePair>> qps_;
};

}  // namespace rfs::fabric
