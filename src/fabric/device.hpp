// Device, protection domain and memory region objects, and the fabric's
// table of memory keys.
//
// A Device models one RDMA NIC attached to a simulated host. Protection
// domains scope memory registrations; every remote operation validates the
// rkey, bounds and access flags of the target region exactly as a real
// HCA would, so protection bugs in layers above surface as error CQEs.
//
// Keys. Every registration takes one slot of the fabric-wide KeyTable,
// the NIC's memory-protection table, and its keys name that slot. As in
// a ConnectX memory key, a key is a table index plus a variant:
//
//   bits 31..12  slot index (up to 2^20 live registrations)
//   bits 11..1   the slot's generation, 1..2047
//   bit      0   1 for the rkey, 0 for the lkey
//
// A check is one indexed read: the slot holds the PD, base, length and
// access flags, and a key is live while its slot is held by that PD under
// that generation. Key 0, and any generation not yet issued, is invalid;
// so is an lkey presented as an rkey, and an rkey as an lkey. A freed
// slot goes to the back of a free list and comes back with its
// generation bumped, so a stale key is refused and the table stays as
// large as the peak number of live registrations. A slot whose 2047
// generations are spent is retired for good, so no key is ever issued
// twice.
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
#include "sim/fifo.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rfs::sim {
class Host;
}

namespace rfs::fabric {

class Fabric;
class ProtectionDomain;
class QueuePair;

/// A registered memory region, as its owner sees it (the ibv_mr the
/// registration returns). Does not own the memory. The NIC's view of the
/// same registration is its KeyTable slot.
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

 private:
  std::uint64_t addr_;
  std::uint64_t length_;
  std::uint32_t lkey_;
  std::uint32_t rkey_;
  std::uint32_t access_;
};

/// The fabric's memory-protection table (see the key layout above).
class KeyTable {
 public:
  /// One registration as the NIC checks it.
  struct Slot {
    const ProtectionDomain* pd = nullptr;  // null while the slot is free
    std::uint64_t addr = 0;
    std::uint64_t length = 0;
    std::uint32_t access = 0;
    std::uint32_t lkey = 0;  // the live registration's; while free, the last one issued

    /// True when [a, a+len) lies inside the region.
    [[nodiscard]] bool contains(std::uint64_t a, std::uint64_t len) const {
      return a >= addr && len <= length && a - addr <= length - len;
    }
  };

  /// The live registration of `pd` that `key` names as an rkey, or null.
  [[nodiscard]] const Slot* rkey(const ProtectionDomain* pd, std::uint32_t key) const {
    return find(pd, key ^ kRemote);
  }
  /// The live registration of `pd` that `key` names as an lkey, or null.
  [[nodiscard]] const Slot* lkey(const ProtectionDomain* pd, std::uint32_t key) const {
    return find(pd, key);
  }

  /// Slots held, free or retired: the peak number of live registrations,
  /// plus one per 2047 registrations a single slot served.
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

 private:
  friend class ProtectionDomain;

  static constexpr std::uint32_t kRemote = 1;
  static constexpr unsigned kIndexShift = 12;
  static constexpr std::uint32_t kGeneration = 1u << 1;  // one generation, in key units
  static constexpr std::uint32_t kGenerationMask = (1u << kIndexShift) - kGeneration;
  static constexpr std::uint32_t kMaxSlots = 1u << (32 - kIndexShift);

  /// `lkey` is a key with the rkey bit cleared.
  [[nodiscard]] const Slot* find(const ProtectionDomain* pd, std::uint32_t lkey) const {
    const std::uint32_t index = lkey >> kIndexShift;
    if (index >= slots_.size()) return nullptr;
    const Slot& s = slots_[index];
    return s.pd == pd && s.lkey == lkey ? &s : nullptr;
  }
  [[nodiscard]] static std::uint32_t index_of(std::uint32_t key) { return key >> kIndexShift; }

  /// Takes a slot for `pd`'s registration of [addr, addr+length) and
  /// returns its index. Throws std::length_error when 2^20 are live.
  std::uint32_t add(const ProtectionDomain& pd, std::uint64_t addr, std::uint64_t length,
                    std::uint32_t access);
  /// Frees slot `index`: its keys die at once.
  void release(std::uint32_t index);
  /// The owner's view of the live registration in slot `index`.
  [[nodiscard]] MemoryRegion* region(std::uint32_t index) const { return regions_[index].get(); }

  std::vector<Slot> slots_;
  /// Beside the slots, so a check reads none of them: kept across reuse,
  /// so a registration into a freed slot allocates nothing.
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
  sim::Fifo<std::uint32_t> free_;  // freed slots, oldest first
};

/// Protection domain: a namespace of memory registrations.
class ProtectionDomain {
 public:
  explicit ProtectionDomain(Fabric& fabric) : fabric_(fabric) {}
  /// Frees the slots of the registrations still live: their keys die.
  ~ProtectionDomain();
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

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

  /// Invalidates a live registration of this PD; later operations on its
  /// keys fail. The region object may serve a later registration, so
  /// `mr` must not be used again.
  void deregister(MemoryRegion* mr);

  /// The live registration `rkey` names in this PD, or null.
  [[nodiscard]] MemoryRegion* find_rkey(std::uint32_t rkey) const;
  /// The live registration `lkey` names in this PD, or null.
  [[nodiscard]] MemoryRegion* find_lkey(std::uint32_t lkey) const;

  [[nodiscard]] Fabric& fabric() { return fabric_; }

 private:
  friend class Device;

  Fabric& fabric_;
  std::vector<std::uint32_t> slots_;  // key-table slots of its live registrations
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
