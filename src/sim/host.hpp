// Host model: a named machine with a fixed number of CPU cores and a
// memory budget. Cores are semaphore units; computing acquires a core for
// the duration of the kernel. Busy time is accounted per host, which feeds
// both the utilization figures (Fig. 2) and the rFaaS billing model.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "sim/sync.hpp"

namespace rfs::sim {

class Host {
 public:
  Host(std::string name, unsigned cores, std::uint64_t memory_bytes);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] unsigned cores() const { return cores_; }
  [[nodiscard]] std::uint64_t memory_bytes() const { return memory_; }

  /// Occupies one core for `d` nanoseconds of virtual time, waiting for a
  /// free core first. Accumulates busy time.
  Task<void> compute(Duration d);

  /// Occupies one core for `d` assuming the caller already holds a core
  /// token (hot worker executing a function on its pinned core).
  Task<void> compute_on_held_core(Duration d);

  /// Non-blocking core acquisition; used by warm invocations to test
  /// whether the target core is busy (Fig. 6 "check if the core is busy").
  bool try_acquire_core();

  /// Blocking core acquisition for long-lived pinned workers.
  Semaphore::Acquire acquire_core() { return core_sem_.acquire(); }

  void release_core() { core_sem_.release(); }

  [[nodiscard]] unsigned free_cores() const {
    return static_cast<unsigned>(core_sem_.available());
  }

  /// Reserves `bytes` of memory; fails when over budget.
  Status reserve_memory(std::uint64_t bytes);
  void release_memory(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t free_memory() const { return memory_ - memory_used_; }

  /// Total core-busy nanoseconds accumulated so far.
  [[nodiscard]] std::uint64_t busy_ns() const { return busy_ns_; }

  /// Adds externally-measured busy time (e.g. hot-polling occupancy that
  /// is tracked by the worker rather than through compute()).
  void note_busy(Duration d) { busy_ns_ += d; }

 private:
  std::string name_;
  unsigned cores_;
  std::uint64_t memory_;
  std::uint64_t memory_used_ = 0;
  std::uint64_t busy_ns_ = 0;
  Semaphore core_sem_;
};

}  // namespace rfs::sim
