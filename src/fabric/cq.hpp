// Completion queue with the two consumption modes the paper contrasts:
//
//   - wait_polling(): busy-poll semantics. The waiter is resumed at the
//     exact virtual time the CQE is generated (the cost is that the
//     calling worker occupies a CPU core while "spinning" — accounted by
//     the caller). This is the hot-invocation path.
//   - wait_blocking(): completion-channel semantics. The waiter is resumed
//     `blocking_wake_latency` after CQE generation, modelling the
//     interrupt + futex wake of ibv_get_cq_event. This is the warm path.
//
// Both have deadline-bounded forms, and one sim::Alarm serves all of a
// CQ's deadline waits: it pulses the arrival event when the earliest
// deadline among the waits in progress passes. A hot worker re-polls with
// a fresh 500 ms deadline after each invocation, so a satisfied wait
// leaves no event, frame or allocation behind.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "fabric/model.hpp"
#include "fabric/verbs.hpp"
#include "sim/alarm.hpp"
#include "sim/fifo.hpp"
#include "sim/sync.hpp"

namespace rfs::fabric {

class CompletionQueue {
 public:
  explicit CompletionQueue(const NetworkModel& model);

  // Queue pairs and the deadline alarm hold the CQ's address.
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Non-blocking poll: copies up to out.size() completions, returns count.
  std::size_t poll(std::span<Wc> out);

  /// Busy-poll wait: resumes immediately when a CQE is (or becomes)
  /// available. Returns the completion.
  sim::Task<Wc> wait_polling();

  /// Batched busy-poll wait: resumes at the exact virtual time the FIRST
  /// completion becomes available and drains everything ready at that
  /// instant into `out` in one sweep, FIFO order — N completions that
  /// arrived together cost one poll, not N. Returns the count (>= 1,
  /// <= out.size()).
  sim::Task<std::size_t> wait_polling_many(std::span<Wc> out);

  /// Blocking wait: like wait_polling but adds the wake-up latency of the
  /// completion channel before returning.
  sim::Task<Wc> wait_blocking();

  /// Busy-poll wait with a deadline: returns nullopt when no completion
  /// arrives by `deadline`, resuming exactly at the deadline; a completion
  /// that arrives at the deadline instant still wins. Used for the
  /// hot->warm rollback of executor workers ("executors can roll back to
  /// warm executions after a configurable time without a new invocation").
  sim::Task<std::optional<Wc>> wait_polling_until(Time deadline);

  /// Blocking wait with a deadline: completion-channel semantics (the
  /// wake-up latency is charged on arrival) but returns nullopt when no
  /// completion arrives by `deadline`, at the deadline itself (nothing
  /// woke the thread). This is what lets an invocation deadline surface
  /// as a timeout instead of blocking forever when the remote executor
  /// died after the request was submitted.
  sim::Task<std::optional<Wc>> wait_blocking_until(Time deadline);

  /// Pushes a completion (fabric internal).
  void push(const Wc& wc);

  [[nodiscard]] std::size_t depth() const { return ready_.size(); }
  [[nodiscard]] bool empty() const { return ready_.empty(); }

  /// Completions delivered over the CQ's lifetime.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  /// Records a deadline wait in progress and arms the alarm for it.
  void add_deadline(Time deadline);
  /// Forgets one deadline wait in progress.
  void remove_deadline(Time deadline);
  /// The alarm's fire: times out the waits due by `now` (the pulse makes
  /// them re-check) and returns the earliest deadline still ahead.
  Time expire_deadlines(Time now);

  const NetworkModel& model_;
  sim::Fifo<Wc> ready_;
  sim::Event arrival_;
  std::uint64_t delivered_ = 0;
  std::vector<Time> deadlines_;  // one entry per deadline wait in progress
  Time expired_through_ = 0;     // the alarm has pulsed for every deadline up to here
  sim::Alarm alarm_{[this](Time now) { return expire_deadlines(now); }};
};

}  // namespace rfs::fabric
