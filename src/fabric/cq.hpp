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
// Either wait takes an optional deadline and returns nullopt when no
// completion arrives by it. One sim::Alarm serves all of a CQ's finite
// deadlines: it pulses the arrival event when the earliest deadline among
// the waits in progress passes. A hot worker re-polls with a fresh 500 ms
// deadline after each invocation, so a satisfied wait leaves no event,
// frame or allocation behind; a wait without a deadline never arms it.
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

  /// Busy-poll wait: resumes at the exact virtual time a completion is
  /// (or becomes) available and returns it. Returns nullopt when none
  /// arrives by `deadline`, resuming exactly at the deadline; a completion
  /// that arrives at the deadline instant still wins. Without a deadline
  /// it always returns a completion. The hot worker's deadline is the
  /// hot->warm rollback ("executors can roll back to warm executions
  /// after a configurable time without a new invocation").
  sim::Task<std::optional<Wc>> wait_polling(Time deadline = sim::kNever) {
    return wait(deadline, false);
  }

  /// Blocking wait: like wait_polling, but a completion that arrives pays
  /// the completion channel's wake-up latency before it is returned. A
  /// deadline that passes first returns nullopt at the deadline itself
  /// (nothing woke the thread), so an executor that died after the
  /// request was submitted surfaces as a timeout instead of a stall. It
  /// also returns nullopt, after the wake-up, when another consumer of
  /// this CQ took the completion meanwhile.
  sim::Task<std::optional<Wc>> wait_blocking(Time deadline = sim::kNever) {
    return wait(deadline, true);
  }

  /// Batched busy-poll wait: resumes at the exact virtual time the FIRST
  /// completion becomes available and drains everything ready at that
  /// instant into `out` in one sweep, FIFO order — N completions that
  /// arrived together cost one poll, not N. Returns the count (>= 1,
  /// <= out.size()).
  sim::Task<std::size_t> wait_polling_many(std::span<Wc> out);

  /// Pushes a completion (fabric internal).
  void push(const Wc& wc);

  [[nodiscard]] bool empty() const { return ready_.empty(); }

 private:
  /// Both waits: the deadline, when finite, is armed on the alarm; a
  /// blocking wait charges the wake-up only for a completion that came.
  sim::Task<std::optional<Wc>> wait(Time deadline, bool blocking);

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
  std::vector<Time> deadlines_;  // one entry per deadline wait in progress
  Time expired_through_ = 0;     // the alarm has pulsed for every deadline up to here
  sim::Alarm alarm_{[this](Time now) { return expire_deadlines(now); }};
};

}  // namespace rfs::fabric
