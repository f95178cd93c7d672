// Completion queue with the two consumption modes the paper contrasts:
//
//   - wait_polling(): busy-poll semantics. The waiter is resumed at the
//     exact virtual time the CQE is generated (the cost is that the
//     calling worker occupies a CPU core while "spinning" — accounted by
//     the caller). This is the hot-invocation path. It returns an
//     awaiter, not a task: a poll builds no coroutine frame.
//   - wait_blocking(): completion-channel semantics. The waiter is resumed
//     `blocking_wake_latency` after CQE generation, modelling the
//     interrupt + futex wake of ibv_get_cq_event. This is the warm path.
//
// Every wait that finds no completion parks in one FIFO of waiters. Each
// pushed completion wakes one waiter, the oldest, and stays in the queue
// until that waiter resumes and pops it; meanwhile it is claimed, so a
// later wait, a poll() or a timed-out waiter cannot take it. With one
// consumer per CQ, as every connection in this repository has, that is
// the order a re-checking broadcast gave. With several consumers a
// completion goes to the oldest parked waiter, not to whichever consumer
// re-checks first.
//
// Either wait takes an optional deadline and returns nullopt when no
// completion arrives by it. One sim::Alarm serves all of a CQ's finite
// deadlines: when it fires it wakes the parked waiters whose deadline has
// passed, and no others. A completion pushed at the deadline instant,
// before such a waiter resumes, is still unclaimed, so the waiter takes
// it: an arrival at the deadline wins. A hot worker re-polls with a fresh
// 500 ms deadline after each invocation, so a satisfied wait leaves no
// event, frame or allocation behind; a wait without a deadline never arms
// the alarm.
#pragma once

#include <coroutine>
#include <optional>
#include <span>

#include "fabric/model.hpp"
#include "fabric/verbs.hpp"
#include "sim/alarm.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"

namespace rfs::fabric {

class CompletionQueue {
 public:
  /// The busy-poll wait. Awaiting it takes an unclaimed completion at
  /// once, or parks until one is pushed or the deadline passes.
  class [[nodiscard]] PollAwaiter {
   public:
    PollAwaiter(CompletionQueue& cq, Time deadline) : cq_(cq), deadline_(deadline) {}

    bool await_ready() const { return cq_.available(); }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      cq_.park(h, deadline_);
    }
    std::optional<Wc> await_resume() { return cq_.take(handle_); }

   private:
    CompletionQueue& cq_;
    Time deadline_;
    std::coroutine_handle<> handle_;  // set while parked
  };

  explicit CompletionQueue(const NetworkModel& model);

  // Queue pairs, parked waiters and the deadline alarm hold the CQ's
  // address.
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Non-blocking poll: copies up to out.size() unclaimed completions,
  /// returns count.
  std::size_t poll(std::span<Wc> out);

  /// Busy-poll wait: resumes at the exact virtual time a completion is
  /// (or becomes) available and returns it. Returns nullopt when none
  /// arrives by `deadline`, resuming exactly at the deadline; a completion
  /// that arrives at the deadline instant still wins. Without a deadline
  /// it always returns a completion. The hot worker's deadline is the
  /// hot->warm rollback ("executors can roll back to warm executions
  /// after a configurable time without a new invocation").
  PollAwaiter wait_polling(Time deadline = sim::kNever) { return PollAwaiter(*this, deadline); }

  /// Blocking wait: like wait_polling, but a completion that arrives pays
  /// the completion channel's wake-up latency before it is returned. The
  /// completion is the waiter's from its wake, so no other consumer takes
  /// it during the wake-up. A deadline that passes first returns nullopt
  /// at the deadline itself (nothing woke the thread), so an executor
  /// that died after the request was submitted surfaces as a timeout
  /// instead of a stall.
  sim::Task<std::optional<Wc>> wait_blocking(Time deadline = sim::kNever);

  /// Batched busy-poll wait: resumes at the exact virtual time the FIRST
  /// completion becomes available and drains everything ready at that
  /// instant into `out` in one sweep, FIFO order — N completions that
  /// arrived together cost one poll, not N. Returns the count (>= 1,
  /// <= out.size(); `out` must not be empty).
  sim::Task<std::size_t> wait_polling_many(std::span<Wc> out);

  /// Pushes a completion and wakes the oldest parked waiter (fabric
  /// internal).
  void push(const Wc& wc);

  [[nodiscard]] bool empty() const { return ready_.empty(); }

 private:
  /// A parked wait. The CQ keeps it by value and never reads the
  /// waiting frame, which a teardown may destroy while it is parked.
  struct Waiter {
    std::coroutine_handle<> handle;
    Time deadline = sim::kNever;
  };

  /// A completion no woken waiter has claimed is ready.
  [[nodiscard]] bool available() const { return ready_.size() > claimed_; }
  /// Queues `h` behind the waiters parked before it and arms the alarm
  /// for a finite deadline.
  void park(std::coroutine_handle<> h, Time deadline);
  /// The result of the wait `h` resumed (null when it never parked): its
  /// claimed completion, an unclaimed one that came by its deadline, or
  /// nullopt.
  std::optional<Wc> take(std::coroutine_handle<> h);
  /// The alarm's fire: wakes the waiters due by `now` and returns the
  /// earliest deadline still parked.
  Time expire_deadlines(Time now);

  const NetworkModel& model_;
  sim::Fifo<Wc> ready_;
  sim::Fifo<Waiter> waiters_;  // parked, oldest first
  std::size_t claimed_ = 0;    // completions in ready_ promised to woken waiters
  /// Waiters woken by their deadline and not yet resumed, in wake order.
  /// Woken waiters resume in wake order, so a resuming waiter at the
  /// front of this queue timed out, and any other one holds a claim.
  sim::Fifo<std::coroutine_handle<>> expired_;
  sim::Alarm alarm_{[this](Time now) { return expire_deadlines(now); }};
};

}  // namespace rfs::fabric
