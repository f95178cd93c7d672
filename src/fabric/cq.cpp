#include "fabric/cq.hpp"

#include <algorithm>
#include <cassert>

namespace rfs::fabric {

CompletionQueue::CompletionQueue(const NetworkModel& model) : model_(model) {}

std::size_t CompletionQueue::poll(std::span<Wc> out) {
  std::size_t n = 0;
  while (n < out.size() && available()) {
    out[n++] = ready_.front();
    ready_.pop_front();
  }
  return n;
}

sim::Task<std::optional<Wc>> CompletionQueue::wait_blocking(Time deadline) {
  std::optional<Wc> wc = co_await wait_polling(deadline);
  // The completion channel raised an event; the sleeping thread pays the
  // interrupt + wake-up cost before it returns. The delay is scheduled
  // here, when the wake runs, so it queues among the instant's other
  // resumptions exactly where a re-check after the wake would.
  if (wc.has_value()) co_await sim::delay(model_.blocking_wake_latency);
  co_return wc;
}

sim::Task<std::size_t> CompletionQueue::wait_polling_many(std::span<Wc> out) {
  assert(!out.empty());
  out[0] = *co_await wait_polling();  // no deadline: always a completion
  co_return 1 + poll(out.subspan(1));
}

void CompletionQueue::push(const Wc& wc) {
  ready_.push_back(wc);
  if (waiters_.empty()) return;
  const std::coroutine_handle<> h = waiters_.front().handle;
  waiters_.pop_front();
  ++claimed_;
  sim::Engine::current()->schedule_now(h);
}

void CompletionQueue::park(std::coroutine_handle<> h, Time deadline) {
  waiters_.push_back(Waiter{h, deadline});
  if (deadline != sim::kNever) alarm_.arm(deadline);
}

std::optional<Wc> CompletionQueue::take(std::coroutine_handle<> h) {
  if (h && !expired_.empty() && expired_.front() == h) {
    expired_.pop_front();
    if (!available()) return std::nullopt;  // nothing came by its deadline
  } else if (h) {
    --claimed_;
  }
  Wc wc = ready_.front();
  ready_.pop_front();
  return wc;
}

Time CompletionQueue::expire_deadlines(Time now) {
  // Keeps the parked order: the waiters still ahead rotate back in turn.
  Time next = sim::kNever;
  for (std::size_t n = waiters_.size(); n > 0; --n) {
    const Waiter w = waiters_.front();
    waiters_.pop_front();
    if (w.deadline <= now) {
      expired_.push_back(w.handle);
      sim::Engine::current()->schedule_now(w.handle);
    } else {
      next = std::min(next, w.deadline);
      waiters_.push_back(w);
    }
  }
  return next;
}

}  // namespace rfs::fabric
