#include "fabric/cq.hpp"

#include <algorithm>
#include <cassert>

namespace rfs::fabric {

CompletionQueue::CompletionQueue(const NetworkModel& model) : model_(model) {}

std::size_t CompletionQueue::poll(std::span<Wc> out) {
  std::size_t n = 0;
  while (n < out.size() && !ready_.empty()) {
    out[n++] = ready_.front();
    ready_.pop_front();
  }
  return n;
}

sim::Task<std::size_t> CompletionQueue::wait_polling_many(std::span<Wc> out) {
  while (ready_.empty()) {
    co_await arrival_.wait();
  }
  co_return poll(out);
}

sim::Task<std::optional<Wc>> CompletionQueue::wait(Time deadline, bool blocking) {
  if (ready_.empty()) {
    const bool bounded = deadline != sim::kNever;
    if (bounded) add_deadline(deadline);
    do {
      co_await arrival_.wait();
    } while (ready_.empty() && deadline > expired_through_);
    if (bounded) remove_deadline(deadline);
    if (ready_.empty()) co_return std::nullopt;
  }
  if (blocking) {
    // The completion channel raised an event; the sleeping thread pays
    // the interrupt + wake-up cost before it can drain the CQ. More
    // completions may arrive meanwhile; popping the front keeps FIFO order.
    co_await sim::delay(model_.blocking_wake_latency);
    if (ready_.empty()) co_return std::nullopt;
  }
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

void CompletionQueue::push(const Wc& wc) {
  ready_.push_back(wc);
  arrival_.pulse();
}

void CompletionQueue::add_deadline(Time deadline) {
  deadlines_.push_back(deadline);
  alarm_.arm(deadline);
}

void CompletionQueue::remove_deadline(Time deadline) {
  auto it = std::find(deadlines_.begin(), deadlines_.end(), deadline);
  assert(it != deadlines_.end());
  *it = deadlines_.back();
  deadlines_.pop_back();
}

Time CompletionQueue::expire_deadlines(Time now) {
  bool expired = false;
  Time next = sim::kNever;
  for (const Time d : deadlines_) {
    if (d <= now) {
      expired = true;
    } else {
      next = std::min(next, d);
    }
  }
  if (expired) {
    expired_through_ = now;
    arrival_.pulse();
  }
  return next;
}

}  // namespace rfs::fabric
