#include "fabric/cq.hpp"

#include <algorithm>
#include <cassert>

namespace rfs::fabric {

CompletionQueue::CompletionQueue(const NetworkModel& model)
    : model_(model), timer_(std::make_shared<DeadlineTimer>()) {
  timer_->cq = this;
}

CompletionQueue::~CompletionQueue() { timer_->cq = nullptr; }

std::size_t CompletionQueue::poll(std::span<Wc> out) {
  std::size_t n = 0;
  while (n < out.size() && !ready_.empty()) {
    out[n++] = ready_.front();
    ready_.pop_front();
  }
  return n;
}

sim::Task<Wc> CompletionQueue::wait_polling() {
  while (ready_.empty()) {
    co_await arrival_.wait();
  }
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

sim::Task<std::size_t> CompletionQueue::wait_polling_many(std::span<Wc> out) {
  while (ready_.empty()) {
    co_await arrival_.wait();
  }
  co_return poll(out);
}

sim::Task<Wc> CompletionQueue::wait_blocking() {
  while (ready_.empty()) {
    co_await arrival_.wait();
  }
  // The completion channel raised an event; the sleeping thread pays the
  // interrupt + wake-up cost before it can drain the CQ.
  co_await sim::delay(model_.blocking_wake_latency);
  // More completions may have arrived during the wake-up; FIFO order is
  // preserved because we pop from the front.
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

sim::Task<std::optional<Wc>> CompletionQueue::wait_polling_until(Time deadline) {
  if (ready_.empty()) {
    add_deadline(deadline);
    do {
      co_await arrival_.wait();
    } while (ready_.empty() && deadline > expired_through_);
    remove_deadline(deadline);
    if (ready_.empty()) co_return std::nullopt;
  }
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

sim::Task<std::optional<Wc>> CompletionQueue::wait_blocking_until(Time deadline) {
  // Same deadline handling as wait_polling_until; only a real arrival pays
  // the completion-channel wake-up.
  if (ready_.empty()) {
    add_deadline(deadline);
    do {
      co_await arrival_.wait();
    } while (ready_.empty() && deadline > expired_through_);
    remove_deadline(deadline);
    if (ready_.empty()) co_return std::nullopt;
  }
  co_await sim::delay(model_.blocking_wake_latency);
  if (ready_.empty()) co_return std::nullopt;  // raced away during wake-up
  Wc wc = ready_.front();
  ready_.pop_front();
  co_return wc;
}

void CompletionQueue::push(const Wc& wc) {
  ready_.push_back(wc);
  ++delivered_;
  arrival_.pulse();
}

void CompletionQueue::add_deadline(Time deadline) {
  deadlines_.push_back(deadline);
  if (timer_->due <= deadline) return;  // the live actor wakes in time
  // No actor, or one due after this deadline: start one for it. The late
  // one sees the new generation when it wakes and retires.
  timer_->due = deadline;
  sim::spawn(*sim::Engine::current(), run_deadline_timer(timer_, ++timer_->generation));
}

void CompletionQueue::remove_deadline(Time deadline) {
  auto it = std::find(deadlines_.begin(), deadlines_.end(), deadline);
  assert(it != deadlines_.end());
  *it = deadlines_.back();
  deadlines_.pop_back();
}

sim::Task<void> CompletionQueue::run_deadline_timer(std::shared_ptr<DeadlineTimer> timer,
                                                    std::uint64_t generation) {
  for (;;) {
    co_await sim::delay_until(timer->due);
    CompletionQueue* cq = timer->cq;
    if (cq == nullptr || timer->generation != generation) co_return;
    // Time out the waits whose deadline has passed (the pulse makes them
    // re-check), then sleep until the earliest deadline still ahead.
    const Time now = sim::Engine::current()->now();
    bool expired = false;
    Time next = kNever;
    for (const Time d : cq->deadlines_) {
      if (d <= now) {
        expired = true;
      } else {
        next = std::min(next, d);
      }
    }
    if (expired) {
      cq->expired_through_ = now;
      cq->arrival_.pulse();
    }
    timer->due = next;
    if (next == kNever) co_return;
  }
}

}  // namespace rfs::fabric
