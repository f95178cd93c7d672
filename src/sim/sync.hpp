// Synchronization primitives for simulation tasks: events, channels,
// mutexes, semaphores and future/promise pairs. All of them operate in
// virtual time through the current Engine and are strictly FIFO, which
// keeps the simulation deterministic.
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "sim/fifo.hpp"
#include "sim/task.hpp"

namespace rfs::sim {

/// Manual-reset broadcast event. `wait()` suspends until `set()`;
/// if already set, waiting completes immediately.
class Event {
 public:
  /// Awaitable returned by wait().
  struct Waiter {
    Event* ev;
    bool await_ready() const noexcept { return ev->set_; }
    void await_suspend(std::coroutine_handle<> h) { ev->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Waiter wait() { return Waiter{this}; }

  /// Signals the event and wakes every waiter (scheduled at current time).
  void set() {
    set_ = true;
    wake_all();
  }

  /// Clears the signal; subsequent wait() calls suspend again.
  void reset() { set_ = false; }

  [[nodiscard]] bool is_set() const { return set_; }

  /// Wakes all current waiters without latching the signal (condition
  /// variable style notify_all).
  void pulse() { wake_all(); }

 private:
  void wake_all() {
    auto* eng = Engine::current();
    while (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      eng->schedule_now(h);
    }
  }

  bool set_ = false;
  Fifo<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel. Multiple producers/consumers; receivers are
/// woken in FIFO order. `close()` wakes all receivers with empty results.
template <typename T>
class Channel {
 public:
  struct RecvAwaiter {
    Channel* ch;
    std::optional<T> result;

    bool await_ready() {
      if (!ch->items_.empty()) {
        result.emplace(std::move(ch->items_.front()));
        ch->items_.pop_front();
        return true;
      }
      return ch->closed_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch->recv_waiters_.push_back({h, this});
    }
    std::optional<T> await_resume() { return std::move(result); }
  };

  /// Sends a value; wakes the oldest waiting receiver if any.
  void send(T value) {
    assert(!closed_ && "send on closed channel");
    if (!recv_waiters_.empty()) {
      auto [h, awaiter] = recv_waiters_.front();
      recv_waiters_.pop_front();
      awaiter->result.emplace(std::move(value));
      Engine::current()->schedule_now(h);
      return;
    }
    items_.push_back(std::move(value));
  }

  /// Receives the next value, suspending while the channel is empty.
  /// Returns nullopt once the channel is closed and drained.
  RecvAwaiter recv() { return RecvAwaiter{this, std::nullopt}; }

  /// Closes the channel; queued items can still be received.
  void close() {
    closed_ = true;
    auto* eng = Engine::current();
    while (!recv_waiters_.empty()) {
      auto [h, awaiter] = recv_waiters_.front();
      recv_waiters_.pop_front();
      (void)awaiter;  // result stays empty -> receiver sees nullopt
      eng->schedule_now(h);
    }
  }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

 private:
  Fifo<T> items_;
  Fifo<std::pair<std::coroutine_handle<>, RecvAwaiter*>> recv_waiters_;
  bool closed_ = false;
};

/// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  explicit Semaphore(std::size_t initial) : count_(initial) {}

  struct Acquire {
    Semaphore* sem;
    bool await_ready() {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem->waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  /// Suspends until a unit is available, then takes it.
  Acquire acquire() { return Acquire{this}; }

  /// Takes a unit if available without suspending.
  bool try_acquire() {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  /// Returns a unit; hands it directly to the oldest waiter if any.
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      Engine::current()->schedule_now(h);
      return;
    }
    ++count_;
  }

  [[nodiscard]] std::size_t available() const { return count_; }
  [[nodiscard]] std::size_t waiting() const { return waiters_.size(); }

 private:
  std::size_t count_;
  Fifo<std::coroutine_handle<>> waiters_;
};

/// FIFO mutex built on a binary semaphore.
class Mutex {
 public:
  Mutex() : sem_(1) {}
  Semaphore::Acquire lock() { return sem_.acquire(); }
  void unlock() { sem_.release(); }

 private:
  Semaphore sem_;
};

namespace detail {
template <typename T>
struct FutureState {
  std::optional<T> value;
  Fifo<std::coroutine_handle<>> waiters;
  bool ready = false;

  void fulfill() {
    ready = true;
    auto* eng = Engine::current();
    while (!waiters.empty()) {
      eng->schedule_now(waiters.front());
      waiters.pop_front();
    }
  }
};
}  // namespace detail

template <typename T>
class Promise;

/// Future for a value produced by another simulation task. Mirrors the
/// std::future used by the paper's invoker API (`f.get()`), adapted to
/// coroutines: `co_await fut.get()`.
template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(std::shared_ptr<detail::FutureState<T>> st) : state_(std::move(st)) {}

  [[nodiscard]] bool valid() const { return static_cast<bool>(state_); }
  [[nodiscard]] bool ready() const { return state_ && state_->ready; }

  struct GetAwaiter {
    std::shared_ptr<detail::FutureState<T>> st;
    bool await_ready() const { return st->ready; }
    void await_suspend(std::coroutine_handle<> h) { st->waiters.push_back(h); }
    T await_resume() { return std::move(*st->value); }
  };

  /// Awaitable that completes when the producer fulfills the promise.
  GetAwaiter get() const {
    assert(state_);
    return GetAwaiter{state_};
  }

  /// Value accessor once ready() is true (used outside coroutines).
  const T& peek() const {
    assert(ready());
    return *state_->value;
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Future<T> get_future() { return Future<T>(state_); }

  void set_value(T v) {
    assert(!state_->ready);
    state_->value.emplace(std::move(v));
    state_->fulfill();
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Runs `n` homogeneous tasks and completes when all finish. The tasks
/// are spawned detached; completion is tracked through a shared counter.
class WaitGroup {
 public:
  explicit WaitGroup(std::size_t n = 0) : remaining_(n) {}

  void add(std::size_t n = 1) { remaining_ += n; }

  void done() {
    assert(remaining_ > 0);
    if (--remaining_ == 0) event_.set();
  }

  Event::Waiter wait() {
    if (remaining_ == 0) event_.set();
    return event_.wait();
  }

  [[nodiscard]] std::size_t remaining() const { return remaining_; }

 private:
  std::size_t remaining_;
  Event event_;
};

}  // namespace rfs::sim
