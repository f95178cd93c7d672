// Coroutine task type for simulation processes.
//
// `Task<T>` is a lazy coroutine: nothing runs until it is either awaited
// by another task (structured, returns T) or detached onto the engine via
// `spawn` (fire-and-forget simulation actor). Completion uses symmetric
// transfer, so arbitrarily deep task chains do not grow the stack.
//
// Frames come from per-thread free lists, one per 64-byte size class up
// to 16 KiB (larger frames use the global heap), so a simulation whose
// set of live coroutines has reached its peak allocates no more frames.
// The lists are intrusive: a freed frame holds the next pointer, and the
// sized operator delete names its class, so a frame carries no header. A
// class only ever holds as many frames as were live at its peak; they go
// back to the heap when the thread exits. A frame that is never destroyed
// is in no list, so a leaked coroutine still shows up as a leak. Under
// AddressSanitizer a frame is poisoned while it sits in a list, so a read
// of a destroyed coroutine's frame is still reported.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "sim/engine.hpp"

// Defined when the build runs under AddressSanitizer (gcc or clang).
#if defined(__SANITIZE_ADDRESS__)
#define RFS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RFS_ASAN 1
#endif
#endif

namespace rfs::sim {

template <typename T = void>
class [[nodiscard]] Task;

namespace detail {

/// Takes a coroutine frame of `size` bytes from this thread's free list
/// for its size class, or from the heap.
void* allocate_frame(std::size_t size);
/// Returns a frame to this thread's free list for its size class; `size`
/// is the size it was allocated with.
void free_frame(void* frame, std::size_t size) noexcept;

struct PromiseBase {
  static void* operator new(std::size_t size) { return allocate_frame(size); }
  static void operator delete(void* frame, std::size_t size) noexcept { free_frame(frame, size); }

  std::coroutine_handle<> continuation;
  Engine* owner = nullptr;  // set by spawn(): the engine tracking this detached actor
  DetachedLink link;        // membership in the owner's live-actor list
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.owner != nullptr) {
        if (p.exception) std::terminate();  // detached task failed: simulation bug
        p.owner->deregister_detached(p.link);
        h.destroy();
      }
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }

  /// Awaiting a task starts it and resumes the awaiter upon completion.
  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // symmetric transfer: start the child now
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        return std::move(*h.promise().value);
      }
    };
    return Awaiter{handle_};
  }

  /// Releases ownership (used by spawn).
  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }

  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release() { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Detaches `t` onto the engine: it starts at virtual time `at` (clamped
/// to now), in insertion order among the resumptions due then, and
/// self-destroys upon completion.
inline void spawn_at(Engine& engine, Time at, Task<void> t) {
  auto h = t.release();
  assert(h);
  auto& p = h.promise();
  p.owner = &engine;
  p.link.frame = h;
  engine.register_detached(p.link);
  engine.schedule_at(at, h);
}

/// Detaches `t` onto the engine to start at the current virtual time. The
/// canonical way to start an actor.
inline void spawn(Engine& engine, Task<void> t) { spawn_at(engine, engine.now(), std::move(t)); }

/// Suspends the awaiting task for `d` nanoseconds of virtual time.
struct Delay {
  Duration d;
  // Always suspends: a zero delay yields behind the resumptions already
  // due now.
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    Engine::current()->schedule_after(d, h);
  }
  void await_resume() const noexcept {}
};

inline Delay delay(Duration d) { return Delay{d}; }

/// Suspends until absolute virtual time `t` (no-op when already past it).
struct DelayUntil {
  Time t;
  bool await_ready() const noexcept { return Engine::current()->now() >= t; }
  void await_suspend(std::coroutine_handle<> h) const { Engine::current()->schedule_at(t, h); }
  void await_resume() const noexcept {}
};

inline DelayUntil delay_until(Time t) { return DelayUntil{t}; }

}  // namespace rfs::sim
