#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <new>

#include "sim/task.hpp"

#ifdef RFS_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace rfs::sim {

namespace {
thread_local Engine* t_current = nullptr;
thread_local bool t_draining = false;

// Coroutine frame free lists (see task.hpp), indexed by size class:
// class c holds blocks of (c + 1) * kFrameClassBytes bytes.
constexpr std::size_t kFrameClassBytes = 64;
constexpr std::size_t kMaxPooledFrame = 16 * 1024;
constexpr std::size_t kFrameClasses = kMaxPooledFrame / kFrameClassBytes;

struct FreeFrame {
  FreeFrame* next;
};

struct FreeFrameLists {
  FreeFrame* heads[kFrameClasses] = {};
  bool closed = false;  // the thread is exiting: frames go straight to the heap
};
thread_local FreeFrameLists t_frames;

std::size_t frame_class(std::size_t size) { return (size - 1) / kFrameClassBytes; }
std::size_t class_bytes(std::size_t c) { return (c + 1) * kFrameClassBytes; }

// Hands the pooled frames back to the heap when the thread exits.
struct FreeFrameReaper {
  FreeFrameReaper() = default;
  FreeFrameReaper(const FreeFrameReaper&) = delete;
  FreeFrameReaper& operator=(const FreeFrameReaper&) = delete;
  ~FreeFrameReaper() {
    t_frames.closed = true;
    for (std::size_t c = 0; c < kFrameClasses; ++c) {
      while (FreeFrame* f = t_frames.heads[c]) {
        ASAN_UNPOISON_MEMORY_REGION(f, class_bytes(c));
        t_frames.heads[c] = f->next;
        ::operator delete(f, class_bytes(c));
      }
    }
  }
};
}  // namespace

namespace detail {

void* allocate_frame(std::size_t size) {
  if (size > kMaxPooledFrame) return ::operator new(size);
  const std::size_t c = frame_class(size);
  FreeFrame* f = t_frames.heads[c];
  if (f == nullptr) {
    if (!t_frames.closed) {
      thread_local FreeFrameReaper reaper;  // armed by the thread's first pooled frame
    }
    return ::operator new(class_bytes(c));
  }
  ASAN_UNPOISON_MEMORY_REGION(f, size);
  t_frames.heads[c] = f->next;
  return f;
}

void free_frame(void* frame, std::size_t size) noexcept {
  if (size > kMaxPooledFrame) {
    ::operator delete(frame, size);
    return;
  }
  const std::size_t c = frame_class(size);
  if (t_frames.closed) {
    ::operator delete(frame, class_bytes(c));
    return;
  }
  auto* f = static_cast<FreeFrame*>(frame);
  f->next = t_frames.heads[c];
  t_frames.heads[c] = f;
  ASAN_POISON_MEMORY_REGION(f, class_bytes(c));
}

}  // namespace detail

Engine::Engine() {
  if (t_current == nullptr) t_current = this;
}

Engine::~Engine() {
  // Backstop for owners that did not drain explicitly. Harnesses drain
  // first thing in their own destructors, while the simulated objects the
  // actors reference are still alive — prefer that.
  drain_detached();
  if (t_current == this) t_current = nullptr;
}

void Engine::register_detached(DetachedLink& link) {
  link.prev = nullptr;
  link.next = detached_;
  if (detached_ != nullptr) detached_->prev = &link;
  detached_ = &link;
  ++detached_count_;
}

void Engine::deregister_detached(DetachedLink& link) {
  if (link.prev != nullptr) {
    link.prev->next = link.next;
  } else {
    detached_ = link.next;
  }
  if (link.next != nullptr) link.next->prev = link.prev;
  link.prev = nullptr;
  link.next = nullptr;
  --detached_count_;
}

void Engine::drain_detached() {
  // Unlink before destroying, and re-read the head every time: a frame's
  // destruction runs its locals' destructors, which may spawn further
  // actors.
  const bool outer = t_draining;
  t_draining = true;
  while (detached_ != nullptr) {
    DetachedLink& link = *detached_;
    deregister_detached(link);
    link.frame.destroy();
  }
  t_draining = outer;
  // Queued resumptions may now dangle (their frames died above); nothing
  // may run after a drain, so drop them wholesale.
  near_ = {};
  far_ = {};
  now_lane_.clear();
  now_head_ = 0;
}

bool Engine::draining() { return t_draining; }

void Engine::schedule_at(Time t, std::coroutine_handle<> h) {
  if (t <= now_) {
    now_lane_.push_back(h);
    return;
  }
  if (t < horizon_) {
    near_.push(Item{t, seq_++, h});
  } else {
    far_.push(Item{t, seq_++, h});
  }
}

const Engine::Item* Engine::refill() {
  if (far_.empty()) return nullptr;
  // Saturating: a resumption parked at the end of time must not wrap the
  // horizon below the entries it admits.
  const Time first = far_.top().t;
  horizon_ = first + std::min(kHorizon, std::numeric_limits<Time>::max() - first);
  do {
    near_.push(far_.top());
    far_.pop();
  } while (!far_.empty() && far_.top().t < horizon_);
  return &near_.top();
}

Time Engine::run() {
  CurrentEngineScope scope(*this);
  while (step()) {
  }
  return now_;
}

Time Engine::run_until(Time deadline) {
  CurrentEngineScope scope(*this);
  while ((now_head_ < now_lane_.size() && now_ <= deadline) ||
         (earliest() != nullptr && earliest()->t <= deadline)) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

bool Engine::step() {
  std::coroutine_handle<> h;
  const Item* next = earliest();
  if (next != nullptr && next->t <= now_) {
    // Queued before time reached now_, so ahead of every lane entry.
    h = next->h;
    near_.pop();
  } else if (now_head_ < now_lane_.size()) {
    h = now_lane_[now_head_++];
    if (now_head_ == now_lane_.size()) {
      now_lane_.clear();
      now_head_ = 0;
    }
  } else if (next != nullptr) {
    now_ = next->t;
    h = next->h;
    near_.pop();
  } else {
    return false;
  }
  CurrentEngineScope scope(*this);
  h.resume();
  return true;
}

Engine* Engine::current() { return t_current; }

void Engine::make_current() { t_current = this; }

CurrentEngineScope::CurrentEngineScope(Engine& e) : prev_(t_current) { t_current = &e; }

CurrentEngineScope::~CurrentEngineScope() { t_current = prev_; }

}  // namespace rfs::sim
