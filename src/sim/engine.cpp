#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
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
  nodes_.clear();
  free_ = kNil;
  std::fill(std::begin(occupied_), std::end(occupied_), 0);
  occupied_words_ = 0;
  wheel_size_ = 0;
  first_ = kNil;
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
  if (t - now_ / kBucketWidth * kBucketWidth < kHorizon) {
    push_wheel(t, seq_++, h);
  } else {
    far_.push(Item{t, seq_++, h});
  }
}

void Engine::push_wheel(Time t, std::uint64_t seq, std::coroutine_handle<> h) {
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  const Item item{t, seq, h};
  // Field by field: a Node built aside and copied in would be reloaded
  // across two partial stores, which the CPU cannot forward.
  Node& node = nodes_[n];
  node.item.t = t;
  node.item.seq = seq;
  node.item.h = h;
  node.next = kNil;
  const std::size_t b = bucket_of(t);
  Bucket& bucket = buckets_[b];
  const std::uint64_t bit = std::uint64_t{1} << (b % 64);
  if ((occupied_[b / 64] & bit) == 0) {
    bucket.head = n;
    bucket.tail = n;
    occupied_[b / 64] |= bit;
    occupied_words_ |= std::uint64_t{1} << (b / 64);
  } else if (!(nodes_[bucket.tail].item > item)) {
    nodes_[bucket.tail].next = n;
    bucket.tail = n;
  } else {
    // Before the tail: goes after every entry that does not follow it.
    std::uint32_t* link = &bucket.head;
    while (!(nodes_[*link].item > item)) link = &nodes_[*link].next;
    node.next = *link;
    *link = n;
  }
  if (first_ == kNil || nodes_[first_].item > item) first_ = n;
  ++wheel_size_;
}

std::size_t Engine::first_occupied(std::size_t from) const {
  const std::size_t w = from / 64;
  if (const std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from % 64))) {
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }
  // The words after w, else (wrapping) the first occupied word overall.
  std::uint64_t words = occupied_words_ & ~(~std::uint64_t{0} >> (63 - w));
  if (words == 0) words = occupied_words_;
  const auto first = static_cast<std::size_t>(std::countr_zero(words));
  return first * 64 + static_cast<std::size_t>(std::countr_zero(occupied_[first]));
}

void Engine::pop(const Item* next) {
  if (!far_.empty() && next == &far_.top()) {
    far_.pop();
    return;
  }
  const std::uint32_t n = first_;
  const std::size_t b = bucket_of(next->t);  // now's bucket: the entry runs at now_
  Bucket& bucket = buckets_[b];
  assert(bucket.head == n);
  bucket.head = nodes_[n].next;
  nodes_[n].next = free_;
  free_ = n;
  --wheel_size_;
  if (bucket.head != kNil) {
    first_ = bucket.head;
    return;
  }
  occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  if (occupied_[b / 64] == 0) occupied_words_ &= ~(std::uint64_t{1} << (b / 64));
  first_ = wheel_size_ > 0 ? buckets_[first_occupied(b)].head : kNil;
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
    pop(next);
  } else if (now_head_ < now_lane_.size()) {
    h = now_lane_[now_head_++];
    if (now_head_ == now_lane_.size()) {
      now_lane_.clear();
      now_head_ = 0;
    }
  } else if (next != nullptr) {
    now_ = next->t;
    h = next->h;
    pop(next);
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
