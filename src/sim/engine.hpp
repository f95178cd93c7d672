// Discrete-event simulation engine.
//
// The engine owns a time-ordered queue of coroutine resumptions. All
// simulated components (clients, resource manager, executors, NICs) are
// C++20 coroutines that suspend on awaitables (delays, events, channels)
// and are resumed by the engine at the right virtual time. The simulation
// is single-threaded and fully deterministic: ties in time are broken by
// insertion order.
//
// A resumption waits in one of three places:
//
//  - the same-instant lane: a FIFO (a vector plus a head index) for those
//    due at the current instant, about half of all resumptions;
//  - the wheel: kBuckets buckets of kBucketWidth ns, one turn spanning
//    kHorizon, for those due before now's bucket start + kHorizon. That is
//    nearly every future resumption of the microsecond traffic. A bucket
//    lists its entries in (time, insertion) order, and a bitmap of the
//    occupied buckets finds the first one from now's bucket on;
//  - the far heap: a binary heap ordered by (time, insertion) for the
//    rest, mostly lease, keep-alive and retransmission timers
//    milliseconds to minutes away.
//
// Why the order is exact. A wheel entry is due within one turn of now's
// bucket, so the scan from now's bucket, wrapping once, meets the buckets
// in time order. Within a bucket, a push goes after every entry that does
// not follow it by (time, insertion), so the bucket stays sorted. The
// next future resumption is whichever of the wheel's first entry and the
// heap's top comes first, and an entry never moves from one to the other:
// the order is that of a single heap. All of these comparisons, and the
// heap's, are Item's operator>, the one tie-break. The entries due now in
// either were queued before time reached now, so they run ahead of the
// lane, which keeps the order exact across the lane too. (A push carries
// the largest insertion number so far, so it lands at its bucket's tail
// unless the tail is due later.)
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace rfs::sim {

/// Intrusive node that threads a detached coroutine into its engine's
/// list of live actors. It lives inside the coroutine's promise, so
/// registering and deregistering an actor allocates nothing.
struct DetachedLink {
  DetachedLink* prev = nullptr;
  DetachedLink* next = nullptr;
  std::coroutine_handle<> frame;
};

class Engine {
 public:
  /// Span of the wheel (2^20 ns, about 1 ms): a resumption due less than
  /// this after now's bucket start waits in the wheel, a later one in
  /// the far heap.
  static constexpr Duration kHorizon = Duration{1} << 20;
  /// Width of one wheel bucket; kHorizon is a whole number of them.
  static constexpr Duration kBucketWidth = Duration{1} << 8;

  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `h` to resume at absolute time `t` (clamped to now()).
  void schedule_at(Time t, std::coroutine_handle<> h);

  /// Schedules `h` to resume after `d` nanoseconds.
  void schedule_after(Duration d, std::coroutine_handle<> h) { schedule_at(now_ + d, h); }

  /// Schedules `h` to resume at the current time, after already-queued
  /// same-time events.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  /// Runs until the event queue drains. Returns the final time.
  Time run();

  /// Runs until the queue drains or virtual time would exceed `deadline`.
  /// Events scheduled past the deadline remain queued.
  Time run_until(Time deadline);

  /// Executes a single event if one is pending. Returns false when idle.
  bool step();

  /// Number of pending events, in the wheel, the far heap or the
  /// same-instant lane.
  [[nodiscard]] std::size_t pending() const {
    return wheel_size_ + far_.size() + (now_lane_.size() - now_head_);
  }

  /// Tracks a detached (spawned) coroutine so still-suspended actors can
  /// be reclaimed at teardown. `link.frame` must be set; the task's final
  /// suspend passes the same link to deregister_detached(). Both are O(1)
  /// list splices.
  void register_detached(DetachedLink& link);
  void deregister_detached(DetachedLink& link);

  /// Detached coroutines that have not completed yet.
  [[nodiscard]] std::size_t detached_count() const { return detached_count_; }

  /// Destroys every detached coroutine that has not completed and drops
  /// all pending events. Call only when the engine will never run again,
  /// and while the objects those coroutines reference are still alive
  /// (e.g. first thing in a harness destructor); ~Engine calls it as a
  /// backstop. Frame destruction runs the destructors of suspended
  /// locals, so nothing the actors held (streams, buffers, connections)
  /// outlives the simulation.
  void drain_detached();

  /// True while drain_detached() destroys frames on this thread.
  /// Destructors of suspended locals check it to skip bookkeeping on
  /// objects that may already be gone: the backstop drain in ~Engine can
  /// run after the fabric those objects belonged to.
  static bool draining();

  /// The engine currently inside run()/step() on this thread. Awaitables
  /// use this to find their engine without threading it through every call.
  static Engine* current();

  /// Makes this engine current even outside run() — used by tests and by
  /// code that creates simulation objects before starting the loop.
  void make_current();

 private:
  struct Item {
    Time t;
    std::uint64_t seq;
    std::coroutine_handle<> h;
    bool operator>(const Item& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };

  /// A wheel entry, threaded into its bucket's list by index into nodes_.
  struct Node {
    Item item;
    std::uint32_t next;
  };
  struct Bucket {
    std::uint32_t head;
    std::uint32_t tail;
  };

  static constexpr std::size_t kBuckets = kHorizon / kBucketWidth;
  static constexpr std::size_t kWords = kBuckets / 64;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static_assert((kBucketWidth & (kBucketWidth - 1)) == 0 && kBuckets >= 64 && kWords <= 64,
                "the occupancy bitmap is 64-bit words under one summary word");

  static std::size_t bucket_of(Time t) { return (t / kBucketWidth) & (kBuckets - 1); }

  /// The earliest future resumption (nullptr when none is queued).
  const Item* earliest() const {
    const Item* wheel = first_ != kNil ? &nodes_[first_].item : nullptr;
    if (far_.empty()) return wheel;
    const Item* far = &far_.top();
    return wheel == nullptr || *wheel > *far ? far : wheel;
  }
  /// Removes `next`, the entry earliest() returned.
  void pop(const Item* next);
  void push_wheel(Time t, std::uint64_t seq, std::coroutine_handle<> h);
  /// The first occupied bucket at or after `from`, wrapping once.
  [[nodiscard]] std::size_t first_occupied(std::size_t from) const;

  // kBuckets lists of nodes_ indices. A bucket's fields mean something
  // only while its occupied_ bit is set, so nothing initializes them.
  std::unique_ptr<Bucket[]> buckets_ = std::make_unique_for_overwrite<Bucket[]>(kBuckets);
  std::vector<Node> nodes_;    // wheel entries and recycled nodes
  std::uint32_t free_ = kNil;  // recycled nodes, linked through next
  std::uint64_t occupied_[kWords] = {};  // bit b: bucket b is not empty
  std::uint64_t occupied_words_ = 0;     // bit w: occupied_[w] != 0
  std::size_t wheel_size_ = 0;
  std::uint32_t first_ = kNil;  // the wheel's earliest entry: its first bucket's head
  std::priority_queue<Item, std::vector<Item>, std::greater<>> far_;
  // Resumptions due at now_, in insertion order. Entries before
  // now_head_ have run; the vector is cleared (keeping its capacity)
  // whenever the lane drains, and it always drains before time advances.
  std::vector<std::coroutine_handle<>> now_lane_;
  std::size_t now_head_ = 0;
  DetachedLink* detached_ = nullptr;  // head of the live-actor list
  std::size_t detached_count_ = 0;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
};

/// RAII helper: makes an engine current for the enclosing scope.
class CurrentEngineScope {
 public:
  explicit CurrentEngineScope(Engine& e);
  ~CurrentEngineScope();

 private:
  Engine* prev_;
};

}  // namespace rfs::sim
