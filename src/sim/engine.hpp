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
//  - the near tier: a binary heap ordered by (time, insertion) for those
//    due before `horizon_`;
//  - the far tier: a second heap of the same kind for the rest, mostly
//    lease, keep-alive and retransmission timers milliseconds to minutes
//    away, which the microsecond traffic thus never sifts past.
//
// Invariant: every near entry is due before `horizon_`, every far entry
// at or after it. The near tier's top is therefore the earliest future
// resumption. When the near tier runs dry, the next read of the minimum
// moves the horizon to the earliest far entry plus kHorizon and moves
// every far entry before it into the near tier, keeping its insertion
// number. Each entry is compared by the same (time, insertion) key in
// whichever tier it sits, so the order is exactly that of one heap. The
// heap entries due now were queued before time reached now, so they run
// ahead of the lane, which keeps the (time, insertion) order exact across
// the lane too.
#pragma once

#include <coroutine>
#include <cstdint>
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
  /// Width of the near tier: a refill admits the far entries due less
  /// than this after the earliest of them (2^20 ns, about 1 ms).
  static constexpr Duration kHorizon = Duration{1} << 20;

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

  /// Number of pending events, in either tier or the same-instant lane.
  [[nodiscard]] std::size_t pending() const {
    return near_.size() + far_.size() + (now_lane_.size() - now_head_);
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

  using Heap = std::priority_queue<Item, std::vector<Item>, std::greater<>>;

  /// The earliest future resumption (nullptr when none is queued), after
  /// refilling the near tier from the far one if it ran dry.
  const Item* earliest() { return near_.empty() ? refill() : &near_.top(); }
  const Item* refill();

  Heap near_;              // future resumptions due before horizon_
  Heap far_;               // future resumptions due at or after horizon_
  Time horizon_ = 0;
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
