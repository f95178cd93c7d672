// One deadline timer for an owner with many deadlines: a sandbox's lease
// expiry, a lease's renewal, a hot worker's polling timeout, a control
// call's retransmission. The owner keeps its deadlines itself and gives
// the Alarm a `fire(now)` that acts on those due (it only pulses, sets or
// spawns, and never calls arm) and returns the next one, or kNever.
//
// arm(at) starts a detached actor only when none is live or the live one
// wakes after `at`. The actor sleeps until the due time, calls `fire` and
// sleeps again until the deadline it returned; kNever retires it. One
// superseded by a newer arm, or whose alarm is gone, retires at its wake
// without firing. A deadline pushed back after each event (a hot worker
// re-polls with a fresh 500 ms timeout, a session sends its next call)
// thus leaves no event, frame or allocation behind.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "common/units.hpp"
#include "sim/task.hpp"

namespace rfs::sim {

/// No deadline: the instant an alarm's `fire` returns to retire its actor.
inline constexpr Time kNever = std::numeric_limits<Time>::max();

class Alarm {
 public:
  explicit Alarm(std::function<Time(Time now)> fire);
  /// Empties `fire`, so a sleeping actor never calls into a gone owner.
  ~Alarm();

  // The owner's `fire` usually captures the owner's address.
  Alarm(const Alarm&) = delete;
  Alarm& operator=(const Alarm&) = delete;

  /// Makes sure an actor wakes by `at`: starts one on Engine::current()
  /// unless the live one is due by then.
  void arm(Time at);

 private:
  /// Shared with the actor, which may outlive the alarm.
  struct State {
    std::function<Time(Time)> fire;
    Time due = kNever;             // when the live actor wakes; kNever: no actor
    std::uint64_t generation = 0;  // an actor superseded by an earlier arm retires
  };
  static Task<void> run(std::shared_ptr<State> state, std::uint64_t generation);

  std::function<Time(Time)> fire_;  // moved into state_, allocated by the first arm
  std::shared_ptr<State> state_;
};

}  // namespace rfs::sim
