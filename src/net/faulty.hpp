// Fault-injecting link model for the simulated network.
//
// Real datacenter links drop, duplicate, delay and reorder packets; the
// seed transport delivered every message exactly once and in order, so
// the lease protocol had never been exercised against the failures it
// must survive at scale (ROADMAP item 3). A FaultInjector sits between
// TcpStream::send and delivery: per directed link (or as a default for
// all links) it decides — from a single seeded deterministic RNG — to
// drop a message, deliver extra copies, or hold it long enough that
// later messages overtake it. Scheduled partitions black-hole a device
// pair for a time window.
//
// Every run is replayable from one uint64_t seed: the simulation is
// single-threaded and delivery decisions are drawn in event order, so a
// failing chaos schedule reproduces exactly (RFS_CHAOS_SEED in
// bench/fig19_chaos.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fabric/verbs.hpp"

namespace rfs::net {

/// Fault probabilities of one directed link. Probabilities are evaluated
/// independently per message; `reorder_p`/`delay_p` both inject an extra
/// uniform delay in [delay_min, delay_max] before the message touches
/// the wire (reordering emerges when later messages overtake the held
/// one), tracked under separate counters so schedules can weight them.
struct FaultSpec {
  double drop_p = 0.0;     ///< message silently discarded
  double dup_p = 0.0;      ///< a second copy is delivered
  double reorder_p = 0.0;  ///< held back so later sends overtake it
  double delay_p = 0.0;    ///< extra latency without intent to reorder
  Duration delay_min = 200_us;
  Duration delay_max = 2_ms;

  /// Uniform loss/dup/reorder at probability `p` each (the chaos bench's
  /// single-knob schedules).
  static FaultSpec symmetric(double p) {
    FaultSpec s;
    s.drop_p = s.dup_p = s.reorder_p = p;
    return s;
  }
};

/// Seeded chaos decision source consulted by the transport on every
/// message. Direction-agnostic configuration: set_link(a, b, spec)
/// applies to both a->b and b->a.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 1) : rng_(seed), seed_(seed) {}

  /// What the transport must do with one message.
  struct Decision {
    bool drop = false;
    unsigned duplicates = 0;   ///< extra copies to deliver
    Duration extra_delay = 0;  ///< added before the wire reservation
  };

  /// Applies to every link without an explicit spec.
  void set_default(const FaultSpec& spec) { default_spec_ = spec; }

  /// Applies to messages between `a` and `b` (both directions).
  void set_link(fabric::DeviceId a, fabric::DeviceId b, const FaultSpec& spec) {
    links_[key(a, b)] = spec;
  }

  /// Black-holes every message between `a` and `b` (both directions)
  /// with a send time in [from, until).
  void add_partition(fabric::DeviceId a, fabric::DeviceId b, Time from, Time until) {
    partitions_.push_back({key(a, b), from, until});
  }

  /// Draws the fate of one message from src to dst sent at `now`.
  Decision decide(fabric::DeviceId src, fabric::DeviceId dst, Time now);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Chaos accounting, aggregated over all links.
  struct Counters {
    std::uint64_t messages = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t delayed = 0;
    std::uint64_t partitioned = 0;  ///< drops caused by a partition window
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  static std::uint64_t key(fabric::DeviceId a, fabric::DeviceId b) {
    const std::uint64_t lo = a < b ? a : b;
    const std::uint64_t hi = a < b ? b : a;
    return (hi << 32) | lo;
  }

  struct Partition {
    std::uint64_t link;
    Time from;
    Time until;
  };

  Rng rng_;
  std::uint64_t seed_;
  FaultSpec default_spec_{};
  std::unordered_map<std::uint64_t, FaultSpec> links_;
  std::vector<Partition> partitions_;
  Counters counters_;
};

/// Executor-side fault probabilities, evaluated independently per
/// invocation dispatch. Unlike link faults (which hit messages on the
/// wire), these model the failure modes of the worker itself: the
/// process crashing mid-invocation, the sandbox wedging and never
/// answering, the host going "gray" (alive but slow — the hardest mode
/// to detect), and the response payload getting corrupted in flight.
struct WorkerFaultSpec {
  double crash_p = 0.0;    ///< worker dies before executing; no reply ever
  double stuck_p = 0.0;    ///< sandbox wedges; invocation never completes
  double gray_p = 0.0;     ///< dispatch pauses for a gray window first
  double corrupt_p = 0.0;  ///< output bytes flipped after execution
  /// Gray window bounds: the injected pre-dispatch pause is uniform in
  /// [gray_pause_min, gray_pause_max] scaled by gray_multiplier.
  double gray_multiplier = 1.0;
  Duration gray_pause_min = 2_ms;
  Duration gray_pause_max = 20_ms;

  [[nodiscard]] bool enabled() const {
    return crash_p > 0 || stuck_p > 0 || gray_p > 0 || corrupt_p > 0;
  }
};

/// Seeded executor-fault decision source, consulted by each Worker
/// immediately before dispatching an invocation. Shares the replayable
/// chaos discipline of FaultInjector: one uint64_t seed, fixed-order
/// draws, event-order determinism (RFS_CHAOS_SEED). Also hosts the
/// global execution registry for the double-execution gate: every
/// executed invocation tag is noted once, and a second execution of the
/// same tag — the exact bug the dedup table and deadline propagation
/// exist to prevent — is counted, never silently absorbed.
class WorkerFaultInjector {
 public:
  explicit WorkerFaultInjector(std::uint64_t seed = 1) : rng_(seed), seed_(seed) {}

  /// The injected fate of one invocation dispatch.
  struct Decision {
    bool crash = false;
    bool stuck = false;
    bool corrupt = false;
    Duration gray_delay = 0;  ///< pre-dispatch pause (0 = healthy)
  };

  /// Applies to every executor device without an explicit spec.
  void set_default(const WorkerFaultSpec& spec) { default_spec_ = spec; }

  /// Applies to workers of the executor on fabric device `device`.
  void set_executor(fabric::DeviceId device, const WorkerFaultSpec& spec) {
    executors_[device] = spec;
  }

  /// Draws the fate of one invocation on `device`.
  Decision decide(fabric::DeviceId device);

  /// Carries out a `corrupt` decision on a finished output: flips its
  /// first and last byte (one byte once when they coincide) and counts
  /// the corruption. An empty output has nothing to flip and is left
  /// alone, as is a dispatch that never produced an output (a replay,
  /// a drop), so `corruptions` counts exactly the outputs a checksum
  /// must catch.
  void corrupt(std::span<std::uint8_t> out);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Notes one execution of `tag`; returns false when the tag was
  /// already executed (a double execution). tag 0 (FT off) is ignored.
  bool note_execution(std::uint64_t tag);

  /// Chaos accounting, aggregated over all executors.
  struct Counters {
    std::uint64_t invocations = 0;
    std::uint64_t crashes = 0;
    std::uint64_t stucks = 0;
    std::uint64_t grays = 0;
    std::uint64_t corruptions = 0;        ///< outputs corrupt() flipped
    std::uint64_t double_executions = 0;  ///< the fig21 zero-gate
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  Rng rng_;
  std::uint64_t seed_;
  WorkerFaultSpec default_spec_{};
  std::unordered_map<std::uint64_t, WorkerFaultSpec> executors_;
  std::unordered_set<std::uint64_t> executed_tags_;
  Counters counters_;
};

}  // namespace rfs::net
