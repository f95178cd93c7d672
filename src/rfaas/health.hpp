// Gray-failure detection: per-executor health scoring + circuit breaker.
//
// A crashed executor announces itself (dead connection, flushed CQs); a
// gray one does not — it stays reachable but slow, poisoning tail
// latency while every liveness check passes. The tracker keeps two
// EWMAs per executor: completion latency (successes only) and failure
// rate (timeouts, corruptions, dead connections), and feeds a standard
// Closed -> Open -> HalfOpen circuit breaker:
//
//   Closed:   traffic flows; a failure EWMA above the threshold (after a
//             minimum sample count) trips the breaker.
//   Open:     the executor is skipped by selection for open_timeout.
//   HalfOpen: one probe invocation is let through; success closes the
//             breaker, failure re-opens it.
//
// Both the client (worker selection, hedging delay) and the resource
// manager (scheduler deprioritization, quarantine drain after repeated
// trips) consume this — the same signal at both ends of the data plane.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace rfs::rfaas {

class HealthTracker {
 public:
  enum class Breaker : std::uint8_t { Closed, Open, HalfOpen };

  /// Smoothing factor of the latency and failure EWMAs.
  static constexpr double kEwmaAlpha = 0.2;
  /// The breaker trips when the failure EWMA crosses this fraction...
  static constexpr double kFailureThreshold = 0.5;
  /// ...after at least this many observations (cold workers don't trip).
  static constexpr std::uint64_t kMinSamples = 4;

  /// `open_timeout`: Open -> HalfOpen probe delay of the breaker.
  explicit HealthTracker(Duration open_timeout) : open_timeout_(open_timeout) {}

  /// Records one invocation outcome. `latency` only feeds the latency
  /// EWMA on success (a timeout's latency is the deadline, not a signal).
  void record(bool ok, Duration latency, Time now) {
    ++samples_;
    ok ? ++ok_count_ : ++fail_count_;
    const double a = kEwmaAlpha;
    failure_ewma_ = (1.0 - a) * failure_ewma_ + a * (ok ? 0.0 : 1.0);
    if (ok) {
      latency_ewma_ = latency_ewma_ == 0
                          ? static_cast<double>(latency)
                          : (1.0 - a) * latency_ewma_ + a * static_cast<double>(latency);
    }
    switch (breaker_) {
      case Breaker::Closed:
        if (samples_ >= kMinSamples && failure_ewma_ > kFailureThreshold) trip(now);
        break;
      case Breaker::HalfOpen:
        if (ok) {
          // The probe came back healthy: close and forgive the history,
          // or the stale failure EWMA would re-trip on the next miss.
          breaker_ = Breaker::Closed;
          failure_ewma_ = 0.0;
          samples_ = 0;
        } else {
          trip(now);
        }
        break;
      case Breaker::Open:
        // A straggler completion from before the trip; no state change.
        break;
    }
  }

  /// True when selection may route an invocation here. An Open breaker
  /// past its timeout transitions to HalfOpen and admits one probe.
  bool allow(Time now) {
    if (breaker_ == Breaker::Open) {
      if (now < open_until_) return false;
      breaker_ = Breaker::HalfOpen;
      probe_outstanding_ = false;
    }
    if (breaker_ == Breaker::HalfOpen) {
      if (probe_outstanding_) return false;
      probe_outstanding_ = true;  // exactly one probe at a time
    }
    return true;
  }

  [[nodiscard]] Breaker state() const { return breaker_; }
  [[nodiscard]] Duration ewma_latency() const { return static_cast<Duration>(latency_ewma_); }
  /// Closed->Open transitions so far — the quarantine trigger counts
  /// these, not raw failures, so one burst cannot drain an executor.
  [[nodiscard]] unsigned trips() const { return trips_; }
  /// Lifetime outcome tallies (reported to the resource manager on trip).
  [[nodiscard]] std::uint32_t ok_count() const { return ok_count_; }
  [[nodiscard]] std::uint32_t fail_count() const { return fail_count_; }

 private:
  void trip(Time now) {
    breaker_ = Breaker::Open;
    open_until_ = now + open_timeout_;
    ++trips_;
  }

  Duration open_timeout_;
  double failure_ewma_ = 0.0;
  double latency_ewma_ = 0.0;
  std::uint64_t samples_ = 0;
  std::uint32_t ok_count_ = 0;
  std::uint32_t fail_count_ = 0;
  Breaker breaker_ = Breaker::Closed;
  Time open_until_ = 0;
  bool probe_outstanding_ = false;
  unsigned trips_ = 0;
};

}  // namespace rfs::rfaas
