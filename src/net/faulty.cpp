#include "net/faulty.hpp"

namespace rfs::net {

FaultInjector::Decision FaultInjector::decide(fabric::DeviceId src, fabric::DeviceId dst,
                                              Time now) {
  ++counters_.messages;
  const std::uint64_t link = key(src, dst);

  for (const auto& p : partitions_) {
    if (p.link == link && now >= p.from && now < p.until) {
      ++counters_.dropped;
      ++counters_.partitioned;
      return Decision{.drop = true};
    }
  }

  const auto it = links_.find(link);
  const FaultSpec& spec = it != links_.end() ? it->second : default_spec_;

  Decision d;
  // Draw every fault independently and in a fixed order, so the RNG
  // stream (and with it the whole run) only depends on the seed and the
  // message sequence — never on which probabilities are zero.
  const bool drop = rng_.bernoulli(spec.drop_p);
  const bool dup = rng_.bernoulli(spec.dup_p);
  const bool reorder = rng_.bernoulli(spec.reorder_p);
  const bool delay = rng_.bernoulli(spec.delay_p);
  const Duration held =
      static_cast<Duration>(rng_.uniform(static_cast<double>(spec.delay_min),
                                         static_cast<double>(spec.delay_max)));
  if (drop) {
    ++counters_.dropped;
    d.drop = true;
    return d;
  }
  if (dup) {
    ++counters_.duplicated;
    d.duplicates = 1;
  }
  if (reorder || delay) {
    reorder ? ++counters_.reordered : ++counters_.delayed;
    d.extra_delay = held;
  }
  return d;
}

WorkerFaultInjector::Decision WorkerFaultInjector::decide(fabric::DeviceId device) {
  ++counters_.invocations;
  const auto it = executors_.find(device);
  const WorkerFaultSpec& spec = it != executors_.end() ? it->second : default_spec_;

  Decision d;
  // Fixed-order draws, mirroring FaultInjector::decide: the RNG stream
  // depends only on the seed and the invocation sequence, never on
  // which probabilities are zero — one seed replays the whole schedule.
  const bool crash = rng_.bernoulli(spec.crash_p);
  const bool stuck = rng_.bernoulli(spec.stuck_p);
  const bool gray = rng_.bernoulli(spec.gray_p);
  const bool corrupt = rng_.bernoulli(spec.corrupt_p);
  const Duration pause = static_cast<Duration>(
      spec.gray_multiplier * rng_.uniform(static_cast<double>(spec.gray_pause_min),
                                          static_cast<double>(spec.gray_pause_max)));
  if (crash) {
    ++counters_.crashes;
    d.crash = true;
    return d;
  }
  if (stuck) {
    ++counters_.stucks;
    d.stuck = true;
    return d;
  }
  if (gray) {
    ++counters_.grays;
    d.gray_delay = pause;
  }
  d.corrupt = corrupt;
  return d;
}

void WorkerFaultInjector::corrupt(std::span<std::uint8_t> out) {
  if (out.empty()) return;
  ++counters_.corruptions;
  out.front() ^= 0xFF;
  if (out.size() > 1) out.back() ^= 0xFF;
}

bool WorkerFaultInjector::note_execution(std::uint64_t tag) {
  if (tag == 0) return true;
  if (!executed_tags_.insert(tag).second) {
    ++counters_.double_executions;
    return false;
  }
  return true;
}

}  // namespace rfs::net
