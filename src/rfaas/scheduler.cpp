#include "rfaas/scheduler.hpp"

namespace rfs::rfaas {

const char* to_string(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::RoundRobin: return "round-robin";
    case SchedulingPolicy::LeastLoaded: return "least-loaded";
    case SchedulingPolicy::PowerOfTwoChoices: return "power-of-two";
    case SchedulingPolicy::LocalityFirst: return "locality-first";
  }
  return "unknown";
}

// --------------------------------------------------------------------------
// ExecutorRegistry
// --------------------------------------------------------------------------

namespace {

// The registry has one writer at a time, so an aggregate update is a
// relaxed load and store, not a locked read-modify-write.
void increase(std::atomic<std::uint32_t>& total, std::uint32_t n) {
  total.store(total.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
void decrease(std::atomic<std::uint32_t>& total, std::uint32_t n) {
  total.store(total.load(std::memory_order_relaxed) - n, std::memory_order_relaxed);
}

}  // namespace

std::size_t ExecutorRegistry::add(ExecutorEntry entry) {
  if (entry.alive) ++alive_count_;
  if (entry.schedulable()) {
    increase(free_workers_total_, entry.free_workers);
    increase(total_workers_, entry.total_workers);
  }
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

bool ExecutorRegistry::try_claim(std::size_t i, std::uint32_t workers, std::uint64_t memory) {
  if (i >= entries_.size()) return false;
  auto& e = entries_[i];
  if (!e.schedulable() || workers == 0 || workers > e.free_workers || memory > e.free_memory) {
    return false;
  }
  e.free_workers -= workers;
  e.free_memory -= memory;
  decrease(free_workers_total_, workers);
  return true;
}

void ExecutorRegistry::release(std::size_t i, std::uint32_t workers, std::uint64_t memory) {
  if (i >= entries_.size()) return;
  auto& e = entries_[i];
  if (!e.schedulable()) return;  // capacity was zeroed at death or drain
  e.free_workers += workers;
  e.free_memory += memory;
  increase(free_workers_total_, workers);
}

void ExecutorRegistry::mark_dead(std::size_t i) {
  if (i >= entries_.size()) return;
  auto& e = entries_[i];
  if (e.alive) --alive_count_;
  if (e.schedulable()) {
    decrease(free_workers_total_, e.free_workers);
    decrease(total_workers_, e.total_workers);
  }
  e.alive = false;
  e.free_workers = 0;
  e.free_memory = 0;
}

void ExecutorRegistry::set_degraded(std::size_t i, bool degraded) {
  if (i >= entries_.size()) return;
  auto& e = entries_[i];
  if (e.degraded == degraded) return;
  e.degraded = degraded;
  degraded ? ++degraded_count_ : --degraded_count_;
}

void ExecutorRegistry::set_draining(std::size_t i) {
  if (i >= entries_.size()) return;
  auto& e = entries_[i];
  if (e.schedulable()) {
    decrease(free_workers_total_, e.free_workers);
    decrease(total_workers_, e.total_workers);
  }
  e.draining = true;
  e.free_workers = 0;
  e.free_memory = 0;
}

// --------------------------------------------------------------------------
// Policies
// --------------------------------------------------------------------------

namespace {

/// Seed-equivalent fit rule shared by all policies: grant min(free,
/// requested) workers; skip the executor if that many don't fit in its
/// free memory (no shrinking to fit).
std::optional<Placement> fit(const ExecutorRegistry& registry, std::size_t idx,
                             const ScheduleRequest& request, const std::vector<bool>& excluded,
                             bool allow_degraded) {
  if (idx < excluded.size() && excluded[idx]) return std::nullopt;
  const auto& e = registry.at(idx);
  if (!e.schedulable() || e.free_workers == 0) return std::nullopt;
  if (e.degraded && !allow_degraded) return std::nullopt;
  const std::uint32_t workers = std::min(e.free_workers, request.workers);
  const std::uint64_t memory = request.memory_per_worker * workers;
  if (memory > e.free_memory) return std::nullopt;
  return Placement{idx, workers, memory};
}

}  // namespace

std::optional<Placement> RoundRobinScheduler::place_pass(const ExecutorRegistry& registry,
                                                         const ScheduleRequest& request,
                                                         const std::vector<bool>& excluded,
                                                         bool allow_degraded) {
  const std::size_t n = registry.size();
  if (n == 0) return std::nullopt;
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t idx = (next_ + probe) % n;
    if (auto p = fit(registry, idx, request, excluded, allow_degraded)) {
      next_ = (idx + 1) % n;
      return p;
    }
  }
  return std::nullopt;
}

std::optional<Placement> LeastLoadedScheduler::place_pass(const ExecutorRegistry& registry,
                                                          const ScheduleRequest& request,
                                                          const std::vector<bool>& excluded,
                                                          bool allow_degraded) {
  std::optional<Placement> best;
  std::uint32_t best_free = 0;
  for (std::size_t idx = 0; idx < registry.size(); ++idx) {
    auto p = fit(registry, idx, request, excluded, allow_degraded);
    if (!p) continue;
    const std::uint32_t free = registry.at(idx).free_workers;
    if (!best || free > best_free) {
      best = p;
      best_free = free;
    }
  }
  return best;
}

std::optional<Placement> PowerOfTwoScheduler::place_pass(const ExecutorRegistry& registry,
                                                         const ScheduleRequest& request,
                                                         const std::vector<bool>& excluded,
                                                         bool allow_degraded) {
  const std::size_t n = registry.size();
  if (n == 0) return std::nullopt;

  const std::size_t first = static_cast<std::size_t>(rng_.next() % n);
  const std::size_t second =
      n > 1 ? (first + 1 + static_cast<std::size_t>(rng_.next() % (n - 1))) % n : first;

  auto a = fit(registry, first, request, excluded, allow_degraded);
  auto b = second != first ? fit(registry, second, request, excluded, allow_degraded) : std::nullopt;

  if (a && b) {
    const bool a_local = registry.at(first).locality == request.client_locality;
    const bool b_local = registry.at(second).locality == request.client_locality;
    if (a_local != b_local) return a_local ? a : b;
    if (registry.at(first).free_workers != registry.at(second).free_workers) {
      return registry.at(first).free_workers > registry.at(second).free_workers ? a : b;
    }
    return first < second ? a : b;
  }
  if (a) return a;
  if (b) return b;

  // Both samples ineligible: deterministic fallback scan so small or
  // nearly-full fleets still get placed.
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (auto p = fit(registry, idx, request, excluded, allow_degraded)) return p;
  }
  return std::nullopt;
}

std::optional<Placement> LocalityFirstScheduler::place_pass(const ExecutorRegistry& registry,
                                                            const ScheduleRequest& request,
                                                            const std::vector<bool>& excluded,
                                                            bool allow_degraded) {
  // Local pass: least-loaded among the executors in the client's rack.
  std::optional<Placement> best;
  std::uint32_t best_free = 0;
  for (std::size_t idx = 0; idx < registry.size(); ++idx) {
    if (registry.at(idx).locality != request.client_locality) continue;
    auto p = fit(registry, idx, request, excluded, allow_degraded);
    if (!p) continue;
    const std::uint32_t free = registry.at(idx).free_workers;
    if (!best || free > best_free) {
      best = p;
      best_free = free;
    }
  }
  if (best) return best;
  // No local capacity: pay the cross-rack cost through the usual
  // power-of-two sampling (which itself still tie-breaks on locality).
  return fallback_.place_pass(registry, request, excluded, allow_degraded);
}

std::unique_ptr<Scheduler> make_scheduler(const Config& config) {
  switch (config.scheduling) {
    case SchedulingPolicy::LeastLoaded:
      return std::make_unique<LeastLoadedScheduler>();
    case SchedulingPolicy::PowerOfTwoChoices:
      return std::make_unique<PowerOfTwoScheduler>(config.scheduler_seed);
    case SchedulingPolicy::LocalityFirst:
      return std::make_unique<LocalityFirstScheduler>(config.scheduler_seed);
    case SchedulingPolicy::RoundRobin:
    default:
      return std::make_unique<RoundRobinScheduler>();
  }
}

}  // namespace rfs::rfaas
