#include "perf.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/stats.hpp"

// --------------------------------------------------------------------------
// Allocation counting: every global operator new in this binary (the
// simulator library included) bumps one counter. The simulation is
// single-threaded; the relaxed load/store pair keeps the counter a plain
// increment instead of a locked read-modify-write.
// --------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.store(g_allocations.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rfs::perf {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  return Summary(std::move(v)).percentile(p);
}

std::optional<Time> EntryLog::take(std::uint64_t op) {
  auto it = entries_.find(op);
  if (it == entries_.end()) return std::nullopt;
  const Time at = it->second;
  entries_.erase(it);
  return at;
}

void register_echo(rfaas::FunctionRegistry& registry, std::shared_ptr<EntryLog> log,
                   Duration ns_per_byte) {
  rfaas::CodePackage pkg;
  pkg.name = "perf_echo";
  pkg.entry = [log](const void* in, std::uint32_t size, void* out) -> std::uint32_t {
    std::memcpy(out, in, size);
    if (log->armed() && size >= sizeof(std::uint64_t)) {
      std::uint64_t op = 0;
      std::memcpy(&op, in, sizeof op);
      log->note(op, sim::Engine::current()->now());
    }
    return size;
  };
  pkg.cost = [ns_per_byte](std::uint32_t size) -> Duration { return ns_per_byte * size; };
  registry.add(std::move(pkg));
}

Duration UnloadedLegs::nearest(std::uint32_t bytes) const {
  if (request_leg.empty()) return 0;
  const double target = std::log2(static_cast<double>(std::max<std::uint32_t>(bytes, 1)));
  auto best = request_leg.begin();
  for (auto it = request_leg.begin(); it != request_leg.end(); ++it) {
    if (std::abs(std::log2(static_cast<double>(it->first)) - target) <
        std::abs(std::log2(static_cast<double>(best->first)) - target)) {
      best = it;
    }
  }
  return best->second;
}

void Workload::record_legs(Recorder& rec, std::uint64_t group, std::uint64_t op,
                           std::uint32_t bytes, Duration user_code, Time due, Time done,
                           const char* parent) {
  const auto entry = entries_->take(op);
  if (!entry || *entry < due || *entry + user_code > done) {
    rec.fail("invocation " + std::to_string(op) + ": function entry outside its op interval");
    return;
  }
  const Duration request = *entry - due;
  const Duration response = done - *entry - user_code;
  if (request + user_code + response != done - due) {
    rec.fail("invocation " + std::to_string(op) + ": legs do not sum to the op latency");
    return;
  }
  rec.sample("invoker.request_leg_us", to_us(request));
  rec.sample("invoker.response_leg_us", to_us(response));
  rec.sample("invoker.wait_us", to_us(request) - to_us(unloaded_.nearest(bytes)));
  rec.sample("executor.user_code_us", to_us(user_code));
  rec.span(group, op, "invocation", parent, due, done);
  rec.span(group, op, "request_leg", "invocation", due, *entry);
  rec.span(group, op, "user_code", "invocation", *entry, *entry + user_code);
  rec.span(group, op, "response_leg", "invocation", *entry + user_code, done);
}

std::uint64_t Workload::segment_seed(std::uint64_t k, std::uint64_t lane) const {
  return splitmix64(splitmix64(opt_.seed) ^ ((k << 8) + lane + 1));
}

sim::Task<void> then_set(sim::Task<void> task, bool& done) {
  co_await std::move(task);
  done = true;
}

std::uint64_t Workload::scaled(std::uint64_t full) const {
  return std::max<std::uint64_t>(1, full / std::max(1u, opt_.scale));
}

void Workload::sample() {
  auto& rm = h_->rm();
  active_leases_peak_ = std::max(active_leases_peak_, rm.active_leases());
  const auto total = rm.total_workers();
  if (total > 0) {
    utilization_sum_ += 100.0 * static_cast<double>(total - rm.free_workers_total()) / total;
    ++utilization_samples_;
  }
}

void Workload::finish_manager(Recorder& rec, Layers& layers) {
  const std::size_t leaked = h_->leaked_leases_after(5_s);
  if (leaked != 0) rec.fail(std::to_string(leaked) + " leases leaked after the drain");
  layers["manager.leaked_leases"] = static_cast<double>(leaked);
  layers["manager.dedup_hits"] = static_cast<double>(h_->rm().dedup_hits());
  layers["manager.active_leases_peak"] = static_cast<double>(active_leases_peak_);
  layers["manager.utilization_pct"] =
      utilization_samples_ == 0 ? 0 : utilization_sum_ / static_cast<double>(utilization_samples_);
}

void Workload::run_to_completion(sim::Task<void> task) {
  bool done = false;
  h_->spawn(then_set(std::move(task), done));
  Stepper stepper{h_->engine()};
  stepper.run(done);
}

void Workload::warm_up() {
  Recorder warm;
  run_to_completion(segment(kWarmupSegment, std::max<std::uint64_t>(1, segment_ops() / 20), warm));
  if (warm.failed != 0 || !warm.violations.empty()) {
    std::fprintf(stderr, "rfaas_perf: %s: %llu warm-up ops failed\n", opt_.workload.c_str(),
                 static_cast<unsigned long long>(warm.failed));
    std::exit(1);
  }
}

void Workload::calibrate() {
  unloaded_ = probe_unloaded();
  h_->engine().make_current();
}

void Stepper::run(const bool& done) {
  const auto wall_start = std::chrono::steady_clock::now();
  while (!done) {
    if (!engine.step()) {
      std::fprintf(stderr, "rfaas_perf: the engine went idle before the work finished\n");
      std::exit(1);
    }
    ++events;
    if ((events & 4095) == 0) {
      queue_peak = std::max(queue_peak, engine.pending());
      const std::chrono::duration<double> spent = std::chrono::steady_clock::now() - wall_start;
      if (spent.count() > kWallLimitS) {
        std::fprintf(stderr, "rfaas_perf: no progress after %.0f s of wall time\n", kWallLimitS);
        std::exit(1);
      }
    }
    if (sampler != nullptr && engine.now() >= next_sample) {
      sampler->sample();
      next_sample = engine.now() + 1_s;
    }
  }
}

}  // namespace rfs::perf
