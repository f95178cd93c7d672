// rfaas_perf command line: runs one workload (or the determinism
// self-test) and reports its metrics.
//
//   rfaas_perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//   rfaas_perf --selftest
//
// A run sets the workload up five times (setup_s is the median) and
// times Options::segments() segments, a number set by --seconds alone:
// their ops feed the virtual-time metrics and the digest, their wall
// times the median behind wall_us_per_op. Wall times are rescaled by a
// host reference loop (see HostReference). It prints one `workload
// metric value unit` line per metric, a digest line, and as its last
// line one JSON object with the keys correct, attempted, failed and
// metrics. It exits nonzero when any op or invariant check failed.
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory_resource>
#include <queue>
#include <string>
#include <unordered_map>

#include <unistd.h>

#include "perf.hpp"

namespace rfs::perf {
namespace {

using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json
/// "end_to_end"). "op" is the workload's unit of work: an invocation, a
/// batch round's makespan, an admitted grant, an allocation.
constexpr MetricDef kEndToEnd[] = {
    {"op_mean_us", "us"},    {"op_p99_us", "us"}, {"goodput_per_s", "1/s"},
    {"wall_us_per_op", "us"}, {"setup_s", "s"},    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics, printed by every traced run (BENCHMARK.json
/// "per_layer"); 0 where the workload does not exercise the layer.
constexpr MetricDef kLayerMetrics[] = {
    {"sim.events_per_op", "events/op"},
    {"sim.wall_ns_per_event", "ns"},
    {"sim.allocs_per_op", "allocs/op"},
    {"sim.queue_peak", "events"},
    {"fabric.rdma_rtt_us.64B", "us"},
    {"fabric.rdma_rtt_us.4KiB", "us"},
    {"net.tcp_rtt_us.64B", "us"},
    {"protocol.encode_ns.lease_request", "ns"},
    {"protocol.decode_ns.lease_grant", "ns"},
    {"protocol.encode_ns.invocation_header", "ns"},
    {"invoker.unloaded_rtt_us.64B", "us"},
    {"invoker.request_leg_us.p50", "us"},
    {"invoker.request_leg_us.p99", "us"},
    {"invoker.response_leg_us.p50", "us"},
    {"invoker.response_leg_us.p99", "us"},
    {"invoker.wait_us.p50", "us"},
    {"invoker.wait_us.p99", "us"},
    {"invoker.rejections", "count"},
    {"invoker.ft_retries", "count"},
    {"invoker.ft_timeouts", "count"},
    {"invoker.ft_corruptions", "count"},
    {"executor.user_code_us.p50", "us"},
    {"executor.warm_hit_pct", "%"},
    {"executor.pool_memory_mb", "MiB"},
    {"executor.pool_evictions", "count"},
    {"alloc.lease_ms.p50", "ms"},
    {"alloc.lease_ms.p99", "ms"},
    {"alloc.submit_allocation_ms.p50", "ms"},
    {"alloc.submit_allocation_ms.p99", "ms"},
    {"alloc.spawn_workers_ms.p50", "ms"},
    {"alloc.spawn_workers_ms.p99", "ms"},
    {"alloc.connect_workers_ms.p50", "ms"},
    {"alloc.connect_workers_ms.p99", "ms"},
    {"alloc.submit_code_ms.p50", "ms"},
    {"alloc.submit_code_ms.p99", "ms"},
    {"session.call_us.p50", "us"},
    {"session.call_us.p99", "us"},
    {"session.retransmits", "count"},
    {"session.call_failures", "count"},
    {"admission.admitted", "count"},
    {"admission.shed_pct", "%"},
    {"admission.shed_wfq_pct", "%"},
    {"manager.active_leases_peak", "count"},
    {"manager.utilization_pct", "%"},
    {"manager.dedup_hits", "count"},
    {"manager.leaked_leases", "count"},
    {"cluster.start_s", "s"},
    {"cluster.deploy_s", "s"},
    {"trace.overhead_pct", "%"},
};

/// Wall time and simulator work of one segment.
struct SegmentStat {
  std::uint64_t ops = 0;
  double wall_s = 0;
  double host_scale = 1;  ///< HostReference rescaling measured right after it
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  bool traced = false;
};

/// Everything one workload run measured.
struct Report {
  Options opt;
  Recorder rec;
  Layers metrics;  ///< e2e metrics (untraced) or layer metrics (traced)
  /// Simulator counts and the op latency p50, recorded by every run.
  Layers extra;
  /// Wall time per op of each segment and of each set-up, as measured
  /// and rescaled to the nominal host (see HostReference).
  std::vector<double> segment_raw_us_per_op, segment_us_per_op;
  std::vector<double> setup_raw_s, setup_s;

  [[nodiscard]] bool correct() const {
    return rec.failed == 0 && rec.violations.empty() && rec.attempted > 0 &&
           !rec.latency_ns.empty();
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// How fast the shared host runs at the moment. Co-tenants of a cloud
/// host slow every program on it by up to 1.6x for tens of seconds at a
/// time, which no repetition inside a 20 s run averages out. So the
/// run loop times this fixed loop right after every segment, set-up and
/// codec probe, and reports wall times rescaled to a host on which one
/// measure_s() takes kNominalS. The loop is shaped like the simulator's
/// hot path — a binary heap of timed events, a hash map of live
/// objects, small allocations — at two sizes: one that fits a core's L2
/// cache and one that spills into the shared L3. The geometric mean of
/// the two tracked the simulator's slowdowns best: on a 4-vCPU VM it cut
/// the 10-seed spread (IQR / median) of wall time per op from 2-9% to
/// 1-5%. The loops keep their state between measurements;
/// footprint_mb() lets peak RSS leave it out.
class HostReference {
 public:
  static constexpr double kNominalS = 0.03;

  HostReference() {
    const double before = resident_mb();
    small_.fill();
    large_.fill();
    footprint_mb_ = resident_mb() - before;
  }

  /// Runs both loops; the geometric mean of their wall times, seconds.
  double measure_s() {
    return std::sqrt(small_.run_s(30'000) * large_.run_s(60'000));
  }

  [[nodiscard]] double footprint_mb() const { return footprint_mb_; }

 private:
  struct Loop {
    using Entry = std::pair<std::uint64_t, std::uint64_t>;  ///< due key, id

    /// The loop's own memory: the simulator's heap, however large or
    /// fragmented it grows, must not change how fast the loop runs.
    std::pmr::unsynchronized_pool_resource pool;
    std::size_t cap;
    std::uint64_t key_space;
    std::priority_queue<Entry, std::pmr::vector<Entry>, std::greater<>> heap{
        std::greater<>{}, std::pmr::vector<Entry>(&pool)};
    std::pmr::unordered_map<std::uint64_t, std::pair<void*, std::size_t>> live{&pool};
    std::uint64_t x = kSplitmix64Gamma;
    std::uint64_t next = 0;
    std::uint64_t clock = 0;  ///< key of the last popped entry

    Loop(std::size_t c, std::uint64_t keys) : cap(c), key_space(keys) {}
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;
    /// One "hold" operation, the classic steady-state priority-queue
    /// load: schedule an entry at clock + a random delay, then retire the
    /// earliest one and advance the clock to it.
    void step() {
      x = splitmix64(x + next);
      heap.push({clock + x % key_space, next});
      const std::size_t bytes = 64 + (x & 255);
      live.emplace(next, std::pair{pool.allocate(bytes), bytes});
      ++next;
      if (heap.size() > cap) {
        clock = heap.top().first;
        const auto it = live.find(heap.top().second);
        heap.pop();
        pool.deallocate(it->second.first, it->second.second);
        live.erase(it);
      }
    }
    void fill() {
      while (heap.size() < cap) step();
    }
    double run_s(std::uint64_t steps) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < steps; ++i) step();
      return seconds_since(t0);
    }
  };

  static double resident_mb() {
    long pages = 0, resident = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
      std::fclose(f);
    }
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
  }

  Loop small_{50'000, 1'000'000};
  Loop large_{250'000, 1ull << 40};
  double footprint_mb_ = 0;
};

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Runs one workload. Wall times are rescaled by `host` (nullptr: as
/// measured, for runs that compare virtual time only).
Report run_workload(const Options& opt, HostReference* host) {
  const auto host_scale = [host]() {
    return host != nullptr ? HostReference::kNominalS / host->measure_s() : 1.0;
  };
  Report rep;
  rep.opt = opt;
  Recorder& rec = rep.rec;

  // Set-up: once for the run, then again on a throwaway copy after every
  // other segment. setup_s is the median, and spreading the repeats over
  // the run keeps one slow moment of a shared host from deciding it.
  // Every set-up must land at the same virtual time.
  std::vector<double> start_s, deploy_s;
  Time deployed_at = 0;
  const auto set_up = [&]() {
    const auto t0 = Clock::now();
    auto fresh = make_workload(opt);
    fresh->build();
    const auto t1 = Clock::now();
    fresh->deploy();
    const double deploy = seconds_since(t1);
    const double setup = seconds_since(t0);
    const double scale = host_scale();
    start_s.push_back((setup - deploy) * scale);
    deploy_s.push_back(deploy * scale);
    rep.setup_raw_s.push_back(setup);
    rep.setup_s.push_back(setup * scale);
    const Time at = fresh->harness().engine().now();
    if (rep.setup_s.size() > 1 && at != deployed_at) {
      rec.fail("set-ups ended at different virtual times");
    }
    deployed_at = at;
    return fresh;
  };
  const std::unique_ptr<Workload> w = set_up();

  Layers& m = rep.metrics;
  if (opt.trace) {
    m["fabric.rdma_rtt_us.64B"] = probe_rdma_rtt_us(64);
    m["fabric.rdma_rtt_us.4KiB"] = probe_rdma_rtt_us(4096);
    m["net.tcp_rtt_us.64B"] = probe_tcp_rtt_us(64);
    m["protocol.encode_ns.lease_request"] = probe_encode_lease_request_ns();
    m["protocol.decode_ns.lease_grant"] = probe_decode_lease_grant_ns();
    m["protocol.encode_ns.invocation_header"] = probe_encode_invocation_header_ns();
    const double scale = host_scale();
    for (const char* codec : {"protocol.encode_ns.lease_request", "protocol.decode_ns.lease_grant",
                              "protocol.encode_ns.invocation_header"}) {
      m[codec] *= scale;
    }
    w->calibrate();  // also makes the workload's engine current again
  }

  // Timed phase: opt.segments() segments, every one feeding the metrics.
  // A traced run traces every other segment; the wall time of the
  // untraced ones is the base of trace.overhead_pct and of the sim.*
  // wall-clock metrics.
  auto& engine = w->harness().engine();
  Stepper stepper{engine};
  std::vector<SegmentStat> segs;
  const Time virtual_start = engine.now();
  for (std::uint64_t k = 0; k < opt.segments(); ++k) {
    rec.trace = opt.trace && k % 2 == 0;
    w->entries().arm(rec.trace);
    stepper.sampler = rec.trace ? w.get() : nullptr;
    SegmentStat s;
    s.ops = w->segment_ops();
    s.traced = rec.trace;
    const std::uint64_t events0 = stepper.events;
    const std::uint64_t allocs0 = allocations();
    const auto t0 = Clock::now();
    bool done = false;
    w->harness().spawn(then_set(w->segment(k, s.ops, rec), done));
    stepper.run(done);
    s.wall_s = seconds_since(t0);
    s.events = stepper.events - events0;
    s.allocs = allocations() - allocs0;
    s.host_scale = host_scale();  // after the counts: the loop may allocate
    segs.push_back(s);
    if (k % 2 == 1 && rep.setup_s.size() < opt.setups) {
      set_up();
      engine.make_current();
    }
  }
  const Time virtual_end = engine.now();
  const double rss = peak_rss_mb() - (host != nullptr ? host->footprint_mb() : 0);
  w->entries().arm(false);
  stepper.sampler = nullptr;
  w->finish(rec, m);

  // Simulator counts: events per op from every segment (virtual,
  // identical traced or not); wall and allocations from untraced ones.
  std::vector<double> untraced_us, raw_us, traced_us, ns_per_event, allocs_per_op;
  std::uint64_t total_events = 0, total_ops = 0;
  for (const auto& s : segs) {
    const double raw = s.wall_s * 1e6 / static_cast<double>(s.ops);
    const double us_per_op = raw * s.host_scale;
    rep.segment_raw_us_per_op.push_back(raw);
    rep.segment_us_per_op.push_back(us_per_op);
    total_events += s.events;
    total_ops += s.ops;
    if (s.traced) {
      traced_us.push_back(us_per_op);
      continue;
    }
    untraced_us.push_back(us_per_op);
    raw_us.push_back(raw);
    ns_per_event.push_back(s.wall_s * s.host_scale * 1e9 /
                           static_cast<double>(std::max<std::uint64_t>(1, s.events)));
    allocs_per_op.push_back(static_cast<double>(s.allocs) / static_cast<double>(s.ops));
  }
  rep.extra["sim.events_per_op"] = static_cast<double>(total_events) /
                                   static_cast<double>(std::max<std::uint64_t>(1, total_ops));
  rep.extra["sim.wall_ns_per_event"] = median(ns_per_event);
  rep.extra["sim.allocs_per_op"] = median(allocs_per_op);
  rep.extra["sim.queue_peak"] = static_cast<double>(stepper.queue_peak);
  rep.extra["op_p50_us"] = percentile(rec.latency_ns, 50) / 1e3;
  rep.extra["raw_wall_us_per_op"] = median(raw_us);

  if (opt.trace) {
    for (const auto& [name, value] : rep.extra) {
      if (name.rfind("sim.", 0) == 0) m[name] = value;
    }
    m["trace.overhead_pct"] = 100.0 * (median(traced_us) / median(untraced_us) - 1.0);
    m["cluster.start_s"] = median(start_s);
    m["cluster.deploy_s"] = median(deploy_s);
    for (const auto& def : kLayerMetrics) {
      const std::string name = def.name;
      const auto dot = name.rfind('.');
      const std::string tail = name.substr(dot + 1);
      if (tail != "p50" && tail != "p99") continue;
      const auto it = rec.layer_samples.find(name.substr(0, dot));
      if (it != rec.layer_samples.end()) m[name] = percentile(it->second, tail == "p50" ? 50 : 99);
    }
  } else {
    double sum = 0;
    for (double ns : rec.latency_ns) sum += ns;
    const auto samples = static_cast<double>(std::max<std::size_t>(1, rec.latency_ns.size()));
    m["op_mean_us"] = sum / samples / 1e3;
    m["op_p99_us"] = percentile(rec.latency_ns, 99) / 1e3;
    m["goodput_per_s"] = static_cast<double>(rec.ok_ops) / to_s(virtual_end - virtual_start);
    m["wall_us_per_op"] = median(untraced_us);
    m["setup_s"] = median(rep.setup_s);
    m["peak_rss_mb"] = rss;
  }
  for (auto& [name, value] : m) {
    if (!std::isfinite(value)) {
      rec.fail("metric " + name + " is not finite");
      value = 0;
    }
  }
  return rep;
}

// ---------------------------------------------------------------- output

/// Shortest decimal that reads back as exactly `v`.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

template <std::size_t N>
std::string metrics_json(const Layers& values, const MetricDef (&defs)[N]) {
  std::string out = "{";
  for (const auto& def : defs) {
    const auto it = values.find(def.name);
    if (out.size() > 1) out += ", ";
    out += quoted(def.name) + ": {\"value\": " + num(it != values.end() ? it->second : 0.0) +
           ", \"unit\": " + quoted(def.unit) + "}";
  }
  return out + "}";
}

std::string metrics_json(const Report& rep) {
  return rep.opt.trace ? metrics_json(rep.metrics, kLayerMetrics)
                       : metrics_json(rep.metrics, kEndToEnd);
}

std::string values_json(const Layers& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": " + num(value);
  }
  return out + "}";
}

/// The run's record: BENCH-style JSON with every metric, the simulator
/// counts, the digest and the sample count (compare.py reads these).
void write_results(const Report& rep, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const auto path = dir / (rep.opt.workload + (rep.opt.trace ? ".layers.json" : ".json"));
  std::ofstream f(path);
  std::string violations = "[";
  for (const auto& v : rep.rec.violations) {
    violations += (violations.size() > 1 ? ", " : "") + quoted(v);
  }
  violations += "]";
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (double x : v) out += (out.size() > 1 ? ", " : "") + num(x);
    return out + "]";
  };
  f << "{\"workload\": " << quoted(rep.opt.workload) << ", \"seed\": " << rep.opt.seed
    << ", \"trace\": " << (rep.opt.trace ? "true" : "false") << ", \"scale\": " << rep.opt.scale
    << ",\n \"correct\": " << (rep.correct() ? "true" : "false")
    << ", \"attempted\": " << rep.rec.attempted << ", \"failed\": " << rep.rec.failed
    << ", \"samples\": " << rep.rec.latency_ns.size()
    << ", \"digest\": " << quoted(hex(rep.rec.digest.value())) << ",\n \"metrics\": "
    << metrics_json(rep) << ",\n \"extra\": " << values_json(rep.extra)
    << ",\n \"setup_s\": " << list(rep.setup_s) << ",\n \"setup_raw_s\": " << list(rep.setup_raw_s)
    << ",\n \"segment_us_per_op\": " << list(rep.segment_us_per_op)
    << ",\n \"segment_raw_us_per_op\": " << list(rep.segment_raw_us_per_op)
    << ",\n \"violations\": " << violations
    << "}\n";
  if (!f) std::fprintf(stderr, "rfaas_perf: could not write %s\n", path.c_str());
}

/// Chrome trace-event JSON of the kept ops (load in Perfetto or
/// chrome://tracing). Times are virtual microseconds.
void write_trace(const Report& rep, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const auto path = dir / (rep.opt.workload + ".trace.json");
  std::ofstream f(path);
  f << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& s : rep.rec.spans) {
    f << (first ? "\n" : ",\n") << "{\"name\": " << quoted(s.name)
      << ", \"cat\": " << quoted(rep.opt.workload) << ", \"ph\": \"X\", \"ts\": "
      << num(to_us(s.start)) << ", \"dur\": " << num(to_us(s.end - s.start))
      << ", \"pid\": 1, \"tid\": " << s.tid << ", \"args\": {\"op\": " << s.group
      << ", \"parent\": " << quoted(s.parent) << "}}";
    first = false;
  }
  f << "\n], \"displayTimeUnit\": \"ns\"}\n";
  if (!f) std::fprintf(stderr, "rfaas_perf: could not write %s\n", path.c_str());
}

void print_report(const Report& rep) {
  const auto print = [&](const MetricDef& def) {
    const auto it = rep.metrics.find(def.name);
    std::printf("%s %s %.6g %s\n", rep.opt.workload.c_str(), def.name,
                it != rep.metrics.end() ? it->second : 0.0, def.unit);
  };
  if (rep.opt.trace) {
    for (const auto& def : kLayerMetrics) print(def);
  } else {
    for (const auto& def : kEndToEnd) print(def);
  }
  for (const auto& [name, value] : rep.extra) {
    if (rep.metrics.count(name) != 0) continue;
    std::printf("%s %s %.6g\n", rep.opt.workload.c_str(), name.c_str(), value);
  }
  std::printf("%s digest %s samples %zu segments %zu\n", rep.opt.workload.c_str(),
              hex(rep.rec.digest.value()).c_str(), rep.rec.latency_ns.size(),
              rep.segment_us_per_op.size());
  for (const auto& v : rep.rec.violations) {
    std::fprintf(stderr, "rfaas_perf: %s: violation: %s\n", rep.opt.workload.c_str(), v.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              rep.correct() ? "true" : "false",
              static_cast<unsigned long long>(rep.rec.attempted),
              static_cast<unsigned long long>(rep.rec.failed), metrics_json(rep).c_str());
  std::fflush(stdout);
}

// -------------------------------------------------------------- selftest

/// Every workload at 1/50 size: two runs with one seed must agree on the
/// digest and every virtual-time number; a traced run must too (tracing
/// may not perturb the simulation); another seed must change the digest.
int selftest() {
  const auto t0 = Clock::now();
  bool all_ok = true;
  for (const auto& name : workload_names()) {
    Options o;
    o.workload = name;
    o.seed = 7;
    o.seconds = 0;
    o.scale = 50;
    o.setups = 1;
    const Report a = run_workload(o, nullptr);
    const Report b = run_workload(o, nullptr);
    o.trace = true;
    const Report traced = run_workload(o, nullptr);
    o.trace = false;
    o.seed = 8;
    const Report other = run_workload(o, nullptr);

    const auto same_virtual = [](const Report& x, const Report& y) {
      for (const char* metric : {"op_mean_us", "op_p99_us", "goodput_per_s"}) {
        if (x.metrics.at(metric) != y.metrics.at(metric)) return false;
      }
      return x.rec.digest.value() == y.rec.digest.value() &&
             x.rec.latency_ns == y.rec.latency_ns &&
             x.extra.at("sim.events_per_op") == y.extra.at("sim.events_per_op");
    };
    const std::pair<bool, const char*> checks[] = {
        {a.correct() && b.correct() && traced.correct() && other.correct(), "every run is correct"},
        {same_virtual(a, b), "one seed gives identical virtual-time results"},
        {traced.rec.digest.value() == a.rec.digest.value() &&
             traced.extra.at("sim.events_per_op") == a.extra.at("sim.events_per_op"),
         "tracing leaves the simulation unchanged"},
        {other.rec.digest.value() != a.rec.digest.value(), "another seed changes the inputs"},
    };
    for (const auto& [ok, what] : checks) {
      std::printf("selftest %s: %s: %s\n", name.c_str(), what, ok ? "ok" : "FAILED");
      all_ok = all_ok && ok;
    }
  }
  std::printf("selftest %s in %.1f s\n", all_ok ? "passed" : "FAILED", seconds_since(t0));
  return all_ok ? 0 : 1;
}

// ------------------------------------------------------------------- CLI

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "rfaas_perf: %s\n"
               "usage: rfaas_perf --workload W [--seed N] [--seconds S] [--trace 0|1] "
               "[--out DIR]\n"
               "       rfaas_perf --selftest\n"
               "workloads: invoke_open parallel_batches lease_churn alloc_churn\n",
               error);
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, const char* flag) {
  std::uint64_t v = 0;
  const auto* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, v);
  if (res.ec != std::errc() || res.ptr != end) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

int run_main(int argc, char** argv) {
  Options opt;
  std::filesystem::path out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return selftest();
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(value, "--seed");
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_uint(value, "--seconds"));
    } else if (flag == "--trace") {
      const auto t = parse_uint(value, "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--out") {
      out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (make_workload(opt) == nullptr) usage("unknown or missing --workload");

  HostReference host;
  const Report rep = run_workload(opt, &host);
  if (!out.empty()) {
    write_results(rep, out);
    if (opt.trace) write_trace(rep, out);
  }
  print_report(rep);
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace rfs::perf

int main(int argc, char** argv) { return rfs::perf::run_main(argc, argv); }
