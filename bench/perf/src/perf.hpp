// rfaas_perf: the repository benchmark. Four seeded workloads drive the
// rFaaS simulator end to end and report two kinds of metric:
//
//  - virtual-time metrics describe the modelled rFaaS design (invocation,
//    batch, grant and allocation latency). For one seed they repeat
//    exactly, and an FNV-1a digest over every latency sample proves it;
//  - wall-clock metrics describe the simulator as a program (host time
//    per operation, set-up time, peak memory).
//
// Every layer is measured from outside the library: the benchmark drives
// sim::Engine::step() itself, registers its own function whose entry
// records the virtual time, and reads public counters. See README.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/harness.hpp"
#include "common/units.hpp"

namespace rfs::perf {

/// Wall seconds of a whole run per timed segment on a 4-vCPU VM: a
/// segment takes about 0.6 s there with its host reference loop, and the
/// rest covers set-up, drain and slow moments of a shared host. So
/// --seconds 20 times 23 segments (about 14 s), and the whole run takes
/// 12-17 s.
constexpr double kSecondsPerSegment = 0.85;

/// Fewest timed segments of a run (a traced run traces every other one).
constexpr unsigned kMinSegments = 4;

/// Segment index of the warm-up segment deploy() runs (its own seed).
constexpr std::uint64_t kWarmupSegment = 0xFFFF;

/// Command-line options of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< wall-time budget of the run; sets segments()
  bool trace = false;   ///< traced run: probes, spans and per-layer metrics
  unsigned scale = 1;   ///< divides every op count (the self-test uses 50)
  unsigned setups = 5;  ///< set-ups per run (the self-test uses 1)

  /// Timed segments of the run. They depend on --seconds only, never on
  /// how fast the host is, so every commit times the same work.
  [[nodiscard]] unsigned segments() const {
    return std::max(kMinSegments, static_cast<unsigned>(seconds / kSecondsPerSegment));
  }
};

/// FNV-1a (64-bit) over a stream of 64-bit values.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Percentile (linear interpolation, p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);

/// One span of the Chrome trace. Spans of one op share `group`; `parent`
/// names the span that caused this one (empty for a root).
struct Span {
  std::uint64_t group = 0;
  std::uint64_t tid = 0;
  const char* name = "";
  const char* parent = "";
  Time start = 0;
  Time end = 0;
};

/// What the ops of a run report back. The run loop sets `trace` before
/// each segment of a traced run whose ops are broken into layers.
struct Recorder {
  bool trace = false;

  std::vector<double> latency_ns;  ///< headline latency of successful ops
  std::uint64_t ok_ops = 0;        ///< successful ops
  Digest digest;                   ///< over latency_ns, in completion order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< run-level invariant breaches

  /// Per-layer samples of traced ops, keyed by metric stem (unit in the
  /// name); the run loop reduces each to its p50/p99.
  std::map<std::string, std::vector<double>> layer_samples;
  std::vector<Span> spans;  ///< spans of the ops the Chrome trace keeps

  void latency(Duration ns) {
    latency_ns.push_back(static_cast<double>(ns));
    digest.add(ns);
  }
  void sample(const std::string& stem, double v) { layer_samples[stem].push_back(v); }
  /// Files a span of a traced op; the Chrome trace keeps one op in 1000.
  void span(std::uint64_t group, std::uint64_t tid, const char* name, const char* parent,
            Time start, Time end) {
    if (trace && group % 1000 == 0) spans.push_back({group, tid, name, parent, start, end});
  }
  void fail(std::string what) {
    if (violations.size() < 16) violations.push_back(std::move(what));
  }
};

/// Per-layer metric values a workload measured itself, by name.
using Layers = std::map<std::string, double>;

/// Function-entry timestamps of traced invocations. The benchmark's own
/// function reads the op id from the first 8 payload bytes and records
/// the virtual time its entry ran at.
class EntryLog {
 public:
  void arm(bool on) { armed_ = on; }
  [[nodiscard]] bool armed() const { return armed_; }
  void note(std::uint64_t op, Time at) { entries_[op] = at; }
  std::optional<Time> take(std::uint64_t op);

 private:
  bool armed_ = false;
  std::unordered_map<std::uint64_t, Time> entries_;
};

/// Registers "perf_echo" in `registry`: copies its input to its output,
/// charges `ns_per_byte` of virtual compute per input byte, and records
/// its entry time in `log` while the log is armed.
void register_echo(rfaas::FunctionRegistry& registry, std::shared_ptr<EntryLog> log,
                   Duration ns_per_byte);

/// Unloaded request legs (due -> function entry) per power-of-two payload
/// size, plus the unloaded round trip at 64 B. Empty for workloads that
/// make no invocations.
struct UnloadedLegs {
  std::map<std::uint32_t, Duration> request_leg;
  Duration rtt_64 = 0;

  /// Request leg of the probe size nearest to `bytes` on a log scale.
  [[nodiscard]] Duration nearest(std::uint32_t bytes) const;
};

class Workload;

/// Drives an engine one event at a time until a flag is set, counting
/// events and sampling the queue depth every 4096 of them. With a
/// sampler, calls its sample() about once per virtual second. Exits the
/// process when the engine idles first or no flag is set within
/// kWallLimitS of wall time, so a hung simulation never hangs the run.
struct Stepper {
  static constexpr double kWallLimitS = 150;

  sim::Engine& engine;
  std::uint64_t events = 0;
  std::size_t queue_peak = 0;
  Workload* sampler = nullptr;
  Time next_sample = 0;

  void run(const bool& done);
};

/// Awaits `task`, then sets `done`.
sim::Task<void> then_set(sim::Task<void> task, bool& done);

/// One workload: a deployment plus a seeded op generator. The run loop
/// builds and deploys it several times (set-up), then runs a fixed number
/// of segments of ops through the engine.
class Workload {
 public:
  explicit Workload(const Options& opt) : opt_(opt) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Constructs the harness and start()s it (cluster.start_s).
  virtual void build() = 0;
  /// Connects clients, allocates and warms up (cluster.deploy_s).
  virtual void deploy() = 0;
  /// Ops in one timed segment.
  [[nodiscard]] virtual std::uint64_t segment_ops() const = 0;
  /// Starts `ops` ops seeded by segment index `k`; completes once every
  /// one of them completed.
  virtual sim::Task<void> segment(std::uint64_t k, std::uint64_t ops, Recorder& rec) = 0;
  /// Called about once per virtual second while traced segments run:
  /// samples the manager's lease table.
  virtual void sample();
  /// Drains the deployment, checks end-of-run invariants and fills the
  /// layer metrics this workload measures itself.
  virtual void finish(Recorder& rec, Layers& layers) = 0;

  /// Traced runs: measures the unloaded request legs the wait metric
  /// subtracts (on a separate engine).
  void calibrate();

  [[nodiscard]] cluster::Harness& harness() { return *h_; }
  /// Entry log of the registered function (armed by the run loop).
  [[nodiscard]] EntryLog& entries() { return *entries_; }

 protected:
  virtual UnloadedLegs probe_unloaded() { return {}; }
  /// Seed of segment `k` (lane = tenant within it).
  [[nodiscard]] std::uint64_t segment_seed(std::uint64_t k, std::uint64_t lane = 0) const;
  /// Ops of one segment at the run's scale (never 0).
  [[nodiscard]] std::uint64_t scaled(std::uint64_t full) const;
  /// Runs `task` on the harness engine until it completes.
  void run_to_completion(sim::Task<void> task);
  /// Runs a warm-up of a twentieth of a segment; exits on any failure.
  void warm_up();
  /// Splits one traced invocation into request leg (due -> function
  /// entry), user code and response leg (entry + user code ->
  /// completion), checks that the three sum to the op latency exactly,
  /// and files the spans under `group`, the root's parent being `parent`.
  void record_legs(Recorder& rec, std::uint64_t group, std::uint64_t op, std::uint32_t bytes,
                   Duration user_code, Time due, Time done, const char* parent = "");
  /// Call once the workload released every lease it held: lets the
  /// manager settle for 5 s of virtual time, checks that no lease leaked
  /// and fills the manager layer metrics every workload shares.
  void finish_manager(Recorder& rec, Layers& layers);

  Options opt_;
  std::shared_ptr<EntryLog> entries_ = std::make_shared<EntryLog>();
  std::unique_ptr<cluster::Harness> h_;
  UnloadedLegs unloaded_;

  // Manager samples (sample()).
  std::size_t active_leases_peak_ = 0;
  double utilization_sum_ = 0;
  std::uint64_t utilization_samples_ = 0;
};

/// The workload names, in the order run.sh runs them.
const std::vector<std::string>& workload_names();
/// Nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& opt);

// Calibration probes of the traced run (probes.cpp).
double probe_rdma_rtt_us(std::uint32_t bytes);
double probe_tcp_rtt_us(std::uint32_t bytes);
double probe_encode_lease_request_ns();
double probe_decode_lease_grant_ns();
double probe_encode_invocation_header_ns();
/// Unloaded legs on a fresh copy of `spec`: one worker under `policy`,
/// 5 sequential invocations per power-of-two size from 8 B to 4 KiB,
/// through invoke_pooled() or, when `pooled` is false, per-call buffers.
UnloadedLegs probe_invocations(const cluster::ScenarioSpec& spec,
                               rfaas::InvocationPolicy policy, bool pooled, Duration ns_per_byte);

/// Allocations made through the global operator new so far.
std::uint64_t allocations();

}  // namespace rfs::perf
