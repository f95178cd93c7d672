#include "cluster/harness.hpp"

#include <cmath>
#include <cstdlib>

#include "common/log.hpp"
#include "common/stats.hpp"

namespace rfs::cluster {

double UtilizationTrace::mean_utilization() const {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const auto& s : samples) sum += s.utilization_pct;
  return sum / static_cast<double>(samples.size());
}

double UtilizationTrace::peak_utilization() const {
  double peak = 0;
  for (const auto& s : samples) peak = std::max(peak, s.utilization_pct);
  return peak;
}

namespace {

/// 64-bit FNV-1a over the eight little-endian bytes of `v`, from `h`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h = (h ^ ((v >> (8 * byte)) & 0xFF)) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void LeaseCounters::note_placement(std::uint32_t device, std::uint32_t workers) {
  placement_digest = fnv1a(placement_digest, (std::uint64_t{device} << 32) | workers);
}

LeaseCounters& LeaseCounters::operator+=(const LeaseCounters& other) {
  granted += other.granted;
  denied += other.denied;
  renewals += other.renewals;
  renewal_failures += other.renewal_failures;
  spurious_expiries += other.spurious_expiries;
  terminations += other.terminations;
  reallocations += other.reallocations;
  offered += other.offered;
  overload_denials += other.overload_denials;
  retries += other.retries;
  retry_exhausted += other.retry_exhausted;
  max_retries = std::max(max_retries, other.max_retries);
  clients_started += other.clients_started;
  client_deaths += other.client_deaths;
  reconnects += other.reconnects;
  reconnect_failures += other.reconnect_failures;
  placement_digest = fnv1a(placement_digest, other.placement_digest);
  grant_latency.insert(grant_latency.end(), other.grant_latency.begin(),
                       other.grant_latency.end());
  reclaim_latency.insert(reclaim_latency.end(), other.reclaim_latency.begin(),
                         other.reclaim_latency.end());
  blackout_ns.insert(blackout_ns.end(), other.blackout_ns.begin(), other.blackout_ns.end());
  return *this;
}

double LeaseCounters::grant_latency_percentile(double p) const {
  if (grant_latency.empty()) return 0;
  return Summary(grant_latency).percentile(p);
}

double LeaseCounters::grant_throughput(Duration horizon) const {
  if (horizon == 0) return 0;
  return static_cast<double>(granted) / (static_cast<double>(horizon) * 1e-9);
}

double LeaseCounters::reclaim_latency_percentile(double p) const {
  if (reclaim_latency.empty()) return 0;
  return Summary(reclaim_latency).percentile(p);
}

double LeaseCounters::blackout_percentile(double p) const {
  if (blackout_ns.empty()) return 0;
  return Summary(blackout_ns).percentile(p);
}

ScenarioSpec ScenarioSpec::large_fleet(unsigned executors, unsigned clients, unsigned racks,
                                       std::uint64_t seed) {
  ScenarioSpec spec;
  spec.executors.clear();
  spec.client_hosts = std::max(1u, clients);
  spec.racks = std::max(1u, racks);

  Rng rng(seed);
  const unsigned big = executors / 20;         // ~5%: two-socket 36-core nodes
  const unsigned medium = executors * 3 / 20;  // ~15%: 16-core
  const unsigned small = executors - big - medium;
  const unsigned small8 = static_cast<unsigned>(static_cast<double>(small) *
                                                rng.uniform(0.4, 0.6));
  const unsigned small4 = small - small8;
  if (big != 0) spec.executors.push_back({big, 36, 64ull << 30});
  if (medium != 0) spec.executors.push_back({medium, 16, 32ull << 30});
  if (small8 != 0) spec.executors.push_back({small8, 8, 16ull << 30});
  if (small4 != 0) spec.executors.push_back({small4, 4, 8ull << 30});
  if (spec.executors.empty()) spec.executors.push_back({executors, 8, 16ull << 30});
  return spec;
}

Harness::Harness(ScenarioSpec spec) : spec_(std::move(spec)) {
  engine_.make_current();
  fabric_ = std::make_unique<fabric::Fabric>(engine_, spec_.config.network);
  tcp_ = std::make_unique<net::TcpNetwork>(engine_, fabric_->net());
  if (spec_.inject_faults) {
    faults_ = std::make_unique<net::FaultInjector>(spec_.fault_seed);
    tcp_->set_fault_injector(faults_.get());
  }

  const unsigned racks = std::max(1u, spec_.racks);
  unsigned host_counter = 0;  // round-robin rack assignment across all hosts

  rm_host_ = std::make_unique<sim::Host>("rm", 4, 16ull << 30);
  rm_device_ = &fabric_->create_device("rm-nic", rm_host_.get());
  rm_device_->set_locality(host_counter++ % racks);
  rm_ = std::make_unique<rfaas::ResourceManager>(engine_, *fabric_, *tcp_, *rm_host_,
                                                 *rm_device_, spec_.config);

  unsigned executor_index = 0;
  for (const auto& group : spec_.executors) {
    for (unsigned i = 0; i < group.count; ++i, ++executor_index) {
      executor_hosts_.push_back(std::make_unique<sim::Host>(
          "spot" + std::to_string(executor_index), group.cores, group.memory_bytes));
      auto& dev = fabric_->create_device("spot-nic" + std::to_string(executor_index),
                                         executor_hosts_.back().get());
      dev.set_locality(host_counter++ % racks);
      executor_devices_.push_back(&dev);
      executors_.push_back(std::make_unique<rfaas::ExecutorManager>(
          engine_, *fabric_, *tcp_, *executor_hosts_.back(), dev, spec_.config, registry_));
    }
  }

  for (unsigned i = 0; i < spec_.client_hosts; ++i) {
    client_hosts_.push_back(std::make_unique<sim::Host>(
        "client" + std::to_string(i), spec_.cores_per_client, spec_.memory_per_client));
    auto& dev = fabric_->create_device("client-nic" + std::to_string(i),
                                       client_hosts_.back().get());
    dev.set_locality(host_counter++ % racks);
    client_devices_.push_back(&dev);
  }

  if (spec_.inject_worker_faults) {
    worker_faults_ = std::make_unique<net::WorkerFaultInjector>(spec_.fault_seed);
    worker_faults_->set_default(spec_.worker_faults);
    for (auto& executor : executors_) executor->set_worker_faults(worker_faults_.get());
  }

  if (faults_ != nullptr) {
    // Chaos applies to the client<->manager control links only: executor
    // registration links keep the lossless default spec, and the RDMA
    // data plane never passes through the TCP overlay at all.
    for (auto* dev : client_devices_) {
      faults_->set_link(dev->id(), rm_device_->id(), spec_.faults);
    }
  }
}

Harness::~Harness() {
  // Reclaim every still-suspended actor (server loops, heartbeats,
  // parked clients) while the fabric/TCP objects their frames reference
  // are alive; member destructors then tear the world down actor-free.
  engine_.drain_detached();
}

void Harness::start() {
  rm_->start();
  for (auto& e : executors_) {
    e->start(rm_device_->id(), rm_->port());
  }
  // Let registration and billing connections settle before clients move.
  engine_.run_until(engine_.now() + 5_ms);
}

std::unique_ptr<rfaas::Invoker> Harness::make_invoker(std::size_t client_host,
                                                      std::uint32_t client_id) {
  return std::make_unique<rfaas::Invoker>(engine_, *fabric_, *tcp_, spec_.config,
                                          *client_devices_.at(client_host), rm_device_->id(),
                                          rm_->port(), client_id);
}

void Harness::run(Time until) {
  if (until == 0) {
    engine_.run();
  } else {
    engine_.run_until(until);
  }
}

namespace {

/// A workload client tracks its leases (and so renews, subscribes or
/// heals them) when the workload asks for any of the three.
bool tracks_leases(const LeaseWorkload& workload) {
  return workload.auto_renew || workload.subscribe_events || workload.self_heal;
}

/// Holds a granted lease for `hold`, then releases it — detached from the
/// tenant loop so hold times occupy the fleet without throttling the
/// tenant's arrival process. The release names whatever lease currently
/// stands in for the grant (self-healing may have replaced it) and is
/// retransmitted until ReleaseOk, so one dropped message cannot strand
/// capacity until lease expiry.
sim::Task<void> hold_and_release(std::shared_ptr<rfaas::LeaseSet> leases,
                                 rfaas::LeaseGrantMsg grant, std::uint64_t memory_per_worker,
                                 Duration hold) {
  co_await sim::delay(hold);
  co_await leases->release(grant, memory_per_worker);
}

}  // namespace

sim::Task<std::shared_ptr<rfaas::LeaseSet>> Harness::open_client(
    std::size_t client, const LeaseWorkload& workload, bool tracked,
    std::shared_ptr<WorkloadCounters> out) {
  rfaas::LeaseSetOptions opts;
  opts.renew_margin =
      workload.renew_margin != 0 ? workload.renew_margin : workload.lease_timeout / 4;
  opts.extension = workload.lease_timeout;
  opts.self_heal = workload.self_heal;
  opts.realloc_budget = workload.realloc_budget;
  opts.realloc_backoff = workload.realloc_backoff;
  auto leases = std::make_shared<rfaas::LeaseSet>(
      engine_, opts,
      rfaas::ManagerLink{tcp_.get(), client_devices_.at(client)->id(), rm_device_->id(),
                         rm_->port(), spec_.session_options});
  ++out->clients_started;
  if (!(co_await leases->connect()).ok()) {
    ++out->client_deaths;
    co_return nullptr;
  }
  out->sessions.push_back(leases->session());
  if (!tracked) co_return leases;

  leases->on_renewed([out](std::uint64_t, Time) { ++out->renewals; });
  leases->on_renewal_failed(
      [out](std::uint64_t, const std::string&) { ++out->renewal_failures; });
  leases->on_expired([out](std::uint64_t) { ++out->spurious_expiries; });
  auto* engine = &engine_;
  leases->on_terminated([out, engine](std::uint64_t, rfaas::TerminationReason, Time at) {
    ++out->terminations;
    out->reclaim_latency.push_back(static_cast<double>(engine->now() - at));
  });
  leases->on_reallocated(
      [out](std::uint64_t, const rfaas::LeaseGrantMsg&) { ++out->reallocations; });
  if (workload.auto_renew || workload.self_heal) leases->start();
  if (workload.subscribe_events || workload.self_heal) {
    // Without a notification session the client carries on unsubscribed.
    (void)co_await leases->subscribe(static_cast<std::uint32_t>(client + 1));
    if (leases->notification_session()) out->sessions.push_back(leases->notification_session());
  }
  co_return leases;
}

sim::Task<rfaas::LeaseOutcome> Harness::request_lease(rfaas::LeaseSet& leases,
                                                      std::uint32_t client_id,
                                                      std::uint32_t workers,
                                                      const LeaseWorkload& workload,
                                                      WorkloadCounters& out) {
  const Time sent_at = engine_.now();
  auto outcome = co_await leases.request(rfaas::LeaseRequestMsg{
      .client_id = client_id,
      .workers = workers,
      .memory_bytes = workload.memory_per_worker,
      .timeout = workload.lease_timeout});
  using Kind = rfaas::LeaseOutcome::Kind;
  if (outcome.kind == Kind::Granted) {
    ++out.granted;
    for (const auto& g : outcome.grants) out.note_placement(g.device, g.workers);
    out.grant_latency.push_back(static_cast<double>(engine_.now() - sent_at));
  } else if (outcome.kind != Kind::Dead) {
    ++out.denied;
    if (outcome.kind == Kind::Shed) ++out.overload_denials;
  }
  co_return outcome;
}

sim::Task<rfaas::LeaseOutcome> Harness::request_lease_with_retries(
    rfaas::LeaseSet& leases, std::uint32_t client_id, std::uint32_t workers,
    const TenantWorkload& workload, Rng& rng, Time deadline, WorkloadCounters& out) {
  using Kind = rfaas::LeaseOutcome::Kind;
  // Admitted-latency accounting: a retried grant's latency spans from
  // the FIRST send, so retry waits show up in the admitted tail instead
  // of vanishing — the fig17 p99 gate measures what a client felt.
  const Time first_sent = engine_.now();
  const std::size_t latencies_before = out.grant_latency.size();
  std::uint64_t spent = 0;
  rfaas::RetryBackoff backoff(workload.retry_backoff);
  auto outcome = co_await request_lease(leases, client_id, workers, workload.lease, out);
  while (outcome.kind == Kind::Shed && spent < workload.retry_budget &&
         engine_.now() < deadline) {
    co_await sim::delay(backoff.next(outcome.retry_after, 0.25, rng));
    ++spent;
    ++out.retries;
    outcome = co_await request_lease(leases, client_id, workers, workload.lease, out);
  }
  if (outcome.kind == Kind::Granted && spent > 0 && out.grant_latency.size() > latencies_before) {
    out.grant_latency.back() = static_cast<double>(engine_.now() - first_sent);
  }
  out.max_retries = std::max(out.max_retries, spent);
  if (outcome.kind == Kind::Shed && workload.retry_budget > 0) ++out.retry_exhausted;
  co_return outcome;
}

sim::Task<bool> Harness::reconnect_client(rfaas::LeaseSet& leases, bool tracked, Time deadline,
                                          WorkloadCounters& out) {
  for (unsigned attempt = 0;
       attempt < spec_.client_reconnect_attempts && engine_.now() < deadline; ++attempt) {
    co_await sim::delay(spec_.client_reconnect_backoff);
    if (!(co_await leases.reconnect()).ok()) {
      ++out.reconnect_failures;
      continue;
    }
    ++out.reconnects;
    out.sessions.push_back(leases.session());
    if (leases.notification_session()) out.sessions.push_back(leases.notification_session());
    if (tracked) {
      // Leases held across the outage: re-validate against the promoted
      // primary's adopted state (lost ones surface as losses and heal).
      // revalidate() spawns lazily — yield one tick so the revalidation
      // pass snapshots the tracked set before the caller releases.
      leases.revalidate();
      co_await sim::delay(1_us);
    }
    co_return true;
  }
  co_return false;
}

sim::Task<void> Harness::lease_client_loop(std::size_t client, LeaseWorkload workload,
                                           std::uint64_t seed, Time deadline,
                                           std::shared_ptr<WorkloadCounters> out) {
  Rng rng(seed);
  auto uniform = [&rng](std::uint64_t lo, std::uint64_t hi) { return rng.uniform_int(lo, hi); };

  const bool tracked = tracks_leases(workload);
  auto leases = co_await open_client(client, workload, tracked, out);
  if (leases == nullptr) co_return;

  bool died = false;
  Time blackout_started = 0;  // first failed call of the current outage
  while (engine_.now() < deadline) {
    const auto workers =
        static_cast<std::uint32_t>(uniform(workload.workers_min, workload.workers_max));
    auto outcome = co_await request_lease(*leases, static_cast<std::uint32_t>(client + 1),
                                          workers, workload, *out);
    if (outcome.kind == rfaas::LeaseOutcome::Kind::Dead) {
      // Failover path: redial the manager address (a promoted standby
      // listens on the same device and port) and resume the loop.
      if (blackout_started == 0) blackout_started = engine_.now();
      if (!co_await reconnect_client(*leases, tracked, deadline, *out)) {
        died = true;
        break;
      }
      continue;
    }
    if (outcome.kind == rfaas::LeaseOutcome::Kind::Granted) {
      const rfaas::LeaseGrantMsg& grant = outcome.grants.front();
      if (blackout_started != 0) {
        out->blackout_ns.push_back(static_cast<double>(engine_.now() - blackout_started));
        blackout_started = 0;
      }
      // Closed loop: hold the lease (auto-renewing/self-healing if
      // configured), release, then think. The release names whatever
      // lease currently stands in for the original grant and is
      // retransmitted until the manager acks it with ReleaseOk.
      if (tracked) {
        leases->track(grant.lease_id, grant.expires_at, workload.lease_timeout, grant.workers,
                      workload.memory_per_worker);
      }
      co_await sim::delay(uniform(workload.hold_min, workload.hold_max));
      // The manager may have died during the hold. Reconnect BEFORE
      // abandoning the lease so it is still tracked when the fresh
      // session revalidates — that is exactly the "held lease survives
      // a failover" path — and the release then lands on the promoted
      // primary instead of being dropped on the floor.
      if (!leases->connected() && spec_.client_reconnect_attempts > 0) {
        if (blackout_started == 0) blackout_started = engine_.now();
        if (!co_await reconnect_client(*leases, tracked, deadline, *out)) {
          died = true;
          break;
        }
      }
      co_await leases->release(grant, workload.memory_per_worker);
    }
    // During an outage the client skips its think time and immediately
    // probes the grant path: the open blackout sample must measure when
    // the platform can grant again, not when this client felt like
    // asking again.
    if (blackout_started == 0) {
      co_await sim::delay(uniform(workload.think_min, workload.think_max));
    }
  }
  if (died) ++out->client_deaths;
  leases->stop();
  leases->session()->stream()->close();
}

sim::Task<void> Harness::tenant_client_loop(std::size_t client, TenantWorkload workload,
                                            std::uint64_t seed, Time deadline,
                                            std::shared_ptr<WorkloadCounters> out) {
  Rng rng(seed);
  const bool tracked = tracks_leases(workload.lease);
  auto leases = co_await open_client(client, workload.lease, tracked, out);
  if (leases == nullptr) co_return;

  const std::uint32_t tenant_id = workload.tenant_id != 0
                                      ? workload.tenant_id
                                      : static_cast<std::uint32_t>(client + 1);
  bool died = false;
  while (engine_.now() < deadline) {
    const auto workers = static_cast<std::uint32_t>(
        rng.uniform_int(workload.lease.workers_min, workload.lease.workers_max));
    ++out->offered;
    auto outcome = co_await request_lease_with_retries(*leases, tenant_id, workers, workload,
                                                       rng, deadline, *out);
    if (outcome.kind == rfaas::LeaseOutcome::Kind::Dead) {
      died = true;
      break;
    }
    if (outcome.kind == rfaas::LeaseOutcome::Kind::Granted) {
      // The hold happens off-loop so it occupies the fleet without
      // throttling this tenant's arrival process.
      const rfaas::LeaseGrantMsg& grant = outcome.grants.front();
      if (tracked) {
        leases->track(grant.lease_id, grant.expires_at, workload.lease.lease_timeout,
                      grant.workers, workload.lease.memory_per_worker);
      }
      spawn(hold_and_release(leases, grant, workload.lease.memory_per_worker,
                             rng.uniform_int(workload.lease.hold_min, workload.lease.hold_max)));
    }
    const double think_s = rng.exponential(std::max(1e-9, workload.arrival_hz));
    co_await sim::delay(static_cast<Duration>(think_s * 1e9));
  }
  if (died) ++out->client_deaths;
  leases->stop();
  leases->session()->stream()->close();
}

namespace {

/// Next inter-arrival gap of an open-loop generator running at aggregate
/// rate `rate_hz`, drawn at virtual instant `now`. Deterministic per Rng
/// stream; each process has the same mean rate (Diurnal: peak rate).
Duration next_arrival_gap(const TenantWorkload& workload, double rate_hz, Rng& rng, Time now) {
  switch (workload.arrivals) {
    case ArrivalProcess::Diurnal: {
      // Thinning against the peak: draw candidate Poisson arrivals at
      // `rate_hz` and keep each with probability lambda(t)/peak, where
      // lambda swings sinusoidally between ~10% and 100% of the peak
      // over `diurnal_period` — a compressed day/night demand curve.
      const double period_s =
          std::max(1e-9, static_cast<double>(workload.diurnal_period) * 1e-9);
      double total_s = 0;
      for (int guard = 0; guard < 1024; ++guard) {
        total_s += rng.exponential(rate_hz);
        const double t_s = static_cast<double>(now) * 1e-9 + total_s;
        const double phase = std::sin(2.0 * M_PI * t_s / period_s);
        const double accept = 0.1 + 0.9 * 0.5 * (1.0 + phase);
        if (rng.bernoulli(accept)) break;
      }
      return static_cast<Duration>(total_s * 1e9);
    }
    case ArrivalProcess::HeavyTail: {
      // Lognormal gaps with mean 1/rate: E[exp(N(mu, sigma))] = 1/rate
      // puts mu at -ln(rate) - sigma^2/2. Large sigma = long quiets and
      // bursts that arrive inside one admission window.
      constexpr double sigma = 2.0;
      const double mu = -std::log(rate_hz) - sigma * sigma / 2.0;
      return static_cast<Duration>(rng.lognormal(mu, sigma) * 1e9);
    }
    case ArrivalProcess::Poisson:
    case ArrivalProcess::Closed:
      return static_cast<Duration>(rng.exponential(rate_hz) * 1e9);
  }
  return static_cast<Duration>(rng.exponential(rate_hz) * 1e9);
}

}  // namespace

sim::Task<void> Harness::open_loop_request(std::shared_ptr<rfaas::LeaseSet> leases,
                                           std::uint32_t client_id, std::uint32_t workers,
                                           TenantWorkload workload, std::uint64_t seed,
                                           Time deadline,
                                           std::shared_ptr<WorkloadCounters> out) {
  Rng rng(seed);
  auto outcome = co_await request_lease_with_retries(*leases, client_id, workers, workload, rng,
                                                     deadline, *out);
  if (outcome.kind != rfaas::LeaseOutcome::Kind::Granted) co_return;
  // Hold and release inline: this coroutine is already detached from
  // the arrival generator, so the hold occupies the fleet without
  // touching the offered-load process.
  co_await hold_and_release(leases, outcome.grants.front(), workload.lease.memory_per_worker,
                            rng.uniform_int(workload.lease.hold_min, workload.lease.hold_max));
}

sim::Task<void> Harness::open_loop_tenant_loop(std::size_t client, TenantWorkload workload,
                                               std::uint64_t seed, Time deadline,
                                               std::shared_ptr<WorkloadCounters> out) {
  Rng rng(seed);
  // Open-loop arrivals only request and release: they track no leases.
  auto leases = co_await open_client(client, workload.lease, /*tracked=*/false, out);
  if (leases == nullptr) co_return;

  const std::uint32_t tenant_id = workload.tenant_id != 0
                                      ? workload.tenant_id
                                      : static_cast<std::uint32_t>(client + 1);
  // One real connection multiplexes `multiplex` simulated clients: the
  // generator fires their superposed arrival process (rate multiplex *
  // arrival_hz) and each arrival runs as a detached request coroutine,
  // so offered load never waits for service — a million clients on a
  // handful of sessions, which is the regime admission control is for.
  const auto logical = std::max<std::uint64_t>(1, workload.multiplex);
  const double rate_hz =
      std::max(1e-9, workload.arrival_hz * static_cast<double>(logical));
  std::uint64_t arrival_seq = 0;
  bool died = false;
  while (engine_.now() < deadline) {
    co_await sim::delay(next_arrival_gap(workload, rate_hz, rng, engine_.now()));
    if (engine_.now() >= deadline) break;
    if (!leases->connected()) {
      died = true;
      break;
    }
    ++out->offered;
    const auto workers = static_cast<std::uint32_t>(
        rng.uniform_int(workload.lease.workers_min, workload.lease.workers_max));
    spawn(open_loop_request(leases, tenant_id, workers, workload,
                            splitmix64(seed + (++arrival_seq) * kSplitmix64Gamma), deadline,
                            out));
  }
  if (died) ++out->client_deaths;
  // The session stays open past the horizon: detached arrivals may
  // still be holding leases — leaked_leases_after() is the drain gate.
}

sim::Task<void> Harness::sample_utilization(
    std::shared_ptr<std::vector<UtilizationTrace::Sample>> out, Time deadline,
    Duration every) {
  // Aggregate counters work for any shard count (the registry accessor
  // only sees shard 0 of a sharded manager).
  while (engine_.now() < deadline) {
    co_await sim::delay(every);
    const auto total = rm_->total_workers();
    const auto free = rm_->free_workers_total();
    UtilizationTrace::Sample s;
    s.at = engine_.now();
    s.utilization_pct = total == 0 ? 0 : 100.0 * static_cast<double>(total - free) / total;
    out->push_back(s);
  }
}

UtilizationTrace Harness::run_lease_workload(const LeaseWorkload& workload, Duration horizon,
                                             Duration sample_every) {
  const Time deadline = engine_.now() + horizon;
  auto counters = std::make_shared<WorkloadCounters>();
  auto samples = std::make_shared<std::vector<UtilizationTrace::Sample>>();

  for (std::size_t c = 0; c < client_hosts_.size(); ++c) {
    // Decorrelate client streams while keeping the run reproducible.
    const std::uint64_t seed = workload.seed * 0x9e3779b97f4a7c15ull + c;
    spawn(lease_client_loop(c, workload, seed, deadline, counters));
  }
  spawn(sample_utilization(samples, deadline, sample_every));

  engine_.run_until(deadline);
  last_sinks_ = {counters};

  UtilizationTrace trace;
  static_cast<LeaseCounters&>(trace) = *counters;
  trace.samples = *samples;
  refresh_chaos_counters(trace);
  return trace;
}

void Harness::refresh_chaos_counters(UtilizationTrace& trace) const {
  trace.retransmits = 0;
  trace.call_failures = 0;
  trace.duplicate_replies = 0;
  trace.duplicate_pushes = 0;
  trace.double_grants = 0;
  trace.clients_started = 0;
  trace.client_deaths = 0;
  for (const auto& sink : last_sinks_) {
    trace.clients_started += sink->clients_started;
    trace.client_deaths += sink->client_deaths;
    for (const auto& session : sink->sessions) {
      trace.retransmits += session->retransmits();
      trace.call_failures += session->call_failures();
      trace.duplicate_replies += session->duplicate_replies();
      trace.duplicate_pushes += session->duplicate_pushes();
      trace.double_grants += session->double_grants();
    }
  }
}

void Harness::partition_client(std::size_t i, Time from, Time until) {
  if (faults_ == nullptr || i >= client_devices_.size()) return;
  faults_->add_partition(client_devices_[i]->id(), rm_device_->id(), from, until);
}

std::size_t Harness::leaked_leases_after(Duration grace) {
  run_for(grace);
  const std::size_t leaked = rm_->active_leases();
  if (leaked != 0 && spec_.assert_drained) {
    log::error("harness", "lease table not empty after drain: ", leaked,
               " leases leaked (chaos seed ",
               faults_ != nullptr ? faults_->seed() : 0, ")");
    std::abort();
  }
  return leaked;
}

sim::Task<void> Harness::eviction_storm_loop(Duration period, unsigned leases_per_tick,
                                             Time deadline, std::uint64_t seed,
                                             std::shared_ptr<StormStats> out) {
  Rng rng(seed);
  while (engine_.now() < deadline) {
    co_await sim::delay(period);
    if (engine_.now() >= deadline) break;
    auto ids = rm_->core().active_lease_ids();
    if (ids.empty()) continue;
    std::vector<std::uint64_t> victims;
    for (unsigned i = 0; i < leases_per_tick; ++i) {
      victims.push_back(ids[rng.uniform_int(0, ids.size() - 1)]);
    }
    out->requested += victims.size();
    out->evicted += rm_->evict_leases(victims, rfaas::TerminationReason::QuotaPressure);
  }
}

std::shared_ptr<Harness::StormStats> Harness::start_eviction_storm(Duration period,
                                                                   unsigned leases_per_tick,
                                                                   Duration duration,
                                                                   std::uint64_t seed) {
  auto stats = std::make_shared<StormStats>();
  spawn(eviction_storm_loop(period, leases_per_tick, engine_.now() + duration, seed, stats));
  return stats;
}

std::optional<std::size_t> Harness::drain_executor(std::size_t index) {
  if (index >= executor_devices_.size()) return std::nullopt;
  return rm_->drain_executor_on_device(executor_devices_[index]->id());
}

std::shared_ptr<rfaas::StandbyReplica> Harness::attach_standby() {
  auto standby = std::make_shared<rfaas::StandbyReplica>(spec_.config);
  if (auto attached = rm_->attach_standby(standby); !attached.ok()) {
    log::error("harness", "standby attach failed: ", attached.error().message);
    return nullptr;
  }
  standbys_.push_back(standby);
  return standby;
}

void Harness::kill_manager(bool zombie) {
  if (zombie) {
    rm_->isolate();
  } else {
    rm_->crash();
  }
}

rfaas::ResourceManager& Harness::promote_standby(std::size_t index) {
  auto replica = standbys_.at(index);
  standbys_.erase(standbys_.begin() + static_cast<std::ptrdiff_t>(index));
  const std::uint32_t epoch = rm_->manager_epoch() + 1;
  retired_rms_.push_back(std::move(rm_));
  rm_ = std::make_unique<rfaas::ResourceManager>(engine_, *fabric_, *tcp_, *rm_host_,
                                                 *rm_device_, spec_.config);
  if (auto adopted = rm_->adopt(replica->export_state(), epoch); !adopted.ok()) {
    log::error("harness", "standby promotion failed: ", adopted.error().message);
    std::abort();
  }
  rm_->start();
  // Surviving standbys chase the new primary's journal from a fresh
  // snapshot, so a second failover stays possible.
  for (auto& standby : standbys_) {
    if (auto attached = rm_->attach_standby(standby); !attached.ok()) {
      log::error("harness", "standby re-attach failed: ", attached.error().message);
    }
  }
  return *rm_;
}

namespace {

sim::Task<void> failover_script(Harness& h, Duration kill_after, Duration promote_after,
                                bool zombie) {
  co_await sim::delay(kill_after);
  h.kill_manager(zombie);
  co_await sim::delay(promote_after);
  h.promote_standby();
}

}  // namespace

void Harness::schedule_failover(Duration kill_after, Duration promote_after, bool zombie) {
  spawn(failover_script(*this, kill_after, promote_after, zombie));
}

MultiTenantTrace Harness::run_multi_tenant_workload(const std::vector<TenantWorkload>& tenants,
                                                    Duration horizon, Duration sample_every) {
  const Time deadline = engine_.now() + horizon;
  auto samples = std::make_shared<std::vector<UtilizationTrace::Sample>>();
  std::vector<std::shared_ptr<WorkloadCounters>> sinks;

  std::size_t next_client = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto& tenant = tenants[t];
    auto sink = std::make_shared<WorkloadCounters>();
    sinks.push_back(sink);
    for (unsigned c = 0; c < tenant.clients; ++c) {
      const std::size_t client = next_client++ % client_hosts_.size();
      // WFQ weights key on the identity the clients will present: the
      // shared tenant_id when set, else each per-client id.
      if (rm_->admission().enabled()) {
        rm_->admission().set_weight(tenant.tenant_id != 0
                                        ? tenant.tenant_id
                                        : static_cast<std::uint32_t>(client + 1),
                                    tenant.weight);
      }
      const std::uint64_t seed =
          tenant.lease.seed * 0x9e3779b97f4a7c15ull + (t << 20) + c;
      if (tenant.arrivals == ArrivalProcess::Closed) {
        spawn(tenant_client_loop(client, tenant, seed, deadline, sink));
      } else {
        spawn(open_loop_tenant_loop(client, tenant, seed, deadline, sink));
      }
    }
  }
  spawn(sample_utilization(samples, deadline, sample_every));

  engine_.run_until(deadline);
  last_sinks_ = sinks;

  MultiTenantTrace trace;
  trace.aggregate.samples = *samples;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    TenantTrace tenant;
    static_cast<LeaseCounters&>(tenant) = *sinks[t];
    tenant.name = tenants[t].name;
    tenant.weight = tenants[t].weight;
    trace.aggregate += tenant;
    trace.tenants.push_back(std::move(tenant));
  }
  refresh_chaos_counters(trace.aggregate);
  return trace;
}

}  // namespace rfs::cluster
