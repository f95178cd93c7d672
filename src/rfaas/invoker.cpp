#include "rfaas/invoker.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"

namespace rfs::rfaas {

// --------------------------------------------------------------------------
// The client side of the lease protocol
// --------------------------------------------------------------------------

LeaseOutcome classify_lease_reply(const Result<Bytes>& reply) {
  LeaseOutcome out;
  if (!reply.ok()) {
    out.reason = reply.error().message;
    return out;
  }
  const Bytes& raw = reply.value();
  if (auto grant = decode_lease_grant(raw); grant.ok()) {
    out.kind = LeaseOutcome::Kind::Granted;
    out.grants.push_back(grant.value());
  } else if (auto shed = decode_lease_denied(raw); shed.ok()) {
    out.kind = LeaseOutcome::Kind::Shed;
    out.retry_after = shed.value().retry_after;
  } else if (auto batch = decode_batch_granted(raw); batch.ok() && !batch.value().grants.empty()) {
    out.kind = LeaseOutcome::Kind::Granted;
    out.grants = std::move(batch.value().grants);
  } else {
    // A batch names its refusal in the reply, a single request in a
    // LeaseError.
    out.kind = LeaseOutcome::Kind::Refused;
    auto error = batch.ok() ? Result<std::string>(batch.value().error) : decode_lease_error(raw);
    out.reason = error.ok() && !error.value().empty() ? error.value() : "unknown";
  }
  return out;
}

Duration RetryBackoff::next(Duration hint, double jitter, Rng& rng) {
  // Never before the manager's hint, and jittered upward only, so a shed
  // herd spreads out without any client re-arriving early.
  Duration wait = std::max(backoff_, hint);
  if (jitter > 0) {
    wait += static_cast<Duration>(static_cast<double>(wait) * jitter * rng.uniform());
  }
  backoff_ *= 2;
  return wait;
}

LeaseSet::LeaseSet(sim::Engine& engine, LeaseSetOptions options, ManagerLink manager)
    : state_(std::make_shared<State>()), manager_(manager) {
  state_->engine = &engine;
  state_->options = options;
  state_->jitter = Rng(options.jitter_seed);
}

LeaseSet::~LeaseSet() {
  // The renewal/notification/healing actors only hold the shared state;
  // flag them down and let them exit at their next wake (or be drained
  // with the engine). Callbacks are cleared so a late actor never calls
  // into a torn-down owner.
  state_->running = false;
  state_->healing_enabled = false;
  state_->renewed_fn = nullptr;
  state_->renewal_failed_fn = nullptr;
  state_->expired_fn = nullptr;
  state_->terminated_fn = nullptr;
  state_->reallocated_fn = nullptr;
  state_->chain_extended_fn = nullptr;
}

sim::Task<Status> LeaseSet::connect() {
  // Every dial takes the next epoch, whether or not it connects.
  const ManagerLink link = manager_;
  ++manager_.options.epoch;
  auto session = co_await dial(*state_->engine, link);
  if (!session.ok()) co_return session.error();
  bind(std::move(session).take());
  co_return Status::success();
}

void LeaseSet::bind(std::shared_ptr<Session> rm_session) {
  state_->session = std::move(rm_session);
}

sim::Task<Status> LeaseSet::subscribe(std::uint32_t client_id) {
  subscriber_ = client_id;
  auto session = co_await dial(*state_->engine, manager_);
  if (!session.ok()) {
    notify_ = nullptr;
    co_return session.error();
  }
  subscribe(std::move(session).take(), client_id);
  co_return Status::success();
}

sim::Task<Status> LeaseSet::reconnect() {
  auto st = co_await connect();
  if (!st.ok()) co_return st;
  // The old push channel died with the manager. A promoted manager
  // answers the fresh subscription with a FailoverAnnounce, which
  // re-triggers revalidation on its own.
  if (subscriber_) (void)co_await subscribe(*subscriber_);
  co_return Status::success();
}

sim::Task<void> LeaseSet::release(LeaseGrantMsg grant, std::uint64_t memory_per_worker) {
  const ReleaseResourcesMsg rel{.lease_id = abandon(grant.lease_id),
                                .workers = grant.workers,
                                .memory_bytes = memory_per_worker * grant.workers};
  if (connected()) co_await send_acked(state_->session, rel);
}

void LeaseSet::subscribe(std::shared_ptr<Session> notify_session, std::uint32_t client_id) {
  notify_ = notify_session;
  state_->client_id = client_id;
  state_->healing_enabled = true;
  SubscribeEventsMsg msg;
  msg.client_id = client_id;
  // Subscriptions are idempotent at the manager (latest wins), so a
  // duplicated or lost subscribe needs no request/reply discipline; a
  // lost one is resent by the next allocate() on a fresh stream.
  notify_session->send_raw(encode(msg));
  sim::spawn(*state_->engine, push_loop(state_, std::move(notify_session)));
}

void LeaseSet::configure(LeaseSetOptions options) {
  if (options.jitter_seed != state_->options.jitter_seed) {
    state_->jitter = Rng(options.jitter_seed);
  }
  state_->options = options;
}

void LeaseSet::track(std::uint64_t lease_id, Time expires_at, Duration original_timeout,
                     std::uint32_t workers, std::uint64_t memory_per_worker) {
  Tracked t;
  t.expires_at = expires_at;
  t.original_timeout = original_timeout;
  t.workers = workers;
  t.memory_per_worker = memory_per_worker;
  t.origin = lease_id;
  state_->leases[lease_id] = t;
  state_->current_of_origin[lease_id] = lease_id;
  state_->wake.set();  // un-park the renewal actor
}

bool LeaseSet::untrack(std::uint64_t lease_id) {
  auto it = state_->leases.find(lease_id);
  if (it == state_->leases.end()) return false;
  // Only the chain's primary tears the origin mapping down: untracking a
  // secondary (partial-heal) lease must not orphan the chain.
  auto cur = state_->current_of_origin.find(it->second.origin);
  if (cur != state_->current_of_origin.end() && cur->second == lease_id) {
    state_->current_of_origin.erase(cur);
  }
  state_->leases.erase(it);
  return true;
}

std::uint64_t LeaseSet::resolve(std::uint64_t origin) const {
  auto it = state_->current_of_origin.find(origin);
  return it == state_->current_of_origin.end() ? origin : it->second;
}

std::uint64_t LeaseSet::abandon(std::uint64_t origin) {
  const std::uint64_t current = resolve(origin);
  if (state_->healing.count(origin) > 0) state_->canceled.insert(origin);
  // Secondary chain leases (partial heals) are released here directly:
  // the caller only learns the primary id.
  for (auto it = state_->leases.begin(); it != state_->leases.end();) {
    if (it->second.origin != origin || it->first == current) {
      ++it;
      continue;
    }
    send_release(state_, {.lease_id = it->first,
                          .workers = it->second.workers,
                          .memory_bytes = it->second.memory_per_worker * it->second.workers});
    it = state_->leases.erase(it);
  }
  state_->leases.erase(current);
  state_->current_of_origin.erase(origin);
  return current;
}

void LeaseSet::start() {
  if (state_->session == nullptr) return;
  // Re-arm healing after a stop()/start() cycle (subscribe() set it the
  // first time; the notification listener itself survives stop()).
  if (state_->options.self_heal) state_->healing_enabled = true;
  if (state_->running) return;
  state_->running = true;
  // Bump the epoch so an actor surviving from before a stop() retires
  // itself on its next wake instead of running alongside this one.
  sim::spawn(*state_->engine, renew_loop(state_, ++state_->epoch));
}

void LeaseSet::stop() {
  state_->running = false;
  state_->healing_enabled = false;
  state_->wake.set();
}

void LeaseSet::on_renewed(RenewedFn fn) { state_->renewed_fn = std::move(fn); }
void LeaseSet::on_renewal_failed(RenewalFailedFn fn) {
  state_->renewal_failed_fn = std::move(fn);
}
void LeaseSet::on_expired(ExpiredFn fn) { state_->expired_fn = std::move(fn); }
void LeaseSet::on_terminated(TerminatedFn fn) { state_->terminated_fn = std::move(fn); }
void LeaseSet::on_reallocated(ReallocatedFn fn) { state_->reallocated_fn = std::move(fn); }
void LeaseSet::on_chain_extended(ReallocatedFn fn) {
  state_->chain_extended_fn = std::move(fn);
}

std::size_t LeaseSet::size() const { return state_->leases.size(); }

Time LeaseSet::earliest_expiry() const {
  Time earliest = 0;
  for (const auto& [id, t] : state_->leases) {
    if (earliest == 0 || t.expires_at < earliest) earliest = t.expires_at;
  }
  return earliest;
}

std::uint64_t LeaseSet::renewals() const { return state_->renewals; }
std::uint64_t LeaseSet::renewal_failures() const { return state_->renewal_failures; }
std::uint64_t LeaseSet::expiries() const { return state_->expiries; }
std::uint64_t LeaseSet::terminations() const { return state_->terminations; }
std::uint64_t LeaseSet::losses() const { return state_->losses; }
std::uint64_t LeaseSet::reallocations() const { return state_->reallocations; }
std::uint64_t LeaseSet::realloc_failures() const { return state_->realloc_failures; }

std::uint64_t LeaseSet::overload_denials() const { return state_->overload_denials; }

void LeaseSet::revalidate() { sim::spawn(*state_->engine, revalidate_all(state_)); }

namespace {

/// Renewal margin of one tracked lease, clamped so a successful renewal
/// always buys strictly more validity than the margin consumes (no
/// zero-time renewal spin when margin >= extension).
Duration effective_margin(const LeaseSetOptions& options, Duration original_timeout) {
  Duration extension = options.extension != 0 ? options.extension : original_timeout;
  if (extension == 0) extension = 1_s;
  return std::min(options.renew_margin, extension / 2);
}

}  // namespace

void LeaseSet::maybe_heal(const std::shared_ptr<State>& state, std::uint64_t old_id,
                          const Tracked& lost) {
  if (!state->options.self_heal || !state->healing_enabled) return;
  if (lost.workers == 0) return;  // shape unknown: nothing to re-request
  if (!connected(*state)) return;
  // A lost lease is erased from the table before this runs, so the same
  // loss never heals twice; losses of different chain members (partial
  // heals) may overlap, hence a per-origin count rather than a set.
  ++state->healing[lost.origin];
  sim::spawn(*state->engine, heal(state, old_id, lost));
}

void LeaseSet::handle_notification(const std::shared_ptr<State>& state, const Bytes& raw) {
  auto type = peek_type(raw);
  if (type.ok() && type.value() == MsgType::FailoverAnnounce) {
    // A promoted standby took over the manager role: nothing this client
    // holds can be trusted until it is re-validated against the restored
    // lease table (leases granted in the blackout window by the dead
    // primary may not have reached the journal).
    auto announce = decode_failover_announce(raw);
    if (!announce) return;
    sim::spawn(*state->engine, revalidate_all(state));
    return;
  }
  // One message per sweep carries every lease of this client the manager
  // evicted together: each costs loss accounting, the holder's callback
  // and (when enabled) the self-healing re-allocation.
  auto term = decode_leases_terminated(raw);
  if (!term) return;
  const auto reason = static_cast<TerminationReason>(term.value().reason);
  for (auto lease_id : term.value().lease_ids) {
    // A push for an untracked lease is stale: the holder released it, or
    // a refused renewal already lost it (and started its heal).
    auto it = state->leases.find(lease_id);
    if (it == state->leases.end()) continue;
    const auto lost = it->second;
    state->leases.erase(it);
    ++state->terminations;
    ++state->losses;
    if (state->terminated_fn) state->terminated_fn(lease_id, reason, term.value().evicted_at);
    maybe_heal(state, lease_id, lost);
  }
}

sim::Task<void> LeaseSet::push_loop(std::shared_ptr<State> state,
                                    std::shared_ptr<Session> session) {
  // The session pump already filtered duplicated deliveries (by push
  // seq), so every message seen here is a first delivery.
  while (true) {
    auto raw = co_await session->next_push();
    if (!raw.has_value()) co_return;  // unsubscribed / manager gone
    handle_notification(state, *raw);
  }
}

bool LeaseSet::connected(const State& state) {
  return state.session != nullptr && !state.session->closed();
}

sim::Task<void> LeaseSet::revalidate_all(std::shared_ptr<State> state) {
  // Snapshot the ids first: each exchange yields, and a refused lease
  // mutates the tracked map mid-iteration.
  std::vector<std::uint64_t> ids;
  ids.reserve(state->leases.size());
  for (const auto& [id, tracked] : state->leases) ids.push_back(id);
  for (const auto id : ids) {
    if (state->leases.find(id) == state->leases.end()) continue;  // lost meanwhile
    // Manager unreachable: leave the remaining leases tracked; the next
    // reconnect (or the announce on its notification stream) re-runs the
    // whole pass.
    if (!connected(*state)) co_return;
    auto reply = co_await state->session->request(
        LeaseRevalidateMsg{.client_id = state->client_id, .lease_id = id});
    if (!reply.ok()) co_return;
    auto type = peek_type(reply.value());
    if (type.ok() && type.value() == MsgType::ExtendOk) {
      auto ok = decode_extend_ok(reply.value());
      if (!ok.ok()) continue;
      if (auto it = state->leases.find(id); it != state->leases.end()) {
        // Adopt the manager's authoritative deadline: the promoted
        // standby replayed the renewals it saw, which may trail the dead
        // primary's last answer.
        it->second.expires_at = ok.value().expires_at;
      }
      continue;
    }
    // Refused: the manager does not carry this lease (never journaled
    // before the crash, or reclaimed in the blackout). Same loss path as
    // a refused renewal: untrack, report, heal.
    auto it = state->leases.find(id);
    if (it == state->leases.end()) continue;
    const Tracked lost = it->second;
    state->leases.erase(it);
    ++state->losses;
    if (state->renewal_failed_fn) state->renewal_failed_fn(id, "lost in failover");
    maybe_heal(state, id, lost);
  }
  // Deadlines may have moved (usually earlier): re-aim the renewal actor.
  state->wake.set();
}

void LeaseSet::send_release(const std::shared_ptr<State>& state, ReleaseResourcesMsg rel) {
  if (connected(*state)) sim::spawn(*state->engine, send_acked(state->session, rel));
}

sim::Task<void> LeaseSet::heal(std::shared_ptr<State> state, std::uint64_t old_id,
                               Tracked lost) {
  RetryBackoff backoff(state->options.realloc_backoff);
  std::uint32_t remaining = lost.workers;
  bool healed = false;    // at least one replacement grant landed
  bool canceled = false;
  // Denials consume the budget; successful (possibly partial) grants do
  // not — a partial replacement immediately re-requests the remainder,
  // so a lost 8-worker lease replaced 3+3+2 costs zero budget.
  unsigned denials = 0;
  while (remaining > 0 && denials < std::max(1u, state->options.realloc_budget)) {
    if (!state->healing_enabled || state->canceled.count(lost.origin) > 0) {
      canceled = true;
      break;
    }
    if (!connected(*state)) break;

    const LeaseOutcome outcome = classify_lease_reply(co_await state->session->request(
        LeaseRequestMsg{.client_id = state->client_id,
                        .workers = remaining,
                        .memory_bytes = lost.memory_per_worker,
                        .timeout = lost.original_timeout}));
    // Manager unreachable (disconnect / budget out).
    if (outcome.kind == LeaseOutcome::Kind::Dead) break;

    if (outcome.kind == LeaseOutcome::Kind::Granted) {
      const LeaseGrantMsg& g = outcome.grants.front();
      if (!state->healing_enabled || state->canceled.count(lost.origin) > 0) {
        // The holder abandoned the chain while we were in flight: hand
        // the fresh grant straight back instead of leaking it.
        send_release(state, {.lease_id = g.lease_id,
                             .workers = g.workers,
                             .memory_bytes = lost.memory_per_worker * g.workers});
        canceled = true;
        break;
      }
      Tracked replacement = lost;
      replacement.expires_at = g.expires_at;
      replacement.workers = g.workers;
      state->leases[g.lease_id] = replacement;
      // The first grant takes the lost lease's chain slot (primary when
      // the lost lease was the primary); further partial grants join the
      // chain as secondaries and are released with it at abandon().
      if (!healed) {
        auto cur = state->current_of_origin.find(lost.origin);
        if (cur != state->current_of_origin.end() && cur->second == old_id) {
          cur->second = g.lease_id;
        }
      }
      state->wake.set();  // the replacement may be the next renewal due
      if (!healed) {
        // One reallocation per lost lease, however many grants replace it.
        ++state->reallocations;
        healed = true;
        if (state->reallocated_fn) state->reallocated_fn(old_id, g);
      } else if (state->chain_extended_fn) {
        // Remainder grant: a deployment event (the owner still has to
        // put a sandbox on it), not a second healed lease.
        state->chain_extended_fn(old_id, g);
      }
      old_id = g.lease_id;  // a further remainder grant chains off this one
      remaining -= std::min(remaining, g.workers);
      continue;
    }
    // Denied (transient exhaustion while the evicted capacity settles):
    // back off exponentially within the budget. An admission shed
    // (LeaseDenied) carries a retry_after hint — the wait never
    // undercuts it, or a fleet-wide eviction would turn the heal loops
    // into a synchronized retry storm amplifying the very overload
    // that evicted the leases.
    ++denials;
    Duration hint = 0;
    if (outcome.kind == LeaseOutcome::Kind::Shed) {
      ++state->overload_denials;
      if (state->options.honor_retry_after) hint = outcome.retry_after;
    }
    co_await sim::delay(backoff.next(hint, state->options.backoff_jitter, state->jitter));
  }
  auto in_flight = state->healing.find(lost.origin);
  if (in_flight != state->healing.end() && --in_flight->second == 0) {
    state->healing.erase(in_flight);
    state->canceled.erase(lost.origin);
  }
  if (!healed && !canceled) ++state->realloc_failures;
}

sim::Task<void> LeaseSet::renew_loop(std::shared_ptr<State> state, std::uint64_t epoch) {
  sim::Engine& engine = *state->engine;
  auto active = [&state, epoch] { return state->running && state->epoch == epoch; };
  auto expire = [&state](std::uint64_t id) {
    auto it = state->leases.find(id);
    if (it == state->leases.end()) return;
    const Tracked lost = it->second;
    state->leases.erase(it);
    ++state->expiries;
    ++state->losses;
    if (state->expired_fn) state->expired_fn(id);
    // An expired or refused lease is as gone as an evicted one: the
    // self-healing path re-allocates it the same way.
    maybe_heal(state, id, lost);
  };
  while (active()) {
    if (state->leases.empty()) {
      state->wake.reset();
      co_await state->wake.wait();
      continue;
    }

    // Renewal instants come straight from the lease table: a lease is
    // due once its remaining validity drops below the margin.
    const Time now = engine.now();
    std::vector<std::pair<Time, std::uint64_t>> due_ids;
    Time next = sim::kNever;
    for (const auto& [id, t] : state->leases) {
      const Duration margin = effective_margin(state->options, t.original_timeout);
      const Time at = t.expires_at > margin ? t.expires_at - margin : 0;
      if (at <= now) {
        due_ids.emplace_back(at, id);
      } else {
        next = std::min(next, at);
      }
    }
    if (due_ids.empty()) {
      // Sleep until the earliest renewal is due, interruptibly: track()
      // may add a lease due sooner than this target and stop() must not
      // leave the actor dozing — both set the wake event, and the alarm
      // sets it by the deadline. Either way the loop recomputes.
      state->wake.reset();
      state->wake_alarm.arm(next);
      co_await state->wake.wait();
      continue;
    }

    // Renew everything due, earliest instant first (ties by lease id).
    // The ids are a snapshot because each renewal suspends (and may
    // untrack on expiry); a renewal that fails transiently stays due, so
    // the retry is immediate but bounded by the backoff below.
    std::sort(due_ids.begin(), due_ids.end());
    bool failed = false;
    for (const auto& [at, id] : due_ids) {
      if (!active()) break;
      auto it = state->leases.find(id);
      if (it == state->leases.end()) continue;
      if (engine.now() >= it->second.expires_at) {
        // Too late: the manager-side lease is gone (spurious expiry).
        expire(id);
        continue;
      }
      const Duration extension = state->options.extension != 0 ? state->options.extension
                                                               : it->second.original_timeout;
      if (!connected(*state)) {
        ++state->renewal_failures;
        if (state->renewal_failed_fn) state->renewal_failed_fn(id, "manager stream closed");
        failed = true;
        continue;
      }

      auto raw =
          co_await state->session->request(ExtendLeaseMsg{.lease_id = id, .extension = extension});
      if (!active()) co_return;  // stopped mid-flight: shutdown, not a failure

      it = state->leases.find(id);  // may have been untracked while waiting
      if (it == state->leases.end()) continue;
      if (!raw.ok()) {
        ++state->renewal_failures;
        if (state->renewal_failed_fn) state->renewal_failed_fn(id, raw.error().message);
        failed = true;
        continue;
      }
      auto ok = decode_extend_ok(raw.value());
      if (ok.ok()) {
        it->second.expires_at = ok.value().expires_at;
        ++state->renewals;
        if (state->renewed_fn) state->renewed_fn(id, ok.value().expires_at);
      } else {
        // The manager refused (typically "unknown lease"): the lease is
        // dead on the authoritative side — surface both signals.
        auto reason = decode_lease_error(raw.value());
        ++state->renewal_failures;
        if (state->renewal_failed_fn) {
          state->renewal_failed_fn(id, reason.ok() ? reason.value() : "renewal refused");
        }
        expire(id);
      }
    }
    if (failed && active()) {
      // Transient failure: back off before retrying so a dead manager
      // cannot spin the loop at a single virtual timestamp.
      co_await sim::delay(std::max<Duration>(1_ms, state->options.renew_margin / 4));
    }
  }
}

// --------------------------------------------------------------------------
// Invoker
// --------------------------------------------------------------------------

Invoker::Invoker(sim::Engine& engine, fabric::Fabric& fabric, net::TcpNetwork& tcp,
                 const Config& config, fabric::Device& device, fabric::DeviceId rm_device,
                 std::uint16_t rm_port, std::uint32_t client_id)
    : engine_(engine),
      fabric_(fabric),
      tcp_(tcp),
      config_(config),
      device_(device),
      client_id_(client_id),
      pd_(device.alloc_pd()),
      lease_set_(std::make_unique<LeaseSet>(
          engine, LeaseSetOptions{}, ManagerLink{&tcp, device.id(), rm_device, rm_port})),
      slots_(std::make_unique<sim::Semaphore>(0)),
      slot_sem_(std::make_unique<sim::Semaphore>(0)) {}

Invoker::~Invoker() = default;

sim::Task<Status> Invoker::allocate(const AllocationSpec& spec) {
  polling_client_ = spec.polling_client;

  // Stage 1: connect to the resource manager (once; redialed when the
  // session died). The LeaseSet's retransmitting Session makes every
  // lease-critical exchange idempotent under loss, and each redial takes
  // a fresh session epoch, fencing replies addressed to the dead
  // session's id space.
  Time t0 = engine_.now();
  if (!lease_set_->connected()) {
    auto connected = co_await lease_set_->connect();
    if (!connected.ok()) co_return connected;
  }
  cold_start_.connect_manager = engine_.now() - t0;

  if (spec.auto_renew || spec.self_heal) {
    LeaseSetOptions opts;
    opts.renew_margin =
        spec.renew_margin != 0 ? spec.renew_margin : spec.lease_timeout / 4;
    opts.extension = spec.lease_timeout;
    opts.self_heal = spec.self_heal;
    // Per-client jitter streams: a herd of healing invokers must not
    // share one backoff schedule.
    opts.jitter_seed = 0x5eed ^ (static_cast<std::uint64_t>(client_id_) << 17);
    lease_set_->configure(opts);
  }

  if (spec.self_heal) {
    // Self-healing: a dedicated notification stream carries the
    // manager's LeasesTerminated pushes, and a re-allocated lease gets
    // its sandbox redeployed with the spec of the allocate() call that
    // created it (looked up by the lost lease's id).
    // Both callbacks look the spec up under the grant they chain off:
    // on_reallocated's old_id is the LOST lease (its entry is dead —
    // erase it, keeping the map bounded under sustained healing), while
    // on_chain_extended's old_id is the previous partial grant, which
    // is alive and may be lost and healed itself later — keep its entry.
    auto redeploy_grant = [this](std::uint64_t old_id, const LeaseGrantMsg& grant,
                                 bool erase_old) {
      auto it = lease_specs_.find(old_id);
      if (it == lease_specs_.end()) return;
      auto lease_spec = it->second;
      if (erase_old) lease_specs_.erase(it);
      lease_specs_[grant.lease_id] = lease_spec;
      sim::spawn(engine_, redeploy(*lease_spec, grant));
    };
    lease_set_->on_reallocated([redeploy_grant](std::uint64_t old_id,
                                                const LeaseGrantMsg& grant) {
      redeploy_grant(old_id, grant, /*erase_old=*/true);
    });
    lease_set_->on_chain_extended([redeploy_grant](std::uint64_t old_id,
                                                   const LeaseGrantMsg& grant) {
      redeploy_grant(old_id, grant, /*erase_old=*/false);
    });
    if (!lease_set_->subscribed()) {
      // One listener per connection: subscribe() spawns the notify
      // actor, so only a fresh stream gets subscribed.
      auto subscribed = co_await lease_set_->subscribe(client_id_);
      if (!subscribed.ok()) co_return subscribed;
    }
  }

  const auto spec_ref =
      spec.self_heal ? std::make_shared<const AllocationSpec>(spec) : nullptr;
  std::uint32_t remaining = spec.workers;
  while (remaining > 0) {
    // Stage 2: lease acquisition (A1). Grants may be partial; the client
    // aggregates leases until the desired parallelism is reached — one
    // LeaseRequest per partial grant, or one BatchAllocate round trip
    // for the whole remainder when spec.batched_leases is set.
    t0 = engine_.now();
    auto grants = co_await acquire_leases(spec, remaining);
    if (!grants.ok()) co_return grants.error();
    cold_start_.lease += engine_.now() - t0;

    for (const auto& grant : grants.value()) {
      auto deployed = co_await deploy_grant(spec, grant);
      if (!deployed.ok()) co_return deployed;
      if (spec.auto_renew || spec.self_heal) {
        lease_set_->track(grant.lease_id, grant.expires_at, spec.lease_timeout,
                          grant.workers, spec.memory_per_worker);
      }
      if (spec_ref != nullptr) lease_specs_[grant.lease_id] = spec_ref;
      remaining -= std::min(remaining, grant.workers);
    }
  }
  if (spec.auto_renew || spec.self_heal) lease_set_->start();
  co_return Status::success();
}

sim::Task<Result<std::vector<LeaseGrantMsg>>> Invoker::acquire_leases(
    const AllocationSpec& spec, std::uint32_t remaining) {
  LeaseOutcome outcome;
  if (spec.batched_leases) {
    outcome = co_await lease_set_->request(
        BatchAllocateMsg{.client_id = client_id_,
                         .workers = remaining,
                         .memory_bytes = spec.memory_per_worker,
                         .timeout = spec.lease_timeout,
                         .mode = static_cast<std::uint8_t>(BatchMode::BestEffort)});
  } else {
    outcome = co_await lease_set_->request(LeaseRequestMsg{.client_id = client_id_,
                                                           .workers = remaining,
                                                           .memory_bytes = spec.memory_per_worker,
                                                           .timeout = spec.lease_timeout});
  }
  switch (outcome.kind) {
    case LeaseOutcome::Kind::Granted:
      break;
    case LeaseOutcome::Kind::Shed:
      // Admission shed: a transient, retryable condition — distinct
      // error code so callers can back off (at least retry_after)
      // instead of treating it as a capacity refusal.
      co_return Error::make(42, "lease shed by admission control (retry after " +
                                    std::to_string(outcome.retry_after / 1'000'000) + " ms)");
    case LeaseOutcome::Kind::Refused:
      co_return Error::make(41, "lease denied: " + outcome.reason);
    case LeaseOutcome::Kind::Dead:
      co_return Error::make(40, "resource manager unreachable: " + outcome.reason);
  }
  co_return std::move(outcome.grants);
}

sim::Task<Status> Invoker::deploy_grant(const AllocationSpec& spec, const LeaseGrantMsg& grant) {
  // Stage 3: allocation on the spot executor (A2).
  Time t0 = engine_.now();
  auto mgr = co_await tcp_.connect(device_.id(), grant.device, grant.alloc_port);
  if (!mgr.ok()) co_return mgr.error();
  auto mgr_stream = mgr.value();

  AllocationRequestMsg alloc;
  alloc.lease_id = grant.lease_id;
  alloc.client_id = client_id_;
  alloc.workers = grant.workers;
  alloc.memory_bytes = spec.memory_per_worker;
  alloc.sandbox = static_cast<std::uint8_t>(spec.sandbox);
  alloc.policy = static_cast<std::uint8_t>(spec.policy);
  alloc.hot_timeout = spec.hot_timeout;
  alloc.expires_at = grant.expires_at;
  mgr_stream->send(encode(alloc));
  auto alloc_raw = co_await mgr_stream->recv();
  if (!alloc_raw.has_value()) co_return Error::make(45, "allocator disconnected");
  auto alloc_reply = decode_allocation_reply(*alloc_raw);
  if (!alloc_reply) co_return alloc_reply.error();
  if (!alloc_reply.value().ok) {
    co_return Error::make(43, "allocation failed: " + alloc_reply.value().error);
  }
  const Duration round = engine_.now() - t0;
  cold_start_.spawn_workers += alloc_reply.value().spawn_ns;
  cold_start_.submit_allocation +=
      round > alloc_reply.value().spawn_ns ? round - alloc_reply.value().spawn_ns : 0;

  // Stage 4: direct RDMA connections to every worker (D2).
  t0 = engine_.now();
  const std::size_t first_worker = workers_.size();
  sim::WaitGroup wg(grant.workers);
  bool connect_failed = false;
  for (std::uint32_t i = 0; i < grant.workers; ++i) {
    auto one = [](Invoker* self, LeaseGrantMsg g, std::uint64_t sandbox, std::uint32_t idx,
                  sim::WaitGroup* group, bool* failed) -> sim::Task<void> {
      auto st = co_await self->connect_worker(g, sandbox, idx);
      if (!st.ok()) *failed = true;
      group->done();
    };
    sim::spawn(engine_, one(this, grant, alloc_reply.value().sandbox_id, i, &wg,
                            &connect_failed));
  }
  co_await wg.wait();
  if (connect_failed) co_return Error::make(44, "worker connection failed");
  // Stamp the grant's workers with their executor identity and control
  // channel: health scoring keys on the device, and a hedged attempt's
  // loser is cancelled over the manager stream.
  for (std::size_t w = first_worker; w < workers_.size(); ++w) {
    workers_[w].device = grant.device;
    workers_[w].mgr_stream = mgr_stream;
  }
  cold_start_.connect_workers += engine_.now() - t0;

  // Stage 5: submit the function code. The message is padded to the
  // library size so the transfer cost is real.
  t0 = engine_.now();
  SubmitCodeMsg code;
  code.sandbox_id = alloc_reply.value().sandbox_id;
  code.function_name = spec.function_name;
  code.code_size = spec.code_size;
  auto payload = encode(code);
  if (code.code_size > payload.size()) payload.resize(code.code_size);
  mgr_stream->send(std::move(payload));
  auto code_raw = co_await mgr_stream->recv();
  if (!code_raw.has_value()) co_return Error::make(45, "allocator disconnected");
  auto code_type = peek_type(*code_raw);
  if (!code_type.ok() || code_type.value() != MsgType::SubmitCodeOk) {
    auto err = decode_lease_error(*code_raw);
    co_return Error::make(46, "code submission failed: " +
                                  (err.ok() ? err.value() : "unknown"));
  }
  cold_start_.submit_code += engine_.now() - t0;

  allocations_.push_back(
      Allocation{grant.lease_id, alloc_reply.value().sandbox_id, mgr_stream});
  co_return Status::success();
}

sim::Task<void> Invoker::redeploy(AllocationSpec spec, LeaseGrantMsg grant) {
  // The replacement lease is already tracked by the LeaseSet; this
  // rebuilds the serving side: sandbox, worker connections, code.
  auto st = co_await deploy_grant(spec, grant);
  if (!st.ok()) {
    log::warn("invoker", "self-heal redeploy failed: ", st.error().message);
    co_return;
  }
  ++redeployments_;
}

sim::Task<Status> Invoker::connect_worker(const LeaseGrantMsg& grant, std::uint64_t sandbox_id,
                                          std::uint32_t index) {
  ByteWriter pdata;
  pdata.u64(sandbox_id);
  pdata.u32(index);
  Bytes pdata_bytes = pdata.take();
  auto conn = co_await rdmalib::Connection::connect(fabric_, device_, pd_, grant.device,
                                                    grant.rdma_port, std::move(pdata_bytes));
  if (!conn.ok()) co_return conn.error();

  ByteReader rd(conn.value()->accept_data());
  auto addr = rd.u64();
  auto rkey = rd.u32();
  auto len = rd.u32();
  if (!addr || !rkey || !len) co_return Error::make(47, "bad worker descriptor");

  WorkerRef ref;
  ref.conn = std::move(conn).take();
  ref.remote_buf = rdmalib::RemoteBuffer{addr.value(), rkey.value(), len.value()};
  ref.max_payload = len.value() - InvocationHeader::kSize;
  workers_.push_back(std::move(ref));
  free_workers_.push_back(workers_.size() - 1);
  slots_->release();
  co_return Status::success();
}

sim::Task<Result<std::uint16_t>> Invoker::add_function(const std::string& name) {
  std::uint16_t index = 0;
  for (auto& alloc : allocations_) {
    SubmitCodeMsg code;
    code.sandbox_id = alloc.sandbox_id;
    code.function_name = name;
    code.code_size = 0;
    alloc.mgr_stream->send(encode(code));
    auto raw = co_await alloc.mgr_stream->recv();
    if (!raw.has_value()) co_return Error::make(45, "allocator disconnected");
    auto ok = decode_submit_code_ok(*raw);
    if (!ok) co_return Error::make(46, "code submission failed for " + name);
    index = ok.value().fn_index;
  }
  co_return index;
}

void Invoker::reserve_slots(std::size_t count, std::size_t max_input, std::size_t max_output) {
  for (std::size_t i = 0; i < count; ++i) {
    auto slot = std::make_unique<InvocationSlot>(max_input, max_output);
    // Registered once, up front; every invocation on this slot reuses the
    // pinned regions instead of paying registration on the hot path.
    (void)slot->in.register_memory(*pd_, fabric::LocalWrite);
    (void)slot->out.register_memory(*pd_, fabric::RemoteWrite | fabric::LocalWrite);
    free_slots_.push_back(slot_pool_.size());
    slot_pool_.push_back(std::move(slot));
    slot_sem_->release();
  }
}

sim::Task<InvocationResult> Invoker::invoke_pooled(std::uint16_t fn_index,
                                                   std::span<const std::uint8_t> payload) {
  const Time submitted = engine_.now();
  InvocationResult result;
  if (slot_pool_.empty()) {
    result.submitted_at = submitted;
    result.completed_at = engine_.now();
    co_return result;  // reserve_slots() was never called
  }
  co_await slot_sem_->acquire();
  const std::size_t slot_idx = free_slots_.front();
  free_slots_.pop_front();
  InvocationSlot& slot = *slot_pool_[slot_idx];

  const std::size_t n = std::min<std::size_t>(payload.size(), slot.in.payload_bytes());
  if (n > 0) std::memcpy(slot.in.data(), payload.data(), n);
  const Frame frame = frame_of(slot.in, n, slot.out);
  result = co_await invoke_frame(fn_index, frame);

  free_slots_.push_back(slot_idx);
  slot_sem_->release();
  result.submitted_at = submitted;
  co_return result;
}

sim::Future<InvocationResult> Invoker::submit_frame(std::uint16_t fn_index, Frame frame) {
  sim::Promise<InvocationResult> promise;
  auto future = promise.get_future();
  auto run = [](Invoker* self, std::uint16_t fn, Frame f,
                sim::Promise<InvocationResult> done) -> sim::Task<void> {
    // Client-observed latency includes queueing for a free worker and
    // any redirects or retries, so the timestamp is the submission's.
    const Time submitted = self->engine_.now();
    InvocationResult result = co_await self->invoke_frame(fn, f);
    result.submitted_at = submitted;
    done.set_value(result);
  };
  sim::spawn(engine_, run(this, fn_index, frame, std::move(promise)));
  return future;
}

sim::Task<InvocationResult> Invoker::invoke_frame(std::uint16_t fn_index, const Frame& frame) {
  if (config_.fault_tolerance.enabled()) co_return co_await invoke_reliable(fn_index, frame);
  // Redirect loop: a rejected warm invocation is re-sent to the next free
  // worker; RDMA-speed rejections make this cheap (Sec. III-D). A dead
  // connection (lease terminated, sandbox reclaimed) fails the same way;
  // self-healed allocations appended fresh workers, so the rotation
  // reaches a live one.
  InvocationResult result;
  const std::size_t max_attempts = workers_.empty() ? 1 : 2 * workers_.size();
  for (std::size_t n = 0; n < max_attempts; ++n) {
    co_await slots_->acquire();
    const std::size_t widx = free_workers_.front();
    free_workers_.pop_front();
    result = co_await attempt(widx, fn_index, frame);
    release_worker(widx);
    if (result.ok) {
      result.attempts = static_cast<std::uint32_t>(n + 1);
      break;
    }
    if (result.rejected) ++rejections_;
    co_await sim::delay(2_us);
  }
  co_return result;
}

sim::Task<InvocationResult> Invoker::attempt(std::size_t worker, std::uint16_t fn_index,
                                             const Frame& frame, std::uint64_t tag,
                                             Time deadline) {
  InvocationResult result;
  result.submitted_at = engine_.now();
  WorkerRef& w = workers_[worker];
  if (w.conn == nullptr || !w.conn->alive()) {
    result.completed_at = engine_.now();
    co_return result;  // ok=false: executor is gone (lease terminated?)
  }

  const std::uint32_t invocation_id = next_invocation_++ & 0x7FFFFu;

  // Pack the header straight into the frame's registered region — no
  // staging buffer, no allocation: where the executor writes the result,
  // plus (FT on) the idempotent tag, the per-attempt deadline and
  // optionally a request checksum, all in the same 32 B header.
  const std::uint8_t* payload = frame.in + InvocationHeader::kSize;
  InvocationHeader header;
  header.result_addr = reinterpret_cast<std::uint64_t>(frame.out);
  header.result_rkey = frame.out_rkey;
  header.invocation_tag = tag;
  header.deadline = deadline;
  header.checksum = tag != 0 && config_.fault_tolerance.checksum
                        ? payload_checksum(payload, frame.payload_bytes())
                        : 0;
  (void)encode_into(header, frame.in, InvocationHeader::kSize);

  // Post the receive for the result notification first.
  (void)w.conn->post_recv_empty(invocation_id);

  // Header + payload leave as one contiguous span; the fabric forwards
  // single-SGE non-inline payloads by reference (zero-copy). Inlining is
  // possible only when header + payload fit the ceiling — the header is
  // why rFaaS loses inlining earlier than raw RDMA (Fig. 8).
  const bool inline_ok = frame.sge.length <= fabric_.model().max_inline;
  auto st = w.conn->post_write_imm(frame.sge, w.remote_buf,
                                   Imm::invocation(fn_index, invocation_id), invocation_id,
                                   inline_ok);
  if (!st.ok()) {
    result.completed_at = engine_.now();
    co_return result;
  }

  // The client's mode (busy-poll or completion channel) consumes both
  // completions.
  auto wait = [this](fabric::CompletionQueue& cq, Time until) {
    return polling_client_ ? cq.wait_polling(until) : cq.wait_blocking(until);
  };

  // Drain our own send completion (error => connection died).
  auto send_wc = co_await wait(w.conn->send_cq(), sim::kNever);
  if (!send_wc.has_value() || send_wc->status != fabric::WcStatus::Success) {
    result.completed_at = engine_.now();
    co_return result;
  }

  // The FT deadline bounds the result wait: an executor that crashed or
  // wedged after the submit surfaces as a timeout instead of blocking
  // forever.
  auto wc = co_await wait(w.conn->recv_cq(), deadline != 0 ? deadline : sim::kNever);
  if (!wc.has_value()) {
    result.timed_out = true;
    result.completed_at = engine_.now();
    co_return result;
  }
  co_await sim::delay(config_.client_completion);
  result.completed_at = engine_.now();
  if (wc->status != fabric::WcStatus::Success || !wc->has_imm) co_return result;
  const InvocationResponse resp = decode_invocation_response(*wc);
  if (resp.invocation_id != invocation_id) {
    // With FT on, a reaped worker's stale completion can legitimately
    // surface here (the abandoned attempt's reply raced the reap).
    if (tag == 0) {
      log::warn("invoker", "immediate mismatch: got ", wc->imm, " expected ", invocation_id);
    } else {
      log::debug("invoker", "stale immediate: got ", wc->imm, " expected ", invocation_id);
    }
    co_return result;
  }
  result.rejected = resp.rejected;
  result.ok = !resp.rejected;
  result.output_bytes = resp.output_bytes;
  if (result.ok && resp.checksum12 != 0 &&
      fold12(payload_checksum(frame.out, resp.output_bytes)) != resp.checksum12) {
    // The responder checksummed its output and the landed bytes do not
    // match: response corrupted in flight. Surfaced for a same-worker
    // retry — the executor's dedup table replays a clean copy.
    result.ok = false;
    result.corrupt = true;
  }
  co_return result;
}

// --------------------------------------------------------------------------
// Fault-tolerant data plane (client side)
// --------------------------------------------------------------------------

std::uint64_t Invoker::mint_tag() {
  // (client epoch << 32) | seq: globally unique across clients (+1 keeps
  // client 0 out of the tag==0 "FT off" sentinel), monotone per client —
  // the executor dedup table keys replay detection on it.
  return (static_cast<std::uint64_t>(client_id_ + 1) << 32) | (++next_tag_seq_ & 0xFFFFFFFFu);
}

std::size_t Invoker::pick_worker() {
  // HalfOpen probe admission first: a breaker whose Open window expired
  // wants exactly one probe through, but healthy workers sit at the
  // front of the rotation, so it could stay Open forever (and the manager
  // would never see the repeat trips that trigger quarantine). Then the
  // first worker whose breaker is Closed (the front one while all are);
  // plain FIFO when every executor is quarantined — a gray attempt
  // bounded by the deadline beats refusing to try at all.
  std::size_t pick = 0;
  if (unclosed_breakers_ > 0) {
    const Time now = engine_.now();
    bool closed_seen = false;
    for (std::size_t i = 0; i < free_workers_.size(); ++i) {
      auto h = health_.find(workers_[free_workers_[i]].device);
      if (h == health_.end() || h->second.state() == HealthTracker::Breaker::Closed) {
        if (!closed_seen) pick = i;
        closed_seen = true;
      } else if (h->second.allow(now)) {
        pick = i;  // the probe
        break;
      }
    }
  }
  const std::size_t widx = free_workers_[pick];
  free_workers_.erase(pick);
  return widx;
}

std::size_t Invoker::pick_worker_avoiding(fabric::DeviceId device) {
  // Hedge-backup selection: the backup exists to cover a straggling
  // primary, so it must not land on the primary's (possibly gray)
  // executor when any other device has a free healthy worker.
  const Time now = engine_.now();
  for (std::size_t i = 0; i < free_workers_.size(); ++i) {
    const std::size_t widx = free_workers_[i];
    if (workers_[widx].device == device) continue;
    auto h = health_.find(workers_[widx].device);
    if (h == health_.end() || h->second.allow(now)) {
      free_workers_.erase(i);
      return widx;
    }
  }
  return pick_worker();
}

void Invoker::release_worker(std::size_t widx) {
  free_workers_.push_back(widx);
  slots_->release();
}

void Invoker::settle_worker(std::size_t widx, const InvocationResult& r) {
  if (r.timed_out) {
    ++timeouts_;
    sim::spawn(engine_, reap_worker(widx));
  } else if (workers_[widx].conn != nullptr && workers_[widx].conn->alive()) {
    release_worker(widx);
  }  // else a dead connection: permanently out of the rotation
}

sim::Task<void> Invoker::reap_worker(std::size_t widx) {
  // A timed-out attempt may still get its (late) completion; drain it
  // off-path before the worker rejoins the rotation, or the next
  // invocation on this worker would consume a stale immediate. The grace
  // must outlast the longest gray pause the chaos layer injects, so a
  // slow-but-alive worker comes back; a wedged or dead one never does.
  constexpr Duration kReapGrace = 50_ms;
  // The copy keeps the CQ alive through the wait: deallocate() may
  // retire the worker meanwhile, and its close() wakes this wait with a
  // flushed completion.
  const std::shared_ptr<rdmalib::Connection> conn = workers_[widx].conn;
  if (conn == nullptr || !conn->alive()) co_return;  // dead: stays out
  auto late = co_await conn->recv_cq().wait_polling(engine_.now() + kReapGrace);
  if (!late.has_value()) co_return;  // nothing came: wedged/stuck, keep out
  if (late->status != fabric::WcStatus::Success) co_return;  // flushed: dead
  if (!conn->alive()) co_return;
  release_worker(widx);
}

void Invoker::record_outcome(fabric::DeviceId device, bool ok, Duration latency) {
  auto [it, inserted] = health_.try_emplace(device, config_.fault_tolerance.breaker_open_timeout);
  HealthTracker& h = it->second;
  const unsigned trips_before = h.trips();
  const bool was_closed = h.state() == HealthTracker::Breaker::Closed;
  h.record(ok, latency, engine_.now());
  const bool is_closed = h.state() == HealthTracker::Breaker::Closed;
  if (was_closed && !is_closed) ++unclosed_breakers_;
  if (!was_closed && is_closed) --unclosed_breakers_;
  if (ok) {
    const double a = HealthTracker::kEwmaAlpha;
    latency_ewma_ = latency_ewma_ == 0
                        ? static_cast<double>(latency)
                        : (1.0 - a) * latency_ewma_ + a * static_cast<double>(latency);
  }
  if (h.trips() > trips_before) {
    ++breaker_trips_;
    // Tell the resource manager: the registry deprioritizes the gray
    // executor for everyone, and repeated trips quarantine it outright.
    if (lease_set_->connected()) {
      HealthReportMsg msg;
      msg.client_id = client_id_;
      msg.device = static_cast<std::uint32_t>(device);
      msg.latency_us = static_cast<std::uint32_t>(h.ewma_latency() / 1'000);
      msg.ok_count = h.ok_count();
      msg.fail_count = h.fail_count();
      sim::spawn(engine_, send_acked(lease_set_->session(), msg));
    }
  }
}

sim::Task<InvocationResult> Invoker::invoke_reliable(std::uint16_t fn_index, const Frame& frame) {
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
  InvocationResult result;
  const std::uint64_t tag = mint_tag();
  std::size_t widx = kNoWorker;  // owned worker carried across attempts

  for (std::uint32_t n = 0; n <= ft.retry_budget; ++n) {
    if (widx == kNoWorker) {
      co_await slots_->acquire();
      widx = pick_worker();
    }
    // Per-attempt deadline: the header carries it, so the executor-side
    // margin guard can prove a late execution would race this client's
    // retry and drop it — the deterministic no-double-execution pact.
    const Time deadline = engine_.now() + ft.invocation_deadline;

    if (n == 0 && ft.hedging) {
      result = co_await run_hedged(widx, fn_index, frame, tag, deadline);
      widx = kNoWorker;  // run_hedged's attempts released/reaped their workers
    } else {
      result = co_await attempt(widx, fn_index, frame, tag, deadline);
      record_outcome(workers_[widx].device, result.ok,
                     result.completed_at - result.submitted_at);
      if (result.ok) {
        release_worker(widx);
        widx = kNoWorker;
      } else if (result.corrupt && workers_[widx].conn != nullptr &&
                 workers_[widx].conn->alive()) {
        // Response mangled in flight: retry on the SAME worker, where
        // the executor's dedup table replays the stored clean output
        // instead of re-executing. Keep the worker owned.
        ++corruptions_detected_;
      } else {
        settle_worker(widx, result);
        widx = kNoWorker;
      }
    }

    if (result.ok) {
      result.attempts = n + 1;
      break;
    }
    if (n < ft.retry_budget) ++retries_;
    if (result.rejected) {
      ++rejections_;
      co_await sim::delay(2_us);
    }
  }
  if (widx != kNoWorker) release_worker(widx);
  co_return result;
}

sim::Task<InvocationResult> Invoker::run_hedged(std::size_t widx, std::uint16_t fn_index,
                                                const Frame& frame, std::uint64_t tag,
                                                Time deadline) {
  auto hs = std::make_shared<Hedge>(frame);
  hs->pending = 1;
  hs->in_flight.push_back(widx);
  sim::spawn(engine_, hedge_attempt(hs, widx, fn_index, frame, tag, deadline, std::nullopt));
  sim::spawn(engine_, hedge_backup(hs, fn_index, tag, deadline, workers_[widx].device));
  co_await hs->done.wait();
  // First response won; cancel every attempt still in flight on its
  // executor manager (fire-and-forget — a cancel that loses the race
  // costs one wasted execution absorbed by the dedup table, never a
  // wrong result).
  for (const std::size_t loser : hs->in_flight) {
    auto& stream = workers_[loser].mgr_stream;
    if (stream != nullptr && !stream->closed()) {
      InvocationCancelMsg msg;
      msg.client_id = client_id_;
      msg.invocation_tag = tag;
      stream->send(encode(msg));
    }
  }
  if (hs->result.hedge_won) ++hedge_wins_;
  co_return hs->result;
}

sim::Task<void> Invoker::hedge_attempt(std::shared_ptr<Hedge> hs, std::size_t widx,
                                       std::uint16_t fn_index, Frame frame, std::uint64_t tag,
                                       Time deadline, std::optional<std::size_t> backup_slot) {
  InvocationResult r = co_await attempt(widx, fn_index, frame, tag, deadline);
  record_outcome(workers_[widx].device, r.ok, r.completed_at - r.submitted_at);
  settle_worker(widx, r);
  if (backup_slot.has_value()) {
    // A winning backup's output sits in its staging slot: move it into
    // the caller's frame before the slot goes back to the pool.
    if (r.ok && !hs->resolved) {
      std::memcpy(hs->primary.out, frame.out,
                  std::min<std::size_t>(r.output_bytes, hs->primary.out_capacity));
    }
    free_slots_.push_back(*backup_slot);
    slot_sem_->release();
  }
  std::erase(hs->in_flight, widx);
  --hs->pending;
  if (!hs->resolved && (r.ok || hs->pending == 0)) {
    hs->resolved = true;
    hs->result = r;
    hs->result.hedge_won = backup_slot.has_value() && r.ok;
    hs->done.pulse();
  }
}

sim::Task<void> Invoker::hedge_backup(std::shared_ptr<Hedge> hs, std::uint16_t fn_index,
                                      std::uint64_t tag, Time deadline,
                                      fabric::DeviceId primary_device) {
  // Launch the backup only once the primary has outlived the expected
  // completion time (p99-ish: 4x the healthy latency EWMA) — hedges are
  // for stragglers, not a 2x tax on every invocation.
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  const Duration hedge_delay =
      ft.hedge_delay != 0
          ? ft.hedge_delay
          : (latency_ewma_ > 0 ? static_cast<Duration>(4 * latency_ewma_) : 200_us);
  co_await sim::delay(hedge_delay);
  if (hs->resolved) co_return;               // primary answered in time
  if (free_workers_.empty()) co_return;      // no spare worker: skip the hedge
  if (!slot_sem_->try_acquire()) co_return;  // no spare slot: skip the hedge
  // Stage the request into a spare pool slot — the primary frame's
  // memory belongs to the write already in flight.
  const std::size_t slot2 = free_slots_.front();
  InvocationSlot& spare = *slot_pool_[slot2];
  const std::size_t n = hs->primary.payload_bytes();
  if (n > spare.in.payload_bytes() || hs->primary.out_capacity > spare.out.payload_bytes()) {
    slot_sem_->release();  // the spare cannot hold this frame: skip the hedge
    co_return;
  }
  free_slots_.pop_front();
  std::memcpy(spare.in.data(), hs->primary.in + InvocationHeader::kSize, n);
  if (!slots_->try_acquire()) {  // workers vanished since the check
    free_slots_.push_back(slot2);
    slot_sem_->release();
    co_return;
  }
  const std::size_t widx2 = pick_worker_avoiding(primary_device);
  ++hedges_launched_;
  ++hs->pending;
  hs->in_flight.push_back(widx2);
  sim::spawn(engine_, hedge_attempt(hs, widx2, fn_index, frame_of(spare.in, n, spare.out), tag,
                                    deadline, slot2));
}

sim::Task<void> Invoker::deallocate() {
  for (auto& alloc : allocations_) {
    lease_set_->untrack(alloc.lease_id);
    if (alloc.mgr_stream == nullptr || alloc.mgr_stream->closed()) continue;
    DeallocateMsg msg;
    msg.sandbox_id = alloc.sandbox_id;
    msg.lease_id = alloc.lease_id;
    alloc.mgr_stream->send(encode(msg));
    (void)co_await alloc.mgr_stream->recv();  // DeallocateOk
    alloc.mgr_stream->close();
  }
  allocations_.clear();
  lease_specs_.clear();
  for (auto& w : workers_) {
    if (w.conn != nullptr) w.conn->close();
  }
  workers_.clear();
  free_workers_.clear();
  slots_ = std::make_unique<sim::Semaphore>(0);
  // Park the renewal actor; a later allocate(auto_renew) restarts it.
  lease_set_->stop();
}

}  // namespace rfs::rfaas
