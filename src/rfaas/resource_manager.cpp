#include "rfaas/resource_manager.hpp"

#include "common/id_window.hpp"
#include "common/log.hpp"
#include "rdmalib/connection.hpp"

namespace rfs::rfaas {

ResourceManager::ResourceManager(sim::Engine& engine, fabric::Fabric& fabric,
                                 net::TcpNetwork& tcp, sim::Host& host, fabric::Device& device,
                                 Config config)
    : engine_(engine),
      fabric_(fabric),
      tcp_(tcp),
      host_(host),
      device_(device),
      config_(std::move(config)),
      pd_(device.alloc_pd()),
      billing_(*pd_),
      core_(config_),
      admission_(config_.admission) {
  grant_gates_.reserve(core_.shard_count());
  for (std::uint32_t s = 0; s < core_.shard_count(); ++s) {
    grant_gates_.push_back(std::make_unique<sim::Mutex>());
  }
}

void ResourceManager::start() {
  alive_ = true;
  sim::spawn(engine_, run_server());
  sim::spawn(engine_, run_billing_accept());
  sim::spawn(engine_, heartbeat_loop());
  if (config_.rebalance_period > 0) sim::spawn(engine_, rebalance_loop());
}

void ResourceManager::stop() {
  alive_ = false;
  tcp_.listen(device_.id(), port_).shutdown();
  fabric_.stop_listening(device_, rdma_port_);
}

void ResourceManager::crash() {
  stop();
  // A dead process drops every socket at once: sever the established
  // control and notification streams so clients and executors observe
  // the failure now instead of at the next heartbeat.
  for (auto& weak : server_streams_) {
    if (auto stream = weak.lock(); stream != nullptr && !stream->closed()) stream->close();
  }
  server_streams_.clear();
  log::warn("rm", "manager crashed (epoch ", manager_epoch_, ")");
}

void ResourceManager::isolate() {
  // Zombie primary: unreachable for new connections, still convinced it
  // owns the fleet on its established streams. Its late grants and
  // replies must be fenced by session/registration epochs downstream.
  tcp_.listen(device_.id(), port_).shutdown();
  fabric_.stop_listening(device_, rdma_port_);
  log::warn("rm", "manager isolated (zombie, epoch ", manager_epoch_, ")");
}

Status ResourceManager::adopt(const ShardedResourceManager::ManagerState& state,
                              std::uint32_t epoch) {
  if (alive_) return Error::make(61, "rm: adopt() must run before start()");
  if (auto restored = core_.restore_state(state, engine_.now()); !restored.ok()) return restored;
  manager_epoch_ = epoch;
  restored_ = true;
  promoted_at_ = engine_.now();
  // Rebuild the per-device registration fence from the restored executor
  // table: the old primary's sessions carry older epochs and stay fenced;
  // surviving executors re-register with a bumped epoch and re-attach.
  for (std::uint32_t s = 0; s < state.shards.size(); ++s) {
    const auto& shard = state.shards[s];
    for (std::size_t i = 0; i < shard.executors.size(); ++i) {
      const auto& ex = shard.executors[i];
      if (!ex.alive || ex.info.epoch == 0) continue;
      executor_epochs_[ex.info.device] =
          RegistrationEpoch{ex.info.epoch, ShardedResourceManager::make_id(s, i)};
    }
  }
  log::info("rm", "promoted standby state: epoch ", epoch, ", ", core_.active_leases(),
            " leases, ", core_.alive_count(), " executors");
  return Status::success();
}

Status ResourceManager::attach_standby(std::shared_ptr<StandbyReplica> standby) {
  auto* journal = core_.journal();
  if (journal == nullptr) {
    return Error::make(60, "rm: standby needs Config::journal_enabled");
  }
  // The one snapshot a standby gets: everything journaled so far.
  SnapshotOfferMsg offer;
  offer.manager_epoch = manager_epoch_;
  offer.upto_seq = journal->last_seq();
  const auto state = core_.export_state();
  offer.digest = state.digest();
  for (const auto& shard : state.shards) offer.lease_count += shard.leases.size();
  if (auto installed = standby->install_snapshot(state, offer, engine_.now());
      !installed.ok()) {
    return installed;
  }
  // Live replication: every appended record crosses the wire encoding on
  // its way into the replica, so the stream the tests exercise is the
  // byte-exact stream a remote standby would consume.
  journal->add_sink([this, standby = std::move(standby)](const JournalRecordMsg& record) {
    if (auto applied = standby->apply_wire(encode(record)); !applied.ok()) {
      ++replication_errors_;
      log::warn("rm", "standby diverged at seq ", record.seq, ": ", applied.error().message);
    }
  });
  return Status::success();
}

sim::Task<void> ResourceManager::run_server() {
  auto& listener = tcp_.listen(device_.id(), port_);
  while (alive_) {
    auto stream = co_await listener.accept();
    if (stream == nullptr) break;
    sim::spawn(engine_, handle_stream(std::move(stream)));
  }
}

sim::Task<void> ResourceManager::run_billing_accept() {
  auto& listener = fabric_.listen(device_, rdma_port_);
  while (alive_) {
    auto req = co_await listener.accept();
    if (req == nullptr) break;
    // Billing updates are one-sided atomics: the manager only needs to
    // keep the connection open; no polling is required.
    billing_conns_.push_back(rdmalib::Connection::accept(*req, device_, pd_));
  }
}

sim::Task<void> ResourceManager::handle_stream(std::shared_ptr<net::TcpStream> stream) {
  server_streams_.push_back(stream);  // crash() severs these
  // Per-stream duplicate-request table: request id -> the exact reply
  // bytes already sent. A retransmission (same nonzero id) replays the
  // cached reply instead of re-running the decision — the idempotence
  // that keeps a duplicated LeaseRequest from granting twice. A
  // stream's ids come from one session and grow by one per call, so the
  // window holds the last 128 calls' replies, each slot reusing its
  // reply's capacity. That is safe because each session keeps at most
  // one call outstanding, so a wandering duplicate can never lag the
  // window by 128 exchanges. Lives on the coroutine frame: messages of
  // one stream are processed strictly in order, and the table dies with
  // the connection.
  IdWindow<Bytes, 128> dedup;
  // Dedup entry point of every lease-critical request; true when the
  // request is answered here. Id 0 is no session's id (sessions count
  // from (epoch << 32) | 1): it is refused with one LeaseError and never
  // executed.
  auto replay_duplicate = [&](std::uint64_t id) -> bool {
    if (id == 0) {
      stream->send(encode_lease_error("request id 0: lease requests need a session id"));
      return true;
    }
    const Bytes* cached = dedup.find(id);
    if (cached == nullptr) return false;
    ++dedup_hits_;
    stream->send(Bytes(*cached));
    return true;
  };
  auto reply_cached = [&](std::uint64_t id, Bytes reply) {
    dedup.insert(id).assign(reply.begin(), reply.end());
    stream->send(std::move(reply));
  };
  // Early shed of a lease request or batch; true when admission refused
  // it here with LeaseDenied{retry_after}. The verdict costs one mutex and
  // a few arithmetic updates — no shard gate, no placement scan, no
  // quota-eviction pass. Under overload this is the only work a shed
  // request ever causes the manager, which is what keeps goodput at
  // capacity instead of collapsing with offered load. A batch takes one
  // token per round trip: its shard scan is paid once per batch, so that
  // is the unit of work the capacity bucket paces.
  auto shed = [&](std::uint32_t client_id, std::uint64_t id) -> bool {
    if (!admission_.enabled()) return false;
    const auto verdict = admission_.admit(client_id, engine_.now());
    if (verdict.admitted) return false;
    LeaseDeniedMsg denied;
    denied.reason = static_cast<std::uint8_t>(DenialReason::Overload);
    denied.retry_after = verdict.retry_after;
    denied.request_id = id;
    reply_cached(id, encode(denied));
    return true;
  };
  while (alive_) {
    auto raw = co_await stream->recv();
    if (!raw.has_value()) {
      // A crashed manager executes nothing: its own death severed these
      // streams, and reading that as "every executor died" would journal
      // a fleet-wide MarkDead to the standby it is about to fail over
      // to. Only a live (or zombie) manager reclaims on disconnect.
      if (!alive_) break;
      // Stream closed. A registered executor disconnecting means it died
      // (or was stopped); reclaim immediately — faster than waiting for
      // missed heartbeats. The id is resolved through executor_ids_, not
      // a value captured at registration: rebalance migrations re-tag it.
      if (auto it = executor_ids_.find(stream.get()); it != executor_ids_.end()) {
        mark_executor_dead(it->second);
        executor_ids_.erase(it);
      }
      // A vanished subscriber stops receiving termination pushes.
      for (auto it = subscribers_.begin(); it != subscribers_.end();) {
        it = it->second == stream ? subscribers_.erase(it) : std::next(it);
      }
      push_seqs_.erase(stream.get());
      std::erase_if(server_streams_, [](const auto& weak) { return weak.expired(); });
      break;
    }
    auto type = peek_type(*raw);
    if (!type) continue;
    switch (type.value()) {
      case MsgType::RegisterExecutor: {
        auto msg = decode_register(*raw);
        if (!msg) break;
        if (replay_duplicate(msg.value().request_id)) break;
        // Executors register with epoch >= 1; like request id 0, epoch 0
        // is refused with one LeaseError and registers nothing.
        if (msg.value().epoch == 0) {
          stream->send(encode_lease_error("registration epoch 0: executors register from epoch 1",
                                          msg.value().request_id));
          break;
        }
        // Epoch fencing: only the newest registration session may own a
        // device. An older epoch is a retransmission from a session the
        // executor already abandoned; admitting it would double-count the
        // device's capacity. A newer epoch supersedes — the stale
        // registration is marked dead first, reclaiming its leases.
        if (auto it = executor_epochs_.find(msg.value().device); it != executor_epochs_.end()) {
          if (msg.value().epoch <= it->second.epoch) {
            ++fenced_registrations_;
            reply_cached(msg.value().request_id,
                         encode_lease_error("stale registration epoch", msg.value().request_id));
            break;
          }
          // Failover re-attachment: on a promoted manager the device's
          // registration (and its leases) survived in the restored
          // state — the executor process itself never died, only its
          // session to the old primary. Re-point the registration at
          // the new stream in place instead of reclaiming its leases.
          if (restored_ && core_.reattach_executor(it->second.executor_id, stream,
                                                   msg.value().epoch, engine_.now())) {
            executor_ids_[stream.get()] = it->second.executor_id;
            it->second.epoch = msg.value().epoch;
            ++reattached_executors_;
            reply_cached(msg.value().request_id, make_register_ok(msg.value().request_id));
            log::info("rm", "re-attached executor on device ", msg.value().device,
                      " after failover (epoch ", msg.value().epoch, ")");
            break;
          }
          mark_executor_dead(it->second.executor_id);
        }
        ExecutorEntry entry;
        entry.info = msg.value();
        entry.total_workers = static_cast<std::uint32_t>(
            msg.value().cores * std::max(1.0, config_.lease_oversubscription));
        entry.free_workers = entry.total_workers;
        entry.free_memory = msg.value().memory_bytes;
        entry.alive = true;
        entry.last_ack = engine_.now();
        entry.locality = fabric_.locality(msg.value().device);
        entry.stream = stream;
        const std::uint64_t executor_id = core_.add_executor(std::move(entry));
        executor_ids_[stream.get()] = executor_id;
        // A fresh registration is a fresh process: its gray-failure
        // history (breaker-trip count) does not carry over.
        health_trip_counts_.erase(msg.value().device);
        executor_epochs_[msg.value().device] = RegistrationEpoch{msg.value().epoch, executor_id};
        reply_cached(msg.value().request_id, make_register_ok(msg.value().request_id));
        log::info("rm", "registered executor on device ", msg.value().device, " with ",
                  msg.value().cores, " cores on shard ",
                  ShardedResourceManager::id_shard(executor_id));
        break;
      }
      case MsgType::LeaseRequest: {
        auto msg = decode_lease_request(*raw);
        if (!msg) {
          stream->send(encode_lease_error(msg.error().message));
          break;
        }
        if (replay_duplicate(msg.value().request_id)) break;
        if (shed(msg.value().client_id, msg.value().request_id)) break;
        // Route first (lock-free, locality-aware under LocalityFirst),
        // then queue on the routed shard's gate: a single-shard
        // manager decides strictly one lease at a time, an N-shard
        // manager N at a time. The decision delay is paid inside the
        // critical section — that is the whole point. A stolen placement
        // ran a second scan over other shards, so it bills a second
        // decision delay (conservative: the victim shard's own gate
        // queue is not consumed).
        const std::uint32_t locality = fabric_.locality(stream->remote_device());
        const std::uint32_t shard = core_.preferred_shard_for(locality);
        auto& gate = *grant_gates_[shard];
        co_await gate.lock();
        co_await sim::delay(config_.lease_processing);
        bool stolen = false;
        Bytes reply = grant_lease(msg.value(), locality, shard, stolen);
        if (config_.tenant_quota_workers > 0 && core_.size() > 0 &&
            msg.value().workers > 0) {
          // Quota pressure: a fleet-wide denial evicts leases of tenants
          // holding more than their worker quota (fast reclamation, the
          // capacity comes back instantly) and retries the placement once
          // — billing a second decision scan.
          auto type = peek_type(reply);
          if (type.ok() && type.value() == MsgType::LeaseError) {
            auto evicted = core_.reclaim_quota(
                msg.value().client_id, config_.tenant_quota_workers, msg.value().workers);
            if (!evicted.empty()) {
              notify_evictions(evicted, TerminationReason::QuotaPressure);
              co_await sim::delay(config_.lease_processing);
              reply = grant_lease(msg.value(), locality, shard, stolen);
            }
          }
        }
        if (stolen) co_await sim::delay(config_.lease_processing);
        gate.unlock();
        reply_cached(msg.value().request_id, std::move(reply));
        break;
      }
      case MsgType::ExtendLease: {
        auto msg = decode_extend_lease(*raw);
        if (!msg) break;
        if (replay_duplicate(msg.value().request_id)) break;
        const std::uint32_t shard = ShardedResourceManager::id_shard(msg.value().lease_id);
        if (shard >= core_.shard_count()) {
          reply_cached(msg.value().request_id,
                       encode_lease_error("unknown lease", msg.value().request_id));
          break;
        }
        auto& gate = *grant_gates_[shard];
        co_await gate.lock();
        co_await sim::delay(config_.lease_processing);
        const Time expires_at = engine_.now() + msg.value().extension;
        const auto renewed = core_.renew(msg.value().lease_id, expires_at);
        gate.unlock();
        if (renewed) {
          ExtendOkMsg ok;
          ok.lease_id = msg.value().lease_id;
          ok.expires_at = expires_at;
          ok.request_id = msg.value().request_id;
          reply_cached(msg.value().request_id, encode(ok));
          // Push the new deadline to the hosting executor so the sandbox
          // does not self-destruct at the original expiry. Renewal thus
          // stays a single client<->manager round trip.
          if (renewed->executor_stream != nullptr && !renewed->executor_stream->closed()) {
            LeaseRenewedMsg push;
            push.lease_id = msg.value().lease_id;
            push.expires_at = expires_at;
            renewed->executor_stream->send(encode(push));
          }
        } else {
          reply_cached(msg.value().request_id,
                       encode_lease_error("unknown lease", msg.value().request_id));
        }
        break;
      }
      case MsgType::BatchAllocate: {
        auto msg = decode_batch_allocate(*raw);
        if (!msg) {
          stream->send(encode_lease_error(msg.error().message));
          break;
        }
        if (replay_duplicate(msg.value().request_id)) break;
        if (shed(msg.value().client_id, msg.value().request_id)) break;
        // One round trip, one gate session: the routed shard's scan is
        // paid once for the whole batch (a scan is O(registry) however
        // many leases it yields) plus one extra decision delay per
        // additional shard the batch spilled onto — that amortization is
        // exactly what the batched API buys over N serial LeaseRequests.
        const std::uint32_t locality = fabric_.locality(stream->remote_device());
        const std::uint32_t shard = core_.preferred_shard_for(locality);
        auto& gate = *grant_gates_[shard];
        co_await gate.lock();
        co_await sim::delay(config_.lease_processing);
        std::uint32_t extra_shards = 0;
        Bytes reply = grant_batch(msg.value(), locality, shard, extra_shards);
        if (extra_shards > 0) co_await sim::delay(extra_shards * config_.lease_processing);
        gate.unlock();
        reply_cached(msg.value().request_id, std::move(reply));
        break;
      }
      case MsgType::ReleaseResources: {
        auto msg = decode_release(*raw);
        if (!msg) break;
        if (replay_duplicate(msg.value().request_id)) break;
        core_.release(msg.value().lease_id);
        // The ack stops the releaser's retransmissions.
        ReleaseOkMsg ok;
        ok.lease_id = msg.value().lease_id;
        ok.request_id = msg.value().request_id;
        reply_cached(msg.value().request_id, encode(ok));
        break;
      }
      case MsgType::HeartbeatAck: {
        if (auto it = executor_ids_.find(stream.get()); it != executor_ids_.end()) {
          core_.touch(it->second, engine_.now());
        }
        break;
      }
      case MsgType::SubscribeEvents: {
        auto msg = decode_subscribe_events(*raw);
        if (!msg) break;
        // Latest subscription wins; the stream carries only pushes from
        // here on, so the client's request stream stays request-response.
        subscribers_[msg.value().client_id] = stream;
        // A promoted manager announces the failover on every new
        // notification stream: the reconnecting client learns the new
        // manager epoch and re-validates its held leases against the
        // restored table before trusting them further.
        if (restored_) {
          FailoverAnnounceMsg announce;
          announce.manager_epoch = manager_epoch_;
          announce.applied_seq = core_.journal() != nullptr ? core_.journal()->last_seq() : 0;
          announce.promoted_at = promoted_at_;
          stream->send(encode(announce));
        }
        break;
      }
      case MsgType::LeaseRevalidate: {
        // Failover lease re-validation: does the (possibly promoted)
        // manager still carry this lease for this client? Read-only —
        // ExtendOk echoes the current deadline, LeaseError tells the
        // client to drop the lease and heal through re-allocation.
        auto msg = decode_lease_revalidate(*raw);
        if (!msg) break;
        if (replay_duplicate(msg.value().request_id)) break;
        ++revalidations_;
        const auto info = core_.lease_info(msg.value().lease_id);
        if (info.has_value() && info->client_id == msg.value().client_id) {
          ExtendOkMsg ok;
          ok.lease_id = msg.value().lease_id;
          ok.expires_at = info->expires_at;
          ok.request_id = msg.value().request_id;
          reply_cached(msg.value().request_id, encode(ok));
        } else {
          reply_cached(msg.value().request_id,
                       encode_lease_error("unknown lease", msg.value().request_id));
        }
        break;
      }
      case MsgType::HealthReport: {
        // A client's circuit breaker tripped against an executor: the
        // data plane saw a gray failure (timeouts, corruption, EWMA
        // failure rate over threshold) that the control plane's
        // heartbeats cannot — the host still acks. First trips merely
        // degrade the executor so every scheduling policy deprioritizes
        // it; kQuarantineTrips distinct trips drain it outright
        // (evicting its leases, whose owners self-heal elsewhere). A
        // report against a registration already draining changes
        // nothing, so each registration is quarantined once.
        auto msg = decode_health_report(*raw);
        if (!msg) break;
        if (replay_duplicate(msg.value().request_id)) break;
        ++health_reports_;
        const std::uint32_t trips = ++health_trip_counts_[msg.value().device];
        auto executor = core_.find_executor_by_device(msg.value().device);
        if (executor && !core_.draining(*executor)) {
          if (trips >= kQuarantineTrips) {
            if (drain_executor_on_device(msg.value().device).has_value()) {
              ++quarantined_executors_;
              log::info("rm", "quarantined executor on device ", msg.value().device,
                        " after ", trips, " breaker trips (client ", msg.value().client_id,
                        ", ewma latency ", msg.value().latency_us, " us, ",
                        msg.value().fail_count, "/",
                        msg.value().ok_count + msg.value().fail_count, " failed)");
            }
          } else {
            core_.set_degraded(*executor, true);
            log::info("rm", "degraded executor on device ", msg.value().device,
                      " (trip ", trips, "/", kQuarantineTrips,
                      " from client ", msg.value().client_id, ")");
          }
        }
        HealthReportOkMsg ok;
        ok.request_id = msg.value().request_id;
        reply_cached(msg.value().request_id, encode(ok));
        break;
      }
      default:
        break;
    }
  }
}

namespace {

/// The wire form of a committed grant, request id left to the caller.
LeaseGrantMsg grant_msg(const ShardedResourceManager::Grant& g) {
  LeaseGrantMsg msg;
  msg.lease_id = g.lease_id;
  msg.device = g.executor_info.device;
  msg.alloc_port = g.executor_info.alloc_port;
  msg.rdma_port = g.executor_info.rdma_port;
  msg.workers = g.workers;
  msg.expires_at = g.expires_at;
  return msg;
}

}  // namespace

Bytes ResourceManager::grant_lease(const LeaseRequestMsg& req, std::uint32_t client_locality,
                                   std::uint32_t shard, bool& stolen) {
  if (core_.size() == 0) return encode_lease_error("no executors registered", req.request_id);
  if (req.workers == 0) return encode_lease_error("zero workers requested", req.request_id);

  ScheduleRequest request;
  request.workers = req.workers;
  request.memory_per_worker = req.memory_bytes;
  request.client_locality = client_locality;

  auto grant = core_.grant(request, req.client_id, req.timeout, engine_.now(), shard);
  if (!grant) return encode_lease_error("no executor with free capacity", req.request_id);
  stolen = grant->stolen;
  LeaseGrantMsg msg = grant_msg(*grant);
  msg.request_id = req.request_id;
  return encode(msg);
}

Bytes ResourceManager::grant_batch(const BatchAllocateMsg& req, std::uint32_t client_locality,
                                   std::uint32_t shard, std::uint32_t& extra_shards) {
  extra_shards = 0;
  BatchGrantedMsg reply;
  reply.request_id = req.request_id;
  if (core_.size() == 0) {
    reply.error = "no executors registered";
    return encode(reply);
  }
  if (req.workers == 0) {
    reply.error = "zero workers requested";
    return encode(reply);
  }

  ScheduleRequest request;
  request.workers = req.workers;
  request.memory_per_worker = req.memory_bytes;
  request.client_locality = client_locality;

  const bool all_or_nothing = req.mode == static_cast<std::uint8_t>(BatchMode::AllOrNothing);
  auto outcome =
      core_.grant_batch(request, req.client_id, req.timeout, engine_.now(), all_or_nothing, shard);
  extra_shards = outcome.shards_touched > 0 ? outcome.shards_touched - 1 : 0;

  reply.complete = outcome.complete;
  for (const auto& g : outcome.grants) reply.grants.push_back(grant_msg(g));
  if (reply.grants.empty()) {
    reply.error = all_or_nothing && !outcome.complete
                      ? "all-or-nothing batch unsatisfiable"
                      : "no executor with free capacity";
  }
  return encode(reply);
}

Bytes ResourceManager::make_register_ok(std::uint64_t request_id) {
  RegisterOkMsg ok;
  ok.rm_rdma_port = rdma_port_;
  auto slot0 = billing_.tenant_slot(0);
  ok.billing_addr = slot0.addr;
  ok.billing_rkey = slot0.rkey;
  ok.request_id = request_id;
  return encode(ok);
}

void ResourceManager::mark_executor_dead(std::uint64_t executor_id) {
  if (auto info = core_.mark_dead(executor_id)) {
    log::warn("rm", "executor on device ", info->device, " is dead, reclaiming leases");
  }
}

void ResourceManager::notify_evictions(
    const std::vector<ShardedResourceManager::Eviction>& evictions,
    TerminationReason reason) {
  if (evictions.empty()) return;
  const Time now = engine_.now();
  evictions_notified_ += evictions.size();

  // Coalesce per destination stream: an eviction storm that clears N
  // leases off one executor (or one tenant) sends one batched message,
  // not N. First-appearance order keeps the send sequence deterministic.
  struct Dest {
    std::shared_ptr<net::TcpStream> stream;
    std::vector<std::uint64_t> lease_ids;
  };
  std::vector<Dest> dests;
  auto add = [&dests](const std::shared_ptr<net::TcpStream>& stream, std::uint64_t lease_id) {
    if (stream == nullptr || stream->closed()) return;
    for (auto& d : dests) {
      if (d.stream == stream) {
        d.lease_ids.push_back(lease_id);
        return;
      }
    }
    dests.push_back(Dest{stream, {lease_id}});
  };
  for (const auto& ev : evictions) {
    // Executor side: tear the sandbox down and release its workers.
    add(ev.executor_stream, ev.lease_id);
    // Client side: the push lands on the tenant's notification stream
    // (if subscribed); an unsubscribed client only learns through its
    // next refused renewal or a dead worker connection.
    auto it = subscribers_.find(ev.client_id);
    if (it != subscribers_.end()) add(it->second, ev.lease_id);
  }

  for (auto& dest : dests) {
    ++notification_messages_;
    // Per-stream push sequence: a duplicated delivery carries the same
    // seq and is filtered by the receiving session before it can tear a
    // sandbox down (or run a client's recovery) twice.
    const std::uint64_t seq = ++push_seqs_[dest.stream.get()];
    if (dest.lease_ids.size() == 1) {
      LeaseTerminatedMsg msg;
      msg.lease_id = dest.lease_ids.front();
      msg.reason = static_cast<std::uint8_t>(reason);
      msg.evicted_at = now;
      msg.seq = seq;
      dest.stream->send(encode(msg));
    } else {
      LeasesTerminatedMsg msg;
      msg.reason = static_cast<std::uint8_t>(reason);
      msg.evicted_at = now;
      msg.lease_ids = std::move(dest.lease_ids);
      msg.seq = seq;
      dest.stream->send(encode(msg));
    }
  }
}

std::size_t ResourceManager::evict_leases(const std::vector<std::uint64_t>& lease_ids,
                                          TerminationReason reason) {
  std::vector<ShardedResourceManager::Eviction> evicted;
  evicted.reserve(lease_ids.size());
  for (const auto id : lease_ids) {
    if (auto ev = core_.evict(id)) evicted.push_back(std::move(*ev));
  }
  notify_evictions(evicted, reason);
  return evicted.size();
}

std::optional<std::size_t> ResourceManager::drain_executor_on_device(std::uint32_t device) {
  auto executor = core_.find_executor_by_device(device);
  if (!executor) return std::nullopt;
  auto evicted = core_.drain_executor(*executor);
  notify_evictions(evicted, TerminationReason::Drain);
  log::info("rm", "draining executor on device ", device, ", evicted ", evicted.size(),
            " leases");
  return evicted.size();
}

ShardedResourceManager::RebalanceReport ResourceManager::rebalance_now() {
  auto report = core_.rebalance(config_.rebalance_max_skew, kRebalanceMaxMoves, engine_.now());
  // Migrated executors keep their streams but change ids: re-point the
  // per-stream id table so heartbeat acks and disconnects keep landing
  // on the live registration.
  for (const auto& mig : report.migrations) {
    if (mig.stream != nullptr) executor_ids_[mig.stream.get()] = mig.new_id;
  }
  notify_evictions(report.evictions, TerminationReason::Rebalance);
  if (!report.migrations.empty()) {
    log::info("rm", "rebalance moved ", report.migrations.size(), " executors, skew ",
              report.skew_before, " -> ", report.skew_after);
  }
  // Re-baseline the storm detector here, not just in the periodic loop:
  // a manual rebalance's own evictions must not read as a storm and
  // suppress the next periodic sweep.
  rebalance_last_evictions_ = core_.evictions();
  return report;
}

sim::Task<void> ResourceManager::rebalance_loop() {
  rebalance_last_evictions_ = core_.evictions();
  while (alive_) {
    co_await sim::delay(config_.rebalance_period);
    if (!alive_) break;
    // Storm-aware backoff: leases were evicted since the last round
    // (quota pressure, drains — an eviction storm reshaping load), so the
    // skew the sweep would chase is still moving, and migrating mid-storm
    // would evict yet more leases. Sit this round out; once the counter
    // stops rising the sweep resumes.
    const std::uint64_t evictions = core_.evictions();
    if (evictions > rebalance_last_evictions_) {
      rebalance_last_evictions_ = evictions;
      ++rebalance_skips_;
      continue;
    }
    (void)rebalance_now();  // re-baselines the eviction counter itself
  }
}

sim::Task<void> ResourceManager::heartbeat_loop() {
  // "Managers use heartbeats to verify the status of spot executors"
  // (Sec. III-A). The same loop sweeps expired leases back into the free
  // pool — one periodic per-shard pass instead of one timer coroutine per
  // lease. Candidates are collected under the shard locks, then acted on
  // outside them (mark_dead re-takes its shard's lock).
  while (alive_) {
    co_await sim::delay(config_.heartbeat_period);
    if (!alive_) break;
    const Time now = engine_.now();
    core_.sweep_expired(now);

    struct Action {
      std::uint64_t id;
      std::shared_ptr<net::TcpStream> stream;  // null => missed heartbeats
    };
    std::vector<Action> actions;
    core_.visit_executors([&](std::uint64_t id, const ExecutorEntry& e) {
      if (!e.alive) return;
      if (now - e.last_ack > 5 * config_.heartbeat_period / 2) {
        actions.push_back({id, nullptr});
      } else if (e.stream != nullptr && !e.stream->closed()) {
        actions.push_back({id, e.stream});
      }
    });
    for (auto& action : actions) {
      if (action.stream == nullptr) {
        mark_executor_dead(action.id);
      } else {
        action.stream->send(encode(MsgType::Heartbeat));
      }
    }
  }
}

}  // namespace rfs::rfaas
