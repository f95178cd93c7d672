#include "rfaas/sharded_manager.hpp"

#include <algorithm>

namespace rfs::rfaas {

ShardedResourceManager::ShardedResourceManager(const Config& config)
    : locality_sharding_(config.scheduling == SchedulingPolicy::LocalityFirst),
      rng_counter_(config.scheduler_seed) {
  const std::uint32_t n = std::max(1u, config.manager_shards);
  shards_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>();
    // Decorrelate the randomized policies across shards while keeping the
    // whole manager reproducible; shard 0 keeps the configured seed so a
    // single-shard manager is stream-identical to the unsharded one.
    Config shard_config = config;
    shard_config.scheduler_seed = config.scheduler_seed + s;
    shard->scheduler = make_scheduler(shard_config);
    shards_.push_back(std::move(shard));
  }
}

ShardedResourceManager::~ShardedResourceManager() = default;

namespace {

/// The AddExecutor record of a registration (executor id left to the
/// caller) and its inverse, the entry a standby registers from it.
JournalRecordMsg registration_record(const ExecutorEntry& e) {
  JournalRecordMsg rec;
  rec.op = static_cast<std::uint8_t>(journal::Op::AddExecutor);
  rec.lease_id = e.info.memory_bytes;
  rec.client_id = e.locality;
  rec.workers = e.total_workers;
  rec.memory = e.free_memory;
  rec.time = e.last_ack;
  rec.aux = journal::pack_endpoint(e.info.device, e.info.alloc_port, e.info.rdma_port);
  rec.aux2 = (e.info.epoch << 32) | e.info.cores;
  return rec;
}

ExecutorEntry registration_entry(const JournalRecordMsg& r) {
  ExecutorEntry e;
  e.info.device = static_cast<std::uint32_t>(r.aux >> 32);
  e.info.alloc_port = static_cast<std::uint16_t>((r.aux >> 16) & 0xffff);
  e.info.rdma_port = static_cast<std::uint16_t>(r.aux & 0xffff);
  e.info.cores = static_cast<std::uint32_t>(r.aux2 & 0xffffffffull);
  e.info.epoch = r.aux2 >> 32;
  e.info.memory_bytes = r.lease_id;
  e.total_workers = r.workers;
  e.free_workers = r.workers;
  e.free_memory = r.memory;
  e.locality = r.client_id;
  e.last_ack = r.time;
  return e;
}

}  // namespace

std::uint64_t ShardedResourceManager::add_executor(ExecutorEntry entry) {
  // LocalityFirst gives every rack a home shard so rack-local routing is
  // a modulo, not a search; all other policies balance round-robin.
  const std::uint32_t s = locality_sharding_
      ? entry.locality % static_cast<std::uint32_t>(shards_.size())
      : static_cast<std::uint32_t>(next_shard_.fetch_add(1, std::memory_order_relaxed) %
                                   shards_.size());
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  JournalRecordMsg rec = registration_record(entry);
  rec.executor = make_id(s, add_step(shard, std::move(entry)));
  journal_append(rec);
  return rec.executor;
}

std::uint64_t ShardedResourceManager::next_random() {
  // splitmix64: the atomic counter is the state, the mix is pure, so the
  // stream is deterministic single-threaded and race-free multi-threaded.
  return splitmix64(rng_counter_.fetch_add(kSplitmix64Gamma, std::memory_order_relaxed) +
                    kSplitmix64Gamma);
}

std::uint32_t ShardedResourceManager::preferred_shard() {
  const std::uint32_t n = shard_count();
  if (n == 1) return 0;
  const std::uint64_t r = next_random();
  const std::uint32_t a = static_cast<std::uint32_t>(r % n);
  const std::uint32_t b =
      static_cast<std::uint32_t>((a + 1 + (r >> 32) % (n - 1)) % n);
  const auto free_a = shards_[a]->registry.free_workers_total();
  const auto free_b = shards_[b]->registry.free_workers_total();
  return free_a >= free_b ? a : b;
}

std::uint32_t ShardedResourceManager::preferred_shard_for(std::uint32_t client_locality) {
  if (!locality_sharding_ || shard_count() == 1) return preferred_shard();
  const std::uint32_t home = client_locality % shard_count();
  if (shards_[home]->registry.free_workers_total() > 0) return home;
  return preferred_shard();
}

// --------------------------------------------------------------------------
// Lease-table indexes
// --------------------------------------------------------------------------

void ShardedResourceManager::push_expiry(Shard& shard, Time at, std::uint64_t lease_id) {
  shard.expiry.push_back({at, lease_id});
  std::push_heap(shard.expiry.begin(), shard.expiry.end(), ExpiryLater{});
}

void ShardedResourceManager::index_lease(Shard& shard, std::uint64_t lease_id,
                                         const LeaseRecord& record) {
  shard.leases.emplace(lease_id, record);
  if (shard.hosted.size() <= record.executor) shard.hosted.resize(shard.registry.size());
  shard.hosted[record.executor].insert(lease_id);
  auto& tenant = shard.tenants[record.client_id];
  tenant.held_workers += record.workers;
  ++tenant.live;
  tenant.leases.push_back(lease_id);
  push_expiry(shard, record.expires_at, lease_id);
  shard.lease_count.store(shard.leases.size(), std::memory_order_relaxed);
}

ShardedResourceManager::LeaseTable::iterator ShardedResourceManager::unindex_lease(
    Shard& shard, LeaseTable::iterator it) {
  const LeaseRecord record = it->second;
  if (record.executor < shard.hosted.size()) shard.hosted[record.executor].erase(it->first);
  auto next = shard.leases.erase(it);
  shard.lease_count.store(shard.leases.size(), std::memory_order_relaxed);
  auto tenant = shard.tenants.find(record.client_id);
  if (tenant != shard.tenants.end()) {
    TenantIndex& index = tenant->second;
    index.held_workers -= std::min<std::uint64_t>(index.held_workers, record.workers);
    if (--index.live == 0) {
      shard.tenants.erase(tenant);
    } else if (index.leases.size() > 2 * index.live) {
      // A compaction scans fewer ids than twice the releases since the
      // last one: O(1) per release, amortized.
      std::erase_if(index.leases, [&](std::uint64_t id) { return !shard.leases.contains(id); });
    }
  }
  return next;
}

// --------------------------------------------------------------------------
// Grants
// --------------------------------------------------------------------------

std::optional<ShardedResourceManager::Grant> ShardedResourceManager::grant_on(
    std::uint32_t shard_index, const ScheduleRequest& request, std::uint32_t client_id,
    Duration timeout, Time now) {
  auto& shard = *shards_[shard_index];
  std::lock_guard<std::shared_mutex> lock(shard.mu);

  // Same place-and-commit cycle as the single manager: the policy
  // proposes, try_claim revalidates (the executor may have died between
  // scan and grant), refused executors are excluded and the policy asked
  // again until it gives up.
  std::vector<bool> excluded(shard.registry.size(), false);
  while (auto placement = shard.scheduler->place(shard.registry, request, excluded)) {
    const ExecutorEntry& host = shard.registry.at(placement->executor);
    JournalRecordMsg rec;
    rec.op = static_cast<std::uint8_t>(journal::Op::Grant);
    rec.lease_id = make_id(shard_index, shard.next_lease);
    rec.client_id = client_id;
    rec.executor = make_id(shard_index, placement->executor);
    rec.workers = placement->workers;
    rec.memory = placement->memory;
    rec.time = now + timeout;
    if (host.locality == request.client_locality) rec.aux |= journal::kAuxLocalGrant;
    if (!grant_step(shard, rec)) {
      excluded[placement->executor] = true;
      continue;
    }
    journal_append(rec);

    Grant grant;
    grant.lease_id = rec.lease_id;
    grant.executor = rec.executor;
    grant.shard = shard_index;
    grant.workers = rec.workers;
    grant.memory = rec.memory;
    grant.expires_at = rec.time;
    grant.executor_locality = host.locality;
    grant.executor_info = host.info;
    return grant;
  }
  return std::nullopt;
}

std::optional<ShardedResourceManager::Grant> ShardedResourceManager::grant(
    const ScheduleRequest& request, std::uint32_t client_id, Duration timeout, Time now,
    std::optional<std::uint32_t> routed) {
  // Not value_or(): that would evaluate preferred_shard() — and consume a
  // routing-RNG draw — even when the caller already routed.
  const std::uint32_t first = routed ? *routed : preferred_shard();
  if (auto g = grant_on(first, request, client_id, timeout, now)) return g;

  // Work stealing: the routed shard is full (or its survivors cannot fit
  // the request); try every other shard, fullest-free-pool first so the
  // stolen placement lands where capacity actually is.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> others;
  others.reserve(shards_.size());
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (s == first) continue;
    others.emplace_back(shards_[s]->registry.free_workers_total(), s);
  }
  std::sort(others.begin(), others.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [free, s] : others) {
    if (free == 0) continue;
    if (auto g = grant_on(s, request, client_id, timeout, now)) {
      g->stolen = true;
      steals_.fetch_add(1, std::memory_order_relaxed);
      return g;
    }
  }
  denials_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

ShardedResourceManager::BatchGrant ShardedResourceManager::grant_batch(
    const ScheduleRequest& request, std::uint32_t client_id, Duration timeout, Time now,
    bool all_or_nothing, std::optional<std::uint32_t> routed) {
  BatchGrant out;
  batches_.fetch_add(1, std::memory_order_relaxed);

  // Per-shard partial fulfillment: each sub-placement takes whatever the
  // placed executor can give (the schedulers' min(free, requested) rule)
  // and the remainder re-routes — the first one to the caller's routed
  // shard, later ones freshly, so wide batches spread across shards.
  std::uint32_t remaining = request.workers;
  std::vector<bool> touched(shards_.size(), false);
  while (remaining > 0) {
    ScheduleRequest sub = request;
    sub.workers = remaining;
    auto g = grant(sub, client_id, timeout, now, out.grants.empty() ? routed : std::nullopt);
    if (!g) break;  // fleet-wide exhaustion (grant() already counted the denial)
    remaining -= g->workers;
    out.granted_workers += g->workers;
    touched[g->shard] = true;
    out.grants.push_back(std::move(*g));
  }
  for (std::size_t s = 0; s < touched.size(); ++s) {
    if (touched[s]) ++out.shards_touched;
  }
  out.complete = remaining == 0;

  if (!out.complete && all_or_nothing) {
    // Roll the provisional leases back; the scans still happened, so
    // shards_touched keeps billing the decision cost.
    for (const auto& g : out.grants) release(g.lease_id);
    out.grants.clear();
    out.granted_workers = 0;
  }
  return out;
}

// --------------------------------------------------------------------------
// Renew / release / expiry
// --------------------------------------------------------------------------

ShardedResourceManager::LeaseTable::iterator ShardedResourceManager::commit_drop(
    journal::Op op, std::uint32_t shard_index, Shard& shard, LeaseTable::iterator it,
    bool returned_capacity) {
  JournalRecordMsg rec;
  rec.op = static_cast<std::uint8_t>(op);
  rec.lease_id = it->first;
  rec.client_id = it->second.client_id;
  rec.executor = make_id(shard_index, it->second.executor);
  rec.workers = it->second.workers;
  rec.memory = it->second.memory;
  rec.time = it->second.expires_at;
  if (returned_capacity) rec.aux |= journal::kAuxReturnCapacity;
  auto next = drop_step(shard, it, rec);
  journal_append(rec);
  return next;
}

std::optional<ShardedResourceManager::Renewal> ShardedResourceManager::renew(
    std::uint64_t lease_id, Time new_expires_at) {
  const std::uint32_t s = id_shard(lease_id);
  if (s >= shards_.size()) return std::nullopt;
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  auto it = shard.leases.find(lease_id);
  if (it == shard.leases.end()) return std::nullopt;
  JournalRecordMsg rec;
  rec.op = static_cast<std::uint8_t>(journal::Op::Renew);
  rec.lease_id = lease_id;
  rec.client_id = it->second.client_id;
  rec.executor = make_id(s, it->second.executor);
  rec.workers = it->second.workers;
  rec.time = new_expires_at;
  renew_step(shard, it, rec);
  journal_append(rec);
  return Renewal{shard.registry.at(it->second.executor).stream};
}

bool ShardedResourceManager::release(std::uint64_t lease_id) {
  const std::uint32_t s = id_shard(lease_id);
  if (s >= shards_.size()) return false;
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  auto it = shard.leases.find(lease_id);
  if (it == shard.leases.end()) return false;
  commit_drop(journal::Op::Release, s, shard, it,
              shard.registry.at(it->second.executor).schedulable());
  return true;
}

std::size_t ShardedResourceManager::sweep_expired(Time now) {
  std::size_t reclaimed = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    auto& shard = *shards_[s];
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    auto& heap = shard.expiry;
    while (!heap.empty() && heap.front().at <= now) {
      std::pop_heap(heap.begin(), heap.end(), ExpiryLater{});
      const ExpiryEntry entry = heap.back();
      heap.pop_back();
      auto it = shard.leases.find(entry.lease_id);
      if (it == shard.leases.end()) continue;    // released/evicted: stale entry
      if (it->second.expires_at > now) continue; // renewed: its re-arm entry is queued
      commit_drop(journal::Op::Expire, s, shard, it,
                  shard.registry.at(it->second.executor).schedulable());
      ++reclaimed;
    }
    // Compact once stale entries (renewal churn on long-lived leases)
    // dominate the heap; amortized O(1) per armed deadline.
    if (heap.size() >= 64 && heap.size() > 2 * shard.leases.size()) {
      heap.clear();
      heap.reserve(shard.leases.size());
      for (const auto& [id, record] : shard.leases) heap.push_back({record.expires_at, id});
      std::make_heap(heap.begin(), heap.end(), ExpiryLater{});
    }
  }
  return reclaimed;
}

std::size_t ShardedResourceManager::sweep_expired_scan(Time now) {
  // Pre-index reference: walk every lease of every shard (the seed's
  // sweep). Kept for fig16's before/after and the equivalence tests.
  std::size_t reclaimed = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    auto& shard = *shards_[s];
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    for (auto it = shard.leases.begin(); it != shard.leases.end();) {
      if (it->second.expires_at > now) {
        ++it;
        continue;
      }
      it = commit_drop(journal::Op::Expire, s, shard, it,
                       shard.registry.at(it->second.executor).schedulable());
      ++reclaimed;
    }
  }
  return reclaimed;
}

// --------------------------------------------------------------------------
// Manager-initiated reclamation
// --------------------------------------------------------------------------

std::optional<ShardedResourceManager::Eviction> ShardedResourceManager::evict(
    std::uint64_t lease_id) {
  const std::uint32_t s = id_shard(lease_id);
  if (s >= shards_.size()) return std::nullopt;
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  auto it = shard.leases.find(lease_id);
  if (it == shard.leases.end()) return std::nullopt;
  const auto& host = shard.registry.at(it->second.executor);
  Eviction ev{lease_id, it->second.client_id, it->second.workers, it->second.memory, host.stream};
  commit_drop(journal::Op::Evict, s, shard, it, host.schedulable());
  return ev;
}

std::vector<std::uint64_t> ShardedResourceManager::active_lease_ids(std::size_t max) const {
  // Shard-major, ascending per shard (= grant/age order, since per-shard
  // lease counters only grow) — the exact order of the pre-index table.
  std::vector<std::uint64_t> ids;
  for (const auto& shard_ptr : shards_) {
    auto& shard = *shard_ptr;
    std::vector<std::uint64_t> local;
    {
      std::shared_lock<std::shared_mutex> lock(shard.mu);
      local.reserve(shard.leases.size());
      for (const auto& kv : shard.leases) local.push_back(kv.first);
    }
    std::sort(local.begin(), local.end());
    for (std::uint64_t id : local) {
      if (ids.size() >= max) return ids;
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<ShardedResourceManager::Eviction> ShardedResourceManager::evict_quota_candidates(
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& candidates,
    std::map<std::uint32_t, std::uint64_t>& held, std::uint32_t requesting_client,
    std::uint32_t quota_workers, std::uint32_t workers_needed) {
  // evict() re-takes its shard's lock and resolves any lease that
  // vanished since the snapshot to a no-op, so the candidates need not
  // be consistent with the live table.
  std::vector<Eviction> out;
  std::uint32_t reclaimed = 0;
  for (const auto& [lease_id, client] : candidates) {
    if (reclaimed >= workers_needed) break;
    if (client == requesting_client) continue;
    auto h = held.find(client);
    if (h == held.end() || h->second <= quota_workers) continue;
    if (auto ev = evict(lease_id)) {
      h->second -= std::min<std::uint64_t>(h->second, ev->workers);
      reclaimed += ev->workers;
      out.push_back(std::move(*ev));
    }
  }
  return out;
}

std::vector<ShardedResourceManager::Eviction> ShardedResourceManager::reclaim_quota(
    std::uint32_t requesting_client, std::uint32_t quota_workers,
    std::uint32_t workers_needed) {
  // O(tenants): the held-worker totals come straight from the per-shard
  // tenant counters (maintained on every grant/release/evict), and only
  // the over-quota tenants' lease lists are materialized as candidates.
  std::map<std::uint32_t, std::uint64_t> held;
  for (const auto& shard_ptr : shards_) {
    auto& shard = *shard_ptr;
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [client, tenant] : shard.tenants) {
      if (tenant.held_workers > 0) held[client] += tenant.held_workers;
    }
  }

  std::vector<std::uint32_t> offenders;
  for (const auto& [client, total] : held) {
    if (client != requesting_client && total > quota_workers) offenders.push_back(client);
  }
  if (offenders.empty()) return {};

  // One pass (one shared lock) per shard for all offenders — not one
  // per (offender, shard) pair; the sort below restores global order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> candidates;
  for (const auto& shard_ptr : shards_) {
    auto& shard = *shard_ptr;
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (std::uint32_t client : offenders) {
      auto it = shard.tenants.find(client);
      if (it == shard.tenants.end()) continue;
      for (std::uint64_t id : it->second.leases) {
        if (shard.leases.contains(id)) candidates.emplace_back(id, client);
      }
    }
  }
  // Full lease ids embed the shard in their high bits, so a plain sort
  // restores the shard-major age order the scan variant produced.
  std::sort(candidates.begin(), candidates.end());
  return evict_quota_candidates(candidates, held, requesting_client, quota_workers,
                                workers_needed);
}

std::vector<ShardedResourceManager::Eviction> ShardedResourceManager::reclaim_quota_scan(
    std::uint32_t requesting_client, std::uint32_t quota_workers,
    std::uint32_t workers_needed) {
  // Pre-index reference: snapshot who holds what by walking every lease
  // (O(total leases) per call — the seed's behavior on every denied
  // request). Kept for fig16's before/after and the equivalence tests.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> snapshot;
  std::map<std::uint32_t, std::uint64_t> held;
  for (const auto& shard_ptr : shards_) {
    auto& shard = *shard_ptr;
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [id, record] : shard.leases) {
      snapshot.emplace_back(id, record.client_id);
      held[record.client_id] += record.workers;
    }
  }
  std::sort(snapshot.begin(), snapshot.end());
  return evict_quota_candidates(snapshot, held, requesting_client, quota_workers,
                                workers_needed);
}

std::uint64_t ShardedResourceManager::tenant_held_workers(std::uint32_t client_id) const {
  std::uint64_t held = 0;
  for (const auto& shard_ptr : shards_) {
    auto& shard = *shard_ptr;
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.tenants.find(client_id);
    if (it != shard.tenants.end()) held += it->second.held_workers;
  }
  return held;
}

std::uint64_t ShardedResourceManager::evict_hosted_leases(
    std::uint32_t shard_index, Shard& shard, std::size_t local,
    const std::shared_ptr<net::TcpStream>& stream, std::vector<Eviction>& out) {
  if (local >= shard.hosted.size()) return 0;
  // O(hosted) via the per-executor index; sorted so eviction records
  // (and the control plane's notification pushes) stay in age order.
  std::vector<std::uint64_t> ids(shard.hosted[local].begin(), shard.hosted[local].end());
  std::sort(ids.begin(), ids.end());
  std::uint64_t reclaimed_memory = 0;
  for (std::uint64_t id : ids) {
    auto it = shard.leases.find(id);
    if (it == shard.leases.end()) continue;
    out.push_back(Eviction{id, it->second.client_id, it->second.workers, it->second.memory,
                           stream});
    reclaimed_memory += it->second.memory;
    // Capacity stays with the entry (drain parks it, migration moves it
    // wholesale). The host is still schedulable here, so say it.
    commit_drop(journal::Op::Evict, shard_index, shard, it, /*returned_capacity=*/false);
  }
  return reclaimed_memory;
}

std::vector<ShardedResourceManager::Eviction> ShardedResourceManager::drain_executor(
    std::uint64_t executor_id) {
  const std::uint32_t s = id_shard(executor_id);
  const std::size_t local = static_cast<std::size_t>(id_low(executor_id));
  if (s >= shards_.size()) return {};
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  if (local >= shard.registry.size()) return {};
  auto& entry = shard.registry.at(local);
  if (!entry.schedulable()) return {};

  std::vector<Eviction> out;
  evict_hosted_leases(s, shard, local, entry.stream, out);
  JournalRecordMsg rec;
  rec.op = static_cast<std::uint8_t>(journal::Op::SetDraining);
  rec.executor = executor_id;
  drain_step(shard, rec);
  journal_append(rec);
  return out;
}

std::optional<std::uint64_t> ShardedResourceManager::find_executor_by_device(
    std::uint32_t device) const {
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    auto& shard = *shards_[s];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (std::size_t i = 0; i < shard.registry.size(); ++i) {
      const auto& e = shard.registry.at(i);
      if (e.alive && e.info.device == device) return make_id(s, i);
    }
  }
  return std::nullopt;
}

bool ShardedResourceManager::draining(std::uint64_t executor_id) const {
  const std::uint32_t s = id_shard(executor_id);
  const auto local = static_cast<std::size_t>(id_low(executor_id));
  if (s >= shards_.size()) return false;
  std::shared_lock<std::shared_mutex> lock(shards_[s]->mu);
  return local < shards_[s]->registry.size() && shards_[s]->registry.at(local).draining;
}

ShardedResourceManager::RebalanceReport ShardedResourceManager::rebalance(
    double max_skew, unsigned max_moves, Time now) {
  RebalanceReport report;
  if (shards_.size() < 2) return report;

  auto capacities = [this] {
    std::vector<std::int64_t> caps;
    caps.reserve(shards_.size());
    for (const auto& shard : shards_) {
      caps.push_back(shard->registry.total_workers());
    }
    return caps;
  };
  auto skew_of = [](const std::vector<std::int64_t>& caps) {
    const auto [lo, hi] = std::minmax_element(caps.begin(), caps.end());
    return static_cast<double>(std::max<std::int64_t>(0, *hi)) /
           static_cast<double>(std::max<std::int64_t>(1, *lo));
  };
  report.skew_before = skew_of(capacities());

  for (unsigned move = 0; move < max_moves; ++move) {
    const auto caps = capacities();
    if (skew_of(caps) <= max_skew) break;
    const std::uint32_t donor = static_cast<std::uint32_t>(
        std::max_element(caps.begin(), caps.end()) - caps.begin());
    const std::uint32_t receiver = static_cast<std::uint32_t>(
        std::min_element(caps.begin(), caps.end()) - caps.begin());
    if (donor == receiver) break;
    const std::int64_t gap = caps[donor] - caps[receiver];

    // Pull the migrating executor out of the donor shard under its lock:
    // prefer the largest executor that does not overshoot the balance
    // point (2w <= gap); fall back to the smallest one that still
    // narrows the gap at all.
    JournalRecordMsg rec;
    rec.op = static_cast<std::uint8_t>(journal::Op::Migrate);
    ExecutorEntry moved;
    {
      auto& shard = *shards_[donor];
      std::lock_guard<std::shared_mutex> lock(shard.mu);
      std::size_t best = 0;
      std::uint32_t best_fit = 0;    // largest with 2w <= gap
      std::size_t small = 0;
      std::uint32_t small_w = 0;     // smallest overall (w < gap)
      bool have_fit = false, have_small = false;
      for (std::size_t i = 0; i < shard.registry.size(); ++i) {
        const auto& e = shard.registry.at(i);
        if (!e.schedulable() || e.total_workers == 0) continue;
        const std::uint32_t w = e.total_workers;
        if (2 * static_cast<std::int64_t>(w) <= gap && (!have_fit || w > best_fit)) {
          best = i;
          best_fit = w;
          have_fit = true;
        }
        if (static_cast<std::int64_t>(w) < gap && (!have_small || w < small_w)) {
          small = i;
          small_w = w;
          have_small = true;
        }
      }
      if (!have_fit && !have_small) break;
      const std::size_t local = have_fit ? best : small;
      const auto& entry = shard.registry.at(local);

      // Evict the executor's active leases; their memory rejoins the
      // entry's pool so the migrated registration starts clean.
      const std::uint64_t reclaimed_memory =
          evict_hosted_leases(donor, shard, local, entry.stream, report.evictions);
      rec.executor = make_id(donor, local);
      rec.workers = entry.total_workers;
      rec.memory = entry.free_memory + reclaimed_memory;
      rec.time = now;
      moved = migrate_out_step(shard, rec);
      report.migrations.push_back(Migration{rec.executor, 0, moved.stream});
    }

    // Re-register on the receiver shard (its own lock; never both at
    // once). The global executor count is unchanged: the donor entry is
    // a tombstone, not a deregistration.
    {
      auto& shard = *shards_[receiver];
      std::lock_guard<std::shared_mutex> lock(shard.mu);
      rec.aux = make_id(receiver, migrate_in_step(shard, std::move(moved)));
      report.migrations.back().new_id = rec.aux;
      journal_append(rec);
    }
  }

  report.skew_after = skew_of(capacities());
  return report;
}

bool ShardedResourceManager::set_degraded(std::uint64_t executor_id, bool degraded) {
  const std::uint32_t s = id_shard(executor_id);
  const std::size_t local = static_cast<std::size_t>(id_low(executor_id));
  if (s >= shards_.size()) return false;
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  if (local >= shard.registry.size()) return false;
  if (!shard.registry.at(local).alive) return false;
  shard.registry.set_degraded(local, degraded);
  return true;
}

std::optional<RegisterExecutorMsg> ShardedResourceManager::mark_dead(
    std::uint64_t executor_id) {
  const std::uint32_t s = id_shard(executor_id);
  const std::size_t local = static_cast<std::size_t>(id_low(executor_id));
  if (s >= shards_.size()) return std::nullopt;
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  if (local >= shard.registry.size()) return std::nullopt;
  const auto& entry = shard.registry.at(local);
  if (!entry.alive) return std::nullopt;
  const RegisterExecutorMsg info = entry.info;
  JournalRecordMsg rec;
  rec.op = static_cast<std::uint8_t>(journal::Op::MarkDead);
  rec.executor = executor_id;
  dead_step(shard, rec);
  journal_append(rec);
  return info;
}

bool ShardedResourceManager::touch(std::uint64_t executor_id, Time now) {
  const std::uint32_t s = id_shard(executor_id);
  const std::size_t local = static_cast<std::size_t>(id_low(executor_id));
  if (s >= shards_.size()) return false;
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  if (local >= shard.registry.size()) return false;
  shard.registry.at(local).last_ack = now;
  return true;
}

std::optional<ShardedResourceManager::LeaseInfo> ShardedResourceManager::lease_info(
    std::uint64_t lease_id) const {
  const std::uint32_t s = id_shard(lease_id);
  if (s >= shards_.size()) return std::nullopt;
  auto& shard = *shards_[s];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.leases.find(lease_id);
  if (it == shard.leases.end()) return std::nullopt;
  return LeaseInfo{it->second.client_id, it->second.workers, it->second.expires_at};
}

std::size_t ShardedResourceManager::size() const {
  // Lock-free: the empty-registry check sits on the grant hot path.
  return executor_count_.load(std::memory_order_relaxed);
}

std::size_t ShardedResourceManager::alive_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    n += shard->registry.alive_count();
  }
  return n;
}

std::uint32_t ShardedResourceManager::free_workers_total() const {
  std::uint32_t n = 0;
  for (const auto& shard : shards_) n += shard->registry.free_workers_total();
  return n;
}

std::uint32_t ShardedResourceManager::total_workers() const {
  std::uint32_t n = 0;
  for (const auto& shard : shards_) n += shard->registry.total_workers();
  return n;
}

std::size_t ShardedResourceManager::active_leases() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->lease_count.load(std::memory_order_relaxed);
  }
  return n;
}

// --------------------------------------------------------------------------
// Transition steps: the one place each journal op changes manager state,
// shared by the primary's methods above and by apply() below
// --------------------------------------------------------------------------

std::size_t ShardedResourceManager::add_step(Shard& shard, ExecutorEntry entry) {
  const std::size_t local = shard.registry.add(std::move(entry));
  shard.hosted.resize(shard.registry.size());
  executor_count_.fetch_add(1, std::memory_order_relaxed);
  return local;
}

bool ShardedResourceManager::grant_step(Shard& shard, const JournalRecordMsg& r) {
  // try_claim revalidates: on the primary the executor may have died
  // between scan and grant; on a standby a refusal means divergence.
  const auto local = static_cast<std::size_t>(id_low(r.executor));
  if (!shard.registry.try_claim(local, r.workers, r.memory)) return false;
  index_lease(shard, r.lease_id, LeaseRecord{r.client_id, local, r.workers, r.memory, r.time});
  shard.next_lease = std::max(shard.next_lease, id_low(r.lease_id) + 1);
  grants_.fetch_add(1, std::memory_order_relaxed);
  if (r.aux & journal::kAuxLocalGrant) local_grants_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShardedResourceManager::renew_step(Shard& shard, LeaseTable::iterator it,
                                        const JournalRecordMsg& r) {
  // Re-arm the expiry index in place: the new deadline joins the heap,
  // the superseded entry is discarded when the sweep surfaces it.
  it->second.expires_at = r.time;
  push_expiry(shard, r.time, it->first);
}

ShardedResourceManager::LeaseTable::iterator ShardedResourceManager::drop_step(
    Shard& shard, LeaseTable::iterator it, const JournalRecordMsg& r) {
  // The capacity-return decision was made by the primary under its own
  // registry state and travels with the record; replay never re-derives it.
  if (r.aux & journal::kAuxReturnCapacity) {
    shard.registry.release(it->second.executor, it->second.workers, it->second.memory);
  }
  if (static_cast<journal::Op>(r.op) == journal::Op::Evict) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return unindex_lease(shard, it);
}

void ShardedResourceManager::drain_step(Shard& shard, const JournalRecordMsg& r) {
  shard.registry.set_draining(static_cast<std::size_t>(id_low(r.executor)));
}

void ShardedResourceManager::dead_step(Shard& shard, const JournalRecordMsg& r) {
  // Fast reclamation: drop the dead executor's leases without returning
  // capacity (mark_dead zeroes the counters). The hosted-lease index
  // makes the drop O(hosted), not O(shard leases).
  const auto local = static_cast<std::size_t>(id_low(r.executor));
  if (local < shard.hosted.size()) {
    const std::vector<std::uint64_t> ids(shard.hosted[local].begin(),
                                         shard.hosted[local].end());
    for (std::uint64_t id : ids) {
      auto it = shard.leases.find(id);
      if (it != shard.leases.end()) unindex_lease(shard, it);
    }
  }
  shard.registry.mark_dead(local);
}

ExecutorEntry ShardedResourceManager::migrate_out_step(Shard& shard, const JournalRecordMsg& r) {
  const auto local = static_cast<std::size_t>(id_low(r.executor));
  ExecutorEntry moved = shard.registry.at(local);
  moved.free_workers = moved.total_workers;
  moved.free_memory = r.memory;
  moved.last_ack = r.time;
  shard.registry.mark_dead(local);  // tombstone; the live entry moves
  return moved;
}

std::size_t ShardedResourceManager::migrate_in_step(Shard& shard, ExecutorEntry moved) {
  const std::size_t local = shard.registry.add(std::move(moved));
  shard.hosted.resize(shard.registry.size());
  migrations_.fetch_add(1, std::memory_order_relaxed);
  return local;
}

void ShardedResourceManager::reattach_step(Shard& shard, const JournalRecordMsg& r) {
  auto& entry = shard.registry.at(static_cast<std::size_t>(id_low(r.executor)));
  entry.last_ack = r.time;
  entry.info.epoch = r.aux2;
}

// --------------------------------------------------------------------------
// Replication / failover: re-attach, snapshot export/restore, replay
// --------------------------------------------------------------------------

bool ShardedResourceManager::reattach_executor(std::uint64_t executor_id,
                                               std::shared_ptr<net::TcpStream> stream,
                                               std::uint64_t epoch, Time now) {
  const std::uint32_t s = id_shard(executor_id);
  const std::size_t local = static_cast<std::size_t>(id_low(executor_id));
  if (s >= shards_.size()) return false;
  auto& shard = *shards_[s];
  std::lock_guard<std::shared_mutex> lock(shard.mu);
  if (local >= shard.registry.size()) return false;
  auto& entry = shard.registry.at(local);
  if (!entry.alive) return false;
  entry.stream = std::move(stream);  // streams are not replicated state
  JournalRecordMsg rec;
  rec.op = static_cast<std::uint8_t>(journal::Op::Reattach);
  rec.executor = executor_id;
  rec.aux2 = epoch;
  rec.time = now;
  reattach_step(shard, rec);
  journal_append(rec);
  return true;
}

ShardedResourceManager::ManagerState ShardedResourceManager::export_state() const {
  ManagerState state;
  state.shards.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& shard = *shards_[s];
    auto& out = state.shards[s];
    std::shared_lock<std::shared_mutex> lock(shard.mu);

    out.executors.reserve(shard.registry.size());
    for (std::size_t i = 0; i < shard.registry.size(); ++i) {
      const auto& e = shard.registry.at(i);
      ManagerState::ExecutorState ex;
      ex.info = e.info;
      ex.total_workers = e.total_workers;
      ex.free_workers = e.free_workers;
      ex.free_memory = e.free_memory;
      ex.alive = e.alive;
      ex.draining = e.draining;
      ex.locality = e.locality;
      ex.last_ack = e.last_ack;
      out.executors.push_back(ex);
    }

    out.leases.reserve(shard.leases.size());
    for (const auto& [id, record] : shard.leases) {
      ManagerState::LeaseState ls;
      ls.lease_id = id;
      ls.client_id = record.client_id;
      ls.executor = record.executor;
      ls.workers = record.workers;
      ls.memory = record.memory;
      ls.expires_at = record.expires_at;
      out.leases.push_back(ls);
    }
    std::sort(out.leases.begin(), out.leases.end(),
              [](const auto& a, const auto& b) { return a.lease_id < b.lease_id; });

    out.tenants.reserve(shard.tenants.size());
    for (const auto& [client, tenant] : shard.tenants) {
      ManagerState::TenantState ts;
      ts.client_id = client;
      ts.held_workers = tenant.held_workers;
      for (std::uint64_t id : tenant.leases) {
        if (shard.leases.contains(id)) ts.leases.push_back(id);
      }
      std::sort(ts.leases.begin(), ts.leases.end());
      out.tenants.push_back(std::move(ts));
    }
    std::sort(out.tenants.begin(), out.tenants.end(),
              [](const auto& a, const auto& b) { return a.client_id < b.client_id; });

    // Canonical deadline index from the live leases — two managers with
    // equivalent histories have heaps that differ in stale entries, so
    // the raw heap is not state.
    out.expiry.reserve(out.leases.size());
    for (const auto& ls : out.leases) out.expiry.emplace_back(ls.expires_at, ls.lease_id);
    std::sort(out.expiry.begin(), out.expiry.end());

    out.next_lease = shard.next_lease;
    out.free_workers = shard.registry.free_workers_total();
    out.total_workers = shard.registry.total_workers();
  }
  state.grants = grants_.load(std::memory_order_relaxed);
  state.local_grants = local_grants_.load(std::memory_order_relaxed);
  state.evictions = evictions_.load(std::memory_order_relaxed);
  state.migrations = migrations_.load(std::memory_order_relaxed);
  state.next_shard = next_shard_.load(std::memory_order_relaxed);
  state.executor_count = executor_count_.load(std::memory_order_relaxed);
  return state;
}

Status ShardedResourceManager::restore_state(const ManagerState& state, Time now) {
  if (state.shards.size() != shards_.size()) {
    return Error::make(40, "restore: shard count mismatch");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& shard = *shards_[s];
    const auto& in = state.shards[s];
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    if (!shard.registry.empty() || !shard.leases.empty()) {
      return Error::make(41, "restore: manager is not freshly constructed");
    }

    // Replay each executor's lifecycle (register full, claim down, drain
    // or die) instead of poking fields, so the registry's incremental
    // aggregates match a live manager's by construction.
    for (const auto& ex : in.executors) {
      ExecutorEntry e;
      e.info = ex.info;
      e.total_workers = ex.total_workers;
      e.free_workers = ex.total_workers;
      e.free_memory = ex.info.memory_bytes;
      e.locality = ex.locality;
      e.last_ack = now;  // fresh heartbeat clock: don't reap on promotion
      const std::size_t local = shard.registry.add(std::move(e));
      if (ex.alive && !ex.draining) {
        const std::uint32_t claimed = ex.total_workers - ex.free_workers;
        if (claimed > 0 && !shard.registry.try_claim(local, claimed, 0)) {
          return Error::make(42, "restore: snapshot executor capacity is inconsistent");
        }
        shard.registry.at(local).free_memory = ex.free_memory;
      } else {
        // Drained and/or dead: run the same transitions the live entry
        // went through so both flags and the aggregates line up.
        if (ex.draining) shard.registry.set_draining(local);
        if (!ex.alive) shard.registry.mark_dead(local);
      }
    }
    shard.hosted.resize(shard.registry.size());

    for (const auto& ls : in.leases) {
      LeaseRecord record;
      record.client_id = ls.client_id;
      record.executor = static_cast<std::size_t>(ls.executor);
      record.workers = ls.workers;
      record.memory = ls.memory;
      record.expires_at = ls.expires_at;
      index_lease(shard, ls.lease_id, record);
    }
    shard.next_lease = in.next_lease;
  }
  grants_.store(state.grants, std::memory_order_relaxed);
  local_grants_.store(state.local_grants, std::memory_order_relaxed);
  evictions_.store(state.evictions, std::memory_order_relaxed);
  migrations_.store(state.migrations, std::memory_order_relaxed);
  next_shard_.store(state.next_shard, std::memory_order_relaxed);
  executor_count_.store(state.executor_count, std::memory_order_relaxed);
  return Status::success();
}

Status ShardedResourceManager::apply(const JournalRecordMsg& r) {
  // Replay checks the record against this replica's state and runs the
  // primary's own transition step; it never re-runs placement, routing
  // or capacity decisions.
  const auto op = static_cast<journal::Op>(r.op);
  if (op < journal::Op::AddExecutor || op > journal::Op::Reattach) {
    return Error::make(48, "apply: unknown journal op");
  }
  const bool lease_op = op >= journal::Op::Grant && op <= journal::Op::Evict;
  const std::uint32_t s = id_shard(lease_op ? r.lease_id : r.executor);
  const auto local = static_cast<std::size_t>(id_low(r.executor));
  const std::uint32_t receiver = op == journal::Op::Migrate ? id_shard(r.aux) : s;
  if (s >= shards_.size() || receiver >= shards_.size() ||
      (op == journal::Op::Grant && id_shard(r.executor) != s)) {
    return Error::make(43, "apply: shard out of range");
  }
  auto diverged = [] { return Error::make(44, "apply: registry index diverged"); };
  auto& shard = *shards_[s];

  if (op == journal::Op::Migrate) {
    ExecutorEntry moved;
    {
      std::lock_guard<std::shared_mutex> lock(shard.mu);
      if (local >= shard.registry.size()) return diverged();
      moved = migrate_out_step(shard, r);
    }
    auto& in = *shards_[receiver];
    std::lock_guard<std::shared_mutex> lock(in.mu);
    if (in.registry.size() != id_low(r.aux)) return diverged();
    migrate_in_step(in, std::move(moved));
    return Status::success();
  }

  std::lock_guard<std::shared_mutex> lock(shard.mu);
  if (op == journal::Op::AddExecutor) {
    if (shard.registry.size() != local) return diverged();
    add_step(shard, registration_entry(r));
    // Mirror the primary's round-robin assignment counter so shard
    // routing of post-promotion registrations stays aligned.
    if (!locality_sharding_) next_shard_.fetch_add(1, std::memory_order_relaxed);
    return Status::success();
  }
  if (op == journal::Op::Grant) {
    if (!grant_step(shard, r)) {
      return Error::make(45, "apply: granted capacity does not fit (diverged)");
    }
    return Status::success();
  }
  if (lease_op) {
    auto it = shard.leases.find(r.lease_id);
    if (it == shard.leases.end()) return Error::make(46, "apply: unknown lease");
    if (op == journal::Op::Renew) {
      renew_step(shard, it, r);
    } else {
      drop_step(shard, it, r);
    }
    return Status::success();
  }
  if (local >= shard.registry.size()) return diverged();
  if (op != journal::Op::SetDraining && !shard.registry.at(local).alive) {
    return Error::make(47, "apply: executor is dead");
  }
  if (op == journal::Op::SetDraining) drain_step(shard, r);
  if (op == journal::Op::MarkDead) dead_step(shard, r);
  if (op == journal::Op::Reattach) reattach_step(shard, r);
  return Status::success();
}

// --------------------------------------------------------------------------
// ManagerState digest: one fold over the fields() lists that equality
// compares (replicated fields only: heartbeat clocks, streams and the
// retransmission-scoped request_id of the cached registration message are
// not journaled and therefore not state).
// --------------------------------------------------------------------------

namespace {

/// Mixes a value into the digest: a struct through its fields() list, a
/// vector as its size and then its elements, a pair as both halves, an
/// integer or bool as itself.
template <class T>
std::uint64_t fold(std::uint64_t h, const T& v) {
  if constexpr (requires { T::fields(v); }) {
    std::apply([&h](const auto&... f) { ((h = fold(h, f)), ...); }, T::fields(v));
    return h;
  } else if constexpr (requires { v.size(); }) {
    h = journal::mix(h, v.size());
    for (const auto& x : v) h = fold(h, x);
    return h;
  } else if constexpr (requires { v.second; }) {
    return fold(fold(h, v.first), v.second);
  } else {
    return journal::mix(h, static_cast<std::uint64_t>(v));
  }
}

}  // namespace

std::uint64_t ShardedResourceManager::ManagerState::digest() const { return fold(0, *this); }

}  // namespace rfs::rfaas
