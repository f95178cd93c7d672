#include "rfaas/replica.hpp"

namespace rfs::rfaas {

StandbyReplica::StandbyReplica(const Config& config)
    : config_(config),
      core_(std::make_unique<ShardedResourceManager>(config_)) {}

Status StandbyReplica::install_snapshot(const ShardedResourceManager::ManagerState& state,
                                        const SnapshotOfferMsg& offer, Time now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (offer.digest != state.digest()) {
    return Error::make(50, "replica: snapshot digest mismatch (torn or stale snapshot)");
  }
  std::uint64_t leases = 0;
  for (const auto& shard : state.shards) leases += shard.leases.size();
  if (offer.lease_count != leases) {
    return Error::make(51, "replica: snapshot lease count mismatch");
  }
  // A newer manager epoch resets the seq space: a promoted primary
  // starts a fresh journal, so its snapshot legitimately carries a
  // lower upto_seq than what we replayed from the previous epoch.
  // Within one epoch, a snapshot behind our cursor is stale.
  if (offer.manager_epoch <= snapshot_epoch_ && offer.upto_seq < applied_seq_) {
    return Error::make(52, "replica: snapshot older than replayed state");
  }
  // Rebuild from scratch: restore_state requires a fresh core, and a
  // snapshot offered again (re-attach to a promoted primary) replaces
  // ours wholesale.
  auto fresh = std::make_unique<ShardedResourceManager>(config_);
  if (auto restored = fresh->restore_state(state, now); !restored) return restored;
  core_ = std::move(fresh);
  applied_seq_ = offer.upto_seq;
  last_checksum_ = offer.chain_checksum;
  snapshot_epoch_ = offer.manager_epoch;
  return Status::success();
}

Status StandbyReplica::apply(const JournalRecordMsg& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.seq <= applied_seq_) return Status::success();  // covered: duplicate stream
  if (record.seq != applied_seq_ + 1) {
    return Error::make(53, "replica: journal seq gap (lost records)");
  }
  if (record.checksum != journal::chain_checksum(record, last_checksum_)) {
    return Error::make(54, "replica: journal checksum chain mismatch (corruption)");
  }
  if (auto applied = core_->apply(record); !applied) return applied;
  applied_seq_ = record.seq;
  last_checksum_ = record.checksum;
  return Status::success();
}

Status StandbyReplica::apply_wire(std::span<const std::uint8_t> raw) {
  auto record = decode_journal_record(raw);
  if (!record) return record.error();
  return apply(record.value());
}

std::uint64_t StandbyReplica::applied_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_seq_;
}

std::uint32_t StandbyReplica::snapshot_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_epoch_;
}

}  // namespace rfs::rfaas
