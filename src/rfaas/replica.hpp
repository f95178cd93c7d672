// Warm standby replica of the resource manager (HA, ROADMAP #2).
//
// A StandbyReplica owns a ShardedResourceManager core and keeps it in
// lockstep with a journaling primary: it installs the digest-verified
// snapshot (ShardedResourceManager::export_state) the primary offers
// once, when the standby attaches, and then applies the primary's live
// journal stream in seq order, verifying the chained
// checksum record by record. Applying is pure delta application — no
// placement policy, routing RNG or quota logic re-runs — so a record
// that does not apply cleanly means divergence and is surfaced as an
// Error instead of being papered over.
//
// On primary death the replica's exported state seeds a promoted
// ResourceManager under a bumped manager epoch (resource_manager.hpp);
// the replica object itself stays passive — it is state, not a server.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "rfaas/journal.hpp"
#include "rfaas/sharded_manager.hpp"

namespace rfs::rfaas {

/// Applies a primary's snapshot + journal stream into an identical
/// in-memory manager state. Thread-safe: apply() may be called straight
/// from a Journal sink while other threads read accessors.
class StandbyReplica {
 public:
  /// The core is built from `config`. Its journal has no sink, so
  /// applied records are not re-stamped; the promoted manager starts a
  /// fresh journal for its own standbys.
  explicit StandbyReplica(const Config& config);

  /// Installs a snapshot: verifies the offer's digest and lease count
  /// against `state`, rebuilds the core from scratch, fast-forwards the
  /// applied cursor to offer.upto_seq and seeds the checksum chain from
  /// offer.chain_checksum. A torn or stale snapshot (digest mismatch) is
  /// rejected without touching the current state.
  Status install_snapshot(const ShardedResourceManager::ManagerState& state,
                          const SnapshotOfferMsg& offer, Time now);

  /// Applies one record: checks seq continuity (records already covered
  /// by the snapshot or an earlier apply are benign duplicates; a gap is
  /// an error), verifies the checksum chain, applies the delta. Every
  /// record's chain is verified, the first one on top of a snapshot too.
  Status apply(const JournalRecordMsg& record);

  /// Decodes one wire-encoded JournalRecord frame and applies it (the
  /// replication-stream entry point; keeps the wire roundtrip honest).
  Status apply_wire(std::span<const std::uint8_t> raw);

  /// Seq of the last record folded into the core (snapshot or apply).
  [[nodiscard]] std::uint64_t applied_seq() const;
  /// Manager epoch of the last installed snapshot (0 = none yet).
  [[nodiscard]] std::uint32_t snapshot_epoch() const;

  /// The replica's manager core (read-mostly; promotion exports it).
  [[nodiscard]] const ShardedResourceManager& core() const { return *core_; }

  /// Canonical state of the core — what a promoted manager restores,
  /// and what the replay-equivalence tests compare against the primary.
  [[nodiscard]] ShardedResourceManager::ManagerState export_state() const {
    return core_->export_state();
  }

 private:
  Config config_;
  std::unique_ptr<ShardedResourceManager> core_;
  mutable std::mutex mu_;
  std::uint64_t applied_seq_ = 0;
  /// Chain value after applied_seq_: 0 from genesis, the offer's
  /// chain_checksum after a snapshot install.
  std::uint64_t last_checksum_ = 0;
  std::uint32_t snapshot_epoch_ = 0;
};

}  // namespace rfs::rfaas
