// Replicated lease-state journal of the resource manager (HA, ROADMAP #2).
//
// Every state transition the ShardedResourceManager applies — executor
// registration, grant, renew, release, expiry, eviction, drain, death,
// migration — is appended here as one fixed-layout JournalRecordMsg and
// fanned out to attached sinks (warm standby replicas, wire streams).
// Records are *delta* records: each one fully describes the mutation it
// stands for (including decisions the primary already made, like whether
// a release returns capacity to its executor), so a standby applies it
// mechanically and never re-runs placement policy, routing RNG or quota
// logic.
//
// Integrity: every record carries a checksum chained over all of its
// fields plus the previous record's checksum, so a corrupted, reordered
// or gapped stream is detected at the first bad record.
//
// The journal keeps no copy of what it appends: a standby catches up
// from a snapshot taken when it attaches, then from the live stream.
// Until the first sink attaches there is nobody to catch up, so the
// manager stamps nothing and a manager without a standby pays one flag
// load per transition.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "rfaas/protocol.hpp"

namespace rfs::rfaas {

namespace journal {

/// Discriminator of a journal record (JournalRecordMsg::op). The field
/// meaning of a record depends on its op; unused fields are zero.
enum class Op : std::uint8_t {
  AddExecutor = 1,  ///< executor registered on a shard (executor=id, workers=total,
                    ///<   memory=free, lease_id=offerable bytes, client_id=locality,
                    ///<   aux=packed endpoint, aux2=epoch<<32|cores, time=last_ack)
  Grant,            ///< lease granted (lease_id, client_id, executor, workers,
                    ///<   memory, time=expires_at, aux bit1=rack-local)
  Renew,            ///< lease deadline moved (lease_id, time=new expires_at)
  Release,          ///< client released (lease fields; aux bit0=capacity returned)
  Expire,           ///< expiry sweep reclaimed (lease fields; aux bit0 as above)
  Evict,            ///< manager evicted (lease fields; aux bit0 as above)
  SetDraining,      ///< executor capacity left the pool (executor=id)
  MarkDead,         ///< executor died; hosted leases dropped (executor=id)
  Migrate,          ///< registration moved between shards (executor=old id,
                    ///<   aux=new id, memory=moved free bytes, time=move time)
  Reattach,         ///< live executor re-registered in place after a failover
                    ///<   (executor=id, aux2=new session epoch, time=now)
};

/// Human-readable op name (logging, test diagnostics).
const char* to_string(Op op);

/// JournalRecordMsg::aux flag: Release/Expire/Evict returned the lease's
/// capacity to its executor (the executor was schedulable at the time).
inline constexpr std::uint64_t kAuxReturnCapacity = 1ull << 0;
/// JournalRecordMsg::aux flag: the grant landed in the client's rack.
inline constexpr std::uint64_t kAuxLocalGrant = 1ull << 1;

/// Packs an executor's control-plane endpoint into JournalRecordMsg::aux.
inline constexpr std::uint64_t pack_endpoint(std::uint32_t device, std::uint16_t alloc_port,
                                             std::uint16_t rdma_port) {
  return (static_cast<std::uint64_t>(device) << 32) |
         (static_cast<std::uint64_t>(alloc_port) << 16) | rdma_port;
}

/// One step of the chained checksum / digest mix (splitmix64-based).
inline constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ (v + kSplitmix64Gamma + (h << 6) + (h >> 2)));
}

/// Checksum of `r` given the previous record's checksum. Covers every
/// field except `checksum` itself.
std::uint64_t chain_checksum(const JournalRecordMsg& r, std::uint64_t prev);

}  // namespace journal

/// Sequencer of manager state transitions: stamps each record with the
/// next seq and the chained checksum and fans it out to the sinks; it
/// retains nothing. Appends are thread-safe behind a leaf mutex (they
/// happen under the owning shard's lock); sinks run inline on the
/// appending thread, in append order.
class Journal {
 public:
  /// A replication target: called once per appended record, after the
  /// record's seq and checksum are assigned.
  using Sink = std::function<void(const JournalRecordMsg&)>;

  /// Appends one record: assigns the next seq and the chained checksum
  /// and fans it out to every sink. Returns the completed record (as
  /// streamed).
  JournalRecordMsg append(JournalRecordMsg r);

  /// Registers a replication sink and raises streaming(). Earlier
  /// records are gone — pair with a snapshot
  /// (ShardedResourceManager::export_state) covering everything up to
  /// last_seq().
  void add_sink(Sink sink);

  /// True once a sink is attached: the manager appends only then.
  [[nodiscard]] bool streaming() const { return streaming_.load(std::memory_order_relaxed); }

  /// Seq of the most recent record (0 = nothing appended yet).
  [[nodiscard]] std::uint64_t last_seq() const;
  /// Chain checksum after the most recent record (0 = nothing appended yet).
  [[nodiscard]] std::uint64_t last_checksum() const;

 private:
  mutable std::mutex mu_;
  std::vector<Sink> sinks_;
  std::atomic<bool> streaming_{false};
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_checksum_ = 0;
};

}  // namespace rfs::rfaas
