// Minimal message-passing runtime over the simulated cluster — the MPI
// stand-in hosting the Fig. 12/13 applications. Ranks are simulation
// tasks pinned to host cores; point-to-point messages cross the switch
// (paying RDMA wire costs) and collectives use a binomial-tree model.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "fabric/link.hpp"
#include "sim/host.hpp"

namespace rfs::rmpi {

class World;

/// Result of an allreduce: the maximum and the sum over every rank's value.
struct Reduced {
  double max = 0;
  double sum = 0;
};

/// Per-rank handle passed to the rank function.
class Rank {
 public:
  Rank(World& world, int rank) : world_(world), rank_(rank) {}

  [[nodiscard]] int rank() const { return rank_; }

  /// Occupies a core of the rank's host for `d` of virtual time.
  sim::Task<void> compute(Duration d);

  /// Blocking point-to-point send/recv (rendezvous-free: the payload is
  /// buffered, the wire time is charged on delivery).
  void send(int dst, Bytes data);
  sim::Task<Bytes> recv(int src);

  /// Synchronizes all ranks (binomial-tree latency model).
  sim::Task<void> barrier();

  /// Max and sum reduction to every rank.
  sim::Task<Reduced> allreduce(double value);

 private:
  World& world_;
  int rank_;
};

using RankFn = std::function<sim::Task<void>(Rank&)>;

/// A set of ranks distributed round-robin over hosts. `devices[i]` is the
/// NIC of `hosts[i]`; messages between ranks on different hosts pay the
/// switch's wire costs, same-host messages pay a memcpy-speed copy.
class World {
 public:
  World(sim::Engine& engine, fabric::Switch& net, std::vector<sim::Host*> hosts,
        std::vector<fabric::DeviceId> devices, int nranks);

  /// Spawns every rank and completes when all of them return.
  sim::Task<void> run(RankFn fn);

  [[nodiscard]] int size() const { return nranks_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

 private:
  friend class Rank;

  [[nodiscard]] sim::Host& host_of(int rank) { return *hosts_[rank % hosts_.size()]; }
  [[nodiscard]] fabric::DeviceId device_of(int rank) const {
    return devices_[rank % devices_.size()];
  }
  sim::Channel<Bytes>& channel(int src, int dst);

  sim::Engine& engine_;
  fabric::Switch& net_;
  std::vector<sim::Host*> hosts_;
  std::vector<fabric::DeviceId> devices_;
  int nranks_;

  std::map<std::pair<int, int>, std::unique_ptr<sim::Channel<Bytes>>> channels_;
  // Barrier/allreduce state (generation-counted, reused across calls).
  struct Collective {
    std::size_t arrived = 0;
    Reduced accum;
    Reduced last;  // snapshot read by waiters of the finished round
    sim::Event release;
  };
  Collective coll_;
  std::uint64_t coll_generation_ = 0;
};

}  // namespace rfs::rmpi
