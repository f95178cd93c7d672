#include "rmpi/rmpi.hpp"

#include <algorithm>
#include <cmath>

namespace rfs::rmpi {

sim::Task<void> Rank::compute(Duration d) { return world_.host_of(rank_).compute(d); }

void Rank::send(int dst, Bytes data) {
  auto deliver = [](World* world, int src, int dst_rank, Bytes payload) -> sim::Task<void> {
    const auto from = world->device_of(src);
    const auto to = world->device_of(dst_rank);
    if (from == to) {
      // Same host: shared-memory copy at ~10 GB/s.
      co_await sim::delay(transfer_time(payload.size(), 1e10));
    } else {
      Time arrival = world->net_.reserve_rdma(from, to, payload.size());
      co_await sim::delay_until(arrival);
    }
    world->channel(src, dst_rank).send(std::move(payload));
  };
  sim::spawn(world_.engine_, deliver(&world_, rank_, dst, std::move(data)));
}

sim::Task<Bytes> Rank::recv(int src) {
  auto item = co_await world_.channel(src, rank_).recv();
  co_return item ? std::move(*item) : Bytes{};
}

sim::Task<void> Rank::barrier() {
  (void)co_await allreduce_max(0.0);
}

namespace {
Duration tree_latency(int nranks) {
  // Binomial tree: ceil(log2(p)) hops up + down at ~1.9 us per hop
  // (small-message RDMA one-way latency).
  if (nranks <= 1) return 0;
  const auto hops = static_cast<Duration>(std::ceil(std::log2(nranks)));
  return 2 * hops * 1900;
}
}  // namespace

sim::Task<double> Rank::allreduce_max(double value) {
  auto& coll = world_.coll_;
  if (coll.first) {
    coll.accum_max = value;
    coll.accum_sum = value;
    coll.first = false;
  } else {
    coll.accum_max = std::max(coll.accum_max, value);
    coll.accum_sum += value;
  }
  ++coll.arrived;
  const std::uint64_t my_generation = world_.coll_generation_;
  if (coll.arrived == static_cast<std::size_t>(world_.nranks_)) {
    co_await sim::delay(tree_latency(world_.nranks_));
    coll.last_max = coll.accum_max;
    coll.last_sum = coll.accum_sum;
    ++world_.coll_generation_;
    coll.arrived = 0;
    coll.first = true;
    coll.release.pulse();
    co_return coll.last_max;
  }
  while (world_.coll_generation_ == my_generation) {
    co_await coll.release.wait();
  }
  co_return coll.last_max;
}

sim::Task<double> Rank::allreduce_sum(double value) {
  auto& coll = world_.coll_;
  if (coll.first) {
    coll.accum_max = value;
    coll.accum_sum = value;
    coll.first = false;
  } else {
    coll.accum_max = std::max(coll.accum_max, value);
    coll.accum_sum += value;
  }
  ++coll.arrived;
  const std::uint64_t my_generation = world_.coll_generation_;
  if (coll.arrived == static_cast<std::size_t>(world_.nranks_)) {
    co_await sim::delay(tree_latency(world_.nranks_));
    coll.last_max = coll.accum_max;
    coll.last_sum = coll.accum_sum;
    ++world_.coll_generation_;
    coll.arrived = 0;
    coll.first = true;
    coll.release.pulse();
    co_return coll.last_sum;
  }
  while (world_.coll_generation_ == my_generation) {
    co_await coll.release.wait();
  }
  co_return coll.last_sum;
}

World::World(sim::Engine& engine, fabric::Switch& net, std::vector<sim::Host*> hosts,
             std::vector<fabric::DeviceId> devices, int nranks)
    : engine_(engine), net_(net), hosts_(std::move(hosts)), devices_(std::move(devices)),
      nranks_(nranks) {}

sim::Channel<Bytes>& World::channel(int src, int dst) {
  auto key = std::make_pair(src, dst);
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    it = channels_.emplace(key, std::make_unique<sim::Channel<Bytes>>()).first;
  }
  return *it->second;
}

sim::Task<void> World::run(RankFn fn) {
  sim::WaitGroup wg(static_cast<std::size_t>(nranks_));
  std::vector<std::unique_ptr<Rank>> ranks;
  ranks.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    ranks.push_back(std::make_unique<Rank>(*this, r));
    auto body = [](RankFn f, Rank* rank, sim::WaitGroup* group) -> sim::Task<void> {
      co_await f(*rank);
      group->done();
    };
    sim::spawn(engine_, body(fn, ranks.back().get(), &wg));
  }
  co_await wg.wait();
}

}  // namespace rfs::rmpi
