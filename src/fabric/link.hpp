// Switched network with per-endpoint full-duplex links.
//
// Every device owns one TX and one RX link to the central switch. A
// transfer occupies the source TX link and the destination RX link for
// `bytes / bandwidth` and is delivered after the one-way wire latency.
// Concurrent transfers to the same endpoint serialize on its RX link,
// which is what bounds parallel invocations in Fig. 10 ("rFaaS achieves
// the maximal bandwidth of the link").
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "fabric/model.hpp"
#include "fabric/verbs.hpp"
#include "sim/engine.hpp"

namespace rfs::fabric {

class Switch {
 public:
  Switch(sim::Engine& engine, NetworkModel model) : engine_(engine), model_(model) {}

  [[nodiscard]] const NetworkModel& model() const { return model_; }

  /// Reserves link time for a payload of `bytes` from `src` to `dst`
  /// starting no earlier than now. Returns the absolute delivery time at
  /// the destination (link serialization + wire latency included, but not
  /// protocol-level costs such as CQE generation). Both endpoints must
  /// have been added.
  Time reserve_rdma(DeviceId src, DeviceId dst, std::uint64_t bytes);

  /// Same, with the TCP bandwidth model.
  Time reserve_tcp(DeviceId src, DeviceId dst, std::uint64_t bytes);

  /// Registers a device endpoint (idempotent). Ids are dense, as
  /// Fabric::create_device hands them out: the table is indexed by id.
  void add_endpoint(DeviceId id);

 private:
  struct Endpoint {
    Time tx_free = 0;
    Time rx_free = 0;
  };

  Time reserve(DeviceId src, DeviceId dst, std::uint64_t bytes, Duration wire_latency,
               double bandwidth);

  sim::Engine& engine_;
  NetworkModel model_;
  std::vector<Endpoint> endpoints_;  // by DeviceId
};

}  // namespace rfs::fabric
