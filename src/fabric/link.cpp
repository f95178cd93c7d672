#include "fabric/link.hpp"

#include <algorithm>
#include <cassert>

namespace rfs::fabric {

void Switch::add_endpoint(DeviceId id) {
  if (id >= endpoints_.size()) endpoints_.resize(std::size_t{id} + 1);
}

Time Switch::reserve_rdma(DeviceId src, DeviceId dst, std::uint64_t bytes) {
  return reserve(src, dst, bytes, model_.wire_latency, model_.bandwidth_Bps);
}

Time Switch::reserve_tcp(DeviceId src, DeviceId dst, std::uint64_t bytes) {
  // TCP messages traverse the same physical link; the stack latency on
  // both ends is charged by the caller, the wire model here only covers
  // serialization at TCP's effective single-stream bandwidth.
  return reserve(src, dst, bytes, model_.wire_latency, model_.tcp_bandwidth_Bps);
}

Time Switch::reserve(DeviceId src, DeviceId dst, std::uint64_t bytes, Duration wire_latency,
                     double bandwidth) {
  assert(src < endpoints_.size() && dst < endpoints_.size() && "reserve on an unadded endpoint");
  auto& s = endpoints_[src];
  auto& d = endpoints_[dst];
  const Time now = engine_.now();
  const Duration ser = transfer_time(bytes, bandwidth);

  // Loopback transfers (same device) skip the wire but still serialize on
  // the single DMA engine, modelled as the TX link.
  if (src == dst) {
    Time start = std::max(now, s.tx_free);
    s.tx_free = start + ser;
    return start + ser;
  }

  Time start = std::max({now, s.tx_free, d.rx_free > wire_latency ? d.rx_free - wire_latency : 0});
  s.tx_free = start + ser;
  d.rx_free = start + wire_latency + ser;
  return start + wire_latency + ser;
}

}  // namespace rfs::fabric
