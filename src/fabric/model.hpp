// Latency/bandwidth model of the simulated RDMA fabric and its TCP
// overlay. Defaults are calibrated against the constants reported in the
// paper's evaluation platform (Mellanox MT27800, 100 Gb/s RoCEv2):
//   - small-message inlined WRITE ping-pong RTT:   3.69 us
//   - link bandwidth:                              11 686.4 MiB/s
//   - message inlining ceiling:                    128 B
// bench/fig08_invocation_latency prints the resulting RTTs beside the paper's.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace rfs::fabric {

struct NetworkModel {
  /// One-way latency components of an RDMA operation. A small inlined
  /// write completes at post + post_overhead + wire_latency + cqe_overhead
  /// = 1845 ns one way, i.e. a 3.69 us ping-pong RTT.
  Duration post_overhead = 150;       // CPU doorbell + WQE fetch
  Duration wire_latency = 1400;       // propagation + one switch hop
  Duration cqe_overhead = 295;        // CQE generation at completion side
  Duration dma_read_latency = 350;    // PCIe DMA read for non-inlined sends

  /// Bandwidth of one link, bytes per second (11 686.4 MiB/s measured).
  double bandwidth_Bps = 11686.4 * 1024.0 * 1024.0;

  /// Maximum total payload that can be inlined into the WQE.
  std::uint32_t max_inline = 128;

  /// Latency added when a blocked thread is woken by a completion event
  /// (interrupt + futex wake + scheduler), vs. zero for busy polling.
  Duration blocking_wake_latency = 2100;

  /// Cost of an atomic operation executed at the responder NIC.
  Duration atomic_latency = 250;

  /// Memory registration: fixed syscall cost + per-page pinning cost.
  Duration mr_register_base = 5_us;
  Duration mr_register_per_page = 300;  // ns per 4 KiB page

  /// TCP/IP overlay (netperf-calibrated on the same link): the stack adds
  /// per-message CPU/kernel latency on both sides and a lower effective
  /// single-stream bandwidth.
  Duration tcp_stack_latency = 4250;        // per direction, per message
  double tcp_bandwidth_Bps = 4.3e9;         // ~34 Gb/s single stream
  Duration tcp_connect_latency = 180_us;    // 3-way handshake + socket setup

  /// Out-of-band RDMA connection management (rdma_cm style): exchange of
  /// QP numbers and transition to RTS, dominated by a TCP exchange.
  Duration cm_handshake = 450_us;

  /// Duration of transferring `bytes` over the RDMA link.
  [[nodiscard]] Duration wire_time(std::uint64_t bytes) const {
    return transfer_time(bytes, bandwidth_Bps);
  }

  /// Duration of transferring `bytes` through the TCP stack.
  [[nodiscard]] Duration tcp_wire_time(std::uint64_t bytes) const {
    return transfer_time(bytes, tcp_bandwidth_Bps);
  }

  /// Cost of registering a memory region of `bytes`.
  [[nodiscard]] Duration mr_register_time(std::uint64_t bytes) const {
    std::uint64_t pages = (bytes + 4095) / 4096;
    return mr_register_base + pages * mr_register_per_page;
  }
};

}  // namespace rfs::fabric
