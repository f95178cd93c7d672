// Core verbs-style types of the simulated RDMA fabric.
//
// The vocabulary deliberately mirrors libibverbs (ibv_wc, ibv_send_wr,
// IBV_WR_RDMA_WRITE_WITH_IMM, ...) so that the rFaaS layer above reads
// like the real implementation and could be retargeted to hardware verbs.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace rfs::fabric {

/// Work-request opcodes supported by the fabric (RC transport).
enum class Opcode : std::uint8_t {
  Send,          // two-sided send, consumes a posted receive
  SendImm,       // send with immediate data
  Write,         // one-sided RDMA write
  WriteImm,      // RDMA write with immediate: consumes a receive at target
  Read,          // one-sided RDMA read
  FetchAdd,      // 8-byte atomic fetch-and-add
  CmpSwap,       // 8-byte atomic compare-and-swap
  Recv,          // receive completion (target side)
  RecvImm,       // receive completion carrying immediate data
};

/// Completion status, subset of ibv_wc_status.
enum class WcStatus : std::uint8_t {
  Success,
  LocalProtectionError,   // bad lkey / local bounds
  RemoteAccessError,      // bad rkey / remote bounds / missing permission
  RnrRetryExceeded,       // receiver had no posted receive
  RetryExceeded,          // peer unreachable (destroyed / error state)
  FlushError,             // QP destroyed / transitioned to error
};

const char* to_string(WcStatus s);

/// Memory-region access permissions (bitmask, mirrors IBV_ACCESS_*).
enum Access : std::uint32_t {
  LocalWrite = 1u << 0,
  RemoteWrite = 1u << 1,
  RemoteRead = 1u << 2,
  RemoteAtomic = 1u << 3,
};

/// Scatter-gather element. `addr` is a real process pointer expressed as
/// an integer, exactly as in verbs.
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

/// Inline scatter-gather list. Real WRs carry at most max_send_sge
/// entries (single digits on every HCA), so a fixed-capacity array keeps
/// work-request construction off the heap — the invocation fast path
/// posts a WR per call and must not allocate.
class SgeList {
 public:
  static constexpr std::size_t kMaxSge = 4;

  SgeList() = default;
  SgeList(std::initializer_list<Sge> init) {
    for (const Sge& s : init) push_back(s);
  }

  void push_back(const Sge& s) {
    assert(count_ < kMaxSge && "SgeList: more SGEs than max_send_sge");
    elems_[count_++] = s;
  }
  void clear() { count_ = 0; }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] Sge& operator[](std::size_t i) { return elems_[i]; }
  [[nodiscard]] const Sge& operator[](std::size_t i) const { return elems_[i]; }
  [[nodiscard]] Sge* begin() { return elems_.data(); }
  [[nodiscard]] Sge* end() { return elems_.data() + count_; }
  [[nodiscard]] const Sge* begin() const { return elems_.data(); }
  [[nodiscard]] const Sge* end() const { return elems_.data() + count_; }

  /// Sum of the element lengths (the WR's payload size).
  [[nodiscard]] std::uint64_t total_length() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < count_; ++i) total += elems_[i].length;
    return total;
  }

 private:
  std::array<Sge, kMaxSge> elems_{};
  std::size_t count_ = 0;
};

/// Send-queue work request.
struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::Write;
  SgeList sge;
  std::uint64_t remote_addr = 0;   // WRITE/READ/atomics target
  std::uint32_t rkey = 0;
  std::uint32_t imm = 0;           // immediate data for *Imm opcodes
  bool signaled = true;            // generate a local completion
  bool inline_data = false;        // copy payload at post time, skip DMA read
  std::uint64_t compare = 0;       // CmpSwap operand
  std::uint64_t swap_or_add = 0;   // CmpSwap swap value / FetchAdd addend
};

/// Receive-queue work request.
struct RecvWr {
  std::uint64_t wr_id = 0;
  SgeList sge;
};

/// Work completion, mirrors ibv_wc.
struct Wc {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::Success;
  Opcode opcode = Opcode::Send;
  std::uint32_t byte_len = 0;
  std::uint32_t imm = 0;
  bool has_imm = false;
  std::uint32_t qp_num = 0;
};

/// Identifies a device (one NIC per simulated host).
using DeviceId = std::uint32_t;

}  // namespace rfs::fabric
