// Connection: a connected RC queue pair bundled with its completion
// queues and post helpers — rFaaS's `rdmalib::Connection`. Hides the
// verbs boilerplate from the platform layer; completions are consumed on
// send_cq() and recv_cq() directly, in the mode the caller picks.
#pragma once

#include <memory>

#include "fabric/cq.hpp"
#include "fabric/fabric.hpp"
#include "fabric/qp.hpp"
#include "rdmalib/buffer.hpp"

namespace rfs::rdmalib {

class Connection {
 public:
  /// Client side: connect to (device `to`, `port`).
  static sim::Task<Result<std::unique_ptr<Connection>>> connect(
      fabric::Fabric& fabric, fabric::Device& from, fabric::ProtectionDomain* pd,
      fabric::DeviceId to, std::uint16_t port, Bytes private_data = {});

  /// Server side: accept a pending request on `dev`. `reply_data` travels
  /// back to the initiator (available there as accept_data()).
  static std::unique_ptr<Connection> accept(fabric::ConnectRequest& request, fabric::Device& dev,
                                            fabric::ProtectionDomain* pd, Bytes reply_data = {});

  /// Private data the acceptor attached when this connection was made via
  /// connect(); empty on acceptor-side connections.
  [[nodiscard]] const Bytes& accept_data() const { return accept_data_; }

  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] fabric::QueuePair* qp() { return qp_; }
  [[nodiscard]] fabric::CompletionQueue& send_cq() { return *send_cq_; }
  [[nodiscard]] fabric::CompletionQueue& recv_cq() { return *recv_cq_; }
  [[nodiscard]] bool alive() const {
    return qp_ != nullptr && qp_->state() == fabric::QpState::Rts && qp_->peer() != nullptr &&
           qp_->peer()->state() == fabric::QpState::Rts;
  }

  /// RDMA write of `sge` into `dst`; optionally with immediate data and
  /// inlining (payload must fit the device inline ceiling).
  Status post_write(const fabric::Sge& sge, const RemoteBuffer& dst, std::uint64_t wr_id,
                    bool inline_data = false);
  Status post_write_imm(const fabric::Sge& sge, const RemoteBuffer& dst, std::uint32_t imm,
                        std::uint64_t wr_id, bool inline_data = false);

  /// 8-byte atomic fetch-and-add on the remote address.
  Status post_fetch_add(std::uint64_t* local_result, std::uint32_t result_lkey,
                        std::uint64_t remote_addr, std::uint32_t rkey, std::uint64_t add,
                        std::uint64_t wr_id);

  /// Posts a pre-built WR chain with a single doorbell (ibv_post_send
  /// linked-list form); N WRs cost one post_overhead, not N.
  Status post_many(std::span<fabric::SendWr> wrs) { return qp_->post_send_many(wrs); }

  /// Posts an empty receive (used for WRITE_WITH_IMM notifications where
  /// data lands via rkey and the receive only carries the event).
  Status post_recv_empty(std::uint64_t wr_id) { return qp_->post_recv({wr_id, {}}); }

  /// Tears the connection down; the peer sees errors on its next ops.
  void close();

 private:
  Connection(fabric::Device& dev, fabric::ProtectionDomain* pd);

  fabric::Device& dev_;
  fabric::ProtectionDomain* pd_;
  std::unique_ptr<fabric::CompletionQueue> send_cq_;
  std::unique_ptr<fabric::CompletionQueue> recv_cq_;
  fabric::QueuePair* qp_ = nullptr;
  Bytes accept_data_;
};

}  // namespace rfs::rdmalib
