#include "rdmalib/connection.hpp"

namespace rfs::rdmalib {

Connection::Connection(fabric::Device& dev, fabric::ProtectionDomain* pd)
    : dev_(dev),
      pd_(pd),
      send_cq_(std::make_unique<fabric::CompletionQueue>(dev.fabric().model())),
      recv_cq_(std::make_unique<fabric::CompletionQueue>(dev.fabric().model())) {}

Connection::~Connection() { close(); }

sim::Task<Result<std::unique_ptr<Connection>>> Connection::connect(
    fabric::Fabric& fabric, fabric::Device& from, fabric::ProtectionDomain* pd,
    fabric::DeviceId to, std::uint16_t port, Bytes private_data) {
  auto conn = std::unique_ptr<Connection>(new Connection(from, pd));
  auto result = co_await fabric.connect(from, pd, conn->send_cq_.get(), conn->recv_cq_.get(), to,
                                        port, std::move(private_data));
  if (!result) co_return result.error();
  conn->qp_ = result.value().qp;
  conn->accept_data_ = result.value().accept_data;
  co_return std::move(conn);
}

std::unique_ptr<Connection> Connection::accept(fabric::ConnectRequest& request,
                                               fabric::Device& dev,
                                               fabric::ProtectionDomain* pd, Bytes reply_data) {
  auto conn = std::unique_ptr<Connection>(new Connection(dev, pd));
  conn->qp_ =
      request.accept(dev, pd, conn->send_cq_.get(), conn->recv_cq_.get(), std::move(reply_data));
  return conn;
}

Status Connection::post_write(const fabric::Sge& sge, const RemoteBuffer& dst,
                              std::uint64_t wr_id, bool inline_data) {
  fabric::SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = fabric::Opcode::Write;
  wr.sge.push_back(sge);
  wr.remote_addr = dst.addr;
  wr.rkey = dst.rkey;
  wr.inline_data = inline_data;
  return qp_->post_send(std::move(wr));
}

Status Connection::post_write_imm(const fabric::Sge& sge, const RemoteBuffer& dst,
                                  std::uint32_t imm, std::uint64_t wr_id, bool inline_data) {
  fabric::SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = fabric::Opcode::WriteImm;
  wr.sge.push_back(sge);
  wr.remote_addr = dst.addr;
  wr.rkey = dst.rkey;
  wr.imm = imm;
  wr.inline_data = inline_data;
  return qp_->post_send(std::move(wr));
}

Status Connection::post_fetch_add(std::uint64_t* local_result, std::uint32_t result_lkey,
                                  std::uint64_t remote_addr, std::uint32_t rkey,
                                  std::uint64_t add, std::uint64_t wr_id) {
  fabric::SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = fabric::Opcode::FetchAdd;
  wr.sge.push_back(
      fabric::Sge{reinterpret_cast<std::uint64_t>(local_result), 8, result_lkey});
  wr.remote_addr = remote_addr;
  wr.rkey = rkey;
  wr.swap_or_add = add;
  return qp_->post_send(std::move(wr));
}

void Connection::close() {
  if (qp_ != nullptr) {
    dev_.destroy_qp(qp_);
    qp_ = nullptr;
  }
}

}  // namespace rfs::rdmalib
