// Fabric: the top-level RDMA substrate object. Owns the switch, devices,
// and the rdma_cm-style connection manager (listeners, connect/accept with
// out-of-band handshake latency and private data).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "fabric/device.hpp"
#include "fabric/link.hpp"
#include "fabric/qp.hpp"
#include "sim/sync.hpp"

namespace rfs::fabric {

/// Outcome of a successful connect(): the initiator's QP plus the private
/// data the acceptor attached to its reply (rdma_cm carries private data
/// in both directions of the handshake).
struct Connected {
  QueuePair* qp = nullptr;
  Bytes accept_data;
};

/// An in-flight connection request delivered to a listener. The acceptor
/// inspects the private data and either accepts (creating its own QP) or
/// rejects.
class ConnectRequest {
 public:
  ConnectRequest(QueuePair* client_qp, Bytes private_data)
      : client_qp_(client_qp), private_data_(std::move(private_data)) {}

  [[nodiscard]] const Bytes& private_data() const { return private_data_; }

  /// Accepts: creates the responder QP on `dev` and connects the pair.
  /// `reply_data` is delivered to the initiator as Connected::accept_data.
  QueuePair* accept(Device& dev, ProtectionDomain* pd, CompletionQueue* send_cq,
                    CompletionQueue* recv_cq, Bytes reply_data = {});

  /// Rejects the connection; the initiator's connect() returns an error.
  void reject(std::string reason);

 private:
  friend class Fabric;
  QueuePair* client_qp_;
  Bytes private_data_;
  sim::Promise<Result<Connected>> decision_;
};

/// Listening endpoint identified by (device, port).
class Listener {
 public:
  /// Waits for the next connection request. Returns nullptr if the
  /// listener was shut down.
  sim::Task<std::shared_ptr<ConnectRequest>> accept();

  /// Closes the listener; pending and future accepts return nullptr.
  void shutdown();

  [[nodiscard]] std::size_t backlog() const { return incoming_.size(); }

 private:
  friend class Fabric;
  sim::Channel<std::shared_ptr<ConnectRequest>> incoming_;
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, NetworkModel model = {});
  ~Fabric();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const NetworkModel& model() const { return model_; }
  [[nodiscard]] Switch& net() { return switch_; }

  /// Creates a NIC attached to `host` (host may be null in fabric tests).
  Device& create_device(const std::string& name, sim::Host* host = nullptr);

  [[nodiscard]] Device* device(DeviceId id) const;

  /// Topology group of a device's NIC; 0 when the device is unknown.
  [[nodiscard]] std::uint32_t locality(DeviceId id) const;

  /// Starts listening on (device, port). Port must be unused.
  Listener& listen(Device& dev, std::uint16_t port);

  /// Stops listening on (device, port).
  void stop_listening(Device& dev, std::uint16_t port);

  /// Connects to a remote listener: out-of-band handshake (cm_handshake),
  /// QP creation on both sides, transition to RTS. The returned QP is
  /// ready for use. Fails when nobody listens or the acceptor rejects.
  sim::Task<Result<Connected>> connect(Device& from, ProtectionDomain* pd,
                                       CompletionQueue* send_cq, CompletionQueue* recv_cq,
                                       DeviceId to, std::uint16_t port,
                                       Bytes private_data = {});

  /// The memory keys of every registration on the fabric.
  [[nodiscard]] KeyTable& keys() { return keys_; }
  [[nodiscard]] const KeyTable& keys() const { return keys_; }

  // Internal id allocator.
  std::uint32_t next_qp_num() { return next_qpn_++; }

 private:
  sim::Engine& engine_;
  NetworkModel model_;
  Switch switch_;
  KeyTable keys_;  // before devices_: their protection domains release keys as they go
  std::vector<std::unique_ptr<Device>> devices_;
  std::map<std::pair<DeviceId, std::uint16_t>, std::unique_ptr<Listener>> listeners_;
  std::uint32_t next_qpn_ = 1;
};

}  // namespace rfs::fabric
