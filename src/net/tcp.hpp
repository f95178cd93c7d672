// TCP-style reliable messaging over the same simulated switch.
//
// The control plane of rFaaS (lease requests, allocator traffic) and the
// baseline FaaS platforms run over this transport. It shares the physical
// links with RDMA traffic but pays the kernel network stack cost on both
// sides and a lower effective single-stream bandwidth — the difference
// Fig. 8 plots between "RDMA" and "TCP/IP".
//
// The stream is message-oriented: one send() delivers one framed message,
// as if the application ran a length-prefixed protocol over a socket.
//
// A message costs the engine two wakes before its receiver's. send()
// draws the chaos decision (drop, copies, hold) at the send instant and
// starts one transmit per copy, due after the hold and the sender's stack
// latency. There the transmit reserves the link, then wakes once more
// after the wire arrival plus the receiver's stack latency to put the
// message in the peer's inbox.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "fabric/link.hpp"
#include "sim/sync.hpp"

namespace rfs::net {

class FaultInjector;
class TcpNetwork;

/// One direction-agnostic endpoint pair. Obtain via connect()/accept().
class TcpStream : public std::enable_shared_from_this<TcpStream> {
 public:
  /// Sends one framed message to the peer (returns immediately; delivery
  /// is asynchronous, ordered, and reliable).
  void send(Bytes message);

  /// Receives the next message; nullopt when the peer closed. Await it
  /// at once: the awaiter refers to this stream's inbox.
  sim::Channel<Bytes>::RecvAwaiter recv() { return inbox_.recv(); }

  /// Closes both directions; the peer's pending recv() returns nullopt.
  void close();

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] fabric::DeviceId remote_device() const { return remote_; }

 private:
  friend class TcpNetwork;
  TcpStream(TcpNetwork& net, fabric::DeviceId local, fabric::DeviceId remote)
      : net_(net), local_(local), remote_(remote) {}

  /// Carries one copy of a message from its wire reservation to `peer`'s
  /// inbox.
  static sim::Task<void> transmit(std::shared_ptr<TcpStream> peer, Bytes message);

  TcpNetwork& net_;
  fabric::DeviceId local_;
  fabric::DeviceId remote_;
  std::shared_ptr<TcpStream> peer_;
  sim::Channel<Bytes> inbox_;
  bool closed_ = false;
};

/// Listening socket.
class TcpListener {
 public:
  /// Waits for the next inbound connection; nullptr after shutdown().
  sim::Task<std::shared_ptr<TcpStream>> accept();

  void shutdown() { pending_.close(); }

 private:
  friend class TcpNetwork;
  sim::Channel<std::shared_ptr<TcpStream>> pending_;
};

/// Factory for listeners and outbound connections.
class TcpNetwork {
 public:
  TcpNetwork(sim::Engine& engine, fabric::Switch& net) : engine_(engine), switch_(net) {}
  ~TcpNetwork();

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] fabric::Switch& link() { return switch_; }
  [[nodiscard]] const fabric::NetworkModel& model() const { return switch_.model(); }

  /// Binds a listener to (device, port).
  TcpListener& listen(fabric::DeviceId dev, std::uint16_t port);

  /// Connects to a listening endpoint; pays the handshake latency.
  sim::Task<Result<std::shared_ptr<TcpStream>>> connect(fabric::DeviceId from,
                                                        fabric::DeviceId to, std::uint16_t port);

  /// Installs (or clears, with nullptr) the chaos decision source every
  /// message consults before touching the wire. Not owned; the injector
  /// must outlive the network. nullptr (the default) is the seed
  /// behaviour: exactly-once, in-order delivery.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return faults_; }

 private:
  void track(const std::shared_ptr<TcpStream>& stream);

  sim::Engine& engine_;
  fabric::Switch& switch_;
  FaultInjector* faults_ = nullptr;
  std::map<std::pair<fabric::DeviceId, std::uint16_t>, std::unique_ptr<TcpListener>> listeners_;
  /// Every stream pair ever created (client side; the peer link reaches
  /// the server side). Only used to break peer cycles at teardown.
  std::vector<std::weak_ptr<TcpStream>> streams_;
};

}  // namespace rfs::net
