#include "net/tcp.hpp"

#include "net/faulty.hpp"

namespace rfs::net {

void TcpStream::send(Bytes message) {
  if (closed_ || !peer_) return;
  auto& engine = net_.engine();
  Duration extra_delay = 0;
  unsigned copies = 0;
  if (auto* faults = net_.fault_injector()) {
    const auto fate = faults->decide(local_, remote_, engine.now());
    if (fate.drop) return;
    extra_delay = fate.extra_delay;
    copies = fate.duplicates;
  }
  // Chaos hold (messages sent later can overtake this one), then the
  // sender-side stack traversal (syscall, segmentation, checksum).
  const Time at = engine.now() + extra_delay + net_.model().tcp_stack_latency;
  // Copies re-enter the wire independently (each pays its own stack and
  // link costs) but never re-roll the dice: one decision governs one
  // logical send. The original starts first.
  sim::spawn_at(engine, at, transmit(peer_, copies > 0 ? Bytes(message) : std::move(message)));
  for (unsigned copy = 0; copy < copies; ++copy) {
    sim::spawn_at(engine, at, transmit(peer_, message));
  }
}

sim::Task<void> TcpStream::transmit(std::shared_ptr<TcpStream> peer, Bytes message) {
  // Runs from the peer's side of the pair, which this frame keeps alive:
  // the sending endpoint may be gone by now.
  auto& net = peer->net_;
  const Time arrival = net.link().reserve_tcp(peer->remote_, peer->local_, message.size());
  // Receiver-side stack traversal (interrupt, reassembly, socket wake-up).
  co_await sim::delay_until(arrival + net.model().tcp_stack_latency);
  if (!peer->closed_) peer->inbox_.send(std::move(message));
}

void TcpStream::close() {
  if (closed_) return;
  closed_ = true;
  inbox_.close();
  if (peer_) {
    if (!peer_->closed_) {
      peer_->inbox_.close();
      peer_->closed_ = true;
    }
    // Break the endpoint pair's shared_ptr cycle: each side was keeping
    // the other alive, so unreferenced closed pairs would never free.
    peer_->peer_.reset();
    peer_.reset();
  }
}

sim::Task<std::shared_ptr<TcpStream>> TcpListener::accept() {
  auto item = co_await pending_.recv();
  co_return item ? *item : nullptr;
}

TcpListener& TcpNetwork::listen(fabric::DeviceId dev, std::uint16_t port) {
  auto key = std::make_pair(dev, port);
  auto [it, inserted] = listeners_.try_emplace(key, std::make_unique<TcpListener>());
  if (!inserted && it->second->pending_.closed()) {
    it->second = std::make_unique<TcpListener>();
  }
  return *it->second;
}

sim::Task<Result<std::shared_ptr<TcpStream>>> TcpNetwork::connect(fabric::DeviceId from,
                                                                  fabric::DeviceId to,
                                                                  std::uint16_t port) {
  co_await sim::delay(model().tcp_connect_latency);
  auto it = listeners_.find(std::make_pair(to, port));
  if (it == listeners_.end() || it->second->pending_.closed()) {
    co_return Error::make(11, "tcp: connection refused");
  }
  auto client = std::shared_ptr<TcpStream>(new TcpStream(*this, from, to));
  auto server = std::shared_ptr<TcpStream>(new TcpStream(*this, to, from));
  client->peer_ = server;
  server->peer_ = client;
  track(client);
  it->second->pending_.send(server);
  co_return client;
}

void TcpNetwork::track(const std::shared_ptr<TcpStream>& stream) {
  // Amortized pruning keeps the registry proportional to live streams.
  if (streams_.size() >= 64 && streams_.size() == streams_.capacity()) {
    std::erase_if(streams_, [](const std::weak_ptr<TcpStream>& w) { return w.expired(); });
  }
  streams_.push_back(stream);
}

TcpNetwork::~TcpNetwork() {
  // Streams that were never close()d still hold their peer cycle; break
  // it so endpoint pairs referenced by nobody else are freed.
  for (auto& weak : streams_) {
    if (auto stream = weak.lock()) stream->peer_.reset();
  }
}

}  // namespace rfs::net
