#include "fabric/fabric.hpp"

namespace rfs::fabric {

QueuePair* ConnectRequest::accept(Device& dev, ProtectionDomain* pd, CompletionQueue* send_cq,
                                  CompletionQueue* recv_cq, Bytes reply_data) {
  QueuePair* qp = dev.create_qp(pd, send_cq, recv_cq);
  QueuePair::connect_pair(*client_qp_, *qp);
  decision_.set_value(Result<Connected>(Connected{client_qp_, std::move(reply_data)}));
  return qp;
}

void ConnectRequest::reject(std::string reason) {
  decision_.set_value(Result<Connected>(Error::make(10, "connection rejected: " + reason)));
}

sim::Task<std::shared_ptr<ConnectRequest>> Listener::accept() {
  auto item = co_await incoming_.recv();
  co_return item ? *item : nullptr;
}

void Listener::shutdown() { incoming_.close(); }

Fabric::Fabric(sim::Engine& engine, NetworkModel model)
    : engine_(engine), model_(model), switch_(engine, model) {}

Fabric::~Fabric() = default;

Device& Fabric::create_device(const std::string& name, sim::Host* host) {
  auto id = static_cast<DeviceId>(devices_.size());
  devices_.push_back(std::make_unique<Device>(*this, id, name, host));
  switch_.add_endpoint(id);
  return *devices_.back();
}

Device* Fabric::device(DeviceId id) const {
  return id < devices_.size() ? devices_[id].get() : nullptr;
}

std::uint32_t Fabric::locality(DeviceId id) const {
  auto* dev = device(id);
  return dev != nullptr ? dev->locality() : 0;
}

Listener& Fabric::listen(Device& dev, std::uint16_t port) {
  auto key = std::make_pair(dev.id(), port);
  auto [it, inserted] = listeners_.try_emplace(key, std::make_unique<Listener>());
  if (!inserted && it->second->incoming_.closed()) {
    it->second = std::make_unique<Listener>();
  }
  return *it->second;
}

void Fabric::stop_listening(Device& dev, std::uint16_t port) {
  auto it = listeners_.find(std::make_pair(dev.id(), port));
  if (it != listeners_.end()) {
    it->second->shutdown();
    listeners_.erase(it);
  }
}

sim::Task<Result<Connected>> Fabric::connect(Device& from, ProtectionDomain* pd,
                                             CompletionQueue* send_cq, CompletionQueue* recv_cq,
                                             DeviceId to, std::uint16_t port,
                                             Bytes private_data) {
  auto it = listeners_.find(std::make_pair(to, port));
  if (it == listeners_.end() || it->second->incoming_.closed()) {
    co_await sim::delay(model_.cm_handshake / 2);
    co_return Error::make(11, "connection refused: no listener");
  }
  // First half of the out-of-band exchange: route resolution + request.
  co_await sim::delay(model_.cm_handshake / 2);

  QueuePair* client_qp = from.create_qp(pd, send_cq, recv_cq);
  auto request = std::make_shared<ConnectRequest>(client_qp, std::move(private_data));
  auto decision = request->decision_.get_future();
  it->second->incoming_.send(request);

  Result<Connected> outcome = co_await decision.get();
  // Second half: reply + transition to RTS.
  co_await sim::delay(model_.cm_handshake / 2);
  if (!outcome) {
    from.destroy_qp(client_qp);
    co_return outcome.error();
  }
  co_return outcome;
}

}  // namespace rfs::fabric
