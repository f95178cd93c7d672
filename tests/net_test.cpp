// Tests for the TCP overlay and the HTTP message model.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "net/faulty.hpp"
#include "net/http.hpp"
#include "net/tcp.hpp"

namespace rfs::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eng.make_current();
    devA = &fab.create_device("A");
    devB = &fab.create_device("B");
  }

  /// Connects A to B and runs until both ends exist: the link is idle.
  std::pair<std::shared_ptr<TcpStream>, std::shared_ptr<TcpStream>> connected_pair() {
    auto& listener = tcp.listen(devB->id(), 80);
    std::shared_ptr<TcpStream> client, server;
    auto acceptor = [&]() -> sim::Task<void> { server = co_await listener.accept(); };
    auto connector = [&]() -> sim::Task<void> {
      client = (co_await tcp.connect(devA->id(), devB->id(), 80)).value();
    };
    sim::spawn(eng, acceptor());
    sim::spawn(eng, connector());
    eng.run();
    return {client, server};
  }

  /// Receives up to `n` messages on `stream`, recording when each landed
  /// and its first byte; `closed` is set when recv() returned nullopt.
  sim::Task<void> receive(std::shared_ptr<TcpStream> stream, int n) {
    for (int i = 0; i < n; ++i) {
      auto msg = co_await stream->recv();
      if (!msg) {
        closed = true;
        co_return;
      }
      landed.emplace_back(eng.now(), (*msg)[0]);
    }
  }

  sim::Engine eng;
  fabric::Fabric fab{eng};
  fabric::Device* devA = nullptr;
  fabric::Device* devB = nullptr;
  TcpNetwork tcp{eng, fab.net()};
  std::vector<std::pair<Time, std::uint8_t>> landed;
  bool closed = false;
};

TEST_F(NetTest, ConnectSendReceive) {
  auto& listener = tcp.listen(devB->id(), 80);
  Bytes received;
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto msg = co_await stream->recv();
    if (msg) received = *msg;
    stream->send(Bytes{42});
  };
  Bytes reply;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    EXPECT_TRUE(res.ok());
    auto stream = res.value();
    Bytes payload(1000);
    fill_pattern(payload, 7);
    stream->send(payload);
    auto r = co_await stream->recv();
    if (r) reply = *r;
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_EQ(received.size(), 1000u);
  EXPECT_EQ(reply, Bytes{42});
}

TEST_F(NetTest, TcpSlowerThanRdmaForSmallMessages) {
  // One TCP round trip must exceed the RDMA ping-pong RTT (Fig. 8).
  auto& listener = tcp.listen(devB->id(), 80);
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto msg = co_await stream->recv();
    (void)msg;
    stream->send(Bytes{1});
  };
  Time start = 0, end = 0;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    auto stream = res.value();
    start = eng.now();
    stream->send(Bytes{1});
    (void)co_await stream->recv();
    end = eng.now();
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  Duration rtt = end - start;
  EXPECT_GT(rtt, 15_us);  // ~19 us with the netperf-calibrated model
  EXPECT_LT(rtt, 25_us);
}

TEST_F(NetTest, ConnectionRefusedWithoutListener) {
  bool refused = false;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 12345);
    refused = !res.ok();
  };
  sim::spawn(eng, client());
  eng.run();
  EXPECT_TRUE(refused);
}

TEST_F(NetTest, CloseWakesPeer) {
  auto& listener = tcp.listen(devB->id(), 80);
  bool saw_close = false;
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto msg = co_await stream->recv();
    saw_close = !msg.has_value();
  };
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    res.value()->close();
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_TRUE(saw_close);
}

TEST_F(NetTest, MessagesStayOrdered) {
  auto& listener = tcp.listen(devB->id(), 80);
  std::vector<std::uint8_t> order;
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    for (int i = 0; i < 5; ++i) {
      auto msg = co_await stream->recv();
      if (msg) order.push_back((*msg)[0]);
    }
  };
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    for (std::uint8_t i = 0; i < 5; ++i) {
      Bytes b(1 + 100 * i);  // varying sizes must not reorder delivery
      b[0] = i;
      res.value()->send(std::move(b));
    }
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

TEST_F(NetTest, MessageLandsAtTheModelledInstant) {
  auto [client, server] = connected_pair();
  const auto& model = fab.net().model();
  const Duration ser = transfer_time(1000, model.tcp_bandwidth_Bps);
  const Duration idle_trip = 2 * model.tcp_stack_latency + model.wire_latency + ser;
  auto message = [](std::uint8_t tag) {
    Bytes b(1000);
    b[0] = tag;
    return b;
  };

  // Idle link, then a second message sent at the same instant: it
  // serializes behind the first.
  sim::spawn(eng, receive(server, 2));
  eng.run();
  const Time t0 = eng.now();
  client->send(message(1));
  client->send(message(2));
  eng.run();
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_EQ(landed[0], std::make_pair(t0 + idle_trip, std::uint8_t{1}));
  EXPECT_EQ(landed[1], std::make_pair(t0 + idle_trip + ser, std::uint8_t{2}));

  // A chaos hold of exactly `hold` delays the landing by exactly that.
  FaultInjector faults;
  const Duration hold = 300_us;
  FaultSpec delayed;
  delayed.delay_p = 1.0;
  delayed.delay_min = delayed.delay_max = hold;
  faults.set_default(delayed);
  tcp.set_fault_injector(&faults);
  landed.clear();
  sim::spawn(eng, receive(server, 1));
  eng.run();
  const Time t1 = eng.now();
  client->send(message(3));
  eng.run();
  ASSERT_EQ(landed.size(), 1u);
  EXPECT_EQ(landed[0], std::make_pair(t1 + hold + idle_trip, std::uint8_t{3}));

  // A duplicate pays its own serialization right behind the original.
  FaultSpec duplicated;
  duplicated.dup_p = 1.0;
  faults.set_default(duplicated);
  landed.clear();
  sim::spawn(eng, receive(server, 2));
  eng.run();
  const Time t2 = eng.now();
  client->send(message(4));
  eng.run();
  ASSERT_EQ(landed.size(), 2u);
  EXPECT_EQ(landed[0], std::make_pair(t2 + idle_trip, std::uint8_t{4}));
  EXPECT_EQ(landed[1], std::make_pair(t2 + idle_trip + ser, std::uint8_t{4}));
  EXPECT_EQ(faults.counters().duplicated, 1u);
  tcp.set_fault_injector(nullptr);
}

TEST_F(NetTest, AMessageCostsThreeEngineEvents) {
  // The wire reservation, the landing and the receiver's wake.
  constexpr int kMessages = 20;
  auto [client, server] = connected_pair();
  sim::spawn(eng, receive(server, kMessages));
  eng.run();  // the receiver is waiting
  for (int i = 0; i < kMessages; ++i) client->send(Bytes(100, static_cast<std::uint8_t>(i)));
  std::size_t events = 0;
  while (eng.step()) ++events;
  ASSERT_EQ(landed.size(), static_cast<std::size_t>(kMessages));
  EXPECT_LE(events, 3u * kMessages + 2);
}

TEST_F(NetTest, InFlightMessageToAClosedPeerIsDropped) {
  auto [client, server] = connected_pair();
  const auto& model = fab.net().model();
  const std::size_t before = eng.detached_count();
  sim::spawn(eng, receive(server, 1));
  eng.run();  // the receiver is waiting
  const Time t0 = eng.now();
  client->send(Bytes(1000, 7));
  // Past the wire reservation, before the landing.
  eng.run_until(t0 + model.tcp_stack_latency + model.wire_latency);
  EXPECT_EQ(eng.detached_count(), before + 2);  // the receiver and the message in flight
  server->close();
  eng.run();
  EXPECT_TRUE(closed);
  EXPECT_TRUE(landed.empty());
  EXPECT_EQ(eng.detached_count(), before);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/2015-03-31/functions/echo/invocations";
  req.headers["Host"] = "lambda.example.com";
  req.body = "{\"payload\":\"abc\"}";
  auto raw = req.serialize();
  auto parsed = HttpRequest::parse(raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method, "POST");
  EXPECT_EQ(parsed.value().path, req.path);
  EXPECT_EQ(parsed.value().body, req.body);
  EXPECT_EQ(parsed.value().headers.at("Host"), "lambda.example.com");
  EXPECT_EQ(parsed.value().headers.at("Content-Length"), "17");
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 413;
  resp.body = "too big";
  auto raw = resp.serialize();
  auto parsed = HttpResponse::parse(raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 413);
  EXPECT_FALSE(parsed.value().ok());
  EXPECT_EQ(parsed.value().body, "too big");
}

TEST(Http, RejectsContentLengthMismatch) {
  HttpRequest req;
  req.body = "hello";
  auto raw = req.serialize();
  raw.pop_back();  // truncate body
  EXPECT_FALSE(HttpRequest::parse(raw).ok());
}

TEST(Http, RejectsGarbage) {
  Bytes junk{'n', 'o', 'p', 'e'};
  EXPECT_FALSE(HttpRequest::parse(junk).ok());
  EXPECT_FALSE(HttpResponse::parse(junk).ok());
}

TEST_F(NetTest, HttpOverTcp) {
  auto& listener = tcp.listen(devB->id(), 8080);
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto req = co_await http_read_request(*stream);
    EXPECT_TRUE(req.has_value());
    HttpResponse resp;
    resp.status = 200;
    resp.body = req->body;  // echo
    http_write_response(*stream, resp);
  };
  std::string echoed;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 8080);
    HttpRequest req;
    req.body = "ping-body";
    auto resp = co_await http_roundtrip(*res.value(), req);
    EXPECT_TRUE(resp.ok());
    echoed = resp.value().body;
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_EQ(echoed, "ping-body");
}

}  // namespace
}  // namespace rfs::net
