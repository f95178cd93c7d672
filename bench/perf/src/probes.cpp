// Calibration probes of the traced run. Each measures one layer alone,
// so a change in an end-to-end number can be traced to the layer whose
// constant moved: the raw RDMA and TCP round trips under the invocation
// and grant paths, the wall-clock cost of the control-plane codecs, and
// the unloaded invocation legs the wait metric subtracts.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fabric/cq.hpp"
#include "fabric/fabric.hpp"
#include "fabric/qp.hpp"
#include "net/tcp.hpp"
#include "perf.hpp"
#include "rfaas/protocol.hpp"

namespace rfs::perf {
namespace {

/// Keeps the codec loops' results observable.
volatile std::uint64_t g_sink = 0;

/// Median over 5 repetitions of the wall-clock ns per call of `body`,
/// which runs `iterations` calls and returns a checksum of their results.
template <typename Body>
double time_per_call_ns(Body body) {
  constexpr std::uint64_t kIterations = 200'000;
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    g_sink = g_sink + body(kIterations);
    const std::chrono::duration<double, std::nano> spent = std::chrono::steady_clock::now() - t0;
    reps.push_back(spent.count() / static_cast<double>(kIterations));
  }
  return percentile(std::move(reps), 50);
}

/// Runs `body` on a fresh engine until the engine idles.
template <typename Body>
void run_alone(Body body) {
  sim::Engine engine;
  engine.make_current();
  fabric::Fabric fab(engine);
  body(engine, fab);
}

}  // namespace

double probe_rdma_rtt_us(std::uint32_t bytes) {
  // One WRITE_WITH_IMM ping-pong between two idle NICs, inlined when it
  // fits — the shape of fig08's rdma_pingpong.
  Duration rtt = 0;
  run_alone([&](sim::Engine& engine, fabric::Fabric& fab) {
    auto& a = fab.create_device("a");
    auto& b = fab.create_device("b");
    auto* pda = a.alloc_pd();
    auto* pdb = b.alloc_pd();
    fabric::CompletionQueue sa(fab.model()), ra(fab.model()), sb(fab.model()), rb(fab.model());
    auto* qa = a.create_qp(pda, &sa, &ra);
    auto* qb = b.create_qp(pdb, &sb, &rb);
    fabric::QueuePair::connect_pair(*qa, *qb);
    std::vector<std::uint8_t> ba(bytes), bb(bytes);
    const auto access = fabric::LocalWrite | fabric::RemoteWrite;
    auto* mra = pda->register_memory(ba.data(), ba.size(), access);
    auto* mrb = pdb->register_memory(bb.data(), bb.size(), access);
    const bool inl = bytes <= fab.model().max_inline;
    auto post = [&](fabric::QueuePair* qp, std::vector<std::uint8_t>& src, std::uint32_t lkey,
                    std::vector<std::uint8_t>& dst, std::uint32_t rkey) {
      fabric::SendWr wr;
      wr.opcode = fabric::Opcode::WriteImm;
      wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), bytes, lkey}};
      wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
      wr.rkey = rkey;
      wr.inline_data = inl;
      wr.signaled = false;
      (void)qp->post_send(wr);
    };
    auto body = [&]() -> sim::Task<void> {
      const Time start = engine.now();
      (void)qb->post_recv({1, {}});
      (void)qa->post_recv({2, {}});
      post(qa, ba, mra->lkey(), bb, mrb->rkey());
      (void)co_await rb.wait_polling();
      post(qb, bb, mrb->lkey(), ba, mra->rkey());
      (void)co_await ra.wait_polling();
      rtt = engine.now() - start;
    };
    sim::spawn(engine, body());
    engine.run();
  });
  return to_us(rtt);
}

double probe_tcp_rtt_us(std::uint32_t bytes) {
  // One echo round trip on an established TcpNetwork stream.
  Duration rtt = 0;
  run_alone([&](sim::Engine& engine, fabric::Fabric& fab) {
    auto& a = fab.create_device("a");
    auto& b = fab.create_device("b");
    net::TcpNetwork tcp(engine, fab.net());
    auto& listener = tcp.listen(b.id(), 80);
    auto echo = [](net::TcpListener* l) -> sim::Task<void> {
      auto stream = co_await l->accept();
      while (auto msg = co_await stream->recv()) stream->send(std::move(*msg));
    };
    auto body = [&]() -> sim::Task<void> {
      auto conn = co_await tcp.connect(a.id(), b.id(), 80);
      if (!conn.ok()) co_return;
      const Time start = engine.now();
      conn.value()->send(Bytes(bytes));
      (void)co_await conn.value()->recv();
      rtt = engine.now() - start;
      conn.value()->close();
    };
    sim::spawn(engine, echo(&listener));
    sim::spawn(engine, body());
    engine.run();
  });
  return to_us(rtt);
}

double probe_encode_lease_request_ns() {
  rfaas::LeaseRequestMsg m;
  m.client_id = 101;
  m.workers = 1;
  m.memory_bytes = 64_MiB;
  m.timeout = 30_s;
  std::array<std::uint8_t, 256> buf{};
  return time_per_call_ns([&](std::uint64_t n) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      m.request_id = i;
      sum += rfaas::encode_into(m, buf.data(), buf.size()) + buf[i % 32];
    }
    return sum;
  });
}

double probe_decode_lease_grant_ns() {
  rfaas::LeaseGrantMsg m;
  m.lease_id = 0x0003000000001234ull;
  m.device = 17;
  m.alloc_port = 7000;
  m.rdma_port = 7001;
  m.workers = 1;
  m.expires_at = 30_s;
  m.request_id = (1ull << 32) | 42;
  std::array<std::uint8_t, 256> buf{};
  const std::size_t len = rfaas::encode_into(m, buf.data(), buf.size());
  return time_per_call_ns([&](std::uint64_t n) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      buf[len - 1] = static_cast<std::uint8_t>(i);  // vary the request id
      auto g = rfaas::decode_lease_grant({buf.data(), len});
      if (g.ok()) sum += g.value().lease_id + g.value().request_id;
    }
    return sum;
  });
}

double probe_encode_invocation_header_ns() {
  rfaas::InvocationHeader h;
  h.result_addr = 0x7f0000001000ull;
  h.result_rkey = 9;
  std::array<std::uint8_t, rfaas::InvocationHeader::kSize> buf{};
  return time_per_call_ns([&](std::uint64_t n) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      h.invocation_tag = i;
      sum += rfaas::encode_into(h, buf.data(), buf.size()) + buf[i % 32];
    }
    return sum;
  });
}

UnloadedLegs probe_invocations(const cluster::ScenarioSpec& spec,
                               rfaas::InvocationPolicy policy, bool pooled,
                               Duration ns_per_byte) {
  cluster::Harness h(spec);
  auto log = std::make_shared<EntryLog>();
  log->arm(true);
  register_echo(h.registry(), log, ns_per_byte);
  h.start();
  auto invoker = h.make_invoker(0, 1);

  constexpr std::uint32_t kMax = 4096;
  UnloadedLegs legs;
  bool failed = false;
  auto body = [&]() -> sim::Task<void> {
    rfaas::AllocationSpec alloc;
    alloc.function_name = "perf_echo";
    alloc.workers = 1;
    alloc.policy = policy;
    if (!(co_await invoker->allocate(alloc)).ok()) {
      failed = true;
      co_return;
    }
    auto in = invoker->input_buffer<std::uint8_t>(kMax);
    auto out = invoker->output_buffer<std::uint8_t>(kMax);
    if (pooled) invoker->reserve_slots(1, kMax, kMax);
    std::uint64_t op = 1;
    for (std::uint32_t size = 8; size <= kMax; size *= 2) {
      std::vector<double> request;
      for (int rep = 0; rep < 5; ++rep, ++op) {
        std::memcpy(in.data(), &op, sizeof op);
        const Time due = h.engine().now();
        const auto r = pooled ? co_await invoker->invoke_pooled(0, {in.data(), size})
                              : co_await invoker->invoke(0, in, size, out);
        const auto entry = log->take(op);
        if (!r.ok || !entry) {
          failed = true;
          co_return;
        }
        request.push_back(static_cast<double>(*entry - due));
        if (size == 64) legs.rtt_64 = r.completed_at - due;
      }
      legs.request_leg[size] = static_cast<Duration>(percentile(std::move(request), 50));
    }
    co_await invoker->deallocate();
  };
  bool done = false;
  h.spawn(then_set(body(), done));
  Stepper{h.engine()}.run(done);
  if (failed) {
    std::fprintf(stderr, "rfaas_perf: the unloaded invocation probe failed\n");
    std::exit(1);
  }
  return legs;
}

}  // namespace rfs::perf
