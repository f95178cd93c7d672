// Ablation study of three rFaaS design choices:
//   1. Leases vs centralized routing: what each warm/hot invocation would
//      cost if it still traversed the resource manager's control plane.
//   2. Busy polling vs blocking wait, on both the executor and the client.
//   3. The message-inlining ceiling (Fig. 8's 128 B effect).
#include "bench_common.hpp"
#include "net/tcp.hpp"

namespace rfs {
namespace {

using namespace rfs::bench;

const unsigned kReps = scaled_reps(31);

sim::Task<LatencyStats> measure(rfaas::Invoker& invoker, rfaas::InvocationPolicy policy,
                                bool polling_client, std::size_t payload) {
  rfaas::AllocationSpec spec;
  spec.function_name = "echo";
  spec.policy = policy;
  spec.polling_client = polling_client;
  auto st = co_await invoker.allocate(spec);
  if (!st.ok()) co_return LatencyStats{};
  auto in = invoker.input_buffer<std::uint8_t>(8192);
  auto out = invoker.output_buffer<std::uint8_t>(8192);
  auto stats = co_await measure_invocations(invoker, 0, in, payload, out, kReps);
  co_await invoker.deallocate();
  co_return stats;
}

void run() {
  banner("Ablation", "leases vs centralized routing; polling modes; inline ceiling");

  // --- 1. Lease-based direct invocation vs centralized per-invocation
  //        routing (every request detours through a control-plane service
  //        on the resource manager's host over TCP).
  {
    cluster::Harness p(paper_testbed());
    p.registry().add_echo();
    p.start();
    // A control-plane stand-in: TCP echo endpoint on the RM's device.
    auto& listener = p.tcp().listen(p.rm().device().id(), 9999);
    auto control_plane = [](net::TcpListener* l,
                            Duration processing) -> sim::Task<void> {
      while (true) {
        auto stream = co_await l->accept();
        if (!stream) break;
        auto serve = [](std::shared_ptr<net::TcpStream> s,
                        Duration proc) -> sim::Task<void> {
          while (true) {
            auto msg = co_await s->recv();
            if (!msg) break;
            co_await sim::delay(proc);  // placement decision
            s->send(std::move(*msg));
          }
        };
        sim::spawn(*sim::Engine::current(), serve(stream, processing));
      }
    };
    p.spawn(control_plane(&listener, p.config().lease_processing));

    LatencyStats direct;
    std::vector<double> routed;
    auto body = [&]() -> sim::Task<void> {
      auto invoker = p.make_invoker(0, 1);
      direct = co_await measure(*invoker, rfaas::InvocationPolicy::HotAlways, true, 64);

      // Centralized: same invocation, but preceded by a control-plane
      // round trip that re-resolves the placement every single time.
      auto invoker2 = p.make_invoker(0, 2);
      rfaas::AllocationSpec spec;
      spec.function_name = "echo";
      spec.policy = rfaas::InvocationPolicy::HotAlways;
      (void)co_await invoker2->allocate(spec);
      auto in = invoker2->input_buffer<std::uint8_t>(8192);
      auto out = invoker2->output_buffer<std::uint8_t>(8192);
      auto ctrl = co_await p.tcp().connect(p.client_device(0).id(), p.rm().device().id(), 9999);
      for (unsigned i = 0; i < kReps; ++i) {
        const Time t0 = p.engine().now();
        ctrl.value()->send(Bytes(48));  // "where does this invocation go?"
        (void)co_await ctrl.value()->recv();
        auto r = co_await invoker2->invoke(0, in, 64, out);
        if (r.ok) routed.push_back(static_cast<double>(p.engine().now() - t0));
      }
      co_await invoker2->deallocate();
    };
    p.spawn(body());
    p.run(p.engine().now() + 600_s);

    Table table({"scheme", "median RTT", "slowdown"});
    const double routed_median = Summary(routed).median();
    table.row({"leases (direct, rFaaS)", Table::us(direct.median), "1.00x"});
    table.row({"centralized routing", Table::us(routed_median),
               Table::num(routed_median / direct.median, 1) + "x"});
    emit(table, "ablation-leases");
  }

  // --- 2. Polling modes: executor hot/warm x client polling/blocking.
  {
    Table table({"executor", "client", "median RTT"});
    for (auto policy : {rfaas::InvocationPolicy::HotAlways,
                        rfaas::InvocationPolicy::WarmAlways}) {
      for (bool polling : {true, false}) {
        cluster::Harness p(paper_testbed());
        p.registry().add_echo();
        p.start();
        LatencyStats stats;
        auto body = [&]() -> sim::Task<void> {
          auto invoker = p.make_invoker(0, 1);
          stats = co_await measure(*invoker, policy, polling, 64);
        };
        p.spawn(body());
        p.run(p.engine().now() + 600_s);
        table.row({policy == rfaas::InvocationPolicy::HotAlways ? "hot (busy poll)"
                                                                : "warm (blocking)",
                   polling ? "busy poll" : "blocking", Table::us(stats.median)});
      }
    }
    emit(table, "ablation-polling");
  }

  // --- 3. Inline ceiling sweep at a 64 B payload (96 B on the wire).
  {
    Table table({"max_inline", "hot median (64 B payload)"});
    for (std::uint32_t ceiling : {0u, 64u, 128u, 256u}) {
      auto spec = paper_testbed();
      spec.config.network.max_inline = ceiling;
      cluster::Harness p(spec);
      p.registry().add_echo();
      p.start();
      LatencyStats stats;
      auto body = [&]() -> sim::Task<void> {
        auto invoker = p.make_invoker(0, 1);
        stats = co_await measure(*invoker, rfaas::InvocationPolicy::HotAlways, true, 64);
      };
      p.spawn(body());
      p.run(p.engine().now() + 600_s);
      table.row({std::to_string(ceiling) + " B", Table::us(stats.median)});
    }
    emit(table, "ablation-inline");
    std::printf("The 32-byte header pushes a 64 B payload to 96 B on the wire: ceilings\n"
                "below 96 B force the PCIe DMA read on the request path (Fig. 8 effect).\n");
  }
}

}  // namespace
}  // namespace rfs

int main() {
  rfs::run();
  return 0;
}
