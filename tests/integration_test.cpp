// Cross-module integration scenarios beyond the per-module suites:
// multi-tenant isolation, oversubscription stress, capacity lifecycle,
// parameterized policy/payload sweeps, and failure injection.
#include <gtest/gtest.h>

#include "cluster/harness.hpp"
#include "workloads/faas_functions.hpp"
#include "workloads/image.hpp"

namespace rfs::rfaas {
namespace {

template <typename MakeTask>
void drive(cluster::Harness& p, Duration horizon, MakeTask&& make_task) {
  bool finished = false;
  auto wrapper = [](bool* done, sim::Task<void> inner) -> sim::Task<void> {
    co_await std::move(inner);
    *done = true;
  };
  sim::spawn(p.engine(), wrapper(&finished, make_task()));
  p.run(p.engine().now() + horizon);
  ASSERT_TRUE(finished) << "scenario did not finish within the horizon";
}

TEST(Integration, TenBillingIsIsolatedPerTenant) {
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/2, /*cores=*/8);
  fleet.config.billing_flush_period = 20_ms;
  cluster::Harness p(fleet);
  p.registry().add_echo();
  CodePackage busy;
  busy.name = "busy";
  busy.entry = [](const void*, std::uint32_t, void*) -> std::uint32_t { return 0; };
  busy.cost = [](std::uint32_t) -> Duration { return 2_ms; };
  p.registry().add(std::move(busy));
  p.start();

  auto heavy = p.make_invoker(0, 100);
  auto light = p.make_invoker(0, 101);
  drive(p, 120_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "busy";
    spec.policy = InvocationPolicy::WarmAlways;
    EXPECT_TRUE((co_await heavy->allocate(spec)).ok());
    spec.function_name = "echo";
    EXPECT_TRUE((co_await light->allocate(spec)).ok());
    auto in_h = heavy->input_buffer<std::uint8_t>(64);
    auto out_h = heavy->output_buffer<std::uint8_t>(64);
    auto in_l = light->input_buffer<std::uint8_t>(64);
    auto out_l = light->output_buffer<std::uint8_t>(64);
    for (int i = 0; i < 10; ++i) {
      (void)co_await heavy->invoke(0, in_h, 8, out_h);
      (void)co_await light->invoke(0, in_l, 8, out_l);
    }
    co_await heavy->deallocate();
    co_await light->deallocate();
    co_await sim::delay(100_ms);
  });

  auto heavy_usage = p.rm().billing().usage(100);
  auto light_usage = p.rm().billing().usage(101);
  // 10 invocations x 2 ms >> 10 echo dispatches.
  EXPECT_GE(heavy_usage.compute_ns, 10 * 2_ms);
  EXPECT_LT(light_usage.compute_ns, 1_ms);
  EXPECT_GT(p.rm().billing().cost(100, p.config().billing),
            p.rm().billing().cost(101, p.config().billing));
}

TEST(Integration, OversubscriptionStressStillCompletesAllWork) {
  // 12 warm workers on a 4-core host: invocations contend for cores and
  // some get rejected + redirected, but every submission must finish.
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/1, /*cores=*/4);
  fleet.config.lease_oversubscription = 3.0;  // 12 sandboxes on 4 cores
  cluster::Harness p(fleet);
  CodePackage busy;
  busy.name = "busy";
  busy.entry = [](const void*, std::uint32_t, void*) -> std::uint32_t { return 0; };
  busy.cost = [](std::uint32_t) -> Duration { return 500_us; };
  p.registry().add(std::move(busy));
  p.start();

  auto invoker = p.make_invoker(0, 1);
  int ok = 0, rejected_final = 0;
  drive(p, 600_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "busy";
    spec.workers = 12;  // oversubscribed 3x
    spec.policy = InvocationPolicy::WarmAlways;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());

    std::vector<rdmalib::Buffer<std::uint8_t>> ins, outs;
    std::vector<sim::Future<InvocationResult>> futures;
    for (int i = 0; i < 48; ++i) {
      ins.push_back(invoker->input_buffer<std::uint8_t>(64));
      outs.push_back(invoker->output_buffer<std::uint8_t>(64));
      futures.push_back(invoker->submit(0, ins.back(), 8, outs.back()));
      // "Invocations often arrive independently, at different times"
      // (Sec. III-D): offered load ~1.2x the 4-core service rate, so the
      // oversubscribed workers regularly hit busy cores and redirect.
      co_await sim::delay(105_us);
    }
    for (auto& f : futures) {
      auto r = co_await f.get();
      if (r.ok) {
        ++ok;
      } else if (r.rejected) {
        ++rejected_final;
      }
    }
    co_await invoker->deallocate();
  });
  // Redirects must land almost every invocation on a free core; a
  // simultaneous burst may still exhaust its attempts (and that is the
  // documented behaviour: the client observes the rejection).
  EXPECT_EQ(ok + rejected_final, 48);
  EXPECT_GE(ok, 40);
  EXPECT_GT(invoker->total_rejections(), 0u);  // contention did happen
}

TEST(Integration, CapacityRecoversAcrossAllocateDeallocateCycles) {
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/2, /*cores=*/4);
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();
  const std::uint32_t free0 = p.rm().free_workers_total();

  for (int cycle = 0; cycle < 3; ++cycle) {
    auto invoker = p.make_invoker(0, static_cast<std::uint32_t>(cycle + 1));
    drive(p, 60_s, [&]() -> sim::Task<void> {
      AllocationSpec spec;
      spec.function_name = "echo";
      spec.workers = 8;  // everything
      EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
      EXPECT_EQ(p.rm().free_workers_total(), 0u);
      auto in = invoker->input_buffer<std::uint8_t>(64);
      auto out = invoker->output_buffer<std::uint8_t>(64);
      auto r = co_await invoker->invoke(0, in, 8, out);
      EXPECT_TRUE(r.ok);
      co_await invoker->deallocate();
      co_await sim::delay(10_ms);  // release notifications propagate
    });
    EXPECT_EQ(p.rm().free_workers_total(), free0) << "cycle " << cycle;
    EXPECT_EQ(p.rm().active_leases(), 0u);
  }
}

TEST(Integration, CodeSizeAffectsSubmissionTimeOnly) {
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/1);
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  Duration small_submit = 0, large_submit = 0;
  drive(p, 120_s, [&]() -> sim::Task<void> {
    auto a = p.make_invoker(0, 1);
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.code_size = 8 * 1024;
    EXPECT_TRUE((co_await a->allocate(spec)).ok());
    small_submit = a->cold_start().submit_code;

    auto b = p.make_invoker(0, 2);
    spec.code_size = 8 * 1024 * 1024;  // a fat library
    EXPECT_TRUE((co_await b->allocate(spec)).ok());
    large_submit = b->cold_start().submit_code;
    EXPECT_EQ(a->cold_start().spawn_workers, b->cold_start().spawn_workers);
  });
  // 8 MB over TCP (~4.3 GB/s) + install time scaling dominates.
  EXPECT_GT(large_submit, small_submit + 10_ms);
}

TEST(Integration, HeartbeatsKeepHealthyExecutorsAlive) {
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/2);
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();
  p.run(p.engine().now() + 30_s);  // many heartbeat periods
  EXPECT_EQ(p.rm().alive_executors(), 2u);
}

TEST(Integration, CrashedExecutorLeasesAreReclaimed) {
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/2, /*cores=*/4);
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker(0, 1);
  drive(p, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 8;  // spans both executors
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
  });
  EXPECT_EQ(p.rm().active_leases(), 2u);

  p.executor(0).stop(/*crash=*/true);
  p.run(p.engine().now() + 10_s);
  EXPECT_EQ(p.rm().alive_executors(), 1u);
  // The dead executor's lease is gone; the healthy one's remains.
  EXPECT_EQ(p.rm().active_leases(), 1u);
}

struct PolicyPayloadCase {
  InvocationPolicy policy;
  std::size_t payload;
};

class PolicyPayloadSweep : public ::testing::TestWithParam<PolicyPayloadCase> {};

TEST_P(PolicyPayloadSweep, EchoIntegrityUnderEveryPolicy) {
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/1, /*cores=*/4);
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker(0, 1);
  const auto param = GetParam();
  InvocationResult res;
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(param.payload);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(param.payload);
  fill_pattern({in.data(), param.payload}, param.payload);

  drive(p, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = param.policy;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    res = co_await invoker->invoke(0, in, param.payload, out);
    co_await invoker->deallocate();
  });

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.output_bytes, param.payload);
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>(in.data(), param.payload)),
            crc32c(std::span<const std::uint8_t>(out.data(), param.payload)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicyPayloadSweep,
    ::testing::Values(PolicyPayloadCase{InvocationPolicy::HotAlways, 1},
                      PolicyPayloadCase{InvocationPolicy::HotAlways, 4096},
                      PolicyPayloadCase{InvocationPolicy::HotAlways, 1048576},
                      PolicyPayloadCase{InvocationPolicy::WarmAlways, 1},
                      PolicyPayloadCase{InvocationPolicy::WarmAlways, 4096},
                      PolicyPayloadCase{InvocationPolicy::WarmAlways, 1048576},
                      PolicyPayloadCase{InvocationPolicy::Adaptive, 1},
                      PolicyPayloadCase{InvocationPolicy::Adaptive, 4096},
                      PolicyPayloadCase{InvocationPolicy::Adaptive, 1048576}));

TEST(Integration, RealWorkloadEndToEndThroughPlatform) {
  // The thumbnail function through the full platform: lease, RDMA
  // transfer, real decode/resize/encode in the sandbox, result write.
  auto fleet = cluster::ScenarioSpec::uniform(/*executors=*/1);
  cluster::Harness p(fleet);
  workloads::register_all(p.registry());
  p.start();

  auto img = workloads::synthetic_image(97'000, 5);
  auto ppm = workloads::encode_ppm(img);
  auto invoker = p.make_invoker(0, 1);
  auto in = invoker->input_buffer<std::uint8_t>(ppm.size());
  auto out = invoker->output_buffer<std::uint8_t>(1_MiB);
  std::memcpy(in.data(), ppm.data(), ppm.size());
  InvocationResult res;

  drive(p, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "thumbnail";
    spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    res = co_await invoker->invoke(0, in, ppm.size(), out);
    co_await invoker->deallocate();
  });

  ASSERT_TRUE(res.ok);
  auto thumb = workloads::decode_ppm(std::span<const std::uint8_t>(out.raw(), res.output_bytes));
  ASSERT_TRUE(thumb.ok());
  EXPECT_LE(thumb.value().width, 128u);
  // The compute time dominates the RTT (4.4 ms-scale, not microseconds).
  EXPECT_GT(res.latency(), 3_ms);
}

}  // namespace
}  // namespace rfs::rfaas
