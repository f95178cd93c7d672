// Tests for the baseline FaaS platforms (AWS Lambda / OpenWhisk /
// Nightcore simulators) and the rmpi runtime.
#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "common/base64.hpp"
#include "fabric/fabric.hpp"
#include "rmpi/rmpi.hpp"

namespace rfs::baselines {
namespace {

struct BaselineFixture : ::testing::Test {
  void SetUp() override {
    eng.make_current();
    registry.add_echo();
  }

  /// Runs an invocation and returns (latency, output).
  template <typename P>
  std::pair<Duration, Bytes> timed_invoke(P& platform, const Bytes& payload) {
    Duration latency = 0;
    Bytes output;
    auto body = [&]() -> sim::Task<void> {
      const Time start = eng.now();
      auto result = co_await platform.invoke("echo", payload);
      latency = eng.now() - start;
      if (result.ok()) output = std::move(result).take();
    };
    sim::spawn(eng, body());
    eng.run();
    return {latency, output};
  }

  sim::Engine eng;
  rfaas::FunctionRegistry registry;
};

TEST_F(BaselineFixture, AwsWarmLatencyMatchesPaper) {
  AwsLambdaSim aws(eng, registry, AwsConfig{});
  Bytes payload(1024);
  fill_pattern(payload, 1);
  auto cold = timed_invoke(aws, payload);
  auto warm = timed_invoke(aws, payload);
  EXPECT_EQ(aws.cold_starts(), 1u);
  // Cold adds the microVM start.
  EXPECT_GT(cold.first, warm.first + 150_ms);
  // Warm 1 kB no-op: 19.64 ms reported in Fig. 1.
  EXPECT_NEAR(to_ms(warm.first), 19.64, 2.5);
  EXPECT_EQ(warm.second, payload);  // base64 round-trip is lossless
}

TEST_F(BaselineFixture, AwsLargePayloadIsBandwidthBound) {
  AwsLambdaSim aws(eng, registry, AwsConfig{});
  Bytes payload(5_MiB);
  fill_pattern(payload, 2);
  (void)timed_invoke(aws, Bytes(1024));  // warm the container
  auto big = timed_invoke(aws, payload);
  // ~600 ms at 5 MB in the paper (both directions bandwidth bound).
  EXPECT_GT(to_ms(big.first), 450.0);
  EXPECT_LT(to_ms(big.first), 1000.0);
  EXPECT_EQ(big.second, payload);
}

TEST_F(BaselineFixture, AwsRejectsOversizedPayload) {
  AwsLambdaSim aws(eng, registry, AwsConfig{});
  bool rejected = false;
  auto body = [&]() -> sim::Task<void> {
    Bytes big(7_MiB);
    auto result = co_await aws.invoke("echo", big);
    rejected = !result.ok() && result.error().code == 413;
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_TRUE(rejected);
}

TEST_F(BaselineFixture, AwsCpuShareScalesComputeTime) {
  rfaas::CodePackage busy;
  busy.name = "busy";
  busy.entry = [](const void*, std::uint32_t, void*) -> std::uint32_t { return 0; };
  busy.cost = [](std::uint32_t) -> Duration { return 100_ms; };
  registry.add(std::move(busy));

  AwsConfig small_cfg;
  small_cfg.memory_mb = 512;  // ~29% of a vCPU
  AwsLambdaSim small_fn(eng, registry, small_cfg);
  AwsLambdaSim large_fn(eng, registry, AwsConfig{});

  Duration t_small = 0, t_large = 0;
  auto body = [&]() -> sim::Task<void> {
    Bytes payload(128);
    (void)co_await small_fn.invoke("busy", payload);  // cold
    Time s0 = eng.now();
    (void)co_await small_fn.invoke("busy", payload);
    t_small = eng.now() - s0;
    (void)co_await large_fn.invoke("busy", payload);  // cold
    s0 = eng.now();
    (void)co_await large_fn.invoke("busy", payload);
    t_large = eng.now() - s0;
  };
  sim::spawn(eng, body());
  eng.run();
  // 512 MB gets 512/1769 of a core: ~3.46x slower compute.
  EXPECT_GT(t_small, t_large + 200_ms);
}

TEST_F(BaselineFixture, OpenWhiskLatencyMatchesPaper) {
  OpenWhiskSim ow(eng, registry, OpenWhiskConfig{});
  Bytes payload(1024);
  fill_pattern(payload, 3);
  auto r = timed_invoke(ow, payload);
  // 119.18 ms base in Fig. 1.
  EXPECT_NEAR(to_ms(r.first), 119.2, 10.0);
  EXPECT_EQ(r.second, payload);
}

TEST_F(BaselineFixture, OpenWhiskChargesFileStagingAboveArgvLimit) {
  OpenWhiskSim ow(eng, registry, OpenWhiskConfig{});
  auto small_r = timed_invoke(ow, Bytes(100 * 1024));
  auto large_r = timed_invoke(ow, Bytes(200 * 1024));
  // Beyond bandwidth scaling, the 125 kB argv limit adds staging cost.
  const double bw_delta_ms =
      (base64::encoded_size(200 * 1024) - base64::encoded_size(100 * 1024)) / 1.79e6 * 1e3;
  EXPECT_GT(to_ms(large_r.first) - to_ms(small_r.first), bw_delta_ms + 10.0);
}

TEST_F(BaselineFixture, NightcoreLatencyMatchesPaper) {
  NightcoreSim nc(eng, registry, NightcoreConfig{});
  Bytes payload(1024);
  fill_pattern(payload, 4);
  auto r = timed_invoke(nc, payload);
  // 209.45 us base in Fig. 1.
  EXPECT_NEAR(to_us(r.first), 209.45, 15.0);
  EXPECT_EQ(r.second, payload);
}

TEST_F(BaselineFixture, PlatformOrderingMatchesFig1) {
  // rFaaS < nightcore < AWS < OpenWhisk for small payloads.
  AwsLambdaSim aws(eng, registry, AwsConfig{});
  OpenWhiskSim ow(eng, registry, OpenWhiskConfig{});
  NightcoreSim nc(eng, registry, NightcoreConfig{});
  Bytes payload(1024);
  (void)timed_invoke(aws, payload);  // warm AWS first
  auto aws_r = timed_invoke(aws, payload);
  auto ow_r = timed_invoke(ow, payload);
  auto nc_r = timed_invoke(nc, payload);
  EXPECT_LT(nc_r.first, aws_r.first);
  EXPECT_LT(aws_r.first, ow_r.first);
  // Speedup of nightcore over rFaaS-class latency (4 us) is ~23-39x in
  // the paper; verify the order of magnitude here.
  EXPECT_GT(to_us(nc_r.first) / 4.0, 20.0);
}

}  // namespace
}  // namespace rfs::baselines

namespace rfs::rmpi {
namespace {

struct RmpiFixture : ::testing::Test {
  void SetUp() override {
    eng.make_current();
    for (int i = 0; i < 2; ++i) {
      hosts.push_back(std::make_unique<sim::Host>("h" + std::to_string(i), 36, 16ull << 30));
      devices.push_back(fab.create_device("nic" + std::to_string(i), hosts.back().get()).id());
    }
  }

  sim::Engine eng;
  fabric::Fabric fab{eng};
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<fabric::DeviceId> devices;

  [[nodiscard]] std::vector<sim::Host*> host_ptrs() {
    std::vector<sim::Host*> v;
    for (auto& h : hosts) v.push_back(h.get());
    return v;
  }
};

TEST_F(RmpiFixture, AllReduceComputesGlobalMaxAndSum) {
  World world(eng, fab.net(), host_ptrs(), devices, 8);
  std::vector<double> maxes(8), sums(8);
  auto done = [&]() -> sim::Task<void> {
    co_await world.run([&](Rank& r) -> sim::Task<void> {
      double v = static_cast<double>(r.rank() + 1);
      const Reduced reduced = co_await r.allreduce(v);
      maxes[r.rank()] = reduced.max;
      sums[r.rank()] = reduced.sum;
    });
  };
  sim::spawn(eng, done());
  eng.run();
  for (int r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(maxes[r], 8.0);
    EXPECT_DOUBLE_EQ(sums[r], 36.0);
  }
}

TEST_F(RmpiFixture, BarrierSynchronizesRanks) {
  World world(eng, fab.net(), host_ptrs(), devices, 4);
  Time slow_done = 0;
  std::vector<Time> after(4);
  auto done = [&]() -> sim::Task<void> {
    co_await world.run([&](Rank& r) -> sim::Task<void> {
      if (r.rank() == 0) {
        co_await sim::delay(5_ms);
        slow_done = sim::Engine::current()->now();
      }
      co_await r.barrier();
      after[r.rank()] = sim::Engine::current()->now();
    });
  };
  sim::spawn(eng, done());
  eng.run();
  for (int r = 0; r < 4; ++r) EXPECT_GE(after[r], slow_done);
}

TEST_F(RmpiFixture, SendRecvDeliversAcrossHosts) {
  World world(eng, fab.net(), host_ptrs(), devices, 2);
  Bytes received;
  auto done = [&]() -> sim::Task<void> {
    co_await world.run([&](Rank& r) -> sim::Task<void> {
      if (r.rank() == 0) {
        Bytes msg(100);
        fill_pattern(msg, 42);
        r.send(1, std::move(msg));
      } else {
        received = co_await r.recv(0);
      }
    });
  };
  sim::spawn(eng, done());
  eng.run();
  ASSERT_EQ(received.size(), 100u);
  Bytes expected(100);
  fill_pattern(expected, 42);
  EXPECT_EQ(received, expected);
}

TEST_F(RmpiFixture, ComputeOccupiesHostCores) {
  World world(eng, fab.net(), host_ptrs(), devices, 4);
  auto done = [&]() -> sim::Task<void> {
    co_await world.run([&](Rank& r) -> sim::Task<void> {
      co_await r.compute(10_ms);
    });
  };
  sim::spawn(eng, done());
  eng.run();
  // 4 ranks on 2x36-core hosts: fully parallel, finishes at 10 ms.
  EXPECT_EQ(eng.now(), 10_ms);
  EXPECT_EQ(hosts[0]->busy_ns() + hosts[1]->busy_ns(), 40_ms);
}

}  // namespace
}  // namespace rfs::rmpi
