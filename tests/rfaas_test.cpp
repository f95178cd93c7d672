// End-to-end tests of the rFaaS platform: protocol codecs, leases, cold
// starts, hot/warm invocations, rejection + redirect, expiry, reaping,
// crash detection, billing.
#include <gtest/gtest.h>

#include "cluster/harness.hpp"

namespace rfs::rfaas {
namespace {

// --------------------------------------------------------------------------
// Protocol unit tests
// --------------------------------------------------------------------------

TEST(Protocol, ImmEncoding) {
  auto imm = Imm::invocation(7, 123456);
  EXPECT_EQ(Imm::fn_index(imm), 7);
  EXPECT_EQ(Imm::invocation_id(imm), 123456u);

  auto ok = Imm::result(99, false);
  EXPECT_FALSE(Imm::rejected(ok));
  EXPECT_EQ(Imm::result_id(ok), 99u);

  auto rej = Imm::result(99, true);
  EXPECT_TRUE(Imm::rejected(rej));
  EXPECT_EQ(Imm::result_id(rej), 99u);
}

TEST(Protocol, HeaderPackUnpack) {
  InvocationHeader h;
  h.result_addr = 0xDEADBEEFCAFEull;
  h.result_rkey = 0x1234;
  std::uint8_t buf[InvocationHeader::kSize];
  h.pack(buf);
  auto u = InvocationHeader::unpack(buf);
  EXPECT_EQ(u.result_addr, h.result_addr);
  EXPECT_EQ(u.result_rkey, h.result_rkey);
}

TEST(Protocol, LeaseRequestRoundTrip) {
  LeaseRequestMsg m{42, 8, 1_GiB, 60_s};
  auto decoded = decode_lease_request(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().client_id, 42u);
  EXPECT_EQ(decoded.value().workers, 8u);
  EXPECT_EQ(decoded.value().memory_bytes, 1_GiB);
  EXPECT_EQ(decoded.value().timeout, 60_s);
}

TEST(Protocol, LeaseGrantRoundTrip) {
  LeaseGrantMsg m;
  m.lease_id = 7;
  m.device = 3;
  m.alloc_port = 7000;
  m.rdma_port = 7001;
  m.workers = 4;
  m.expires_at = 123456789;
  auto decoded = decode_lease_grant(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().lease_id, 7u);
  EXPECT_EQ(decoded.value().workers, 4u);
  EXPECT_EQ(decoded.value().expires_at, 123456789u);
}

TEST(Protocol, AllocationRequestRoundTrip) {
  AllocationRequestMsg m;
  m.lease_id = 9;
  m.client_id = 2;
  m.workers = 16;
  m.memory_bytes = 128_MiB;
  m.sandbox = static_cast<std::uint8_t>(SandboxType::Docker);
  m.policy = static_cast<std::uint8_t>(InvocationPolicy::HotAlways);
  m.hot_timeout = 250_ms;
  m.expires_at = 42_s;
  auto decoded = decode_allocation_request(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().workers, 16u);
  EXPECT_EQ(decoded.value().sandbox, static_cast<std::uint8_t>(SandboxType::Docker));
  EXPECT_EQ(decoded.value().policy, static_cast<std::uint8_t>(InvocationPolicy::HotAlways));
  EXPECT_EQ(decoded.value().hot_timeout, 250_ms);
  EXPECT_EQ(decoded.value().expires_at, 42_s);
}

TEST(Protocol, ErrorMessageRoundTrip) {
  auto raw = encode_lease_error("no capacity");
  auto type = peek_type(raw);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), MsgType::LeaseError);
  auto msg = decode_lease_error(raw);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value(), "no capacity");
}

TEST(Protocol, RejectsWrongType) {
  auto raw = encode(LeaseRequestMsg{});
  EXPECT_FALSE(decode_lease_grant(raw).ok());
  EXPECT_FALSE(decode_register(raw).ok());
}

TEST(Protocol, RejectsTruncated) {
  auto raw = encode(LeaseRequestMsg{1, 2, 3, 4});
  raw.resize(raw.size() - 3);
  EXPECT_FALSE(decode_lease_request(raw).ok());
}

TEST(Protocol, PeekRejectsUnknownType) {
  Bytes junk{0xEE};
  EXPECT_FALSE(peek_type(junk).ok());
  EXPECT_FALSE(peek_type(Bytes{}).ok());
}

// --------------------------------------------------------------------------
// Billing unit tests
// --------------------------------------------------------------------------

TEST(Billing, CostFormula) {
  sim::Engine eng;
  fabric::Fabric fab(eng);
  auto& dev = fab.create_device("rm");
  BillingDatabase db(*dev.alloc_pd());

  // Simulate flushed usage by writing through the registered memory the
  // same way fetch-adds would land.
  auto slot = db.tenant_slot(5);
  auto* counters = reinterpret_cast<std::uint64_t*>(slot.addr);
  counters[0] = 2048;        // 2 GiB * 1 ms -> 2048 MiB*ms
  counters[1] = 3'000'000'000;  // 3 s compute
  counters[2] = 1'500'000'000;  // 1.5 s hot polling

  BillingRates rates{0.1, 0.2, 0.3};
  // ta = 2048 MiB*ms = 2 GiB * 0.001 s = 0.002 GiB*s
  double expected = 0.1 * 0.002 + 0.2 * 3.0 + 0.3 * 1.5;
  EXPECT_NEAR(db.cost(5, rates), expected, 1e-12);

  auto usage = db.usage(5);
  EXPECT_EQ(usage.compute_ns, 3'000'000'000u);
  EXPECT_EQ(usage.hot_poll_ns, 1'500'000'000u);
}

TEST(Billing, TenantsAreIsolated) {
  sim::Engine eng;
  fabric::Fabric fab(eng);
  auto& dev = fab.create_device("rm");
  BillingDatabase db(*dev.alloc_pd());
  auto* c1 = reinterpret_cast<std::uint64_t*>(db.tenant_slot(1).addr);
  c1[1] = 100;
  EXPECT_EQ(db.usage(1).compute_ns, 100u);
  EXPECT_EQ(db.usage(2).compute_ns, 0u);
}

// --------------------------------------------------------------------------
// End-to-end platform tests
// --------------------------------------------------------------------------

/// Drives a client task and runs the engine for `horizon` of virtual time.
template <typename MakeTask>
void drive(cluster::Harness& p, Duration horizon, MakeTask&& make_task) {
  bool finished = false;
  auto wrapper = [](bool* done, sim::Task<void> inner) -> sim::Task<void> {
    co_await std::move(inner);
    *done = true;
  };
  sim::spawn(p.engine(), wrapper(&finished, make_task()));
  p.run(p.engine().now() + horizon);
  ASSERT_TRUE(finished) << "client task did not finish within the horizon";
}

/// Two 4-core spot executors and one client host.
cluster::ScenarioSpec small_fleet(unsigned executors = 2, unsigned cores = 4) {
  return cluster::ScenarioSpec::uniform(executors, cores, /*memory_bytes=*/8ull << 30);
}

TEST(EndToEnd, HotEchoInvocationMovesBytesAndMatchesLatency) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  InvocationResult result;
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(64);
  fill_pattern({in.data(), 64}, 99);

  drive(p, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    // Warm-up invocation, then the measured one.
    (void)co_await invoker->invoke(0, in, 8, out);
    result = co_await invoker->invoke(0, in, 8, out);
    co_await invoker->deallocate();
  });

  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.output_bytes, 8u);
  EXPECT_TRUE(std::equal(in.data(), in.data() + 8, out.data()));
  // Hot no-op RTT: ~3.96-4.02 us (raw RDMA 3.69 us + ~330 ns overhead).
  EXPECT_NEAR(static_cast<double>(result.latency()), 4012.0, 60.0);
}

TEST(EndToEnd, WarmInvocationPaysWakeupAndResourceCheck) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  InvocationResult warm;
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(64);

  drive(p, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::WarmAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok());
    (void)co_await invoker->invoke(0, in, 8, out);
    warm = co_await invoker->invoke(0, in, 8, out);
    co_await invoker->deallocate();
  });

  EXPECT_TRUE(warm.ok);
  // Warm no-op RTT: ~8.2 us (hot + wake-up + re-arm + resource check).
  EXPECT_NEAR(static_cast<double>(warm.latency()), 8212.0, 80.0);
}

TEST(EndToEnd, DockerAddsVirtualizationOverhead) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto bare = p.make_invoker(0, 1);
  auto docker = p.make_invoker(0, 2);
  rdmalib::Buffer<std::uint8_t> in1 = bare->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out1 = bare->output_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> in2 = docker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out2 = docker->output_buffer<std::uint8_t>(64);
  InvocationResult r_bare, r_docker;

  drive(p, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::HotAlways;
    spec.sandbox = SandboxType::BareMetal;
    EXPECT_TRUE((co_await bare->allocate(spec)).ok());
    spec.sandbox = SandboxType::Docker;
    EXPECT_TRUE((co_await docker->allocate(spec)).ok());
    (void)co_await bare->invoke(0, in1, 8, out1);
    r_bare = co_await bare->invoke(0, in1, 8, out1);
    (void)co_await docker->invoke(0, in2, 8, out2);
    r_docker = co_await docker->invoke(0, in2, 8, out2);
  });

  EXPECT_TRUE(r_bare.ok);
  EXPECT_TRUE(r_docker.ok);
  // Docker's SR-IOV path adds ~50 ns on hot invocations.
  EXPECT_EQ(r_docker.latency() - r_bare.latency(),
            p.config().docker.hot_invocation_overhead);
}

TEST(EndToEnd, ColdStartBreakdownBareVsDocker) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto bare = p.make_invoker(0, 1);
  auto docker = p.make_invoker(0, 2);

  drive(p, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    EXPECT_TRUE((co_await bare->allocate(spec)).ok());
    spec.sandbox = SandboxType::Docker;
    EXPECT_TRUE((co_await docker->allocate(spec)).ok());
  });

  const auto& b = bare->cold_start();
  const auto& d = docker->cold_start();
  // Spawn dominates and matches the configured sandbox costs (25 ms vs 2.7 s).
  EXPECT_GT(b.spawn_workers, 25_ms);
  EXPECT_LT(b.spawn_workers, 30_ms);
  EXPECT_GT(d.spawn_workers, 2700_ms);
  EXPECT_LT(d.spawn_workers, 2705_ms);
  // All other client-visible steps are single-digit milliseconds.
  EXPECT_LT(b.connect_manager, 5_ms);
  EXPECT_LT(b.lease, 5_ms);
  EXPECT_LT(b.submit_allocation, 5_ms);
  EXPECT_LT(b.submit_code, 5_ms);
  EXPECT_GT(b.total(), b.spawn_workers);
}

TEST(EndToEnd, ParallelWorkersServeConcurrentInvocations) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  constexpr int kWorkers = 4;
  constexpr int kInvocations = 12;
  std::vector<rdmalib::Buffer<std::uint8_t>> ins;
  std::vector<rdmalib::Buffer<std::uint8_t>> outs;
  for (int i = 0; i < kInvocations; ++i) {
    ins.push_back(invoker->input_buffer<std::uint8_t>(1024));
    outs.push_back(invoker->output_buffer<std::uint8_t>(1024));
    fill_pattern({ins[i].data(), 1024}, i);
  }
  int completed = 0;

  drive(p, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = kWorkers;
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(invoker->connected_workers(), kWorkers);

    std::vector<sim::Future<InvocationResult>> futures;
    for (int i = 0; i < kInvocations; ++i) {
      futures.push_back(invoker->submit(0, ins[i], 1024, outs[i]));
    }
    for (auto& f : futures) {
      auto r = co_await f.get();
      if (r.ok) ++completed;
    }
    co_await invoker->deallocate();
  });

  EXPECT_EQ(completed, kInvocations);
  for (int i = 0; i < kInvocations; ++i) {
    EXPECT_TRUE(std::equal(ins[i].data(), ins[i].data() + 1024, outs[i].data()))
        << "payload " << i << " corrupted";
  }
}

TEST(EndToEnd, LeasesSpanMultipleExecutorsWhenOneIsTooSmall) {
  auto fleet = small_fleet();  // 2 executors x 4 cores
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  drive(p, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 6;  // cannot fit on one 4-core executor
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok());
  });

  EXPECT_EQ(invoker->connected_workers(), 6u);
  EXPECT_EQ(p.executor(0).live_sandboxes() + p.executor(1).live_sandboxes(), 2u);
  EXPECT_EQ(p.rm().active_leases(), 2u);
}

TEST(EndToEnd, LeaseDeniedWhenNoCapacity) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  bool denied = false;
  drive(p, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 100;  // > 8 total cores
    auto st = co_await invoker->allocate(spec);
    denied = !st.ok();
  });
  EXPECT_TRUE(denied);
}

TEST(EndToEnd, AdaptivePolicySwitchesWarmToHotAndBack) {
  cluster::Harness p(small_fleet());
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(64);
  InvocationResult first, second, third;

  drive(p, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::Adaptive;
    spec.hot_timeout = 2_ms;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    first = co_await invoker->invoke(0, in, 8, out);   // warm (thread blocked)
    second = co_await invoker->invoke(0, in, 8, out);  // hot (just executed)
    co_await sim::delay(10_ms);                        // > hot timeout: falls back
    third = co_await invoker->invoke(0, in, 8, out);   // warm again
    co_await invoker->deallocate();
  });

  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(second.ok);
  EXPECT_TRUE(third.ok);
  EXPECT_GT(first.latency(), 8_us);
  EXPECT_LT(second.latency(), 4100u);
  EXPECT_GT(third.latency(), 8_us);
}

TEST(EndToEnd, WarmRejectionRedirectsToAnotherWorker) {
  auto fleet = small_fleet(/*executors=*/1, /*cores=*/2);
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  // Client B's hot worker occupies one core; client A gets two warm
  // workers on the same 2-core host. One of A's invocations will find its
  // core busy while B holds it.
  auto hog = p.make_invoker(0, 7);
  auto client = p.make_invoker(0, 8);
  rdmalib::Buffer<std::uint8_t> in_h = hog->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out_h = hog->output_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> in_a = client->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out_a = client->output_buffer<std::uint8_t>(64);
  InvocationResult res;

  drive(p, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec hog_spec;
    hog_spec.function_name = "echo";
    hog_spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await hog->allocate(hog_spec)).ok());
    (void)co_await hog->invoke(0, in_h, 8, out_h);  // worker now hot, core held

    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::WarmAlways;
    EXPECT_TRUE((co_await client->allocate(spec)).ok());
    res = co_await client->invoke(0, in_a, 8, out_a);
    co_await client->deallocate();
    co_await hog->deallocate();
  });

  // One core is taken by the hog; the remaining core serves the warm
  // invocation (possibly after redirects).
  EXPECT_TRUE(res.ok);
}

TEST(EndToEnd, AllWorkersBusyMeansRejectedResult) {
  auto fleet = small_fleet(/*executors=*/1, /*cores=*/1);
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto hog = p.make_invoker(0, 7);
  auto client = p.make_invoker(0, 8);
  rdmalib::Buffer<std::uint8_t> in_h = hog->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out_h = hog->output_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> in_a = client->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out_a = client->output_buffer<std::uint8_t>(64);
  InvocationResult res;

  drive(p, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec hog_spec;
    hog_spec.function_name = "echo";
    hog_spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await hog->allocate(hog_spec)).ok());
    (void)co_await hog->invoke(0, in_h, 8, out_h);

    // The RM has no free cores left, but oversubscription still allows a
    // warm allocation; its invocations are then rejected (core busy).
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::WarmAlways;
    auto st = co_await client->allocate(spec);
    if (st.ok()) {
      res = co_await client->invoke(0, in_a, 8, out_a);
    } else {
      res.rejected = true;  // RM refused: equally a denial-of-capacity
    }
  });

  EXPECT_TRUE(res.rejected || !res.ok);
}

TEST(EndToEnd, LeaseExpiryKillsSandboxAndReclaimsCapacity) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  const std::uint32_t free_initial = p.rm().free_workers_total();
  drive(p, 1_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.lease_timeout = 10_s;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
  });
  EXPECT_EQ(p.rm().active_leases(), 1u);
  EXPECT_EQ(p.rm().free_workers_total(), free_initial - 1);

  // Run past the lease expiry.
  p.run(p.engine().now() + 15_s);
  EXPECT_EQ(p.rm().active_leases(), 0u);
  EXPECT_EQ(p.executor(0).live_sandboxes() + p.executor(1).live_sandboxes(), 0u);
  EXPECT_EQ(p.rm().free_workers_total(), free_initial);
}

TEST(EndToEnd, IdleSandboxesAreReaped) {
  auto fleet = small_fleet();
  fleet.config.executor_idle_timeout = 2_s;
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  drive(p, 1_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
  });
  EXPECT_EQ(p.executor(0).live_sandboxes() + p.executor(1).live_sandboxes(), 1u);

  p.run(p.engine().now() + 10_s);  // > idle timeout, no invocations
  EXPECT_EQ(p.executor(0).live_sandboxes() + p.executor(1).live_sandboxes(), 0u);
  // Early release notified the RM (Sec. III-B).
  EXPECT_EQ(p.rm().active_leases(), 0u);
}

TEST(EndToEnd, ExecutorCrashDetectedByResourceManager) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();
  EXPECT_EQ(p.rm().alive_executors(), 2u);

  p.executor(0).stop();
  p.run(p.engine().now() + 10_s);
  EXPECT_EQ(p.rm().alive_executors(), 1u);
}

TEST(EndToEnd, InvocationOnDeadExecutorFails) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(64);
  InvocationResult before, after;

  drive(p, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    before = co_await invoker->invoke(0, in, 8, out);
    // Find which executor hosts the sandbox and crash it.
    std::size_t victim = p.executor(0).live_sandboxes() > 0 ? 0 : 1;
    p.executor(victim).stop();
    co_await sim::delay(1_ms);
    after = co_await invoker->invoke(0, in, 8, out);
  });

  EXPECT_TRUE(before.ok);
  EXPECT_FALSE(after.ok);  // "clients use the connection status to check
                           //  if the process is alive" (Sec. III-B)
}

TEST(EndToEnd, InputBufferTooSmallForTheFrameIsRefusedAtOnce) {
  // invoke() and submit() need the 32-byte header region in front of the
  // payload, and the payload they are told to send. A buffer without
  // either fails at the call's own instant, before anything is read,
  // written or posted and before a worker is taken, with fault tolerance
  // and its checksum on too.
  auto fleet = small_fleet(/*executors=*/1);
  fleet.config.fault_tolerance.invocation_deadline = 1_ms;
  fleet.config.fault_tolerance.checksum = true;
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  rdmalib::Buffer<std::uint8_t> bare(8, 0);  // no header region
  ASSERT_TRUE(bare.register_memory(*invoker->pd(), fabric::LocalWrite).ok());
  fill_pattern({bare.data(), 8}, 7);
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(64);
  fill_pattern({in.data(), 8}, 9);
  Time called_at = 0;
  InvocationResult invoked, submitted, oversized, next;

  drive(p, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    called_at = p.engine().now();
    invoked = co_await invoker->invoke(0, bare, 8, out);
    auto future = invoker->submit(0, bare, 8, out);
    EXPECT_TRUE(future.ready());
    submitted = co_await future.get();
    oversized = co_await invoker->invoke(0, in, 64 * 1024, out);  // past the mapping
    next = co_await invoker->invoke(0, in, 8, out);  // the one worker is still free
    co_await invoker->deallocate();
  });

  for (const InvocationResult& r : {invoked, submitted, oversized}) {
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(r.submitted_at, called_at);
    EXPECT_EQ(r.completed_at, called_at);
  }
  // The page behind the buffer's 8 bytes still reads zero: no header.
  EXPECT_TRUE(std::all_of(bare.raw() + 8, bare.raw() + InvocationHeader::kSize,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(next.ok);
  EXPECT_EQ(next.submitted_at, called_at);
  EXPECT_EQ(next.attempts, 1u);
  EXPECT_TRUE(std::equal(in.data(), in.data() + 8, out.data()));
}

// A WRITE_WITH_IMM shorter than the 32-byte header carries no result
// address or key: the worker refuses it without running user code or
// writing a reply, re-posts its receive and serves the next well-formed
// invocation. invoke() refuses to send such a frame (above), so the test
// reaches the worker as deploy_grant() and connect_worker() do: a lease,
// an AllocationRequest and the code over TCP, then an RDMA connection
// carrying the sandbox and worker index.
TEST(EndToEnd, ShortInvocationFrameRunsNothing) {
  auto fleet = small_fleet(/*executors=*/1);
  cluster::Harness p(fleet);
  unsigned calls = 0;
  CodePackage counted;
  counted.name = "counted";
  counted.entry = [&calls](const void* in, std::uint32_t size, void* out) -> std::uint32_t {
    ++calls;
    std::memcpy(out, in, size);
    return size;
  };
  p.registry().add(std::move(counted));
  p.start();

  // The invoker lends its manager session and protection domain.
  auto invoker = p.make_invoker();
  fabric::Device& device = p.client_device(0);
  rdmalib::Buffer<std::uint8_t> frame(64, InvocationHeader::kSize);
  ASSERT_TRUE(frame.register_memory(*invoker->pd(), fabric::LocalWrite).ok());
  rdmalib::Buffer<std::uint8_t> out(64);
  ASSERT_TRUE(out.register_memory(*invoker->pd(), fabric::RemoteWrite | fabric::LocalWrite).ok());
  fill_pattern({frame.data(), 8}, 7);
  std::optional<fabric::Wc> short_reply, reply;

  drive(p, 10_s, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await invoker->leases().connect()).ok());
    const LeaseOutcome lease = co_await invoker->leases().request(
        LeaseRequestMsg{.client_id = 1, .workers = 1, .memory_bytes = 64_MiB, .timeout = 300_s});
    EXPECT_EQ(lease.kind, LeaseOutcome::Kind::Granted);
    if (lease.grants.empty()) co_return;
    const LeaseGrantMsg grant = lease.grants.front();

    auto dialed = co_await p.tcp().connect(device.id(), grant.device, grant.alloc_port);
    EXPECT_TRUE(dialed.ok());
    if (!dialed.ok()) co_return;
    auto mgr = dialed.value();
    AllocationRequestMsg alloc;
    alloc.lease_id = grant.lease_id;
    alloc.client_id = 1;
    alloc.workers = 1;
    alloc.memory_bytes = 64_MiB;
    alloc.policy = static_cast<std::uint8_t>(InvocationPolicy::HotAlways);
    alloc.expires_at = grant.expires_at;
    mgr->send(encode(alloc));
    auto alloc_raw = co_await mgr->recv();
    const auto allocated = decode_allocation_reply(alloc_raw.value_or(Bytes{}));
    EXPECT_TRUE(allocated.ok() && allocated.value().ok);
    if (!allocated.ok()) co_return;
    const std::uint64_t sandbox = allocated.value().sandbox_id;
    mgr->send(encode(SubmitCodeMsg{.sandbox_id = sandbox, .function_name = "counted"}));
    (void)co_await mgr->recv();  // SubmitCodeOk: function 0

    ByteWriter pdata;
    pdata.u64(sandbox);
    pdata.u32(0);  // worker index
    auto connected = co_await rdmalib::Connection::connect(
        p.fabric(), device, invoker->pd(), grant.device, grant.rdma_port, pdata.take());
    EXPECT_TRUE(connected.ok());
    if (!connected.ok()) co_return;
    auto conn = std::move(connected).take();
    ByteReader rd(conn->accept_data());
    const auto addr = rd.u64();
    const auto rkey = rd.u32();
    const auto len = rd.u32();
    const rdmalib::RemoteBuffer worker{addr.value(), rkey.value(), len.value()};

    // Eight bytes and no header: nothing comes back.
    (void)conn->post_recv_empty(1);
    EXPECT_TRUE(conn->post_write_imm(frame.sge_data(8), worker, Imm::invocation(0, 1), 1).ok());
    (void)co_await conn->send_cq().wait_polling();
    short_reply = co_await conn->recv_cq().wait_polling(p.engine().now() + 1_ms);

    // A well-formed frame on the same connection: the same worker answers.
    InvocationHeader header;
    header.result_addr = reinterpret_cast<std::uint64_t>(out.data());
    header.result_rkey = out.remote_data().rkey;
    (void)encode_into(header, frame.raw(), InvocationHeader::kSize);
    EXPECT_TRUE(
        conn->post_write_imm(frame.sge_with_header(8), worker, Imm::invocation(0, 2), 2).ok());
    (void)co_await conn->send_cq().wait_polling();
    reply = co_await conn->recv_cq().wait_polling(p.engine().now() + 1_ms);

    conn->close();
    mgr->send(encode(DeallocateMsg{.sandbox_id = sandbox, .lease_id = grant.lease_id}));
    (void)co_await mgr->recv();  // DeallocateOk
    mgr->close();
  });

  EXPECT_FALSE(short_reply.has_value());  // nothing written back
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, fabric::WcStatus::Success);
  EXPECT_EQ(Imm::result_id(reply->imm), 2u);
  EXPECT_FALSE(Imm::rejected(reply->imm));
  EXPECT_TRUE(std::equal(frame.data(), frame.data() + 8, out.data()));
  EXPECT_EQ(calls, 1u);  // the well-formed invocation only
}

TEST(EndToEnd, BillingAccumulatesAllThreeComponents) {
  auto fleet = small_fleet();
  fleet.config.billing_flush_period = 50_ms;
  cluster::Harness p(fleet);
  p.registry().add_echo();
  // A function with real compute cost so Cc accumulates.
  CodePackage busy;
  busy.name = "busy";
  busy.entry = [](const void*, std::uint32_t, void*) -> std::uint32_t { return 0; };
  busy.cost = [](std::uint32_t) -> Duration { return 5_ms; };
  p.registry().add(std::move(busy));
  p.start();

  auto invoker = p.make_invoker(0, 3);
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(64);

  drive(p, 120_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "busy";
    spec.policy = InvocationPolicy::HotAlways;
    spec.memory_per_worker = 1_GiB;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    for (int i = 0; i < 5; ++i) {
      auto r = co_await invoker->invoke(0, in, 8, out);
      EXPECT_TRUE(r.ok);
      co_await sim::delay(20_ms);  // hot polling accrues between calls
    }
    co_await sim::delay(200_ms);
    co_await invoker->deallocate();
  });
  p.run(p.engine().now() + 1_s);

  auto usage = p.rm().billing().usage(3);
  EXPECT_GE(usage.compute_ns, 5 * 5_ms);
  EXPECT_GT(usage.hot_poll_ns, 0u);
  EXPECT_GT(usage.allocation_mib_ms, 0u);
  EXPECT_GT(p.rm().billing().cost(3, p.config().billing), 0.0);
}

TEST(EndToEnd, MultipleFunctionsInOneWorkerProcess) {
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  CodePackage doubler;
  doubler.name = "double";
  doubler.entry = [](const void* in, std::uint32_t size, void* out) -> std::uint32_t {
    const auto* src = static_cast<const std::uint8_t*>(in);
    auto* dst = static_cast<std::uint8_t*>(out);
    for (std::uint32_t i = 0; i < size; ++i) dst[i] = static_cast<std::uint8_t>(src[i] * 2);
    return size;
  };
  p.registry().add(std::move(doubler));
  p.start();

  auto invoker = p.make_invoker();
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(64);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(64);
  std::uint16_t double_idx = 0;
  InvocationResult echo_res, double_res;

  drive(p, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    auto idx = co_await invoker->add_function("double");
    EXPECT_TRUE(idx.ok());
    double_idx = idx.value();

    in.data()[0] = 21;
    echo_res = co_await invoker->invoke(0, in, 1, out);
    EXPECT_EQ(out.data()[0], 21);
    double_res = co_await invoker->invoke(double_idx, in, 1, out);
    co_await invoker->deallocate();
  });

  EXPECT_TRUE(echo_res.ok);
  EXPECT_TRUE(double_res.ok);
  EXPECT_EQ(double_idx, 1);
  EXPECT_EQ(out.data()[0], 42);
}

class PayloadIntegrity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadIntegrity, EchoAcrossSizes) {
  const std::size_t n = GetParam();
  auto fleet = small_fleet();
  cluster::Harness p(fleet);
  p.registry().add_echo();
  p.start();

  auto invoker = p.make_invoker();
  rdmalib::Buffer<std::uint8_t> in = invoker->input_buffer<std::uint8_t>(n);
  rdmalib::Buffer<std::uint8_t> out = invoker->output_buffer<std::uint8_t>(n);
  fill_pattern({in.data(), n}, n);
  InvocationResult res;

  drive(p, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    res = co_await invoker->invoke(0, in, n, out);
    co_await invoker->deallocate();
  });

  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.output_bytes, n);
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>(in.data(), n)),
            crc32c(std::span<const std::uint8_t>(out.data(), n)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadIntegrity,
                         ::testing::Values(1, 116, 117, 128, 1024, 65536, 1048576, 5242880));

}  // namespace
}  // namespace rfs::rfaas
