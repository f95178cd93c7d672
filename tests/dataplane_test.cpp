// Tests for the zero-copy invocation data plane and the predictive warm
// sandbox pool (fig18):
//   - invocation frame codecs (encode_into / span decode / response decode)
//     and the coalesced LeasesTerminated message,
//   - fabric doorbell batching (post_send_many) and batched completion
//     draining (wait_polling_many), pinned to single-post/single-poll
//     semantics and to exact model timing,
//   - zero heap allocations on the invocation frame path (counted by the
//     benches' global operator-new hook),
//   - the invoker's registered slot pool (invoke_pooled),
//   - the executor warm pool state machine: park on retirement, revive on
//     a matching re-allocation, capacity / predictive eviction, memory
//     accounting, and the disabled-by-default seed behaviour,
//   - the executor's buffer pool: a recycled worker buffer reads as
//     zeros to the next tenant,
//   - graceful drain: in-flight invocations finish before sandbox
//     teardown on eviction,
//   - end-to-end coalescing: one eviction sweep, one push per stream,
//   - bounded simulator state: no timer backlog and no destroyed queue
//     pairs left behind by a hot burst, no allocation by a warmed-up hot
//     invocation or by a queue that never holds two elements, no
//     lease-expiry timer left behind by a deallocated sandbox, and
//     nothing leaked by a sandbox torn down during its cold start.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstring>

#include "../bench/bench_common.hpp"
#include "cluster/harness.hpp"
#include "sim/fifo.hpp"

// The frame-path and bounded-state tests demand zero allocations between
// two reads of this counter: CMake links the benches' counting operator
// new/delete (bench/common/alloc_counter.cpp) into this suite.
using rfs::bench::g_allocations;

namespace rfs::rfaas {
namespace {

// --------------------------------------------------------------------------
// Protocol: invocation frames and coalesced terminations
// --------------------------------------------------------------------------

TEST(DataPlaneProtocol, InvocationFrameRoundTrip) {
  std::uint8_t frame[InvocationHeader::kSize + 64];
  InvocationHeader h;
  h.result_addr = 0xABCDEF0123456789ull;
  h.result_rkey = 0xCAFE;
  ASSERT_EQ(encode_into(h, frame, sizeof(frame)), InvocationHeader::kSize);
  for (std::size_t i = 0; i < 64; ++i) {
    frame[InvocationHeader::kSize + i] = static_cast<std::uint8_t>(i * 3);
  }

  auto decoded = decode_invocation_frame({frame, sizeof(frame)},
                                         InvocationHeader::kSize + 16);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().header.result_addr, h.result_addr);
  EXPECT_EQ(decoded.value().header.result_rkey, h.result_rkey);
  ASSERT_EQ(decoded.value().payload.size(), 16u);
  // The payload view aliases the receive buffer — no copy.
  EXPECT_EQ(decoded.value().payload.data(), frame + InvocationHeader::kSize);
  EXPECT_EQ(decoded.value().payload[5], frame[InvocationHeader::kSize + 5]);
}

TEST(DataPlaneProtocol, InvocationFrameRejectsShortAndOverrunningWrites) {
  std::uint8_t frame[InvocationHeader::kSize + 8] = {};
  // Shorter than the header: not a valid submit frame.
  EXPECT_FALSE(decode_invocation_frame({frame, sizeof(frame)},
                                       InvocationHeader::kSize - 1)
                   .ok());
  // Claims more bytes than the buffer holds.
  EXPECT_FALSE(decode_invocation_frame({frame, sizeof(frame)},
                                       InvocationHeader::kSize + 9)
                   .ok());
  // encode_into refuses a too-small buffer instead of overrunning it.
  EXPECT_EQ(encode_into(InvocationHeader{}, frame, InvocationHeader::kSize - 1), 0u);
}

TEST(DataPlaneProtocol, InvocationResponseDecode) {
  fabric::Wc wc;
  wc.imm = Imm::result(/*id=*/12345, /*rejected=*/false);
  wc.has_imm = true;
  wc.byte_len = 512;
  auto resp = decode_invocation_response(wc);
  EXPECT_EQ(resp.invocation_id, 12345u);
  EXPECT_FALSE(resp.rejected);
  EXPECT_EQ(resp.output_bytes, 512u);

  wc.imm = Imm::result(/*id=*/77, /*rejected=*/true);
  wc.byte_len = 0;
  resp = decode_invocation_response(wc);
  EXPECT_EQ(resp.invocation_id, 77u);
  EXPECT_TRUE(resp.rejected);
}

TEST(DataPlaneProtocol, LeasesTerminatedRoundTrip) {
  LeasesTerminatedMsg m;
  m.reason = static_cast<std::uint8_t>(TerminationReason::QuotaPressure);
  m.evicted_at = 123456789;
  m.lease_ids = {7, 42, 1ull << 40};
  auto decoded = decode_leases_terminated(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().reason, m.reason);
  EXPECT_EQ(decoded.value().evicted_at, m.evicted_at);
  EXPECT_EQ(decoded.value().lease_ids, m.lease_ids);
}

TEST(DataPlaneProtocol, LeasesTerminatedRejectsTruncation) {
  LeasesTerminatedMsg m;
  m.lease_ids = {1, 2, 3};
  Bytes wire = encode(m);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(decode_leases_terminated(truncated).ok()) << "cut=" << cut;
  }
}

// --------------------------------------------------------------------------
// Frame path allocates nothing
// --------------------------------------------------------------------------

TEST(DataPlaneProtocol, FramePathMakesNoAllocations) {
  std::uint8_t frame[InvocationHeader::kSize + 128];
  InvocationHeader h;
  h.result_addr = reinterpret_cast<std::uint64_t>(frame);
  h.result_rkey = 99;

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);

  // Submit side: header into the registered buffer, WR + SGE on the
  // stack, immediate packed into 32 bits.
  std::size_t written = encode_into(h, frame, sizeof(frame));
  fabric::SendWr wr;
  wr.opcode = fabric::Opcode::WriteImm;
  wr.sge = {{reinterpret_cast<std::uint64_t>(frame),
             static_cast<std::uint32_t>(written + 64), 1}};
  wr.imm = Imm::invocation(/*fn=*/3, /*id=*/4242);

  // Executor side: span decode of the received frame.
  auto decoded = decode_invocation_frame({frame, sizeof(frame)},
                                         InvocationHeader::kSize + 64);

  // Response side: the reply is the packed immediate + byte count.
  fabric::Wc wc;
  wc.imm = Imm::result(Imm::invocation_id(wr.imm), false);
  wc.has_imm = true;
  wc.byte_len = 64;
  auto resp = decode_invocation_response(wc);

  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "invocation frame path must not allocate";

  // Checks after the counter read (gtest itself may allocate).
  ASSERT_EQ(written, InvocationHeader::kSize);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().header.result_rkey, 99u);
  EXPECT_EQ(resp.invocation_id, 4242u);
  EXPECT_EQ(resp.output_bytes, 64u);
}

}  // namespace
}  // namespace rfs::rfaas

// --------------------------------------------------------------------------
// Fabric: doorbell batching and batched completion draining
// --------------------------------------------------------------------------

namespace rfs::fabric {
namespace {

class DataPlaneFabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eng.make_current();
    devA = &fab.create_device("A");
    devB = &fab.create_device("B");
    pdA = devA->alloc_pd();
    pdB = devB->alloc_pd();
    scqA = std::make_unique<CompletionQueue>(fab.model());
    rcqA = std::make_unique<CompletionQueue>(fab.model());
    scqB = std::make_unique<CompletionQueue>(fab.model());
    rcqB = std::make_unique<CompletionQueue>(fab.model());
    qpA = devA->create_qp(pdA, scqA.get(), rcqA.get());
    qpB = devB->create_qp(pdB, scqB.get(), rcqB.get());
    QueuePair::connect_pair(*qpA, *qpB);
  }

  [[nodiscard]] Duration write_latency(std::uint64_t n, bool inlined) const {
    const auto& m = fab.model();
    return m.post_overhead + (inlined ? 0 : m.dma_read_latency) + m.wire_latency +
           m.wire_time(n) + m.cqe_overhead;
  }

  /// Builds an 8-byte inline write WR into `dst` (registered under mrB).
  [[nodiscard]] SendWr make_write(std::uint64_t wr_id, const std::uint8_t* src,
                                  MemoryRegion* mrA, std::uint8_t* dst,
                                  MemoryRegion* mrB) const {
    SendWr wr;
    wr.wr_id = wr_id;
    wr.opcode = Opcode::Write;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src), 8, mrA->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst);
    wr.rkey = mrB->rkey();
    wr.inline_data = true;
    return wr;
  }

  sim::Engine eng;
  Fabric fab{eng};
  Device* devA = nullptr;
  Device* devB = nullptr;
  ProtectionDomain* pdA = nullptr;
  ProtectionDomain* pdB = nullptr;
  std::unique_ptr<CompletionQueue> scqA, rcqA, scqB, rcqB;
  QueuePair* qpA = nullptr;
  QueuePair* qpB = nullptr;
};

struct Completion {
  Time at = 0;
  std::uint64_t wr_id = 0;
};

sim::Task<void> collect(sim::Engine& eng, CompletionQueue& cq, std::size_t n,
                        std::vector<Completion>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    Wc wc = co_await cq.wait_polling();
    out.push_back({eng.now(), wc.wr_id});
  }
}

TEST_F(DataPlaneFabricTest, BatchedPostPaysOneDoorbell) {
  Bytes src(16), dst(16);
  fill_pattern(src, 7);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  std::array<SendWr, 2> wrs = {
      make_write(1, src.data(), mrA, dst.data(), mrB),
      make_write(2, src.data() + 8, mrA, dst.data() + 8, mrB),
  };
  std::vector<Completion> recs;
  ASSERT_TRUE(qpA->post_send_many({wrs.data(), wrs.size()}).ok());
  sim::spawn(eng, collect(eng, *scqA, 2, recs));
  eng.run();

  EXPECT_EQ(src, dst);
  ASSERT_EQ(recs.size(), 2u);
  // The first WR pays the doorbell (MMIO + WQE fetch); the second rides
  // the same doorbell and completes post_overhead earlier.
  const Duration full = write_latency(8, true);
  EXPECT_EQ(recs[0].wr_id, 2u);
  EXPECT_EQ(recs[0].at, full - fab.model().post_overhead);
  EXPECT_EQ(recs[1].wr_id, 1u);
  EXPECT_EQ(recs[1].at, full);
}

TEST_F(DataPlaneFabricTest, SinglePostsEachPayTheirOwnDoorbell) {
  Bytes src(16), dst(16);
  fill_pattern(src, 9);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  std::vector<Completion> recs;
  ASSERT_TRUE(qpA->post_send(make_write(1, src.data(), mrA, dst.data(), mrB)).ok());
  ASSERT_TRUE(
      qpA->post_send(make_write(2, src.data() + 8, mrA, dst.data() + 8, mrB)).ok());
  sim::spawn(eng, collect(eng, *scqA, 2, recs));
  eng.run();

  EXPECT_EQ(src, dst);
  ASSERT_EQ(recs.size(), 2u);
  // Both pay a full doorbell, so neither finishes before write_latency;
  // the second serializes behind the first on the TX link.
  const Duration full = write_latency(8, true);
  EXPECT_EQ(recs[0].wr_id, 1u);
  EXPECT_EQ(recs[0].at, full);
  EXPECT_EQ(recs[1].wr_id, 2u);
  EXPECT_EQ(recs[1].at, full + fab.model().wire_time(8));
}

TEST_F(DataPlaneFabricTest, BatchedPostValidatesWholeChainBeforePosting) {
  Bytes src(16), dst(16);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  std::array<SendWr, 2> wrs = {
      make_write(1, src.data(), mrA, dst.data(), mrB),
      make_write(2, src.data() + 8, mrA, dst.data() + 8, mrB),
  };
  wrs[1].sge[0].lkey = 0xDEAD;  // second WR is bad: nothing may post
  EXPECT_FALSE(qpA->post_send_many({wrs.data(), wrs.size()}).ok());
  eng.run();
  Wc wc;
  EXPECT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 0u);
}

TEST_F(DataPlaneFabricTest, BatchedPollDrainsFifoLikeRepeatedSinglePolls) {
  Bytes src(48), dst(48);
  fill_pattern(src, 3);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        qpA->post_send(make_write(i + 1, src.data() + 8 * i, mrA, dst.data() + 8 * i, mrB))
            .ok());
  }
  eng.run();  // all six CQEs are queued now

  std::vector<std::uint64_t> order;
  auto drain = [&]() -> sim::Task<void> {
    // First half through the single-completion API...
    for (int i = 0; i < 3; ++i) {
      Wc wc = co_await scqA->wait_polling();
      order.push_back(wc.wr_id);
    }
    // ...rest through one batched drain: same completions, same order.
    std::array<Wc, 8> wcs;
    std::size_t got = co_await scqA->wait_polling_many({wcs.data(), wcs.size()});
    for (std::size_t i = 0; i < got; ++i) order.push_back(wcs[i].wr_id);
  };
  sim::spawn(eng, drain());
  eng.run();

  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(src, dst);
}

TEST_F(DataPlaneFabricTest, BatchedPollWakesOnArrival) {
  Bytes src(8), dst(8);
  fill_pattern(src, 1);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  std::size_t got = 0;
  Time woke_at = 0;
  auto waiter = [&]() -> sim::Task<void> {
    std::array<Wc, 4> wcs;
    got = co_await scqA->wait_polling_many({wcs.data(), wcs.size()});
    woke_at = eng.now();
    EXPECT_EQ(wcs[0].wr_id, 5u);
  };
  sim::spawn(eng, waiter());  // waits on an empty CQ
  ASSERT_TRUE(qpA->post_send(make_write(5, src.data(), mrA, dst.data(), mrB)).ok());
  eng.run();

  EXPECT_EQ(got, 1u);
  EXPECT_EQ(woke_at, write_latency(8, true));
}

}  // namespace
}  // namespace rfs::fabric

// --------------------------------------------------------------------------
// End-to-end: slot pool, warm pool, graceful drain, coalesced pushes
// --------------------------------------------------------------------------

namespace rfs::rfaas {
namespace {

cluster::ScenarioSpec small_fleet(unsigned executors = 1, unsigned cores = 4) {
  return cluster::ScenarioSpec::uniform(executors, cores, 32ull << 30, /*clients=*/1);
}

/// Drives a client task and runs the harness for `horizon` of virtual time.
template <typename MakeTask>
void drive(cluster::Harness& h, Duration horizon, MakeTask&& make_task) {
  bool finished = false;
  auto wrapper = [](bool* done, sim::Task<void> inner) -> sim::Task<void> {
    co_await std::move(inner);
    *done = true;
  };
  h.spawn(wrapper(&finished, make_task()));
  h.run_for(horizon);
  ASSERT_TRUE(finished) << "client task did not finish within the horizon";
}

TEST(SlotPool, PooledInvocationMatchesEchoSemantics) {
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult warmup{}, measured{};
  drive(h, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    invoker->reserve_slots(/*count=*/2, /*max_input=*/64, /*max_output=*/64);
    EXPECT_EQ(invoker->slot_count(), 2u);

    std::array<std::uint8_t, 16> payload;
    payload.fill(0x5A);
    warmup = co_await invoker->invoke_pooled(0, payload);
    measured = co_await invoker->invoke_pooled(0, payload);
    co_await invoker->deallocate();
  });

  EXPECT_TRUE(warmup.ok);
  EXPECT_TRUE(measured.ok);
  EXPECT_EQ(measured.output_bytes, 16u);
  // The pooled fast path serves a hot invocation at the same RTT as the
  // per-call-buffer API (~4 us hot no-op echo) — the win is that it pays
  // no registration or allocation per call, not a different wire cost.
  EXPECT_NEAR(static_cast<double>(measured.latency()), 4012.0, 60.0);
}

TEST(SlotPool, ConcurrentCallersShareSlotsViaTheSemaphore) {
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  unsigned ok_count = 0;
  drive(h, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 2;
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    invoker->reserve_slots(/*count=*/2, /*max_input=*/64, /*max_output=*/64);

    // 6 concurrent submissions over 2 slots: the semaphore queues the
    // overflow instead of failing or corrupting slot state.
    sim::WaitGroup wg(6);
    std::array<std::uint8_t, 8> payload;
    payload.fill(0x11);
    auto one = [&]() -> sim::Task<void> {
      auto r = co_await invoker->invoke_pooled(0, payload);
      if (r.ok) ++ok_count;
      wg.done();
    };
    for (int i = 0; i < 6; ++i) sim::spawn(h.engine(), one());
    co_await wg.wait();
    co_await invoker->deallocate();
  });

  EXPECT_EQ(ok_count, 6u);
}

TEST(SlotPool, PooledInvokeWithoutReservationFailsCleanly) {
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult r{};
  drive(h, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok());
    std::array<std::uint8_t, 8> payload{};
    r = co_await invoker->invoke_pooled(0, payload);  // no reserve_slots()
    co_await invoker->deallocate();
  });
  EXPECT_FALSE(r.ok);
}

// --------------------------------------------------------------------------
// Warm pool state machine
// --------------------------------------------------------------------------

TEST(WarmPool, DisabledByDefaultKeepsSeedBehavior) {
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  drive(h, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    co_await invoker->deallocate();
    co_await sim::delay(1_s);
  });

  EXPECT_EQ(h.executor(0).warm_pool_size(), 0u);
  EXPECT_EQ(h.executor(0).warm_pool_stats().parked, 0u);
  EXPECT_EQ(h.executor(0).warm_pool_memory_bytes(), 0u);
  EXPECT_EQ(h.executor(0).live_sandboxes(), 0u);
}

TEST(WarmPool, RetirementParksAndMatchingReallocationHits) {
  auto spec_fleet = small_fleet();
  spec_fleet.config.warm_pool_capacity = 4;
  cluster::Harness h(spec_fleet);
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  std::size_t parked_size = 0;
  std::uint64_t parked_memory = 0;
  Duration cold_spawn = 0, warm_spawn = 0;
  InvocationResult after_revive{};

  drive(h, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    cold_spawn = invoker->cold_start().spawn_workers;
    co_await invoker->deallocate();
    co_await sim::delay(100_ms);

    parked_size = h.executor(0).warm_pool_size();
    parked_memory = h.executor(0).warm_pool_memory_bytes();

    // Same client, same shape: served by reviving the pooled sandbox.
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    warm_spawn = invoker->cold_start().spawn_workers;
    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    fill_pattern({in.data(), 64}, 42);
    (void)co_await invoker->invoke(0, in, 16, out);
    after_revive = co_await invoker->invoke(0, in, 16, out);
    EXPECT_TRUE(std::equal(in.data(), in.data() + 16, out.data()));
    co_await invoker->deallocate();
  });

  const auto& stats = h.executor(0).warm_pool_stats();
  EXPECT_EQ(parked_size, 1u);
  EXPECT_GT(parked_memory, 0u);  // the pool's cost: memory stays reserved
  EXPECT_GE(stats.parked, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // only the first, cold allocation
  EXPECT_TRUE(after_revive.ok);
  // Reviving skips process spawn + buffer registration: the second
  // allocation adds microseconds to the (cumulative) spawn breakdown,
  // orders of magnitude under the 25 ms bare-metal cold spawn.
  EXPECT_GT(cold_spawn, 25_ms);
  EXPECT_LT(warm_spawn - cold_spawn, 1_ms);
}

TEST(WarmPool, MismatchedShapeMissesAndGoesCold) {
  auto spec_fleet = small_fleet();
  spec_fleet.config.warm_pool_capacity = 4;
  cluster::Harness h(spec_fleet);
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  drive(h, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    co_await invoker->deallocate();
    co_await sim::delay(100_ms);

    spec.workers = 2;  // different shape: the pooled 1-worker sandbox can't serve it
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    co_await invoker->deallocate();
  });

  const auto& stats = h.executor(0).warm_pool_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.parked, 2u);  // both retirements entered the pool
}

TEST(WarmPool, CapacityBoundEvictsOldestParked) {
  auto spec_fleet = small_fleet();
  spec_fleet.config.warm_pool_capacity = 1;
  cluster::Harness h(spec_fleet);
  h.registry().add_echo();
  h.start();
  auto inv1 = h.make_invoker(0, 1);
  auto inv2 = h.make_invoker(0, 2);

  drive(h, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 1;
    EXPECT_TRUE((co_await inv1->allocate(spec)).ok());
    co_await inv1->deallocate();
    co_await sim::delay(100_ms);
    EXPECT_TRUE((co_await inv2->allocate(spec)).ok());
    co_await inv2->deallocate();
    co_await sim::delay(100_ms);
  });

  const auto& stats = h.executor(0).warm_pool_stats();
  EXPECT_EQ(h.executor(0).warm_pool_size(), 1u);  // bounded
  EXPECT_EQ(stats.parked, 2u);
  EXPECT_EQ(stats.capacity_evictions, 1u);  // client 1's sandbox pushed out
}

TEST(WarmPool, PredictiveSweeperEvictsPastTheKeepAliveHorizon) {
  auto spec_fleet = small_fleet();
  spec_fleet.config.warm_pool_capacity = 4;
  spec_fleet.config.warm_pool_max_keepalive = 2_s;  // no idle samples yet -> horizon = max
  spec_fleet.config.warm_pool_sweep_period = 500_ms;
  cluster::Harness h(spec_fleet);
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  std::size_t size_before_horizon = 0;
  drive(h, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    co_await invoker->deallocate();
    co_await sim::delay(1_s);
    size_before_horizon = h.executor(0).warm_pool_size();
    co_await sim::delay(9_s);  // well past the 2 s horizon + sweep period
  });

  EXPECT_EQ(size_before_horizon, 1u);  // still warm inside the horizon
  EXPECT_EQ(h.executor(0).warm_pool_size(), 0u);
  EXPECT_EQ(h.executor(0).warm_pool_stats().predictive_evictions, 1u);
  EXPECT_EQ(h.executor(0).warm_pool_memory_bytes(), 0u);
}

TEST(WarmPool, IdleHistoryQuantileDrivesTheHorizon) {
  IdleHistory hist;
  EXPECT_EQ(hist.count(), 0u);
  hist.record(10);
  hist.record(40);
  hist.record(20);
  hist.record(30);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.quantile(0.0), 10u);
  EXPECT_EQ(hist.quantile(0.5), 30u);  // nearest-rank over {10,20,30,40}
  EXPECT_EQ(hist.quantile(0.99), 40u);
  EXPECT_EQ(hist.quantile(1.0), 40u);

  // The window retains only the newest kWindow samples.
  for (std::size_t i = 0; i < IdleHistory::kWindow; ++i) hist.record(1000 + i);
  EXPECT_EQ(hist.count(), IdleHistory::kWindow);
  EXPECT_EQ(hist.quantile(0.0), 1000u);
  EXPECT_EQ(hist.quantile(1.0), 1000u + IdleHistory::kWindow - 1);
}

TEST(BufferPool, RecycledOutputBufferReadsAsZerosToTheNextTenant) {
  // Tenant 1's worker writes 0xAA through its output buffer and retires
  // with the warm pool off, so its buffers go back to the executor's
  // pool; tenant 2's worker is built from them. The two buffer sizes
  // differ, so the output buffer goes back to the output role.
  constexpr std::size_t kOut = 128_KiB;
  auto fleet = small_fleet();
  fleet.config.worker_buffer_bytes = 64_KiB;
  fleet.config.worker_out_buffer_bytes = kOut;
  cluster::Harness h(fleet);
  const std::uint8_t* writer_out = nullptr;
  const std::uint8_t* reader_out = nullptr;
  bool reader_saw_zeros = false;
  CodePackage writer;
  writer.name = "writer";
  writer.entry = [&writer_out](const void*, std::uint32_t, void* out) -> std::uint32_t {
    writer_out = static_cast<const std::uint8_t*>(out);
    std::memset(out, 0xAA, kOut);
    return 64;
  };
  CodePackage reader;
  reader.name = "reader";
  reader.entry = [&](const void*, std::uint32_t, void* out) -> std::uint32_t {
    reader_out = static_cast<const std::uint8_t*>(out);
    reader_saw_zeros =
        std::all_of(reader_out, reader_out + kOut, [](std::uint8_t b) { return b == 0; });
    return 64;  // hands back bytes it never wrote
  };
  h.registry().add(std::move(writer));
  h.registry().add(std::move(reader));
  h.start();
  auto tenant1 = h.make_invoker(0, 1);
  auto tenant2 = h.make_invoker(0, 2);

  InvocationResult wrote{}, read{};
  std::array<std::uint8_t, 64> seen1{}, seen2{};
  drive(h, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "writer";
    EXPECT_TRUE((co_await tenant1->allocate(spec)).ok());
    auto in1 = tenant1->input_buffer<std::uint8_t>(64);
    auto out1 = tenant1->output_buffer<std::uint8_t>(64);
    wrote = co_await tenant1->invoke(0, in1, 16, out1);
    std::copy_n(out1.data(), 64, seen1.begin());
    co_await tenant1->deallocate();
    co_await sim::delay(100_ms);

    spec.function_name = "reader";
    EXPECT_TRUE((co_await tenant2->allocate(spec)).ok());
    auto in2 = tenant2->input_buffer<std::uint8_t>(64);
    auto out2 = tenant2->output_buffer<std::uint8_t>(64);
    std::fill_n(out2.data(), 64, 0x55);
    read = co_await tenant2->invoke(0, in2, 16, out2);
    std::copy_n(out2.data(), 64, seen2.begin());
    co_await tenant2->deallocate();
  });

  const auto all = [](const std::array<std::uint8_t, 64>& bytes, std::uint8_t v) {
    return std::all_of(bytes.begin(), bytes.end(), [v](std::uint8_t b) { return b == v; });
  };
  ASSERT_TRUE(wrote.ok);
  EXPECT_TRUE(all(seen1, 0xAA));
  ASSERT_NE(writer_out, nullptr);
  EXPECT_EQ(reader_out, writer_out) << "tenant 2's worker did not reuse tenant 1's buffer";
  EXPECT_EQ(h.executor(0).warm_pool_stats().parked, 0u);
  EXPECT_TRUE(reader_saw_zeros);
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.output_bytes, 64u);
  EXPECT_TRUE(all(seen2, 0));
}

// --------------------------------------------------------------------------
// Graceful drain and coalesced termination pushes
// --------------------------------------------------------------------------

sim::Task<void> invoke_into(Invoker& invoker, rdmalib::Buffer<std::uint8_t>& in,
                            rdmalib::Buffer<std::uint8_t>& out, InvocationResult& result) {
  result = co_await invoker.invoke(0, in, 16, out);
}

TEST(GracefulDrain, InFlightInvocationFinishesBeforeEvictionTeardown) {
  cluster::Harness h(small_fleet());
  CodePackage slow;
  slow.name = "slow";
  slow.entry = [](const void* in, std::uint32_t size, void* out) -> std::uint32_t {
    std::memcpy(out, in, size);
    return size;
  };
  slow.cost = [](std::uint32_t) -> Duration { return 20_ms; };
  h.registry().add(std::move(slow));
  h.start();
  auto invoker = h.make_invoker();

  InvocationResult result{};
  drive(h, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "slow";
    spec.workers = 1;
    spec.policy = InvocationPolicy::HotAlways;
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());
    auto in = invoker->input_buffer<std::uint8_t>(64);
    auto out = invoker->output_buffer<std::uint8_t>(64);
    fill_pattern({in.data(), 64}, 5);

    // Launch a 20 ms invocation, then evict its lease 5 ms in: the
    // teardown must wait for the running invocation to deliver.
    sim::spawn(h.engine(), invoke_into(*invoker, in, out, result));
    co_await sim::delay(5_ms);
    (void)h.rm().evict_leases(h.rm().core().active_lease_ids(),
                              TerminationReason::QuotaPressure);
    co_await sim::delay(2_s);
  });

  EXPECT_TRUE(result.ok) << "in-flight invocation was cut off by the eviction";
  EXPECT_GE(result.latency(), 20_ms);
  EXPECT_GE(h.executor(0).drained_in_flight(), 1u);
  EXPECT_EQ(h.executor(0).live_sandboxes(), 0u);  // ...but the sandbox did go away
}

TEST(Coalescing, OneEvictionSweepSendsOnePushPerStream) {
  // Two 1-core executors: a 2-worker allocation spans two leases owned
  // by one (subscribed) client.
  cluster::Harness h(small_fleet(/*executors=*/2, /*cores=*/1));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  drive(h, 30_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 2;
    spec.lease_timeout = 30_s;
    spec.self_heal = true;  // subscribes the notification stream
    EXPECT_TRUE((co_await invoker->allocate(spec)).ok());

    auto ids = h.rm().core().active_lease_ids();
    EXPECT_EQ(ids.size(), 2u);
    EXPECT_EQ(h.rm().evict_leases(ids, TerminationReason::QuotaPressure), 2u);
    co_await sim::delay(2_s);
    co_await invoker->deallocate();
  });

  // 2 evicted leases, 3 destination streams (2 executors + 1 client):
  // the client's stream got ONE LeasesTerminated carrying both ids, not
  // two pushes — 3 messages where the per-lease scheme sent 4.
  EXPECT_EQ(h.rm().evictions_notified(), 2u);
  EXPECT_EQ(h.rm().notification_messages(), 3u);
  // The client decoded the batched push: both leases were untracked (and
  // healed, since self_heal is on).
  EXPECT_EQ(invoker->leases().terminations(), 2u);
  EXPECT_GE(invoker->leases().reallocations(), 1u);
}

// --------------------------------------------------------------------------
// Bounded simulator state under a hot burst
// --------------------------------------------------------------------------

TEST(BoundedState, HotBurstLeavesNoTimerBacklogAndNoDestroyedQps) {
  // Every hot poll waits with a fresh 500 ms deadline. After a burst the
  // engine must hold O(workers) events, not a parked timer per
  // invocation, and closing the connections must free their queue pairs.
  cluster::Harness h(cluster::ScenarioSpec::uniform(2));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  constexpr int kCalls = 20'000;
  int ok = 0;
  std::size_t pending_after_burst = 0;
  drive(h, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 8;
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    invoker->reserve_slots(/*count=*/8, /*max_input=*/64, /*max_output=*/64);
    std::array<std::uint8_t, 16> payload;
    payload.fill(0x3C);
    for (int i = 0; i < kCalls; ++i) {
      if ((co_await invoker->invoke_pooled(0, payload)).ok) ++ok;
    }
    pending_after_burst = h.engine().pending();
    co_await invoker->deallocate();
  });

  EXPECT_EQ(ok, kCalls);
  EXPECT_LT(pending_after_burst, 64u);  // one parked timer per call used to leave ~20k
  for (fabric::DeviceId id = 0; const fabric::Device* dev = h.fabric().device(id); ++id) {
    EXPECT_EQ(dev->destroyed_qps(), 0u) << dev->name();
  }
}

TEST(BoundedState, HotInvocationsAllocateNothing) {
  // Once a hot client has warmed up, an invocation allocates nothing:
  // coroutine frames come from the engine's free lists, the simulator's
  // queues rotate in place and the payload stays in the registered slot.
  // 256 B plus the 32 B header is above the 128 B inline ceiling, so the
  // fabric does not copy the payload at post time. 64 B plus the header
  // is below it: request and result are inlined, and the fabric captures
  // their bytes at post time in its task's recycled frame.
  cluster::Harness h(cluster::ScenarioSpec::uniform(2));
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  constexpr int kWarmup = 200;
  constexpr int kCalls = 5'000;
  int ok = 0;
  int inline_ok = 0;
  std::uint64_t allocations = 0;
  std::uint64_t inline_allocations = 0;
  drive(h, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 8;
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await invoker->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    invoker->reserve_slots(/*count=*/8, /*max_input=*/512, /*max_output=*/512);
    std::array<std::uint8_t, 256> payload;
    payload.fill(0x42);
    std::array<std::uint8_t, 64> inline_payload;
    inline_payload.fill(0x24);
    for (int i = 0; i < kWarmup; ++i) {
      (void)co_await invoker->invoke_pooled(0, payload);
      (void)co_await invoker->invoke_pooled(0, inline_payload);
    }
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < kCalls; ++i) {
      if ((co_await invoker->invoke_pooled(0, payload)).ok) ++ok;
    }
    allocations = g_allocations.load(std::memory_order_relaxed) - before;
    before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < kCalls; ++i) {
      if ((co_await invoker->invoke_pooled(0, inline_payload)).ok) ++inline_ok;
    }
    inline_allocations = g_allocations.load(std::memory_order_relaxed) - before;
    co_await invoker->deallocate();
  });

  EXPECT_EQ(ok, kCalls);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(inline_ok, kCalls);
  EXPECT_EQ(inline_allocations, 0u);
}

TEST(BoundedState, QueuesThatNeverHoldTwoElementsAllocateNothing) {
  // A queue keeps its first element in an inline slot, so a short-lived
  // queue that never holds two at once never allocates: the waiter list
  // of a one-shot future, a completion queue drained after every
  // completion, a channel that hands over one message, a queue pair with
  // one posted receive.
  std::uint64_t mismatches = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    sim::Fifo<std::coroutine_handle<>> waiters;
    waiters.push_back(std::noop_coroutine());
    waiters.pop_front();
    sim::Fifo<fabric::Wc> completions;
    completions.push_back(fabric::Wc{.wr_id = i});
    if (completions.front().wr_id != i) ++mismatches;
    completions.erase(0);
    sim::Fifo<std::pair<std::coroutine_handle<>, void*>> receivers;
    receivers.push_back({std::noop_coroutine(), nullptr});
    receivers.clear();
    sim::Fifo<Bytes> messages;
    messages.push_back(Bytes{});
    messages.pop_front();
    sim::Fifo<fabric::RecvWr> receives;
    receives.push_back(fabric::RecvWr{.wr_id = i, .sge = {}});
    if (receives.front().wr_id != i) ++mismatches;
    receives.pop_front();
    if (!waiters.empty() || !completions.empty() || !receivers.empty() || !messages.empty() ||
        !receives.empty()) {
      ++mismatches;
    }
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(BoundedState, RetiredSandboxesAndTheirProtectionDomainsAreFreed) {
  // Cold allocate/invoke/deallocate cycles: a retired sandbox (workers,
  // connections, protection domains) is freed once its serving loops
  // have exited instead of staying parked for the whole run.
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();
  auto& executor = h.executor(0);
  const std::size_t pds_before = executor.device().pd_count();

  constexpr int kCycles = 40;
  constexpr std::uint32_t kWorkers = 3;
  int ok = 0;
  drive(h, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = kWorkers;
    spec.policy = InvocationPolicy::HotAlways;
    invoker->reserve_slots(/*count=*/1, /*max_input=*/64, /*max_output=*/64);
    std::array<std::uint8_t, 16> payload;
    payload.fill(0x7E);
    for (int c = 0; c < kCycles; ++c) {
      auto st = co_await invoker->allocate(spec);
      EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
      if ((co_await invoker->invoke_pooled(0, payload)).ok) ++ok;
      co_await invoker->deallocate();
      co_await sim::delay(10_ms);
    }
  });

  EXPECT_EQ(ok, kCycles);
  EXPECT_EQ(executor.live_sandboxes(), 0u);
  // Only the latest burial waits for the next one to free it.
  EXPECT_LE(executor.buried_sandboxes(), 1u);
  EXPECT_LE(executor.device().pd_count(), pds_before + kWorkers);
  EXPECT_EQ(executor.device().destroyed_qps(), 0u);
}

TEST(BoundedState, DeallocatedSandboxesLeaveNoExpiryTimer) {
  // Clients hand allocations back long before their 300 s leases run
  // out. The executor must not keep a lease-expiry timer queued per
  // sandbox it already tore down.
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();

  constexpr int kCycles = 200;
  int ok = 0;
  std::size_t pending_after_cycles = 0;
  drive(h, 60_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::HotAlways;
    invoker->reserve_slots(/*count=*/1, /*max_input=*/64, /*max_output=*/64);
    std::array<std::uint8_t, 16> payload;
    payload.fill(0x5A);
    for (int c = 0; c < kCycles; ++c) {
      auto st = co_await invoker->allocate(spec);
      EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
      if ((co_await invoker->invoke_pooled(0, payload)).ok) ++ok;
      co_await invoker->deallocate();
    }
    pending_after_cycles = h.engine().pending();
  });

  EXPECT_EQ(ok, kCycles);
  EXPECT_LT(pending_after_cycles, 64u);  // one parked timer per cycle used to leave ~200
}

TEST(BoundedState, ShorterLeaseReArmsTheExpiryActor) {
  // The executor's expiry actor sleeps until the 300 s deadline of the
  // first sandbox; a 2 s lease granted after it must still be torn down
  // at 2 s, and the first sandbox must keep serving.
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto long_client = h.make_invoker(/*client_host=*/0, /*client_id=*/1);
  auto short_client = h.make_invoker(/*client_host=*/0, /*client_id=*/2);

  InvocationResult long_late{};
  InvocationResult short_late{};
  std::size_t live_at_3s = 0;
  drive(h, 20_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.policy = InvocationPolicy::HotAlways;
    auto st = co_await long_client->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
    spec.lease_timeout = 2_s;
    st = co_await short_client->allocate(spec);
    EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);

    auto long_in = long_client->input_buffer<std::uint8_t>(64);
    auto long_out = long_client->output_buffer<std::uint8_t>(64);
    auto short_in = short_client->input_buffer<std::uint8_t>(64);
    auto short_out = short_client->output_buffer<std::uint8_t>(64);
    co_await sim::delay(3_s);
    live_at_3s = h.executor(0).live_sandboxes();
    short_late = co_await short_client->invoke(0, short_in, 16, short_out);
    long_late = co_await long_client->invoke(0, long_in, 16, long_out);
  });

  EXPECT_EQ(live_at_3s, 1u);
  EXPECT_FALSE(short_late.ok);
  EXPECT_TRUE(long_late.ok);
}

TEST(BoundedState, SandboxTornDownDuringItsColdStartLeaksNothing) {
  // A drain lands while the executor spawns the sandbox (its 25 ms spawn
  // latency) and tears the still-empty sandbox down. The allocation must
  // fail instead of starting workers that wait for a connection the
  // executor refuses and so never free their protection domains.
  cluster::Harness h(small_fleet());
  h.registry().add_echo();
  h.start();
  auto invoker = h.make_invoker();
  auto& executor = h.executor(0);
  const std::size_t pds_before = executor.device().pd_count();

  bool drained_before_workers = false;
  auto drainer = [&]() -> sim::Task<void> {
    while (executor.live_sandboxes() == 0) co_await sim::delay(100_us);
    drained_before_workers = executor.device().pd_count() == pds_before;
    EXPECT_EQ(h.drain_executor(0), std::optional<std::size_t>{1});
  };
  h.spawn(drainer());
  bool allocated = true;
  drive(h, 10_s, [&]() -> sim::Task<void> {
    AllocationSpec spec;
    spec.function_name = "echo";
    spec.workers = 2;
    spec.policy = InvocationPolicy::HotAlways;
    allocated = (co_await invoker->allocate(spec)).ok();
  });

  EXPECT_TRUE(drained_before_workers);
  EXPECT_FALSE(allocated);
  EXPECT_EQ(executor.live_sandboxes(), 0u);
  EXPECT_EQ(executor.device().pd_count(), pds_before);
}

}  // namespace
}  // namespace rfs::rfaas
