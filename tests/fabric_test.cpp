// Unit tests for the RDMA fabric: data movement, completion semantics,
// protection, atomics, inlining, link serialization and connection
// management.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "fabric/fabric.hpp"
#include "sim/task.hpp"

namespace rfs::fabric {
namespace {

class FabricTest : public ::testing::Test {
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

  /// Expected one-way completion latency for a payload of `n` bytes.
  [[nodiscard]] Duration write_latency(std::uint64_t n, bool inlined) const {
    const auto& m = fab.model();
    return m.post_overhead + (inlined ? 0 : m.dma_read_latency) + m.wire_latency +
           m.wire_time(n) + m.cqe_overhead;
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

TEST_F(FabricTest, WriteMovesBytesAndCompletesOnTime) {
  Bytes src(4096), dst(4096);
  fill_pattern(src, 1);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  SendWr wr;
  wr.wr_id = 42;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 4096, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();

  EXPECT_EQ(src, dst);
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.wr_id, 42u);
  EXPECT_EQ(wc.status, WcStatus::Success);
  EXPECT_EQ(wc.byte_len, 4096u);
  EXPECT_EQ(eng.now(), write_latency(4096, false));
}

TEST_F(FabricTest, InlineWriteSkipsDmaRead) {
  Bytes src(64), dst(64);
  fill_pattern(src, 2);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 64, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  wr.inline_data = true;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();

  EXPECT_EQ(src, dst);
  EXPECT_EQ(eng.now(), write_latency(64, true));
}

TEST_F(FabricTest, InlineCapturesPayloadAtPostTime) {
  Bytes src(16, 0xAA), dst(16, 0);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 16, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  wr.inline_data = true;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  // Scribble over the source immediately after posting: an inlined send
  // must have captured the original bytes already.
  std::fill(src.begin(), src.end(), 0x55);
  eng.run();
  EXPECT_EQ(dst, Bytes(16, 0xAA));
}

TEST_F(FabricTest, OversizedInlineRejectedAtPostTime) {
  Bytes src(4096);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()),
             fab.model().max_inline + 1, mrA->lkey()}};
  wr.inline_data = true;
  EXPECT_FALSE(qpA->post_send(wr).ok());
}

TEST_F(FabricTest, PingPongMatchesCalibratedRtt) {
  // Two 8-byte inlined WriteImm exchanges = the ib_write_lat ping-pong.
  // The model is calibrated to the paper's 3.69 us RTT.
  Bytes bufA(64), bufB(64);
  auto* mrA = pdA->register_memory(bufA.data(), bufA.size(), LocalWrite | RemoteWrite);
  auto* mrB = pdB->register_memory(bufB.data(), bufB.size(), LocalWrite | RemoteWrite);

  Time rtt = 0;
  auto side_a = [&]() -> sim::Task<void> {
    EXPECT_TRUE(qpA->post_recv({1, {}}).ok());
    SendWr wr;
    wr.opcode = Opcode::WriteImm;
    wr.sge = {{reinterpret_cast<std::uint64_t>(bufA.data()), 8, mrA->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(bufB.data());
    wr.rkey = mrB->rkey();
    wr.inline_data = true;
    wr.signaled = false;
    EXPECT_TRUE(qpA->post_send(wr).ok());
    co_await rcqA->wait_polling();  // pong received
    rtt = eng.now();
  };
  auto side_b = [&]() -> sim::Task<void> {
    EXPECT_TRUE(qpB->post_recv({2, {}}).ok());
    co_await rcqB->wait_polling();  // ping received
    SendWr wr;
    wr.opcode = Opcode::WriteImm;
    wr.sge = {{reinterpret_cast<std::uint64_t>(bufB.data()), 8, mrB->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(bufA.data());
    wr.rkey = mrA->rkey();
    wr.inline_data = true;
    wr.signaled = false;
    EXPECT_TRUE(qpB->post_send(wr).ok());
  };
  auto ta = side_a();
  auto tb = side_b();
  sim::spawn(eng, std::move(ta));
  sim::spawn(eng, std::move(tb));
  eng.run();
  EXPECT_NEAR(static_cast<double>(rtt), 3690.0, 15.0);
}

TEST_F(FabricTest, AWorkRequestCostsThreeEngineEvents) {
  // Launch, landing and CQE are the three resumptions of a work request's
  // one coroutine frame; with no waiter on either CQ nothing else runs.
  constexpr std::size_t kRequests = 20;
  Bytes src(64), dst(64);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);
  for (const bool inlined : {false, true}) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(qpB->post_recv({i, {}}).ok());
      SendWr wr;
      wr.wr_id = i;
      wr.opcode = Opcode::WriteImm;
      wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 64, mrA->lkey()}};
      wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
      wr.rkey = mrB->rkey();
      wr.inline_data = inlined;
      ASSERT_TRUE(qpA->post_send(wr).ok());
    }
    std::size_t steps = 0;
    while (eng.step()) ++steps;
    EXPECT_EQ(steps, 3 * kRequests) << (inlined ? "inlined" : "not inlined");
    Wc wc[kRequests];
    EXPECT_EQ(scqA->poll(wc), kRequests);
    EXPECT_EQ(rcqB->poll(wc), kRequests);
  }
}

TEST_F(FabricTest, WriteImmDeliversImmediateAndConsumesRecv) {
  Bytes src(128), dst(128);
  fill_pattern(src, 3);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);
  ASSERT_TRUE(qpB->post_recv({77, {}}).ok());

  SendWr wr;
  wr.opcode = Opcode::WriteImm;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 128, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  wr.imm = 0xDEADBEEF;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();

  EXPECT_EQ(src, dst);
  Wc wc;
  ASSERT_EQ(rcqB->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.wr_id, 77u);
  EXPECT_TRUE(wc.has_imm);
  EXPECT_EQ(wc.imm, 0xDEADBEEFu);
  EXPECT_EQ(wc.opcode, Opcode::RecvImm);
  EXPECT_EQ(wc.byte_len, 128u);
  EXPECT_EQ(qpB->recv_queue_depth(), 0u);
}

TEST_F(FabricTest, SendScattersIntoReceiveBuffer) {
  Bytes src(100), dst(256, 0);
  fill_pattern(src, 4);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), LocalWrite);
  ASSERT_TRUE(
      qpB->post_recv({5, {{reinterpret_cast<std::uint64_t>(dst.data()), 256, mrB->lkey()}}}).ok());

  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 100, mrA->lkey()}};
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();

  EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin()));
  Wc wc;
  ASSERT_EQ(rcqB->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.byte_len, 100u);
  EXPECT_EQ(wc.opcode, Opcode::Recv);
}

TEST_F(FabricTest, SendOverflowingReceiveFailsBothSides) {
  Bytes src(300), dst(100);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), LocalWrite);
  ASSERT_TRUE(
      qpB->post_recv({6, {{reinterpret_cast<std::uint64_t>(dst.data()), 100, mrB->lkey()}}}).ok());

  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 300, mrA->lkey()}};
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();

  Wc wc;
  ASSERT_EQ(rcqB->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::LocalProtectionError);
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
}

TEST_F(FabricTest, RnrErrorWhenNoReceivePosted) {
  Bytes src(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RnrRetryExceeded);
}

TEST_F(FabricTest, RnrWaitPolicyParksUntilReceivePosted) {
  qpB->set_rnr_policy(RnrPolicy::Wait);
  Bytes src(8), dst(8);
  fill_pattern(src, 9);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), LocalWrite);

  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  ASSERT_TRUE(qpA->post_send(wr).ok());

  auto late_recv = [&]() -> sim::Task<void> {
    co_await sim::delay(1_ms);
    EXPECT_TRUE(
        qpB->post_recv({8, {{reinterpret_cast<std::uint64_t>(dst.data()), 8, mrB->lkey()}}}).ok());
  };
  sim::spawn(eng, late_recv());
  eng.run();

  EXPECT_EQ(src, dst);
  Wc wc;
  ASSERT_EQ(rcqB->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::Success);
  EXPECT_GE(eng.now(), 1_ms);
}

TEST_F(FabricTest, ParkedDeliveryCompletesOneCqeAfterTheReceive) {
  // A Send parked for want of a receive lands when the receive is posted,
  // and both completions follow one CQE generation later.
  qpB->set_rnr_policy(RnrPolicy::Wait);
  Bytes src(8), dst(8);
  fill_pattern(src, 5);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), LocalWrite);

  SendWr wr;
  wr.wr_id = 4;
  wr.opcode = Opcode::Send;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  ASSERT_TRUE(qpA->post_send(wr).ok());

  Time recv_done = 0, send_done = 0;
  auto late_recv = [&]() -> sim::Task<void> {
    co_await sim::delay(1_ms);
    EXPECT_TRUE(
        qpB->post_recv({8, {{reinterpret_cast<std::uint64_t>(dst.data()), 8, mrB->lkey()}}}).ok());
  };
  auto wait_recv = [&]() -> sim::Task<void> {
    auto wc = co_await rcqB->wait_polling();
    EXPECT_EQ(wc->wr_id, 8u);
    EXPECT_EQ(wc->status, WcStatus::Success);
    recv_done = eng.now();
  };
  auto wait_send = [&]() -> sim::Task<void> {
    auto wc = co_await scqA->wait_polling();
    EXPECT_EQ(wc->wr_id, 4u);
    EXPECT_EQ(wc->status, WcStatus::Success);
    send_done = eng.now();
  };
  sim::spawn(eng, late_recv());
  sim::spawn(eng, wait_recv());
  sim::spawn(eng, wait_send());
  eng.run();

  EXPECT_EQ(src, dst);
  EXPECT_EQ(recv_done, 1_ms + fab.model().cqe_overhead);
  EXPECT_EQ(send_done, 1_ms + fab.model().cqe_overhead);
}

TEST_F(FabricTest, WriteWithoutRemoteWritePermissionFails) {
  Bytes src(8), dst(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteRead);  // no RemoteWrite

  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
  EXPECT_EQ(dst, Bytes(8, 0));
}

TEST_F(FabricTest, WriteOutOfBoundsFails) {
  Bytes src(64), dst(64);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 64, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data()) + 32;  // 32+64 > 64
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
}

TEST_F(FabricTest, BadRkeyFails) {
  Bytes src(8), dst(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = 0xBAD;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
}

TEST_F(FabricTest, BadLkeyRejectedSynchronously) {
  Bytes src(8);
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, 0xBAD}};
  EXPECT_FALSE(qpA->post_send(wr).ok());
}

TEST_F(FabricTest, DeregisteredRkeyFails) {
  Bytes src(8), dst(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);
  std::uint32_t rkey = mrB->rkey();
  pdB->deregister(mrB);

  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = rkey;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
}

TEST_F(FabricTest, ReadPullsRemoteData) {
  Bytes remote(512), local(512, 0);
  fill_pattern(remote, 11);
  auto* mrB = pdB->register_memory(remote.data(), remote.size(), RemoteRead);
  auto* mrA = pdA->register_memory(local.data(), local.size(), LocalWrite);

  SendWr wr;
  wr.opcode = Opcode::Read;
  wr.sge = {{reinterpret_cast<std::uint64_t>(local.data()), 512, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(remote.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();

  EXPECT_EQ(local, remote);
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::Success);
  EXPECT_EQ(wc.byte_len, 512u);
}

TEST_F(FabricTest, ReadWithoutPermissionFails) {
  Bytes remote(8), local(8);
  auto* mrB = pdB->register_memory(remote.data(), remote.size(), RemoteWrite);
  auto* mrA = pdA->register_memory(local.data(), local.size(), LocalWrite);
  SendWr wr;
  wr.opcode = Opcode::Read;
  wr.sge = {{reinterpret_cast<std::uint64_t>(local.data()), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(remote.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
}

TEST_F(FabricTest, FetchAddReturnsOriginalAndAdds) {
  alignas(8) std::uint64_t counter = 100;
  alignas(8) std::uint64_t result = 0;
  auto* mrB = pdB->register_memory(&counter, 8, RemoteAtomic);
  auto* mrA = pdA->register_memory(&result, 8, LocalWrite);

  SendWr wr;
  wr.opcode = Opcode::FetchAdd;
  wr.sge = {{reinterpret_cast<std::uint64_t>(&result), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(&counter);
  wr.rkey = mrB->rkey();
  wr.swap_or_add = 42;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();

  EXPECT_EQ(counter, 142u);
  EXPECT_EQ(result, 100u);
}

TEST_F(FabricTest, FetchAddSerializesConcurrentUpdates) {
  alignas(8) std::uint64_t counter = 0;
  alignas(8) std::uint64_t results[10] = {};
  auto* mrB = pdB->register_memory(&counter, 8, RemoteAtomic);
  auto* mrA = pdA->register_memory(results, sizeof(results), LocalWrite);

  for (int i = 0; i < 10; ++i) {
    SendWr wr;
    wr.opcode = Opcode::FetchAdd;
    wr.sge = {{reinterpret_cast<std::uint64_t>(&results[i]), 8, mrA->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(&counter);
    wr.rkey = mrB->rkey();
    wr.swap_or_add = 1;
    ASSERT_TRUE(qpA->post_send(wr).ok());
  }
  eng.run();
  EXPECT_EQ(counter, 10u);
  // Each fetch-add observed a distinct original value.
  std::vector<std::uint64_t> seen(results, results + 10);
  std::sort(seen.begin(), seen.end());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(FabricTest, CompareSwapOnlySwapsOnMatch) {
  alignas(8) std::uint64_t target = 7;
  alignas(8) std::uint64_t result = 0;
  auto* mrB = pdB->register_memory(&target, 8, RemoteAtomic);
  auto* mrA = pdA->register_memory(&result, 8, LocalWrite);

  SendWr wr;
  wr.opcode = Opcode::CmpSwap;
  wr.sge = {{reinterpret_cast<std::uint64_t>(&result), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(&target);
  wr.rkey = mrB->rkey();
  wr.compare = 7;
  wr.swap_or_add = 99;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  EXPECT_EQ(target, 99u);
  EXPECT_EQ(result, 7u);

  // Second CAS with stale compare value fails to swap.
  wr.compare = 7;
  wr.swap_or_add = 123;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  EXPECT_EQ(target, 99u);
  EXPECT_EQ(result, 99u);  // original returned
}

TEST_F(FabricTest, MisalignedAtomicRejected) {
  alignas(8) std::uint64_t data[2] = {};
  alignas(8) std::uint64_t result = 0;
  auto* mrB = pdB->register_memory(data, sizeof(data), RemoteAtomic);
  auto* mrA = pdA->register_memory(&result, 8, LocalWrite);
  SendWr wr;
  wr.opcode = Opcode::FetchAdd;
  wr.sge = {{reinterpret_cast<std::uint64_t>(&result), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(data) + 4;
  wr.rkey = mrB->rkey();
  EXPECT_FALSE(qpA->post_send(wr).ok());
}

TEST_F(FabricTest, ConcurrentLargeWritesSerializeOnLink) {
  // Two 1 MiB writes from A to B must take ~2x the wire time of one.
  constexpr std::size_t kSize = 1_MiB;
  Bytes src1(kSize), src2(kSize), dst1(kSize), dst2(kSize);
  auto* mrA1 = pdA->register_memory(src1.data(), kSize, LocalWrite);
  auto* mrA2 = pdA->register_memory(src2.data(), kSize, LocalWrite);
  auto* mrB1 = pdB->register_memory(dst1.data(), kSize, RemoteWrite);
  auto* mrB2 = pdB->register_memory(dst2.data(), kSize, RemoteWrite);

  auto post = [&](Bytes& src, std::uint32_t lkey, Bytes& dst, std::uint32_t rkey) {
    SendWr wr;
    wr.opcode = Opcode::Write;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), kSize, lkey}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
    wr.rkey = rkey;
    ASSERT_TRUE(qpA->post_send(wr).ok());
  };
  post(src1, mrA1->lkey(), dst1, mrB1->rkey());
  post(src2, mrA2->lkey(), dst2, mrB2->rkey());
  eng.run();

  Duration one = fab.model().wire_time(kSize);
  Duration expected_min = 2 * one;  // serialization on the TX link
  EXPECT_GE(eng.now(), expected_min);
  EXPECT_LE(eng.now(), expected_min + 10_us);
}

TEST_F(FabricTest, DestroyedPeerYieldsRetryExceeded) {
  Bytes src(8), dst(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);
  devB->destroy_qp(qpB);

  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RetryExceeded);
}

TEST_F(FabricTest, DestroyFlushesPostedReceives) {
  ASSERT_TRUE(qpB->post_recv({31, {}}).ok());
  ASSERT_TRUE(qpB->post_recv({32, {}}).ok());
  devB->destroy_qp(qpB);
  eng.run();
  Wc wc[4];
  ASSERT_EQ(rcqB->poll(std::span<Wc>(wc, 4)), 2u);
  EXPECT_EQ(wc[0].status, WcStatus::FlushError);
  EXPECT_EQ(wc[0].wr_id, 31u);
  EXPECT_EQ(wc[1].status, WcStatus::FlushError);
}

TEST_F(FabricTest, DestroyedQpIsFreedOnceItsInFlightSendFinishes) {
  Bytes src(8), dst(8);
  fill_pattern(src, 3);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  devA->destroy_qp(qpA);  // the write is still in flight
  EXPECT_EQ(devA->destroyed_qps(), 1u);
  EXPECT_EQ(qpB->peer(), nullptr);  // B's next operation fails with RetryExceeded
  eng.run();
  EXPECT_EQ(devA->destroyed_qps(), 0u);
  EXPECT_EQ(dst, src);  // the write posted before the destroy still lands...
  Wc wc;
  EXPECT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 0u);  // ...but posts no completion
}

TEST_F(FabricTest, TargetDestroyedBeforeTheCqePostsOnlyTheInitiatorsCompletion) {
  Bytes src(64), dst(64);
  fill_pattern(src, 6);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);
  ASSERT_TRUE(qpB->post_recv({9, {}}).ok());
  SendWr wr;
  wr.wr_id = 3;
  wr.opcode = Opcode::WriteImm;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 64, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());

  const Duration cqe = fab.model().cqe_overhead;
  const Time landing = write_latency(64, false) - cqe;
  Time send_done = 0;
  auto destroy = [&]() -> sim::Task<void> {
    co_await sim::delay_until(landing + cqe / 2);
    EXPECT_EQ(dst, src);  // the write has landed...
    devB->destroy_qp(qpB);
  };
  auto wait_send = [&]() -> sim::Task<void> {
    auto wc = co_await scqA->wait_polling();
    EXPECT_EQ(wc->wr_id, 3u);
    EXPECT_EQ(wc->status, WcStatus::Success);
    send_done = eng.now();
  };
  sim::spawn(eng, destroy());
  sim::spawn(eng, wait_send());
  eng.run();

  EXPECT_TRUE(rcqB->empty());  // ...but the destroyed target posts nothing
  EXPECT_EQ(send_done, landing + cqe);
}

TEST_F(FabricTest, DeallocatedPdIsFreedWithItsLastQueuePair) {
  const std::size_t pds = devA->pd_count();
  devA->dealloc_pd(devA->alloc_pd());  // no queue pair on it: freed at once
  EXPECT_EQ(devA->pd_count(), pds);
  devA->dealloc_pd(pdA);  // qpA still uses it
  EXPECT_EQ(devA->pd_count(), pds);
  devA->destroy_qp(qpA);
  EXPECT_EQ(devA->pd_count(), pds - 1);
}

// Memory keys name slots of the fabric's key table; a freed slot comes
// back under a new generation.

TEST_F(FabricTest, AReusedKeySlotRefusesTheKeysOfItsLastRegistration) {
  Bytes src(8), dst(8), next(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* old = pdB->register_memory(dst.data(), dst.size(), LocalWrite | RemoteWrite);
  const std::uint32_t old_lkey = old->lkey();
  const std::uint32_t old_rkey = old->rkey();
  const std::size_t slots = fab.keys().size();
  pdB->deregister(old);
  auto* fresh = pdB->register_memory(next.data(), next.size(), LocalWrite | RemoteWrite);
  EXPECT_EQ(fab.keys().size(), slots);  // the freed slot served it
  EXPECT_NE(fresh->lkey(), old_lkey);
  EXPECT_NE(fresh->rkey(), old_rkey);

  // The old lkey is refused at post time...
  SendWr local;
  local.opcode = Opcode::Write;
  local.sge = {{reinterpret_cast<std::uint64_t>(dst.data()), 8, old_lkey}};
  local.remote_addr = reinterpret_cast<std::uint64_t>(src.data());
  EXPECT_FALSE(qpB->post_send(local).ok());

  // ...the old rkey by the target NIC, and the new one is served.
  auto write = [&](std::uint64_t to, std::uint32_t rkey) {
    SendWr wr;
    wr.opcode = Opcode::Write;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
    wr.remote_addr = to;
    wr.rkey = rkey;
    EXPECT_TRUE(qpA->post_send(wr).ok());
    eng.run();
    Wc wc;
    EXPECT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
    return wc.status;
  };
  fill_pattern(src, 3);
  EXPECT_EQ(write(reinterpret_cast<std::uint64_t>(dst.data()), old_rkey),
            WcStatus::RemoteAccessError);
  EXPECT_EQ(dst, Bytes(8));
  EXPECT_EQ(write(reinterpret_cast<std::uint64_t>(next.data()), fresh->rkey()),
            WcStatus::Success);
  EXPECT_EQ(next, src);
}

TEST_F(FabricTest, LkeysAndRkeysAreNotInterchangeable) {
  Bytes src(8), dst(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite | RemoteWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), LocalWrite | RemoteWrite);
  EXPECT_EQ(pdB->find_lkey(mrB->rkey()), nullptr);
  EXPECT_EQ(pdB->find_rkey(mrB->lkey()), nullptr);
  EXPECT_EQ(pdB->find_lkey(mrB->lkey()), mrB);
  EXPECT_EQ(pdB->find_rkey(mrB->rkey()), mrB);

  // An rkey in a local SGE is refused at post time.
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->rkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  EXPECT_FALSE(qpA->post_send(wr).ok());

  // An lkey as the remote key is refused by the target.
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  wr.rkey = mrB->lkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  Wc wc;
  ASSERT_EQ(scqA->poll(std::span<Wc>(&wc, 1)), 1u);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
}

TEST_F(FabricTest, DeallocatingAPdInvalidatesEveryKeyOfIt) {
  Bytes mem(3 * 64);
  ProtectionDomain* pd = devB->alloc_pd();
  std::vector<std::uint32_t> old_keys;
  for (int i = 0; i < 3; ++i) {
    auto* mr = pd->register_memory(mem.data() + 64 * i, 64, LocalWrite | RemoteWrite);
    old_keys.push_back(mr->lkey());
    old_keys.push_back(mr->rkey());
  }
  const std::size_t slots = fab.keys().size();
  devB->dealloc_pd(pd);  // no queue pair on it: freed at once, with its keys

  // A new PD (possibly at the same address) takes the freed slots under
  // new generations; none of the old keys names anything in it.
  ProtectionDomain* next = devB->alloc_pd();
  for (int i = 0; i < 3; ++i) {
    auto* mr = next->register_memory(mem.data() + 64 * i, 64, LocalWrite | RemoteWrite);
    EXPECT_EQ(std::count(old_keys.begin(), old_keys.end(), mr->lkey()), 0);
    EXPECT_EQ(std::count(old_keys.begin(), old_keys.end(), mr->rkey()), 0);
  }
  EXPECT_EQ(fab.keys().size(), slots);
  for (const std::uint32_t key : old_keys) {
    EXPECT_EQ(next->find_lkey(key), nullptr) << key;
    EXPECT_EQ(next->find_rkey(key), nullptr) << key;
  }
  QueuePair* qp = devB->create_qp(next, scqB.get(), rcqB.get());
  QueuePair::connect_pair(*qp, *qpA);
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(mem.data()), 64, old_keys[0]}};
  EXPECT_FALSE(qp->post_send(wr).ok());
}

TEST_F(FabricTest, NoKeyIsAcceptedAfterItsRegistrationEnds) {
  // 100k register/deregister cycles through one slot at a time: every
  // key issued is new, each dies with its registration, and the table
  // stays small (a slot retires once its generations are spent).
  constexpr int kCycles = 100'000;
  Bytes mem(8);
  std::unordered_set<std::uint32_t> issued;
  std::uint32_t prev_lkey = 0, prev_rkey = 0;
  for (int i = 0; i < kCycles; ++i) {
    auto* mr = pdB->register_memory(mem.data(), mem.size(), LocalWrite | RemoteWrite);
    ASSERT_TRUE(issued.insert(mr->lkey()).second) << "cycle " << i;
    ASSERT_TRUE(issued.insert(mr->rkey()).second) << "cycle " << i;
    ASSERT_EQ(pdB->find_lkey(prev_lkey), nullptr) << "cycle " << i;
    ASSERT_EQ(pdB->find_rkey(prev_rkey), nullptr) << "cycle " << i;
    prev_lkey = mr->lkey();
    prev_rkey = mr->rkey();
    pdB->deregister(mr);
  }
  EXPECT_LT(fab.keys().size(), 100u);
  for (const std::uint32_t key : issued) {
    ASSERT_EQ(pdB->find_lkey(key), nullptr) << key;
    ASSERT_EQ(pdB->find_rkey(key), nullptr) << key;
  }
  EXPECT_EQ(pdB->find_lkey(0), nullptr);
  EXPECT_EQ(pdB->find_rkey(0), nullptr);
}

TEST_F(FabricTest, BlockingWaitAddsWakeLatency) {
  Bytes src(8), dst(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  Time poll_done = 0, block_done = 0;
  auto poller = [&]() -> sim::Task<void> {
    EXPECT_TRUE(qpB->post_recv({1, {}}).ok());
    co_await rcqB->wait_polling();
    poll_done = eng.now();
  };
  auto post_one = [&]() {
    SendWr wr;
    wr.opcode = Opcode::WriteImm;
    wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
    wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
    wr.rkey = mrB->rkey();
    wr.signaled = false;
    ASSERT_TRUE(qpA->post_send(wr).ok());
  };
  sim::spawn(eng, poller());
  post_one();
  eng.run();

  auto blocker = [&]() -> sim::Task<void> {
    EXPECT_TRUE(qpB->post_recv({2, {}}).ok());
    co_await rcqB->wait_blocking();
    block_done = eng.now();
  };
  Time start2 = eng.now();
  sim::spawn(eng, blocker());
  post_one();
  eng.run();

  Duration poll_latency = poll_done;
  Duration block_latency = block_done - start2;
  EXPECT_EQ(block_latency, poll_latency + fab.model().blocking_wake_latency);
}

TEST_F(FabricTest, ConnectionManagerEstablishesUsableQp) {
  auto& listener = fab.listen(*devB, 9000);
  Bytes dst(64);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);

  CompletionQueue scq(fab.model()), rcq(fab.model());
  CompletionQueue sscq(fab.model()), srcq(fab.model());
  QueuePair* client_qp = nullptr;

  auto server = [&]() -> sim::Task<void> {
    auto req = co_await listener.accept();
    EXPECT_TRUE(req != nullptr);
    EXPECT_EQ(req->private_data(), (Bytes{9, 9}));
    req->accept(*devB, pdB, &sscq, &srcq);
  };
  auto client = [&]() -> sim::Task<void> {
    Bytes pdata;
    pdata.push_back(9);
    pdata.push_back(9);
    auto res = co_await fab.connect(*devA, pdA, &scq, &rcq, devB->id(), 9000, std::move(pdata));
    EXPECT_TRUE(res.ok());
    client_qp = res.value().qp;
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();

  ASSERT_NE(client_qp, nullptr);
  EXPECT_EQ(client_qp->state(), QpState::Rts);
  EXPECT_GE(eng.now(), fab.model().cm_handshake);

  // The established QP moves data.
  Bytes src(64);
  fill_pattern(src, 5);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 64, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(client_qp->post_send(wr).ok());
  eng.run();
  EXPECT_EQ(src, dst);
}

TEST_F(FabricTest, ConnectToSilentPortFails) {
  CompletionQueue scq(fab.model()), rcq(fab.model());
  bool failed = false;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await fab.connect(*devA, pdA, &scq, &rcq, devB->id(), 12345);
    failed = !res.ok();
  };
  sim::spawn(eng, client());
  eng.run();
  EXPECT_TRUE(failed);
}

TEST_F(FabricTest, RejectedConnectReturnsError) {
  auto& listener = fab.listen(*devB, 9001);
  CompletionQueue scq(fab.model()), rcq(fab.model());
  bool rejected = false;
  auto server = [&]() -> sim::Task<void> {
    auto req = co_await listener.accept();
    req->reject("over capacity");
  };
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await fab.connect(*devA, pdA, &scq, &rcq, devB->id(), 9001);
    rejected = !res.ok();
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_TRUE(rejected);
}

TEST_F(FabricTest, UnsignaledSuccessProducesNoCqe) {
  Bytes src(8), dst(8);
  auto* mrA = pdA->register_memory(src.data(), src.size(), LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), dst.size(), RemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), 8, mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  wr.signaled = false;
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  EXPECT_TRUE(scqA->empty());
}

class PayloadSweep : public FabricTest, public ::testing::WithParamInterface<std::size_t> {};

TEST_P(PayloadSweep, WriteIntegrityAcrossSizes) {
  const std::size_t n = GetParam();
  Bytes src(n), dst(n);
  fill_pattern(src, n);
  auto* mrA = pdA->register_memory(src.data(), n, LocalWrite);
  auto* mrB = pdB->register_memory(dst.data(), n, RemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::Write;
  wr.sge = {{reinterpret_cast<std::uint64_t>(src.data()), static_cast<std::uint32_t>(n),
             mrA->lkey()}};
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = mrB->rkey();
  ASSERT_TRUE(qpA->post_send(wr).ok());
  eng.run();
  EXPECT_EQ(crc32c(src), crc32c(dst));
  EXPECT_EQ(eng.now(), write_latency(n, false));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSweep,
                         ::testing::Values(1, 2, 127, 128, 129, 1024, 4096, 65536, 1048576));

}  // namespace
}  // namespace rfs::fabric
