// Tests for the rdmalib abstraction layer: typed buffers (alignment,
// header regions, registration) and connections (handshake data, post
// helpers, teardown semantics, timed CQ waits).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <new>

#include "rdmalib/buffer.hpp"
#include "rdmalib/connection.hpp"

namespace rfs::rdmalib {
namespace {

class RdmalibTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eng.make_current();
    devA = &fab.create_device("A");
    devB = &fab.create_device("B");
    pdA = devA->alloc_pd();
    pdB = devB->alloc_pd();
  }

  sim::Engine eng;
  fabric::Fabric fab{eng};
  fabric::Device* devA = nullptr;
  fabric::Device* devB = nullptr;
  fabric::ProtectionDomain* pdA = nullptr;
  fabric::ProtectionDomain* pdB = nullptr;
};

TEST_F(RdmalibTest, BufferIsPageAligned) {
  for (std::size_t count : {1ul, 7ul, 4096ul, 100000ul}) {
    Buffer<double> buf(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.raw()) % 4096, 0u) << count;
    EXPECT_EQ(buf.size(), count);
    EXPECT_EQ(buf.payload_bytes(), count * sizeof(double));
  }
}

TEST_F(RdmalibTest, UnsatisfiableSizesThrowBadAlloc) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // The element bytes overflow...
  EXPECT_THROW((void)Buffer<std::uint64_t>(kMax / 4), std::bad_alloc);
  // ...the header pushes the sum over...
  EXPECT_THROW((void)Buffer<std::uint8_t>(kMax - 8, 32), std::bad_alloc);
  // ...the page rounding overflows...
  EXPECT_THROW((void)Buffer<std::uint8_t>(kMax - 100), std::bad_alloc);
  // ...or the size fits but no mapping can hold it.
  EXPECT_THROW((void)Buffer<std::uint8_t>(std::size_t{1} << 60), std::bad_alloc);
}

/// Resident pages of `buf`'s mapping, by mincore(2). Take it before
/// reading untouched bytes: a read maps the zero page, which it counts.
std::size_t resident_pages(const Buffer<std::uint8_t>& buf) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> pages((buf.mapped_bytes() + page - 1) / page);
  void* base = const_cast<std::uint8_t*>(buf.raw());
  EXPECT_EQ(::mincore(base, buf.mapped_bytes(), pages.data()), 0);
  return static_cast<std::size_t>(
      std::count_if(pages.begin(), pages.end(), [](unsigned char p) { return (p & 1) != 0; }));
}

TEST_F(RdmalibTest, BufferHoldsOnlyWrittenPagesAndScrubDropsThem) {
  Buffer<std::uint8_t> buf(8_MiB);
  // Counted in base pages: where transparent huge pages are "always", the
  // kernel could back the written byte with a 2 MiB page. (A kernel
  // without them refuses the advice, and needs none.)
  (void)::madvise(buf.raw(), buf.mapped_bytes(), MADV_NOHUGEPAGE);
  ASSERT_TRUE(buf.register_memory(*pdB, fabric::RemoteWrite).ok());
  const std::uint8_t* const base = buf.raw();
  fabric::MemoryRegion* const mr = buf.mr();
  EXPECT_EQ(resident_pages(buf), 0u);
  buf[3 * 4096 + 5] = 0xAA;
  EXPECT_EQ(resident_pages(buf), 1u);

  buf.scrub();
  EXPECT_EQ(resident_pages(buf), 0u);
  EXPECT_EQ(buf.raw(), base);
  EXPECT_TRUE(
      std::all_of(buf.data(), buf.data() + buf.size(), [](std::uint8_t b) { return b == 0; }));

  // The registration outlives the scrub: a remote write still lands.
  EXPECT_EQ(buf.mr(), mr);
  EXPECT_EQ(pdB->find_rkey(mr->rkey()), mr);
  auto& listener = fab.listen(*devB, 99);
  std::unique_ptr<Connection> client, server;
  Buffer<std::uint8_t> src(64);
  ASSERT_TRUE(src.register_memory(*pdA, fabric::LocalWrite).ok());
  fill_pattern({src.data(), 64}, 7);
  auto server_task = [&]() -> sim::Task<void> {
    auto req = co_await listener.accept();
    server = Connection::accept(*req, *devB, pdB);
  };
  auto client_task = [&]() -> sim::Task<void> {
    auto res = co_await Connection::connect(fab, *devA, pdA, devB->id(), 99);
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    client = std::move(res).take();
    RemoteBuffer dst = buf.remote();
    dst.addr += 3 * 4096;
    EXPECT_TRUE(client->post_write(src.sge(), dst, 1).ok());
    auto wc = co_await client->send_cq().wait_polling();
    EXPECT_EQ(wc->status, fabric::WcStatus::Success);
  };
  sim::spawn(eng, server_task());
  sim::spawn(eng, client_task());
  eng.run();
  EXPECT_TRUE(std::equal(src.data(), src.data() + 64, buf.raw() + 3 * 4096));
}

TEST_F(RdmalibTest, HeaderRegionPrecedesPayload) {
  Buffer<std::uint32_t> buf(16, 12);
  EXPECT_EQ(buf.header_bytes(), 12u);
  EXPECT_EQ(reinterpret_cast<std::uint8_t*>(buf.data()) - buf.header(), 12);
  EXPECT_EQ(buf.raw_bytes(), 12 + 16 * sizeof(std::uint32_t));
  // Header writes must not clobber the payload.
  buf[0] = 0xAABBCCDD;
  std::memset(buf.header(), 0xFF, 12);
  EXPECT_EQ(buf[0], 0xAABBCCDDu);
}

TEST_F(RdmalibTest, SgeVariantsCoverExpectedRanges) {
  Buffer<std::uint8_t> buf(100, 12);
  ASSERT_TRUE(buf.register_memory(*pdA, fabric::LocalWrite).ok());
  auto with_header = buf.sge_with_header(40);
  EXPECT_EQ(with_header.addr, reinterpret_cast<std::uint64_t>(buf.raw()));
  EXPECT_EQ(with_header.length, 52u);
  auto data_only = buf.sge_data(40);
  EXPECT_EQ(data_only.addr, reinterpret_cast<std::uint64_t>(buf.data()));
  EXPECT_EQ(data_only.length, 40u);
  EXPECT_EQ(buf.sge().length, 112u);
}

TEST_F(RdmalibTest, RemoteDescriptorsMatchRegistration) {
  Buffer<std::uint8_t> buf(256, 12);
  ASSERT_TRUE(buf.register_memory(*pdA, fabric::RemoteWrite).ok());
  ASSERT_TRUE(buf.registered());
  auto whole = buf.remote();
  auto data = buf.remote_data();
  EXPECT_EQ(whole.rkey, buf.mr()->rkey());
  EXPECT_EQ(data.addr, whole.addr + 12);
  EXPECT_EQ(data.length, 256u);
  buf.deregister();
  EXPECT_FALSE(buf.registered());
  EXPECT_EQ(pdA->find_rkey(whole.rkey), nullptr);
}

TEST_F(RdmalibTest, TimedRegistrationChargesPinningCost) {
  Buffer<std::uint8_t> buf(1_MiB);
  Time done = 0;
  auto body = [&]() -> sim::Task<void> {
    (void)co_await buf.register_memory_timed(*pdA, fabric::LocalWrite);
    done = eng.now();
  };
  sim::spawn(eng, body());
  eng.run();
  EXPECT_EQ(done, fab.model().mr_register_time(buf.raw_bytes()));
}

TEST_F(RdmalibTest, ConnectCarriesPrivateDataBothWays) {
  auto& listener = fab.listen(*devB, 100);
  std::unique_ptr<Connection> client, server;
  Bytes seen_request;

  auto server_task = [&]() -> sim::Task<void> {
    auto req = co_await listener.accept();
    seen_request = req->private_data();
    Bytes reply;
    reply.push_back(7);
    reply.push_back(8);
    server = Connection::accept(*req, *devB, pdB, std::move(reply));
  };
  auto client_task = [&]() -> sim::Task<void> {
    Bytes pd_bytes;
    pd_bytes.push_back(1);
    pd_bytes.push_back(2);
    pd_bytes.push_back(3);
    auto res = co_await Connection::connect(fab, *devA, pdA, devB->id(), 100,
                                            std::move(pd_bytes));
    EXPECT_TRUE(res.ok());
    client = std::move(res).take();
  };
  sim::spawn(eng, server_task());
  sim::spawn(eng, client_task());
  eng.run();

  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(seen_request, (Bytes{1, 2, 3}));
  EXPECT_EQ(client->accept_data(), (Bytes{7, 8}));
  EXPECT_TRUE(client->alive());
  EXPECT_TRUE(server->alive());
}

TEST_F(RdmalibTest, PostWriteImmEndToEnd) {
  auto& listener = fab.listen(*devB, 101);
  std::unique_ptr<Connection> client, server;
  Buffer<std::uint8_t> src(1024), dst(1024);
  ASSERT_TRUE(src.register_memory(*pdA, fabric::LocalWrite).ok());
  ASSERT_TRUE(dst.register_memory(*pdB, fabric::RemoteWrite).ok());
  fill_pattern({src.data(), 1024}, 5);

  bool delivered = false;
  auto server_task = [&]() -> sim::Task<void> {
    auto req = co_await listener.accept();
    server = Connection::accept(*req, *devB, pdB);
    (void)server->post_recv_empty(1);
    auto wc = co_await server->recv_cq().wait_polling();
    delivered = wc->status == fabric::WcStatus::Success && wc->has_imm && wc->imm == 0x42;
  };
  auto client_task = [&]() -> sim::Task<void> {
    auto res = co_await Connection::connect(fab, *devA, pdA, devB->id(), 101);
    EXPECT_TRUE(res.ok());
    client = std::move(res).take();
    (void)client->post_write_imm(client ? src.sge() : fabric::Sge{}, dst.remote(), 0x42, 9);
    (void)co_await client->send_cq().wait_polling();
  };
  sim::spawn(eng, server_task());
  sim::spawn(eng, client_task());
  eng.run();

  EXPECT_TRUE(delivered);
  EXPECT_TRUE(std::equal(src.data(), src.data() + 1024, dst.data()));
}

TEST_F(RdmalibTest, CloseBreaksPeer) {
  auto& listener = fab.listen(*devB, 102);
  std::unique_ptr<Connection> client, server;
  auto server_task = [&]() -> sim::Task<void> {
    auto req = co_await listener.accept();
    server = Connection::accept(*req, *devB, pdB);
  };
  auto client_task = [&]() -> sim::Task<void> {
    auto res = co_await Connection::connect(fab, *devA, pdA, devB->id(), 102);
    client = std::move(res).take();
  };
  sim::spawn(eng, server_task());
  sim::spawn(eng, client_task());
  eng.run();
  ASSERT_TRUE(client && server);
  EXPECT_TRUE(client->alive());
  server->close();
  EXPECT_FALSE(client->alive());

  // Posting on a connection whose peer is gone fails with an error CQE.
  Buffer<std::uint8_t> src(8);
  ASSERT_TRUE(src.register_memory(*pdA, fabric::LocalWrite).ok());
  (void)client->post_write(src.sge(), RemoteBuffer{1, 2, 8}, 1);
  bool failed = false;
  auto check = [&]() -> sim::Task<void> {
    auto wc = co_await client->send_cq().wait_polling();
    failed = wc->status != fabric::WcStatus::Success;
  };
  sim::spawn(eng, check());
  eng.run();
  EXPECT_TRUE(failed);
}

TEST_F(RdmalibTest, FetchAddHelperAccumulates) {
  auto& listener = fab.listen(*devB, 103);
  std::unique_ptr<Connection> client, server;
  Buffer<std::uint64_t> counter(1);
  ASSERT_TRUE(counter.register_memory(*pdB, fabric::RemoteAtomic).ok());
  Buffer<std::uint64_t> result(1);
  ASSERT_TRUE(result.register_memory(*pdA, fabric::LocalWrite).ok());

  auto server_task = [&]() -> sim::Task<void> {
    auto req = co_await listener.accept();
    server = Connection::accept(*req, *devB, pdB);
  };
  auto client_task = [&]() -> sim::Task<void> {
    auto res = co_await Connection::connect(fab, *devA, pdA, devB->id(), 103);
    client = std::move(res).take();
    for (int i = 0; i < 5; ++i) {
      (void)client->post_fetch_add(result.data(), result.mr()->lkey(),
                                   counter.remote_data().addr, counter.mr()->rkey(), 10, i);
      (void)co_await client->send_cq().wait_polling();
    }
  };
  sim::spawn(eng, server_task());
  sim::spawn(eng, client_task());
  eng.run();
  EXPECT_EQ(counter[0], 50u);
  EXPECT_EQ(result[0], 40u);  // original value before the last add
}

TEST_F(RdmalibTest, TimedCqWaitTimesOutAndRecovers) {
  fabric::CompletionQueue cq(fab.model());
  std::optional<fabric::Wc> first, second;
  Time second_at = 0;
  auto waiter = [&]() -> sim::Task<void> {
    first = co_await cq.wait_polling(eng.now() + 1_ms);   // nothing arrives
    second = co_await cq.wait_polling(eng.now() + 10_ms); // something does
    second_at = eng.now();
  };
  auto pusher = [&]() -> sim::Task<void> {
    co_await sim::delay(3_ms);
    fabric::Wc wc{};
    wc.wr_id = 55;
    cq.push(wc);
  };
  sim::spawn(eng, waiter());
  sim::spawn(eng, pusher());
  eng.run();
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->wr_id, 55u);
  // The wait completed the moment the CQE arrived (not at the deadline).
  EXPECT_EQ(second_at, 3_ms);
}

// Deadline waits share one re-armed timer per CQ. The tests below pin its
// timing (a timeout lands exactly on the deadline, an arrival at the
// deadline instant still wins, an earlier deadline re-arms the timer),
// its footprint (satisfied waits leave no events behind) and its lifetime
// (the CQ may die while the timer is armed).

TEST_F(RdmalibTest, DeadlineWaitsTimeOutExactlyAtTheirDeadline) {
  fabric::CompletionQueue cq(fab.model());
  bool polled = true, blocked = true;
  Time polled_at = 0, blocked_at = 0;
  auto poller = [&]() -> sim::Task<void> {
    polled = (co_await cq.wait_polling(2_ms)).has_value();
    polled_at = eng.now();
  };
  auto blocker = [&]() -> sim::Task<void> {
    blocked = (co_await cq.wait_blocking(3_ms)).has_value();
    blocked_at = eng.now();
  };
  sim::spawn(eng, poller());
  sim::spawn(eng, blocker());
  eng.run();
  EXPECT_FALSE(polled);
  EXPECT_EQ(polled_at, 2_ms);
  EXPECT_FALSE(blocked);
  EXPECT_EQ(blocked_at, 3_ms);  // no wake-up latency: nothing woke the thread
}

TEST_F(RdmalibTest, BlockingWaitsPayTheWakeUpOnlyForAnArrival) {
  // A completion that comes costs the channel's wake-up with or without
  // a deadline (a timeout costs none, above), and a wait without a
  // deadline queues no timer.
  fabric::CompletionQueue cq(fab.model());
  const Duration wake = fab.model().blocking_wake_latency;
  std::optional<fabric::Wc> unbounded, bounded;
  Time unbounded_at = 0, bounded_at = 0;
  auto waiter = [&]() -> sim::Task<void> {
    unbounded = co_await cq.wait_blocking();
    unbounded_at = eng.now();
    bounded = co_await cq.wait_blocking(eng.now() + 10_ms);
    bounded_at = eng.now();
  };
  auto pusher = [&]() -> sim::Task<void> {
    for (std::uint64_t id : {1u, 2u}) {
      co_await sim::delay(1_ms);
      fabric::Wc wc{};
      wc.wr_id = id;
      cq.push(wc);
    }
  };
  sim::spawn(eng, waiter());
  sim::spawn(eng, pusher());
  eng.run_until(500_us);
  EXPECT_EQ(eng.pending(), 1u);  // the pusher's delay only
  eng.run();
  ASSERT_TRUE(unbounded.has_value());
  EXPECT_EQ(unbounded->wr_id, 1u);
  EXPECT_EQ(unbounded_at, 1_ms + wake);
  ASSERT_TRUE(bounded.has_value());
  EXPECT_EQ(bounded->wr_id, 2u);
  EXPECT_EQ(bounded_at, 2_ms + wake);
}

TEST_F(RdmalibTest, ArrivalAtTheDeadlineInstantWins) {
  // The push lands at the deadline instant, queued once before the
  // timer's wake-up and once after it; the arrival wins both races.
  for (const Duration lead : {Duration{0}, Duration{1_us}}) {
    fabric::CompletionQueue cq(fab.model());
    const Time deadline = eng.now() + 5_ms;
    bool got = false;
    Time at = 0;
    auto pusher = [&]() -> sim::Task<void> {
      co_await sim::delay(lead);
      co_await sim::delay_until(deadline);
      cq.push(fabric::Wc{});
    };
    auto waiter = [&]() -> sim::Task<void> {
      got = (co_await cq.wait_polling(deadline)).has_value();
      at = eng.now();
    };
    sim::spawn(eng, pusher());
    sim::spawn(eng, waiter());
    eng.run();
    EXPECT_TRUE(got) << "lead " << lead;
    EXPECT_EQ(at, deadline) << "lead " << lead;
  }
}

TEST_F(RdmalibTest, SatisfiedDeadlineWaitsLeaveNoTimersBehind) {
  // A hot worker re-polls with a fresh 500 ms deadline after every
  // invocation; the CQ's one timer follows the deadline instead of
  // leaving an event queued per wait.
  fabric::CompletionQueue cq(fab.model());
  constexpr int kWaits = 10'000;
  int satisfied = 0;
  bool done = false;
  auto consumer = [&]() -> sim::Task<void> {
    for (int i = 0; i < kWaits; ++i) {
      if ((co_await cq.wait_polling(eng.now() + 500_ms)).has_value()) ++satisfied;
    }
    done = true;
  };
  auto producer = [&]() -> sim::Task<void> {
    for (int i = 0; i < kWaits; ++i) {
      co_await sim::delay(1_us);
      cq.push(fabric::Wc{});
    }
  };
  sim::spawn(eng, consumer());
  sim::spawn(eng, producer());
  eng.run_until(20_ms);
  ASSERT_TRUE(done);
  EXPECT_EQ(satisfied, kWaits);
  EXPECT_LE(eng.pending(), 2u);
  eng.run();
  EXPECT_EQ(eng.detached_count(), 0u);
}

TEST_F(RdmalibTest, EarlierDeadlineAfterALaterOneFiresOnTime) {
  fabric::CompletionQueue cq(fab.model());
  bool first = false, second = true;
  Time second_at = 0;
  auto waiter = [&]() -> sim::Task<void> {
    first = (co_await cq.wait_polling(100_ms)).has_value();  // served at 1 ms
    second = (co_await cq.wait_polling(eng.now() + 10_ms)).has_value();
    second_at = eng.now();
  };
  auto pusher = [&]() -> sim::Task<void> {
    co_await sim::delay(1_ms);
    cq.push(fabric::Wc{});
  };
  sim::spawn(eng, waiter());
  sim::spawn(eng, pusher());
  eng.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(second_at, 11_ms);  // not at 100 ms, where the timer was first due
}

TEST_F(RdmalibTest, ConcurrentDeadlineWaitersExpireAtTheirOwnDeadlines) {
  fabric::CompletionQueue cq(fab.model());
  struct Outcome {
    bool got = false;
    Time at = 0;
  };
  Outcome late, early, served;
  auto waiter = [&](Time deadline, Outcome& out) -> sim::Task<void> {
    out.got = (co_await cq.wait_polling(deadline)).has_value();
    out.at = eng.now();
  };
  auto pusher = [&]() -> sim::Task<void> {
    co_await sim::delay(6_ms);
    cq.push(fabric::Wc{});
  };
  sim::spawn(eng, waiter(5_ms, late));    // arms the timer
  sim::spawn(eng, waiter(3_ms, early));   // earlier: re-arms it
  sim::spawn(eng, waiter(8_ms, served));  // outlives both timeouts
  sim::spawn(eng, pusher());
  eng.run();
  EXPECT_FALSE(early.got);
  EXPECT_EQ(early.at, 3_ms);
  EXPECT_FALSE(late.got);
  EXPECT_EQ(late.at, 5_ms);
  EXPECT_TRUE(served.got);
  EXPECT_EQ(served.at, 6_ms);
}

TEST_F(RdmalibTest, CqDestroyedWithItsTimerArmedIsSafe) {
  // Under ASan: the orphaned timer wakes at 10 ms and must retire
  // without touching the freed CQ.
  auto cq = std::make_unique<fabric::CompletionQueue>(fab.model());
  bool got = false;
  auto waiter = [&]() -> sim::Task<void> {
    got = (co_await cq->wait_polling(10_ms)).has_value();
    cq.reset();
  };
  auto pusher = [&]() -> sim::Task<void> {
    co_await sim::delay(1_ms);
    cq->push(fabric::Wc{});
  };
  sim::spawn(eng, waiter());
  sim::spawn(eng, pusher());
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(eng.now(), 10_ms);
  EXPECT_EQ(eng.detached_count(), 0u);
}

}  // namespace
}  // namespace rfs::rdmalib
