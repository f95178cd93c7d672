// Retransmission-FSM unit tests (ISSUE 7): the Session must recover a
// dropped exchange by timeout + retransmit, cap its exponential backoff,
// fail cleanly when the budget is exhausted, ignore duplicate replies,
// and deliver each sequenced eviction push once; the manager must answer
// retransmitted requests from its dedup table (never re-running the
// grant) and fence stale-epoch registrations. Labeled `chaos` in CMake
// (`ctest -L chaos`).
//
// ASSERT_* is forbidden inside coroutine bodies (it expands to a bare
// `return`), so server/client coroutines use EXPECT_* plus co_return
// guards.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/harness.hpp"
#include "fabric/fabric.hpp"
#include "net/faulty.hpp"
#include "net/tcp.hpp"
#include "rfaas/protocol.hpp"
#include "rfaas/session.hpp"

namespace rfs::rfaas {
namespace {

/// Tight timeouts so budget-exhaustion tests finish in microseconds of
/// wall time (everything is virtual time anyway).
SessionOptions quick_options() {
  SessionOptions o;
  o.rto_initial = 1_ms;
  o.rto_min = 500_us;
  o.rto_max = 4_ms;
  o.max_retransmits = 3;
  return o;
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eng.make_current();
    client_dev = &fab.create_device("client");
    server_dev = &fab.create_device("server");
  }

  /// Connects a Session to a fake server; `server` receives the accepted
  /// stream and plays the manager's half of the exchange.
  template <typename ServerFn>
  std::shared_ptr<Session> run_against(ServerFn server_body,
                                       SessionOptions options = quick_options()) {
    auto& listener = tcp.listen(server_dev->id(), 80);
    sim::spawn(eng, [](net::TcpListener* l, ServerFn body) -> sim::Task<void> {
      auto stream = co_await l->accept();
      co_await body(stream);
    }(&listener, server_body));
    std::shared_ptr<Session> session;
    sim::spawn(eng, [](SessionTest* t, SessionOptions opts,
                       std::shared_ptr<Session>* out) -> sim::Task<void> {
      auto res = co_await t->tcp.connect(t->client_dev->id(), t->server_dev->id(), 80);
      EXPECT_TRUE(res.ok());
      if (!res.ok()) co_return;
      *out = std::make_shared<Session>(t->eng, res.value(), opts);
    }(this, options, &session));
    eng.run();
    return session;
  }

  static Bytes grant_reply(std::uint64_t request_id, std::uint64_t lease_id) {
    LeaseGrantMsg grant;
    grant.lease_id = lease_id;
    grant.workers = 1;
    grant.request_id = request_id;
    return encode(grant);
  }

  static Bytes lease_request(std::uint64_t request_id) {
    return encode(LeaseRequestMsg{1, 1, 64ull << 20, 60_s, request_id});
  }

  /// Decodes a LeaseRequest and echoes a grant for `lease_id`; replies
  /// `copies` times (duplicates are byte-identical frames).
  static void answer(net::TcpStream& s, const Bytes& raw, std::uint64_t lease_id,
                     int copies = 1) {
    auto req = decode_lease_request(raw);
    EXPECT_TRUE(req.ok());
    if (!req.ok()) return;
    for (int i = 0; i < copies; ++i) s.send(grant_reply(req.value().request_id, lease_id));
  }

  sim::Engine eng;
  fabric::Fabric fab;
  fabric::Device* client_dev = nullptr;
  fabric::Device* server_dev = nullptr;
  net::TcpNetwork tcp{eng, fab.net()};

  SessionTest() : fab(eng) {}
};

TEST_F(SessionTest, LosslessCallCompletesWithoutRetransmit) {
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    auto raw = co_await s->recv();
    EXPECT_TRUE(raw.has_value());
    if (raw) answer(*s, *raw, 42);
  });
  ASSERT_NE(session, nullptr);

  Result<Bytes> reply = Error::make(1, "not run");
  sim::spawn(eng, [](std::shared_ptr<Session> ss, Result<Bytes>* out) -> sim::Task<void> {
    const auto id = ss->next_request_id();
    *out = co_await ss->call(lease_request(id), id);
  }(session, &reply));
  eng.run();

  ASSERT_TRUE(reply.ok());
  auto grant = decode_lease_grant(reply.value());
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant.value().lease_id, 42u);
  EXPECT_EQ(session->retransmits(), 0u);
  EXPECT_EQ(session->call_failures(), 0u);
  // One clean RTT sample: the adaptive RTO clamps to the floor, well
  // under the pre-sample initial timeout.
  EXPECT_GE(session->current_rto(), quick_options().rto_min);
  EXPECT_LT(session->current_rto(), quick_options().rto_initial);
}

TEST_F(SessionTest, TimeoutFiresAndRetransmitRecoversLostRequest) {
  // The server swallows the first delivery — exactly what a dropped
  // request looks like — and answers the retransmitted copy.
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    auto first = co_await s->recv();
    EXPECT_TRUE(first.has_value());  // swallowed
    auto second = co_await s->recv();
    EXPECT_TRUE(second.has_value());
    if (second) answer(*s, *second, 7);
  });
  ASSERT_NE(session, nullptr);

  Result<Bytes> reply = Error::make(1, "not run");
  Time started = 0, finished = 0;
  sim::spawn(eng, [](sim::Engine* e, std::shared_ptr<Session> ss, Result<Bytes>* out,
                     Time* t0, Time* t1) -> sim::Task<void> {
    const auto id = ss->next_request_id();
    *t0 = e->now();
    *out = co_await ss->call(lease_request(id), id);
    *t1 = e->now();
  }(&eng, session, &reply, &started, &finished));
  eng.run();

  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(session->retransmits(), 1u);
  EXPECT_EQ(session->call_failures(), 0u);
  // The recovery had to sit through at least one full initial RTO.
  EXPECT_GE(finished - started, quick_options().rto_initial);
}

TEST_F(SessionTest, SwallowedRequestIsResentExactlyOneTimeoutLater) {
  // Both copies cross the same idle link, so the server sees them exactly
  // as far apart as they were sent: rto_initial, not a nanosecond later.
  std::vector<Time> arrivals;
  auto session = run_against([at = &arrivals](std::shared_ptr<net::TcpStream> s)
                                 -> sim::Task<void> {
    auto first = co_await s->recv();  // swallowed
    at->push_back(sim::Engine::current()->now());
    auto second = co_await s->recv();
    at->push_back(sim::Engine::current()->now());
    EXPECT_TRUE(first.has_value());
    if (second) answer(*s, *second, 7);
  });
  ASSERT_NE(session, nullptr);

  Result<Bytes> reply = Error::make(1, "not run");
  sim::spawn(eng, [](std::shared_ptr<Session> ss, Result<Bytes>* out) -> sim::Task<void> {
    const auto id = ss->next_request_id();
    *out = co_await ss->call(lease_request(id), id);
  }(session, &reply));
  eng.run();

  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], quick_options().rto_initial);
  EXPECT_EQ(session->retransmits(), 1u);
}

constexpr int kBackToBackCalls = 16;

TEST_F(SessionTest, BackToBackCallsShareOneRetransmissionTimer) {
  // Every reply arrives far inside the 50 ms timeout. One timer actor
  // serves all the calls' deadlines, so the calls leave at most that one
  // actor behind, not a timer per call parked for a full timeout.
  SessionOptions options = quick_options();
  options.rto_initial = 50_ms;
  options.rto_min = 50_ms;
  options.rto_max = 200_ms;
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    for (int i = 0; i < kBackToBackCalls; ++i) {
      auto raw = co_await s->recv();
      if (!raw) co_return;
      answer(*s, *raw, 100 + i);
    }
    (void)co_await s->recv();  // hold the stream open
  }, options);
  ASSERT_NE(session, nullptr);

  int ok = 0;
  std::size_t actors_before = 0;
  std::size_t actors_after = 0;
  sim::spawn(eng, [](sim::Engine* e, std::shared_ptr<Session> ss, int* done, std::size_t* before,
                     std::size_t* after) -> sim::Task<void> {
    *before = e->detached_count();
    for (int i = 0; i < kBackToBackCalls; ++i) {
      const auto id = ss->next_request_id();
      if ((co_await ss->call(lease_request(id), id)).ok()) ++*done;
    }
    *after = e->detached_count();
    ss->stream()->close();
  }(&eng, session, &ok, &actors_before, &actors_after));
  eng.run();

  EXPECT_EQ(ok, kBackToBackCalls);
  EXPECT_EQ(session->retransmits(), 0u);
  EXPECT_LE(actors_after, actors_before + 1);
}

TEST_F(SessionTest, BudgetExhaustionFailsCleanlyWithCappedBackoff) {
  // The server never answers: the call must burn its whole retransmit
  // budget with exponential backoff capped at rto_max, then fail.
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    while (true) {
      auto raw = co_await s->recv();
      if (!raw.has_value()) co_return;  // swallow everything
    }
  });
  ASSERT_NE(session, nullptr);

  Result<Bytes> reply = Error::make(1, "not run");
  Time started = 0, finished = 0;
  sim::spawn(eng, [](sim::Engine* e, std::shared_ptr<Session> ss, Result<Bytes>* out,
                     Time* t0, Time* t1) -> sim::Task<void> {
    const auto id = ss->next_request_id();
    *t0 = e->now();
    *out = co_await ss->call(lease_request(id), id);
    *t1 = e->now();
  }(&eng, session, &reply, &started, &finished));
  eng.run();

  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(session->retransmits(), quick_options().max_retransmits);
  EXPECT_EQ(session->call_failures(), 1u);
  // Backoff doubles from rto_initial=1ms but caps at rto_max=4ms:
  // the waits are 1, 2, 4, 4 ms. An uncapped doubling would be
  // 1+2+4+8 = 15 ms; the cap keeps total wait at 11 ms.
  const Duration elapsed = finished - started;
  EXPECT_GE(elapsed, 11_ms);
  EXPECT_LT(elapsed, 15_ms);
}

TEST_F(SessionTest, DuplicateReplyIsCountedAndDropped) {
  // The server answers twice (a duplicated reply frame). The second copy
  // must be absorbed by the session — counted, never surfaced — and the
  // session must stay usable for the next call.
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    auto raw = co_await s->recv();
    EXPECT_TRUE(raw.has_value());
    if (raw) answer(*s, *raw, 9, /*copies=*/2);
    auto next = co_await s->recv();
    if (next) answer(*s, *next, 10);
  });
  ASSERT_NE(session, nullptr);

  bool both_ok = false;
  sim::spawn(eng, [](std::shared_ptr<Session> ss, bool* ok) -> sim::Task<void> {
    const auto id1 = ss->next_request_id();
    auto r1 = co_await ss->call(SessionTest::lease_request(id1), id1);
    const auto id2 = ss->next_request_id();
    auto r2 = co_await ss->call(SessionTest::lease_request(id2), id2);
    *ok = r1.ok() && r2.ok();
  }(session, &both_ok));
  eng.run();

  EXPECT_TRUE(both_ok);
  EXPECT_EQ(session->duplicate_replies(), 1u);
  EXPECT_EQ(session->double_grants(), 0u);
}

TEST_F(SessionTest, ConflictingDuplicateGrantTripsTheDoubleGrantDetector) {
  // Same request id, DIFFERENT lease id: that is a real double-grant —
  // the invariant the chaos gate pins to zero — and must be flagged.
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    auto raw = co_await s->recv();
    EXPECT_TRUE(raw.has_value());
    if (raw) {
      answer(*s, *raw, 9);
      answer(*s, *raw, 666);  // conflicting grant for the same request id
    }
    (void)co_await s->recv();  // hold the stream open
  });
  ASSERT_NE(session, nullptr);

  sim::spawn(eng, [](std::shared_ptr<Session> ss) -> sim::Task<void> {
    const auto id = ss->next_request_id();
    (void)co_await ss->call(SessionTest::lease_request(id), id);
    co_await sim::delay(10_ms);  // let the duplicate land
    ss->stream()->close();
  }(session));
  eng.run();

  EXPECT_EQ(session->double_grants(), 1u);
}

TEST_F(SessionTest, StreamCloseFailsTheCallImmediately) {
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    auto raw = co_await s->recv();
    EXPECT_TRUE(raw.has_value());
    s->close();  // manager dies mid-exchange
  });
  ASSERT_NE(session, nullptr);

  Result<Bytes> reply = Error::make(1, "not run");
  sim::spawn(eng, [](std::shared_ptr<Session> ss, Result<Bytes>* out) -> sim::Task<void> {
    const auto id = ss->next_request_id();
    *out = co_await ss->call(SessionTest::lease_request(id), id);
  }(session, &reply));
  eng.run();

  EXPECT_FALSE(reply.ok());
  EXPECT_TRUE(session->closed());
  EXPECT_EQ(session->call_failures(), 1u);
}

TEST_F(SessionTest, EvictionPushesNeedASeqAndDeduplicate) {
  // The manager numbers eviction pushes per stream from 1. A duplicated
  // delivery is counted and dropped, an unsequenced one (seq 0) is
  // dropped, and a push type that carries no seq passes through.
  auto session = run_against([](std::shared_ptr<net::TcpStream> s) -> sim::Task<void> {
    LeaseTerminatedMsg term;
    term.lease_id = 5;
    term.seq = 1;
    s->send(encode(term));
    s->send(encode(term));  // duplicated delivery
    term.seq = 0;
    s->send(encode(term));  // unsequenced
    LeasesTerminatedMsg sweep;
    sweep.lease_ids = {6, 7};
    sweep.seq = 2;
    s->send(encode(sweep));
    s->send(encode(FailoverAnnounceMsg{}));
    co_await sim::delay(1_ms);
    s->close();
  });
  ASSERT_NE(session, nullptr);

  std::vector<MsgType> delivered;
  sim::spawn(eng, [](std::shared_ptr<Session> ss, std::vector<MsgType>* out) -> sim::Task<void> {
    while (auto push = co_await ss->next_push()) {
      auto type = peek_type(*push);
      EXPECT_TRUE(type.ok());
      if (type.ok()) out->push_back(type.value());
    }
  }(session, &delivered));
  eng.run();

  EXPECT_EQ(delivered, (std::vector<MsgType>{MsgType::LeaseTerminated, MsgType::LeasesTerminated,
                                             MsgType::FailoverAnnounce}));
  EXPECT_EQ(session->duplicate_pushes(), 1u);
}

// --------------------------------------------------------------------------
// Manager-side idempotence through the harness
// --------------------------------------------------------------------------

TEST(ManagerDedup, RetransmittedLeaseRequestIsAnsweredFromTheDedupTable) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/2, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/1);
  cluster::Harness h(spec);
  h.start();

  auto scenario = [&]() -> sim::Task<void> {
    auto res = co_await h.tcp().connect(h.client_device(0).id(), h.rm().device().id(),
                                        h.rm().port());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    auto stream = res.value();

    // The same wire bytes delivered twice — exactly what a retransmitted
    // (or network-duplicated) request looks like to the manager.
    const Bytes req = encode(LeaseRequestMsg{1, 2, 64ull << 20, 60_s, (1ull << 32) | 1});
    stream->send(req);
    stream->send(req);

    auto first = co_await stream->recv();
    auto second = co_await stream->recv();
    EXPECT_TRUE(first.has_value());
    EXPECT_TRUE(second.has_value());
    if (!first || !second) co_return;
    auto g1 = decode_lease_grant(*first);
    auto g2 = decode_lease_grant(*second);
    EXPECT_TRUE(g1.ok());
    EXPECT_TRUE(g2.ok());
    if (!g1.ok() || !g2.ok()) co_return;
    // Byte-identical replay of the SAME grant: no second lease exists.
    EXPECT_EQ(g1.value().lease_id, g2.value().lease_id);
    EXPECT_EQ(*first, *second);

    // Duplicated release: second copy replays ReleaseOk, releases once.
    const Bytes rel = encode(
        ReleaseResourcesMsg{g1.value().lease_id, 1, 0, (1ull << 32) | 2});
    stream->send(rel);
    stream->send(rel);
    auto ok1 = co_await stream->recv();
    auto ok2 = co_await stream->recv();
    EXPECT_TRUE(ok1.has_value());
    EXPECT_TRUE(ok2.has_value());
    if (!ok1 || !ok2) co_return;
    EXPECT_TRUE(decode_release_ok(*ok1).ok());
    EXPECT_EQ(*ok1, *ok2);
  };
  h.spawn(scenario());
  h.run_for(5_s);

  EXPECT_EQ(h.rm().dedup_hits(), 2u);  // one duplicate request + one release
  EXPECT_EQ(h.rm().active_leases(), 0u);
  EXPECT_EQ(h.rm().free_workers_total(), h.rm().total_workers());
}

TEST(ManagerDedup, StaleEpochRegistrationIsFenced) {
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/1, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/1);
  cluster::Harness h(spec);
  h.start();

  auto scenario = [&]() -> sim::Task<void> {
    auto res = co_await h.tcp().connect(h.client_device(0).id(), h.rm().device().id(),
                                        h.rm().port());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    auto stream = res.value();

    RegisterExecutorMsg reg;
    reg.device = h.client_device(0).id();  // any fabric device works
    reg.alloc_port = 7100;
    reg.rdma_port = 7101;
    reg.cores = 4;
    reg.memory_bytes = 1_GiB;
    reg.epoch = 5;
    reg.request_id = (5ull << 32) | 1;
    stream->send(encode(reg));
    auto first = co_await stream->recv();
    EXPECT_TRUE(first.has_value());
    if (!first) co_return;
    EXPECT_TRUE(decode_register_ok(*first).ok());

    // A replay from an abandoned session (same epoch, fresh request id)
    // must be refused — admitting it would double-count the device.
    reg.request_id = (5ull << 32) | 2;
    stream->send(encode(reg));
    auto second = co_await stream->recv();
    EXPECT_TRUE(second.has_value());
    if (!second) co_return;
    EXPECT_TRUE(decode_lease_error(*second).ok());

    // A NEWER epoch supersedes: the restarted executor re-registers.
    reg.epoch = 6;
    reg.request_id = (6ull << 32) | 1;
    stream->send(encode(reg));
    auto third = co_await stream->recv();
    EXPECT_TRUE(third.has_value());
    if (!third) co_return;
    EXPECT_TRUE(decode_register_ok(*third).ok());
  };
  h.spawn(scenario());
  h.run_for(5_s);

  EXPECT_EQ(h.rm().fenced_registrations(), 1u);
}

TEST(ManagerDedup, EpochZeroRegistrationIsRefused) {
  // Executors register from epoch 1, so epoch 0 is no session's epoch:
  // the manager answers it with one LeaseError and registers nothing
  // (an unfenced registration would double-count the device).
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/1, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/1);
  cluster::Harness h(spec);
  h.start();
  const std::size_t registered_before = h.rm().registered_executors();
  const std::uint32_t workers_before = h.rm().total_workers();

  auto scenario = [&]() -> sim::Task<void> {
    auto res = co_await h.tcp().connect(h.client_device(0).id(), h.rm().device().id(),
                                        h.rm().port());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    auto stream = res.value();

    RegisterExecutorMsg reg;
    reg.device = h.client_device(0).id();
    reg.alloc_port = 7100;
    reg.rdma_port = 7101;
    reg.cores = 4;
    reg.memory_bytes = 1_GiB;
    reg.epoch = 0;
    reg.request_id = (1ull << 32) | 1;
    stream->send(encode(reg));
    auto reply = co_await stream->recv();
    EXPECT_TRUE(reply.has_value());
    if (!reply) co_return;
    EXPECT_TRUE(decode_lease_error(*reply).ok());
    EXPECT_FALSE(decode_register_ok(*reply).ok());
    auto id = reply_request_id(*reply);
    EXPECT_TRUE(id.ok());
    if (id.ok()) {
      EXPECT_EQ(id.value(), reg.request_id);
    }
  };
  h.spawn(scenario());
  h.run_for(1_s);

  EXPECT_EQ(h.rm().registered_executors(), registered_before);
  EXPECT_EQ(h.rm().total_workers(), workers_before);
  EXPECT_EQ(h.rm().fenced_registrations(), 0u);
}

TEST(ManagerDedup, RequestIdZeroIsRefusedAndGrantsNothing) {
  // Id 0 is no session's id: the manager answers it with one LeaseError
  // at the dedup entry point and never runs the grant decision.
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/1, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/1);
  cluster::Harness h(spec);
  h.start();
  const std::uint32_t free_before = h.rm().free_workers_total();

  auto scenario = [&]() -> sim::Task<void> {
    auto res = co_await h.tcp().connect(h.client_device(0).id(), h.rm().device().id(),
                                        h.rm().port());
    EXPECT_TRUE(res.ok());
    if (!res.ok()) co_return;
    auto stream = res.value();
    stream->send(encode(LeaseRequestMsg{1, 2, 64ull << 20, 60_s, /*request_id=*/0}));
    auto reply = co_await stream->recv();
    EXPECT_TRUE(reply.has_value());
    if (!reply) co_return;
    EXPECT_TRUE(decode_lease_error(*reply).ok());
    EXPECT_FALSE(decode_lease_grant(*reply).ok());
  };
  h.spawn(scenario());
  h.run_for(1_s);

  EXPECT_EQ(h.rm().active_leases(), 0u);
  EXPECT_EQ(h.rm().free_workers_total(), free_before);
  EXPECT_EQ(h.rm().dedup_hits(), 0u);
}

TEST(ManagerDedup, ChaosWorkloadHoldsLeaseInvariantsEndToEnd) {
  // A short lossy end-to-end run in tier-1: 5% symmetric drop/dup/
  // reorder on every client<->manager link, every client must survive,
  // no lease may double-grant, and the tables must drain to empty.
  // (bench/fig19_chaos runs the full schedule matrix; this pins the
  // machinery into the default test suite.)
  auto spec = cluster::ScenarioSpec::uniform(/*executors=*/4, /*cores=*/8,
                                             /*memory_bytes=*/32ull << 30, /*clients=*/4);
  spec.inject_faults = true;
  spec.faults = net::FaultSpec::symmetric(0.05);
  spec.fault_seed = 99;
  spec.session_options.rto_min = 100_us;
  spec.session_options.rto_initial = 1_ms;
  cluster::Harness h(spec);
  h.start();

  cluster::LeaseWorkload w;
  w.workers_min = 1;
  w.workers_max = 4;
  w.memory_per_worker = 64ull << 20;
  w.hold_min = 50_ms;
  w.hold_max = 500_ms;
  w.think_min = 10_ms;
  w.think_max = 100_ms;
  w.seed = 31;
  auto trace = h.run_lease_workload(w, /*horizon=*/10_s);

  EXPECT_GT(trace.granted, 0u);
  EXPECT_GT(trace.retransmits, 0u);  // the chaos actually bit
  EXPECT_EQ(trace.double_grants, 0u);
  EXPECT_EQ(trace.client_deaths, 0u);
  EXPECT_EQ(trace.client_survival_pct(), 100.0);
  // assert_drained (default) aborts the process if anything leaks.
  EXPECT_EQ(h.leaked_leases_after(/*grace=*/120_s), 0u);
  EXPECT_GT(h.fault_injector()->counters().dropped, 0u);
}

}  // namespace
}  // namespace rfs::rfaas
