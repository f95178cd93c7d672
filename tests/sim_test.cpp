// Unit tests for the discrete-event simulation kernel: event ordering
// (across the same-instant lane, the wheel and the far heap), delays,
// coroutine frames, synchronization primitives, futures, the deadline
// alarm, the ring FIFO, and the host/core model.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/alarm.hpp"
#include "sim/fifo.hpp"
#include "sim/host.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rfs::sim {
namespace {

TEST(Engine, StartsAtZeroAndAdvances) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
  Time end = 0;
  auto body = [&]() -> Task<void> {
    co_await delay(250);
    end = Engine::current()->now();
  };
  spawn(eng, body());
  eng.run();
  EXPECT_EQ(end, 250u);
  EXPECT_EQ(eng.now(), 250u);
}

TEST(Engine, FifoTieBreakAtSameTime) {
  Engine eng;
  std::vector<int> order;
  auto mk = [&](int id) -> Task<void> {
    co_await delay(10);
    order.push_back(id);
  };
  spawn(eng, mk(1));
  spawn(eng, mk(2));
  spawn(eng, mk(3));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, EventsExecuteInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  auto mk = [&](int id, Duration d) -> Task<void> {
    co_await delay(d);
    order.push_back(id);
  };
  spawn(eng, mk(3, 30));
  spawn(eng, mk(1, 10));
  spawn(eng, mk(2, 20));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  auto mk = [&](Duration d) -> Task<void> {
    co_await delay(d);
    ++fired;
  };
  spawn(eng, mk(100));
  spawn(eng, mk(200));
  eng.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 150u);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, HeapEntriesDueNowRunAheadOfTheSameInstantLane) {
  // Both sleepers were queued before time reached 10, the third only when
  // the first of them ran at 10: insertion order runs it last.
  Engine eng;
  std::vector<int> order;
  auto third = [&]() -> Task<void> {
    order.push_back(3);
    co_return;
  };
  auto sleeper = [&](int id) -> Task<void> {
    co_await delay(10);
    order.push_back(id);
    if (id == 1) spawn(eng, third());
  };
  spawn(eng, sleeper(1));
  spawn(eng, sleeper(2));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SpawnAtStartsAtItsInstantInInsertionOrder) {
  Engine eng;
  std::vector<std::pair<int, Time>> ran;
  auto record = [&](int id) { ran.emplace_back(id, Engine::current()->now()); };
  auto sleeper = [&](int id) -> Task<void> {
    co_await delay_until(100);
    record(id);
  };
  auto starter = [&](int id) -> Task<void> {
    record(id);
    co_return;
  };
  auto spawner = [&]() -> Task<void> {
    record(2);
    // Both start on the same-instant lane, behind sleeper 3's wake.
    spawn(eng, starter(4));
    spawn_at(eng, eng.now(), starter(5));
    co_return;
  };
  spawn(eng, sleeper(1));
  ASSERT_TRUE(eng.step());  // sleeper 1 queues its wake for 100
  spawn_at(eng, 100, spawner());
  spawn_at(eng, 50, starter(0));
  spawn(eng, sleeper(3));
  EXPECT_EQ(eng.detached_count(), 4u);
  ASSERT_TRUE(eng.step());  // the lane first: sleeper 3 queues its wake for 100
  EXPECT_TRUE(ran.empty());
  eng.run();
  EXPECT_EQ(ran, (std::vector<std::pair<int, Time>>{
                     {0, 50}, {1, 100}, {2, 100}, {3, 100}, {4, 100}, {5, 100}}));
  EXPECT_EQ(eng.detached_count(), 0u);
}

TEST(Engine, RunUntilDrainsTheSameInstantLane) {
  Engine eng;
  int children = 0;
  auto child = [&]() -> Task<void> {
    ++children;
    co_return;
  };
  auto parent = [&]() -> Task<void> {
    co_await delay(5);
    spawn(eng, child());
    spawn(eng, child());
  };
  spawn(eng, parent());
  eng.run_until(5);
  EXPECT_EQ(children, 2);
  EXPECT_EQ(eng.now(), 5u);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, PendingCountsBothLanes) {
  Engine eng;
  auto sleeper = [](Duration d) -> Task<void> { co_await delay(d); };
  spawn(eng, sleeper(10));
  spawn(eng, sleeper(20));
  EXPECT_EQ(eng.pending(), 2u);  // both starts are due now
  ASSERT_TRUE(eng.step());
  EXPECT_EQ(eng.pending(), 2u);  // one sleeps in the heap, one start is due now
  ASSERT_TRUE(eng.step());
  EXPECT_EQ(eng.pending(), 2u);  // both sleep in the heap
  EXPECT_EQ(eng.now(), 0u);
  eng.run();
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.now(), 20u);
}

TEST(Engine, DrainEmptiesTheSameInstantLane) {
  int started = 0;
  Event never;
  Engine eng;
  auto waiter = [&]() -> Task<void> {
    ++started;
    co_await never.wait();
  };
  auto sleeper = []() -> Task<void> { co_await delay(10); };
  spawn(eng, sleeper());
  ASSERT_TRUE(eng.step());  // the sleeper moves to the heap
  spawn(eng, waiter());
  spawn(eng, waiter());
  EXPECT_EQ(eng.pending(), 3u);
  eng.drain_detached();
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.detached_count(), 0u);
  EXPECT_FALSE(eng.step());
  EXPECT_EQ(started, 0);
}

TEST(Engine, DelayUntilPastIsImmediate) {
  Engine eng;
  Time observed = 123;
  auto body = [&]() -> Task<void> {
    co_await delay(50);
    co_await delay_until(10);  // already past
    observed = Engine::current()->now();
  };
  spawn(eng, body());
  eng.run();
  EXPECT_EQ(observed, 50u);
}

TEST(Engine, CompletedActorsLeaveTheLiveList) {
  Engine eng;
  auto body = [](Duration d) -> Task<void> { co_await delay(d); };
  spawn(eng, body(30));
  spawn(eng, body(10));  // in the middle of the list when it finishes
  spawn(eng, body(20));
  EXPECT_EQ(eng.detached_count(), 3u);
  eng.run_until(10);
  EXPECT_EQ(eng.detached_count(), 2u);
  eng.run_until(20);
  EXPECT_EQ(eng.detached_count(), 1u);
  eng.run();
  EXPECT_EQ(eng.detached_count(), 0u);
}

TEST(Engine, DrainDestroysSuspendedActorsAndTheActorsTheySpawned) {
  struct Witness {
    int* destroyed;
    ~Witness() { ++*destroyed; }
  };
  int destroyed = 0;
  Event never;
  Engine eng;
  auto child = [&]() -> Task<void> {
    Witness w{&destroyed};
    co_await never.wait();
  };
  auto parent = [&]() -> Task<void> {
    Witness w{&destroyed};
    spawn(eng, child());
    co_await never.wait();
  };
  spawn(eng, parent());
  spawn(eng, parent());
  eng.run();
  EXPECT_EQ(eng.detached_count(), 4u);
  EXPECT_EQ(destroyed, 0);
  eng.drain_detached();
  EXPECT_EQ(destroyed, 4);
  EXPECT_EQ(eng.detached_count(), 0u);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, PendingCountsTheFarTier) {
  Engine eng;
  auto sleeper = [](Duration d) -> Task<void> { co_await delay(d); };
  spawn(eng, sleeper(10));
  spawn(eng, sleeper(10_s));
  spawn(eng, sleeper(20_s));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(eng.step());  // the three starts
  EXPECT_EQ(eng.pending(), 3u);
  ASSERT_TRUE(eng.step());  // the 10 ns sleeper; the others stay far
  EXPECT_EQ(eng.now(), 10u);
  EXPECT_EQ(eng.pending(), 2u);
  eng.run();
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.now(), 20_s);
}

TEST(Engine, RunUntilBetweenTheTiersStopsThere) {
  // Two sleepers in the wheel, three (two at one instant) a few
  // seconds out in the far heap: the deadline falls between them.
  Engine eng;
  std::vector<int> order;
  auto sleeper = [&](int id, Duration d) -> Task<void> {
    co_await delay(d);
    order.push_back(id);
  };
  spawn(eng, sleeper(1, 100));
  spawn(eng, sleeper(5, 6_s));
  spawn(eng, sleeper(3, 5_s));
  spawn(eng, sleeper(2, 200));
  spawn(eng, sleeper(6, 6_s));
  spawn(eng, sleeper(4, 5_s + Engine::kHorizon));
  eng.run_until(1_s);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), 1_s);
  EXPECT_EQ(eng.pending(), 4u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(eng.now(), 6_s);
}

TEST(Engine, DrainEmptiesTheFarTier) {
  int finished = 0;
  Engine eng;
  auto sleeper = [&](Duration d) -> Task<void> {
    co_await delay(d);
    ++finished;
  };
  spawn(eng, sleeper(10));
  spawn(eng, sleeper(30_s));
  spawn(eng, sleeper(60_s));
  eng.run_until(20);  // the near sleeper finishes; two wait in the far heap
  EXPECT_EQ(finished, 1);
  EXPECT_EQ(eng.pending(), 2u);
  eng.drain_detached();
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.detached_count(), 0u);
  EXPECT_FALSE(eng.step());
  EXPECT_EQ(finished, 1);
}

/// A seeded random schedule for the differential test below. Every sleep
/// is due strictly after the instant it is scheduled, so all of them pass
/// through the wheel or the far heap, and the engine must resume them in
/// exactly the order of (due time, scheduling order).
struct RandomSchedule {
  RandomSchedule(Engine& e, std::uint64_t seed) : eng(e), rng(seed) {}

  Engine& eng;
  std::mt19937_64 rng;
  std::vector<std::pair<Time, std::size_t>> sleeps;  // (due, token); token = scheduling order
  std::vector<std::size_t> resumed;                   // tokens in resumption order
  std::vector<Time> recent;                           // due times to reuse
  int spawns_left = 2'000;
  bool on_time = true;

  Time pick_due() {
    const Time now = eng.now();
    const Time bucket_start = now / Engine::kBucketWidth * Engine::kBucketWidth;
    const std::uint64_t kind = rng() % 8;
    if (!recent.empty() && kind < 2) {
      // An instant already in use, or one kHorizon past it, or beside that.
      const Time t = recent[rng() % recent.size()];
      const Time candidates[] = {t, t + Engine::kHorizon - 1, t + Engine::kHorizon,
                                 t + Engine::kHorizon + 1};
      if (const Time due = candidates[rng() % 4]; due > now) return due;
    }
    if (kind == 2) {
      // One below, at or one above a bucket boundary, from the next one
      // to the wheel's last (log-uniform in the number of buckets ahead).
      const auto bits = static_cast<unsigned>(rng() % 13);
      const Duration buckets = 1 + (rng() & ((Duration{1} << bits) - 1));
      const Time due = bucket_start + buckets * Engine::kBucketWidth - 1 + rng() % 3;
      if (due > now) return due;
    }
    if (kind == 3) {
      // The routing edge: the wheel's last instant (the bucket just before
      // now's, one turn on), the heap's first and the one after it.
      return bucket_start + Engine::kHorizon - 1 + rng() % 3;
    }
    // Log-uniform from 1 ns to ~8.6 s.
    const auto bits = static_cast<unsigned>(rng() % 34);
    return now + 1 + (rng() & ((Duration{1} << bits) - 1));
  }
};

Task<void> random_sleeper(RandomSchedule& s, int sleeps) {
  for (int i = 0; i < sleeps; ++i) {
    const Time due = s.pick_due();
    const std::size_t token = s.sleeps.size();
    s.sleeps.emplace_back(due, token);
    if (s.recent.size() < 64) {
      s.recent.push_back(due);
    } else {
      s.recent[s.rng() % s.recent.size()] = due;
    }
    co_await delay_until(due);
    if (s.eng.now() != due) s.on_time = false;
    s.resumed.push_back(token);
    if (s.spawns_left > 0 && s.rng() % 4 == 0) {
      --s.spawns_left;
      spawn(s.eng, random_sleeper(s, 1 + static_cast<int>(s.rng() % 8)));
    }
  }
}

TEST(Engine, TiersResumeInTheOrderOfAReferenceSort) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Engine eng;
    RandomSchedule s(eng, seed);
    for (int i = 0; i < 64; ++i) spawn(eng, random_sleeper(s, 1 + i % 8));
    eng.run();

    auto reference = s.sleeps;
    std::sort(reference.begin(), reference.end());
    std::vector<std::size_t> expected;
    for (const auto& [due, token] : reference) expected.push_back(token);
    EXPECT_EQ(s.resumed, expected) << "seed " << seed;
    EXPECT_TRUE(s.on_time) << "seed " << seed;

    // The schedule must exercise what it is meant to: equal instants, and
    // many gaps of more than kHorizon between two consecutive resumptions
    // (`refills`). Each leaves the wheel empty, so the resumption after it
    // comes from the far heap.
    std::size_t ties = 0;
    std::size_t refills = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      if (reference[i].first == reference[i - 1].first) ++ties;
      if (reference[i].first - reference[i - 1].first > Engine::kHorizon) ++refills;
    }
    EXPECT_GT(ties, 100u) << "seed " << seed;
    EXPECT_GT(refills, 1'000u) << "seed " << seed;
    EXPECT_EQ(s.spawns_left, 0) << "seed " << seed;  // actors spawned from resumed ones
  }
}

TEST(Task, NestedAwaitPropagatesValue) {
  Engine eng;
  int result = 0;
  auto inner = []() -> Task<int> {
    co_await delay(5);
    co_return 21;
  };
  auto outer = [&]() -> Task<void> {
    int a = co_await inner();
    int b = co_await inner();
    result = a + b;
  };
  spawn(eng, outer());
  eng.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(eng.now(), 10u);
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Engine eng;
  bool caught = false;
  auto thrower = []() -> Task<void> {
    co_await delay(1);
    throw std::runtime_error("boom");
  };
  auto body = [&]() -> Task<void> {
    try {
      co_await thrower();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  spawn(eng, body());
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Task, ReadingADestroyedFrameIsReported) {
  // Pooled frames are poisoned while they wait for reuse, so
  // AddressSanitizer still sees a use after the coroutine's destruction.
#ifndef RFS_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  auto body = []() -> Task<void> { co_return; };
  EXPECT_DEATH(
      {
        auto h = body().release();
        auto* frame = static_cast<volatile unsigned char*>(h.address());
        h.destroy();
        const unsigned char stale = *frame;
        (void)stale;
      },
      "AddressSanitizer");
#endif
}

TEST(Event, BroadcastWakesAllWaiters) {
  Engine eng;
  Event ev;
  int woken = 0;
  auto waiter = [&]() -> Task<void> {
    co_await ev.wait();
    ++woken;
  };
  auto setter = [&]() -> Task<void> {
    co_await delay(100);
    ev.set();
  };
  spawn(eng, waiter());
  spawn(eng, waiter());
  spawn(eng, setter());
  eng.run();
  EXPECT_EQ(woken, 2);
  EXPECT_EQ(eng.now(), 100u);
}

TEST(Event, SetBeforeWaitDoesNotBlock) {
  Engine eng;
  Event ev;
  ev.set();
  Time when = 1;
  auto waiter = [&]() -> Task<void> {
    co_await ev.wait();
    when = Engine::current()->now();
  };
  spawn(eng, waiter());
  eng.run();
  EXPECT_EQ(when, 0u);
}

TEST(Channel, FifoDelivery) {
  Engine eng;
  Channel<int> ch;
  std::vector<int> got;
  auto consumer = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto v = co_await ch.recv();
      EXPECT_TRUE(v.has_value());
      got.push_back(*v);
    }
  };
  auto producer = [&]() -> Task<void> {
    ch.send(1);
    co_await delay(10);
    ch.send(2);
    ch.send(3);
  };
  spawn(eng, consumer());
  spawn(eng, producer());
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, CloseWakesReceiverWithNullopt) {
  Engine eng;
  Channel<int> ch;
  bool saw_end = false;
  auto consumer = [&]() -> Task<void> {
    auto v = co_await ch.recv();
    saw_end = !v.has_value();
  };
  auto closer = [&]() -> Task<void> {
    co_await delay(5);
    ch.close();
  };
  spawn(eng, consumer());
  spawn(eng, closer());
  eng.run();
  EXPECT_TRUE(saw_end);
}

TEST(Channel, DrainsQueuedItemsAfterClose) {
  Engine eng;
  Channel<int> ch;
  ch.send(7);
  ch.close();
  std::vector<int> got;
  bool end = false;
  auto consumer = [&]() -> Task<void> {
    while (true) {
      auto v = co_await ch.recv();
      if (!v) {
        end = true;
        break;
      }
      got.push_back(*v);
    }
  };
  spawn(eng, consumer());
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{7}));
  EXPECT_TRUE(end);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine eng;
  Semaphore sem(2);
  int active = 0;
  int peak = 0;
  auto worker = [&]() -> Task<void> {
    co_await sem.acquire();
    ++active;
    peak = std::max(peak, active);
    co_await delay(100);
    --active;
    sem.release();
  };
  for (int i = 0; i < 5; ++i) spawn(eng, worker());
  eng.run();
  EXPECT_EQ(peak, 2);
  // 5 workers, 2 at a time, 100 ns each -> ceil(5/2)*100 = 300.
  EXPECT_EQ(eng.now(), 300u);
}

TEST(Semaphore, TryAcquire) {
  Engine eng;
  eng.make_current();
  Semaphore sem(1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Mutex, MutualExclusion) {
  Engine eng;
  Mutex mu;
  bool inside = false;
  bool violated = false;
  auto worker = [&]() -> Task<void> {
    co_await mu.lock();
    if (inside) violated = true;
    inside = true;
    co_await delay(50);
    inside = false;
    mu.unlock();
  };
  for (int i = 0; i < 4; ++i) spawn(eng, worker());
  eng.run();
  EXPECT_FALSE(violated);
  EXPECT_EQ(eng.now(), 200u);
}

TEST(Future, AwaitCompletesOnSet) {
  Engine eng;
  Promise<int> p;
  Future<int> f = p.get_future();
  int got = 0;
  auto consumer = [&]() -> Task<void> { got = co_await f.get(); };
  auto producer = [&]() -> Task<void> {
    co_await delay(30);
    p.set_value(99);
  };
  spawn(eng, consumer());
  spawn(eng, producer());
  eng.run();
  EXPECT_EQ(got, 99);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.peek(), 99);
}

TEST(Future, ReadyBeforeAwait) {
  Engine eng;
  Promise<int> p;
  p.set_value(5);
  auto f = p.get_future();
  int got = 0;
  auto consumer = [&]() -> Task<void> { got = co_await f.get(); };
  spawn(eng, consumer());
  eng.run();
  EXPECT_EQ(got, 5);
}

TEST(WaitGroup, WaitsForAll) {
  Engine eng;
  WaitGroup wg(3);
  Time done_at = 0;
  auto worker = [&](Duration d) -> Task<void> {
    co_await delay(d);
    wg.done();
  };
  auto waiter = [&]() -> Task<void> {
    co_await wg.wait();
    done_at = Engine::current()->now();
  };
  spawn(eng, waiter());
  spawn(eng, worker(10));
  spawn(eng, worker(50));
  spawn(eng, worker(30));
  eng.run();
  EXPECT_EQ(done_at, 50u);
}

/// An alarm's owner: a set of deadlines, each handled once, by `fire`,
/// at the first wake at or after it.
struct DeadlineOwner {
  std::multiset<Time> pending;
  std::vector<std::pair<Time, Time>> handled;  // (deadline, instant handled)
  int fires = 0;
  Alarm alarm{[this](Time now) {
    ++fires;
    while (!pending.empty() && *pending.begin() <= now) {
      handled.emplace_back(*pending.begin(), now);
      pending.erase(pending.begin());
    }
    return pending.empty() ? kNever : *pending.begin();
  }};

  void add(Time at) {
    pending.insert(at);
    alarm.arm(at);
  }
};

TEST(Alarm, LaterDeadlinesShareTheLiveActor) {
  Engine eng;
  CurrentEngineScope scope(eng);
  DeadlineOwner owner;
  owner.add(100);
  EXPECT_EQ(eng.detached_count(), 1u);
  owner.add(200);
  owner.add(150);
  owner.add(100);
  EXPECT_EQ(eng.detached_count(), 1u);  // the actor due at 100 serves them all
  eng.run();
  EXPECT_EQ(owner.handled,
            (std::vector<std::pair<Time, Time>>{{100, 100}, {100, 100}, {150, 150}, {200, 200}}));
  EXPECT_EQ(owner.fires, 3);
  EXPECT_EQ(eng.detached_count(), 0u);  // no deadline left: the actor retired
}

TEST(Alarm, AnEarlierDeadlineSupersedesTheLiveActor) {
  Engine eng;
  CurrentEngineScope scope(eng);
  DeadlineOwner owner;
  owner.add(500);
  eng.run_until(10);  // the actor sleeps until 500
  owner.add(100);     // it wakes too late: a second one starts
  EXPECT_EQ(eng.detached_count(), 2u);
  owner.pending.erase(500);  // the owner drops its later deadline
  eng.run_until(100);
  EXPECT_EQ(owner.fires, 1);
  EXPECT_EQ(eng.detached_count(), 1u);  // the superseded actor sleeps on
  eng.run();
  EXPECT_EQ(eng.now(), 500u);  // it woke at 500...
  EXPECT_EQ(owner.fires, 1);   // ...and retired without firing
  EXPECT_EQ(owner.handled, (std::vector<std::pair<Time, Time>>{{100, 100}}));
  EXPECT_EQ(eng.detached_count(), 0u);
}

TEST(Alarm, AnOwnerGoneBeforeTheWakeIsNeverCalled) {
  struct Owner {
    int* calls;
    std::vector<Time> seen;  // a call after ~Owner would write freed memory
    Alarm alarm{[this](Time now) {
      ++*calls;
      seen.push_back(now);
      return kNever;
    }};
  };
  Engine eng;
  CurrentEngineScope scope(eng);
  int calls = 0;
  auto owner = std::unique_ptr<Owner>(new Owner{&calls, {}});
  owner->alarm.arm(100);
  eng.run_until(50);
  owner.reset();
  eng.run();
  EXPECT_EQ(eng.now(), 100u);  // the actor woke at its deadline...
  EXPECT_EQ(calls, 0);         // ...and found no owner to call
  EXPECT_EQ(eng.detached_count(), 0u);
}

TEST(Alarm, RandomArmsHandleEveryDeadlineAtItsInstant) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Engine eng;
    std::mt19937_64 rng(seed);
    DeadlineOwner owner;
    std::vector<Time> added;
    // Eight coroutines add deadlines at random instants, from the current
    // one to ~8 us ahead, so deadlines collide, arrive in any order and
    // often fall on an instant whose wake already ran.
    auto adder = [&](int adds) -> Task<void> {
      for (int i = 0; i < adds; ++i) {
        co_await delay(rng() % 1'000);
        const Time at = eng.now() + rng() % 8'000;
        added.push_back(at);
        owner.add(at);
      }
    };
    for (int i = 0; i < 8; ++i) spawn(eng, adder(200));
    eng.run();

    ASSERT_EQ(owner.handled.size(), added.size()) << "seed " << seed;
    std::vector<Time> deadlines;
    for (const auto& [deadline, at] : owner.handled) {
      EXPECT_EQ(at, deadline) << "seed " << seed;
      deadlines.push_back(deadline);
    }
    std::sort(added.begin(), added.end());
    EXPECT_EQ(deadlines, added) << "seed " << seed;  // handled in deadline order
    EXPECT_TRUE(owner.pending.empty());
    EXPECT_EQ(eng.detached_count(), 0u);
  }
}

std::vector<int> drain(Fifo<int>& q) {
  std::vector<int> out;
  while (!q.empty()) {
    out.push_back(q.front());
    q.pop_front();
  }
  return out;
}

TEST(Fifo, GrowingWhileWrappedKeepsFifoOrder) {
  // Rotate the ring by `skew` first, so the growth below happens with the
  // head away from slot 0 and the live elements wrapped around its end.
  for (int skew = 0; skew < 24; ++skew) {
    Fifo<int> q;
    for (int i = 0; i < skew; ++i) {
      q.push_back(-1);
      q.pop_front();
    }
    std::vector<int> expected;
    for (int i = 0; i < 40; ++i) {
      q.push_back(i);
      expected.push_back(i);
    }
    ASSERT_EQ(q.size(), 40u);
    EXPECT_EQ(drain(q), expected) << "skew " << skew;
  }
}

TEST(Fifo, EraseKeepsTheOthersInOrder) {
  Fifo<int> q;
  for (int i = 0; i < 5; ++i) {
    q.push_back(-1);
    q.pop_front();
  }
  for (int i = 0; i < 10; ++i) q.push_back(i);
  q.erase(3);             // middle
  q.erase(0);             // front
  q.erase(q.size() - 1);  // back
  ASSERT_EQ(q.size(), 7u);
  EXPECT_EQ(q[0], 1);
  EXPECT_EQ(q[2], 4);
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 4, 5, 6, 7, 8}));
}

TEST(Fifo, PopAndEraseReleaseTheElement) {
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  Fifo<std::shared_ptr<int>> q;
  q.push_back(a);
  q.push_back(b);
  q.push_back(a);
  EXPECT_EQ(a.use_count(), 3);
  q.pop_front();
  EXPECT_EQ(a.use_count(), 2);
  q.erase(0);
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(a.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(a.use_count(), 1);
}

TEST(Fifo, ClearEmptiesTheQueue) {
  auto a = std::make_shared<int>(1);
  Fifo<std::shared_ptr<int>> q;
  for (int i = 0; i < 11; ++i) q.push_back(a);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(a.use_count(), 1);
  q.push_back(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), a);
}

TEST(Fifo, InterleavingsAcrossTheInlineSlotMatchADeque) {
  // A queue's first element sits in its inline slot and moves into a
  // fresh ring when a second one arrives; the ring then stays. Random
  // pushes, pops, erases and clears, mostly at sizes 0-3 so that every
  // queue spills early, must match std::deque.
  std::mt19937_64 rng(26);
  for (int round = 0; round < 200; ++round) {
    Fifo<int> q;
    std::deque<int> model;
    for (int op = 0; op < 60; ++op) {
      const std::uint64_t pick = rng() % 16;
      if (model.empty() || (pick < 7 && model.size() < 4) || pick == 15) {
        q.push_back(op);
        model.push_back(op);
      } else if (pick < 11) {
        q.pop_front();
        model.pop_front();
      } else if (pick < 14) {
        const std::size_t i = rng() % model.size();
        q.erase(i);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        q.clear();
        model.clear();
      }
      ASSERT_EQ(q.size(), model.size()) << "round " << round << " op " << op;
      for (std::size_t i = 0; i < model.size(); ++i) {
        ASSERT_EQ(q[i], model[i]) << "round " << round << " op " << op;
      }
      if (!model.empty()) {
        ASSERT_EQ(q.front(), model.front());
      }
    }
  }
}

TEST(Fifo, TheInlineSlotReleasesItsElement) {
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  Fifo<std::shared_ptr<int>> q;
  q.push_back(a);  // in the inline slot
  EXPECT_EQ(a.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(a.use_count(), 1);
  q.push_back(a);
  q.push_back(b);  // both now in the ring
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(q.front(), a);
  q.erase(1);
  EXPECT_EQ(b.use_count(), 1);
  q.clear();
  EXPECT_EQ(a.use_count(), 1);
}

TEST(Host, ComputeOccupiesCore) {
  Engine eng;
  Host host("n0", 2, 1024);
  auto worker = [&]() -> Task<void> { co_await host.compute(100); };
  for (int i = 0; i < 4; ++i) spawn(eng, worker());
  eng.run();
  // 4 kernels, 2 cores: finishes at 200.
  EXPECT_EQ(eng.now(), 200u);
  EXPECT_EQ(host.busy_ns(), 400u);
}

TEST(Host, TryAcquireReflectsBusyCores) {
  Engine eng;
  eng.make_current();
  Host host("n0", 1, 1024);
  EXPECT_TRUE(host.try_acquire_core());
  EXPECT_FALSE(host.try_acquire_core());
  EXPECT_EQ(host.free_cores(), 0u);
  host.release_core();
  EXPECT_EQ(host.free_cores(), 1u);
}

TEST(Host, MemoryAccounting) {
  Engine eng;
  Host host("n0", 1, 1000);
  EXPECT_TRUE(host.reserve_memory(600).ok());
  EXPECT_FALSE(host.reserve_memory(600).ok());
  EXPECT_EQ(host.free_memory(), 400u);
  host.release_memory(600);
  EXPECT_EQ(host.free_memory(), 1000u);
}

TEST(Determinism, TwoRunsIdenticalSchedule) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<int, Time>> log;
    Semaphore sem(1);
    auto worker = [&](int id, Duration d) -> Task<void> {
      co_await sem.acquire();
      co_await delay(d);
      log.emplace_back(id, Engine::current()->now());
      sem.release();
    };
    for (int i = 0; i < 10; ++i) spawn(eng, worker(i, 7 * (i % 3) + 1));
    eng.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace rfs::sim
