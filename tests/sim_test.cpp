// Unit tests for the discrete-event engine: virtual clock, determinism,
// channels, events, semaphores, core pools and when_all.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/core_pool.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/when_all.h"

namespace cj::sim {
namespace {

TEST(Engine, TimeStartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine e;
  SimTime observed = -1;
  e.spawn(
      [](Engine& e, SimTime* out) -> Task<void> {
        co_await e.sleep(5 * kMillisecond);
        *out = e.now();
      }(e, &observed),
      "sleeper");
  e.run();
  e.check_all_complete();
  EXPECT_EQ(observed, 5 * kMillisecond);
  EXPECT_EQ(e.now(), 5 * kMillisecond);
}

TEST(Engine, EventsAtSameInstantRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.spawn(
        [](Engine& e, std::vector<int>* order, int id) -> Task<void> {
          co_await e.sleep(kMicrosecond);  // all wake at the same instant
          order->push_back(id);
        }(e, &order, i),
        "p");
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<std::pair<int, SimTime>> log;
    for (int i = 0; i < 4; ++i) {
      e.spawn(
          [](Engine& e, std::vector<std::pair<int, SimTime>>* log,
             int id) -> Task<void> {
            for (int k = 0; k < 3; ++k) {
              co_await e.sleep((id + 1) * kMicrosecond);
              log->push_back({id, e.now()});
            }
          }(e, &log, i),
          "p");
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int ticks = 0;
  e.spawn(
      [](Engine& e, int* ticks) -> Task<void> {
        for (int i = 0; i < 100; ++i) {
          co_await e.sleep(kMillisecond);
          ++*ticks;
        }
      }(e, &ticks),
      "ticker");
  EXPECT_FALSE(e.run_until(10 * kMillisecond + 1));
  EXPECT_EQ(ticks, 10);
  EXPECT_TRUE(e.run_until(kSecond));
  EXPECT_EQ(ticks, 100);
}

TEST(Engine, NestedTaskCompositionTransfersValues) {
  Engine e;
  int result = 0;
  auto inner = [](Engine& e) -> Task<int> {
    co_await e.sleep(kMicrosecond);
    co_return 21;
  };
  e.spawn(
      [](Engine& e, auto inner, int* out) -> Task<void> {
        const int a = co_await inner(e);
        const int b = co_await inner(e);
        *out = a + b;
      }(e, inner, &result),
      "outer");
  e.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(e.now(), 2 * kMicrosecond);
}

// ----------------------------------------------------------------- Event

TEST(Event, WaitersResumeOnSet) {
  Engine e;
  Event ev(e);
  std::vector<int> log;
  for (int i = 0; i < 3; ++i) {
    e.spawn(
        [](Event& ev, std::vector<int>* log, int id) -> Task<void> {
          co_await ev.wait();
          log->push_back(id);
        }(ev, &log, i),
        "waiter");
  }
  e.spawn(
      [](Engine& e, Event& ev) -> Task<void> {
        co_await e.sleep(kMillisecond);
        ev.set();
      }(e, ev),
      "setter");
  e.run();
  e.check_all_complete();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

TEST(Event, WaitAfterSetIsImmediate) {
  Engine e;
  Event ev(e);
  ev.set();
  bool ran = false;
  e.spawn(
      [](Event& ev, bool* ran) -> Task<void> {
        co_await ev.wait();
        *ran = true;
      }(ev, &ran),
      "late-waiter");
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 0);
}

// ------------------------------------------------------------- Semaphore

TEST(Semaphore, LimitsConcurrency) {
  Engine e;
  Semaphore sem(e, 2);
  int concurrent = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    e.spawn(
        [](Engine& e, Semaphore& sem, int* concurrent, int* peak) -> Task<void> {
          co_await sem.acquire();
          *peak = std::max(*peak, ++*concurrent);
          co_await e.sleep(kMillisecond);
          --*concurrent;
          sem.release();
        }(e, sem, &concurrent, &peak),
        "worker");
  }
  e.run();
  e.check_all_complete();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(e.now(), 3 * kMillisecond);  // 6 workers, 2 at a time
}

TEST(Semaphore, FifoWakeup) {
  Engine e;
  Semaphore sem(e, 0);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    e.spawn(
        [](Semaphore& sem, std::vector<int>* order, int id) -> Task<void> {
          co_await sem.acquire();
          order->push_back(id);
        }(sem, &order, i),
        "acq");
  }
  e.spawn(
      [](Engine& e, Semaphore& sem) -> Task<void> {
        for (int i = 0; i < 4; ++i) {
          co_await e.sleep(kMicrosecond);
          sem.release();
        }
      }(e, sem),
      "rel");
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --------------------------------------------------------------- Channel

TEST(Channel, PushPopFifo) {
  Engine e;
  Channel<int> ch(e, 4);
  std::vector<int> got;
  e.spawn(
      [](Channel<int>& ch) -> Task<void> {
        for (int i = 0; i < 10; ++i) co_await ch.push(i);
        ch.close();
      }(ch),
      "producer");
  e.spawn(
      [](Channel<int>& ch, std::vector<int>* got) -> Task<void> {
        while (auto v = co_await ch.pop()) got->push_back(*v);
      }(ch, &got),
      "consumer");
  e.run();
  e.check_all_complete();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Channel, BoundedCapacityBlocksProducer) {
  Engine e;
  Channel<int> ch(e, 2);
  SimTime producer_done = 0;
  e.spawn(
      [](Engine& e, Channel<int>& ch, SimTime* done) -> Task<void> {
        for (int i = 0; i < 4; ++i) co_await ch.push(i);
        *done = e.now();
        ch.close();
      }(e, ch, &producer_done),
      "producer");
  e.spawn(
      [](Engine& e, Channel<int>& ch) -> Task<void> {
        while (true) {
          co_await e.sleep(kMillisecond);
          if (!(co_await ch.pop())) break;
        }
      }(e, ch),
      "slow-consumer");
  e.run();
  e.check_all_complete();
  // Producer's 4th push had to wait until the consumer made room.
  EXPECT_GE(producer_done, 2 * kMillisecond);
}

TEST(Channel, TryPushRespectsCapacity) {
  Engine e;
  Channel<int> ch(e, 2);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_TRUE(ch.try_push(2));
  EXPECT_FALSE(ch.try_push(3));
  EXPECT_EQ(ch.try_pop().value(), 1);
  EXPECT_TRUE(ch.try_push(3));
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, PopOnClosedDrainedReturnsNullopt) {
  Engine e;
  Channel<int> ch(e, 2);
  EXPECT_TRUE(ch.try_push(7));
  ch.close();
  std::vector<int> got;
  bool saw_end = false;
  e.spawn(
      [](Channel<int>& ch, std::vector<int>* got, bool* end) -> Task<void> {
        while (auto v = co_await ch.pop()) got->push_back(*v);
        *end = true;
      }(ch, &got, &saw_end),
      "drain");
  e.run();
  EXPECT_EQ(got, (std::vector<int>{7}));
  EXPECT_TRUE(saw_end);
}

// -------------------------------------------------------------- CorePool

TEST(CorePool, MakespanOfParallelTasks) {
  Engine e;
  CorePool pool(e, 4);
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back(pool.consume(kMillisecond, "work"));
  e.spawn(when_all(e, std::move(tasks)), "batch");
  e.run();
  e.check_all_complete();
  EXPECT_EQ(e.now(), 2 * kMillisecond);  // 8 x 1ms on 4 cores
  EXPECT_EQ(pool.busy_total(), 8 * kMillisecond);
}

TEST(CorePool, SingleCoreSerializes) {
  Engine e;
  CorePool pool(e, 1);
  std::vector<Task<void>> tasks;
  for (int i = 0; i < 3; ++i) tasks.push_back(pool.consume(kMillisecond, "work"));
  e.spawn(when_all(e, std::move(tasks)), "batch");
  e.run();
  EXPECT_EQ(e.now(), 3 * kMillisecond);
}

TEST(CorePool, BusyLedgerByTag) {
  Engine e;
  CorePool pool(e, 2);
  e.spawn(pool.consume(3 * kMillisecond, "join"), "a");
  e.spawn(pool.consume(2 * kMillisecond, "tcp-rx"), "b");
  e.run();
  EXPECT_EQ(pool.busy_for("join"), 3 * kMillisecond);
  EXPECT_EQ(pool.busy_for("tcp-rx"), 2 * kMillisecond);
  EXPECT_EQ(pool.busy_for("absent"), 0);
  EXPECT_EQ(pool.busy_total(), 5 * kMillisecond);
}

TEST(CorePool, ContextSwitchCostBilledOnTagChange) {
  Engine e;
  const SimDuration cs = 10 * kMicrosecond;
  CorePool pool(e, 1, cs);
  e.spawn(
      [](CorePool& pool) -> Task<void> {
        co_await pool.consume(kMillisecond, "a");
        co_await pool.consume(kMillisecond, "a");  // same tag: no switch
        co_await pool.consume(kMillisecond, "b");  // switch
        co_await pool.consume(kMillisecond, "a");  // switch
      }(pool),
      "driver");
  e.run();
  EXPECT_EQ(pool.context_switches(), 2u);
  EXPECT_EQ(e.now(), 4 * kMillisecond + 2 * cs);
}

TEST(CorePool, ExecuteMeasuresRealWork) {
  Engine e;
  CorePool pool(e, 1);
  volatile std::uint64_t sink = 0;
  SimDuration measured = 0;
  e.spawn(
      [](CorePool& pool, volatile std::uint64_t* sink,
         SimDuration* measured) -> Task<void> {
        *measured = co_await pool.execute(
            [sink] {
              std::uint64_t acc = 0;
              for (int i = 0; i < 2'000'000; ++i) acc += static_cast<std::uint64_t>(i) * 31;
              *sink = acc;
            },
            "work");
      }(pool, &sink, &measured),
      "driver");
  e.run();
  EXPECT_GT(measured, 0);
  EXPECT_EQ(e.now(), pool.busy_total());
  EXPECT_NE(sink, 0u);
}

TEST(CorePool, CpuScaleMultipliesMeasuredCosts) {
  auto burn = [] {
    volatile std::uint64_t acc = 0;
    for (int i = 0; i < 3'000'000; ++i) {
      acc = acc + static_cast<std::uint64_t>(i);  // volatile: not foldable
    }
  };
  // Virtual time one pool bills for one burn.
  const auto measure = [&burn](double cpu_scale) {
    Engine e;
    CorePool pool(e, 1, 0, cpu_scale);
    e.spawn(pool.run(burn, "w"), "burn");
    e.run();
    return e.now();
  };
  // Identical real work; the scaled pool should report ~4x the virtual
  // time. One ~3 ms sample per side is at the mercy of a preemption on a
  // loaded machine, so each side is the minimum of 5 alternating reps.
  SimDuration base = std::numeric_limits<SimDuration>::max();
  SimDuration scaled = std::numeric_limits<SimDuration>::max();
  for (int rep = 0; rep < 5; ++rep) {
    base = std::min(base, measure(1.0));
    scaled = std::min(scaled, measure(4.0));
  }
  const double ratio = static_cast<double>(scaled) / static_cast<double>(base);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 8.0);
}

// -------------------------------------------------------------- when_all

TEST(WhenAll, EmptyCompletesImmediately) {
  Engine e;
  bool done = false;
  e.spawn(
      [](Engine& e, bool* done) -> Task<void> {
        co_await when_all(e, {});
        *done = true;
      }(e, &done),
      "empty");
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 0);
}

TEST(EngineDeath, DeadlockDumpNamesTheBlockingPrimitive) {
  // A process stuck on a channel nobody feeds: check_all_complete() must
  // name the never-finished process and the primitive it is blocked on
  // before aborting, so hangs in large simulations are diagnosable.
  EXPECT_DEATH(
      {
        Engine e;
        Channel<int> starved(e, 1, "starved-inbox");
        e.spawn(
            [](Channel<int>& ch) -> Task<void> { co_await ch.pop(); }(starved),
            "consumer");
        e.run();
        e.check_all_complete();
      },
      "process 'consumer' never completed.*blocked waiters.*starved-inbox");
}

TEST(WhenAll, RunsConcurrently) {
  Engine e;
  std::vector<Task<void>> tasks;
  auto sleeper = [](Engine& e, SimDuration d) -> Task<void> { co_await e.sleep(d); };
  tasks.push_back(sleeper(e, 3 * kMillisecond));
  tasks.push_back(sleeper(e, 5 * kMillisecond));
  tasks.push_back(sleeper(e, 1 * kMillisecond));
  e.spawn(when_all(e, std::move(tasks)), "batch");
  e.run();
  e.check_all_complete();
  EXPECT_EQ(e.now(), 5 * kMillisecond);  // max, not sum
}

}  // namespace
}  // namespace cj::sim
