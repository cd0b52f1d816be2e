#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/process.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using dlb::sim::Engine;
using dlb::sim::from_seconds;
using dlb::sim::kNsPerMs;
using dlb::sim::kNsPerSec;
using dlb::sim::Process;
using dlb::sim::Task;
using dlb::sim::to_seconds;

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kNsPerSec);
  EXPECT_EQ(from_seconds(0.001), kNsPerMs);
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerSec), 1.0);
  EXPECT_EQ(from_seconds(0.0), 0);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(10, [&] { order.push_back(2); });
  engine.schedule_at(10, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, PastEventsClampToNow) {
  Engine engine;
  std::vector<std::int64_t> seen;
  engine.schedule_at(100, [&] {
    engine.schedule_at(50, [&] { seen.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 100);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(1000, [&] { ++fired; });
  engine.run_until(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 500);
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), 1000);
}

Process simple_sleeper(Engine& engine, std::int64_t* woke_at) {
  co_await engine.sleep_for(250);
  *woke_at = engine.now();
}

TEST(Engine, ProcessSleepAdvancesTime) {
  Engine engine;
  std::int64_t woke_at = -1;
  engine.spawn(simple_sleeper(engine, &woke_at));
  engine.run();
  EXPECT_EQ(woke_at, 250);
}

Process chained_sleeper(Engine& engine, std::vector<std::int64_t>* marks) {
  co_await engine.sleep_for(100);
  marks->push_back(engine.now());
  co_await engine.sleep_for(100);
  marks->push_back(engine.now());
  co_await engine.sleep_until(500);
  marks->push_back(engine.now());
  co_await engine.sleep_until(400);  // already past: no-op
  marks->push_back(engine.now());
}

TEST(Engine, SleepChain) {
  Engine engine;
  std::vector<std::int64_t> marks;
  engine.spawn(chained_sleeper(engine, &marks));
  engine.run();
  EXPECT_EQ(marks, (std::vector<std::int64_t>{100, 200, 500, 500}));
}

Task<int> add_later(Engine& engine, int a, int b) {
  co_await engine.sleep_for(10);
  co_return a + b;
}

Task<int> sum_twice(Engine& engine) {
  const int first = co_await add_later(engine, 1, 2);
  const int second = co_await add_later(engine, first, 10);
  co_return second;
}

Process task_user(Engine& engine, int* result) {
  *result = co_await sum_twice(engine);
}

TEST(Engine, NestedTasksComposeAndReturnValues) {
  Engine engine;
  int result = 0;
  engine.spawn(task_user(engine, &result));
  engine.run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(engine.now(), 20);
}

Process thrower(Engine& engine) {
  co_await engine.sleep_for(5);
  throw std::runtime_error("boom");
}

TEST(Engine, ProcessExceptionPropagatesFromRun) {
  Engine engine;
  engine.spawn(thrower(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

Task<void> inner_throw(Engine& engine) {
  co_await engine.sleep_for(1);
  throw std::logic_error("inner");
}

Process outer_catches(Engine& engine, bool* caught) {
  try {
    co_await inner_throw(engine);
  } catch (const std::logic_error&) {
    *caught = true;
  }
}

TEST(Engine, TaskExceptionCatchableInParent) {
  Engine engine;
  bool caught = false;
  engine.spawn(outer_catches(engine, &caught));
  engine.run();
  EXPECT_TRUE(caught);
}

Process spawner(Engine& engine, int depth, int* count) {
  ++*count;
  if (depth > 0) {
    engine.spawn(spawner(engine, depth - 1, count));
    engine.spawn(spawner(engine, depth - 1, count));
  }
  co_return;
}

TEST(Engine, ProcessesCanSpawnProcesses) {
  Engine engine;
  int count = 0;
  engine.spawn(spawner(engine, 3, &count));
  engine.run();
  EXPECT_EQ(count, 15);  // full binary tree of depth 3
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine engine;
  std::vector<std::int64_t> times;
  for (int i = 999; i >= 0; --i) {
    engine.schedule_at(i * 7 % 1000, [&times, &engine] { times.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(times.size(), 1000u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
}

// ── Ticks: bare callbacks on the heap beside the event queue ───────────

struct TickLog {
  std::vector<int>* order;
  int id;
};

void log_tick(void* ctx) noexcept {
  auto& log = *static_cast<TickLog*>(ctx);
  log.order->push_back(log.id);
}

TEST(EngineTick, TickAndEventAtEqualTimePopInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  TickLog two{&order, 2};
  TickLog four{&order, 4};
  TickLog six{&order, 6};
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_tick(10, &log_tick, &two);
  engine.schedule_at(10, [&] {
    order.push_back(3);
    // Scheduled at the same instant from inside it: after everything queued.
    engine.schedule_tick(10, &log_tick, &six);
    engine.schedule_at(10, [&] { order.push_back(7); });
  });
  engine.schedule_tick(10, &log_tick, &four);
  engine.schedule_at(10, [&] { order.push_back(5); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(engine.events_executed(), 7u);
  EXPECT_EQ(engine.now(), 10);
}

/// Tick context: records the queue depth each time it fires, then re-arms
/// itself `stride` ns later while `rearms` lasts.
struct DepthProbe {
  Engine* engine;
  int rearms;
  std::int64_t stride;
  std::vector<std::size_t> depths;
};

void probe_tick(void* ctx) noexcept {
  auto& p = *static_cast<DepthProbe*>(ctx);
  p.depths.push_back(p.engine->queue_depth());
  if (p.rearms-- > 0) p.engine->schedule_tick(p.engine->now() + p.stride, &probe_tick, ctx);
}

TEST(EngineTick, CancelledRecordBehindATickCountsUntilItIsTheMinimum) {
  Engine engine;
  DepthProbe probe{&engine, 0, 0, {}};
  auto timer = engine.schedule_cancellable_at(10, [] { FAIL() << "cancelled callback ran"; });
  engine.cancel(timer);
  engine.schedule_at(20, [&] { probe.depths.push_back(engine.queue_depth()); });
  engine.schedule_tick(5, &probe_tick, &probe);
  EXPECT_EQ(engine.queue_depth(), 3u);
  engine.run_until(4);
  // The cancelled record sits behind the tick: still pending.
  EXPECT_EQ(engine.queue_depth(), 3u);
  engine.run_until(7);
  // Once the tick ran, the cancelled record became the minimum and was
  // discarded (uncounted) before the deadline check.
  EXPECT_EQ(probe.depths, (std::vector<std::size_t>{2}));
  EXPECT_EQ(engine.queue_depth(), 1u);
  engine.run();
  EXPECT_EQ(probe.depths, (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(engine.events_executed(), 2u);
  EXPECT_EQ(engine.now(), 20);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTick, PeakQueueDepthCountsPendingTicksButNotTheOneDispatching) {
  Engine engine;
  DepthProbe chain{&engine, 1, 20, {}};
  DepthProbe other{&engine, 0, 0, {}};
  engine.schedule_tick(10, &probe_tick, &chain);
  engine.schedule_tick(20, &probe_tick, &other);
  EXPECT_EQ(engine.peak_queue_depth(), 2u);
  engine.run();
  // chain@10 sees other pending; its re-arm at 30 replaces its own slot, so
  // the depth never exceeds the two ticks that were ever pending at once.
  EXPECT_EQ(chain.depths, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(other.depths, (std::vector<std::size_t>{1}));
  EXPECT_EQ(engine.peak_queue_depth(), 2u);
  EXPECT_EQ(engine.events_executed(), 3u);
  EXPECT_EQ(engine.now(), 30);
}

struct Rearm {
  Engine* engine;
  std::vector<std::pair<std::int64_t, int>>* log;
  int id;
  int left;
  std::int64_t stride;
};

void rearm_tick(void* ctx) noexcept {
  auto& r = *static_cast<Rearm*>(ctx);
  r.log->emplace_back(r.engine->now(), r.id);
  if (r.left-- > 0) r.engine->schedule_tick(r.engine->now() + r.stride, &rearm_tick, ctx);
}

void rearm_event(Rearm* r) {
  r->log->emplace_back(r->engine->now(), r->id);
  if (r->left-- > 0) r->engine->schedule_at(r->engine->now() + r->stride, [r] { rearm_event(r); });
}

TEST(EngineTick, SelfRearmingTicksFireInTheOrderEquivalentEventsWould) {
  // Differential: 40 self-re-arming chains with colliding strides, once as
  // ticks and once as ordinary events; the (time, id) firing logs match.
  std::vector<std::pair<std::int64_t, int>> tick_log;
  std::vector<std::pair<std::int64_t, int>> event_log;
  std::vector<Rearm> ticks;
  std::vector<Rearm> events;
  Engine tick_engine;
  Engine event_engine;
  for (int i = 0; i < 40; ++i) {
    const std::int64_t stride = 3 + (i * 7) % 11;
    ticks.push_back(Rearm{&tick_engine, &tick_log, i, 25, stride});
    events.push_back(Rearm{&event_engine, &event_log, i, 25, stride});
  }
  for (int i = 0; i < 40; ++i) {
    const std::int64_t first = (i * 13) % 17;
    tick_engine.schedule_tick(first, &rearm_tick, &ticks[static_cast<std::size_t>(i)]);
    Rearm* r = &events[static_cast<std::size_t>(i)];
    event_engine.schedule_at(first, [r] { rearm_event(r); });
  }
  tick_engine.run();
  event_engine.run();
  EXPECT_EQ(tick_log.size(), 40u * 26u);
  EXPECT_EQ(tick_log, event_log);
  EXPECT_EQ(tick_engine.events_executed(), event_engine.events_executed());
  EXPECT_EQ(tick_engine.peak_queue_depth(), event_engine.peak_queue_depth());
}

}  // namespace
