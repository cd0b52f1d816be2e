#include "emu/emulator.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "apps/synthetic.hpp"
#include "emu/channel.hpp"

namespace {

using dlb::core::DlbConfig;
using dlb::core::Strategy;
using dlb::emu::Channel;
using dlb::emu::EmuMessage;
using dlb::emu::EmuParams;
using dlb::emu::run_emulated;

TEST(Channel, DeliverAndTryReceive) {
  Channel ch;
  EXPECT_FALSE(ch.try_receive().has_value());
  EmuMessage m;
  m.source = 1;
  m.tag = 5;
  m.round = 3;
  ch.deliver(m);
  EXPECT_EQ(ch.queued(), 1u);
  EXPECT_FALSE(ch.try_receive(6).has_value());
  const auto got = ch.try_receive(5, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->round, 3);
  EXPECT_EQ(ch.queued(), 0u);
}

TEST(Channel, FifoWithinMatches) {
  Channel ch;
  for (int i = 0; i < 3; ++i) {
    EmuMessage m;
    m.source = 0;
    m.tag = 1;
    m.round = i;
    ch.deliver(m);
  }
  EXPECT_EQ(ch.try_receive(1)->round, 0);
  EXPECT_EQ(ch.try_receive(1)->round, 1);
  EXPECT_EQ(ch.try_receive(1)->round, 2);
}

TEST(Channel, BlockingReceiveAcrossThreads) {
  Channel ch;
  std::thread producer([&ch] {
    EmuMessage m;
    m.source = 2;
    m.tag = 9;
    ch.deliver(m);
  });
  const auto m = ch.receive(9);
  EXPECT_EQ(m.source, 2);
  producer.join();
}

EmuParams small_cluster(int workers) {
  EmuParams p;
  p.workers = workers;
  p.spin_per_op = 1;
  return p;
}

std::int64_t total(const std::vector<std::int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

class EmuStrategies : public ::testing::TestWithParam<Strategy> {};

TEST_P(EmuStrategies, CompletesAndConserves) {
  const auto app = dlb::apps::make_uniform(64, 2000.0, 0.0);
  DlbConfig config;
  config.strategy = GetParam();
  const auto r = run_emulated(small_cluster(4), app, config);
  EXPECT_EQ(total(r.executed_per_worker), 64);
  EXPECT_GE(r.wall_seconds, 0.0);
}

TEST_P(EmuStrategies, CompletesWithSkewedWorkers) {
  const auto app = dlb::apps::make_uniform(64, 2000.0, 0.0);
  auto params = small_cluster(4);
  params.slowdowns = {6.0, 1.0, 1.0, 1.0};
  DlbConfig config;
  config.strategy = GetParam();
  const auto r = run_emulated(params, app, config);
  EXPECT_EQ(total(r.executed_per_worker), 64);
}

INSTANTIATE_TEST_SUITE_P(Strategies, EmuStrategies,
                         ::testing::Values(Strategy::kNoDlb, Strategy::kGDDLB,
                                           Strategy::kLDDLB),
                         [](const auto& info) {
                           return std::string(dlb::core::strategy_name(info.param));
                         });

TEST(Emulator, DlbMovesWorkAwayFromSlowWorker) {
  // Generous per-iteration work keeps the wall-clock rate measurements
  // meaningful despite OS scheduling jitter; the assertion is against the
  // worker's own initial block (24 iterations), not against a peer.
  const auto app = dlb::apps::make_uniform(96, 30000.0, 0.0);
  auto params = small_cluster(4);
  params.slowdowns = {8.0, 1.0, 1.0, 1.0};
  DlbConfig config;
  config.strategy = Strategy::kGDDLB;
  const auto r = run_emulated(params, app, config);
  EXPECT_GT(r.redistributions, 0);
  EXPECT_GT(r.iterations_moved, 0);
  EXPECT_LT(r.executed_per_worker[0], 24);
}

TEST(Emulator, DlbFasterThanStaticUnderHeavySkew) {
  // 8x skew: static makespan is dominated by worker 0's 24 iterations at 8x
  // spin; the balancer shifts most of them.  Generous margin keeps the
  // wall-clock comparison robust.  The iterations are long enough that even
  // the balanced run lasts about 0.2 s: a worker descheduled for a few
  // milliseconds on a busy host then moves the ratio by a few percent, not
  // past the margin.
  const auto app = dlb::apps::make_uniform(96, 800000.0, 0.0);
  auto params = small_cluster(4);
  params.slowdowns = {8.0, 1.0, 1.0, 1.0};
  DlbConfig no_dlb;
  no_dlb.strategy = Strategy::kNoDlb;
  DlbConfig gd;
  gd.strategy = Strategy::kGDDLB;
  const auto r_static = run_emulated(params, app, no_dlb);
  const auto r_dlb = run_emulated(params, app, gd);
  EXPECT_LT(r_dlb.wall_seconds, r_static.wall_seconds * 0.8);
}

TEST(Emulator, SingleWorkerDegenerates) {
  const auto app = dlb::apps::make_uniform(8, 1000.0, 0.0);
  DlbConfig config;
  config.strategy = Strategy::kGDDLB;
  const auto r = run_emulated(small_cluster(1), app, config);
  EXPECT_EQ(total(r.executed_per_worker), 8);
}

TEST(Emulator, Rejections) {
  const auto app = dlb::apps::make_uniform(8, 1000.0, 0.0);
  DlbConfig config;
  config.strategy = Strategy::kGCDLB;
  EXPECT_THROW((void)run_emulated(small_cluster(2), app, config), std::invalid_argument);

  config.strategy = Strategy::kGDDLB;
  auto bad = small_cluster(0);
  EXPECT_THROW((void)run_emulated(bad, app, config), std::invalid_argument);

  auto mismatched = small_cluster(4);
  mismatched.slowdowns = {1.0};
  EXPECT_THROW((void)run_emulated(mismatched, app, config), std::invalid_argument);

  auto two_loops = app;
  two_loops.loops.push_back(app.loops[0]);
  EXPECT_THROW((void)run_emulated(small_cluster(2), two_loops, config),
               std::invalid_argument);
}

}  // namespace
