// Fault-tolerance acceptance matrix: {crash, revocation, message loss} x
// {GCDLB, GDDLB, LCDLB, LDDLB}.  Exactly-once execution is enforced inside
// run_ft_loop by the coverage oracle (it throws on a violation), so mere
// termination of these runs is already the core assertion; the tests add the
// observable counters on top.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "core/types.hpp"
#include "fault/plan.hpp"
#include "obs/recorder.hpp"

namespace {

using dlb::apps::make_trfd;
using dlb::apps::make_uniform;
using dlb::cluster::ClusterParams;
using dlb::core::AppDescriptor;
using dlb::core::DlbConfig;
using dlb::core::run_app;
using dlb::core::RunResult;
using dlb::core::Strategy;
using dlb::fault::FaultKind;
using dlb::fault::FaultPlan;

ClusterParams base_params(int procs, std::uint64_t seed = 42) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  p.seed = seed;
  return p;
}

DlbConfig config_for(Strategy s, FaultPlan plan) {
  DlbConfig c;
  c.strategy = s;
  c.faults = std::move(plan);
  return c;
}

std::int64_t count_instants(const RunResult& r, dlb::obs::InstantKind kind) {
  std::int64_t n = 0;
  for (const auto& i : r.obs->instants()) n += i.kind == kind ? 1 : 0;
  return n;
}

std::int64_t executed_total(const RunResult& r) {
  std::int64_t total = 0;
  for (const auto& loop : r.loops) {
    for (const auto n : loop.executed_per_proc) total += n;
  }
  return total;
}

constexpr Strategy kRanked[] = {Strategy::kGCDLB, Strategy::kGDDLB, Strategy::kLCDLB,
                                Strategy::kLDDLB};

class FaultMatrix : public ::testing::TestWithParam<Strategy> {};

INSTANTIATE_TEST_SUITE_P(Strategies, FaultMatrix, ::testing::ValuesIn(kRanked),
                         [](const auto& info) {
                           return dlb::core::strategy_name(info.param);
                         });

TEST_P(FaultMatrix, CrashHalfTerminatesWithRecovery) {
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r = run_app(base_params(4), app, config_for(GetParam(), FaultPlan::preset("crash-half")));
  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_GE(r.faults.recoveries, 1);
  EXPECT_GE(r.faults.iterations_recovered, 1);
  // The victim's pre-crash results are discarded and re-executed by the
  // survivors, so total executed work is at least the loop's iteration count.
  EXPECT_GE(executed_total(r), 64);
  EXPECT_GT(r.exec_seconds, 0.0);
}

TEST_P(FaultMatrix, ObservedCrashRecordsOneDeathPerCrash) {
  const auto app = make_uniform(64, 25e3, 8.0);
  for (const char* preset : {"crash-half", "crash-two"}) {
    auto config = config_for(GetParam(), FaultPlan::preset(preset));
    config.observe = true;
    const auto r = run_app(base_params(8), app, config);
    ASSERT_NE(r.obs, nullptr);
    EXPECT_GE(r.faults.crashes, 1) << preset;
    EXPECT_EQ(count_instants(r, dlb::obs::InstantKind::kDeath), r.faults.crashes) << preset;
  }
}

TEST_P(FaultMatrix, ObservedFaultRunRecordsSyncPhasesAndInterrupts) {
  // The FT slave reports the same phase breakdown as the fault-free one:
  // every sync round it takes part in, its interrupts and its shipments.
  const auto app = make_uniform(64, 25e3, 8.0);
  auto config = config_for(GetParam(), FaultPlan::preset("crash-half"));
  config.observe = true;
  const auto r = run_app(base_params(4), app, config);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_GT(r.metrics.value_of("proto.sync_seconds.count"), 0.0);
  EXPECT_GT(r.metrics.value_of("proto.interrupts"), 0.0);
  EXPECT_EQ(count_instants(r, dlb::obs::InstantKind::kInterrupt),
            static_cast<std::int64_t>(r.metrics.value_of("proto.interrupts")));
  std::int64_t shipments = 0;
  for (const auto& phase : r.obs->phases()) {
    if (phase.kind == dlb::obs::PhaseKind::kShipment) ++shipments;
  }
  EXPECT_EQ(static_cast<double>(shipments), r.metrics.value_of("proto.shipment_seconds.count"));
  if (r.total_iterations_moved() > 0) {
    EXPECT_GT(shipments, 0);
  }
}

TEST_P(FaultMatrix, RevocationRejoinsAtLoopBoundary) {
  // Revoked at ~40% coverage for 0.1 virtual seconds: back before loop 1
  // starts, so the second loop repartitions over the full cluster again.
  FaultPlan plan;
  plan.name = "revoke-brief";
  plan.events.push_back({FaultKind::kRevoke, -1, {-1.0, 0.4, 0}, 0.1});
  auto app = make_uniform(64, 25e3, 8.0);
  app.loops.push_back(app.loops[0]);
  app.loops[1].name = "uniform-2";
  const auto r = run_app(base_params(4), app, config_for(GetParam(), plan));
  EXPECT_EQ(r.faults.revocations, 1);
  EXPECT_EQ(r.faults.rejoins, 1);
  EXPECT_EQ(r.faults.crashes, 0);
  EXPECT_GE(executed_total(r), 128);
}

TEST_P(FaultMatrix, MessageLossTerminates) {
  FaultPlan plan;
  plan.name = "loss25";
  plan.message_loss_rate = 0.25;
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r = run_app(base_params(4), app, config_for(GetParam(), plan));
  EXPECT_EQ(r.faults.crashes, 0);
  EXPECT_GE(r.faults.dropped_frames, 1);
  // No deaths: nothing is wiped, so the count is exact despite the losses.
  EXPECT_EQ(executed_total(r), 64);
}

TEST_P(FaultMatrix, CrashAndLossCombined) {
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r =
      run_app(base_params(4), app, config_for(GetParam(), FaultPlan::preset("crash-loss")));
  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_GE(executed_total(r), 64);
}

TEST(FaultProtocol, CentralManagerFailover) {
  // crash-coord kills rank 0 — the initial central manager.  The centralized
  // strategies must elect the lowest surviving rank and finish.
  for (const Strategy s : {Strategy::kGCDLB, Strategy::kLCDLB}) {
    const auto app = make_uniform(64, 25e3, 8.0);
    const auto r = run_app(base_params(4), app, config_for(s, FaultPlan::preset("crash-coord")));
    EXPECT_EQ(r.faults.crashes, 1) << dlb::core::strategy_name(s);
    EXPECT_GE(r.faults.recoveries, 1) << dlb::core::strategy_name(s);
  }
}

TEST(FaultProtocol, TwoCrashesOnEightStations) {
  for (const Strategy s : {Strategy::kGDDLB, Strategy::kLCDLB}) {
    const auto app = make_uniform(96, 25e3, 8.0);
    const auto r = run_app(base_params(8), app, config_for(s, FaultPlan::preset("crash-two")));
    EXPECT_EQ(r.faults.crashes, 2) << dlb::core::strategy_name(s);
    EXPECT_GE(executed_total(r), 96) << dlb::core::strategy_name(s);
  }
}

TEST(FaultProtocol, TrfdPhasesSurviveACrash) {
  // TRFD has two loops separated by a sequential gather/compute/scatter
  // phase; the crash in loop 0 leaves the phase and loop 1 running on the
  // survivors.
  const auto app = make_trfd({20});
  const auto r =
      run_app(base_params(4), app, config_for(Strategy::kGDDLB, FaultPlan::preset("crash-half")));
  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_EQ(r.loops.size(), 2u);
  EXPECT_GT(r.loops[1].finish_seconds, r.loops[0].finish_seconds);
}

TEST(FaultProtocol, DeathBetweenLoopsIsRecorded) {
  // A timed crash that lands in TRFD's sequential phase fires outside any
  // FT loop, so the runtime's own death handler must be back in place.  A
  // progress trigger on a loop that never runs arms the plan without
  // firing; it pins the fault-free timeline the crash time is taken from.
  const auto app = make_trfd({20});
  FaultPlan idle;
  idle.events.push_back({FaultKind::kCrash, -1, {-1.0, 1.0, 9}, 0.0});
  auto config = config_for(Strategy::kGDDLB, idle);
  config.observe = true;
  const auto timeline = run_app(base_params(4), app, config);
  ASSERT_EQ(timeline.loops.size(), 2u);
  ASSERT_EQ(timeline.faults.crashes, 0);
  const double phase_mid =
      0.5 * (timeline.loops[0].finish_seconds + timeline.loops[1].start_seconds);
  ASSERT_LT(timeline.loops[0].finish_seconds, phase_mid);

  FaultPlan plan = idle;
  plan.events.push_back({FaultKind::kCrash, 3, {phase_mid, -1.0, 0}, 0.0});
  config.faults = plan;
  const auto r = run_app(base_params(4), app, config);
  EXPECT_EQ(r.faults.crashes, 1);
  ASSERT_EQ(count_instants(r, dlb::obs::InstantKind::kDeath), 1);
  for (const auto& i : r.obs->instants()) {
    if (i.kind == dlb::obs::InstantKind::kDeath) {
      EXPECT_EQ(i.proc, 3);
    }
  }
  EXPECT_EQ(r.loops[1].executed_per_proc[3], 0);
}

TEST(FaultProtocol, ReplayIsBitIdentical) {
  for (const Strategy s : kRanked) {
    const auto app = make_uniform(64, 25e3, 8.0);
    const auto cfg = config_for(s, FaultPlan::preset("crash-loss"));
    const auto a = run_app(base_params(4, 7), app, cfg);
    const auto b = run_app(base_params(4, 7), app, cfg);
    EXPECT_EQ(a.exec_seconds, b.exec_seconds) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.messages, b.messages) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.bytes, b.bytes) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.faults.dropped_frames, b.faults.dropped_frames) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.faults.retries, b.faults.retries) << dlb::core::strategy_name(s);
    ASSERT_EQ(a.loops.size(), b.loops.size());
    EXPECT_EQ(a.loops[0].executed_per_proc, b.loops[0].executed_per_proc)
        << dlb::core::strategy_name(s);
  }
}

TEST(FaultProtocol, DisarmedPresetTakesTheFaultFreePath) {
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto armed_none = run_app(base_params(4), app,
                                  config_for(Strategy::kGDDLB, FaultPlan::preset("none")));
  const auto plain = run_app(base_params(4), app, config_for(Strategy::kGDDLB, FaultPlan{}));
  EXPECT_FALSE(FaultPlan::preset("none").armed());
  EXPECT_EQ(armed_none.exec_seconds, plain.exec_seconds);
  EXPECT_EQ(armed_none.messages, plain.messages);
  EXPECT_EQ(armed_none.faults.crashes, 0);
}

TEST(FaultProtocol, NoDlbCannotRunArmed) {
  const auto app = make_uniform(64, 25e3, 8.0);
  EXPECT_THROW(run_app(base_params(4), app,
                       config_for(Strategy::kNoDlb, FaultPlan::preset("crash-half"))),
               std::invalid_argument);
}

TEST(FaultProtocol, DeadWorkstationExecutesNothingAfterTheCrash) {
  // crash-half kills the highest rank; its executed counter may retain the
  // pre-crash work it wasted, but the coverage oracle guarantees every
  // iteration was (re-)executed by a survivor — observable as the survivors
  // covering at least the whole loop.
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r =
      run_app(base_params(4), app, config_for(Strategy::kGDDLB, FaultPlan::preset("crash-half")));
  std::int64_t survivors = 0;
  const auto& per_proc = r.loops[0].executed_per_proc;
  for (std::size_t p = 0; p + 1 < per_proc.size(); ++p) survivors += per_proc[p];
  EXPECT_GE(survivors, 64 - per_proc.back());
}

}  // namespace
