// Determinism property: a sweep's merged output bytes are a function of
// the grid alone — not of pool width, not of submission order, not of
// which worker finishes first.  Run the same grid with 1, 2 and 8 threads
// and with shuffled submission; every CSV/JSON byte must match.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>

#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "core/runtime.hpp"
#include "core/trace.hpp"
#include "exp/grid.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_export.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "support/cli.hpp"

namespace {

using dlb::exp::ExperimentGrid;
using dlb::exp::ReportOptions;
using dlb::exp::Runner;
using dlb::exp::RunnerOptions;
using dlb::exp::SweepResult;

ExperimentGrid property_grid() {
  ExperimentGrid grid;
  dlb::exp::AppSpec sawtooth;
  sawtooth.name = "sawtooth";
  sawtooth.app = dlb::apps::make_sawtooth(48, 80e3, 20e3, 8.0);
  sawtooth.base_ops_per_sec = 1e6;
  sawtooth.default_tl_seconds = 0.5;
  grid.apps.push_back(std::move(sawtooth));

  dlb::exp::AppSpec trfd;
  trfd.name = "trfd";
  trfd.app = dlb::apps::make_trfd({8});  // two loops + transpose
  trfd.base_ops_per_sec = 1e6;
  trfd.default_tl_seconds = 0.5;
  grid.apps.push_back(std::move(trfd));

  grid.procs = {4};
  grid.strategies = dlb::exp::parse_strategies("all");
  grid.max_loads = {0, 5};  // dedicated + loaded
  grid.seeds = 2;
  grid.seed0 = 31000;
  return grid;
}

std::string csv_of(const SweepResult& sweep) {
  std::ostringstream os;
  dlb::exp::write_csv(os, sweep, ReportOptions{});
  return os.str();
}

std::string json_of(const SweepResult& sweep) {
  std::ostringstream os;
  dlb::exp::write_json(os, sweep, ReportOptions{});
  return os.str();
}

TEST(ExpDeterminism, MergedBytesIdenticalAcrossThreadCounts) {
  const auto grid = property_grid();

  RunnerOptions one;
  one.threads = 1;
  RunnerOptions two;
  two.threads = 2;
  RunnerOptions eight;
  eight.threads = 8;

  const auto sweep1 = Runner(one).run(grid);
  const auto sweep2 = Runner(two).run(grid);
  const auto sweep8 = Runner(eight).run(grid);

  const auto csv1 = csv_of(sweep1);
  ASSERT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv_of(sweep2));
  EXPECT_EQ(csv1, csv_of(sweep8));
  const auto json1 = json_of(sweep1);
  EXPECT_EQ(json1, json_of(sweep2));
  EXPECT_EQ(json1, json_of(sweep8));
}

TEST(ExpDeterminism, MergedBytesIdenticalUnderShuffledSubmission) {
  const auto grid = property_grid();
  RunnerOptions plain;
  plain.threads = 4;
  const auto baseline = csv_of(Runner(plain).run(grid));

  for (const std::uint64_t shuffle_seed : {1ull, 2ull, 3ull}) {
    RunnerOptions shuffled;
    shuffled.threads = 4;
    shuffled.shuffle_submission = true;
    shuffled.shuffle_seed = shuffle_seed;
    EXPECT_EQ(baseline, csv_of(Runner(shuffled).run(grid)))
        << "shuffle seed " << shuffle_seed;
  }
}

TEST(ExpDeterminism, SerialReferenceProducesTheSameBytes) {
  const auto grid = property_grid();
  RunnerOptions options;
  options.threads = 8;
  EXPECT_EQ(csv_of(Runner::run_serial(grid)), csv_of(Runner(options).run(grid)));
}

TEST(ExpDeterminism, RepeatedRunsAreIdempotent) {
  const auto grid = property_grid();
  RunnerOptions options;
  options.threads = 2;
  const Runner runner(options);
  EXPECT_EQ(csv_of(runner.run(grid)), csv_of(runner.run(grid)));
}

TEST(ExpDeterminism, Figure5BytesIdenticalAcrossThreadCountsUnderActiveQueue) {
  // The calendar-queue leg of the determinism contract: the paper's Fig. 5
  // grid — the byte-identity anchor of the whole repo — must merge to the
  // same CSV at 1, 2 and 8 runner threads under the compile-time-selected
  // event queue (calendar by default; the heap build runs the same leg, and
  // CI additionally cmp's the two builds' dlb_sweep stdout against each
  // other).
  const char* argv[] = {"exp_determinism_test", "--figure=5", "--seeds=2"};
  const dlb::support::Cli cli(3, argv);
  const auto grid = dlb::exp::parse_grid(cli);

  RunnerOptions one;
  one.threads = 1;
  const auto csv1 = csv_of(Runner(one).run(grid));
  ASSERT_FALSE(csv1.empty());
  for (const int threads : {2, 8}) {
    RunnerOptions more;
    more.threads = threads;
    EXPECT_EQ(csv1, csv_of(Runner(more).run(grid)))
        << "fig5 CSV diverged at " << threads << " threads under the '"
        << dlb::sim::Engine::event_queue_name() << "' event queue";
  }
}

TEST(ExpDeterminism, Figure5BytesIdenticalAcrossShardCounts) {
  // Requesting engine shards must never change merged bytes.  Fig. 5 runs
  // the shared topology, where sharding is silently declined (a broadcast
  // domain has zero cross-partition lookahead) — the contract is still that
  // `--shards=N` is invisible in the output, for every N and thread count.
  std::string baseline;
  for (const char* shards : {"--shards=1", "--shards=2", "--shards=4"}) {
    const char* argv[] = {"exp_determinism_test", "--figure=5", "--seeds=2", shards};
    const dlb::support::Cli cli(4, argv);
    const auto grid = dlb::exp::parse_grid(cli);
    for (const int threads : {1, 2}) {
      RunnerOptions options;
      options.threads = threads;
      const auto csv = csv_of(Runner(options).run(grid));
      ASSERT_FALSE(csv.empty());
      if (baseline.empty()) {
        baseline = csv;
      } else {
        EXPECT_EQ(baseline, csv)
            << "fig5 CSV diverged at " << shards << ", " << threads << " threads";
      }
    }
  }
}

TEST(ExpDeterminism, SwitchedBytesIdenticalAcrossShardAndThreadCounts) {
  // The sharded engine actually engages here: switched topology, 4 racks of
  // 2, so --shards=2 and --shards=4 run real conservative windows with
  // cross-shard ingress traffic.  Merged bytes must be a function of the
  // grid alone — identical for shards 1/2/4 at runner threads 1/2/8, where
  // the sharded cells additionally run their windows on pool workers via
  // PoolShardExecutor.
  std::string baseline;
  for (const char* shards : {"--shards=1", "--shards=2", "--shards=4"}) {
    const char* argv[] = {"exp_determinism_test", "--app=mxm",  "--procs=8",
                          "--strategies=all",     "--seeds=2",  "--topology=switched",
                          "--rack-size=2",        shards};
    const dlb::support::Cli cli(8, argv);
    const auto grid = dlb::exp::parse_grid(cli);
    for (const int threads : {1, 2, 8}) {
      RunnerOptions options;
      options.threads = threads;
      const auto csv = csv_of(Runner(options).run(grid));
      ASSERT_FALSE(csv.empty());
      if (baseline.empty()) {
        baseline = csv;
      } else {
        EXPECT_EQ(baseline, csv)
            << "switched CSV diverged at " << shards << ", " << threads << " threads";
      }
    }
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex_of(std::uint64_t digest) {
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(digest));
  return hex;
}

TEST(ExpDeterminism, Figure5CsvGoldensDisarmedAndUnderEveryFaultPreset) {
  // Pins the bytes themselves, not just their independence from the thread
  // count: the Fig. 5 grid at one seed, disarmed and under each fault
  // preset, must hash to the committed FNV-1a digests.  A refactor of the
  // protocol, the runtime or the fault layer that moves any virtual-time
  // outcome — makespan, sync count, recovery count — fails here.
  struct Golden {
    const char* faults;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"none", 0x67be8b47bdc7dca8ull},        {"crash-half", 0x58c625e996c6cb3dull},
      {"crash-coord", 0xa403e2dae98f2383ull}, {"crash-two", 0xb562cf3cdb1ca77full},
      {"revoke-half", 0x1e67bf5f1438b895ull}, {"loss10", 0x958c617e93aa742eull},
      {"crash-loss", 0xd9e94e66386a8c3bull},
  };
  for (const Golden& golden : goldens) {
    const std::string faults = std::string("--faults=") + golden.faults;
    const char* argv[] = {"exp_determinism_test", "--figure=5", "--seeds=1", faults.c_str()};
    const dlb::support::Cli cli(4, argv);
    const auto grid = dlb::exp::parse_grid(cli);
    RunnerOptions options;
    options.threads = 2;
    const auto sweep = Runner(options).run(grid);
    ReportOptions report;
    report.include_faults = grid.config.faults.armed();
    std::ostringstream os;
    dlb::exp::write_csv(os, sweep, report);
    const auto digest = fnv1a(os.str());
    EXPECT_EQ(digest, golden.digest) << golden.faults << ": fig5 CSV digest " << hex_of(digest);
  }
}

TEST(ExpDeterminism, Figure6And8CsvGoldensAtThirtySeeds) {
  // Pins the contention cells Fig. 5 at one seed never reaches: under LCDLB
  // and LDDLB the balancer computes on a slave's CPU between the slave's
  // quanta, and stations finishing at the same nanosecond order the shared
  // medium by their last slice boundary.  Any drift in where a CPU slice
  // boundary falls, or in its (time, insertion) order, moves these bytes.
  struct Golden {
    const char* figure;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"--figure=6", 0x76c175935fcc9cf6ull},
      {"--figure=8", 0x8433a75d49767fb6ull},
  };
  for (const Golden& golden : goldens) {
    const char* argv[] = {"exp_determinism_test", golden.figure, "--seeds=30"};
    const dlb::support::Cli cli(3, argv);
    const auto grid = dlb::exp::parse_grid(cli);
    RunnerOptions options;
    options.threads = 4;
    const auto digest = fnv1a(csv_of(Runner(options).run(grid)));
    EXPECT_EQ(digest, golden.digest) << golden.figure << " --seeds=30: CSV digest "
                                     << hex_of(digest);
  }
}

/// Every file of a --trace-out directory, name and bytes, in name order
/// (the names lead with the canonical cell index).
std::string concat_trace_dir(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  std::string all;
  for (const auto& name : names) {
    std::ifstream in(dir / name, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    all += name + "\n" + bytes.str();
  }
  return all;
}

TEST(ExpDeterminism, Figure5TraceGoldensWithObserveAndRecordTraceArmed) {
  // Pins the bytes of every Chrome trace `dlb_sweep --figure=5 --seeds=1
  // --metrics --trace-out` writes, disarmed and under crash-half, plus the
  // disarmed run's --metrics CSV.  A change to how a run records itself
  // (which spans, which samples, in what order) fails here even when every
  // makespan stays put.
  struct Golden {
    const char* faults;
    std::size_t files;
    std::uint64_t traces;
    std::uint64_t metrics_csv;  // 0: not pinned
  };
  const Golden goldens[] = {
      {"none", 20, 0x98a86c5d57a1cc18ull, 0x5ad8f986ad94e2bfull},
      {"crash-half", 16, 0xe599a31df2146f5full, 0},
  };
  for (const Golden& golden : goldens) {
    const std::string faults = std::string("--faults=") + golden.faults;
    const char* argv[] = {"exp_determinism_test", "--figure=5", "--seeds=1", faults.c_str()};
    const dlb::support::Cli cli(4, argv);
    auto grid = dlb::exp::parse_grid(cli);
    grid.config.observe = true;
    grid.config.record_trace = true;
    RunnerOptions options;
    options.threads = 2;
    const auto sweep = Runner(options).run(grid);

    const auto dir = std::filesystem::path(testing::TempDir()) /
                     (std::string("dlb_trace_golden_") + golden.faults);
    std::filesystem::remove_all(dir);
    EXPECT_EQ(dlb::exp::write_cell_traces(dir.string(), sweep), golden.files) << golden.faults;
    const auto traces = fnv1a(concat_trace_dir(dir));
    EXPECT_EQ(traces, golden.traces) << golden.faults << ": trace digest " << hex_of(traces);

    if (golden.metrics_csv != 0) {
      ReportOptions report;
      report.include_faults = grid.config.faults.armed();
      report.include_metrics = true;
      std::ostringstream os;
      dlb::exp::write_csv(os, sweep, report);
      const auto csv = fnv1a(os.str());
      EXPECT_EQ(csv, golden.metrics_csv) << golden.faults << ": metrics CSV digest "
                                         << hex_of(csv);
    }
  }
}

TEST(ExpDeterminism, GanttAndUtilizationGoldenOfOneRecordedRun) {
  // The text analyses over a record_trace-only run (the timeline_viz
  // example's configuration): Gantt chart and per-processor utilization.
  dlb::cluster::ClusterParams params;
  params.procs = 4;
  params.base_ops_per_sec = 3e6;
  params.load.persistence = dlb::sim::from_seconds(16.0);
  params.seed = 42;
  dlb::core::DlbConfig config;
  config.strategy = dlb::core::Strategy::kGDDLB;
  config.record_trace = true;
  const auto result = dlb::core::run_app(params, dlb::apps::make_mxm({200, 400, 400}), config);
  ASSERT_NE(result.obs, nullptr);
  const dlb::core::Trace trace(*result.obs);

  std::ostringstream os;
  trace.render_gantt(os, params.procs, 100);
  os << std::setprecision(17);
  for (const double u : trace.utilization(params.procs)) os << u << '\n';
  const auto digest = fnv1a(os.str());
  EXPECT_EQ(digest, 0xc32ceeaaed098783ull) << "gantt digest " << hex_of(digest) << "\n" << os.str();
}

TEST(ExpDeterminism, ActiveEventQueueIsTheConfiguredOne) {
  // Pins the CMake plumbing: DLB_EVENT_QUEUE=heap must actually rebuild the
  // engine on the reference heap, and the default must be the calendar.
#if defined(DLB_EVENT_QUEUE_HEAP)
  EXPECT_STREQ(dlb::sim::Engine::event_queue_name(), "heap");
#else
  EXPECT_STREQ(dlb::sim::Engine::event_queue_name(), "calendar");
#endif
}

dlb::sim::Process churn_process(dlb::sim::Engine& engine, int hops) {
  for (int i = 0; i < hops; ++i) co_await engine.sleep_for(7);
}

TEST(ExpDeterminism, WarmFragmentedPoolsProduceIdenticalBytes) {
  // The engine's call-node pool and the thread-local frame arena recycle
  // memory across runs.  Fragment them deliberately between two sweeps of
  // the same grid: the merged bytes must be a function of the grid alone,
  // independent of pool/arena history.
  const auto grid = property_grid();
  RunnerOptions options;
  options.threads = 2;
  const Runner runner(options);
  const auto cold = csv_of(runner.run(grid));

  // Churn this thread's arena and a throwaway engine's pools with a
  // workload shaped nothing like the sweep's cells.
  for (int round = 0; round < 3; ++round) {
    dlb::sim::Engine engine;
    long long sink = 0;
    for (int i = 0; i < 300; ++i) {
      engine.schedule_at(i * 13 % 97, [&sink, i] { sink += i; });
      engine.spawn(churn_process(engine, i % 5 + 1));
    }
    engine.run();
    ASSERT_GT(sink, 0);
  }

  EXPECT_EQ(cold, csv_of(runner.run(grid)));
  EXPECT_EQ(json_of(runner.run(grid)), json_of(runner.run(grid)));
}

}  // namespace
