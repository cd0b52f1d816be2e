#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "core/stream_runtime.hpp"
#include "decision/online.hpp"
#include "exp/pool.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "grids.hpp"
#include "net/characterize.hpp"
#include "sim/frame_arena.hpp"
#include "sim/time.hpp"
#include "support/stats.hpp"
#include "svc/arrivals.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace {

using namespace dlb;

/// FNV-1a over the bit patterns of the deterministic outputs, so a digest
/// match means bit-identical results.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add_cell(const core::RunResult& r) {
    add(r.exec_seconds);
    add(r.messages);
    add(r.bytes);
    add(static_cast<std::uint64_t>(r.total_syncs()));
    add(static_cast<std::uint64_t>(r.total_iterations_moved()));
  }
  void add_stream(const svc::ServiceReport& r) {
    add(r.p50_sojourn_seconds);
    add(r.p99_sojourn_seconds);
    add(r.p999_sojourn_seconds);
    add(r.strategy_switches);
    add(r.messages);
    add(r.bytes);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Work conservation of one loop: every iteration ran exactly once.
std::string check_loop(const core::LoopRunStats& stats, const core::LoopDescriptor& loop) {
  std::int64_t executed = 0;
  for (const std::int64_t n : stats.executed_per_proc) executed += n;
  if (executed != loop.iterations) {
    return "loop '" + loop.name + "' executed " + std::to_string(executed) + " of " +
           std::to_string(loop.iterations) + " iterations";
  }
  return {};
}

std::string check_run(const core::RunResult& r, const core::AppDescriptor& app) {
  if (!(r.exec_seconds > 0.0) || !std::isfinite(r.exec_seconds)) return "makespan not positive";
  if (r.loops.size() != app.loops.size()) return "ran a different number of loops than the app has";
  for (std::size_t k = 0; k < app.loops.size(); ++k) {
    std::string err = check_loop(r.loops[k], app.loops[k]);
    if (!err.empty()) return err;
  }
  return {};
}

void fail(Rep& rep, const std::string& why) {
  ++rep.failed;
  if (rep.first_error.empty()) rep.first_error = why;
}

void fail(LayerPass& pass, const std::string& why) {
  ++pass.failed;
  if (pass.first_error.empty()) pass.first_error = why;
}

std::uint64_t arena_live() { return sim::FrameArena::stats().live; }

/// The paper characterizes the network once, off-line, before any customized
/// run (§4.1): P = 2..16 on the shared segment.  Every workload pays it in
/// set-up, as a user of the library does.
net::CollectiveCosts characterize_network(Tracer* tracer, const net::EthernetParams& params) {
  Span span(tracer, "net::characterize");
  return net::characterize(params, 16).costs;
}

void read_cluster(cluster::Cluster& c, Counters& k) {
  sim::Engine& e = c.engine();
  const double events = static_cast<double>(e.events_executed());
  k.events += events;
  k.peak_queue_depth = std::max(k.peak_queue_depth, static_cast<double>(e.peak_queue_depth()));
  std::size_t busiest = 0;
  for (int s = 0; s < e.shards(); ++s) busiest = std::max(busiest, e.shard_events_executed(s));
  if (events > 0) {
    k.max_shard_share = std::max(k.max_shard_share, static_cast<double>(busiest) / events);
  }
  k.msgs += static_cast<double>(c.network().messages_sent());
  k.bytes += static_cast<double>(c.network().bytes_sent());
  k.crossings += static_cast<double>(c.network().bridge_crossings());
}

void read_result(const core::RunResult& r, Counters& k) {
  k.syncs += r.total_syncs();
  k.redistributions += r.total_redistributions();
  k.iters_moved += static_cast<double>(r.total_iterations_moved());
}

const core::AppDescriptor& app_of(const exp::ExperimentGrid& grid, const exp::CellSpec& spec) {
  return spec.app_override ? *spec.app_override : grid.apps[spec.app_i].app;
}

double time_write_csv(Tracer* tracer, const exp::SweepResult& sweep,
                      const exp::ReportOptions& options, std::string* csv) {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    std::ostringstream os;
    const auto t0 = Clock::now();
    {
      Span span(tracer, "exp::write_csv");
      exp::write_csv(os, sweep, options);
    }
    samples.push_back(seconds_since(t0));
    if (csv != nullptr) *csv = os.str();
  }
  return median(samples);
}

// ── paper-p16 ────────────────────────────────────────────────────────────

/// The paper's own traffic: Fig. 6 (MXM) and Fig. 8 (TRFD) grids at P = 16,
/// all five strategies, as one sweep on an exp::Pool.
class PaperP16 final : public Workload {
 public:
  explicit PaperP16(const RunOptions& options) : options_(options) {}

  Rep run(Tracer* tracer) override {
    Rep rep;
    const auto t0 = Clock::now();
    State s = setup(tracer);
    rep.setup_s = seconds_since(t0);

    const std::size_t n = s.grid.cell_count();
    std::vector<exp::CellResult> cells(n);
    std::vector<std::string> errors(n);
    const auto t1 = Clock::now();
    {
      Span sweep(tracer, "exp::sweep");
      const int parent = sweep.id();
      for (std::size_t i = 0; i < n; ++i) {
        s.pool->submit([&s, &cells, &errors, tracer, parent, i] {
          try {
            Span span(tracer, "exp::Runner::run_cell", parent);
            const std::uint64_t live = arena_live();
            cells[i] = exp::Runner::run_cell(s.grid, i, s.pool.get());
            if (arena_live() != live) errors[i] = "frame arena did not return to its pre-run size";
          } catch (const std::exception& e) {
            errors[i] = e.what();
          } catch (...) {
            errors[i] = "unknown exception";
          }
        });
      }
      s.pool->wait();
    }
    rep.wall_s = seconds_since(t1);

    Digest digest;
    for (std::size_t i = 0; i < n; ++i) {
      ++rep.attempted;
      std::string err = errors[i];
      if (err.empty()) err = check_run(cells[i].result, app_of(s.grid, cells[i].spec));
      if (!err.empty()) {
        fail(rep, "cell " + std::to_string(i) + ": " + err);
      } else {
        ++rep.cells;
        rep.jobs += cells[i].result.loops.size();
      }
      rep.cell_s.push_back(cells[i].wall_seconds);
      digest.add_cell(cells[i].result);
    }
    rep.digest = digest.value();
    last_.cells = std::move(cells);
    last_.wall_seconds = rep.wall_s;
    last_.threads = options_.threads;
    return rep;
  }

  double setup_only(Tracer* tracer) override {
    const auto t0 = Clock::now();
    const State s = setup(tracer);
    return seconds_since(t0);  // read before s is torn down
  }

  LayerPass layers(Tracer* tracer, const Rep& measured) override {
    LayerPass pass;
    pass.threads = options_.threads;
    const exp::ExperimentGrid grid = paper_grid(options_.seed);

    // Single-thread baseline through the public sweep entry point; it must
    // reproduce the pooled sweep bit for bit.
    exp::SweepResult serial;
    {
      Span span(tracer, "exp::Runner::run");
      exp::RunnerOptions ro;
      ro.threads = 1;
      serial = exp::Runner(ro).run(grid);
    }
    pass.serial_wall_s = serial.wall_seconds;
    Digest serial_digest;
    for (const auto& c : serial.cells) serial_digest.add_cell(c.result);
    ++pass.attempted;
    if (serial_digest.value() != measured.digest) {
      fail(pass, "1-thread sweep differs from the pooled sweep");
    }

    // Counter pass: the same cells built and run directly, so the engine and
    // network accessors are reachable.
    Digest direct_digest;
    for (std::size_t i = 0; i < grid.cell_count(); ++i) {
      const exp::CellSpec spec = grid.cell(i);
      const auto t0 = Clock::now();
      std::unique_ptr<cluster::Cluster> c;
      {
        Span span(tracer, "cluster::Cluster");
        c = std::make_unique<cluster::Cluster>(spec.params);
      }
      pass.build_s.push_back(seconds_since(t0));
      std::unique_ptr<core::Runtime> runtime;
      {
        Span span(tracer, "core::Runtime");
        runtime = std::make_unique<core::Runtime>(*c, app_of(grid, spec), spec.config);
      }
      const auto t1 = Clock::now();
      core::RunResult r;
      {
        Span span(tracer, "core::Runtime::run");
        r = runtime->run();
      }
      pass.core_run_s += seconds_since(t1);
      read_cluster(*c, pass.counters);
      read_result(r, pass.counters);
      direct_digest.add_cell(r);
    }
    ++pass.attempted;
    if (direct_digest.value() != measured.digest) {
      fail(pass, "direct Cluster/Runtime pass differs from the sweep");
    }

    std::string pooled_csv;
    std::string serial_csv;
    pass.report_s = time_write_csv(tracer, last_, {}, &pooled_csv);
    (void)time_write_csv(nullptr, serial, {}, &serial_csv);
    ++pass.attempted;
    if (pooled_csv != serial_csv) fail(pass, "CSV report differs between 1 and N threads");
    return pass;
  }

 private:
  struct State {
    std::unique_ptr<exp::Pool> pool;
    net::CollectiveCosts costs;
    exp::ExperimentGrid grid;
  };

  State setup(Tracer* tracer) const {
    State s;
    {
      Span span(tracer, "exp::Pool");
      s.pool = std::make_unique<exp::Pool>(options_.threads);
    }
    s.costs = characterize_network(tracer, net::EthernetParams{});
    s.grid = paper_grid(options_.seed);
    return s;
  }

  RunOptions options_;
  exp::SweepResult last_;
};

// ── gc-2k and stencil-16k: one Runtime run on one large cluster ──────────

struct CellSetup {
  std::string name;
  cluster::ClusterParams params;
  core::AppDescriptor app;
  core::DlbConfig config;
  bool use_pool = false;  // shard windows on an exp::Pool
};

class SingleCell final : public Workload {
 public:
  SingleCell(const RunOptions& options, CellSetup cell)
      : options_(options), cell_(std::move(cell)) {}

  Rep run(Tracer* tracer) override { return run_with(tracer, cell_.params.engine_shards); }

  double setup_only(Tracer* tracer) override {
    const auto t0 = Clock::now();
    const State s = setup(tracer, cell_.params.engine_shards);
    return seconds_since(t0);  // read before s is torn down
  }

  LayerPass layers(Tracer* tracer, const Rep& measured) override {
    LayerPass pass;
    pass.counters = measured.counters;
    pass.core_run_s = measured.core_run_s;
    pass.build_s = measured.build_s;
    pass.threads = cell_.use_pool ? options_.threads : 1;
    pass.switched = cell_.params.topology == net::TopologyKind::kSwitched;
    // Under a DLB protocol a mailbox can hold messages from all P-1 peers
    // (GC multicasts interrupts and outcomes); a NoDLB ring holds at most one.
    pass.mailbox_fanin =
        cell_.config.strategy == core::Strategy::kNoDlb ? 1 : cell_.params.procs;
    if (cell_.params.engine_shards > 1) {
      // Single-shard baseline: identical results, one thread.
      const Rep one = run_with(tracer, 1);
      pass.attempted += one.attempted;
      pass.failed += one.failed;
      if (!one.first_error.empty()) pass.first_error = one.first_error;
      ++pass.attempted;
      if (one.digest != measured.digest) fail(pass, "shards=1 run differs from the sharded run");
      pass.serial_wall_s = one.wall_s;
      pass.sharded = true;
    } else {
      pass.serial_wall_s = measured.wall_s;  // already one thread, one shard
    }
    exp::SweepResult sweep;
    sweep.cells.push_back(last_);
    sweep.wall_seconds = measured.wall_s;
    exp::ReportOptions ro;
    ro.include_topology = true;
    pass.report_s = time_write_csv(tracer, sweep, ro, nullptr);
    return pass;
  }

 private:
  struct State {
    std::unique_ptr<exp::Pool> pool;
    net::CollectiveCosts costs;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<exp::PoolShardExecutor> executor;
    std::unique_ptr<core::Runtime> runtime;  // declared last: destroyed first
    double build_s = 0.0;
  };

  State setup(Tracer* tracer, int shards) const {
    State s;
    if (cell_.use_pool) {
      Span span(tracer, "exp::Pool");
      s.pool = std::make_unique<exp::Pool>(options_.threads);
    }
    s.costs = characterize_network(tracer, cell_.params.network);
    cluster::ClusterParams params = cell_.params;
    params.engine_shards = shards;
    const auto t0 = Clock::now();
    {
      Span span(tracer, "cluster::Cluster");
      s.cluster = std::make_unique<cluster::Cluster>(params);
    }
    s.build_s = seconds_since(t0);
    if (s.pool && s.cluster->engine().is_sharded()) {
      s.executor = std::make_unique<exp::PoolShardExecutor>(*s.pool);
      s.cluster->engine().set_executor(s.executor.get());
    }
    {
      Span span(tracer, "core::Runtime");
      s.runtime = std::make_unique<core::Runtime>(*s.cluster, cell_.app, cell_.config);
    }
    return s;
  }

  Rep run_with(Tracer* tracer, int shards) {
    Rep rep;
    const auto t0 = Clock::now();
    State s = setup(tracer, shards);
    rep.setup_s = seconds_since(t0);
    rep.build_s.push_back(s.build_s);

    ++rep.attempted;
    core::RunResult r;
    std::string err;
    const std::uint64_t live = arena_live();
    const auto t1 = Clock::now();
    try {
      Span span(tracer, "core::Runtime::run");
      r = s.runtime->run();
    } catch (const std::exception& e) {
      err = e.what();
    } catch (...) {
      err = "unknown exception";
    }
    rep.wall_s = seconds_since(t1);
    rep.core_run_s = rep.wall_s;
    if (err.empty() && arena_live() != live) err = "frame arena did not return to its pre-run size";
    if (err.empty()) err = check_run(r, cell_.app);
    if (!err.empty()) {
      fail(rep, err);
    } else {
      ++rep.cells;
      rep.jobs += r.loops.size();
    }
    rep.cell_s.push_back(rep.wall_s);
    read_cluster(*s.cluster, rep.counters);
    read_result(r, rep.counters);
    Digest digest;
    digest.add_cell(r);
    rep.digest = digest.value();

    last_ = exp::CellResult{};
    last_.spec.app_name = cell_.name;
    last_.spec.params = cell_.params;
    last_.spec.config = cell_.config;
    last_.result = std::move(r);
    last_.wall_seconds = rep.wall_s;
    return rep;
  }

  RunOptions options_;
  CellSetup cell_;
  exp::CellResult last_;
};

/// One cell of the --figure=scale weak app at P = 2048 on switched racks of
/// 32: GCDLB, unsharded, one thread.
CellSetup gc_2k(std::uint64_t seed) {
  const exp::ExperimentGrid grid = scale_grid(seed);
  const exp::CellSpec spec = grid.cell(0);
  CellSetup cell;
  cell.name = spec.app_name;
  cell.params = spec.params;
  cell.app = app_of(grid, spec);
  cell.config = spec.config;
  return cell;
}

/// apps::make_stencil at P = 16384 (64 iterations per processor, 50k ops, a
/// 256 B ring send per iteration), switched, NoDLB, 4 engine shards whose
/// windows run on a 4-thread exp::Pool.
CellSetup stencil_16k(std::uint64_t seed, int threads) {
  CellSetup cell;
  cell.name = "stencil[P=16384]";
  cell.params = stencil_params(seed, threads);
  cell.app = stencil_app(64);
  cell.config.strategy = core::Strategy::kNoDlb;
  cell.use_pool = true;
  return cell;
}

// ── svc-sim ──────────────────────────────────────────────────────────────

/// Service mode on the sim backend: each stream is one persistent P = 16
/// cluster serving a bursty job stream through core::StreamRuntime, with
/// online re-customization.  The streams run on an exp::Pool, as the
/// service grid of dlb_sweep does.
class SvcSim final : public Workload {
 public:
  explicit SvcSim(const RunOptions& options) : options_(options) {}

  Rep run(Tracer* tracer) override {
    Rep rep;
    const auto t0 = Clock::now();
    State s = setup(tracer);
    rep.setup_s = seconds_since(t0);

    const std::size_t n = s.cells.size();
    std::vector<svc::ServiceReport> reports(n);
    std::vector<std::string> errors(n);
    std::vector<double> walls(n);
    const auto t1 = Clock::now();
    {
      Span sweep(tracer, "svc::streams");
      const int parent = sweep.id();
      for (std::size_t i = 0; i < n; ++i) {
        s.pool->submit([&s, &reports, &errors, &walls, tracer, parent, i] {
          const auto c0 = Clock::now();
          try {
            Span span(tracer, "svc::run_service", parent);
            const std::uint64_t live = arena_live();
            reports[i] = svc::run_service(s.cells[i].params, service_config(s.cells[i]),
                                          *s.cells[i].service, s.costs);
            if (arena_live() != live) errors[i] = "frame arena did not return to its pre-run size";
          } catch (const std::exception& e) {
            errors[i] = e.what();
          } catch (...) {
            errors[i] = "unknown exception";
          }
          walls[i] = seconds_since(c0);
        });
      }
      s.pool->wait();
    }
    rep.wall_s = seconds_since(t1);
    rep.cell_s = walls;

    Digest digest;
    last_ = exp::SweepResult{};
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      const svc::ServiceReport& r = reports[i];
      ++rep.attempted;
      std::string err = errors[i];
      if (err.empty()) err = check_report(r, *s.cells[i].service);
      if (!err.empty()) {
        fail(rep, "stream " + std::to_string(i) + ": " + err);
      } else {
        ++rep.cells;
        rep.jobs += r.jobs;
      }
      digest.add_stream(r);

      exp::CellResult cell;
      cell.spec = s.cells[i];
      cell.result.app_name = cell.spec.app_name;
      cell.result.strategy_name = "online";
      cell.result.exec_seconds = r.horizon_seconds;
      cell.result.messages = r.messages;
      cell.result.bytes = r.bytes;
      cell.service = r;
      cell.wall_seconds = rep.cell_s[i];
      last_.cells.push_back(std::move(cell));
    }
    rep.digest = digest.value();
    last_.wall_seconds = rep.wall_s;
    return rep;
  }

  double setup_only(Tracer* tracer) override {
    const auto t0 = Clock::now();
    const State s = setup(tracer);
    return seconds_since(t0);  // read before s is torn down
  }

  LayerPass layers(Tracer* tracer, const Rep& measured) override {
    LayerPass pass;
    pass.threads = options_.threads;
    const std::vector<exp::CellSpec> cells = streams(options_.seed);
    const net::CollectiveCosts costs = characterize_network(nullptr, cells.front().params.network);
    // One-thread baseline: the same streams one after another.
    Digest serial;
    const auto t0 = Clock::now();
    for (const exp::CellSpec& cell : cells) {
      Span span(tracer, "svc::run_service");
      serial.add_stream(svc::run_service(cell.params, service_config(cell), *cell.service, costs));
    }
    pass.serial_wall_s = seconds_since(t0);
    ++pass.attempted;
    if (serial.value() != measured.digest) fail(pass, "serial streams differ from the pooled run");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ++pass.attempted;
      const std::string err = replay(tracer, cells[i], costs, *last_.cells[i].service, pass);
      if (!err.empty()) fail(pass, "stream " + std::to_string(i) + ": " + err);
    }
    exp::ReportOptions ro;
    ro.include_service = true;
    pass.report_s = time_write_csv(tracer, last_, ro, nullptr);
    return pass;
  }

 private:
  struct State {
    std::unique_ptr<exp::Pool> pool;
    net::CollectiveCosts costs;
    std::vector<exp::CellSpec> cells;
  };

  State setup(Tracer* tracer) const {
    State s;
    {
      Span span(tracer, "exp::Pool");
      s.pool = std::make_unique<exp::Pool>(options_.threads);
    }
    s.cells = streams(options_.seed);
    s.costs = characterize_network(tracer, s.cells.front().params.network);
    return s;
  }

  static std::vector<exp::CellSpec> streams(std::uint64_t seed) {
    const exp::ExperimentGrid grid = service_grid(seed);
    std::vector<exp::CellSpec> cells;
    for (std::size_t i = 0; i < grid.cell_count(); ++i) cells.push_back(grid.cell(i));
    return cells;
  }

  static std::string check_report(const svc::ServiceReport& r, const svc::ServiceParams& sp) {
    std::uint64_t served = 0;
    for (const std::uint64_t n : r.jobs_per_strategy) served += n;
    if (r.jobs != sp.jobs || served != sp.jobs) return "service stream lost or duplicated jobs";
    if (!(r.p50_sojourn_seconds > 0.0) || !(r.p50_sojourn_seconds <= r.p99_sojourn_seconds) ||
        !(r.p99_sojourn_seconds <= r.p999_sojourn_seconds) ||
        !std::isfinite(r.p999_sojourn_seconds)) {
      return "sojourn percentiles out of order";
    }
    if (r.messages == 0) return "sim backend sent no messages";
    return {};
  }

  /// Replays one stream job by job through core::StreamRuntime (the loop
  /// svc::run_service runs inside), so the persistent cluster's engine and
  /// network counters are reachable.  It must reproduce the report exactly.
  static std::string replay(Tracer* tracer, const exp::CellSpec& spec,
                            const net::CollectiveCosts& costs, const svc::ServiceReport& report,
                            LayerPass& pass) {
    const svc::ServiceParams& sp = *spec.service;
    const core::DlbConfig config = service_config(spec);
    std::vector<std::vector<std::array<double, 5>>> table;
    {
      Span span(tracer, "svc::predicted_service_table");
      table = svc::predicted_service_table(spec.params, config, sp.mix, costs, sp.load_variants);
    }
    const double rate = sp.rho / svc::mean_best_service_seconds(table, sp.mix);
    svc::ArrivalGenerator generator(sp.arrival, sp.mix, rate, sp.load_variants, spec.params.seed);
    decision::OnlineSelector selector(sp.hysteresis);

    cluster::ClusterParams pc = spec.params;
    pc.load.max_load = sp.mix.classes.front().max_load;
    pc.load.persistence = sim::from_seconds(sp.mix.classes.front().tl_seconds);
    pc.external_load = pc.load.max_load > 0;
    const auto t0 = Clock::now();
    std::unique_ptr<cluster::Cluster> c;
    {
      Span span(tracer, "cluster::Cluster");
      c = std::make_unique<cluster::Cluster>(pc);
    }
    pass.build_s.push_back(seconds_since(t0));
    core::DlbConfig stream_config = config;
    stream_config.strategy = core::Strategy::kNoDlb;
    core::StreamRuntime stream(*c, stream_config);
    std::vector<core::LoopDescriptor> loops;
    for (const auto& cls : sp.mix.classes) loops.push_back(cls.loop());

    std::string err;
    std::vector<double> sojourns;
    sojourns.reserve(sp.jobs);
    for (std::uint64_t j = 0; j < sp.jobs; ++j) {
      const svc::Job job = generator.next();
      const auto& makespans = table[static_cast<std::size_t>(job.class_index)]
                                   [static_cast<std::size_t>(job.load_variant)];
      const core::Strategy chosen =
          sp.online ? selector.decide(std::span<const double>(makespans.data(),
                                                              core::kRankedStrategyCount))
                    : sp.strategy;
      const sim::SimTime arrival = sim::from_seconds(job.arrival_seconds);
      stream.advance_to(arrival);
      const core::LoopDescriptor& loop = loops[static_cast<std::size_t>(job.class_index)];
      const auto t1 = Clock::now();
      core::LoopRunStats stats;
      {
        Span span(tracer, "core::StreamRuntime::run_loop");
        stats = stream.run_loop(loop, chosen);
      }
      pass.core_run_s += seconds_since(t1);
      if (err.empty()) err = check_loop(stats, loop);
      pass.counters.syncs += stats.syncs;
      pass.counters.redistributions += stats.redistributions;
      pass.counters.iters_moved += static_cast<double>(stats.iterations_moved);
      sojourns.push_back(sim::to_seconds(stream.now() - arrival));
    }
    read_cluster(*c, pass.counters);
    pass.counters.switches += static_cast<double>(selector.switches());
    pass.counters.svc_msgs += static_cast<double>(c->network().messages_sent());
    if (!err.empty()) return err;
    if (support::percentile_nearest_rank(sojourns, 0.99) != report.p99_sojourn_seconds ||
        selector.switches() != report.strategy_switches ||
        c->network().messages_sent() != report.messages) {
      return "StreamRuntime replay differs from svc::run_service";
    }
    return {};
  }

  RunOptions options_;
  exp::SweepResult last_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper-p16", "gc-2k", "stencil-16k", "svc-sim"};
  return names;
}

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "paper-p16") return std::make_unique<PaperP16>(options);
  if (options.workload == "gc-2k") {
    return std::make_unique<SingleCell>(options, gc_2k(options.seed));
  }
  if (options.workload == "stencil-16k") {
    return std::make_unique<SingleCell>(options, stencil_16k(options.seed, options.threads));
  }
  if (options.workload == "svc-sim") return std::make_unique<SvcSim>(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
