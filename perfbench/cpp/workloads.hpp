#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1000;
  int threads = 4;  // exp::Pool width, at most the host's CPU count
};

/// Counts read from the public accessors of the engine, network and run
/// results after a run (summed over cells).  Deterministic for a seed.
struct Counters {
  double events = 0;
  double peak_queue_depth = 0;  // max over cells
  double max_shard_share = 0;   // max over cells of (busiest shard's events / events)
  double msgs = 0;
  double bytes = 0;
  double crossings = 0;
  double syncs = 0;
  double redistributions = 0;
  double iters_moved = 0;
  double switches = 0;  // service strategy switches
  double svc_msgs = 0;  // messages of the service stream's persistent cluster
};

/// One repetition of a workload: set-up, the measured phase, the checks.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;  // operations: cells, or the one service stream
  std::uint64_t failed = 0;
  std::uint64_t cells = 0;
  std::uint64_t jobs = 0;  // loop jobs completed (a cell runs each loop of its app once)
  std::uint64_t digest = 0;
  std::vector<double> cell_s;  // host seconds per cell
  std::string first_error;
  Counters counters;           // filled where the workload can reach its cluster
  double core_run_s = 0.0;     // summed Runtime::run / StreamRuntime::run_loop host time
  std::vector<double> build_s; // Cluster construction host times
};

/// What the traced run learns beyond a repetition: baselines and the
/// per-cell counters of a serial pass.
struct LayerPass {
  Counters counters;
  double core_run_s = 0.0;
  std::vector<double> build_s;
  double serial_wall_s = 0.0;     // the same work on one thread / one shard
  double report_s = 0.0;          // exp::write_csv of the workload's results
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  int mailbox_fanin = 16;         // most messages one mailbox can hold
  bool switched = false;          // topology, for the send-cost gap
  bool sharded = false;           // serial_wall_s is a shards=1 run
  int threads = 1;                // host threads the measured phase used
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Set-up plus the measured phase plus every output check.
  [[nodiscard]] virtual Rep run(Tracer* tracer) = 0;

  /// Set-up alone, torn down unused; returns its host seconds.
  [[nodiscard]] virtual double setup_only(Tracer* tracer) = 0;

  /// Traced-run extras: the single-thread / single-shard baseline, the
  /// counters, the report writer.  `measured` is an untraced repetition.
  [[nodiscard]] virtual LayerPass layers(Tracer* tracer, const Rep& measured) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const RunOptions& options);

}  // namespace perfbench
