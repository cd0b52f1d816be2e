#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/ownership.hpp"
#include "core/policy.hpp"
#include "core/run_stats.hpp"
#include "core/types.hpp"
#include "obs/recorder.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dlb::core {

/// Message tags of the DLB wire protocol (the paper's run-time library).
inline constexpr int kTagInterrupt = 100;  // finisher -> active peers
inline constexpr int kTagProfile = 101;    // slave -> balancer(s)
inline constexpr int kTagOutcome = 102;    // central balancer -> group
inline constexpr int kTagWork = 103;       // work shipment between slaves
inline constexpr int kTagPhaseData = 104;  // sequential-phase gather
inline constexpr int kTagPhaseScatter = 105;
inline constexpr int kTagIntrinsic = 106;  // per-iteration algorithm traffic (IC)

/// Interrupt: "I am out of work; synchronize" (§3.1).
struct InterruptMsg {
  int round = 0;
  int group = 0;
};

/// Performance profile (§3.2): iterations/second since the last sync point
/// plus the remaining iterations.
struct ProfileMsg {
  int round = 0;
  int group = 0;
  ProfileSnapshot snapshot;
};

/// The central balancer's verdict for a round, broadcast to the group.  In
/// the distributed strategies every processor derives the same information
/// locally, so no such message exists there.
struct OutcomeMsg {
  int round = 0;
  int group = 0;
  bool loop_done = false;
  bool moved = false;
  std::vector<Transfer> transfers;
  std::vector<int> active_after;  // group members still active next round
};

/// A work shipment: the migrated iteration ranges.
struct WorkMsg {
  int round = 0;
  std::vector<IterRange> ranges;
};

/// Slave-local synchronization state, living in the slave coroutine frame:
/// the round and member set the slave believes current, and the window the
/// profile metric is measured over.  The FT slave extends it with its
/// failure-handling fields.
struct SlaveState {
  int round = 0;
  std::vector<int> active;  // active processors of my group, ascending
  sim::SimTime window_start = 0;
  std::int64_t done_in_window = 0;
  double last_rate = 0.0;

  /// Enters round `next` with `members` active and restarts the profile
  /// window at `now`.  Returns whether `self` is still a member.
  bool open_round(int next, std::vector<int> members, int self, sim::SimTime now);
};

/// Shared state of one load-balanced loop execution.  Owned by the loop
/// runner (run_plain_loop, run_ft_loop); every protocol process holds a
/// reference.  Single-threaded simulation
/// makes plain member access safe.
struct LoopContext {
  const LoopDescriptor* loop = nullptr;
  DlbConfig config;
  cluster::Cluster* cluster = nullptr;
  /// K-block groups; global strategies use one group of P.
  std::vector<std::vector<int>> groups;
  std::vector<int> group_of;  // proc id -> group index
  bool centralized = false;
  int balancer_proc = 0;

  // Per-processor runtime state.
  std::vector<IterationSet> owned;
  std::vector<std::int64_t> executed;
  std::vector<sim::SimTime> finished_at;

  /// Mean work of one iteration in ops, at least 1 — the denominator of
  /// the no-history rate prior, computed once per loop.
  double prior_ops = 1.0;

  LoopRunStats stats;
  /// True when the cluster's engine is sharded.  Sync events are then staged
  /// per group — exactly one actor records a given group's round, so each
  /// inner vector has a single writer — and merged canonically (by time,
  /// group, round) into `stats.events` at loop end; pushing straight to the
  /// shared vector would race across shard workers.  Unsharded runs keep the
  /// direct push, byte-identical to before sharding existed.
  bool sharded = false;
  std::vector<std::vector<SyncEvent>> events_by_group;
  /// The run's recorder (owned by the Runtime); null unless
  /// DlbConfig::observe or DlbConfig::record_trace.
  obs::Recorder* obs = nullptr;

  [[nodiscard]] int procs() const { return cluster->size(); }
  /// Base rate in ops/sec (for rate priors).
  [[nodiscard]] double base_rate() const { return cluster->params().base_ops_per_sec; }

  /// Builds the context for one loop under `config` on `cluster`: equal
  /// initial block partition, groups per strategy.
  static LoopContext make(const LoopDescriptor& loop, const DlbConfig& config,
                          cluster::Cluster& cluster);
};

/// Profile of `self` for the round that `st` is closing: the iteration rate
/// over the window (core::profile_rate, with a bare-speed prior) and the
/// iterations it still owns.
[[nodiscard]] ProfileSnapshot make_snapshot(LoopContext& ctx, int self, SlaveState& st);

/// Appends the statistics record of one decided round.
void record_event(LoopContext& ctx, int group, int round, int initiator, const Decision& d);

/// The body of one iteration: the computation, then — unless the station
/// powered off meanwhile — the intrinsic communication to the ring
/// neighbour (IC, §4.1) and the unpack cost of inbound intrinsic traffic
/// that accumulated since the last gap.  Every slave runs it; the caller
/// does its own bookkeeping and then calls count_iteration.
[[nodiscard]] sim::Task<void> iteration_body(LoopContext& ctx, int self, std::int64_t index);

/// Counts one executed iteration of `self` that began at `began`, and
/// records its compute slice.
void count_iteration(LoopContext& ctx, int self, sim::SimTime began);

/// Recording hooks shared by the plain and FT slaves; each is a no-op for
/// a null recorder.  A shipment that took no time is not recorded.
/// sample_engine_health samples the event-queue depth and the arena
/// occupancy at a synchronization entry: sync points are where queue
/// pressure peaks (every member wakes at once), and they are deterministic
/// in virtual time, unlike any wall-clock cadence.
void sample_engine_health(LoopContext& ctx);
void record_interrupt(LoopContext& ctx, int self, int round);
void record_sync(LoopContext& ctx, int self, sim::SimTime began, int round);
void record_profile(LoopContext& ctx, int self, sim::SimTime began, int round);
void record_shipment(LoopContext& ctx, int self, sim::SimTime began, std::int64_t iterations);

/// Folds a finished loop's context into its statistics: per-processor
/// executed counts and finish times, the sync-event tallies, and the
/// canonical merge of per-group staged events on a sharded engine.
/// `finish_seconds` is the loop's makespan end.
[[nodiscard]] LoopRunStats finish_loop(LoopContext& ctx, double finish_seconds);

/// Runs one loop fault-free under `config`: spawns the strategy's processes
/// (each pinned to its station's shard), drains the engine and returns the
/// loop statistics.  Serves both Runtime and StreamRuntime.  Throws
/// std::logic_error unless every iteration executed exactly once.
[[nodiscard]] LoopRunStats run_plain_loop(const LoopDescriptor& loop, const DlbConfig& config,
                                          cluster::Cluster& cluster,
                                          obs::Recorder* obs = nullptr);

/// Sequential inter-loop phase (TRFD's transpose, §6.3): slaves gather their
/// data to the master, the master computes, then scatters.
/// Coroutine parameters are taken by value: the caller's locals may die
/// before the process body resumes, so references would dangle (dlblint
/// coro-ref-param).
[[nodiscard]] sim::Process phase_master(cluster::Cluster& cluster, SequentialPhase phase,
                                        std::vector<double> gather_bytes_per_proc);
[[nodiscard]] sim::Process phase_slave(cluster::Cluster& cluster, SequentialPhase phase, int self,
                                       double gather_bytes);

}  // namespace dlb::core
