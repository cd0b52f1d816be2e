// The workstation CPU as a preemptively shared resource: scheduling quanta,
// fair interleaving between a compute slave and a collocated balancer-like
// coroutine, and the busy() kernel-time primitive.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/workstation.hpp"
#include "load/load_function.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace {

using dlb::cluster::Cluster;
using dlb::cluster::ClusterParams;
using dlb::cluster::Workstation;
using dlb::load::LoadFunction;
using dlb::load::LoadParams;
using dlb::sim::from_seconds;
using dlb::sim::kNsPerMs;
using dlb::sim::Process;
using dlb::sim::SimTime;
using dlb::sim::to_seconds;

ClusterParams one_dedicated(SimTime quantum) {
  ClusterParams p;
  p.procs = 1;
  p.base_ops_per_sec = 1e6;
  p.external_load = false;
  p.cpu_quantum = quantum;
  return p;
}

Process compute_job(Workstation& w, double ops, SimTime* done_at) {
  co_await w.compute(ops);
  *done_at = w.engine().now();
}

Process late_compute_job(Workstation& w, SimTime start, double ops, SimTime* done_at) {
  co_await w.engine().sleep_until(start);
  co_await w.compute(ops);
  *done_at = w.engine().now();
}

/// Scripted external load over 100 ms blocks (the last level persists).
void script_load(Workstation& w, std::vector<int> levels) {
  w.load_function() = LoadFunction(LoadParams{3, from_seconds(0.1)}, std::move(levels));
}

Process busy_job(Workstation& w, SimTime duration, SimTime* done_at) {
  co_await w.busy(duration);
  *done_at = w.engine().now();
}

TEST(WorkstationCpu, TwoComputeJobsTimeshare) {
  // Two 1-second jobs on one CPU: both finish by ~2 s, and the second
  // starts long before the first ends (round-robin quanta), so its finish
  // is ~2 s rather than 1 s + 1 s strictly serialized from its arrival.
  Cluster c(one_dedicated(from_seconds(0.02)));
  SimTime done_a = 0;
  SimTime done_b = 0;
  c.engine().spawn(compute_job(c.station(0), 1e6, &done_a));
  c.engine().spawn(compute_job(c.station(0), 1e6, &done_b));
  c.engine().run();
  EXPECT_NEAR(to_seconds(std::max(done_a, done_b)), 2.0, 0.05);
  // Fairness: both finish within a quantum of each other.
  EXPECT_LE(std::abs(done_a - done_b), from_seconds(0.021));
}

TEST(WorkstationCpu, ShortJobNotStarvedBehindLongJob) {
  // A 10 ms job arriving under a 1 s job must complete in O(quantum), not
  // after the long job — the balancer-next-to-slave scenario.
  Cluster c(one_dedicated(from_seconds(0.02)));
  SimTime long_done = 0;
  SimTime short_done = 0;
  c.engine().spawn(compute_job(c.station(0), 1e6, &long_done));
  c.engine().spawn(compute_job(c.station(0), 10e3, &short_done));
  c.engine().run();
  EXPECT_LT(to_seconds(short_done), 0.1);
  EXPECT_GT(to_seconds(long_done), 1.0);
}

TEST(WorkstationCpu, NonPreemptiveModeHoldsCpu) {
  // quantum = 0 disables preemption: the second job waits for the first.
  Cluster c(one_dedicated(0));
  SimTime long_done = 0;
  SimTime short_done = 0;
  c.engine().spawn(compute_job(c.station(0), 1e6, &long_done));
  c.engine().spawn(compute_job(c.station(0), 10e3, &short_done));
  c.engine().run();
  EXPECT_NEAR(to_seconds(long_done), 1.0, 1e-6);
  EXPECT_NEAR(to_seconds(short_done), 1.01, 1e-6);
}

TEST(WorkstationCpu, QuantumDoesNotChangeTotalWork) {
  for (const SimTime quantum : {SimTime{0}, from_seconds(0.001), from_seconds(0.1)}) {
    Cluster c(one_dedicated(quantum));
    SimTime done = 0;
    c.engine().spawn(compute_job(c.station(0), 2.5e6, &done));
    c.engine().run();
    EXPECT_NEAR(to_seconds(done), 2.5, 1e-6) << "quantum " << quantum;
  }
}

TEST(WorkstationCpu, BusyOccupiesCpuExclusively) {
  Cluster c(one_dedicated(from_seconds(0.02)));
  SimTime busy_done = 0;
  SimTime compute_done = 0;
  c.engine().spawn(busy_job(c.station(0), from_seconds(0.5), &busy_done));
  c.engine().spawn(compute_job(c.station(0), 0.5e6, &compute_done));
  c.engine().run();
  // busy() holds the CPU non-preemptively for its duration.
  EXPECT_NEAR(to_seconds(busy_done), 0.5, 1e-9);
  EXPECT_NEAR(to_seconds(compute_done), 1.0, 1e-6);
}

TEST(WorkstationCpu, BusyZeroIsFree) {
  Cluster c(one_dedicated(from_seconds(0.02)));
  SimTime done = 123;
  c.engine().spawn(busy_job(c.station(0), 0, &done));
  c.engine().run();
  EXPECT_EQ(done, 0);
}

TEST(WorkstationCpu, LoadAppliesWithinQuanta) {
  // Constant load level 1 (slowdown 2): a 1e6-op job takes 2 s regardless
  // of quantum slicing.
  ClusterParams p = one_dedicated(from_seconds(0.02));
  p.external_load = true;
  p.load.max_load = 0;  // level 0 everywhere...
  Cluster zero_load(p);
  SimTime done = 0;
  zero_load.engine().spawn(compute_job(zero_load.station(0), 1e6, &done));
  zero_load.engine().run();
  EXPECT_NEAR(to_seconds(done), 1.0, 1e-6);
}

// ── Exact slice-boundary pins ──────────────────────────────────────────
// Each compute() slice boundary is a quantum end, a load-segment end or the
// finish.  The tests below pin, to the nanosecond, the outcomes that depend
// on where those boundaries fall and on the (time, insertion) order between
// a boundary and another event at the same instant.

TEST(WorkstationCpuExact, WaiterArrivingMidQuantumGetsCpuAtQuantumEnd) {
  Cluster c(one_dedicated(from_seconds(0.02)));
  SimTime long_done = 0;
  SimTime short_done = 0;
  c.engine().spawn(compute_job(c.station(0), 1e5, &long_done));
  c.engine().spawn(late_compute_job(c.station(0), 5 * kNsPerMs, 3e3, &short_done));
  c.engine().run();
  EXPECT_EQ(short_done, 23 * kNsPerMs);
  EXPECT_EQ(long_done, 103 * kNsPerMs);
}

TEST(WorkstationCpuExact, WaiterArrivingExactlyAtQuantumEnd) {
  // The arrival and the holder's quantum end share t = 20 ms; which one the
  // engine runs first follows the order their records were scheduled in.
  {
    // Holder first: its boundary precedes the arrival, finds the CPU
    // uncontended, and starts a second quantum.
    Cluster c(one_dedicated(from_seconds(0.02)));
    SimTime long_done = 0;
    SimTime short_done = 0;
    c.engine().spawn(compute_job(c.station(0), 1e5, &long_done));
    c.engine().spawn(late_compute_job(c.station(0), 20 * kNsPerMs, 3e3, &short_done));
    c.engine().run();
    EXPECT_EQ(short_done, 43 * kNsPerMs);
    EXPECT_EQ(long_done, 103 * kNsPerMs);
  }
  {
    // Arrival first: it queues for the CPU, so the boundary yields to it.
    Cluster c(one_dedicated(from_seconds(0.02)));
    SimTime long_done = 0;
    SimTime short_done = 0;
    c.engine().spawn(late_compute_job(c.station(0), 20 * kNsPerMs, 3e3, &short_done));
    c.engine().spawn(compute_job(c.station(0), 1e5, &long_done));
    c.engine().run();
    EXPECT_EQ(short_done, 23 * kNsPerMs);
    EXPECT_EQ(long_done, 103 * kNsPerMs);
  }
}

TEST(WorkstationCpuExact, PowerOffMidSliceStopsAtTheNextBoundary) {
  Cluster c(one_dedicated(from_seconds(0.02)));
  Workstation& w = c.station(0);
  SimTime done = 0;
  c.engine().spawn(compute_job(w, 1e6, &done));
  c.engine().schedule_at(30 * kNsPerMs, [&w] { w.power_off(); });
  c.engine().run();
  EXPECT_EQ(done, 40 * kNsPerMs);
  EXPECT_EQ(w.ops_executed(), 0.0);
}

TEST(WorkstationCpuExact, PowerOnBeforeTheNextBoundaryLeavesComputeUntouched) {
  Cluster c(one_dedicated(from_seconds(0.02)));
  Workstation& w = c.station(0);
  SimTime done = 0;
  c.engine().spawn(compute_job(w, 1e6, &done));
  c.engine().schedule_at(30 * kNsPerMs, [&w] { w.power_off(); });
  c.engine().schedule_at(35 * kNsPerMs, [&w] { w.power_on(); });
  c.engine().run();
  EXPECT_EQ(done, 1000 * kNsPerMs);
  EXPECT_EQ(w.ops_executed(), 1e6);
}

TEST(WorkstationCpuExact, LoadSegmentEndsOnQuantumEnds) {
  // Load levels 0, 1, 3 over 100 ms blocks: every block edge is also a
  // quantum end.  A second job arrives exactly on the first edge.
  Cluster c(one_dedicated(from_seconds(0.02)));
  Workstation& w = c.station(0);
  script_load(w, {0, 1, 3});
  SimTime long_done = 0;
  SimTime short_done = 0;
  c.engine().spawn(compute_job(w, 2e5, &long_done));
  c.engine().spawn(late_compute_job(w, 100 * kNsPerMs, 1.5e4, &short_done));
  c.engine().run();
  EXPECT_EQ(short_done, 150 * kNsPerMs);
  EXPECT_EQ(long_done, 460 * kNsPerMs);
}

TEST(WorkstationCpuExact, FinishRoundingOntoTheQuantumEndIsAFinish) {
  // 1e-7 ops past one quantum's worth rounds onto t = 20 ms: one slice.
  Cluster c(one_dedicated(from_seconds(0.02)));
  SimTime done = -1;
  c.engine().spawn(compute_job(c.station(0), 20000.0000001, &done));
  c.engine().run();
  EXPECT_EQ(done, 20 * kNsPerMs);
}

TEST(WorkstationCpuExact, ZeroLengthResidualFinishesWithoutAnotherSlice) {
  // Load 3 then 0 over 100 ms blocks: 3e-4 ops past the first block's
  // worth still needs 1.2 ns at load 3, so the block edge cuts the work;
  // at load 0 the residual rounds to a 0 ns slice.
  {
    Cluster c(one_dedicated(from_seconds(0.02)));
    script_load(c.station(0), {3, 0});
    SimTime done = -1;
    c.engine().spawn(compute_job(c.station(0), 2.5e4 + 3e-4, &done));
    c.engine().run();
    EXPECT_EQ(done, 100 * kNsPerMs);
  }
  {
    // Contended: a job queued for the CPU at the edge runs first, and the
    // residual finishes when the CPU comes back.
    Cluster c(one_dedicated(from_seconds(0.02)));
    script_load(c.station(0), {3, 0});
    SimTime done = -1;
    SimTime other_done = -1;
    c.engine().spawn(late_compute_job(c.station(0), 100 * kNsPerMs, 1e3, &other_done));
    c.engine().spawn(compute_job(c.station(0), 2.5e4 + 3e-4, &done));
    c.engine().run();
    EXPECT_EQ(other_done, 101 * kNsPerMs);
    EXPECT_EQ(done, 101 * kNsPerMs);
  }
  {
    // Work too small for one nanosecond finishes at once.
    Cluster c(one_dedicated(from_seconds(0.02)));
    SimTime done = -1;
    c.engine().spawn(compute_job(c.station(0), 1e-4, &done));
    c.engine().run();
    EXPECT_EQ(done, 0);
    EXPECT_EQ(c.station(0).ops_executed(), 1e-4);
  }
}

Process compute_then_send(Workstation& w, double ops, int dst) {
  co_await w.compute(ops);
  co_await w.send(dst, 7, w.id(), 1000);
}

Process receive_two(Workstation& w, std::vector<int>* sources, std::vector<SimTime>* times) {
  for (int i = 0; i < 2; ++i) {
    const auto message = co_await w.receive(7);
    sources->push_back(message.source);
    times->push_back(w.engine().now());
  }
}

TEST(WorkstationCpuExact, TiedFinishesOrderTheSharedMedium) {
  // Stations 3 and 1 finish identical computes at the same nanosecond
  // (t = 0.64 s, 32 quanta in); the order of their follow-up sends on the
  // shared Ethernet — and so both arrival times — follows the order of
  // their final slice boundaries.
  ClusterParams p = one_dedicated(from_seconds(0.02));
  p.procs = 4;
  Cluster c(p);
  std::vector<int> sources;
  std::vector<SimTime> times;
  c.engine().spawn(receive_two(c.station(0), &sources, &times));
  c.engine().spawn(compute_then_send(c.station(3), 0.64e6, 0));
  c.engine().spawn(compute_then_send(c.station(1), 0.64e6, 0));
  c.engine().run();
  EXPECT_EQ(sources, (std::vector<int>{3, 1}));
  EXPECT_EQ(times, (std::vector<SimTime>{643456167, 644897834}));
}

}  // namespace
