#include "emu/emulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/groups.hpp"
#include "core/ownership.hpp"
#include "core/policy.hpp"
#include "emu/channel.hpp"

namespace dlb::emu {

namespace {

constexpr int kTagInterrupt = 1;
constexpr int kTagProfile = 2;
constexpr int kTagWork = 3;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Real spin work standing in for one iteration's computation.
void spin(double ops, int spin_per_op, double slowdown) {
  const auto units = static_cast<std::int64_t>(ops * spin_per_op * slowdown);
  volatile double sink = 1.0;
  for (std::int64_t i = 0; i < units; ++i) {
    sink = sink * 1.0000001 + 0.0000001;
  }
}

struct Shared {
  const core::LoopDescriptor* loop = nullptr;
  core::DlbConfig config;
  EmuParams params;
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::vector<int>> groups;
  std::vector<int> group_of;

  std::mutex stats_mutex;
  int syncs = 0;
  int redistributions = 0;
  std::int64_t moved = 0;

  std::vector<std::int64_t> executed;

  double slowdown(int worker) const {
    return params.slowdowns.empty() ? 1.0
                                    : params.slowdowns[static_cast<std::size_t>(worker)];
  }
};

enum class Outcome { kContinue, kInactive, kLoopDone };

struct WorkerState {
  int self = 0;
  core::IterationSet mine;
  std::vector<int> active;
  int round = 0;
  Clock::time_point window_start = Clock::now();
  std::int64_t done_in_window = 0;
  double last_rate = 0.0;
};

void broadcast(Shared& shared, const WorkerState& st, int tag, const EmuMessage& base) {
  for (const int peer : st.active) {
    if (peer == st.self) continue;
    EmuMessage m = base;
    m.source = st.self;
    m.tag = tag;
    shared.channels[static_cast<std::size_t>(peer)]->deliver(std::move(m));
  }
}

Outcome participate(Shared& shared, WorkerState& st) {
  // Performance metric: iterations per (wall) second since the last sync,
  // with the emulated slowdown as the no-history prior.
  st.last_rate = core::profile_rate(st.done_in_window, seconds_since(st.window_start),
                                    st.last_rate, 1.0 / std::max(shared.slowdown(st.self), 1e-9));

  core::ProfileSnapshot own{st.self, st.mine.size(), st.last_rate, true};
  EmuMessage pm;
  pm.round = st.round;
  pm.snapshot = own;
  broadcast(shared, st, kTagProfile, pm);

  std::vector<core::ProfileSnapshot> profiles{own};
  for (const int peer : st.active) {
    if (peer == st.self) continue;
    const EmuMessage m =
        shared.channels[static_cast<std::size_t>(st.self)]->receive(kTagProfile, peer);
    if (m.round != st.round) throw std::logic_error("emu: profile round mismatch");
    profiles.push_back(m.snapshot);
  }
  std::sort(profiles.begin(), profiles.end(),
            [](const core::ProfileSnapshot& a, const core::ProfileSnapshot& b) {
              return a.proc < b.proc;
            });

  const core::Decision decision = core::decide(profiles, shared.config);

  if (st.self == st.active.front()) {
    const std::lock_guard<std::mutex> lock(shared.stats_mutex);
    ++shared.syncs;
    if (decision.moved) {
      ++shared.redistributions;
      shared.moved += decision.to_move;
    }
  }

  if (decision.total_remaining == 0) return Outcome::kLoopDone;

  if (decision.moved) {
    for (const auto& t : decision.transfers) {
      if (t.from != st.self) continue;
      EmuMessage wm;
      wm.source = st.self;
      wm.tag = kTagWork;
      wm.round = st.round;
      wm.ranges = st.mine.take_back(t.count);
      shared.channels[static_cast<std::size_t>(t.to)]->deliver(std::move(wm));
    }
    for (const auto& t : decision.transfers) {
      if (t.to != st.self) continue;
      const EmuMessage m =
          shared.channels[static_cast<std::size_t>(st.self)]->receive(kTagWork, t.from);
      for (const auto& range : m.ranges) st.mine.add(range);
    }
  }

  st.active = core::remove_inactive(st.active, decision.newly_inactive);
  ++st.round;
  st.window_start = Clock::now();
  st.done_in_window = 0;
  const bool still_active =
      std::find(st.active.begin(), st.active.end(), st.self) != st.active.end();
  return still_active ? Outcome::kContinue : Outcome::kInactive;
}

void dlb_worker(Shared& shared, int self) {
  WorkerState st;
  st.self = self;
  st.mine = core::IterationSet::block_partition(shared.loop->iterations, shared.params.workers,
                                                self);
  st.active = shared.groups[static_cast<std::size_t>(
      shared.group_of[static_cast<std::size_t>(self)])];

  auto& inbox = *shared.channels[static_cast<std::size_t>(self)];
  while (true) {
    if (!st.mine.empty()) {
      bool synced = false;
      Outcome outcome = Outcome::kContinue;
      while (auto m = inbox.try_receive(kTagInterrupt)) {
        if (m->round == st.round) {
          outcome = participate(shared, st);
          synced = true;
          break;
        }
      }
      if (synced) {
        if (outcome != Outcome::kContinue) break;
        continue;
      }
      const std::int64_t index = st.mine.pop_front();
      spin(shared.loop->ops_of(index), shared.params.spin_per_op, shared.slowdown(self));
      ++shared.executed[static_cast<std::size_t>(self)];
      ++st.done_in_window;
    } else {
      EmuMessage im;
      im.round = st.round;
      broadcast(shared, st, kTagInterrupt, im);
      const Outcome outcome = participate(shared, st);
      if (outcome != Outcome::kContinue) break;
    }
  }
}

void static_worker(Shared& shared, int self) {
  auto mine = core::IterationSet::block_partition(shared.loop->iterations,
                                                  shared.params.workers, self);
  while (!mine.empty()) {
    const std::int64_t index = mine.pop_front();
    spin(shared.loop->ops_of(index), shared.params.spin_per_op, shared.slowdown(self));
    ++shared.executed[static_cast<std::size_t>(self)];
  }
}

}  // namespace

EmuResult run_emulated(const EmuParams& params, const core::AppDescriptor& app,
                       const core::DlbConfig& config) {
  app.validate();
  if (app.loops.size() != 1) {
    throw std::invalid_argument("run_emulated: single-loop applications only");
  }
  if (params.workers < 1) throw std::invalid_argument("run_emulated: workers < 1");
  if (!params.slowdowns.empty() &&
      params.slowdowns.size() != static_cast<std::size_t>(params.workers)) {
    throw std::invalid_argument("run_emulated: slowdowns size != workers");
  }
  const bool is_dlb =
      config.strategy == core::Strategy::kGDDLB || config.strategy == core::Strategy::kLDDLB;
  if (!is_dlb && config.strategy != core::Strategy::kNoDlb) {
    throw std::invalid_argument(
        "run_emulated: only kNoDlb, kGDDLB, and kLDDLB run on the live backend");
  }
  config.validate(params.workers);

  Shared shared;
  shared.loop = &app.loops[0];
  shared.config = config;
  shared.params = params;
  shared.executed.assign(static_cast<std::size_t>(params.workers), 0);
  for (int w = 0; w < params.workers; ++w) {
    shared.channels.push_back(std::make_unique<Channel>());
  }
  shared.groups = core::form_groups(params.workers, config);
  shared.group_of.assign(static_cast<std::size_t>(params.workers), 0);
  for (std::size_t g = 0; g < shared.groups.size(); ++g) {
    for (const int w : shared.groups[g]) {
      shared.group_of[static_cast<std::size_t>(w)] = static_cast<int>(g);
    }
  }

  const auto started = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(params.workers));
  for (int w = 0; w < params.workers; ++w) {
    threads.emplace_back([&shared, w, is_dlb] {
      if (is_dlb) {
        dlb_worker(shared, w);
      } else {
        static_worker(shared, w);
      }
    });
  }
  for (auto& t : threads) t.join();

  EmuResult result;
  result.wall_seconds = seconds_since(started);
  result.executed_per_worker = shared.executed;
  result.syncs = shared.syncs;
  result.redistributions = shared.redistributions;
  result.iterations_moved = shared.moved;

  std::int64_t executed_total = 0;
  for (const auto n : shared.executed) executed_total += n;
  if (executed_total != app.loops[0].iterations) {
    throw std::logic_error("run_emulated: iterations executed != scheduled");
  }
  return result;
}

}  // namespace dlb::emu
