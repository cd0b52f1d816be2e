#include "core/ft_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/ownership.hpp"
#include "core/policy.hpp"
#include "core/protocol.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace dlb::core {

namespace {

// ---------------------------------------------------------------------------
// Wire messages.  Interrupts, profiles and outcomes are the fault-free
// protocol's own types (protocol.hpp) on the FT tag blocks; only the acked
// shipment, its ack and the heartbeat are FT-only.
// ---------------------------------------------------------------------------

struct FtWorkMsg {
  std::uint64_t ship = 0;
  int round = 0;
  int group = 0;
  std::vector<IterRange> ranges;
};

struct FtAckMsg {
  std::uint64_t ship = 0;
  int group = 0;
};

struct FtHeartbeatMsg {
  int group = 0;
};

enum class FtStatus { kContinue, kInactive, kLoopDone, kDead };

// ---------------------------------------------------------------------------
// Shared simulation-side state of one fault-tolerant loop execution.
// ---------------------------------------------------------------------------

/// An in-flight work shipment.  The entry is created by the sender at
/// take_back time and removed by the receiver when it folds the ranges into
/// its owned set — so at any instant, every iteration is in exactly one of:
/// somebody's owned set, the coverage ledger, a shipment, or a lost pool.
struct FtShipment {
  std::uint64_t id = 0;
  int from = 0;
  int to = 0;
  int group = 0;
  int round = 0;
  std::vector<IterRange> ranges;
};

struct FtState {
  LoopContext* ctx = nullptr;
  fault::FaultInjector* injector = nullptr;
  fault::CoverageChecker coverage;
  int loop_index = 0;
  /// Group that owns each iteration index (fixed by the initial partition).
  std::vector<int> group_of_iter;

  sim::SimTime ack_timeout = 0;
  sim::SimTime hb_period = 0;
  sim::SimTime hb_timeout = 0;
  int max_retries = 3;
  double backoff = 2.0;

  std::vector<FtShipment> ledger;
  std::uint64_t next_ship = 1;

  // Per-group authoritative state (single-threaded simulation: the
  // coordinator of the moment writes, everyone reads).
  std::vector<IterationSet> lost;  // dead members' work awaiting reclaim
  std::vector<int> round;
  std::vector<std::vector<int>> active;
  std::vector<char> done;
  std::vector<std::optional<OutcomeMsg>> last_outcome;
  std::vector<std::int64_t> group_iters;
  std::vector<std::int64_t> group_covered;
  std::size_t groups_done = 0;

  // Centralized strategies: which station hosts the balancer, and whether an
  // incarnation of it is currently running (failover dedup flag).
  int balancer = 0;
  bool balancer_live = false;

  std::vector<std::vector<sim::SimTime>> last_heard;  // [observer][peer]
  std::vector<std::unique_ptr<sim::CancellableSleep>> hb_sleep;
  /// Iteration each proc has popped but not yet recorded; -1 when none.  A
  /// crash between pop and record would otherwise silently lose that index.
  std::vector<std::int64_t> current_iter;
  bool stop = false;

  /// A recovery slave recruited for a group whose members all died.  It gets
  /// its own owned set so it can coexist with the recruit's regular slave.
  struct Recovery {
    int proc = 0;
    int group = 0;
    IterationSet owned;
    std::int64_t current = -1;
    bool dead = false;
  };
  std::vector<std::unique_ptr<Recovery>> recoveries;
};

/// Slave-local state, living in the slave coroutine frame: the plain
/// slave's round window plus the failure-handling fields.
struct FtSlaveState : SlaveState {
  int group = 0;
  int suspicion_round = -1;  // last round we initiated a suspicion sync for
  int pending_sync = -1;     // interrupt round seen while mid-apply
  /// Shipments already folded in, as (round, from) — distinguishes "sender
  /// has not shipped yet" from "already absorbed via a background drain".
  std::vector<std::pair<int, int>> absorbed;
};

bool is_alive(const FtState& ft, int p) { return ft.injector->alive(p); }

/// Retry bookkeeping shared by every retransmission site: the injector's
/// counter always, plus an observability mark when the recorder is armed.
void count_retry(FtState& ft, int proc) {
  ++ft.injector->stats().retries;
  if (ft.ctx->obs != nullptr) {
    ft.ctx->obs->instant(proc, obs::InstantKind::kRetry, ft.ctx->cluster->engine().now());
    ft.ctx->obs->metrics().counter("proto.retries").increment();
  }
}

void note_heard(FtState& ft, int observer, int peer) {
  if (peer < 0 || peer >= ft.ctx->procs()) return;
  ft.last_heard[static_cast<std::size_t>(observer)][static_cast<std::size_t>(peer)] =
      ft.ctx->cluster->engine().now();
}

sim::SimTime backoff_deadline(const FtState& ft, int attempt) {
  double mult = 1.0;
  for (int i = 0; i < std::min(attempt, 6); ++i) mult *= ft.backoff;
  return ft.ctx->cluster->engine().now() +
         sim::from_seconds(sim::to_seconds(ft.ack_timeout) * mult);
}

void ft_stop_all(FtState& ft) {
  ft.stop = true;
  for (auto& sleep : ft.hb_sleep) {
    if (sleep) sleep->cancel();
  }
}

void finalize_group(FtState& ft, int g) {
  if (ft.done[static_cast<std::size_t>(g)] != 0) return;
  ft.done[static_cast<std::size_t>(g)] = 1;
  ++ft.groups_done;
  if (ft.groups_done == ft.ctx->groups.size()) ft_stop_all(ft);
}

/// Hands one uncovered iteration back to its group's lost pool.
void surrender_index(FtState& ft, std::int64_t i) {
  const int g = ft.group_of_iter[static_cast<std::size_t>(i)];
  if (ft.done[static_cast<std::size_t>(g)] != 0) {
    throw std::logic_error("fault: lost work surfaced in a finished group");
  }
  ft.lost[static_cast<std::size_t>(g)].add({i, i + 1});
}

void surrender_span(FtState& ft, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t i = lo; i < hi; ++i) surrender_index(ft, i);
}

/// Moves ledger entries of group `g` with a dead endpoint back to the lost
/// pool.  Entries created after their receiver died (a transfer planned from
/// a stale profile) are otherwise never swept by the death handler.
void sweep_dead_ledger(FtState& ft, int g) {
  for (auto it = ft.ledger.begin(); it != ft.ledger.end();) {
    if (it->group == g && (!is_alive(ft, it->from) || !is_alive(ft, it->to))) {
      for (const auto& r : it->ranges) surrender_span(ft, r.lo, r.hi);
      it = ft.ledger.erase(it);
    } else {
      ++it;
    }
  }
}

bool group_has_ledger(const FtState& ft, int g) {
  return std::any_of(ft.ledger.begin(), ft.ledger.end(),
                     [g](const FtShipment& s) { return s.group == g; });
}

// ---------------------------------------------------------------------------
// Message handling shared by the compute loop and every wait loop.
// ---------------------------------------------------------------------------

sim::Task<void> send_ack(FtState& ft, int self, int dst, std::uint64_t ship, int group) {
  auto& me = ft.ctx->cluster->station(self);
  FtAckMsg am{ship, group};
  co_await me.send(dst, ft_tag(group, kFtOffAck), am, ft.ctx->config.control_bytes,
                   /*droppable=*/false);
}

/// Handles one message from the slave's tag block.  Returns true for an
/// interrupt that should pull the slave into a synchronization.
sim::Task<bool> handle_bg(FtState& ft, int self, FtSlaveState& st, sim::Message m) {
  auto& ctx = *ft.ctx;
  const int off = m.tag - ft_tag(st.group, 0);
  note_heard(ft, self, m.source);
  switch (off) {
    case kFtOffWork: {
      const auto& wm = m.as<FtWorkMsg>();
      const auto it = std::find_if(ft.ledger.begin(), ft.ledger.end(),
                                   [&wm](const FtShipment& s) { return s.id == wm.ship; });
      if (it != ft.ledger.end()) {
        for (const auto& r : it->ranges) ctx.owned[static_cast<std::size_t>(self)].add(r);
        st.absorbed.emplace_back(it->round, it->from);
        ft.ledger.erase(it);
      }
      // Ack unconditionally: a missing entry means a duplicate of a shipment
      // we already absorbed, and the sender needs the ack it lost.
      co_await send_ack(ft, self, m.source, wm.ship, st.group);
      co_return false;
    }
    case kFtOffInterrupt: {
      const auto& im = m.as<InterruptMsg>();
      co_return im.round >= st.round;
    }
    case kFtOffHeartbeat:
    case kFtOffAck:     // the sender's retry loop watches the ledger instead
    case kFtOffOutcome: // stale retransmission of a round we already applied
    default:
      co_return false;
  }
}

/// Distributed strategies: examine the profile tag without wrongly consuming
/// a current-round profile addressed to us as coordinator.  Stale profiles
/// (a straggler that missed an outcome) are answered from the cache; a
/// current one is requeued and reported as a sync trigger.
sim::Task<bool> peek_profiles(FtState& ft, int self, FtSlaveState& st) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  const int g = st.group;
  for (;;) {
    auto m = me.poll_range(ft_tag(g, kFtOffProfile), ft_tag(g, kFtOffProfile));
    if (!m) co_return false;
    const auto pm = m->as<ProfileMsg>();
    note_heard(ft, self, pm.snapshot.proc);
    if (ft.done[static_cast<std::size_t>(g)] != 0 ||
        pm.round < ft.round[static_cast<std::size_t>(g)]) {
      if (ft.last_outcome[static_cast<std::size_t>(g)]) {
        co_await me.send(pm.snapshot.proc, ft_tag(g, kFtOffOutcome),
                         *ft.last_outcome[static_cast<std::size_t>(g)],
                         ctx.config.control_bytes, /*droppable=*/false);
      }
      continue;
    }
    // dlblint:allow(shard-isolation) re-queue into this proc's own mailbox: self to self
    me.mailbox().deliver(std::move(*m));  // put it back for the collection
    co_return true;
  }
}

int coordinator_of(const FtState& ft, int g) {
  if (ft.ctx->centralized) return ft.balancer;
  const auto& active = ft.active[static_cast<std::size_t>(g)];
  return active.empty() ? -1 : *std::min_element(active.begin(), active.end());
}

// ---------------------------------------------------------------------------
// Decision: collection results -> verdict.  Shared by the distributed
// coordinator and the centralized balancer.
// ---------------------------------------------------------------------------

sim::Task<OutcomeMsg> ft_decide(FtState& ft, int station_id, int g,
                                std::vector<std::optional<ProfileSnapshot>>& got,
                                bool centralized_overhead, int initiator) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(station_id);
  const int round = ft.round[static_cast<std::size_t>(g)];

  sweep_dead_ledger(ft, g);

  // A member that profiled and then died must not count: its stale snapshot
  // would re-enter it into active_after, resurrecting a dead rank that
  // on_death already pruned — and the next collection would wait on it
  // forever.
  for (int p = 0; p < ctx.procs(); ++p) {
    if (got[static_cast<std::size_t>(p)] && !is_alive(ft, p)) {
      got[static_cast<std::size_t>(p)].reset();
    }
  }

  const bool any_live_participant = std::any_of(
      got.begin(), got.end(), [](const auto& snapshot) { return snapshot.has_value(); });

  auto& pool = ft.lost[static_cast<std::size_t>(g)];
  if (!pool.empty() && any_live_participant) {
    // Reclaim: the lowest-ranked participant inherits the dead members'
    // iterations.  The bookkeeping occupies the CPU like any decision work.
    const sim::SimTime began = me.engine().now();
    co_await me.compute(ft.injector->plan().recover_ops);
    const std::int64_t n = pool.size();
    int target = -1;
    for (int p = 0; p < ctx.procs(); ++p) {
      if (got[static_cast<std::size_t>(p)]) {
        target = p;
        break;
      }
    }
    if (target == -1) throw std::logic_error("fault: reclaim with no participants");
    for (const auto& r : pool.take_back(n)) ctx.owned[static_cast<std::size_t>(target)].add(r);
    ++ft.injector->stats().recoveries;
    ft.injector->stats().iterations_recovered += n;
    if (ctx.obs != nullptr && began != me.engine().now()) {
      ctx.obs->phase(station_id, obs::PhaseKind::kRecovery, began, me.engine().now(), n);
    }
  }

  // Profiles report what each member owned when it parked; refresh from the
  // ground truth so reclaims and stale-shipment absorptions are counted.
  std::vector<ProfileSnapshot> profiles;
  std::vector<int> participants;
  for (int p = 0; p < ctx.procs(); ++p) {
    if (!got[static_cast<std::size_t>(p)]) continue;
    got[static_cast<std::size_t>(p)]->remaining = ctx.owned[static_cast<std::size_t>(p)].size();
    profiles.push_back(*got[static_cast<std::size_t>(p)]);
    participants.push_back(p);
  }

  co_await me.compute(ctx.config.decision_ops +
                      (centralized_overhead ? ctx.config.balancer_overhead_ops : 0.0));
  const Decision d = decide(profiles, ctx.config);
  // Done means *executed*, not merely distributed: participant remaining
  // counts miss work a parked (inactive) member absorbed from a retried
  // shipment, so test the coverage ground truth instead.
  const bool loop_done = ft.group_covered[static_cast<std::size_t>(g)] ==
                             ft.group_iters[static_cast<std::size_t>(g)] &&
                         pool.empty() && !group_has_ledger(ft, g);

  OutcomeMsg out;
  out.round = round;
  out.group = g;
  out.loop_done = loop_done;
  out.moved = d.moved;
  out.transfers = d.transfers;
  if (!loop_done) {
    out.active_after = remove_inactive(participants, d.newly_inactive);
    // Never leave the group driverless while work could still resurface
    // from a late death: keep the lowest participant active even if idle —
    // it will initiate the next round immediately and settle the group.
    // (With no live participant at all, on_death's stranded-group check has
    // already recruited a recovery slave; leave active_after empty.)
    if (out.active_after.empty() && !participants.empty()) {
      out.active_after.push_back(participants.front());
    }
  }
  record_event(ctx, g, round, initiator, d);

  ft.last_outcome[static_cast<std::size_t>(g)] = out;
  ft.round[static_cast<std::size_t>(g)] = round + 1;
  ft.active[static_cast<std::size_t>(g)] = out.active_after;
  if (loop_done) finalize_group(ft, g);
  co_return out;
}

// ---------------------------------------------------------------------------
// Applying a verdict on a member: ship with ack/retry, receive with bounded
// wait, advance the round window.
// ---------------------------------------------------------------------------

bool ledger_contains(const FtState& ft, std::uint64_t ship) {
  return std::any_of(ft.ledger.begin(), ft.ledger.end(),
                     [ship](const FtShipment& s) { return s.id == ship; });
}

bool has_absorbed(const FtSlaveState& st, int round, int from) {
  return std::find(st.absorbed.begin(), st.absorbed.end(), std::pair{round, from}) !=
         st.absorbed.end();
}

sim::Task<FtStatus> ft_apply(FtState& ft, int self, FtSlaveState& st, OutcomeMsg out) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  auto& mine = ctx.owned[static_cast<std::size_t>(self)];
  const int g = st.group;
  if (out.loop_done) co_return FtStatus::kLoopDone;

  if (out.moved) {
    const sim::SimTime move_began = me.engine().now();
    std::int64_t iterations_shipped = 0;
    for (const auto& t : out.transfers) {
      if (t.from != self || t.count <= 0) continue;
      const std::int64_t count = std::min(t.count, mine.size());
      if (count <= 0) continue;
      FtWorkMsg wm;
      wm.ship = ft.next_ship++;
      wm.round = out.round;
      wm.group = g;
      wm.ranges = mine.take_back(count);
      iterations_shipped += count;
      ft.ledger.push_back({wm.ship, self, t.to, g, out.round, wm.ranges});
      const auto bytes =
          ctx.config.control_bytes +
          static_cast<std::size_t>(static_cast<double>(count) * ctx.loop->bytes_per_iteration);
      int attempt = 0;
      while (ledger_contains(ft, wm.ship)) {
        if (!is_alive(ft, self)) co_return FtStatus::kDead;
        if (!is_alive(ft, t.to)) break;  // the death sweep reclaimed the entry
        co_await me.send(t.to, ft_tag(g, kFtOffWork), wm, bytes, /*droppable=*/attempt == 0);
        if (!is_alive(ft, self)) co_return FtStatus::kDead;
        const sim::SimTime deadline = backoff_deadline(ft, attempt);
        while (me.engine().now() < deadline && ledger_contains(ft, wm.ship)) {
          auto m = co_await me.receive_until(deadline, ft_tag(g, 0), ft_tag(g, kFtOffHeartbeat));
          if (!is_alive(ft, self)) co_return FtStatus::kDead;
          if (!m) break;
          if (m->tag == ft_tag(g, kFtOffInterrupt)) {
            const auto& im = m->as<InterruptMsg>();
            note_heard(ft, self, m->source);
            if (im.round > st.round) st.pending_sync = im.round;
            continue;
          }
          (void)co_await handle_bg(ft, self, st, std::move(*m));
        }
        if (ledger_contains(ft, wm.ship) && is_alive(ft, t.to)) {
          ++attempt;
          count_retry(ft, self);
          if (attempt > 6) attempt = 6;  // cap backoff; ground truth says the peer lives
        }
      }
    }
    for (const auto& t : out.transfers) {
      if (t.to != self || t.count <= 0) continue;
      int attempt = 0;
      while (!has_absorbed(st, out.round, t.from)) {
        if (!is_alive(ft, self)) co_return FtStatus::kDead;
        if (!is_alive(ft, t.from)) break;  // its shipment (if any) went to the lost pool
        if (attempt > ft.max_retries) break;  // sender stuck in an older round keeps the work
        const sim::SimTime deadline = backoff_deadline(ft, attempt);
        while (me.engine().now() < deadline && !has_absorbed(st, out.round, t.from)) {
          auto m = co_await me.receive_until(deadline, ft_tag(g, 0), ft_tag(g, kFtOffHeartbeat));
          if (!is_alive(ft, self)) co_return FtStatus::kDead;
          if (!m) break;
          if (m->tag == ft_tag(g, kFtOffInterrupt)) {
            const auto& im = m->as<InterruptMsg>();
            note_heard(ft, self, m->source);
            if (im.round > st.round) st.pending_sync = im.round;
            continue;
          }
          (void)co_await handle_bg(ft, self, st, std::move(*m));
        }
        if (!has_absorbed(st, out.round, t.from)) ++attempt;
      }
      if (has_absorbed(st, out.round, t.from)) iterations_shipped += t.count;
    }
    record_shipment(ctx, self, move_began, iterations_shipped);
  }

  // Skip-ahead: a straggler jumps to the latest round.
  const bool still_active =
      st.open_round(out.round + 1, std::move(out.active_after), self, me.engine().now());
  std::erase_if(st.absorbed, [&st](const auto& a) { return a.first < st.round - 2; });
  co_return still_active ? FtStatus::kContinue : FtStatus::kInactive;
}

// ---------------------------------------------------------------------------
// Coordinator round (distributed strategies): the lowest surviving active
// member collects profiles, decides, announces, applies its own part.
// ---------------------------------------------------------------------------

sim::Task<FtStatus> ft_coordinate(FtState& ft, int self, FtSlaveState& st) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  const int g = st.group;
  const int round = ft.round[static_cast<std::size_t>(g)];
  const sim::SimTime profile_began = me.engine().now();

  std::vector<std::optional<ProfileSnapshot>> got(static_cast<std::size_t>(ctx.procs()));
  got[static_cast<std::size_t>(self)] = make_snapshot(ctx, self, st);

  int attempt = 0;
  const auto missing_members = [&] {
    std::vector<int> missing;
    for (const int p : ft.active[static_cast<std::size_t>(g)]) {
      if (!got[static_cast<std::size_t>(p)] && is_alive(ft, p)) missing.push_back(p);
    }
    return missing;
  };
  for (;;) {
    if (!is_alive(ft, self)) co_return FtStatus::kDead;
    if (missing_members().empty()) break;
    // The deadline is fixed per attempt: heartbeats and absorbed shipments
    // arrive inside this window without pushing it out, otherwise steady
    // background traffic starves the re-ping and a member whose interrupt
    // was dropped never learns the round started.
    const sim::SimTime deadline = backoff_deadline(ft, attempt);
    while (me.engine().now() < deadline && !missing_members().empty()) {
      // Wait on the whole block including the profile offset, so work
      // shipments from members still applying the previous round get
      // absorbed and acked instead of deadlocking against our collection.
      auto m = co_await me.receive_until(deadline, ft_tag(g, 0), ft_tag(g, kFtOffProfile));
      if (!is_alive(ft, self)) co_return FtStatus::kDead;
      if (!m) break;
      if (m->tag == ft_tag(g, kFtOffProfile)) {
        const auto pm = m->as<ProfileMsg>();
        note_heard(ft, self, pm.snapshot.proc);
        got[static_cast<std::size_t>(pm.snapshot.proc)] = pm.snapshot;
      } else if (m->tag == ft_tag(g, kFtOffInterrupt)) {
        note_heard(ft, self, m->source);  // members joining; already collecting
      } else {
        (void)co_await handle_bg(ft, self, st, std::move(*m));
      }
    }
    const auto missing = missing_members();
    if (missing.empty()) break;
    // Timeout: re-ping the missing.  They are alive by ground truth (death
    // erases a member from the active set synchronously), so the interrupt
    // reaches a live straggler — stuck in an old round or just slow.
    InterruptMsg im{round, g};
    for (const int q : missing) {
      co_await me.send(q, ft_tag(g, kFtOffInterrupt), im, ctx.config.control_bytes,
                       /*droppable=*/false);
      count_retry(ft, self);
      if (!is_alive(ft, self)) co_return FtStatus::kDead;
    }
    ++attempt;
    if (attempt > 6) attempt = 6;
  }

  // Own profile taken until the last live member's profile arrived.
  record_profile(ctx, self, profile_began, round);

  OutcomeMsg out = co_await ft_decide(ft, self, g, got, /*centralized_overhead=*/false,
                                      /*initiator=*/-1);
  if (!is_alive(ft, self)) co_return FtStatus::kDead;

  std::vector<int> others;
  for (int p = 0; p < ctx.procs(); ++p) {
    if (p != self && got[static_cast<std::size_t>(p)]) others.push_back(p);
  }
  // The final verdict must arrive: a straggler that misses loop_done would
  // retry forever against a group that no longer answers.
  co_await me.multicast(others, ft_tag(g, kFtOffOutcome), out, ctx.config.control_bytes,
                        /*droppable=*/!out.loop_done);
  if (!is_alive(ft, self)) co_return FtStatus::kDead;
  co_return co_await ft_apply(ft, self, st, out);
}

// ---------------------------------------------------------------------------
// Participation: profile with retry/backoff, failover on coordinator death.
// ---------------------------------------------------------------------------

sim::Process ft_central_balancer(FtState& ft, int station_id);  // fwd

sim::Task<FtStatus> ft_participate(FtState& ft, int self, FtSlaveState& st) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  const int g = st.group;
  const sim::SimTime profile_began = me.engine().now();
  int attempt = 0;
  for (;;) {
    if (!is_alive(ft, self)) co_return FtStatus::kDead;
    if (ft.done[static_cast<std::size_t>(g)] != 0) co_return FtStatus::kLoopDone;

    if (!ctx.centralized && coordinator_of(ft, g) == self) {
      co_return co_await ft_coordinate(ft, self, st);
    }
    if (ctx.centralized && (!ft.balancer_live || !is_alive(ft, ft.balancer))) {
      // Deterministic successor election: the lowest surviving rank hosts
      // the next balancer incarnation.  Any participant may notice and spawn
      // it there; the live flag dedups concurrent observers.
      if (!ft.balancer_live) {
        const int successor = ft.injector->first_alive();
        ft.balancer = successor;
        ft.balancer_live = true;
        me.engine().spawn(ft_central_balancer(ft, successor));
      } else {
        // on_death retires a dead balancer synchronously, so this branch is
        // unreachable in practice — but never spin without yielding.
        co_await me.busy(ft.hb_period);
      }
      continue;
    }

    const int coord = coordinator_of(ft, g);
    ProfileMsg pm{st.round, g, make_snapshot(ctx, self, st)};
    const int profile_tag =
        ctx.centralized ? kFtCentralProfileBase + g : ft_tag(g, kFtOffProfile);
    co_await me.send(coord, profile_tag, pm, ctx.config.control_bytes,
                     /*droppable=*/attempt == 0);
    if (!is_alive(ft, self)) co_return FtStatus::kDead;

    const sim::SimTime deadline = backoff_deadline(ft, attempt);
    bool resend_now = false;
    while (me.engine().now() < deadline) {
      auto m = co_await me.receive_until(deadline, ft_tag(g, 0), ft_tag(g, kFtOffHeartbeat));
      if (!is_alive(ft, self)) co_return FtStatus::kDead;
      if (!m) break;
      if (m->tag == ft_tag(g, kFtOffOutcome)) {
        const auto& om = m->as<OutcomeMsg>();
        note_heard(ft, self, m->source);
        if (om.round >= st.round) {
          // First profile sent until verdict received, retries included.
          record_profile(ctx, self, profile_began, st.round);
          co_return co_await ft_apply(ft, self, st, om);
        }
        continue;  // stale duplicate
      }
      if (m->tag == ft_tag(g, kFtOffInterrupt)) {
        const auto& im = m->as<InterruptMsg>();
        note_heard(ft, self, m->source);
        if (im.round >= st.round) {
          resend_now = true;  // a re-ping: the coordinator is collecting
          break;
        }
        continue;
      }
      (void)co_await handle_bg(ft, self, st, std::move(*m));
    }
    if (!resend_now) count_retry(ft, self);
    ++attempt;
    if (attempt > 6) attempt = 6;  // keep retrying: a live coordinator answers eventually
  }
}

// ---------------------------------------------------------------------------
// The processes.
// ---------------------------------------------------------------------------

bool suspicious(const FtState& ft, int self, const FtSlaveState& st) {
  const sim::SimTime now = ft.ctx->cluster->engine().now();
  for (const int q : st.active) {
    if (q == self) continue;
    if (q < 0 || q >= ft.ctx->procs()) continue;
    if (now - ft.last_heard[static_cast<std::size_t>(self)][static_cast<std::size_t>(q)] >
        ft.hb_timeout) {
      return true;
    }
  }
  return false;
}

sim::Process ft_dlb_slave(FtState& ft, int self, int group) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  auto& mine = ctx.owned[static_cast<std::size_t>(self)];

  FtSlaveState st;
  st.group = group;
  st.round = ft.round[static_cast<std::size_t>(group)];
  st.active = ft.active[static_cast<std::size_t>(group)];
  st.window_start = me.engine().now();

  bool running = true;
  while (running) {
    if (!is_alive(ft, self)) break;
    if (ft.done[static_cast<std::size_t>(group)] != 0) break;

    bool join_sync = false;
    while (auto m = me.poll_range(ft_tag(group, 0), ft_tag(group, kFtOffHeartbeat))) {
      if (co_await handle_bg(ft, self, st, std::move(*m))) join_sync = true;
      if (!is_alive(ft, self)) break;
    }
    if (!is_alive(ft, self)) break;
    if (!ctx.centralized) {
      if (co_await peek_profiles(ft, self, st)) join_sync = true;
      if (!is_alive(ft, self)) break;
    }
    if (st.pending_sync >= st.round) {
      join_sync = true;
      st.pending_sync = -1;
    }

    bool initiate = false;
    if (!join_sync && mine.empty()) {
      initiate = true;  // first finisher (§3.1)
    } else if (!join_sync && st.suspicion_round < st.round && suspicious(ft, self, st)) {
      // A silent peer: force an early round so its work is reclaimed before
      // the survivors run dry.
      st.suspicion_round = st.round;
      initiate = true;
    }

    if (join_sync || initiate) {
      const sim::SimTime sync_began = me.engine().now();
      const int sync_round = st.round;
      sample_engine_health(ctx);
      if (initiate) {
        record_interrupt(ctx, self, sync_round);
        InterruptMsg im{sync_round, group};
        co_await me.multicast(st.active, ft_tag(group, kFtOffInterrupt), im,
                              ctx.config.control_bytes);
        if (!is_alive(ft, self)) break;
      }
      const FtStatus status = co_await ft_participate(ft, self, st);
      if (sync_began != me.engine().now()) record_sync(ctx, self, sync_began, sync_round);
      if (status == FtStatus::kDead) break;
      if (status == FtStatus::kLoopDone) break;
      if (status == FtStatus::kInactive) {
        // Parked: out of the round set with nothing left, but a shipment
        // decided before we went inactive can still be in flight — its
        // sender retries until we absorb and ack it.  Keep draining; rejoin
        // the rounds if work or a current interrupt lands here.
        while (is_alive(ft, self) && ft.done[static_cast<std::size_t>(group)] == 0 &&
               mine.empty() && st.pending_sync < st.round) {
          auto m = co_await me.receive_until(me.engine().now() + ft.hb_period, ft_tag(group, 0),
                                            ft_tag(group, kFtOffHeartbeat));
          if (!m) continue;
          if (co_await handle_bg(ft, self, st, std::move(*m))) {
            st.pending_sync = std::max(st.pending_sync, st.round);
          }
        }
      }
      continue;
    }

    const std::int64_t index = mine.pop_front();
    ft.current_iter[static_cast<std::size_t>(self)] = index;
    const sim::SimTime began = me.engine().now();
    co_await iteration_body(ctx, self, index);
    if (!is_alive(ft, self)) break;  // died mid-iteration: the result is discarded
    ft.current_iter[static_cast<std::size_t>(self)] = -1;
    ft.coverage.record(index, self);
    ++ft.group_covered[static_cast<std::size_t>(group)];
    count_iteration(ctx, self, began);
    ++st.done_in_window;
    ft.injector->on_progress(ft.loop_index, ft.coverage.covered(), ft.coverage.total());
    if (!is_alive(ft, self)) break;  // the progress fault may have hit us
  }
  ctx.finished_at[static_cast<std::size_t>(self)] =
      std::max(ctx.finished_at[static_cast<std::size_t>(self)], me.engine().now());
}

sim::Process ft_central_balancer(FtState& ft, int station_id) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(station_id);
  ft.balancer = station_id;
  ft.balancer_live = true;
  const int ngroups = static_cast<int>(ctx.groups.size());

  while (!ft.stop && ft.groups_done < ctx.groups.size()) {
    if (!is_alive(ft, station_id)) break;
    auto first = co_await me.receive_until(me.engine().now() + ft.hb_period,
                                           kFtCentralProfileBase,
                                           kFtCentralProfileBase + ngroups - 1);
    if (!is_alive(ft, station_id)) break;
    if (!first) continue;
    const auto pm0 = first->as<ProfileMsg>();
    const int g = pm0.group;
    note_heard(ft, station_id, pm0.snapshot.proc);
    if (ft.done[static_cast<std::size_t>(g)] != 0 ||
        pm0.round < ft.round[static_cast<std::size_t>(g)]) {
      // A straggler that missed an outcome: serve it from the cache.
      if (ft.last_outcome[static_cast<std::size_t>(g)]) {
        co_await me.send(pm0.snapshot.proc, ft_tag(g, kFtOffOutcome),
                         *ft.last_outcome[static_cast<std::size_t>(g)],
                         ctx.config.control_bytes, /*droppable=*/false);
      }
      continue;
    }

    std::vector<std::optional<ProfileSnapshot>> got(static_cast<std::size_t>(ctx.procs()));
    got[static_cast<std::size_t>(pm0.snapshot.proc)] = pm0.snapshot;
    int attempt = 0;
    bool abandoned = false;
    for (;;) {
      if (!is_alive(ft, station_id)) {
        abandoned = true;
        break;
      }
      // Profiles of other groups queue behind this collection — the LCDLB
      // serialization delay, same as the fault-free balancer.
      while (auto q = me.poll_range(kFtCentralProfileBase + g, kFtCentralProfileBase + g)) {
        const auto pm = q->as<ProfileMsg>();
        note_heard(ft, station_id, pm.snapshot.proc);
        got[static_cast<std::size_t>(pm.snapshot.proc)] = pm.snapshot;
      }
      std::vector<int> missing;
      for (const int p : ft.active[static_cast<std::size_t>(g)]) {
        if (!got[static_cast<std::size_t>(p)] && is_alive(ft, p)) missing.push_back(p);
      }
      if (missing.empty()) break;
      // Fixed deadline per attempt: retried profiles from one straggler must
      // not keep pushing the window out and starve the re-ping of another.
      const sim::SimTime deadline = backoff_deadline(ft, attempt);
      bool heard = false;
      while (me.engine().now() < deadline) {
        auto m = co_await me.receive_until(deadline, kFtCentralProfileBase + g,
                                           kFtCentralProfileBase + g);
        if (!is_alive(ft, station_id)) {
          abandoned = true;
          break;
        }
        if (!m) break;
        const auto pm = m->as<ProfileMsg>();
        note_heard(ft, station_id, pm.snapshot.proc);
        if (!got[static_cast<std::size_t>(pm.snapshot.proc)]) heard = true;
        got[static_cast<std::size_t>(pm.snapshot.proc)] = pm.snapshot;
      }
      if (abandoned) break;
      if (heard) continue;  // progress: re-evaluate who is still missing
      InterruptMsg im{ft.round[static_cast<std::size_t>(g)], g};
      for (const int q : missing) {
        co_await me.send(q, ft_tag(g, kFtOffInterrupt), im, ctx.config.control_bytes,
                         /*droppable=*/false);
        count_retry(ft, station_id);
      }
      ++attempt;
      if (attempt > 6) attempt = 6;
    }
    if (abandoned) break;

    OutcomeMsg out = co_await ft_decide(ft, station_id, g, got,
                                        /*centralized_overhead=*/true,
                                        /*initiator=*/pm0.snapshot.proc);
    if (!is_alive(ft, station_id)) break;
    std::vector<int> recipients;
    bool self_in_group = false;
    for (int p = 0; p < ctx.procs(); ++p) {
      if (!got[static_cast<std::size_t>(p)]) continue;
      recipients.push_back(p);
      if (p == station_id) self_in_group = true;
    }
    co_await me.multicast(recipients, ft_tag(g, kFtOffOutcome), out, ctx.config.control_bytes,
                          /*droppable=*/!out.loop_done);
    if (self_in_group && is_alive(ft, station_id)) {
      co_await me.send(station_id, ft_tag(g, kFtOffOutcome), out, ctx.config.control_bytes,
                       /*droppable=*/false);
    }
  }
  // A dead incarnation is retired by on_death the moment it dies; by the
  // time its coroutine unwinds here a successor may already be live, so only
  // clear the flag if this incarnation still holds the post.
  if (ft.balancer == station_id) ft.balancer_live = false;
}

sim::Process ft_heartbeat_emitter(FtState& ft, int self, int group) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  auto* sleep = ft.hb_sleep[static_cast<std::size_t>(self)].get();
  // Deterministic per-rank phase offset so the beats don't collide on the
  // shared medium in lockstep.
  sim::SimTime wait =
      ft.hb_period + ft.hb_period * self / std::max(1, ctx.procs());
  for (;;) {
    const bool expired = co_await sleep->wait_for(wait);
    wait = ft.hb_period;
    if (!expired || ft.stop || !is_alive(ft, self)) break;
    if (ft.done[static_cast<std::size_t>(group)] != 0) break;
    const auto& peers = ft.active[static_cast<std::size_t>(group)];
    if (!peers.empty()) {
      FtHeartbeatMsg hb{group};
      co_await me.multicast(peers, ft_tag(group, kFtOffHeartbeat), hb,
                            ctx.config.control_bytes);
    }
  }
}

/// Disaster recovery: every member of the group died, so a surviving station
/// (possibly from another group) is recruited to drain the lost pool.  It
/// keeps its own owned set, leaving the recruit's regular slave untouched.
sim::Process ft_recovery_slave(FtState& ft, FtState::Recovery& rec) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(rec.proc);
  const int g = rec.group;

  while (!rec.dead && is_alive(ft, rec.proc) && ft.done[static_cast<std::size_t>(g)] == 0) {
    if (rec.owned.empty()) {
      sweep_dead_ledger(ft, g);
      auto& pool = ft.lost[static_cast<std::size_t>(g)];
      if (pool.empty()) {
        if (ft.group_covered[static_cast<std::size_t>(g)] ==
            ft.group_iters[static_cast<std::size_t>(g)]) {
          finalize_group(ft, g);
        } else {
          // Work is still in flight somewhere (a live shipment between two
          // procs that died an instant later sweeps into the pool next
          // round); idle one heartbeat and look again.
          co_await me.busy(ft.hb_period);
        }
        continue;
      }
      const sim::SimTime began = me.engine().now();
      co_await me.compute(ft.injector->plan().recover_ops);
      if (rec.dead || !is_alive(ft, rec.proc)) break;
      const std::int64_t n = pool.size();
      for (const auto& r : pool.take_back(n)) rec.owned.add(r);
      ++ft.injector->stats().recoveries;
      ft.injector->stats().iterations_recovered += n;
      if (ctx.obs != nullptr && began != me.engine().now()) {
        ctx.obs->phase(rec.proc, obs::PhaseKind::kRecovery, began, me.engine().now(), n);
      }
      continue;
    }
    const std::int64_t index = rec.owned.pop_front();
    rec.current = index;
    const sim::SimTime began = me.engine().now();
    co_await iteration_body(ctx, rec.proc, index);
    if (rec.dead || !is_alive(ft, rec.proc)) break;
    rec.current = -1;
    ft.coverage.record(index, rec.proc);
    ++ft.group_covered[static_cast<std::size_t>(g)];
    count_iteration(ctx, rec.proc, began);
    ft.injector->on_progress(ft.loop_index, ft.coverage.covered(), ft.coverage.total());
  }
  ctx.finished_at[static_cast<std::size_t>(rec.proc)] =
      std::max(ctx.finished_at[static_cast<std::size_t>(rec.proc)], me.engine().now());
}

// ---------------------------------------------------------------------------
// Death handling: the simulation-side sweep that makes exactly-once hold.
// ---------------------------------------------------------------------------

void on_death(FtState& ft, int p) {
  auto& ctx = *ft.ctx;
  auto& station = ctx.cluster->station(p);
  station.power_off();
  station.mailbox().cancel_waiters();
  if (ctx.obs != nullptr) ctx.obs->instant(p, obs::InstantKind::kDeath, station.engine().now());
  if (ft.hb_sleep[static_cast<std::size_t>(p)]) ft.hb_sleep[static_cast<std::size_t>(p)]->cancel();
  if (ft.ctx->centralized && p == ft.balancer) {
    // Retire the incarnation now: its coroutine may be parked mid-send or
    // mid-compute and only unwinds when that event fires, and participants
    // must not wait for that to elect the successor.
    ft.balancer_live = false;
  }

  // 1. Unexecuted iterations it owned.
  auto& owned = ctx.owned[static_cast<std::size_t>(p)];
  if (!owned.empty()) {
    for (const auto& r : owned.take_back(owned.size())) surrender_span(ft, r.lo, r.hi);
  }
  // 2. The iteration it was executing (popped but not yet recorded).
  if (ft.current_iter[static_cast<std::size_t>(p)] >= 0) {
    surrender_index(ft, ft.current_iter[static_cast<std::size_t>(p)]);
    ft.current_iter[static_cast<std::size_t>(p)] = -1;
  }
  // 3. Its completed results die with it — unless the group already
  // finished, in which case the results were consumed and stand.
  for (const auto& [lo, hi] : ft.coverage.wipe(p)) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const int g = ft.group_of_iter[static_cast<std::size_t>(i)];
      if (ft.done[static_cast<std::size_t>(g)] != 0) {
        ft.coverage.record(i, p);  // un-wipe: the finished group keeps it
      } else {
        --ft.group_covered[static_cast<std::size_t>(g)];
        surrender_index(ft, i);
      }
    }
  }
  // 4. In-flight shipments it sent or was about to receive.
  for (auto it = ft.ledger.begin(); it != ft.ledger.end();) {
    if (it->from == p || it->to == p) {
      for (const auto& r : it->ranges) surrender_span(ft, r.lo, r.hi);
      it = ft.ledger.erase(it);
    } else {
      ++it;
    }
  }
  // 5. Recovery slaves it was hosting.
  for (auto& rec : ft.recoveries) {
    if (rec->proc != p || rec->dead) continue;
    rec->dead = true;
    if (!rec->owned.empty()) {
      for (const auto& r : rec->owned.take_back(rec->owned.size())) {
        surrender_span(ft, r.lo, r.hi);
      }
    }
    if (rec->current >= 0) {
      surrender_index(ft, rec->current);
      rec->current = -1;
    }
  }
  // 6. It no longer takes part in any round.
  for (auto& members : ft.active) std::erase(members, p);

  // 7. Stranded groups: no active member left to drive the rounds.  If work
  // remains, recruit the lowest surviving rank as a recovery slave; if not,
  // the group is finished.
  for (std::size_t g = 0; g < ft.active.size(); ++g) {
    if (ft.done[g] != 0 || !ft.active[g].empty()) continue;
    const bool has_live_recovery =
        std::any_of(ft.recoveries.begin(), ft.recoveries.end(), [&g](const auto& rec) {
          return !rec->dead && rec->group == static_cast<int>(g);
        });
    if (has_live_recovery) continue;
    if (ft.group_covered[g] == ft.group_iters[g]) {
      finalize_group(ft, static_cast<int>(g));
      continue;
    }
    const int recruit = ft.injector->first_alive();
    auto rec = std::make_unique<FtState::Recovery>();
    rec->proc = recruit;
    rec->group = static_cast<int>(g);
    ft.recoveries.push_back(std::move(rec));
    ctx.cluster->engine().spawn(ft_recovery_slave(ft, *ft.recoveries.back()));
  }
}

double auto_ack_timeout_seconds(const LoopDescriptor& loop, const cluster::Cluster& cluster,
                                double hb_period_seconds) {
  double max_ops = 1.0;
  const std::int64_t stride = std::max<std::int64_t>(1, loop.iterations / 65536);
  for (std::int64_t i = 0; i < loop.iterations; i += stride) {
    max_ops = std::max(max_ops, loop.ops_of(i));
  }
  double min_speed = 1.0;
  for (const double s : cluster.params().speeds) min_speed = std::min(min_speed, s);
  const double rate = cluster.params().base_ops_per_sec * std::max(min_speed, 1e-6);
  // Several times the slowest bare-iteration time: external load stretches
  // iterations, but a too-short timeout only costs a retransmission — the
  // ground-truth death check keeps false timeouts from escalating.
  return std::max(4.0 * hb_period_seconds, 6.0 * max_ops / rate);
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

LoopRunStats run_ft_loop(const LoopDescriptor& loop, const DlbConfig& config,
                         cluster::Cluster& cluster, fault::FaultInjector& injector,
                         int loop_index, obs::Recorder* obs) {
  LoopContext ctx = LoopContext::make(loop, config, cluster);
  ctx.obs = obs;
  auto& engine = cluster.engine();

  // Re-partition among the survivors: a dead station gets nothing, a revoked
  // one that rejoined at this boundary gets a share again.
  const std::vector<int> alive_list = injector.alive_procs();
  if (alive_list.empty()) throw std::runtime_error("run_ft_loop: no surviving workstation");
  for (auto& set : ctx.owned) set = IterationSet{};
  for (std::size_t rank = 0; rank < alive_list.size(); ++rank) {
    ctx.owned[static_cast<std::size_t>(alive_list[rank])] = IterationSet::block_partition(
        loop.iterations, static_cast<int>(alive_list.size()), static_cast<int>(rank));
  }
  for (int p = 0; p < ctx.procs(); ++p) {
    if (!injector.alive(p)) cluster.station(p).power_off();
  }

  FtState ft;
  ft.ctx = &ctx;
  ft.injector = &injector;
  ft.loop_index = loop_index;
  ft.coverage.reset(loop.iterations);
  ft.group_of_iter.assign(static_cast<std::size_t>(loop.iterations), 0);
  for (const int p : alive_list) {
    for (const auto& r : ctx.owned[static_cast<std::size_t>(p)].ranges()) {
      for (std::int64_t i = r.lo; i < r.hi; ++i) {
        ft.group_of_iter[static_cast<std::size_t>(i)] =
            ctx.group_of[static_cast<std::size_t>(p)];
      }
    }
  }

  const fault::FaultPlan& plan = injector.plan();
  ft.hb_period = sim::from_seconds(plan.heartbeat_period_seconds);
  ft.hb_timeout = plan.heartbeat_timeout_seconds > 0.0
                      ? sim::from_seconds(plan.heartbeat_timeout_seconds)
                      : 4 * ft.hb_period;
  ft.ack_timeout = sim::from_seconds(
      plan.ack_timeout_seconds > 0.0
          ? plan.ack_timeout_seconds
          : auto_ack_timeout_seconds(loop, cluster, plan.heartbeat_period_seconds));
  ft.max_retries = plan.max_retries;
  ft.backoff = plan.backoff_factor;

  const std::size_t ngroups = ctx.groups.size();
  ft.lost.resize(ngroups);
  ft.round.assign(ngroups, 0);
  ft.done.assign(ngroups, 0);
  ft.last_outcome.assign(ngroups, std::nullopt);
  ft.group_iters.assign(ngroups, 0);
  ft.group_covered.assign(ngroups, 0);
  for (std::size_t i = 0; i < ft.group_of_iter.size(); ++i) {
    ++ft.group_iters[static_cast<std::size_t>(ft.group_of_iter[i])];
  }
  ft.active.resize(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    for (const int p : ctx.groups[g]) {
      if (injector.alive(p)) ft.active[g].push_back(p);
    }
    if (ft.active[g].empty() || ft.group_iters[g] == 0) finalize_group(ft, static_cast<int>(g));
  }
  ft.last_heard.assign(static_cast<std::size_t>(ctx.procs()),
                       std::vector<sim::SimTime>(static_cast<std::size_t>(ctx.procs()),
                                                 engine.now()));
  ft.current_iter.assign(static_cast<std::size_t>(ctx.procs()), -1);
  ft.hb_sleep.resize(static_cast<std::size_t>(ctx.procs()));
  for (const int p : alive_list) {
    ft.hb_sleep[static_cast<std::size_t>(p)] = std::make_unique<sim::CancellableSleep>(engine);
  }
  if (ctx.centralized) ft.balancer = injector.first_alive();

  // The bookkeeping handler must not outlive the state it captures: the
  // runtime's own handler comes back once the loop has drained.
  auto runtime_handler = injector.set_death_handler([&ft](int p) { on_death(ft, p); });

  if (ft.groups_done < ngroups) {
    if (ctx.centralized) {
      ft.balancer_live = true;
      engine.spawn(ft_central_balancer(ft, ft.balancer));
    }
    for (const int p : alive_list) {
      const int g = ctx.group_of[static_cast<std::size_t>(p)];
      if (ft.done[static_cast<std::size_t>(g)] != 0) {
        ctx.finished_at[static_cast<std::size_t>(p)] = engine.now();
        continue;
      }
      engine.spawn(ft_dlb_slave(ft, p, g));
      engine.spawn(ft_heartbeat_emitter(ft, p, g));
    }
    engine.run();
  }

  injector.set_death_handler(std::move(runtime_handler));

  // The acceptance oracle: every iteration covered exactly once by a proc
  // whose results survived, nothing lost, nothing still in flight.
  ft.coverage.expect_complete();
  if (!ft.ledger.empty()) {
    throw std::logic_error("run_ft_loop: unresolved work shipments at loop end");
  }
  for (const auto& pool : ft.lost) {
    if (!pool.empty()) throw std::logic_error("run_ft_loop: unreclaimed lost work at loop end");
  }

  // Makespan from the survivors' finish times, not engine.now(): draining a
  // dead station's last preempted compute segment advances the clock without
  // representing useful work.
  double finish = ctx.stats.start_seconds;
  for (int p = 0; p < ctx.procs(); ++p) {
    if (injector.alive(p)) {
      finish = std::max(finish, sim::to_seconds(ctx.finished_at[static_cast<std::size_t>(p)]));
    }
  }
  return finish_loop(ctx, finish);
}

namespace {

sim::Process ft_phase_master(cluster::Cluster& cluster, SequentialPhase phase,
                             fault::FaultInjector& injector, int master) {
  auto& me = cluster.station(master);
  const sim::SimTime step = sim::from_seconds(injector.plan().heartbeat_period_seconds * 4.0);
  for (int p = 0; p < cluster.size(); ++p) {
    if (p == master) continue;
    for (;;) {
      if (!injector.alive(master)) co_return;
      if (!injector.alive(p)) break;  // its share of the data died with it
      auto m = co_await me.receive_until(me.engine().now() + step, kTagPhaseData, kTagPhaseData, p);
      if (!injector.alive(master)) co_return;
      if (m) break;
    }
  }
  co_await me.compute(phase.master_ops);
  if (!injector.alive(master)) co_return;
  const double share = phase.scatter_bytes_total / static_cast<double>(cluster.size());
  for (int p = 0; p < cluster.size(); ++p) {
    if (p == master || !injector.alive(p)) continue;
    co_await me.send(p, kTagPhaseScatter, std::any{}, static_cast<std::size_t>(share),
                     /*droppable=*/false);
    if (!injector.alive(master)) co_return;
  }
}

sim::Process ft_phase_slave(cluster::Cluster& cluster, fault::FaultInjector& injector, int self,
                            double gather_bytes, int master) {
  auto& me = cluster.station(self);
  if (!injector.alive(self)) co_return;
  const sim::SimTime step = sim::from_seconds(injector.plan().heartbeat_period_seconds * 4.0);
  co_await me.send(master, kTagPhaseData, std::any{}, static_cast<std::size_t>(gather_bytes),
                   /*droppable=*/false);
  for (;;) {
    if (!injector.alive(self)) co_return;
    auto m = co_await me.receive_until(me.engine().now() + step, kTagPhaseScatter,
                                       kTagPhaseScatter, master);
    if (!injector.alive(self)) co_return;
    if (m) break;
    if (!injector.alive(master)) break;  // degraded: proceed without the scatter
  }
}

}  // namespace

void run_ft_phase(cluster::Cluster& cluster, const SequentialPhase& phase,
                  const std::vector<double>& gather_bytes_per_proc,
                  fault::FaultInjector& injector) {
  auto& engine = cluster.engine();
  const int master = injector.first_alive();
  engine.spawn(ft_phase_master(cluster, phase, injector, master));
  for (int p = 0; p < cluster.size(); ++p) {
    if (p == master || !injector.alive(p)) continue;
    engine.spawn(ft_phase_slave(cluster, injector, p, gather_bytes_per_proc[static_cast<std::size_t>(p)],
                                master));
  }
  engine.run();
}

}  // namespace dlb::core
