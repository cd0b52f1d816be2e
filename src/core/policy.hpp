#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace dlb::core {

/// One processor's performance profile at a synchronization point: the
/// paper's metric is "iterations done per second since the last
/// synchronization" (§3.2), plus the iterations it still owns (lambda_i(j)).
struct ProfileSnapshot {
  int proc = 0;
  std::int64_t remaining = 0;       // lambda_i(j)
  double rate = 0.0;                // iterations per second, > 0
  bool active = true;
};

/// The profile metric of one slave at a synchronization point (§3.2):
/// `done` iterations over `elapsed_s` seconds since the last sync point.  A
/// window with nothing finished reuses `last_rate`; with no history at all
/// (a processor that started with zero iterations) the caller's `prior`
/// stands in — the simulator's bare-speed estimate, the emulator's
/// 1/slowdown.
[[nodiscard]] double profile_rate(std::int64_t done, double elapsed_s, double last_rate,
                                  double prior);

/// `active` minus the processors a decision sent idle, order preserved:
/// the member set of the next round.
[[nodiscard]] std::vector<int> remove_inactive(const std::vector<int>& active,
                                               const std::vector<int>& newly_inactive);

/// New distribution per Eq. 3: remaining work Gamma(j) split in proportion
/// to each processor's measured rate (the run-time stand-in for S_i /
/// mu_i(j)), rounded with the largest-remainder method so the assignment
/// sums exactly to Gamma(j).  Inactive processors receive nothing.
/// Throws std::invalid_argument on empty input or non-positive rates of
/// active processors.
[[nodiscard]] std::vector<std::int64_t> compute_distribution(
    std::span<const ProfileSnapshot> profiles);

/// phi(j) = 1/2 * sum |lambda_i(j) - Lambda_i(j)|: the iterations that must
/// change hands to realize the new distribution.
[[nodiscard]] std::int64_t work_to_move(std::span<const ProfileSnapshot> profiles,
                                        std::span<const std::int64_t> assignment);

/// The movement threshold (§3.3): a move below `threshold_fraction` of the
/// remaining total indicates the system is nearly balanced or nearly done.
[[nodiscard]] bool move_below_threshold(std::int64_t to_move, std::int64_t total_remaining,
                                        double threshold_fraction);

/// Profitability analysis (§3.4).  Predicted completion times use the
/// measured rates and *exclude* the cost of the work movement itself — the
/// paper found including it cancels beneficial moves and idles the
/// synchronizing processor.
struct Profitability {
  double current_finish_seconds = 0.0;   // max_i lambda_i / rate_i
  double balanced_finish_seconds = 0.0;  // max_i Lambda_i / rate_i
  bool profitable = false;               // improvement >= margin
};
[[nodiscard]] Profitability analyze_profitability(std::span<const ProfileSnapshot> profiles,
                                                  std::span<const std::int64_t> assignment,
                                                  double margin);

/// One work shipment: `count` iterations from processor `from` to `to`.
struct Transfer {
  int from = 0;
  int to = 0;
  std::int64_t count = 0;
  friend bool operator==(const Transfer&, const Transfer&) = default;
};

/// Plans the minimal-pair greedy transfer set realizing `assignment` from the
/// current owners: surplus processors (in index order) ship to deficit
/// processors (in index order).  Deterministic, so the replicated balancers
/// of the distributed strategies all derive the identical plan.  The number
/// of transfers is the model's nu(j) (messages needed to move the work).
[[nodiscard]] std::vector<Transfer> plan_transfers(std::span<const ProfileSnapshot> profiles,
                                                   std::span<const std::int64_t> assignment);

/// Full decision pipeline for one synchronization point: distribution,
/// threshold check, profitability check, transfer plan.  `moved` is false
/// (and `transfers` empty) when the balancer decides not to move.
struct Decision {
  std::vector<std::int64_t> assignment;
  std::vector<Transfer> transfers;
  std::int64_t to_move = 0;
  std::int64_t total_remaining = 0;
  bool moved = false;
  Profitability profitability;
  /// Processors left with zero assignment and zero remaining: they go idle.
  std::vector<int> newly_inactive;
};
[[nodiscard]] Decision decide(std::span<const ProfileSnapshot> profiles,
                              const DlbConfig& config);

}  // namespace dlb::core
