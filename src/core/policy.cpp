#include "core/policy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dlb::core {

double profile_rate(std::int64_t done, double elapsed_s, double last_rate, double prior) {
  if (done > 0 && elapsed_s > 0.0) return static_cast<double>(done) / elapsed_s;
  if (last_rate > 0.0) return last_rate;
  return prior;
}

std::vector<int> remove_inactive(const std::vector<int>& active,
                                 const std::vector<int>& newly_inactive) {
  std::vector<int> out;
  out.reserve(active.size());
  for (const int p : active) {
    if (std::find(newly_inactive.begin(), newly_inactive.end(), p) == newly_inactive.end()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<std::int64_t> compute_distribution(std::span<const ProfileSnapshot> profiles) {
  if (profiles.empty()) throw std::invalid_argument("compute_distribution: no profiles");

  std::int64_t total = 0;
  double weight_sum = 0.0;
  for (const auto& p : profiles) {
    if (p.remaining < 0) throw std::invalid_argument("compute_distribution: negative remaining");
    total += p.remaining;
    if (p.active) {
      if (p.rate <= 0.0) {
        throw std::invalid_argument("compute_distribution: active processor with rate <= 0");
      }
      weight_sum += p.rate;
    } else if (p.remaining != 0) {
      // Protocol invariant: a processor only goes inactive once drained.
      throw std::invalid_argument("compute_distribution: inactive processor holding work");
    }
  }
  if (weight_sum <= 0.0) {
    throw std::invalid_argument("compute_distribution: no active processors");
  }

  // Real-valued shares, then floor + largest remainder so the sum is exact.
  const std::size_t n = profiles.size();
  std::vector<std::int64_t> assignment(n, 0);
  std::vector<double> fractional(n, 0.0);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!profiles[i].active) continue;
    const double share = static_cast<double>(total) * (profiles[i].rate / weight_sum);
    assignment[i] = static_cast<std::int64_t>(std::floor(share));
    fractional[i] = share - std::floor(share);
    assigned += assignment[i];
  }
  std::int64_t leftover = total - assigned;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return fractional[a] > fractional[b]; });
  for (std::size_t k = 0; leftover > 0; k = (k + 1) % n) {
    const std::size_t i = order[k];
    if (!profiles[i].active) continue;
    ++assignment[i];
    --leftover;
  }
  return assignment;
}

std::int64_t work_to_move(std::span<const ProfileSnapshot> profiles,
                          std::span<const std::int64_t> assignment) {
  if (profiles.size() != assignment.size()) {
    throw std::invalid_argument("work_to_move: size mismatch");
  }
  std::int64_t moved_twice = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    moved_twice += std::abs(profiles[i].remaining - assignment[i]);
  }
  return moved_twice / 2;
}

bool move_below_threshold(std::int64_t to_move, std::int64_t total_remaining,
                          double threshold_fraction) {
  if (to_move <= 0) return true;
  return static_cast<double>(to_move) <
         threshold_fraction * static_cast<double>(total_remaining);
}

Profitability analyze_profitability(std::span<const ProfileSnapshot> profiles,
                                    std::span<const std::int64_t> assignment, double margin) {
  if (profiles.size() != assignment.size()) {
    throw std::invalid_argument("analyze_profitability: size mismatch");
  }
  Profitability result;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (!profiles[i].active) continue;
    const double rate = profiles[i].rate;
    result.current_finish_seconds =
        std::max(result.current_finish_seconds, static_cast<double>(profiles[i].remaining) / rate);
    result.balanced_finish_seconds =
        std::max(result.balanced_finish_seconds, static_cast<double>(assignment[i]) / rate);
  }
  // At least `margin` predicted improvement, movement cost excluded (§3.4).
  result.profitable =
      result.balanced_finish_seconds <= (1.0 - margin) * result.current_finish_seconds;
  return result;
}

std::vector<Transfer> plan_transfers(std::span<const ProfileSnapshot> profiles,
                                     std::span<const std::int64_t> assignment) {
  if (profiles.size() != assignment.size()) {
    throw std::invalid_argument("plan_transfers: size mismatch");
  }
  struct Delta {
    int proc;
    std::int64_t amount;
  };
  std::vector<Delta> surplus;
  std::vector<Delta> deficit;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const std::int64_t d = profiles[i].remaining - assignment[i];
    if (d > 0) surplus.push_back({profiles[i].proc, d});
    if (d < 0) deficit.push_back({profiles[i].proc, -d});
  }
  std::vector<Transfer> transfers;
  std::size_t si = 0;
  std::size_t di = 0;
  while (si < surplus.size() && di < deficit.size()) {
    const std::int64_t amount = std::min(surplus[si].amount, deficit[di].amount);
    transfers.push_back(Transfer{surplus[si].proc, deficit[di].proc, amount});
    surplus[si].amount -= amount;
    deficit[di].amount -= amount;
    if (surplus[si].amount == 0) ++si;
    if (deficit[di].amount == 0) ++di;
  }
  return transfers;
}

Decision decide(std::span<const ProfileSnapshot> profiles, const DlbConfig& config) {
  Decision decision;
  decision.assignment = compute_distribution(profiles);
  decision.total_remaining = 0;
  for (const auto& p : profiles) decision.total_remaining += p.remaining;
  decision.to_move = work_to_move(profiles, decision.assignment);

  const bool below_threshold = move_below_threshold(decision.to_move, decision.total_remaining,
                                                    config.move_threshold_fraction);
  if (!below_threshold) {
    decision.profitability =
        analyze_profitability(profiles, decision.assignment, config.profitability_margin);
    if (decision.profitability.profitable) {
      decision.moved = true;
      decision.transfers = plan_transfers(profiles, decision.assignment);
    }
  }

  // Processors that end the round with nothing go idle (dlb.more_work =
  // false in the paper's Fig. 3): no assignment after a move, or already out
  // of work when no move happens.
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (!profiles[i].active) continue;
    const std::int64_t left = decision.moved ? decision.assignment[i] : profiles[i].remaining;
    if (left == 0) decision.newly_inactive.push_back(profiles[i].proc);
  }
  return decision;
}

}  // namespace dlb::core
