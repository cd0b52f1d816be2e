#pragma once

#include <any>
#include <cstddef>
#include <optional>
#include <span>

#include "load/load_function.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace dlb::cluster {

/// One simulated workstation: a CPU with bare speed S_i (relative to the base
/// processor), an external load function l_i(t), and a network endpoint.
/// The CPU's instantaneous effective rate is
///     base_ops_per_sec * S_i / (l_i(t) + 1)     (paper §4.2).
///
/// The CPU is an exclusive FIFO resource shared by every coroutine running on
/// the station: computation, message packing (o_s), and message unpacking
/// (o_r) all contend for it.  This is what makes a *centralized* load
/// balancer collocated with a compute slave expensive — the balancer's
/// profile receives and instruction sends steal cycles from the computation,
/// the "context switching" overhead the paper blames for LCDLB's ordering
/// (§6.2).
class Workstation {
 public:
  Workstation(int id, double speed, double base_ops_per_sec, load::LoadFunction load_function,
              sim::Engine& engine, net::Network& network,
              sim::SimTime cpu_quantum = sim::from_seconds(0.02));
  Workstation(const Workstation&) = delete;
  Workstation& operator=(const Workstation&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] double speed() const noexcept { return speed_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] sim::Mailbox& mailbox() noexcept { return mailbox_; }
  /// Mutable access drops the cached load segment compute() reads.
  [[nodiscard]] load::LoadFunction& load_function() noexcept {
    segment_ = {};
    return load_;
  }

  /// Executes `ops` basic operations, advancing virtual time through however
  /// many external-load segments the work spans.  The CPU is held for at
  /// most one quantum at a time; each slice boundary (quantum end, load
  /// segment end, finish) is an engine tick, and the coroutine resumes only
  /// where a boundary is observable: power-off, finish, or a quantum end
  /// with another coroutine waiting for the CPU.
  [[nodiscard]] sim::Task<void> compute(double ops);

  /// Occupies the CPU for a fixed duration (kernel-side work such as message
  /// unpacking, which is not slowed by user-level external load).
  [[nodiscard]] sim::Task<void> busy(sim::SimTime duration);

  /// Sends a message (pays sender CPU overhead; delivery is asynchronous).
  /// `droppable` is the fault-layer loss marking; it has no effect unless a
  /// drop hook is installed on the network.
  [[nodiscard]] sim::Task<void> send(int dst, int tag, std::any payload, std::size_t bytes,
                                     bool droppable = true);

  /// Multicasts to every destination except `id()` (pvm_mcast semantics:
  /// pack once, cheaper follow-up sends).
  [[nodiscard]] sim::Task<void> multicast(std::span<const int> dsts, int tag, std::any payload,
                                          std::size_t bytes, bool droppable = true);

  /// Blocking receive (pays receiver CPU overhead at consume time).
  [[nodiscard]] sim::Task<sim::Message> receive(int tag = sim::kAnyTag,
                                                int source = sim::kAnySource);

  /// Receive with a deadline over a closed tag range; yields nullopt on
  /// timeout.  The unpack overhead is paid only when a message arrived.
  [[nodiscard]] sim::Task<std::optional<sim::Message>> receive_until(
      sim::SimTime deadline, int tag_lo, int tag_hi, int source = sim::kAnySource);

  /// Non-blocking poll, free of CPU cost — the interrupt check between loop
  /// iterations.
  [[nodiscard]] std::optional<sim::Message> poll(int tag = sim::kAnyTag,
                                                 int source = sim::kAnySource);

  /// Non-blocking poll over a closed tag range, free of CPU cost.
  [[nodiscard]] std::optional<sim::Message> poll_range(int tag_lo, int tag_hi,
                                                       int source = sim::kAnySource);

  /// Fault-layer kill switch.  A powered-off station's compute/busy/send
  /// coroutines bail out at their next scheduling point instead of burning
  /// virtual time on a machine that no longer exists; `power_on` models the
  /// owner returning the workstation (revocation end).
  void power_off() noexcept { off_ = true; }
  void power_on() noexcept { off_ = false; }
  [[nodiscard]] bool powered_off() const noexcept { return off_; }

  /// Effective ops/sec at time `t` given the current external load level.
  [[nodiscard]] double effective_rate_at(sim::SimTime t);

  /// Total operations this station has executed.
  [[nodiscard]] double ops_executed() const noexcept { return ops_executed_; }

  /// The station's CPU (exclusive, FIFO).  Exposed for protocols that model
  /// extra on-node work (e.g. the balancer's distribution calculation).
  [[nodiscard]] sim::Resource& cpu() noexcept { return cpu_; }

 private:
  struct SliceRun;
  static void slice_tick(void* run) noexcept;

  int id_;
  double speed_;
  double base_ops_per_sec_;
  load::LoadFunction load_;
  sim::Engine& engine_;
  net::Network& network_;
  sim::Mailbox mailbox_;
  sim::Resource cpu_;
  sim::SimTime cpu_quantum_;
  double ops_executed_ = 0.0;
  bool off_ = false;
  // The load segment compute() last read (levels never change once drawn)
  // and its effective rate; `segment_.end == 0` forces a refresh.
  load::LoadFunction::Segment segment_{};
  double segment_rate_ = 0.0;
};

}  // namespace dlb::cluster
