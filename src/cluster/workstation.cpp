#include "cluster/workstation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dlb::cluster {

Workstation::Workstation(int id, double speed, double base_ops_per_sec,
                         load::LoadFunction load_function, sim::Engine& engine,
                         net::Network& network, sim::SimTime cpu_quantum)
    : id_(id),
      speed_(speed),
      base_ops_per_sec_(base_ops_per_sec),
      load_(std::move(load_function)),
      engine_(engine),
      network_(network),
      mailbox_(engine),
      cpu_(engine, 1),
      cpu_quantum_(cpu_quantum) {
  if (speed <= 0.0) throw std::invalid_argument("Workstation: speed must be positive");
  if (base_ops_per_sec <= 0.0) throw std::invalid_argument("Workstation: rate must be positive");
  network_.attach(id, mailbox_);
}

double Workstation::effective_rate_at(sim::SimTime t) {
  return base_ops_per_sec_ * speed_ / load_.slowdown_at(t);
}

/// The state of one compute() call, kept in its coroutine frame: other
/// coroutines (a collocated balancer under LCDLB) compute on the same CPU
/// between this call's quanta.  Awaiting it starts a quantum at now; each
/// slice boundary the work then crosses is a tick that redoes the slice
/// arithmetic and arms the next tick, and the awaiting coroutine resumes
/// only at a boundary it must act on.  The arithmetic, and the (at, seq) of
/// every boundary, are those of sleeping to each boundary in turn.
struct Workstation::SliceRun {
  Workstation& ws;
  double remaining;
  sim::SimTime quantum_end = 0;
  std::coroutine_handle<> waiter;

  bool await_ready() {
    quantum_end = ws.cpu_quantum_ > 0 ? ws.engine_.now() + ws.cpu_quantum_ : sim::kTimeInfinity;
    return !slice();
  }
  void await_suspend(std::coroutine_handle<> h) noexcept { waiter = h; }
  void await_resume() const noexcept {}

  /// Runs the work from now to the next boundary.  Returns true when that
  /// boundary is armed as a tick; false when the work finished at now.
  bool slice() noexcept {
    const sim::SimTime now = ws.engine_.now();
    if (now >= ws.segment_.end) {
      ws.segment_ = ws.load_.segment_at(now);
      ws.segment_rate_ = ws.base_ops_per_sec_ * ws.speed_ / (1.0 + ws.segment_.level);
    }
    const double rate = ws.segment_rate_;
    const sim::SimTime finish_at = now + sim::from_seconds(remaining / rate);
    const sim::SimTime stop_at = std::min({finish_at, ws.segment_.end, quantum_end});
    if (stop_at >= finish_at) {
      remaining = 0.0;
      if (finish_at <= now) return false;
      ws.engine_.schedule_tick(finish_at, &Workstation::slice_tick, this);
      return true;
    }
    remaining -= rate * sim::to_seconds(stop_at - now);
    ws.engine_.schedule_tick(stop_at, &Workstation::slice_tick, this);
    return true;
  }
};

void Workstation::slice_tick(void* ctx) noexcept {
  auto& run = *static_cast<SliceRun*>(ctx);
  Workstation& ws = run.ws;
  if (ws.off_ || !(run.remaining > 0.0)) {
    run.waiter.resume();
    return;
  }
  const sim::SimTime now = ws.engine_.now();
  if (now >= run.quantum_end) {
    // Quantum end: yield the CPU through its FIFO queue.  With nobody
    // waiting, release + acquire would hand it straight back, so the next
    // quantum starts here without resuming the coroutine.
    if (ws.cpu_.waiting() > 0) {
      run.waiter.resume();
      return;
    }
    run.quantum_end = now + ws.cpu_quantum_;
  }
  if (!run.slice()) run.waiter.resume();
}

sim::Task<void> Workstation::compute(double ops) {
  if (ops < 0.0) throw std::invalid_argument("Workstation: negative work");
  if (ops == 0.0) co_return;
  SliceRun run{*this, ops, 0, {}};
  do {
    // Hold the CPU for at most one scheduling quantum, then yield through
    // the FIFO queue: a waiting coroutine (e.g. the centralized balancer)
    // gets in, approximating Unix round-robin timesharing.
    co_await cpu_.acquire();
    if (off_) {
      cpu_.release();
      co_return;
    }
    co_await run;
    if (off_) {
      cpu_.release();
      co_return;
    }
    cpu_.release();
  } while (run.remaining > 0.0);
  ops_executed_ += ops;
}

sim::Task<void> Workstation::busy(sim::SimTime duration) {
  if (duration <= 0) co_return;
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  co_await engine_.sleep_for(duration);
  cpu_.release();
}

sim::Task<void> Workstation::send(int dst, int tag, std::any payload, std::size_t bytes,
                                  bool droppable) {
  // Packing + transmit syscall occupy this station's CPU (the o_s inside
  // Network::send is the sender-side sleep).
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  co_await network_.send(id_, dst, tag, std::move(payload), bytes, 1.0, droppable);
  cpu_.release();
}

sim::Task<void> Workstation::multicast(std::span<const int> dsts, int tag, std::any payload,
                                       std::size_t bytes, bool droppable) {
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  co_await network_.multicast(id_, dsts, tag, std::move(payload), bytes, droppable);
  cpu_.release();
}

sim::Task<sim::Message> Workstation::receive(int tag, int source) {
  // Block (CPU free) until the message arrives, then pay the unpack cost on
  // this station's CPU.
  sim::Message message = co_await mailbox_.receive(tag, source);
  co_await cpu_.acquire();
  co_await engine_.sleep_for(network_.params().receiver_overhead);
  cpu_.release();
  co_return message;
}

sim::Task<std::optional<sim::Message>> Workstation::receive_until(sim::SimTime deadline,
                                                                  int tag_lo, int tag_hi,
                                                                  int source) {
  std::optional<sim::Message> message =
      co_await mailbox_.receive_until(deadline, tag_lo, tag_hi, source);
  if (message && !off_) {
    co_await cpu_.acquire();
    co_await engine_.sleep_for(network_.params().receiver_overhead);
    cpu_.release();
  }
  co_return message;
}

std::optional<sim::Message> Workstation::poll(int tag, int source) {
  return mailbox_.try_receive(tag, source);
}

std::optional<sim::Message> Workstation::poll_range(int tag_lo, int tag_hi, int source) {
  return mailbox_.try_receive_range(tag_lo, tag_hi, source);
}

}  // namespace dlb::cluster
