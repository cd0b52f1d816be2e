#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace dlb::obs {

/// Protocol phases a workstation can be observed in.  One span kind per
/// phase of the paper's run-time library (plus the fault layer's recovery
/// and the central-task-queue handout), so a Chrome trace shows *why* a
/// processor was not computing, not just that it wasn't.
enum class PhaseKind {
  kSync,        // whole synchronization round (interrupt to verdict applied)
  kProfile,     // profile exchange inside a round
  kShipment,    // shipping / collecting migrated work
  kRecovery,    // re-executing a dead workstation's iterations
  kSequential,  // inter-loop sequential phase (gather/compute/scatter)
  kChunk,       // central-task-queue chunk handout
};
inline constexpr int kPhaseKindCount = 6;
[[nodiscard]] const char* phase_name(PhaseKind k) noexcept;

/// Point events.
enum class InstantKind {
  kInterrupt,  // a finisher initiated a synchronization
  kDeath,      // workstation crashed or was revoked
  kRejoin,     // revoked workstation returned
  kRetry,      // fault-tolerant protocol retransmission
  kDrop,       // frame lost on the wire
  kHandout,    // central queue handed a chunk to a worker
};
[[nodiscard]] const char* instant_name(InstantKind k) noexcept;

struct PhaseEvent {
  int proc = 0;
  PhaseKind kind = PhaseKind::kSync;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
  std::int64_t detail = 0;  // kind-specific (round, iterations, chunk size)
};

struct InstantEvent {
  int proc = 0;
  InstantKind kind = InstantKind::kInterrupt;
  sim::SimTime at = 0;
  std::int64_t detail = 0;
};

/// One frame on the wire, recorded by net::Network at send time (delivery
/// time is already decided there, so one record captures the whole flight).
struct MessageEvent {
  int src = 0;
  int dst = 0;
  int tag = 0;
  std::size_t bytes = 0;
  sim::SimTime sent = 0;
  sim::SimTime delivered = 0;
  bool dropped = false;
};

/// Sample of a numeric series over virtual time (event-queue depth, arena
/// occupancy).  `series` must be a string literal: samples are taken on hot
/// paths and must not allocate.
struct SampleEvent {
  const char* series = "";
  sim::SimTime at = 0;
  double value = 0.0;
};

/// One executed loop iteration on a workstation.
struct ComputeSlice {
  int proc = 0;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

/// Deterministic per-run observability recorder — the one record of a run:
/// protocol phase spans, per-iteration compute slices (when armed), point
/// events, per-frame message records, counter samples, and a metrics
/// registry — everything stamped with virtual time, appended in engine
/// event order, so a recording replays byte-identically at any host thread
/// count.  Activity views (Chrome trace tracks, Gantt charts) are
/// projections of it; see activity_spans.
///
/// Arming discipline (same bar as the fault layer): every instrumentation
/// site holds a `Recorder*` that is null when observability is off, so the
/// disarmed cost is one predicted-not-taken branch per site and the
/// simulated virtual time is untouched either way — recording never costs
/// virtual time, only host time.
class Recorder {
 public:
  /// `compute_slices` arms compute_slice(): one slice per executed iteration is
  /// the bulk of a recording, so only the activity views ask for it.
  explicit Recorder(bool compute_slices = false);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Throws std::invalid_argument for a negative proc or end < begin.
  void phase(int proc, PhaseKind kind, sim::SimTime begin, sim::SimTime end,
             std::int64_t detail = 0);
  /// Records one iteration's compute slice; a no-op unless armed at
  /// construction.  Slices feed no metric, so arming them leaves
  /// metrics() unchanged.  Same rejections as phase().
  void compute_slice(int proc, sim::SimTime begin, sim::SimTime end);
  void instant(int proc, InstantKind kind, sim::SimTime at, std::int64_t detail = 0);
  void message(int src, int dst, int tag, std::size_t bytes, sim::SimTime sent,
               sim::SimTime delivered, bool dropped);
  void sample(const char* series, sim::SimTime at, double value);

  [[nodiscard]] const std::vector<PhaseEvent>& phases() const noexcept { return phases_; }
  [[nodiscard]] const std::vector<ComputeSlice>& compute_slices() const noexcept {
    return compute_slices_;
  }
  [[nodiscard]] const std::vector<InstantEvent>& instants() const noexcept { return instants_; }
  [[nodiscard]] const std::vector<MessageEvent>& messages() const noexcept { return messages_; }
  [[nodiscard]] const std::vector<SampleEvent>& samples() const noexcept { return samples_; }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

 private:
  bool slices_armed_ = false;
  std::vector<PhaseEvent> phases_;
  std::vector<ComputeSlice> compute_slices_;
  std::vector<InstantEvent> instants_;
  std::vector<MessageEvent> messages_;
  std::vector<SampleEvent> samples_;

  MetricsRegistry metrics_;
  // Cached instruments for the per-event updates.
  Counter* msg_count_ = nullptr;
  Counter* msg_bytes_ = nullptr;
  Counter* msg_dropped_ = nullptr;
  Histogram* msg_size_hist_ = nullptr;
  Histogram* phase_seconds_[kPhaseKindCount] = {};
};

/// One labelled activity span on a workstation track.
struct ActivitySpan {
  int proc = 0;
  const char* name = "";  // "compute" | "sync" | "move" | "recover"
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

/// What each workstation was doing, projected from a recording: its compute
/// slices, then its sync, shipment and recovery phases as "sync", "move"
/// and "recover".  Zero-length spans are left out; gaps are idle time.
[[nodiscard]] std::vector<ActivitySpan> activity_spans(const Recorder& recorder);

}  // namespace dlb::obs
