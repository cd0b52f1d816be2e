#include "obs/recorder.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace dlb::obs {

namespace {

// Wire sizes land in one of these (control messages are ~100 B, shipments
// grow with the migrated iteration count).
constexpr std::array<double, 6> kMsgSizeBounds{64, 256, 1024, 4096, 16384, 65536};
// Virtual seconds a protocol phase may plausibly span.
constexpr std::array<double, 6> kPhaseSecondsBounds{0.001, 0.01, 0.1, 1.0, 10.0, 100.0};

void check_span(int proc, sim::SimTime begin, sim::SimTime end) {
  if (proc < 0) throw std::invalid_argument("Recorder: negative proc");
  if (end < begin) throw std::invalid_argument("Recorder: reversed span");
}

/// Activity label of a phase, or null for phases no activity view shows.
const char* activity_label(PhaseKind k) noexcept {
  switch (k) {
    case PhaseKind::kSync:
      return "sync";
    case PhaseKind::kShipment:
      return "move";
    case PhaseKind::kRecovery:
      return "recover";
    default:
      return nullptr;
  }
}

}  // namespace

const char* phase_name(PhaseKind k) noexcept {
  switch (k) {
    case PhaseKind::kSync:
      return "sync";
    case PhaseKind::kProfile:
      return "profile";
    case PhaseKind::kShipment:
      return "shipment";
    case PhaseKind::kRecovery:
      return "recovery";
    case PhaseKind::kSequential:
      return "sequential";
    case PhaseKind::kChunk:
      return "chunk";
  }
  return "?";
}

const char* instant_name(InstantKind k) noexcept {
  switch (k) {
    case InstantKind::kInterrupt:
      return "interrupt";
    case InstantKind::kDeath:
      return "death";
    case InstantKind::kRejoin:
      return "rejoin";
    case InstantKind::kRetry:
      return "retry";
    case InstantKind::kDrop:
      return "drop";
    case InstantKind::kHandout:
      return "handout";
  }
  return "?";
}

Recorder::Recorder(bool compute_slices) : slices_armed_(compute_slices) {
  msg_count_ = &metrics_.counter("net.messages");
  msg_bytes_ = &metrics_.counter("net.bytes");
  msg_dropped_ = &metrics_.counter("net.dropped");
  msg_size_hist_ = &metrics_.histogram("net.msg_bytes", kMsgSizeBounds);
  for (int k = 0; k < kPhaseKindCount; ++k) {
    phase_seconds_[k] = &metrics_.histogram(
        std::string("proto.") + phase_name(static_cast<PhaseKind>(k)) + "_seconds",
        kPhaseSecondsBounds);
  }
}

void Recorder::phase(int proc, PhaseKind kind, sim::SimTime begin, sim::SimTime end,
                     std::int64_t detail) {
  check_span(proc, begin, end);
  phases_.push_back({proc, kind, begin, end, detail});
  phase_seconds_[static_cast<int>(kind)]->observe(sim::to_seconds(end - begin));
}

void Recorder::compute_slice(int proc, sim::SimTime begin, sim::SimTime end) {
  if (!slices_armed_) return;
  check_span(proc, begin, end);
  compute_slices_.push_back({proc, begin, end});
}

void Recorder::instant(int proc, InstantKind kind, sim::SimTime at, std::int64_t detail) {
  instants_.push_back({proc, kind, at, detail});
}

void Recorder::message(int src, int dst, int tag, std::size_t bytes, sim::SimTime sent,
                       sim::SimTime delivered, bool dropped) {
  messages_.push_back({src, dst, tag, bytes, sent, delivered, dropped});
  msg_count_->increment();
  msg_bytes_->add(static_cast<double>(bytes));
  if (dropped) msg_dropped_->increment();
  msg_size_hist_->observe(static_cast<double>(bytes));
}

void Recorder::sample(const char* series, sim::SimTime at, double value) {
  samples_.push_back({series, at, value});
}

std::vector<ActivitySpan> activity_spans(const Recorder& recorder) {
  std::vector<ActivitySpan> spans;
  for (const auto& c : recorder.compute_slices()) {
    if (c.end != c.begin) spans.push_back({c.proc, "compute", c.begin, c.end});
  }
  for (const auto& p : recorder.phases()) {
    const char* name = activity_label(p.kind);
    if (name != nullptr && p.end != p.begin) spans.push_back({p.proc, name, p.begin, p.end});
  }
  return spans;
}

}  // namespace dlb::obs
