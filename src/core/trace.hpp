#pragma once

#include <iosfwd>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/time.hpp"

namespace dlb::core {

/// Read-only analyses of one run's activity: the obs::activity_spans
/// projection of its Recorder (compute slices only when the run set
/// DlbConfig::record_trace).  Gaps between spans are idle time.  Used by the
/// timeline example and the utilization analyses.
class Trace {
 public:
  explicit Trace(const obs::Recorder& recorder);

  [[nodiscard]] const std::vector<obs::ActivitySpan>& spans() const noexcept { return spans_; }
  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }
  [[nodiscard]] sim::SimTime span_end() const noexcept { return span_end_; }

  /// Busy time (all activity kinds) per processor, seconds.
  [[nodiscard]] std::vector<double> busy_seconds(int procs) const;
  /// Compute-only time per processor, seconds.
  [[nodiscard]] std::vector<double> compute_seconds(int procs) const;
  /// Compute utilization per processor: compute time / trace span.
  [[nodiscard]] std::vector<double> utilization(int procs) const;

  /// Renders an ASCII Gantt chart: one row per processor, `width` columns
  /// spanning [0, span_end]; '#' compute, 's' sync, 'm' move, 'r' recover,
  /// '.' idle.  For a column covering several kinds, the most specific
  /// (r > m > s > #) wins.  Degenerate inputs (procs <= 0, width <= 0, or an
  /// empty span) render as "(empty trace)" instead of dividing by the span.
  void render_gantt(std::ostream& os, int procs, int width = 80) const;

 private:
  std::vector<obs::ActivitySpan> spans_;
  sim::SimTime span_end_ = 0;
};

}  // namespace dlb::core
