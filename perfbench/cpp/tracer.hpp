#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the host's steady clock.
[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Median of host-time samples (0 for none).
[[nodiscard]] double median(std::vector<double> samples);

/// One host-time span around a call into a simulator layer.  Times are
/// nanoseconds since the tracer's epoch; `parent` is the id of the span that
/// caused this one (-1 for a root).
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;
  int thread = 0;  // small per-tracer thread number, 0 = the first thread seen
};

/// In-memory span recorder.  Spans are appended under a mutex (the pool
/// workers of a sweep record concurrently) and written out once, when the
/// benchmark ends.  A null Tracer* disarms every Span, so the untraced run
/// pays one pointer test per layer call.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] int begin(const char* name, int parent);
  void end(int id);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Per-name totals: count, summed duration and summed self time (duration
  /// minus the union of its children's intervals, clipped to the span).
  struct Total {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<Total> totals() const;

  /// Writes every span as a JSON array of objects.
  void write_json(std::ostream& os) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;  // guards spans_ and threads_
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> threads_;  // hashed std::thread::id per thread number
};

/// RAII span.  The parent defaults to the innermost open span of the calling
/// thread; work handed to another thread passes its parent id explicitly.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

  static constexpr int kInheritParent = -2;

 private:
  Tracer* tracer_;
  int id_ = -1;
  int saved_current_ = -1;
};

}  // namespace perfbench
