#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dlb::sim {

/// 32-byte POD queue record shared by every EventQueue implementation.
/// `payload` is either a CallNode* or the address of a coroutine handle,
/// discriminated by `is_call`.  Ordering is the strict total order
/// (at, seq): virtual time first, insertion sequence as the tie-break, so
/// any two queue implementations that respect it pop identical sequences.
struct Event {
  SimTime at;
  std::uint64_t seq;
  std::uintptr_t payload;
  bool is_call;
};

[[nodiscard]] inline bool earlier(const Event& a, const Event& b) noexcept {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}

namespace detail {

// 4-ary sift helpers shared by the reference heap and the calendar queue's
// epoch front: shallower than a binary heap and the four children of a node
// share a cache line of 32-byte records, so sift-down — the cost center of a
// pop-heavy discrete-event loop — touches fewer lines.
inline void heap4_push(std::vector<Event>& h, Event ev) noexcept {
  h.push_back(ev);
  std::size_t i = h.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(h[i], h[parent])) break;
    std::swap(h[i], h[parent]);
    i = parent;
  }
}

/// Removes the root (already read by the caller) and restores the heap.
inline void heap4_pop(std::vector<Event>& h) noexcept {
  const Event last = h.back();
  h.pop_back();
  const std::size_t n = h.size();
  if (n == 0) return;
  std::size_t i = 0;  // sift the former tail down from the root hole
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    if (!earlier(h[best], last)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = last;
}

}  // namespace detail

/// Reference event queue: one 4-ary min-heap on (at, seq).  O(log n) per
/// operation at any occupancy; kept as the oracle the calendar queue is
/// differential-tested against (tests/sim_queue_differential_test.cpp) and
/// selectable engine-wide with -DDLB_EVENT_QUEUE=heap.
class HeapEventQueue {
 public:
  static constexpr const char* kName = "heap";

  /// Never throws mid-run: the vector grows geometrically and allocation
  /// failure terminates rather than corrupting the (time, seq) contract.
  void push(Event ev) noexcept { detail::heap4_push(events_, ev); }

  /// Requires !empty().  The reference stays valid until the next mutation.
  [[nodiscard]] const Event& front() noexcept { return events_.front(); }

  void pop_front() noexcept { detail::heap4_pop(events_); }

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Visits every pending event in unspecified order (engine teardown).
  template <typename Fn>
  void visit_all(Fn&& fn) const {
    for (const Event& ev : events_) fn(ev);
  }

 private:
  std::vector<Event> events_;  // 4-ary min-heap on (at, seq)
};

/// Calendar-queue event core: O(1) amortized push/pop at high occupancy.
///
/// Layout (DESIGN.md §5.2): virtual time is divided into fixed-width *days*
/// (`width_` ns each); `nbuckets_` (a power of two) days make a *year*.  A
/// pending event lives in one of three disjoint time bands:
///
///   front_    — the current *epoch*: every event with at <= epoch_end_,
///               held in a small 4-ary heap so pops inside the epoch stay
///               strictly (at, seq)-ordered.
///   buckets_  — the calendar: epoch_end_ < at < horizon_, day-hashed by
///               (at / width_) mod nbuckets_; a bucket may hold events from
///               several years and is filtered by day window on extraction.
///   overflow_ — the ladder rung for far-future timers: at >= horizon_,
///               unsorted; re-seeded into a re-tuned calendar when the
///               buckets drain.
///
/// Popping drains the epoch heap; when it empties the next epoch is formed
/// by scanning days circularly from the floor of the calendar band and
/// extracting one day's events in bulk (the batched bucket drain).  A full
/// empty-year scan falls back to a direct min search and jumps, so sparse
/// queues cannot spin day by day.  New events inside the current epoch go
/// straight to the epoch heap; later events are routed by band.  Since the
/// three bands partition time and each hands over whole prefixes, the pop
/// sequence is exactly the (at, seq) order the reference heap produces.
///
/// Resize policy: the band is re-laid-out when its occupancy doubles (push
/// side) or halves (epoch side) relative to the last layout.  Each rebuild
/// re-tunes width_ — the median positive gap of a deterministic 64-event
/// stride sample, divided by the stride (the sample dilutes true density by
/// that factor), doubled, and rounded up to a power of two so day hashing is
/// a shift, not a 64-bit division — and then sizes the year to the band's
/// actual day span (16..2^14 buckets), so the header array tracks the time
/// spread rather than the event count and tie-dense narrow bands stay cache
/// resident.  Occupancy alone misses distribution drift at constant size, so
/// an epoch that extracts far more events than the tuned width predicts also
/// schedules a re-tune — rate-limited to one per full queue turnover, and
/// never at the 1 ns width floor, so tie-heavy workloads cannot thrash.
class CalendarEventQueue {
 public:
  static constexpr const char* kName = "calendar";

  CalendarEventQueue();

  /// Never throws mid-run: bucket growth is geometric and allocation failure
  /// terminates rather than corrupting the (time, seq) contract.
  void push(Event ev) noexcept;

  /// Requires !empty().  Forms the next epoch if the current one drained;
  /// the reference stays valid until the next mutation.
  [[nodiscard]] const Event& front() noexcept;

  void pop_front() noexcept;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Visits every pending event in unspecified order (engine teardown).
  template <typename Fn>
  void visit_all(Fn&& fn) const {
    for (const Event& ev : front_) fn(ev);
    for (const std::vector<Event>& bucket : buckets_) {
      for (const Event& ev : bucket) fn(ev);
    }
    for (const Event& ev : overflow_) fn(ev);
  }

  /// Introspection for tests/benches: current day width and bucket count.
  [[nodiscard]] SimTime bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

 private:
  [[nodiscard]] std::size_t day_of(SimTime at) const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(at) >> shift_);
  }

  void route(Event ev) noexcept;             // pre: ev.at > epoch_end_
  void form_epoch() noexcept;                // pre: front_ empty, size_ > 0
  bool extract_day(std::uint64_t day) noexcept;  // one day's window → front_
  void rebuild() noexcept;                   // re-derive width, buckets, horizon
  [[nodiscard]] SimTime tune_width() noexcept;  // from scratch_ contents

  std::vector<Event> front_;                 // epoch heap: at <= epoch_end_
  std::vector<std::vector<Event>> buckets_;  // epoch_end_ < at < horizon_
  std::vector<Event> overflow_;              // at >= horizon_
  std::vector<Event> scratch_;               // rebuild staging, capacity reused
  SimTime width_;                            // day width, a power of two >= 1
  std::uint32_t shift_;                      // log2(width_): day hash is a shift
  SimTime epoch_end_ = -1;                   // inclusive bound of front_
  SimTime horizon_;                          // calendar/overflow boundary
  std::size_t cal_count_ = 0;                // events in buckets_
  std::size_t size_ = 0;
  std::size_t grow_at_ = 32;                 // rebuild when cal_count_ exceeds
  std::size_t shrink_at_ = 0;                // rebuild when cal_count_ drops below
  std::size_t pops_since_rebuild_ = 0;       // re-tune rate limiter
  bool retune_pending_ = false;              // oversized epoch seen
};

/// A bare callback record for the engine's tick heap: `fn(ctx)` at `at`.
/// `seq` comes from the same insertion counter as every Event, so ticks and
/// events share one strict (at, seq) order.
using TickFn = void (*)(void* ctx) noexcept;
struct Tick {
  SimTime at;
  std::uint64_t seq;
  TickFn fn;
  void* ctx;
};

[[nodiscard]] inline bool earlier(const Tick& a, const Tick& b) noexcept {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}
[[nodiscard]] inline bool earlier(const Tick& a, const Event& b) noexcept {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}

/// Binary min-heap of ticks on (at, seq), kept beside the event queue for
/// callbacks that re-arm themselves on every firing (one pending tick per
/// simulated CPU, so the heap stays tiny).  The root being dispatched is
/// not pending: it is excluded from size(), and the first push made while
/// it runs overwrites its slot (replace-top), so a self-re-arming tick
/// costs one sift-down instead of a pop plus a push.
class TickHeap {
 public:
  void push(Tick t) noexcept {
    if (in_dispatch_) {
      in_dispatch_ = false;
      sift_down(t);
      return;
    }
    heap_.push_back(t);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(t, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = t;
  }

  /// Requires !empty() and no dispatch in progress.
  [[nodiscard]] const Tick& top() const noexcept { return heap_.front(); }

  /// Runs the root's callback, then drops the root unless the callback
  /// re-armed into its slot.  Requires !empty().
  void dispatch_top() noexcept {
    const Tick t = heap_.front();
    in_dispatch_ = true;
    t.fn(t.ctx);
    if (in_dispatch_) {
      in_dispatch_ = false;
      const Tick last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(last);
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() - (in_dispatch_ ? 1 : 0);
  }

 private:
  void sift_down(Tick t) noexcept {  // fills the root hole with t
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
      if (!earlier(heap_[child], t)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = t;
  }

  std::vector<Tick> heap_;
  bool in_dispatch_ = false;  // heap_.front() is the tick being dispatched
};

template <typename Q>
concept EventQueueLike = requires(Q q, const Q cq, Event ev) {
  { q.push(ev) } noexcept;
  { q.front() } -> std::same_as<const Event&>;
  q.pop_front();
  { cq.empty() } -> std::convertible_to<bool>;
  { cq.size() } -> std::convertible_to<std::size_t>;
};

static_assert(EventQueueLike<HeapEventQueue>);
static_assert(EventQueueLike<CalendarEventQueue>);

/// Engine-wide selection, fixed at configure time (-DDLB_EVENT_QUEUE=heap
/// rebuilds every consumer against the reference heap; calendar is the
/// default).  A compile-time switch keeps the Engine facade monomorphic —
/// no per-event virtual dispatch — while the differential harness still
/// exercises both classes in one binary.
#if defined(DLB_EVENT_QUEUE_HEAP)
using EngineEventQueue = HeapEventQueue;
#else
using EngineEventQueue = CalendarEventQueue;
#endif

}  // namespace dlb::sim
