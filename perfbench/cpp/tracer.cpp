#include "tracer.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <ostream>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

thread_local int t_current_span = -1;

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int Tracer::begin(const char* name, int parent) {
  const std::int64_t start = now_ns();
  const std::size_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find(threads_.begin(), threads_.end(), tid);
  if (it == threads_.end()) it = threads_.insert(threads_.end(), tid);
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start;
  rec.end_ns = start;
  rec.id = static_cast<int>(spans_.size());
  rec.parent = parent;
  rec.thread = static_cast<int>(it - threads_.begin());
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::end(int id) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Tracer::Total> Tracer::totals() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(all.size());
  for (const SpanRecord& s : all) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, Total> by_name;
  for (const SpanRecord& s : all) {
    auto& kids = children[static_cast<std::size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent: concurrent
    // children (pool workers) must not be subtracted twice.
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t a = std::max(lo, reach);
      const std::int64_t b = std::min(hi, s.end_ns);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, s.end_ns));
    }
    Total& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  std::vector<Total> out;
  out.reserve(by_name.size());
  for (auto& [name, total] : by_name) out.push_back(std::move(total));
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  const std::vector<SpanRecord> all = spans();
  os << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
       << "\",\"thread\":" << s.thread << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

Span::Span(Tracer* tracer, const char* name, int parent) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->begin(name, parent == kInheritParent ? t_current_span : parent);
  saved_current_ = t_current_span;
  t_current_span = id_;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->end(id_);
  t_current_span = saved_current_;
}

}  // namespace perfbench
