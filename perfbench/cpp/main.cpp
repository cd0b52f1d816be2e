// perfbench: host time of the simulator on four workloads, end to end and
// layer by layer.  See perfbench/README.md for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--expect-digest=<hex>] [--commit=<id>] [--out-dir=<dir>]
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics (the end-to-end metrics untraced, the per-layer metrics traced).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "drivers.hpp"
#include "sim/engine.hpp"
#include "support/cli.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::median;
using perfbench::Rep;
using perfbench::seconds_since;

/// Set-up samples per untraced run; the reported setup_s is their median.
constexpr std::size_t kSetupSamples = 7;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string exact(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Peak resident set of this process image.  /proc's VmHWM starts afresh at
/// exec, whereas getrusage's ru_maxrss keeps the launching process's peak.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  perfbench::RunOptions run;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
  std::string commit = "unknown";
  std::string out_dir;
};

Options parse_options(int argc, char** argv) {
  const dlb::support::Cli cli(argc, argv);
  cli.reject_unknown(
      {"workload", "seed", "seconds", "trace", "expect-digest", "commit", "out-dir"});
  Options o;
  o.run.workload = cli.get("workload", "");
  const long seed = cli.get_int("seed", 1000);
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  o.run.seed = static_cast<std::uint64_t>(seed);
  o.seconds = cli.get_double("seconds", 10.0);
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  const long trace = cli.get_int("trace", 0);
  if (trace != 0 && trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  o.trace = trace == 1;
  o.run.threads = static_cast<int>(std::min(4U, std::max(1U, std::thread::hardware_concurrency())));
  o.expect_digest = cli.get("expect-digest", "");
  o.commit = cli.get("commit", "unknown");
  o.out_dir = cli.get("out-dir", "");
  return o;
}

std::string host_json(const Options& o) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"threads\": " << o.run.threads
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
     << PERFBENCH_COMPILER << "\", \"event_queue\": \"" << dlb::sim::Engine::event_queue_name()
     << "\", \"commit\": \"" << o.commit << "\"}";
  return os.str();
}

void print_rep(const char* label, std::size_t i, const Rep& r) {
  std::cout << label << " " << i << ": setup " << exact(r.setup_s) << " s, wall " << exact(r.wall_s)
            << " s, cells " << r.cells << ", jobs " << r.jobs << ", failed " << r.failed << "/"
            << r.attempted << ", digest " << hex(r.digest)
            << (r.first_error.empty() ? "" : ", first error: " + r.first_error) << "\n";
}

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

/// Every repetition must reproduce the same digest, and at a seed with a
/// recorded digest it must be that one.
void check_digests(const std::vector<Rep>& reps, const Options& o, Verdict& v) {
  for (const Rep& r : reps) {
    v.attempted += r.attempted;
    v.failed += r.failed;
    if (r.digest != reps.front().digest) v.correct = false;
  }
  const std::string got = hex(reps.front().digest);
  if (!o.expect_digest.empty()) {
    const bool match = got == o.expect_digest;
    std::cout << "digest: " << got << " (recorded " << o.expect_digest << " for seed "
              << o.run.seed << ": " << (match ? "match" : "MISMATCH") << ")\n";
    if (!match) v.correct = false;
  } else {
    std::cout << "digest: " << got << " (no digest recorded for seed " << o.run.seed << ")\n";
  }
  if (v.failed != 0) v.correct = false;
}

void print_result(const Verdict& v, const std::vector<Metric>& metrics, const Options& o) {
  std::ostringstream os;
  os << "{\"correct\": " << (v.correct ? "true" : "false") << ", \"attempted\": " << v.attempted
     << ", \"failed\": " << v.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << exact(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  if (!o.out_dir.empty()) {
    std::filesystem::create_directories(o.out_dir);
    std::ofstream record(o.out_dir + "/" + o.run.workload + "-seed" + std::to_string(o.run.seed) +
                         "-trace" + (o.trace ? "1" : "0") + ".json");
    record << "{\"host\": " << host_json(o) << ", \"workload\": \"" << o.run.workload
           << "\", \"seed\": " << o.run.seed << ", \"result\": " << os.str() << "}\n";
  }
  std::cout << os.str() << std::endl;
}

/// Untraced: repetitions until the time budget would be exceeded (at least
/// one), then extra set-ups until there are kSetupSamples of them.
int run_untraced(perfbench::Workload& w, const Options& o) {
  const auto start = Clock::now();
  std::vector<Rep> reps;
  std::vector<double> per_rep;
  // Peak RSS as of the first repetition: every repetition starts fresh pool
  // threads, whose allocator arenas would make a later reading depend on how
  // many repetitions fit in the time budget.
  double rss_mib = 0.0;
  for (;;) {
    reps.push_back(w.run(nullptr));
    if (reps.size() == 1) rss_mib = peak_rss_mib();
    print_rep("rep", reps.size(), reps.back());
    per_rep.push_back(reps.back().setup_s + reps.back().wall_s);
    if (seconds_since(start) + median(per_rep) > o.seconds) break;
  }
  std::vector<double> setups;
  for (const Rep& r : reps) setups.push_back(r.setup_s);
  while (setups.size() < kSetupSamples) setups.push_back(w.setup_only(nullptr));

  std::vector<double> walls;
  std::vector<double> cell_rates;
  std::vector<double> job_rates;
  for (const Rep& r : reps) {
    walls.push_back(r.wall_s);
    cell_rates.push_back(static_cast<double>(r.cells) / r.wall_s);
    job_rates.push_back(static_cast<double>(r.jobs) / r.wall_s);
  }
  Verdict v;
  check_digests(reps, o, v);
  const std::vector<Metric> metrics{
      {"wall_s", median(walls), "s"},
      {"setup_s", median(setups), "s"},
      {"cells_per_s", median(cell_rates), "1/s"},
      {"jobs_per_s", median(job_rates), "1/s"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
  std::cout << "summary: " << reps.size() << " reps, " << setups.size() << " set-ups;";
  for (const Metric& m : metrics) std::cout << " " << m.name << "=" << exact(m.value);
  const double failed_frac = static_cast<double>(v.failed) / static_cast<double>(v.attempted);
  std::cout << " failed_frac=" << exact(failed_frac) << " (" << v.failed << "/" << v.attempted
            << ")\n";
  print_result(v, metrics, o);
  return 0;
}

/// Traced: a warm-up, then one untraced and one traced repetition (their
/// ratio is the tracing overhead), the workload's layer pass, then the layer
/// drivers.
int run_traced(perfbench::Workload& w, const Options& o) {
  perfbench::Tracer tracer;
  std::vector<Rep> reps;
  // The first repetition in a process runs on cold arenas and pages; it is
  // checked like the others but kept out of the overhead ratio.
  reps.push_back(w.run(nullptr));
  print_rep("warm-up rep", 1, reps.back());
  reps.push_back(w.run(nullptr));
  print_rep("untraced rep", 2, reps.back());
  const double untraced_wall_s = reps.back().wall_s;
  {
    perfbench::Span root(&tracer, "workload");
    reps.push_back(w.run(&tracer));
  }
  print_rep("traced rep", 3, reps.back());
  const Rep& traced = reps.back();
  perfbench::LayerPass lp;
  {
    perfbench::Span root(&tracer, "layers");
    lp = w.layers(&tracer, traced);
  }

  const std::uint64_t seed = o.run.seed;
  double fanin16 = 0;
  double fanin2048 = 0;
  double fanin_w = 0;
  double send_shared = 0;
  double send_switched = 0;
  double hold = 0;
  std::size_t hold_depth = 0;
  double decide16 = 0;
  double decide2048 = 0;
  double predict = 0;
  double table = 0;
  double model_rate = 0;
  double shard = 0;
  {
    perfbench::Span root(&tracer, "drivers");
    fanin16 = perfbench::mailbox_match_ns(16, seed, &tracer);
    fanin2048 = perfbench::mailbox_match_ns(2048, seed, &tracer);
    if (lp.mailbox_fanin == 16) {
      fanin_w = fanin16;
    } else if (lp.mailbox_fanin == 2048) {
      fanin_w = fanin2048;
    } else {
      fanin_w = perfbench::mailbox_match_ns(lp.mailbox_fanin, seed, &tracer);
    }
    send_shared = perfbench::net_send_ns(false, 16, seed, &tracer);
    send_switched = perfbench::net_send_ns(true, 2048, seed, &tracer);
    hold = perfbench::hold_ns(static_cast<std::size_t>(lp.counters.peak_queue_depth), seed, &tracer,
                              &hold_depth);
    decide16 = perfbench::decide_us(16, seed, &tracer);
    decide2048 = perfbench::decide_us(2048, seed, &tracer);
    predict = perfbench::predict_us(seed, &tracer);
    table = perfbench::table_ms(seed, &tracer);
    model_rate = perfbench::svc_model_jobs_per_s(seed, &tracer);
    shard = perfbench::shard_speedup(o.run.threads, seed, &tracer);
  }

  const perfbench::Counters& k = lp.counters;
  const double run_s = lp.core_run_s;
  const double send_w = lp.switched ? send_switched : send_shared;
  const double mailbox_share = fanin_w * 1e-9 * k.msgs / run_s;
  const double queue_share = hold * 1e-9 * k.events / run_s;
  const double send_share = send_w * 1e-9 * k.msgs / run_s;
  double cell_sum = 0;
  for (const double c : traced.cell_s) cell_sum += c;

  const std::vector<Metric> metrics{
      {"sim.events", k.events, "count"},
      {"sim.peak_queue_depth", k.peak_queue_depth, "count"},
      {"sim.shard.max_share", k.max_shard_share, "ratio"},
      {"sim.events_per_s", k.events / run_s, "1/s"},
      {"sim.queue.hold_ns", hold, "ns"},
      {"sim.shard.speedup", shard, "ratio"},
      {"sim.mailbox.match_ns.fanin16", fanin16, "ns"},
      {"sim.mailbox.match_ns.fanin2048", fanin2048, "ns"},
      {"gap.mailbox_bound_share", mailbox_share, "ratio"},
      {"gap.queue_bound_share", queue_share, "ratio"},
      {"gap.send_bound_share", send_share, "ratio"},
      {"net.msgs", k.msgs, "count"},
      {"net.bytes", k.bytes, "count"},
      {"net.crossings", k.crossings, "count"},
      {"net.msgs_per_s", k.msgs / run_s, "1/s"},
      {"net.send_ns.shared", send_shared, "ns"},
      {"net.send_ns.switched", send_switched, "ns"},
      {"core.run_s", run_s, "s"},
      {"core.syncs", k.syncs, "count"},
      {"core.redistributions", k.redistributions, "count"},
      {"core.iters_moved", k.iters_moved, "count"},
      {"core.decide_us.p16", decide16, "us"},
      {"core.decide_us.p2048", decide2048, "us"},
      {"cluster.build_ms", median(lp.build_s) * 1e3, "ms"},
      {"exp.cells", static_cast<double>(traced.cell_s.size()), "count"},
      {"exp.cell_ms.p50", percentile(traced.cell_s, 0.50) * 1e3, "ms"},
      {"exp.cell_ms.p98", percentile(traced.cell_s, 0.98) * 1e3, "ms"},
      {"exp.parallel_eff", cell_sum / (traced.wall_s * lp.threads), "ratio"},
      {"exp.parallel_speedup", lp.serial_wall_s / traced.wall_s, "ratio"},
      {"exp.report_ms", lp.report_s * 1e3, "ms"},
      {"model.table_ms", table, "ms"},
      {"model.predict_us", predict, "us"},
      {"svc.model_jobs_per_s", model_rate, "1/s"},
      {"svc.switches", k.switches, "count"},
      {"svc.msgs", k.svc_msgs, "count"},
      {"trace.overhead_frac", traced.wall_s / untraced_wall_s - 1.0, "ratio"},
  };

  // Where the host time goes: span self times, then the layer bounds.
  std::cout << "spans (" << tracer.spans().size() << "):\n";
  for (const auto& t : tracer.totals()) {
    std::cout << "  " << std::left << std::setw(34) << t.name << std::right << std::setw(8)
              << t.count << "  total " << std::setw(10) << std::fixed << std::setprecision(4)
              << t.total_s << " s  self " << std::setw(10) << t.self_s << " s\n"
              << std::defaultfloat;
  }
  const auto pct = [](double share) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << share * 100.0 << "%";
    return os.str();
  };
  std::cout << std::fixed << std::setprecision(0) << "gap: core.run_s " << exact(run_s)
            << " s covers " << k.events << " events and " << k.msgs << " messages ("
            << std::defaultfloat << exact(run_s / std::max(1.0, k.msgs) * 1e9)
            << " ns of run per message)\n"
            << "gap:   event queue  hold model at depth " << hold_depth << ": " << exact(hold)
            << " ns/event x events <= " << pct(queue_share)
            << " of core.run_s (upper bound: uniform increments defeat the calendar's locality)\n"
            << "gap:   mailbox scan fan-in " << lp.mailbox_fanin << ": " << exact(fanin_w)
            << " ns/receive x messages <= " << pct(mailbox_share)
            << " (upper bound: every receive scans a full mailbox)\n"
            << "gap:   send path    " << (lp.switched ? "switched P=2048" : "shared P=16") << ": "
            << exact(send_w) << " ns/send x messages <= " << pct(send_share)
            << " (includes the send's own queue events, so it overlaps the queue share)\n"
            << "gap:   the rest, " << pct(1.0 - queue_share - mailbox_share - send_share)
            << " at most, is coroutine resume, protocol decide/apply and the load model, which "
               "no driver isolates; a negative rest means the bounds overlap\n";
  if (lp.sharded) {
    std::cout << "gap: shards=1 run " << exact(lp.serial_wall_s) << " s vs sharded "
              << exact(traced.wall_s) << " s; busiest shard carries " << pct(k.max_shard_share)
              << " of events (ideal speedup " << exact(1.0 / k.max_shard_share) << ")\n";
  }

  Verdict v;
  check_digests(reps, o, v);
  v.attempted += lp.attempted;
  v.failed += lp.failed;
  if (lp.failed != 0) {
    v.correct = false;
    std::cout << "layer pass failed: " << lp.first_error << "\n";
  }
  if (!o.out_dir.empty()) {
    std::filesystem::create_directories(o.out_dir);
    std::ofstream spans(o.out_dir + "/" + o.run.workload + "-seed" + std::to_string(seed) +
                        "-spans.json");
    tracer.write_json(spans);
  }
  print_result(v, metrics, o);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    auto workload = perfbench::make_workload(o.run);
    std::cout << "perfbench workload=" << o.run.workload << " seed=" << o.run.seed
              << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0) << "\n"
              << "host: " << host_json(o) << "\n";
    return o.trace ? run_traced(*workload, o) : run_untraced(*workload, o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
