#include "drivers.hpp"

#include <algorithm>
#include <any>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/policy.hpp"
#include "core/runtime.hpp"
#include "exp/pool.hpp"
#include "grids.hpp"
#include "model/predictor.hpp"
#include "net/characterize.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace {

using namespace dlb;

constexpr int kTag = 7;

/// Median per-call seconds of `fn` over `samples` timed batches, each batch
/// sized from one calibration call to last about `batch_s`.
template <typename Fn>
double per_call_s(Fn&& fn, int samples, double batch_s) {
  const auto c0 = Clock::now();
  fn();
  const double one = std::max(seconds_since(c0), 1e-9);
  const long calls = std::max(1L, static_cast<long>(batch_s / one));
  std::vector<double> out;
  for (int s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    for (long i = 0; i < calls; ++i) fn();
    out.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(out);
}

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<int> shuffled(int n, support::Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, i - 1));
    std::swap(order[static_cast<std::size_t>(i - 1)], order[j]);
  }
  return order;
}

sim::Process send_all(net::Network& network, int procs, int sends) {
  for (int i = 0; i < sends; ++i) {
    co_await network.send(0, 1 + i % (procs - 1), kTag, std::any(i), net::kControlMessageBytes);
  }
}

/// One hold-model event: pops, then pushes its replacement a uniform
/// increment later until the budget runs out.
struct HoldEvent {
  sim::Engine* engine;
  support::Rng* rng;
  std::uint64_t* budget;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    engine->schedule_at(engine->now() + rng->uniform_int(1, 2'000'000), *this);
  }
};

}  // namespace

double mailbox_match_ns(int fanin, std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, "driver.mailbox");
  // Several mailboxes per sample keep a sample near 64k receives at any
  // fan-in, long enough to time.
  const int boxes = std::max(1, 65536 / fanin);
  support::Rng rng(seed);
  sim::Engine engine;
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    std::deque<sim::Mailbox> mailboxes;
    for (int b = 0; b < boxes; ++b) {
      sim::Mailbox& box = mailboxes.emplace_back(engine);
      for (const int src : shuffled(fanin, rng)) {
        sim::Message m;
        m.source = src;
        m.tag = kTag;
        m.bytes = net::kControlMessageBytes;
        m.payload = src;
        box.deliver(std::move(m));
      }
    }
    const auto t0 = Clock::now();
    for (sim::Mailbox& box : mailboxes) {
      for (int src = 0; src < fanin; ++src) {
        const auto m = box.try_receive(kTag, src);
        if (!m || m->source != src) throw std::logic_error("mailbox driver: receive missed");
      }
    }
    samples.push_back(seconds_since(t0) * 1e9 / (static_cast<double>(boxes) * fanin));
  }
  return median(samples);
}

double net_send_ns(bool switched, int procs, std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, switched ? "driver.net.send.switched" : "driver.net.send.shared");
  constexpr int kSends = 20000;
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    cluster::ClusterParams params;
    params.procs = procs;
    params.topology = switched ? net::TopologyKind::kSwitched : net::TopologyKind::kShared;
    params.switched.rack_size = 32;
    params.external_load = false;
    params.seed = seed;
    cluster::Cluster c(params);
    c.engine().spawn(send_all(c.network(), procs, kSends));
    const auto t0 = Clock::now();
    c.engine().run();
    samples.push_back(seconds_since(t0) * 1e9 / kSends);
    if (c.network().messages_sent() != kSends) throw std::logic_error("send driver: frames lost");
  }
  return median(samples);
}

double shard_speedup(int threads, std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, "driver.shard");
  exp::Pool pool(threads);
  const core::AppDescriptor app = stencil_app(8);
  core::DlbConfig config;
  config.strategy = core::Strategy::kNoDlb;
  const auto run = [&](int shards, double& exec_seconds) {
    cluster::Cluster c(stencil_params(seed, shards));
    exp::PoolShardExecutor executor(pool);
    if (c.engine().is_sharded()) c.engine().set_executor(&executor);
    core::Runtime runtime(c, app, config);
    const auto t0 = Clock::now();
    exec_seconds = runtime.run().exec_seconds;
    return seconds_since(t0);
  };
  std::vector<double> one;
  std::vector<double> many;
  for (int s = 0; s < 3; ++s) {
    double a = 0.0;
    double b = 0.0;
    one.push_back(run(1, a));
    many.push_back(run(threads, b));
    if (a != b) throw std::logic_error("shard driver: sharding changed the makespan");
  }
  return median(one) / median(many);
}

double hold_ns(std::size_t depth, std::uint64_t seed, Tracer* tracer, std::size_t* used_depth) {
  Span span(tracer, "driver.hold");
  depth = std::clamp<std::size_t>(depth, 1, std::size_t{1} << 22);
  *used_depth = depth;
  std::vector<double> samples;
  for (int s = 0; s < 3; ++s) {
    sim::Engine engine;
    support::Rng rng(seed + static_cast<std::uint64_t>(s));
    std::uint64_t budget = std::max<std::uint64_t>(1 << 20, 2 * depth);
    for (std::size_t i = 0; i < depth; ++i) {
      engine.schedule_at(rng.uniform_int(0, 2'000'000), HoldEvent{&engine, &rng, &budget});
    }
    const auto t0 = Clock::now();
    engine.run();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(engine.events_executed()));
  }
  return median(samples);
}

double decide_us(int procs, std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, procs <= 16 ? "driver.decide.p16" : "driver.decide.p2048");
  support::Rng rng(seed);
  std::vector<core::ProfileSnapshot> profiles(static_cast<std::size_t>(procs));
  for (int i = 0; i < procs; ++i) {
    auto& p = profiles[static_cast<std::size_t>(i)];
    p.proc = i;
    p.remaining = rng.uniform_int(0, 1000);
    p.rate = rng.uniform(50.0, 150.0);
  }
  const core::DlbConfig config;
  const double s = per_call_s(
      [&] {
        const core::Decision d = core::decide(profiles, config);
        const std::int64_t assigned = std::accumulate(d.assignment.begin(), d.assignment.end(),
                                                      std::int64_t{0});
        if (assigned != d.total_remaining) throw std::logic_error("decide driver: work lost");
      },
      9, 0.01);
  return s * 1e6;
}

double predict_us(std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, "driver.predict");
  const exp::CellSpec spec = service_cell(seed);
  const auto& cls = spec.service->mix.classes.front();
  const core::LoopDescriptor loop = cls.loop();
  model::PredictorInputs inputs;
  inputs.cluster = spec.params;
  inputs.cluster.load.max_load = cls.max_load;
  inputs.cluster.load.persistence = sim::from_seconds(cls.tl_seconds);
  inputs.cluster.external_load = cls.max_load > 0;
  inputs.loop = &loop;
  inputs.costs = net::characterize(spec.params.network, 16).costs;
  inputs.config = service_config(spec);
  const model::Predictor predictor(inputs);
  const double s = per_call_s(
      [&] {
        if (predictor.predict_ranked().size() != 4) throw std::logic_error("predict driver");
      },
      9, 0.01);
  return s * 1e6;
}

double table_ms(std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, "driver.table");
  const exp::CellSpec spec = service_cell(seed);
  const auto costs = net::characterize(spec.params.network, 16).costs;
  const auto& sp = *spec.service;
  const core::DlbConfig config = service_config(spec);
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    const auto t0 = Clock::now();
    Span call(tracer, "svc::predicted_service_table");
    const auto table =
        svc::predicted_service_table(spec.params, config, sp.mix, costs, sp.load_variants);
    samples.push_back(seconds_since(t0) * 1e3);
    if (table.size() != sp.mix.classes.size()) throw std::logic_error("table driver");
  }
  return median(samples);
}

double svc_model_jobs_per_s(std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, "driver.svc.model");
  const exp::CellSpec spec = service_cell(seed);
  const auto costs = net::characterize(spec.params.network, 16).costs;
  svc::ServiceParams sp = *spec.service;
  sp.backend = svc::ServiceBackend::kModel;
  sp.jobs *= 1000;
  std::vector<double> samples;
  for (int s = 0; s < 3; ++s) {
    const auto t0 = Clock::now();
    Span call(tracer, "svc::run_service");
    const svc::ServiceReport report =
        svc::run_service(spec.params, service_config(spec), sp, costs);
    samples.push_back(static_cast<double>(report.jobs) / seconds_since(t0));
    if (report.jobs != sp.jobs) throw std::logic_error("model service driver: jobs lost");
  }
  return median(samples);
}

}  // namespace perfbench
