#include "grids.hpp"

#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "support/cli.hpp"

namespace perfbench {

namespace {

dlb::exp::ExperimentGrid parse(std::vector<std::string> flags, std::uint64_t seed) {
  flags.push_back("--seed0=" + std::to_string(seed));
  std::vector<const char*> argv{"perfbench"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  return dlb::exp::parse_grid(dlb::support::Cli(static_cast<int>(argv.size()), argv.data()));
}

}  // namespace

dlb::exp::ExperimentGrid paper_grid(std::uint64_t seed) {
  const std::string seeds = "--seeds=" + std::to_string(kPaperSeeds);
  dlb::exp::ExperimentGrid grid = parse({"--figure=6", seeds}, seed);
  const dlb::exp::ExperimentGrid trfd = parse({"--figure=8", seeds}, seed);
  grid.apps.insert(grid.apps.end(), trfd.apps.begin(), trfd.apps.end());
  grid.validate();
  return grid;
}

dlb::exp::ExperimentGrid scale_grid(std::uint64_t seed) {
  return parse({"--figure=scale", "--procs=2048", "--strategies=gc", "--topology=switched"}, seed);
}

dlb::exp::ExperimentGrid service_grid(std::uint64_t seed) {
  return parse({"--figure=service", "--procs=16", "--strategies=online", "--arrivals=bursty",
                "--rate=0.9", "--hysteresis=0.05,3", "--service-backend=sim",
                "--jobs=" + std::to_string(kServiceJobs),
                "--seeds=" + std::to_string(kServiceStreams)},
               seed);
}

dlb::exp::CellSpec service_cell(std::uint64_t seed) { return service_grid(seed).cell(0); }

dlb::cluster::ClusterParams stencil_params(std::uint64_t seed, int shards) {
  dlb::cluster::ClusterParams params;
  params.procs = kStencilProcs;
  params.topology = dlb::net::TopologyKind::kSwitched;
  params.switched.rack_size = 32;
  params.engine_shards = shards;
  params.seed = seed;
  return params;
}

dlb::core::AppDescriptor stencil_app(std::int64_t iters_per_proc) {
  return dlb::apps::make_stencil(iters_per_proc * kStencilProcs, 50e3, 0.0, 256.0);
}

dlb::core::DlbConfig service_config(const dlb::exp::CellSpec& spec) {
  dlb::core::DlbConfig config = spec.config;
  config.observe = false;
  config.record_trace = false;
  if (config.strategy == dlb::core::Strategy::kAuto) config.strategy = dlb::core::Strategy::kNoDlb;
  return config;
}

}  // namespace perfbench
