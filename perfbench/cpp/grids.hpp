#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "core/types.hpp"
#include "exp/grid.hpp"

namespace perfbench {

/// Seeds per grid point of paper-p16: 35 grid points x 30 seeds = 1050 cells.
inline constexpr int kPaperSeeds = 30;
/// svc-sim serves 16 streams of 500 jobs (seeds seed..seed+15) on the pool,
/// so one repetition averages 16 load-variant sets instead of hanging on one.
inline constexpr int kServiceStreams = 16;
inline constexpr std::uint64_t kServiceJobs = 500;

/// Each builder parses the same flags a dlb_sweep user would pass, with the
/// benchmark seed as --seed0, so a workload is reproducible from the CLI.

/// `--figure=6` and `--figure=8` merged into one grid (P = 16, shared
/// Ethernet, all five strategies, preset t_l/m_l).
[[nodiscard]] dlb::exp::ExperimentGrid paper_grid(std::uint64_t seed);

/// `--figure=scale --procs=2048 --strategies=gc --topology=switched`.
[[nodiscard]] dlb::exp::ExperimentGrid scale_grid(std::uint64_t seed);

/// `--figure=service --procs=16 --strategies=online --arrivals=bursty
/// --rate=0.9 --hysteresis=0.05,3 --service-backend=sim --jobs=500
/// --seeds=16`: one service cell per stream.
[[nodiscard]] dlb::exp::ExperimentGrid service_grid(std::uint64_t seed);

/// The first stream of service_grid(seed).
[[nodiscard]] dlb::exp::CellSpec service_cell(std::uint64_t seed);

inline constexpr int kStencilProcs = 16384;

/// The stencil-16k cluster: P = 16384 on switched racks of 32 with
/// `shards` engine shards.
[[nodiscard]] dlb::cluster::ClusterParams stencil_params(std::uint64_t seed, int shards);

/// apps::make_stencil with `iters_per_proc` iterations per processor of
/// stencil_params, 50k ops each and a 256 B ring send per iteration.
[[nodiscard]] dlb::core::AppDescriptor stencil_app(std::int64_t iters_per_proc);

/// The DlbConfig svc::run_service takes for a service cell (strategy and
/// hooks disarmed, as exp::Runner does).
[[nodiscard]] dlb::core::DlbConfig service_config(const dlb::exp::CellSpec& spec);

}  // namespace perfbench
