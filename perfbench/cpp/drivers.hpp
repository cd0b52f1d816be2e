#pragma once

#include <cstddef>
#include <cstdint>

#include "tracer.hpp"

namespace perfbench {

/// Layer drivers: small loops over one layer's public API, each timed as the
/// median of several samples.  They give the per-operation host cost of a
/// layer, which the traced run multiplies by the workload's counts to bound
/// how much of the end-to-end time the layer can explain.

/// ns per Mailbox::try_receive(tag, src) when `fanin` messages from `fanin`
/// sources were delivered in seeded shuffled order and are taken in rank
/// order — the GC profile-collect pattern.
[[nodiscard]] double mailbox_match_ns(int fanin, std::uint64_t seed, Tracer* tracer);

/// ns of engine run time per Network::send from one sender coroutine to every
/// other station of a fresh, unloaded cluster (shared Ethernet or switched
/// racks of 32).
[[nodiscard]] double net_send_ns(bool switched, int procs, std::uint64_t seed, Tracer* tracer);

/// Runtime::run wall at shards=1 over shards=`threads` (windows on a
/// `threads`-wide exp::Pool) for the stencil-16k cluster at 8 iterations per
/// processor; the sharded run must reproduce the makespan.
[[nodiscard]] double shard_speedup(int threads, std::uint64_t seed, Tracer* tracer);

/// ns per event of the hold model through Engine::schedule_at / run with
/// `depth` events queued (uniform increments).  Returns the depth actually
/// used through `used_depth` (clamped to [1, 2^22]).
[[nodiscard]] double hold_ns(std::size_t depth, std::uint64_t seed, Tracer* tracer,
                             std::size_t* used_depth);

/// us per core::decide over `procs` seeded profile snapshots.
[[nodiscard]] double decide_us(int procs, std::uint64_t seed, Tracer* tracer);

/// us per model::Predictor::predict_ranked on the svc-sim cluster (P = 16)
/// for the mix's first job class.
[[nodiscard]] double predict_us(std::uint64_t seed, Tracer* tracer);

/// ms per svc::predicted_service_table for the svc-sim stream.
[[nodiscard]] double table_ms(std::uint64_t seed, Tracer* tracer);

/// Jobs per host second of svc::run_service with the model backend on the
/// svc-sim stream extended to 1000x its jobs, so the arrival, selector and SLA
/// loop dominate the one-off prediction table.
[[nodiscard]] double svc_model_jobs_per_s(std::uint64_t seed, Tracer* tracer);

}  // namespace perfbench
