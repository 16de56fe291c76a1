// Deterministic Monte-Carlo fan-out.
//
// Trials are sharded across the thread pool; each trial gets an Rng
// seeded from (experiment_seed, trial_index), so per-trial values
// never depend on scheduling.  Each trial's values are kept by trial
// index and folded into the statistics in trial order afterwards, so
// aggregates are a pure function of (seed, trials) — bit-identical at
// any `threads` value.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tg::sim {

/// Run `trials` independent evaluations of `trial(rng, index)` and
/// aggregate the scalar results.
[[nodiscard]] RunningStats run_trials(
    std::size_t trials, std::uint64_t seed,
    const std::function<double(Rng&, std::size_t)>& trial,
    std::size_t threads = 0);

/// Multi-metric variant: `trial` fills a fixed-size vector of metric
/// values; one RunningStats per metric is returned.
[[nodiscard]] std::vector<RunningStats> run_trials_multi(
    std::size_t trials, std::size_t metric_count, std::uint64_t seed,
    const std::function<void(Rng&, std::size_t, std::vector<double>&)>& trial,
    std::size_t threads = 0);

}  // namespace tg::sim
