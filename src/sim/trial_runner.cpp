#include "sim/trial_runner.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::sim {

RunningStats run_trials(std::size_t trials, std::uint64_t seed,
                        const std::function<double(Rng&, std::size_t)>& trial,
                        std::size_t threads) {
  const auto multi = run_trials_multi(
      trials, 1, seed,
      [&trial](Rng& rng, std::size_t index, std::vector<double>& out) {
        out[0] = trial(rng, index);
      },
      threads);
  return multi.front();
}

std::vector<RunningStats> run_trials_multi(
    std::size_t trials, std::size_t metric_count, std::uint64_t seed,
    const std::function<void(Rng&, std::size_t, std::vector<double>&)>& trial,
    std::size_t threads) {
  std::vector<RunningStats> totals(metric_count);
  if (trials == 0 || metric_count == 0) return totals;

  const std::size_t shard_count =
      std::min<std::size_t>(trials, threads == 0 ? 8 : threads);

  // Telemetry capture: one scope per fan-out call, one session per
  // trial keyed (scope, trial) — the merged export is a pure function
  // of the trial sequence, independent of shard count or schedule.
  telemetry::Capture* const cap = telemetry::capture();
  const std::uint64_t telem_scope = cap != nullptr ? cap->next_scope() : 0;

  // Row t holds trial t's metric values; the fold below runs in trial
  // order, so the float accumulation never depends on the sharding.
  std::vector<double> values(trials * metric_count, 0.0);
  parallel_for_shards(
      shard_count,
      [&](std::size_t shard) {
        std::vector<double> metrics(metric_count, 0.0);
        for (std::size_t t = shard; t < trials; t += shard_count) {
          telemetry::Session* session = nullptr;
          if (cap != nullptr) {
            session = &cap->session_for((telem_scope << 32) | t);
          }
          telemetry::ThreadBind bind(session);
          // Seed depends only on (seed, t): sharding-invariant.
          Rng rng(mix64(seed ^ (0x9e3779b97f4a7c15ULL * (t + 1))));
          std::fill(metrics.begin(), metrics.end(), 0.0);
          trial(rng, t, metrics);
          std::copy(metrics.begin(), metrics.end(),
                    values.begin() +
                        static_cast<std::ptrdiff_t>(t * metric_count));
        }
      },
      threads);
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::size_t m = 0; m < metric_count; ++m) {
      totals[m].add(values[t * metric_count + m]);
    }
  }
  return totals;
}

}  // namespace tg::sim
