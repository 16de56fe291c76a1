// Latency recording for the workload engine: the shared log-scale
// histogram (now `telemetry::LogHistogram`, promoted out of this file
// so the telemetry plane can reuse it) plus the per-run operation
// ledger.  See telemetry/histogram.hpp for the determinism and
// accuracy contract; `LatencyHistogram` remains the workload-facing
// name.
#pragma once

#include <cstdint>

#include "telemetry/histogram.hpp"

namespace tg::workload {

/// Log-scale histogram over u64 latencies in ROUNDS.  Alias of the
/// shared telemetry type; semantics unchanged since it lived here.
using LatencyHistogram = telemetry::LogHistogram;

/// Per-run (or per-shard) operation ledger: the latency distribution
/// of completed ops plus the outcome counters the service reports.
/// Failed ops are ones the service answered negatively (corrupted or
/// not-found replies); timed-out ops never got an answer (dropped at
/// a red group or lost in flight).  Only completed + failed ops carry
/// a latency; timeouts record the timeout horizon instead (the
/// client-observed truth: that is how long the client waited).
struct Recorder {
  LatencyHistogram latency;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  /// Rounds of traffic generation this recorder covers (summed on
  /// merge so ops_per_round stays an average over the merged window).
  std::uint64_t rounds = 0;
  /// Runtime messages the ops' requests/replies put on the wire.
  std::uint64_t wire_messages = 0;
  /// All-to-all message cost of the same hops (|G_a| x |G_b| per
  /// group-to-group edge) — the paper's accounting, for comparing
  /// against the analytic benches.
  std::uint64_t analytic_messages = 0;
  /// Request lifecycle counters (retries and hedges stay zero when
  /// the retry policy is off; stale_replies counts late and duplicate
  /// replies under either policy).
  std::uint64_t retries = 0;       ///< backoff re-attempts issued
  std::uint64_t hedges = 0;        ///< hedged second attempts issued
  std::uint64_t stale_replies = 0; ///< replies to already-settled ops

  void merge(const Recorder& other) noexcept;

  [[nodiscard]] std::uint64_t finished() const noexcept {
    return completed + failed + timed_out;
  }
  [[nodiscard]] double ops_per_round() const noexcept {
    return rounds ? static_cast<double>(completed) /
                        static_cast<double>(rounds)
                  : 0.0;
  }
  [[nodiscard]] double completed_fraction() const noexcept {
    return finished() ? static_cast<double>(completed) /
                            static_cast<double>(finished())
                      : 0.0;
  }
  [[nodiscard]] double failed_fraction() const noexcept {
    return finished() ? static_cast<double>(failed) /
                            static_cast<double>(finished())
                      : 0.0;
  }
  [[nodiscard]] double timeout_fraction() const noexcept {
    return finished() ? static_cast<double>(timed_out) /
                            static_cast<double>(finished())
                      : 0.0;
  }
  /// Attempts per op: (first attempts + retries + hedges) / ops.
  /// 1.0 exactly when the retry policy is off.
  [[nodiscard]] double retry_amplification() const noexcept {
    return issued ? static_cast<double>(issued + retries + hedges) /
                        static_cast<double>(issued)
                  : 1.0;
  }
};

}  // namespace tg::workload
