// Empirical estimators for properties P1-P4 of an input graph
// (Section I-C).  Used by unit tests to certify each overlay and to
// check that subset omission leaves them intact (Lemma 5).
#pragma once

#include <cstddef>

#include "overlay/input_graph.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tg::overlay {

struct PropertyReport {
  // P1 — search functionality.
  double mean_hops = 0.0;
  double max_hops = 0.0;
  double p99_hops = 0.0;
  double failure_rate = 0.0;  ///< routes exceeding the hop cap (must be 0)

  // P2 — load balance: max responsibility fraction * N.
  double max_load_times_n = 0.0;

  // P3 — linking rules.
  double mean_degree = 0.0;
  double max_degree = 0.0;

  // P4 — congestion: max over nodes of Pr[traversed by a random
  // search], times N (so O(log^c N) per the paper).
  double max_congestion_times_n = 0.0;
  double mean_congestion_times_n = 0.0;

  std::size_t searches = 0;
  std::size_t n = 0;
};

/// Run `searches` random (start, key) routes plus degree/load scans.
[[nodiscard]] PropertyReport measure_properties(const InputGraph& graph,
                                                std::size_t searches,
                                                Rng& rng);

}  // namespace tg::overlay
