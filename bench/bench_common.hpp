// Shared helpers for the benchmark binaries.
//
// Deliberately thin on includes: benches that need the full library
// include the umbrella header themselves, so editing one subsystem
// header does not rebuild every bench through this file.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json_reporter.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace tg::bench {

/// Every bench announces itself the same way: what it runs and the
/// claim its gates check.
inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n################################################################\n"
            << "# " << experiment << "\n"
            << "# Claim: " << claim << "\n"
            << "################################################################\n";
}

// ---------------------------------------------------------------------------
// Perf measurement + JSON reporting (the BENCH_*.json trajectory).
// ---------------------------------------------------------------------------

/// Keep a computed value alive past the optimizer.
inline void do_not_optimize(std::uint64_t value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r"(value) : "memory");
#else
  volatile std::uint64_t sink = value;
  (void)sink;
#endif
}

/// Adaptive micro-timer: `fn(iters)` must perform `iters` operations;
/// the iteration count grows until one timed window exceeds
/// `min_seconds`.  Returns nanoseconds per operation.
template <typename F>
double measure_ns_per_op(F&& fn, double min_seconds = 0.1) {
  fn(1);  // warmup / first-touch
  std::size_t iters = 1;
  for (;;) {
    Stopwatch sw;
    fn(iters);
    const double s = sw.seconds();
    if (s >= min_seconds) return s * 1e9 / static_cast<double>(iters);
    const double grow = s > 0 ? (min_seconds * 1.2) / s : 1024.0;
    iters = static_cast<std::size_t>(
        static_cast<double>(iters) * std::min(grow, 1024.0)) + 1;
  }
}

// JsonReporter, the BENCH_*.json writer, is src/util/json_reporter.hpp
// (shared with the scenario campaign engine).

// Peak-RSS sampling (the peak_rss_bytes rows of BENCH_scale.json and
// BENCH_telemetry.json's meta) lives in src/util/rss.hpp.

using util::peak_rss_bytes;
using util::reset_peak_rss;

}  // namespace tg::bench
