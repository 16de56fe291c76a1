// bench_net_roundloop — the message-runtime perf trajectory
// (BENCH_net.json).
//
// Measures the chatter round loop (src/scenario/campaign.hpp's
// run_chatter_round_loop) on the net runtime: recycled round buffers
// plus arena-pooled payload spill.
//
//   net_round_loop_<shape>  ns per round.  `inline` payloads fit Words'
//                           inline buffer (the repository's protocol
//                           chatter — IDs, votes, hash tags), `spill`
//                           payloads exceed it (wide copies with
//                           certificates attached), which is where the
//                           payload arena pays.
//   net_payload_arena       the spill run's arena counters.
//   GUARD PAIR — net_arena_reuse vs its _seed_baseline: ops_per_sec
//     carries DETERMINISTIC spilled payloads per heap allocation for a
//     FIXED spill run (never scaled by --fast), vs 1 for a heap spill,
//     so CI's normalized regression guard watches what the arena
//     bought, machine-free.
//
// Every shape's delivered traffic (trace hash) must equal its golden —
// produced when the fresh-vectors-per-round and heap-spill paths were
// retired, with all four storage combinations agreeing — before any
// number is reported; a mismatch aborts the bench.
#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"

#include "tinygroups/tinygroups.hpp"

namespace {

using tg::scenario::RoundLoopConfig;
using tg::scenario::RoundLoopResult;
using tg::scenario::run_chatter_round_loop;

struct Shape {
  std::string name;
  std::size_t payload_words;
  std::uint64_t fast_golden;  ///< trace hash at the --fast size
  std::uint64_t full_golden;  ///< trace hash at the full size
};

/// The guard pair's FIXED shape (the --fast spill run).
RoundLoopConfig guard_config() {
  RoundLoopConfig config;
  config.nodes = 128;
  config.fanout = 4;
  config.rounds = 120;
  config.payload_words = 16;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  using namespace tg::bench;
  log::set_level(log::Level::warn);

  // --fast: CI smoke sizes (the timed rows widen their noise band; the
  // guard pair is shape-fixed and identical in both modes).
  const bool fast = argc > 1 && std::string(argv[1]) == "--fast";

  banner("net round loop: recycled buffers + pooled payload spill",
         "chatter rounds on the net runtime; delivered traffic pinned by "
         "golden trace hashes");

  RoundLoopConfig base;
  base.nodes = fast ? 128 : 256;
  base.fanout = 4;
  base.rounds = fast ? 120 : 400;

  JsonReporter reporter("net");
  Table t({"shape", "payload words", "ns/round", "steady heap allocs"});
  t.set_title("chatter round loop (" + std::to_string(base.nodes) +
              " nodes x fanout " + std::to_string(base.fanout) + ")");

  const std::vector<Shape> shapes = {
      // fits Words::kInlineCapacity: SBO, no spill
      {"inline", 4, 0xeaedc385abf2a4cbULL, 0x44bffb61bc92620bULL},
      // every payload spills: the arena's home turf
      {"spill", 16, 0x7be4ea1d3a29b54bULL, 0x644db2b522ab762bULL},
  };
  for (const Shape& shape : shapes) {
    RoundLoopConfig config = base;
    config.payload_words = shape.payload_words;

    (void)run_chatter_round_loop(config);  // warm-up: pool spin-up
    const RoundLoopResult run = run_chatter_round_loop(config);
    if (run.trace_hash != (fast ? shape.fast_golden : shape.full_golden)) {
      throw std::logic_error(
          "round loop diverged from its golden trace (shape " + shape.name +
          ")");
    }

    const double messages_per_round = static_cast<double>(run.delivered) /
                                      static_cast<double>(base.rounds);
    reporter.add_ns_per_op(
        "net_round_loop_" + shape.name, run.ns_per_round,
        {{"nodes", static_cast<double>(base.nodes)},
         {"payload_words", static_cast<double>(shape.payload_words)},
         {"messages_per_round", messages_per_round}});

    // Steady state the arena must reach: every spill served from the
    // free lists.  The measured run may only add a bounded number of
    // fresh blocks (growth re-spills + delayed-slot jitter).
    if (shape.payload_words > net::Words::kInlineCapacity) {
      const std::uint64_t steady = run.arena_heap_allocations;
      const std::uint64_t bound = 4 * base.nodes * base.fanout;
      if (steady > bound) {
        throw std::logic_error(
            "payload arena failed to reach steady state: " +
            std::to_string(steady) + " heap allocations (bound " +
            std::to_string(bound) + ")");
      }
      reporter.add("net_payload_arena",
                   {{"allocated", static_cast<double>(run.arena_allocated)},
                    {"recycled", static_cast<double>(run.arena_recycled)},
                    {"steady_heap_allocations", static_cast<double>(steady)},
                    {"messages_per_round", messages_per_round}});
    }

    t.add_row({shape.name, shape.payload_words, run.ns_per_round,
               run.arena_heap_allocations});
  }

  // ---- Guard pair: spilled payloads per heap allocation ----
  const RoundLoopConfig guard = guard_config();
  const RoundLoopResult guard_run = run_chatter_round_loop(guard);
  if (guard_run.trace_hash != shapes.back().fast_golden) {
    throw std::logic_error("guard round loop diverged from its golden trace");
  }
  const JsonReporter::Fields guard_shape{
      {"nodes", static_cast<double>(guard.nodes)},
      {"payload_words", static_cast<double>(guard.payload_words)},
      {"rounds", static_cast<double>(guard.rounds)}};
  const double reuse =
      static_cast<double>(guard_run.arena_allocated) /
      static_cast<double>(
          std::max<std::uint64_t>(guard_run.arena_heap_allocations, 1));
  JsonReporter::Fields arena_fields{
      {"ops_per_sec", reuse},
      {"spills", static_cast<double>(guard_run.arena_allocated)},
      {"heap_allocations",
       static_cast<double>(guard_run.arena_heap_allocations)}};
  arena_fields.insert(arena_fields.end(), guard_shape.begin(),
                      guard_shape.end());
  JsonReporter::Fields heap_fields{
      {"ops_per_sec", 1.0},
      {"heap_allocations", static_cast<double>(guard_run.arena_allocated)}};
  heap_fields.insert(heap_fields.end(), guard_shape.begin(), guard_shape.end());
  reporter.add("net_arena_reuse", std::move(arena_fields));
  reporter.add("net_arena_reuse_seed_baseline", std::move(heap_fields));

  t.print(std::cout);
  std::cout << "(golden trace hashes asserted for every shape; the spill\n"
               " row's steady heap allocations stay bounded — the arena\n"
               " serves warmed-up rounds from its free lists; guard pair: "
            << reuse << " spilled payloads per heap allocation.)\n";

  return reporter.write(".") ? 0 : 1;
}
