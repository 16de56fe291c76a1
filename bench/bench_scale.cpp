// bench_scale — the million-node scaling trajectory (BENCH_scale.json).
//
// Exhibits the paper's headline property at the engineering level: with
// |G| ~ d1 ln ln n, per-epoch cost must stay near-linear and memory
// flat-per-member as n grows from 10^4 to 10^6.  Rows per n:
//
//   scale_epoch_build_n<N>    pristine epoch build (streaming slab
//                             writes through the multi-lane oracle
//                             engine): ns per build, memory, peak RSS
//   scale_round_loop_n<N>     chatter round loop at n nodes (recycled
//                             buffers + sharded payload arena): ns per
//                             round, peak RSS
//   GUARD PAIRS — ops_per_sec carries DETERMINISTIC, machine-free
//   values, so CI's normalized regression guard watches what each
//   optimization bought rather than a wall-clock ratio:
//   scale_epoch_density_n<N>  members stored per KiB of epoch storage,
//     vs _seed_baseline         vs the same members held as one heap
//                             vector per group (n * sizeof(core::Group)
//                             + 4 bytes per member)
//   scale_arena_reuse_n<N>    spilled payloads per heap allocation in
//     vs _seed_baseline         the round loop, vs 1 for a heap spill
//
// Every row carries peak_rss_bytes where it was measured: the kernel's
// RSS high-water mark is reset (bench_common's reset_peak_rss) before
// each build/loop so one process can report honest per-phase peaks.
// Before any number is reported, the built epoch's fingerprint and the
// round loop's trace hash must equal their goldens for that n — a
// mismatch aborts the bench.
//
// --fast caps n at 10^5 (the CI scale-smoke shape; the regression
// guard runs with --allow-missing so the absent 10^6 rows are
// tolerated there).
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "tinygroups/tinygroups.hpp"

namespace {

using namespace tg;

struct Point {
  std::size_t n;
  std::size_t build_reps;
  std::size_t loop_rounds;
  /// GroupGraph::fingerprint of the pristine epoch, and the chatter
  /// trace hash — produced when the one-vector-per-group epoch layout
  /// and the fresh-buffer / heap-spill round loop were retired, with
  /// both sides agreeing at this n.
  std::uint64_t epoch_golden;
  std::uint64_t loop_golden;
};

struct BuildMeasurement {
  double ns_per_build = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t peak_rss = 0;
  std::size_t members = 0;
  std::size_t memory_bytes = 0;
};

/// Time `reps` pristine builds; the phase-local RSS peak covers the
/// LAST build only (the watermark is reset between reps so lingering
/// pages from earlier reps don't inflate it).
BuildMeasurement measure_epoch_build(
    const core::Params& params,
    const std::shared_ptr<const core::Population>& pop,
    const crypto::RandomOracle& oracle, std::size_t reps) {
  BuildMeasurement out;
  double total_s = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    bench::reset_peak_rss();
    const Stopwatch sw;
    const core::GroupGraph graph =
        core::GroupGraph::pristine(params, pop, oracle);
    total_s += sw.seconds();
    out.peak_rss = bench::peak_rss_bytes();
    if (r + 1 == reps) {
      out.fingerprint = graph.fingerprint();
      std::size_t members = 0;
      for (std::size_t i = 0; i < graph.size(); ++i) {
        members += graph.group_size(i);
      }
      out.members = members;
      out.memory_bytes = graph.memory_bytes();
    }
  }
  out.ns_per_build = total_s * 1e9 / static_cast<double>(reps);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  using namespace tg::bench;
  log::set_level(log::Level::warn);

  const bool fast = argc > 1 && std::string(argv[1]) == "--fast";

  banner("scaling: group tables + streaming epoch build at n up to 10^6",
         "epoch build and round loop stay near-linear in n with "
         "|G| ~ d1 ln ln n; epochs and traffic pinned by golden hashes");

  std::vector<Point> points{
      {10'000, 5, 40, 0xd2b7d6309ae5a6f4ULL, 0x632f731193f9f2cfULL},
      {100'000, 2, 8, 0x6d49f02b8bceee11ULL, 0xeaf6ceee576e1a4fULL}};
  if (!fast) {
    points.push_back(
        {1'000'000, 1, 3, 0x53cadcb49d8de532ULL, 0xe370b96c9fc9ea2fULL});
  }

  JsonReporter reporter("scale");
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  reporter.set_meta("mode", fast ? "fast" : "full");

  Table t({"n", "group size", "build ms", "members/KiB", "vs vectors",
           "peak RSS MB", "loop ms/round", "spills/heap alloc"});
  t.set_title("million-node scaling trajectory");

  std::uint64_t run_peak = 0;

  for (const Point& point : points) {
    core::Params params;
    params.n = point.n;
    params.seed = 2024;
    params.beta = 0.05;
    Rng rng(params.seed);
    const auto pop = std::make_shared<const core::Population>(
        core::Population::uniform(point.n, params.beta, rng));
    const crypto::OracleSuite oracles(params.seed);
    const std::string suffix = "_n" + std::to_string(point.n);

    // ---- Epoch build ----
    const BuildMeasurement build =
        measure_epoch_build(params, pop, oracles.h1, point.build_reps);
    if (build.fingerprint != point.epoch_golden) {
      throw std::logic_error(
          "epoch diverged from its golden fingerprint at n=" +
          std::to_string(point.n));
    }
    const JsonReporter::Fields build_shape{
        {"n", static_cast<double>(point.n)},
        {"group_size", static_cast<double>(params.group_size())},
        {"members", static_cast<double>(build.members)}};
    JsonReporter::Fields build_fields = build_shape;
    build_fields.push_back(
        {"memory_bytes", static_cast<double>(build.memory_bytes)});
    build_fields.push_back(
        {"peak_rss_bytes", static_cast<double>(build.peak_rss)});
    reporter.add_ns_per_op("scale_epoch_build" + suffix, build.ns_per_build,
                           build_fields);

    const double vector_bytes = static_cast<double>(
        point.n * sizeof(core::Group) + build.members * sizeof(std::uint32_t));
    const double members = static_cast<double>(build.members);
    const double density = members * 1024.0 /
                           static_cast<double>(build.memory_bytes);
    const double vector_density = members * 1024.0 / vector_bytes;
    JsonReporter::Fields density_fields = build_shape;
    density_fields.push_back({"ops_per_sec", density});
    density_fields.push_back(
        {"memory_bytes", static_cast<double>(build.memory_bytes)});
    JsonReporter::Fields vector_fields = build_shape;
    vector_fields.push_back({"ops_per_sec", vector_density});
    vector_fields.push_back({"memory_bytes", vector_bytes});
    reporter.add("scale_epoch_density" + suffix, std::move(density_fields));
    reporter.add("scale_epoch_density" + suffix + "_seed_baseline",
                 std::move(vector_fields));

    // ---- Round loop at n nodes ----
    scenario::RoundLoopConfig loop;
    loop.nodes = point.n;
    loop.fanout = 2;
    loop.rounds = point.loop_rounds;
    loop.payload_words = 12;  // every payload spills: arena territory
    bench::reset_peak_rss();
    const scenario::RoundLoopResult result =
        scenario::run_chatter_round_loop(loop);
    const std::uint64_t loop_peak = bench::peak_rss_bytes();
    if (result.trace_hash != point.loop_golden) {
      throw std::logic_error("round loop diverged from its golden trace at n=" +
                             std::to_string(point.n));
    }

    const double messages_per_round =
        static_cast<double>(result.delivered) /
        static_cast<double>(point.loop_rounds);
    const JsonReporter::Fields loop_shape{
        {"nodes", static_cast<double>(point.n)},
        {"messages_per_round", messages_per_round},
        {"payload_words", 12.0}};
    JsonReporter::Fields loop_fields = loop_shape;
    loop_fields.push_back({"peak_rss_bytes", static_cast<double>(loop_peak)});
    reporter.add_ns_per_op("scale_round_loop" + suffix, result.ns_per_round,
                           loop_fields);

    const double reuse =
        static_cast<double>(result.arena_allocated) /
        static_cast<double>(std::max<std::uint64_t>(
            result.arena_heap_allocations, 1));
    JsonReporter::Fields reuse_fields = loop_shape;
    reuse_fields.push_back({"ops_per_sec", reuse});
    reuse_fields.push_back(
        {"spills", static_cast<double>(result.arena_allocated)});
    reuse_fields.push_back(
        {"heap_allocations",
         static_cast<double>(result.arena_heap_allocations)});
    JsonReporter::Fields heap_fields = loop_shape;
    heap_fields.push_back({"ops_per_sec", 1.0});
    heap_fields.push_back(
        {"heap_allocations", static_cast<double>(result.arena_allocated)});
    reporter.add("scale_arena_reuse" + suffix, std::move(reuse_fields));
    reporter.add("scale_arena_reuse" + suffix + "_seed_baseline",
                 std::move(heap_fields));

    run_peak = std::max({run_peak, build.peak_rss, loop_peak});

    t.add_row({point.n, params.group_size(), build.ns_per_build / 1e6,
               density, density / vector_density,
               static_cast<double>(build.peak_rss) / (1024.0 * 1024.0),
               result.ns_per_round / 1e6, reuse});
  }

  reporter.set_meta_number("peak_rss_bytes", static_cast<double>(run_peak));
  t.print(std::cout);
  std::cout << "(golden epoch fingerprints and round-loop traces asserted\n"
               " for every n; peak_rss_bytes rows are phase-local via the\n"
               " /proc/self/clear_refs watermark reset.)\n";

  return reporter.write(".") ? 0 : 1;
}
