// bench_routing — the routing engine's perf trajectory
// (BENCH_routing.json).
//
// Measures every overlay's single-route and batched route evaluation
// against the epoch-resident RoutingIndex:
//
//   route_<overlay>_n<N>       ns per route into warm caller scratch
//   route_many_<overlay>_n<N>  ns per route through route_many (index
//                              resolved once per batch)
//   GUARD PAIR — routing_grid_lookup_n<N> vs its _seed_baseline:
//     ops_per_sec carries DETERMINISTIC lookups per compared point —
//     through the index's successor grid vs a binary search over the
//     same table — so CI's normalized regression guard watches what
//     the grid bought, machine-free.
//
// Before ANY number is reported for an overlay, a probe sweep's route
// hash must equal its golden (produced when the per-hop binary-search
// routes were retired, with both paths agreeing hop for hop) — a
// mismatch aborts the bench.  Steady-state routing into warm
// caller-owned scratch is additionally asserted to perform ZERO heap
// allocations, via this binary's global operator new/delete counters
// (the same steady-state discipline bench_net_roundloop pins on the
// payload arena).
//
//   bench_routing [--fast] [--out DIR]
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tinygroups/tinygroups.hpp"

// ---------------------------------------------------------------------------
// Global allocation counters.  Every operator new variant funnels into
// one relaxed atomic; the steady-state assertion snapshots it around a
// measured routing pass.  malloc/free keep the actual storage so the
// overrides stay trivially correct.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace tg;

constexpr std::size_t kProbeRoutes = 200;   // golden sweep per overlay
constexpr std::size_t kQueryPool = 256;     // cycled by the timed loops

struct RouteGolden {
  overlay::Kind kind;
  std::size_t n;
  std::uint64_t hash;
};

/// FNV-1a over (ok, hop count, hops) of the probe sweep per overlay and
/// table size.  de Bruijn and distance halving share hashes: both walk
/// the same halving sequence.
constexpr RouteGolden kRouteGoldens[] = {
    {overlay::Kind::chord, 1'000, 0x57e443cdad9d66a1ULL},
    {overlay::Kind::chord, 10'000, 0xabb8c6fa776a693bULL},
    {overlay::Kind::chord, 100'000, 0xbdd6f275fd247274ULL},
    {overlay::Kind::debruijn, 1'000, 0x71741bbdb41b6923ULL},
    {overlay::Kind::debruijn, 10'000, 0x58a374e208ca1368ULL},
    {overlay::Kind::debruijn, 100'000, 0x647b0357616a77d7ULL},
    {overlay::Kind::distance_halving, 1'000, 0x71741bbdb41b6923ULL},
    {overlay::Kind::distance_halving, 10'000, 0x58a374e208ca1368ULL},
    {overlay::Kind::distance_halving, 100'000, 0x647b0357616a77d7ULL},
    {overlay::Kind::viceroy, 1'000, 0xe4e684a5cc81bc78ULL},
    {overlay::Kind::viceroy, 10'000, 0xef4db150abd02ae1ULL},
    {overlay::Kind::viceroy, 100'000, 0xd0c6e186e4caf8e5ULL},
    {overlay::Kind::kautz, 1'000, 0x02cef461e827ead8ULL},
    {overlay::Kind::kautz, 10'000, 0xfe8d7f63081590ebULL},
    {overlay::Kind::kautz, 100'000, 0x165ea5819d643b1eULL},
    {overlay::Kind::tapestry, 1'000, 0xfc0c37d03205170fULL},
    {overlay::Kind::tapestry, 10'000, 0x748417ae90f4ce3eULL},
    {overlay::Kind::tapestry, 100'000, 0x80c89e3802f91521ULL},
    {overlay::Kind::chordpp, 1'000, 0x8df10f1787391d2dULL},
    {overlay::Kind::chordpp, 10'000, 0xe7134fa282ff3db2ULL},
    {overlay::Kind::chordpp, 100'000, 0xb923cb2cbd21be56ULL},
};

/// Route hash of the probe sweep; throws unless it equals the golden.
void assert_routes_match_golden(const overlay::InputGraph& graph,
                                overlay::Kind kind, std::size_t n,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (std::size_t i = 0; i < kProbeRoutes; ++i) {
    const std::size_t start = rng.below(n);
    const ids::RingPoint key{rng.u64()};
    const overlay::Route route = graph.route(start, key);
    mix(route.ok ? 1 : 0);
    mix(route.path.size());
    for (const auto hop : route.path) mix(hop);
  }
  for (const RouteGolden& golden : kRouteGoldens) {
    if (golden.kind == kind && golden.n == n) {
      if (golden.hash == h) return;
      break;
    }
  }
  throw std::logic_error(std::string("routes diverged from their golden: ") +
                         std::string(graph.name()) +
                         " n=" + std::to_string(n));
}

/// The guard pair: points compared per successor lookup through the
/// grid, and through a binary search (std::lower_bound, as
/// RingTable::successor_index does) over the same table.
void append_grid_guard(bench::JsonReporter& out, const ids::RingTable& table,
                       std::size_t n) {
  const overlay::RoutingIndex ix(table, 0);
  Rng rng(0x6E1D + n);
  std::uint64_t grid = 0;
  std::uint64_t binary = 0;
  constexpr std::size_t kLookups = 4096;
  for (std::size_t i = 0; i < kLookups; ++i) {
    const ids::RingPoint x{rng.u64()};
    grid += ix.probe_count(x);
    (void)std::lower_bound(table.points().begin(), table.points().end(), x,
                           [&binary](ids::RingPoint a, ids::RingPoint b) {
                             ++binary;
                             return a < b;
                           });
  }
  const double lookups = static_cast<double>(kLookups);
  const std::string row = "routing_grid_lookup_n" + std::to_string(n);
  out.add(row, {{"ops_per_sec", lookups / static_cast<double>(grid)},
                {"points_per_lookup", static_cast<double>(grid) / lookups},
                {"n", static_cast<double>(n)}});
  out.add(row + "_seed_baseline",
          {{"ops_per_sec", lookups / static_cast<double>(binary)},
           {"points_per_lookup", static_cast<double>(binary) / lookups},
           {"n", static_cast<double>(n)}});
}

std::vector<overlay::RouteQuery> make_queries(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<overlay::RouteQuery> queries(kQueryPool);
  for (auto& q : queries) {
    q.start = rng.below(n);
    q.key = ids::RingPoint{rng.u64()};
  }
  return queries;
}

/// ns per route over the query pool, routing into one warm
/// caller-owned scratch Route.
double measure_route_ns(const overlay::InputGraph& graph,
                        const std::vector<overlay::RouteQuery>& queries,
                        double min_seconds) {
  overlay::Route scratch;
  return bench::measure_ns_per_op(
      [&](std::size_t iters) {
        for (std::size_t i = 0; i < iters; ++i) {
          const auto& q = queries[i % queries.size()];
          graph.route_into(scratch, q.start, q.key);
          bench::do_not_optimize(scratch.path.empty() ? 0 : scratch.path.back());
        }
      },
      min_seconds);
}

/// ns per route through route_many (index resolved once per batch),
/// reusing one warm output vector.
double measure_batch_ns(const overlay::InputGraph& graph,
                        const std::vector<overlay::RouteQuery>& queries,
                        double min_seconds) {
  std::vector<overlay::Route> out;
  graph.route_many(queries, out);  // warm the scratch routes
  return bench::measure_ns_per_op(
      [&](std::size_t iters) {
        // iters counts ROUTES; run whole batches to cover them.
        const std::size_t batches =
            (iters + queries.size() - 1) / queries.size();
        for (std::size_t b = 0; b < batches; ++b) {
          graph.route_many(queries, out);
          bench::do_not_optimize(out.back().path.empty()
                                     ? 0
                                     : out.back().path.back());
        }
      },
      min_seconds);
}

/// Steady-state allocation audit: after one warm pass over the pool,
/// a second identical pass must not touch the heap at all.
std::uint64_t steady_state_allocations(
    const overlay::InputGraph& graph,
    const std::vector<overlay::RouteQuery>& queries) {
  overlay::Route scratch;
  for (const auto& q : queries) graph.route_into(scratch, q.start, q.key);
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (const auto& q : queries) graph.route_into(scratch, q.start, q.key);
  bench::do_not_optimize(scratch.path.empty() ? 0 : scratch.path.back());
  return g_heap_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::warn);
  bool fast = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--fast] [--out DIR]\n";
      return 2;
    }
  }

  bench::banner(
      "routing engine: epoch-resident index (successor grid + finger rows)",
      "materialized finger rows + successor grid route every overlay "
      "with golden-pinned hops and allocation-free steady state");

  const std::vector<std::size_t> sizes =
      fast ? std::vector<std::size_t>{1'000, 10'000}
           : std::vector<std::size_t>{1'000, 100'000};
  const double min_seconds = fast ? 0.02 : 0.05;

  bench::JsonReporter reporter("routing");
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  Table t({"overlay", "n", "ns/route", "batch ns/route", "steady allocs"});
  t.set_title("route evaluation through the routing index");

  for (const std::size_t n : sizes) {
    Rng rng(0xB07E5 + n);
    const auto table = ids::RingTable::uniform(n, rng);
    for (const overlay::Kind kind : overlay::all_kinds()) {
      const auto graph = overlay::make_overlay(kind, table);
      const std::string slug(overlay::kind_slug(kind));

      (void)graph->index();  // build outside every timed window
      assert_routes_match_golden(*graph, kind, n, /*seed=*/0x51DE + n);

      const auto queries = make_queries(n, /*seed=*/0xC0FFEE + n);
      const double route_ns = measure_route_ns(*graph, queries, min_seconds);
      const double batch_ns = measure_batch_ns(*graph, queries, min_seconds);

      const std::uint64_t steady = steady_state_allocations(*graph, queries);
      if (steady != 0) {
        throw std::logic_error(
            "steady-state routing touched the heap: " + slug +
            " n=" + std::to_string(n) + " performed " +
            std::to_string(steady) + " allocations");
      }

      const bench::JsonReporter::Fields shape{
          {"n", static_cast<double>(n)}};
      reporter.add_ns_per_op("route_" + slug + "_n" + std::to_string(n),
                             route_ns, shape);
      reporter.add_ns_per_op("route_many_" + slug + "_n" + std::to_string(n),
                             batch_ns, shape);
      t.add_row({slug, n, route_ns, batch_ns, steady});
    }
    append_grid_guard(reporter, table, n);
  }

  t.print(std::cout);
  std::cout << "(golden route hashes asserted over " << kProbeRoutes
            << " probes per overlay x size before measurement;\n"
               " steady-state routing performed zero heap allocations.)\n";
  return reporter.write(out_dir) ? 0 : 1;
}
