// Property-based invariant sweeps, registered through tg::proptest.
//
// Where the unit suites pin concrete behaviours, these properties
// assert the paper's structural invariants across GENERATED inputs —
// overlays x sizes x adversary strength x seeds x the dispatch seam
// cross-product (hash kernel x thread count).  Every case is
// replayable: a failure prints a `TG_PROP_SEED=... ctest -R ...` line
// that regenerates the shrunk minimal counterexample byte-for-byte
// (see docs/ARCHITECTURE.md, "Property testing & replay").
//
// Base iteration counts are sized to each property's cost (hundreds
// for arithmetic, single digits for whole-world builds); the nightly
// lane multiplies them via TG_PROP_ITERS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "proptest_domains.hpp"
#include "proptest_gtest.hpp"
#include "tinygroups/tinygroups.hpp"

namespace tg {
namespace {

using proptest::Gen;
using proptest::Options;
using proptest::Source;
using proptest::expect_property;
using proptest_domains::SeamConfig;
using proptest_domains::SeamScope;

Options iters(std::size_t n) {
  Options opt;
  opt.iters = n;
  return opt;
}

std::string show_u64s(std::initializer_list<std::uint64_t> vs) {
  std::ostringstream out;
  out << std::hex;
  for (const auto v : vs) out << "0x" << v << ' ';
  return out.str();
}

// ---------- Arc algebra ----------

TEST(ArcProperties, ComplementaryArcsTileTheRing) {
  using Case = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  expect_property<Case>(
      "arc.complementary-arcs-tile-the-ring",
      proptest::tuple_of(proptest::u64(), proptest::u64(), proptest::u64()),
      [](const Case& c) {
        const auto [ra, rb, rc] = c;
        const ids::RingPoint a{ra}, b{rb}, cpt{rc};
        if (a == b) return true;  // degenerate: no two arcs
        const auto ab = ids::Arc::between(a, b);
        const auto ba = ids::Arc::between(b, a);
        // The two arcs partition the ring: lengths sum to 2^64 == 0.
        if (ab.length() + ba.length() != 0) return false;
        if (cpt == a || cpt == b) return true;
        // Any third point lies in exactly one of them.
        return ab.contains(cpt) != ba.contains(cpt);
      },
      iters(300),
      [](const Case& c) {
        return "points " + show_u64s({std::get<0>(c), std::get<1>(c),
                                      std::get<2>(c)});
      });
}

TEST(ArcProperties, ContainsIsShiftInvariant) {
  using Case = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                          std::uint64_t>;
  expect_property<Case>(
      "arc.contains-is-shift-invariant",
      proptest::tuple_of(proptest::u64(),
                         proptest::below(1ull << 63),  // len
                         proptest::u64(),              // shift
                         proptest::u64()),             // probe
      [](const Case& c) {
        const auto [start, len, shift, probe] = c;
        const ids::RingPoint s{start}, p{probe};
        const ids::Arc arc{s, len};
        const ids::Arc shifted{s.advanced(shift), len};
        return arc.contains(p) == shifted.contains(p.advanced(shift));
      },
      iters(300),
      [](const Case& c) {
        return "start/len/shift/probe " +
               show_u64s({std::get<0>(c), std::get<1>(c), std::get<2>(c),
                          std::get<3>(c)});
      });
}

// ---------- Ring table ----------

TEST(RingTableProperties, SuccessorOfPredecessorIsIdentity) {
  using Case = std::pair<std::uint64_t, std::uint64_t>;  // (n, seed)
  expect_property<Case>(
      "ring.successor-of-predecessor-is-identity",
      proptest::pair_of(proptest::in_range(64, 512), proptest::u64()),
      [](const Case& c) {
        Rng rng(c.second);
        const auto table = ids::RingTable::uniform(c.first, rng);
        for (int i = 0; i < 50; ++i) {
          const ids::RingPoint member = table.at(rng.below(c.first));
          const ids::RingPoint pred = table.predecessor(member);
          if (table.successor(pred.advanced(1)) != member) return false;
        }
        return true;
      },
      iters(25),
      [](const Case& c) {
        return "table{n=" + std::to_string(c.first) + " seed=" +
               show_u64s({c.second}) + '}';
      });
}

TEST(RingTableProperties, CountInIsAdditiveOverSplits) {
  using Case = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                          std::uint64_t>;  // (seed, arc start, len, cut word)
  expect_property<Case>(
      "ring.count-in-is-additive-over-splits",
      proptest::tuple_of(proptest::u64(), proptest::u64(),
                         proptest::below(1ull << 63), proptest::u64()),
      [](const Case& c) {
        const auto [seed, start, len, cut_word] = c;
        Rng rng(seed);
        const auto table = ids::RingTable::uniform(400, rng);
        const std::uint64_t cut = len > 0 ? cut_word % len : 0;
        const ids::RingPoint a{start};
        const ids::Arc whole{a, len};
        const ids::Arc left{a, cut};
        const ids::Arc right{a.advanced(cut), len - cut};
        return table.count_in(whole) ==
               table.count_in(left) + table.count_in(right);
      },
      iters(40),
      [](const Case& c) {
        return "seed/start/len/cut " +
               show_u64s({std::get<0>(c), std::get<1>(c), std::get<2>(c),
                          std::get<3>(c)});
      });
}

// ---------- SHA-256 / oracles, across the kernel-dispatch seams ----------

TEST(ShaProperties, ArbitrarySplitsAgreeUnderEveryKernelCombo) {
  // One case = (kernel combo, data seed, chunk plan).  The streaming
  // split must agree with the one-shot digest under every forcible
  // dispatch combination, not just the host's best tier.
  using Case = std::pair<SeamConfig, std::uint64_t>;
  expect_property<Case>(
      "sha.splits-agree-under-every-kernel-combo",
      proptest::pair_of(proptest_domains::seam_config(1), proptest::u64()),
      [](const Case& c) {
        const SeamScope scope(c.first);
        Rng rng(c.second);
        std::vector<std::uint8_t> data(1024);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.u64());
        const auto whole = crypto::sha256(data);
        for (int trial = 0; trial < 8; ++trial) {
          crypto::Sha256 ctx;
          std::size_t offset = 0;
          while (offset < data.size()) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rng.below(200), data.size() - offset);
            ctx.update(
                std::span<const std::uint8_t>(data.data() + offset, chunk));
            offset += chunk;
          }
          if (ctx.finish() != whole) return false;
        }
        return true;
      },
      iters(20),
      [](const Case& c) {
        return c.first.describe() + " data-seed " + show_u64s({c.second});
      });
}

TEST(OracleProperties, NoShortCollisionsAcrossInputs) {
  using Case = std::uint64_t;  // base of a contiguous input window
  expect_property<Case>(
      "oracle.no-short-collisions", proptest::u64(),
      [](const Case& base) {
        const crypto::RandomOracle oracle("collision-sweep", 6);
        std::unordered_set<std::uint64_t> seen;
        for (std::uint64_t i = 0; i < 2000; ++i) {
          if (!seen.insert(oracle.value_u64(base + i)).second) return false;
        }
        return true;
      },
      iters(8),
      [](const Case& base) { return "window base " + show_u64s({base}); });
}

// ---------- Overlay routing across generated (kind, n, seed) ----------

Gen<overlay::Kind> overlay_kind() {
  return proptest::element_of(std::vector<overlay::Kind>{
      overlay::Kind::chord, overlay::Kind::debruijn,
      overlay::Kind::distance_halving, overlay::Kind::viceroy,
      overlay::Kind::kautz, overlay::Kind::tapestry, overlay::Kind::chordpp});
}

TEST(OverlayProperties, RouteIsDeterministicAndSelfConsistent) {
  using Case = std::tuple<overlay::Kind, std::uint64_t, std::uint64_t>;
  expect_property<Case>(
      "overlay.route-deterministic-and-self-consistent",
      proptest::tuple_of(overlay_kind(), proptest::in_range(64, 400),
                         proptest::u64()),
      [](const Case& c) {
        const auto [kind, n, seed] = c;
        Rng rng(seed);
        const auto table = ids::RingTable::uniform(n, rng);
        const auto graph = overlay::make_overlay(kind, table);
        for (int i = 0; i < 40; ++i) {
          const std::size_t start = rng.below(n);
          const ids::RingPoint key{rng.u64()};
          const auto r1 = graph->route(start, key);
          const auto r2 = graph->route(start, key);
          if (!r1.ok || r1.path != r2.path) return false;
          for (std::size_t k = 1; k < r1.path.size(); ++k) {
            if (r1.path[k] == r1.path[k - 1]) return false;
          }
        }
        return true;
      },
      iters(14),
      [](const Case& c) {
        return std::string(overlay::kind_name(std::get<0>(c))) + " n=" +
               std::to_string(std::get<1>(c)) + " seed " +
               show_u64s({std::get<2>(c)});
      });
}

TEST(OverlayProperties, EveryNodeIsReachableFromEverySampledStart) {
  using Case = std::tuple<overlay::Kind, std::uint64_t, std::uint64_t>;
  expect_property<Case>(
      "overlay.every-node-reachable",
      proptest::tuple_of(overlay_kind(), proptest::in_range(64, 300),
                         proptest::u64()),
      [](const Case& c) {
        const auto [kind, n, seed] = c;
        Rng rng(seed);
        const auto table = ids::RingTable::uniform(n, rng);
        const auto graph = overlay::make_overlay(kind, table);
        for (int i = 0; i < 30; ++i) {
          const std::size_t start = rng.below(n);
          const std::size_t dest = rng.below(n);
          const auto route = graph->route(start, table.at(dest));
          if (!route.ok || route.path.back() != dest) return false;
        }
        return true;
      },
      iters(14),
      [](const Case& c) {
        return std::string(overlay::kind_name(std::get<0>(c))) + " n=" +
               std::to_string(std::get<1>(c)) + " seed " +
               show_u64s({std::get<2>(c)});
      });
}

TEST(OverlayProperties, IndexReproducesTableLookupsAndBatchesAgree) {
  // The routing index is an acceleration structure, not a new
  // algorithm: for every overlay kind and table size (down to
  // single-node tables) its grid must return the table's binary-search
  // successor, a route must end at that successor, and the batch
  // evaluator must agree with one-at-a-time routing.
  using Case = std::tuple<overlay::Kind, std::uint64_t, std::uint64_t>;
  expect_property<Case>(
      "overlay.index-reproduces-table-lookups",
      proptest::tuple_of(overlay_kind(), proptest::in_range(1, 300),
                         proptest::u64()),
      [](const Case& c) {
        const auto [kind, n, seed] = c;
        Rng rng(seed);
        const auto table = ids::RingTable::uniform(n, rng);
        const auto graph = overlay::make_overlay(kind, table);
        const overlay::RoutingIndex& ix = graph->index();
        std::vector<overlay::RouteQuery> queries;
        std::vector<overlay::Route> singles;
        for (int i = 0; i < 25; ++i) {
          const std::size_t start = rng.below(n);
          const ids::RingPoint key{rng.u64()};
          const std::size_t owner = table.successor_index(key);
          if (ix.successor_index(key) != owner) return false;
          auto route = graph->route(start, key);
          if (!route.ok || route.path.back() != owner) return false;
          queries.push_back({start, key});
          singles.push_back(std::move(route));
        }
        std::vector<overlay::Route> batch;
        graph->route_many(queries, batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i].ok != singles[i].ok ||
              !(batch[i].path == singles[i].path)) {
            return false;
          }
        }
        return true;
      },
      iters(14),
      [](const Case& c) {
        return std::string(overlay::kind_name(std::get<0>(c))) + " n=" +
               std::to_string(std::get<1>(c)) + " seed " +
               show_u64s({std::get<2>(c)});
      });
}

// ---------- Group-graph construction, across beta x kernel ----------

Gen<double> beta_notch() {
  // The paper's working range, 5% notches; shrinks toward beta = 0.
  return proptest::below(5).map(
      [](std::uint64_t b) { return 0.05 * static_cast<double>(b); });
}

TEST(CoreProperties, StructuralInvariantsHoldAcrossBetaAndKernels) {
  struct Case {
    double beta = 0.0;
    SeamConfig seams;
    std::uint64_t n = 0, seed = 0;
  };
  Gen<Case> gen{[](Source& src) {
    Case c;
    c.beta = beta_notch().run(src);
    c.seams = proptest_domains::seam_config(1).run(src);
    c.n = 256 + 128 * src.below(4);
    c.seed = src.draw();
    return c;
  }};
  expect_property<Case>(
      "core.structural-invariants",
      gen,
      [](const Case& c) {
        const SeamScope scope(c.seams);
        core::Params p;
        p.n = c.n;
        p.beta = c.beta;
        p.seed = c.seed;
        Rng rng(p.seed);
        auto pop = std::make_shared<const core::Population>(
            core::Population::uniform(p.n, p.beta, rng));
        const crypto::OracleSuite oracles(p.seed);
        const auto graph = core::GroupGraph::pristine(p, pop, oracles.h1);

        for (std::size_t i = 0; i < graph.size(); ++i) {
          const auto grp = graph.group(i);
          // Majority-bad groups are a subset of red groups.
          if (!grp.has_good_majority() && !graph.is_red(i)) return false;
          // Member IDs are valid and the bad count matches the flags.
          std::size_t bad = 0;
          for (const auto m : grp.members) {
            if (m >= pop->size()) return false;
            bad += pop->is_bad(m);
          }
          if (bad != grp.bad_members) return false;
        }
        // Searches never report success through a red group.
        for (int s = 0; s < 50; ++s) {
          const std::size_t start = rng.below(p.n);
          const ids::RingPoint key{rng.u64()};
          const auto route = graph.topology().route(start, key);
          const auto out = core::evaluate_route(graph, route);
          if (out.success) {
            for (const auto idx : route.path) {
              if (graph.is_red(idx)) return false;
            }
          }
        }
        return true;
      },
      iters(6),
      [](const Case& c) {
        std::ostringstream out;
        out << "beta=" << c.beta << ' ' << c.seams.describe() << " n=" << c.n
            << " seed " << show_u64s({c.seed});
        return out.str();
      });
}

TEST(CoreProperties, MeanBadShareTracksBeta) {
  using Case = std::pair<double, std::uint64_t>;  // (beta, seed)
  expect_property<Case>(
      "core.mean-bad-share-tracks-beta",
      proptest::pair_of(beta_notch(), proptest::u64()),
      [](const Case& c) {
        core::Params p;
        p.n = 2048;
        p.beta = c.first;
        p.seed = c.second;
        Rng rng(p.seed);
        auto pop = std::make_shared<const core::Population>(
            core::Population::uniform(p.n, p.beta, rng));
        const crypto::OracleSuite oracles(p.seed);
        const auto graph = core::GroupGraph::pristine(p, pop, oracles.h1);
        RunningStats share;
        for (std::size_t i = 0; i < graph.size(); ++i) {
          share.add(static_cast<double>(graph.group(i).bad_members) /
                    static_cast<double>(graph.group(i).size()));
        }
        return std::abs(share.mean() - p.beta) < 0.025;
      },
      iters(4),
      [](const Case& c) {
        std::ostringstream out;
        out << "beta=" << c.first << " seed " << show_u64s({c.second});
        return out.str();
      });
}

// ---------- Churn sequences: kernel invariance + monotone damage ----------

TEST(ChurnProperties, SequencesAreKernelInvariant) {
  // A churn sequence's resulting epoch (GroupGraph::fingerprint) is a
  // pure function of the world and the sequence: forcing a generated
  // hash-kernel dispatch must not change one group.
  struct Case {
    std::vector<proptest_domains::ChurnStep> steps;
    std::uint64_t seed = 0;
    SeamConfig seams;
  };
  Gen<Case> gen{[](Source& src) {
    Case c;
    c.steps = proptest_domains::churn_sequence(4).run(src);
    c.seed = src.draw();
    c.seams = proptest_domains::seam_config(1).run(src);
    return c;
  }};
  expect_property<Case>(
      "churn.sequences-are-kernel-invariant", gen,
      [](const Case& c) {
        core::Params p;
        p.n = 512;
        p.beta = 0.15;
        p.seed = c.seed;
        const auto run = [&](const SeamConfig& config) {
          const SeamScope scope(config);
          Rng rng(p.seed);
          auto pop = std::make_shared<const core::Population>(
              core::Population::uniform(p.n, p.beta, rng));
          const crypto::OracleSuite oracles(p.seed);
          auto graph = core::GroupGraph::pristine(p, pop, oracles.h1);
          for (const auto& step : c.steps) {
            Rng churn_rng(step.salt);
            (void)core::apply_good_departures(graph, step.departure_fraction,
                                              churn_rng);
          }
          return graph.fingerprint();
        };
        return run(SeamConfig{}) == run(c.seams);
      },
      iters(4),
      [](const Case& c) {
        return proptest_domains::show_churn(c.steps) + " world seed " +
               show_u64s({c.seed}) + ' ' + c.seams.describe();
      });
}

TEST(ChurnProperties, DeeperDeparturesNeverRemoveFewerGoodIds) {
  // Monotonicity of damage: with the SAME departure stream, a larger
  // fraction never departs fewer good IDs, and never raises the
  // minimum good fraction by more than sampling noise.
  using Case = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  expect_property<Case>(
      "churn.departures-monotone",
      proptest::tuple_of(proptest::below(10), proptest::u64(),
                         proptest::u64()),  // (extra notches, salt, seed)
      [](const Case& c) {
        const auto [extra, salt, seed] = c;
        const double f1 = 0.1;
        const double f2 = 0.1 + 0.08 * static_cast<double>(extra);
        core::Params p;
        p.n = 512;
        p.beta = 0.15;
        p.seed = seed;
        const auto run = [&](double fraction) {
          Rng rng(p.seed);
          auto pop = std::make_shared<const core::Population>(
              core::Population::uniform(p.n, p.beta, rng));
          const crypto::OracleSuite oracles(p.seed);
          auto graph = core::GroupGraph::pristine(p, pop, oracles.h1);
          Rng churn_rng(salt);
          return core::apply_good_departures(graph, fraction, churn_rng);
        };
        const auto shallow = run(f1);
        const auto deep = run(f2);
        return deep.departed_good >= shallow.departed_good &&
               deep.min_good_fraction <= shallow.min_good_fraction + 0.15;
      },
      iters(4),
      [](const Case& c) {
        std::ostringstream out;
        out << "deep=" << 0.1 + 0.08 * static_cast<double>(std::get<0>(c))
            << " salt/seed "
            << show_u64s({std::get<1>(c), std::get<2>(c)});
        return out.str();
      });
}

// ---------- PoW: verification scoping + batch/sequential equivalence ----------

TEST(PowProperties, SolutionsVerifyOnlyUnderTheirEpochString) {
  using Case = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  expect_property<Case>(
      "pow.solutions-verify-only-under-their-epoch",
      proptest::tuple_of(proptest::u64(), proptest::u64(), proptest::u64()),
      [](const Case& c) {
        const auto [r1, r2, seed] = c;
        const crypto::OracleSuite oracles(41);
        const pow::PuzzleSolver solver(oracles.f, oracles.g);
        const std::uint64_t tau = pow::tau_for_expected_attempts(30.0);
        Rng rng(seed);
        const auto sol = solver.solve(r1, tau, 100000, rng);
        if (!sol.has_value()) return false;  // budget >> expectation
        // A solution always verifies under its own epoch, and under a
        // DIFFERENT epoch `check` must agree with direct re-evaluation
        // (the ~1/expected-attempts coincidental cross-verify is
        // legitimate, so the property pins consistency, not rarity).
        return solver.check(sol->sigma, r1, tau) &&
               solver.check(sol->sigma, r2, tau) ==
                   (solver.evaluate(sol->sigma, r2).g_output <= tau);
      },
      iters(6),
      [](const Case& c) {
        return "epochs/seed " + show_u64s({std::get<0>(c), std::get<1>(c),
                                           std::get<2>(c)});
      });
}

TEST(PowProperties, SolveBatchMatchesSequentialUnderGeneratedSeams) {
  // The lane-interleaved batch path must stay byte-identical to one
  // solve() per forked rng under a GENERATED kernel combo and machine
  // count (the unit suite pins the exhaustive sweep at one shape; the
  // property walks the shape space).
  struct Case {
    SeamConfig seams;
    std::size_t machines = 1;
    std::uint64_t epoch = 0, rng_seed = 0;
  };
  Gen<Case> gen{[](Source& src) {
    Case c;
    c.seams = proptest_domains::seam_config(1).run(src);
    c.machines = 1 + src.below(12);
    c.epoch = src.draw();
    c.rng_seed = src.draw();
    return c;
  }};
  expect_property<Case>(
      "pow.solve-batch-matches-sequential", gen,
      [](const Case& c) {
        const crypto::OracleSuite oracles(17);
        const pow::PuzzleSolver solver(oracles.f, oracles.g);
        const std::uint64_t tau = pow::tau_for_expected_attempts(60.0);

        Rng rng_seq(c.rng_seed);
        std::vector<pow::Solution> sequential;
        for (std::size_t i = 0; i < c.machines; ++i) {
          Rng machine_rng = rng_seq.fork();
          if (const auto s = solver.solve(c.epoch, tau, 2048, machine_rng)) {
            sequential.push_back(*s);
          }
        }

        const SeamScope scope(c.seams);
        Rng rng_batch(c.rng_seed);
        const auto batched =
            solver.solve_batch(c.epoch, tau, c.machines, 2048, rng_batch);
        if (batched.size() != sequential.size()) return false;
        for (std::size_t i = 0; i < batched.size(); ++i) {
          if (batched[i].sigma != sequential[i].sigma ||
              batched[i].g_output != sequential[i].g_output ||
              batched[i].id != sequential[i].id ||
              batched[i].attempts != sequential[i].attempts) {
            return false;
          }
        }
        return true;
      },
      iters(6),
      [](const Case& c) {
        std::ostringstream out;
        out << c.seams.describe() << " machines=" << c.machines
            << " epoch/seed " << show_u64s({c.epoch, c.rng_seed});
        return out.str();
      });
}

// ---------- Gossip bin tables ----------

TEST(GossipProperties, SolutionSetAlwaysHoldsTheGlobalMinimum) {
  using Case = std::vector<std::uint64_t>;  // raw words -> skewed outputs
  expect_property<Case>(
      "gossip.solution-set-holds-global-minimum",
      proptest::vector_of(proptest::u64(), 1, 64),
      [](const Case& words) {
        pow::BinTables table(1, 40, 8, words.size());
        double true_min = 1.0;
        std::uint32_t min_uid = 0;
        for (std::uint32_t i = 0; i < words.size(); ++i) {
          const double unit =
              static_cast<double>(words[i] >> 11) * 0x1.0p-53;
          const double out = std::pow(unit, 4.0);  // skewed small
          if (out < true_min) {
            true_min = out;
            min_uid = i;
          }
          (void)table.accept(0, table.add(out, 0));
        }
        const auto rset = table.solution_set(0, 4);
        if (rset.empty()) return false;
        return rset.front().uid == min_uid &&
               table.minimum(0).value().uid == min_uid;
      },
      iters(25),
      [](const Case& words) {
        return "outputs[" + std::to_string(words.size()) + ']';
      });
}

/// One node's bins with the accept rule BinTables replaced: dedup by
/// scanning the bin for the uid, then the bounded min-set.  Kept as
/// the reference the flat tables must agree with.
struct ScanBins {
  std::vector<std::vector<pow::LotteryString>> best;
  std::size_t cap;

  bool accept(const pow::LotteryString& s) {
    const auto by_output = [](const pow::LotteryString& a,
                              const pow::LotteryString& b) {
      return a.output < b.output;
    };
    auto& retained = best[pow::bin_of(s.output, best.size() - 1)];
    for (const auto& existing : retained) {
      if (existing.uid == s.uid) return false;
    }
    if (retained.size() < cap) {
      retained.insert(std::upper_bound(retained.begin(), retained.end(), s,
                                       by_output),
                      s);
      return true;
    }
    if (s.output < retained.back().output) {
      retained.pop_back();
      retained.insert(std::upper_bound(retained.begin(), retained.end(), s,
                                       by_output),
                      s);
      return true;
    }
    return false;
  }

  std::vector<pow::LotteryString> retained_deepest_first() const {
    std::vector<pow::LotteryString> out;
    for (std::size_t j = best.size(); j-- > 0;) {
      out.insert(out.end(), best[j].begin(), best[j].end());
    }
    return out;
  }
};

TEST(GossipProperties, FlatBinsAcceptExactlyWhatTheScanRuleAccepts) {
  // Outputs are (1..4) * 2^-(2..7): many ties, values on bin
  // boundaries, and the deepest ones clamped into the last of 5 bins.  Deliveries
  // pick a node and a string, so strings come back again and again,
  // some after being evicted.
  using Case = std::tuple<std::vector<std::uint64_t>,
                          std::vector<std::uint64_t>, std::uint64_t>;
  constexpr std::size_t kNodes = 3, kBins = 5;
  expect_property<Case>(
      "gossip.flat-bins-match-scan-rule",
      proptest::tuple_of(proptest::vector_of(proptest::u64(), 1, 24),
                         proptest::vector_of(proptest::u64(), 0, 200),
                         proptest::in_range(1, 4)),
      [](const Case& c) {
        const auto& [output_words, deliveries, cap] = c;
        pow::BinTables flat(kNodes, kBins, cap, output_words.size());
        std::vector<pow::LotteryString> strings;
        for (const auto w : output_words) {
          const double x = std::ldexp(static_cast<double>(1 + w % 4),
                                      -static_cast<int>(2 + (w >> 2) % 6));
          strings.push_back(flat.string(flat.add(x, 0)));
        }
        std::vector<ScanBins> ref(
            kNodes, ScanBins{std::vector<std::vector<pow::LotteryString>>(
                                 kBins + 1),
                             cap});
        for (const auto d : deliveries) {
          const std::size_t node = (d >> 32) % kNodes;
          const auto& s = strings[d % strings.size()];
          if (flat.accept(node, s.uid) != ref[node].accept(s)) return false;
        }
        for (std::size_t node = 0; node < kNodes; ++node) {
          const auto want = ref[node].retained_deepest_first();
          if (flat.solution_set(node, strings.size()) != want) return false;
          const auto min = flat.minimum(node);
          if (min.has_value() != !want.empty()) return false;
          if (min && *min != want.front()) return false;
        }
        return true;
      },
      iters(300),
      [](const Case& c) {
        return "strings " + std::to_string(std::get<0>(c).size()) +
               " deliveries " + std::to_string(std::get<1>(c).size()) +
               " cap " + std::to_string(std::get<2>(c));
      });
}

// ---------- Workload traffic across the FULL seam cross-product ----------

struct TrafficSnapshot {
  std::uint64_t trace = 0;
  std::uint64_t issued = 0, completed = 0, failed = 0, timed_out = 0;
  std::uint64_t p50 = 0, p99 = 0;

  friend bool operator==(const TrafficSnapshot&,
                         const TrafficSnapshot&) = default;
};

TrafficSnapshot run_traffic_under(const scenario::ScenarioSpec& spec,
                                  const SeamConfig& config) {
  const SeamScope scope(config);
  Rng rng(spec.seed);
  const workload::World world = workload::world_for_trial(spec, false, rng);
  const auto service =
      workload::make_service(spec.workload.service, world, 128, rng());
  const workload::RunResult res = workload::run(
      *service, workload::engine_spec(spec, false), rng(), config.threads);
  return {res.trace_hash,          res.recorder.issued,
          res.recorder.completed,  res.recorder.failed,
          res.recorder.timed_out,  res.recorder.latency.p50(),
          res.recorder.latency.p99()};
}

TEST(WorkloadProperties, TrafficIsInvariantAcrossTheSeamCrossProduct) {
  // THE determinism contract of the runtime stack: client traffic is a
  // pure function of (spec, seed) — bit-identical metrics and trace
  // hash at every point of kernel x thread-count.  One case = a
  // generated spec judged at a generated seam point against the
  // all-defaults point.
  using Case = std::pair<scenario::ScenarioSpec, SeamConfig>;
  expect_property<Case>(
      "workload.traffic-invariant-across-seams",
      proptest::pair_of(proptest_domains::traffic_spec(),
                        proptest_domains::seam_config(8)),
      [](const Case& c) {
        const TrafficSnapshot baseline = run_traffic_under(c.first, {});
        const TrafficSnapshot variant = run_traffic_under(c.first, c.second);
        return baseline == variant;
      },
      iters(3),
      [](const Case& c) {
        return proptest_domains::show_spec(c.first) + " vs " +
               c.second.describe();
      });
}

TEST(WorkloadProperties, CellTrafficIsShardInvariant) {
  using Case = scenario::ScenarioSpec;
  expect_property<Case>(
      "workload.cell-traffic-shard-invariant",
      proptest_domains::traffic_spec(),
      [](const Case& spec) {
        const auto one = workload::run_traffic_cell(spec, true, 1);
        const auto four = workload::run_traffic_cell(spec, true, 4);
        return one.trace_hash == four.trace_hash &&
               one.recorder.issued == four.recorder.issued &&
               one.recorder.completed == four.recorder.completed &&
               one.recorder.latency.p99() == four.recorder.latency.p99();
      },
      iters(2), proptest_domains::show_spec);
}

// ---------- Fault plane ----------

TEST(FaultProperties, FaultedTrafficIsThreadInvariant) {
  // The fault plane's determinism contract: an ARBITRARY generated
  // fault schedule driven through the self-healing lifecycle is
  // bit-identical at 1 vs 4 executor threads — faults are keyed draws
  // over (round, message id), never iteration order.
  using Case = std::pair<scenario::ScenarioSpec, fault::FaultPlan>;
  expect_property<Case>(
      "fault.faulted-traffic-thread-invariant",
      proptest::pair_of(proptest_domains::traffic_spec(),
                        proptest_domains::fault_plan(24, 48)),
      [](const Case& c) {
        const auto run_once = [&](std::size_t threads) {
          Rng rng(c.first.seed);
          const workload::World world =
              workload::world_for_trial(c.first, false, rng);
          const auto service = workload::make_service(
              c.first.workload.service, world, 128, rng());
          workload::Spec engine = workload::engine_spec(c.first, false);
          engine.faults = c.second;
          engine.retry.enabled = true;
          return workload::run(*service, engine, rng(), threads);
        };
        const auto one = run_once(1);
        const auto four = run_once(4);
        return one.trace_hash == four.trace_hash &&
               one.recorder.issued == four.recorder.issued &&
               one.recorder.completed == four.recorder.completed &&
               one.recorder.timed_out == four.recorder.timed_out &&
               one.recorder.retries == four.recorder.retries &&
               one.recorder.stale_replies == four.recorder.stale_replies &&
               one.recorder.latency.p99() == four.recorder.latency.p99();
      },
      iters(3),
      [](const Case& c) {
        return proptest_domains::show_spec(c.first) + " " +
               proptest_domains::show_fault_plan(c.second);
      });
}

TEST(FaultProperties, ZeroProbabilityPlansAreByteIdenticalToNoFaults) {
  // The off-path contract, swept: declaring fault structure with every
  // probability zeroed (windows emptied) must deliver byte-identical
  // traffic to never attaching an injector — the seam itself is free.
  using Case = std::pair<scenario::ScenarioSpec, std::uint64_t>;
  expect_property<Case>(
      "fault.off-path-byte-identical",
      proptest::pair_of(proptest_domains::traffic_spec(), proptest::u64()),
      [](const Case& c) {
        const auto run_once = [&](bool armed) {
          Rng rng(c.first.seed);
          const workload::World world =
              workload::world_for_trial(c.first, false, rng);
          const auto service = workload::make_service(
              c.first.workload.service, world, 128, rng());
          workload::Spec engine = workload::engine_spec(c.first, false);
          if (armed) {
            engine.faults.seed = c.second;
            engine.faults.rules.push_back(fault::HazardRule{});
            engine.faults.rules.push_back(fault::HazardRule{});
          }
          return workload::run(*service, engine, rng(), 1);
        };
        const auto off = run_once(false);
        const auto armed = run_once(true);
        return off.trace_hash == armed.trace_hash &&
               off.recorder.issued == armed.recorder.issued &&
               off.recorder.completed == armed.recorder.completed &&
               off.recorder.timed_out == armed.recorder.timed_out &&
               off.net.delivered == armed.net.delivered &&
               armed.net.fault_dropped == 0 &&
               armed.net.fault_delayed == 0;
      },
      iters(3),
      [](const Case& c) {
        return proptest_domains::show_spec(c.first);
      });
}

// ---------- Telemetry plane ----------

TEST(TelemetryProperties, ExportsAreByteInvariantAcrossTheSeamCrossProduct) {
  // The telemetry determinism contract, swept over the dispatch seam
  // cross-product (kernel x thread count): at ANY generated seam point
  // the exported metrics JSON and Chrome trace JSON are byte-identical
  // to the default point's (all kernel tiers, 1 executor thread).
  using Case = std::pair<scenario::ScenarioSpec, SeamConfig>;
  expect_property<Case>(
      "telemetry.exports-byte-invariant-across-seams",
      proptest::pair_of(proptest_domains::traffic_spec(),
                        proptest_domains::seam_config(4)),
      [](const Case& c) {
        const auto export_under = [&](const SeamConfig& config)
            -> std::pair<std::string, std::string> {
          const SeamScope scope(config);
          telemetry::Session session;
          telemetry::set_active(&session);
          Rng rng(c.first.seed);
          const workload::World world =
              workload::world_for_trial(c.first, false, rng);
          const auto service = workload::make_service(
              c.first.workload.service, world, 128, rng());
          (void)workload::run(*service, workload::engine_spec(c.first, false),
                              rng(), config.threads);
          telemetry::set_active(nullptr);
          return {session.metrics_json(), session.chrome_trace_json()};
        };
        return export_under(c.second) == export_under(SeamConfig{});
      },
      iters(2),
      [](const Case& c) {
        return proptest_domains::show_spec(c.first) + " " +
               c.second.describe();
      });
}

}  // namespace
}  // namespace tg
