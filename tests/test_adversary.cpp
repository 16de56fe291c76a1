// Tests for the adversary strategies: each attack must be effective
// against the weakness it targets and defeated by the paper's defense.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/adversary.hpp"
#include "adversary/flood.hpp"
#include "adversary/late_release.hpp"
#include "adversary/omit_ids.hpp"
#include "adversary/precompute.hpp"
#include "adversary/redirect.hpp"
#include "core/group_graph.hpp"
#include "crypto/oracle.hpp"
#include "idspace/placement.hpp"
#include "overlay/properties.hpp"
#include "overlay/registry.hpp"
#include "pow/puzzle.hpp"
#include "util/stats.hpp"

namespace tg::adversary {
namespace {

core::GroupGraph make_graph(std::size_t n, double beta, std::uint64_t seed,
                            std::shared_ptr<const core::Population>* keep) {
  core::Params p;
  p.n = n;
  p.beta = beta;
  p.seed = seed;
  Rng rng(seed);
  auto pop = std::make_shared<const core::Population>(
      core::Population::uniform(n, beta, rng));
  *keep = pop;
  const crypto::OracleSuite oracles(seed);
  return core::GroupGraph::pristine(p, pop, oracles.h1);
}

TEST(Redirect, InflatesTraversalsBeyondSearchPaths) {
  std::shared_ptr<const core::Population> pop;
  auto graph = make_graph(1024, 0.0, 3, &pop);
  Rng rng(4);
  graph.mark_red_synthetic(0.05, rng);
  const RedirectReport rep = measure_redirection(graph, 20000, rng);
  EXPECT_GT(rep.failed_searches, 0u);
  // Redirection gives the designated red group every failed search on
  // top of its bounded search-path traversals: the gap is the whole
  // point of defining responsibility over search paths (Section II-A).
  EXPECT_GT(rep.redirected_traversals,
            rep.search_path_traversals + rep.failed_searches / 2);
  // Search-path traversals stay within the congestion bound's order.
  EXPECT_LT(static_cast<double>(rep.search_path_traversals) / 20000.0, 0.05);
}

TEST(Redirect, NoRedGroupsNothingToAmplify) {
  std::shared_ptr<const core::Population> pop;
  auto graph = make_graph(256, 0.0, 5, &pop);
  Rng rng(6);
  graph.mark_red_synthetic(0.0, rng);
  const RedirectReport rep = measure_redirection(graph, 1000, rng);
  EXPECT_EQ(rep.failed_searches, 0u);
  EXPECT_EQ(rep.redirected_traversals, 0u);
}

TEST(Flood, AcceptanceRateIsDualFailureRate) {
  std::shared_ptr<const core::Population> pop1, pop2;
  auto g1 = make_graph(1024, 0.0, 7, &pop1);
  auto g2 = make_graph(1024, 0.0, 7, &pop2);
  Rng rng(8);
  g1.mark_red_synthetic(0.10, rng);
  g2.mark_red_synthetic(0.10, rng);
  const FloodReport rep = flood_membership_requests(g1, g2, 100, 20, rng);
  EXPECT_EQ(rep.bogus_requests, 2000u);
  // Single-search failure ~ D*0.10; dual acceptance ~ its square.
  EXPECT_LT(rep.acceptance_rate, 0.45);
  // And dual must beat single-graph verification decisively.
  const FloodReport single = flood_membership_requests(g1, g1, 100, 20, rng);
  EXPECT_LT(rep.acceptance_rate, single.acceptance_rate + 0.02);
}

TEST(Flood, CleanGraphsRejectEverything) {
  std::shared_ptr<const core::Population> pop;
  auto g = make_graph(512, 0.0, 9, &pop);
  Rng rng(10);
  g.mark_red_synthetic(0.0, rng);
  const FloodReport rep = flood_membership_requests(g, g, 50, 10, rng);
  EXPECT_EQ(rep.accepted, 0u);
}

TEST(LateRelease, ScheduleShapes) {
  Rng rng(11);
  const auto attacks = worst_case_late_release(5, 100, 20, 1e-4, rng);
  ASSERT_EQ(attacks.size(), 5u);
  for (const auto& a : attacks) {
    EXPECT_EQ(a.release_step, 19u);  // last step of Phase 2
    EXPECT_LT(a.output, 1e-4);       // beats the honest minimum
    EXPECT_LT(a.at_node, 100u);
  }
}

TEST(Stockpile, StringsCollapseTheAttack) {
  Rng rng(12);
  const std::uint64_t tau = pow::tau_for_expected_attempts(1000.0);
  const StockpileReport rep =
      simulate_stockpile(/*attempts_per_epoch=*/1 << 20, /*epochs_ahead=*/16,
                         tau, rng);
  // Without strings the adversary banks ~16 epochs of IDs; with them
  // only ~1.5 epochs' worth are usable: ~10x amplification removed.
  EXPECT_GT(rep.amplification, 6.0);
  EXPECT_LT(rep.amplification, 16.0);
  EXPECT_GT(rep.ids_without_strings, rep.ids_with_strings);
}

TEST(ChosenInput, CompositionDestroysSteering) {
  const crypto::OracleSuite oracles(13);
  Rng rng(14);
  const ChosenInputReport rep = simulate_chosen_input(
      oracles, /*target_ids=*/400, /*region=*/0.25, /*budget=*/1 << 22, rng);
  ASSERT_GT(rep.ids, 100u);
  // Single-hash: the adversary steers every ID into the region.
  EXPECT_DOUBLE_EQ(rep.single_hash_hit_rate, 1.0);
  // f∘g: hit rate collapses to the region measure (u.a.r. IDs).
  EXPECT_NEAR(rep.composed_hash_hit_rate, 0.25, 0.08);
}

TEST(OmitIds, StrategiesProduceExpectedCounts) {
  Rng rng(15);
  const auto all =
      build_omitted_population(1000, 200, OmissionStrategy::keep_all, rng);
  EXPECT_EQ(all.bad_count(), 200u);
  const auto half =
      build_omitted_population(1000, 200, OmissionStrategy::keep_low_half, rng);
  EXPECT_NEAR(static_cast<double>(half.bad_count()), 100.0, 40.0);
  const auto none =
      build_omitted_population(1000, 200, OmissionStrategy::keep_none, rng);
  EXPECT_EQ(none.bad_count(), 0u);
  const auto clustered = build_omitted_population(
      1000, 200, OmissionStrategy::keep_clustered, rng);
  EXPECT_LT(clustered.bad_count(), 100u);
}

TEST(OmitIds, SurvivingBadIdsStayWhereChosen) {
  Rng rng(16);
  const auto half =
      build_omitted_population(500, 400, OmissionStrategy::keep_low_half, rng);
  for (std::size_t i = 0; i < half.size(); ++i) {
    if (half.is_bad(i)) {
      EXPECT_LT(half.table().at(i).raw(), ids::kHalfRing);
    }
  }
}

TEST(OmitIds, WithheldSubsetsLeaveTheInputGraphIntact) {
  // Lemma 5 on chord, 2000 good + 400 u.a.r. bad IDs: whichever subset
  // the adversary withholds, mean hops and max load stay near keep_all's
  // (observed within 2.1% and 15.2%) and every interval density stays
  // in the well-spread band [1/2, 3/2] (observed 0.67 to 1.48).
  struct Shape {
    double mean_hops, max_load_times_n;
  };
  const auto measure = [](OmissionStrategy strategy) {
    Rng rng(4242);
    const auto pop = build_omitted_population(2000, 400, strategy, rng);
    const auto spread = ids::check_well_spread(pop.table(), 12.0);
    EXPECT_GE(static_cast<double>(spread.min_count), 0.5 * spread.expected);
    EXPECT_LE(static_cast<double>(spread.max_count), 1.5 * spread.expected);
    const auto graph = overlay::make_overlay(overlay::Kind::chord, pop.table());
    Rng probe(4243);
    const auto rep = overlay::measure_properties(*graph, 4000, probe);
    return Shape{rep.mean_hops, rep.max_load_times_n};
  };
  const Shape keep_all = measure(OmissionStrategy::keep_all);
  for (const auto strategy :
       {OmissionStrategy::keep_low_half, OmissionStrategy::keep_clustered,
        OmissionStrategy::keep_none}) {
    const Shape shape = measure(strategy);
    EXPECT_NEAR(shape.mean_hops / keep_all.mean_hops, 1.0, 0.05);
    EXPECT_NEAR(shape.max_load_times_n / keep_all.max_load_times_n, 1.0, 0.25);
  }
}

TEST(ComputeBudget, FractionArithmetic) {
  ComputeBudget budget;
  budget.beta = 0.25;
  budget.total_system_attempts = 1000;
  EXPECT_EQ(budget.adversary_attempts(), 250u);
}

}  // namespace
}  // namespace tg::adversary
