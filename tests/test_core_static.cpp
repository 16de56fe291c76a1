// Tests for the static construction (Section II): group graphs, blue/
// red classification, secure search semantics, Lemmas 1-4.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/group_graph.hpp"
#include "core/robustness.hpp"
#include "core/search.hpp"
#include "crypto/oracle.hpp"
#include "util/rng.hpp"

namespace tg::core {
namespace {

struct StaticFixture {
  Params params;
  std::shared_ptr<const Population> pop;
  std::unique_ptr<GroupGraph> graph;

  explicit StaticFixture(std::size_t n, double beta, std::uint64_t seed = 7,
                         overlay::Kind kind = overlay::Kind::chord) {
    params.n = n;
    params.beta = beta;
    params.seed = seed;
    params.overlay_kind = kind;
    Rng rng(seed);
    pop = std::make_shared<const Population>(Population::uniform(n, beta, rng));
    const crypto::OracleSuite oracles(seed);
    graph = std::make_unique<GroupGraph>(
        GroupGraph::pristine(params, pop, oracles.h1));
  }
};

TEST(Population, UniformBadCount) {
  Rng rng(1);
  const auto pop = Population::uniform(1000, 0.1, rng);
  EXPECT_EQ(pop.size(), 1000u);
  EXPECT_EQ(pop.bad_count(), 100u);
  EXPECT_DOUBLE_EQ(pop.bad_fraction(), 0.1);
}

TEST(Population, FromPointsLabelsBad) {
  std::vector<ids::RingPoint> good = {ids::RingPoint{10}, ids::RingPoint{20}};
  std::vector<ids::RingPoint> bad = {ids::RingPoint{30}};
  const auto pop = Population::from_points(good, bad);
  EXPECT_EQ(pop.size(), 3u);
  EXPECT_EQ(pop.bad_count(), 1u);
  EXPECT_TRUE(pop.is_bad(pop.table().index_of(ids::RingPoint{30}).value()));
  EXPECT_FALSE(pop.is_bad(pop.table().index_of(ids::RingPoint{10}).value()));
}

TEST(Population, RandomGoodIndexNeverBad) {
  Rng rng(2);
  const auto pop = Population::uniform(200, 0.3, rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(pop.is_bad(pop.random_good_index(rng)));
  }
}

TEST(Params, GroupSizeIsLogLog) {
  Params p;
  p.d1 = 8.0;
  p.n = 1 << 10;
  const auto g10 = p.group_size();
  p.n = 1 << 20;
  const auto g20 = p.group_size();
  EXPECT_GT(g20, g10 - 1);            // grows (weakly) with n
  EXPECT_LT(g20, 2 * g10);            // but much slower than log n
  EXPECT_EQ(g20 % 2, 1u);             // odd-forced
  EXPECT_GE(p.baseline_group_size(), 2 * g20);  // log baseline is far larger
}

TEST(Params, OverrideWins) {
  Params p;
  p.group_size_override = 12;
  EXPECT_EQ(p.group_size(), 13u);  // odd-forced
}

TEST(Params, ThresholdUsesConcreteFraction) {
  Params p;  // beta=0.05, delta=0.1, theta=0.3
  EXPECT_EQ(p.bad_member_threshold(17), 5u);
  EXPECT_EQ(p.bad_member_threshold(100), 30u);
  p.bad_fraction_limit = 0.0;  // pure asymptotic form
  EXPECT_EQ(p.bad_member_threshold(100), 5u);
}

TEST(Params, EpsilonPrime) {
  Params p;
  EXPECT_NEAR(p.epsilon_prime(), 1.0 - 2.0 * 1.1 * 0.05, 1e-12);
}

TEST(Group, ClassificationRules) {
  Params p;
  p.n = 2048;
  Group g;
  g.members.resize(p.group_size());
  g.bad_members = 0;
  EXPECT_FALSE(g.is_bad(p));
  g.bad_members = p.bad_member_threshold(g.size()) + 1;
  EXPECT_TRUE(g.is_bad(p));
  // Confusion alone makes a group red but not bad.
  g.bad_members = 0;
  g.confused = true;
  EXPECT_FALSE(g.is_bad(p));
  EXPECT_TRUE(g.is_red(p));
  // Undersized is bad.
  Group tiny;
  tiny.members.resize(p.group_min_size() - 1);
  EXPECT_TRUE(tiny.is_bad(p));
}

TEST(Group, MajorityPredicate) {
  Group g;
  g.members.resize(9);
  g.bad_members = 4;
  EXPECT_TRUE(g.has_good_majority());
  g.bad_members = 5;
  EXPECT_FALSE(g.has_good_majority());
}

TEST(GroupGraph, PristineShapes) {
  StaticFixture f(1024, 0.05);
  EXPECT_EQ(f.graph->size(), 1024u);
  const std::size_t g = f.params.group_size();
  for (std::size_t i = 0; i < 50; ++i) {
    const GroupView grp = f.graph->group(i);
    EXPECT_EQ(grp.leader, i);
    EXPECT_LE(grp.size(), g);
    EXPECT_GE(grp.size(), g - 3);  // dedup may lose a couple of slots
    EXPECT_EQ(grp.corrupted_slots, 0u);
    EXPECT_FALSE(grp.confused);
  }
}

TEST(GroupGraph, MembershipIsOracleDetermined) {
  // Same seed -> identical graphs; different h1/h2 -> different groups.
  StaticFixture a(512, 0.05, 9), b(512, 0.05, 9);
  const crypto::OracleSuite oracles(9);
  auto g2 = GroupGraph::pristine(a.params, a.pop, oracles.h2);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.graph->size(); ++i) {
    EXPECT_EQ(a.graph->group(i).members, b.graph->group(i).members);
    if (a.graph->group(i).members != g2.group(i).members) ++differing;
  }
  EXPECT_GT(differing, a.graph->size() / 2);
}

TEST(GroupGraph, BadMembershipMatchesBinomial) {
  StaticFixture f(4096, 0.1, 11);
  RunningStats bad_fraction;
  for (std::size_t i = 0; i < f.graph->size(); ++i) {
    const GroupView grp = f.graph->group(i);
    bad_fraction.add(static_cast<double>(grp.bad_members) /
                     static_cast<double>(grp.size()));
  }
  EXPECT_NEAR(bad_fraction.mean(), 0.1, 0.01);  // E[bad share] = beta
}

TEST(GroupGraph, RedFractionSmallAtDefaultParams) {
  StaticFixture f(4096, 0.05, 12);
  // epsilon-robustness: red fraction must be o(1); at these parameters
  // the Chernoff bound predicts well under 1%.
  EXPECT_LT(f.graph->red_fraction(), 0.01);
  EXPECT_EQ(f.graph->confused_fraction(), 0.0);
  EXPECT_LE(f.graph->majority_bad_fraction(), f.graph->red_fraction() + 1e-9);
}

TEST(GroupGraph, RedFractionFallsAsGroupSizeGrows) {
  // Section I-D's knee, static side: the red fraction falls as |G|
  // grows toward d1 ln ln n, and only near the default size does
  // search success reach 1 - eps.  At n = 1024, beta = 0.05 the sweep
  // reads red = 0.0176, 0.0078, 0.0020, 0, 0 and success 0.891 at
  // |G| = 5, 1.0 at the default |G| = 25.
  constexpr double kEpsilon = 0.01;
  std::vector<double> red, success;
  for (const std::size_t g : {5u, 9u, 13u, 17u, 0u}) {  // 0 = default size
    Params p;
    p.n = 1024;
    p.beta = 0.05;
    p.seed = 1234;
    p.group_size_override = g;
    Rng rng(p.seed + g);
    auto pop = std::make_shared<const Population>(
        Population::uniform(p.n, p.beta, rng));
    const crypto::OracleSuite oracles(p.seed);
    const auto graph = GroupGraph::pristine(p, pop, oracles.h1);
    red.push_back(graph.red_fraction());
    success.push_back(measure_robustness(graph, 15000, rng).search_success);
  }
  for (std::size_t i = 1; i < red.size(); ++i) {
    EXPECT_LE(red[i], red[i - 1]) << "sweep step " << i;
  }
  EXPECT_GT(red.front(), 0.01);
  EXPECT_LT(success.front(), 1.0 - kEpsilon);
  EXPECT_GE(success.back(), 1.0 - kEpsilon);
}

TEST(GroupGraph, SyntheticMarkingOverridesComposition) {
  StaticFixture f(512, 0.05, 13);
  Rng rng(14);
  f.graph->mark_red_synthetic(1.0, rng);
  EXPECT_DOUBLE_EQ(f.graph->red_fraction(), 1.0);
  f.graph->mark_red_synthetic(0.0, rng);
  EXPECT_DOUBLE_EQ(f.graph->red_fraction(), 0.0);
  f.graph->clear_synthetic();
  EXPECT_GT(f.graph->red_fraction(), 0.0);
  EXPECT_LT(f.graph->red_fraction(), 0.05);
}

TEST(GroupGraph, SyntheticFractionMatchesPf) {
  StaticFixture f(4096, 0.0, 15);
  Rng rng(16);
  f.graph->mark_red_synthetic(0.1, rng);
  EXPECT_NEAR(f.graph->red_fraction(), 0.1, 0.02);
}

TEST(GroupGraph, MessageAccounting) {
  StaticFixture f(256, 0.0, 17);
  const auto m01 = f.graph->pair_messages(0, 1);
  EXPECT_EQ(m01, static_cast<std::uint64_t>(f.graph->group(0).size()) *
                     f.graph->group(1).size());
  const auto intra = f.graph->intra_group_messages(0);
  const auto s = f.graph->group(0).size();
  EXPECT_EQ(intra, static_cast<std::uint64_t>(s) * (s - 1));
}

TEST(SecureSearch, AllBlueAlwaysSucceeds) {
  StaticFixture f(1024, 0.0, 18);
  Rng rng(19);
  f.graph->mark_red_synthetic(0.0, rng);
  for (int i = 0; i < 200; ++i) {
    const auto out =
        secure_search(*f.graph, rng.below(1024), ids::RingPoint{rng.u64()});
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.path_groups, out.route_hops + 1);
    EXPECT_GT(out.messages, 0u);
  }
}

TEST(SecureSearch, RedStartFailsImmediately) {
  StaticFixture f(512, 0.0, 20);
  Rng rng(21);
  f.graph->mark_red_synthetic(1.0, rng);  // everything red
  const auto out = secure_search(*f.graph, 5, ids::RingPoint{rng.u64()});
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.path_groups, 1u);  // halted at the start group
  EXPECT_EQ(out.messages, 0u);
}

TEST(SecureSearch, PathTruncatesAtFirstRed) {
  StaticFixture f(512, 0.0, 22);
  Rng rng(23);
  f.graph->mark_red_synthetic(0.3, rng);
  for (int i = 0; i < 300; ++i) {
    const std::size_t start = rng.below(512);
    const ids::RingPoint key{rng.u64()};
    const overlay::Route route = f.graph->topology().route(start, key);
    const auto out = evaluate_route(*f.graph, route);
    // The search path is a prefix of the H route (Lemma 1's coupling).
    EXPECT_LE(out.path_groups, route.path.size());
    if (out.success) {
      EXPECT_EQ(out.path_groups, route.path.size());
      for (const auto idx : route.path) EXPECT_FALSE(f.graph->is_red(idx));
    } else {
      // The last group on the path is red; everything before is blue.
      for (std::size_t k = 0; k + 1 < out.path_groups; ++k) {
        EXPECT_FALSE(f.graph->is_red(route.path[k]));
      }
      EXPECT_TRUE(f.graph->is_red(route.path[out.path_groups - 1]));
    }
  }
}

TEST(DualSearch, SameGraphDegeneratesToSingle) {
  StaticFixture f(512, 0.05, 24);
  Rng rng(25);
  for (int i = 0; i < 100; ++i) {
    const std::size_t start = rng.below(512);
    const ids::RingPoint key{rng.u64()};
    const auto single = secure_search(*f.graph, start, key);
    const auto dual = dual_secure_search(*f.graph, *f.graph, start, key);
    EXPECT_EQ(dual.success, single.success);
    EXPECT_EQ(dual.messages, single.messages);
  }
}

TEST(DualSearch, SucceedsIfEitherSucceeds) {
  // Two graphs over the same population with independent synthetic
  // red sets.
  StaticFixture f(512, 0.0, 26);
  const crypto::OracleSuite oracles(26);
  auto g2 = std::make_unique<GroupGraph>(
      GroupGraph::pristine(f.params, f.pop, oracles.h2));
  Rng rng(27);
  f.graph->mark_red_synthetic(0.5, rng);
  g2->mark_red_synthetic(0.5, rng);
  std::size_t singles = 0, duals = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t start = rng.below(512);
    const ids::RingPoint key{rng.u64()};
    const auto s = secure_search(*f.graph, start, key);
    const auto d = dual_secure_search(*f.graph, *g2, start, key);
    EXPECT_EQ(d.success, s.success || secure_search(*g2, start, key).success);
    singles += s.success;
    duals += d.success;
  }
  EXPECT_GT(duals, singles);  // the second graph strictly helps
}

// --- Lemmas 1-4 in the static S2 model ---

TEST(Lemma1, ResponsibilityBoundedByCongestion) {
  StaticFixture f(2048, 0.0, 28);
  Rng rng(29);
  f.graph->mark_red_synthetic(1.0 / 64.0, rng);
  const auto rho = measure_responsibility(*f.graph, 40000, rng);
  double max_rho = 0.0;
  for (const auto r : rho) max_rho = std::max(max_rho, r);
  // O(log^c n / n): generous constant, log^2-scale numerator.
  const double n = 2048.0;
  const double bound = 20.0 * std::log(n) * std::log2(n) / n;
  EXPECT_LT(max_rho, bound);
}

TEST(Lemma4, FailureScalesWithPf) {
  // X = O(pf log^c n): halving pf roughly halves the failure rate.
  StaticFixture f(2048, 0.0, 30);
  Rng rng(31);
  f.graph->mark_red_synthetic(0.02, rng);
  const auto rob_hi = measure_robustness(*f.graph, 20000, rng);
  f.graph->mark_red_synthetic(0.005, rng);
  const auto rob_lo = measure_robustness(*f.graph, 20000, rng);
  EXPECT_GT(rob_hi.q_f, rob_lo.q_f);
  // Ratio of failure rates tracks the pf ratio (4x) within slack.
  EXPECT_NEAR(rob_hi.q_f / std::max(rob_lo.q_f, 1e-6), 4.0, 2.0);
}

TEST(Robustness, StateCostReportShapes) {
  StaticFixture f(1024, 0.05, 32);
  const auto report = measure_state_cost(*f.graph);
  // Lemma 10: expected memberships per ID = Theta(group size).
  EXPECT_NEAR(report.memberships.mean(), report.mean_group_size, 2.0);
  EXPECT_GT(report.neighbor_groups.mean(), 0.0);
  EXPECT_GT(report.member_links.mean(), report.memberships.mean());
}

TEST(Robustness, ReportFieldsConsistent) {
  StaticFixture f(512, 0.05, 33);
  Rng rng(34);
  const auto rep = measure_robustness(*f.graph, 5000, rng);
  EXPECT_NEAR(rep.search_success + rep.q_f, 1.0, 1e-12);
  EXPECT_EQ(rep.searches, 5000u);
  EXPECT_GT(rep.route_hops.mean(), 1.0);
}

}  // namespace
}  // namespace tg::core
