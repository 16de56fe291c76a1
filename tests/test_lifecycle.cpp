// Tests for system lifecycle pieces: Appendix X initialization, the
// Theta(n) size-variation support and targeted-join analysis.
#include <gtest/gtest.h>

#include "tinygroups/tinygroups.hpp"

namespace tg {
namespace {

// --- Initialization (Appendix X) ---

TEST(Initialization, ProducesWorkingGraphs) {
  core::Params p;
  p.n = 1024;
  p.beta = 0.05;
  p.seed = 71;
  Rng rng(p.seed);
  const auto sys = core::initialize_system(p, rng);
  EXPECT_EQ(sys.graphs.g1->size(), p.n);
  EXPECT_TRUE(sys.graphs.dual());
  Rng probe(72);
  const auto rob = core::measure_robustness(*sys.graphs.g1, 3000, probe);
  EXPECT_GT(rob.search_success, 0.99);
}

TEST(Initialization, ClusterIsHonestMajorityAtModerateBeta) {
  core::Params p;
  p.n = 4096;
  p.beta = 0.15;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    p.seed = seed;
    Rng rng(seed);
    const auto sys = core::initialize_system(p, rng);
    EXPECT_TRUE(sys.report.cluster_honest_majority) << "seed " << seed;
    EXPECT_EQ(sys.report.cluster_size,
              core::representative_cluster_size(p.n));
  }
}

TEST(Initialization, CostsScaleAsDocumented) {
  core::Params p;
  p.beta = 0.05;
  p.seed = 73;
  p.n = 1024;
  Rng rng_a(1);
  const auto small = core::initialize_system(p, rng_a);
  p.n = 4096;
  Rng rng_b(1);
  const auto large = core::initialize_system(p, rng_b);
  // Dissemination is O(n |E|) ~ n^2 polylog: 4x n -> ~16-25x messages.
  const double diss_ratio =
      static_cast<double>(large.report.dissemination_messages) /
      static_cast<double>(small.report.dissemination_messages);
  EXPECT_GT(diss_ratio, 12.0);
  EXPECT_LT(diss_ratio, 40.0);
  // Election ~ n^{3/2} log n: 4x n -> ~8-11x.
  const double elect_ratio =
      static_cast<double>(large.report.election_messages) /
      static_cast<double>(small.report.election_messages);
  EXPECT_GT(elect_ratio, 6.0);
  EXPECT_LT(elect_ratio, 14.0);
}

TEST(Initialization, ClusterSizeIsOddLogarithmic) {
  EXPECT_EQ(core::representative_cluster_size(1024) % 2, 1u);
  EXPECT_GT(core::representative_cluster_size(1 << 20),
            core::representative_cluster_size(1 << 10));
  EXPECT_LT(core::representative_cluster_size(1 << 20), 50u);
}

// --- Theta(n) size variation ---

TEST(SizeVariation, GrowthProducesLargerGenerations) {
  core::Params p;
  p.n = 512;
  p.beta = 0.05;
  p.seed = 74;
  core::BuilderConfig cfg;
  cfg.growth_factor = 1.2;
  core::EpochBuilder builder(p, cfg);
  Rng rng(p.seed);
  auto gen = builder.initial(rng);
  const std::size_t first = gen.pop->size();
  gen = builder.build_next(gen, rng, nullptr);
  EXPECT_GT(gen.pop->size(), first);
  // Clamp at 2n after enough epochs.
  for (int e = 0; e < 8; ++e) gen = builder.build_next(gen, rng, nullptr);
  EXPECT_LE(gen.pop->size(), 2 * p.n);
  EXPECT_GE(gen.pop->size(), 2 * p.n - p.n / 8);
}

TEST(SizeVariation, ShrinkClampsAtHalf) {
  core::Params p;
  p.n = 512;
  p.beta = 0.05;
  p.seed = 75;
  core::BuilderConfig cfg;
  cfg.growth_factor = 0.7;
  core::EpochBuilder builder(p, cfg);
  Rng rng(p.seed);
  auto gen = builder.initial(rng);
  for (int e = 0; e < 6; ++e) gen = builder.build_next(gen, rng, nullptr);
  EXPECT_GE(gen.pop->size(), p.n / 2);
  EXPECT_LE(gen.pop->size(), p.n);
}

TEST(SizeVariation, RobustnessSurvivesDrift) {
  core::Params p;
  p.n = 1024;
  p.beta = 0.05;
  p.seed = 76;
  core::BuilderConfig cfg;
  cfg.growth_factor = 1.1;
  core::EpochBuilder builder(p, cfg);
  Rng rng(p.seed);
  auto gen = builder.initial(rng);
  for (int e = 0; e < 3; ++e) gen = builder.build_next(gen, rng, nullptr);
  EXPECT_LT(gen.g1->red_fraction(), 0.02);
}

// --- Targeted joins ---

TEST(TargetedJoin, UniformIdsCannotCapture) {
  core::Params p;
  p.n = 2048;
  p.beta = 0.10;
  p.seed = 77;
  Rng rng(78);
  const auto rep = adversary::targeted_join_uar(p, rng);
  EXPECT_FALSE(rep.victim_captured);
  // Expected hits ~ budget * |G| / n — single digits.
  EXPECT_LT(rep.landed_in_target, p.group_size() / 2);
  EXPECT_LT(rep.best_group_bad_fraction, 0.5);
}

TEST(TargetedJoin, ChosenIdsCaptureInstantly) {
  core::Params p;
  p.n = 2048;
  p.beta = 0.10;
  p.seed = 79;
  Rng rng(80);
  const auto rep = adversary::targeted_join_chosen(p, rng);
  EXPECT_TRUE(rep.victim_captured);
  EXPECT_GE(rep.landed_in_target, p.group_size() / 2);
}

}  // namespace
}  // namespace tg
