// Integration: replicated reads driven by REAL group compositions from
// a GroupGraph — the pipeline "key -> responsible group -> a copy on
// every member -> majority-filtered read-back" of the paper's storage
// application (Section I-A).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bft/majority_filter.hpp"
#include "core/group_graph.hpp"
#include "crypto/oracle.hpp"
#include "util/rng.hpp"

namespace tg {
namespace {

struct Fixture {
  core::Params params;
  std::shared_ptr<const core::Population> pop;
  std::unique_ptr<core::GroupGraph> graph;

  Fixture(std::size_t n, double beta, std::uint64_t seed) {
    params.n = n;
    params.beta = beta;
    params.seed = seed;
    Rng rng(seed);
    pop = std::make_shared<const core::Population>(
        core::Population::uniform(n, beta, rng));
    const crypto::OracleSuite oracles(seed);
    graph = std::make_unique<core::GroupGraph>(
        core::GroupGraph::pristine(params, pop, oracles.h1));
  }
};

TEST(StorageIntegration, RetentionAcrossComposition) {
  // epsilon-robustness as a storage property (Section I-A): the
  // fraction of keys whose responsible group serves replicated reads
  // correctly tracks 1 - red fraction.
  for (const double beta : {0.0, 0.05, 0.10}) {
    Fixture fx(1024, beta, 17);
    Rng rng(4);
    std::size_t ok = 0;
    const std::size_t keys = 400;
    for (std::size_t i = 0; i < keys; ++i) {
      const ids::RingPoint key{rng.u64()};
      const std::size_t owner =
          fx.graph->leaders().table().successor_index(key);
      // Every good member serves the stored copy, every bad member the
      // colluders' common forgery; the reader keeps a strict majority.
      const std::uint64_t value = rng.u64();
      std::vector<std::uint64_t> copies;
      for (const auto m : fx.graph->group(owner).members) {
        copies.push_back(fx.pop->is_bad(m) ? ~value : value);
      }
      const auto vote = bft::majority_vote(copies);
      ok += (vote.strict_majority && vote.value == value) ? 1 : 0;
    }
    const double retention =
        static_cast<double>(ok) / static_cast<double>(keys);
    EXPECT_GE(retention, 1.0 - fx.graph->red_fraction() - 0.03)
        << "beta=" << beta;
  }
}

}  // namespace
}  // namespace tg
