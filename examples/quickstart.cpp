// Quickstart: build a tiny-groups network, attack it, and search it.
//
// Walks the whole pipeline of the paper once at a readable scale:
//   1. solve real PoW puzzles to mint IDs (Section IV),
//   2. assemble the two group graphs over those IDs (Section III),
//   3. run secure searches through tiny Theta(log log n) groups
//      against a beta-fraction adversary (Section II),
//   4. report epsilon-robustness and message costs (Theorem 3).
#include <iostream>

#include "tinygroups/tinygroups.hpp"

int main() {
  using namespace tg;
  log::set_level(log::Level::warn);

  core::Params params;
  params.n = 2048;
  params.beta = 0.05;
  params.overlay_kind = overlay::Kind::chord;
  params.seed = 42;
  Rng rng(params.seed);

  std::cout << "== tinygroups quickstart ==\n";
  std::cout << "n = " << params.n << " IDs, beta = " << params.beta
            << ", group size |G| = " << params.group_size()
            << " (log-baseline would be " << params.baseline_group_size()
            << ")\n\n";

  // --- 1. Proof-of-work: mint a few IDs with real SHA-256 puzzles.
  const crypto::OracleSuite oracles(params.seed);
  const std::uint64_t tau = pow::tau_for_expected_attempts(2000.0);
  const auto solutions =
      pow::solve_real_batch(oracles, 8, /*r=*/0x1234, tau, 1 << 20, rng);
  std::cout << "[pow] solved " << solutions.size()
            << "/8 puzzles; first ID = "
            << ids::RingPoint{solutions.front().id} << " after "
            << solutions.front().attempts << " attempts\n";

  // A credential proves the solution without revealing sigma.
  const pow::LotteryString epoch_string{0.25e-6, 0, 1};
  const auto cred = pow::make_credential(solutions.front(), epoch_string,
                                         /*r_tag=*/0x1234, tau,
                                         /*nonce=*/rng.u64());
  const bool verified = pow::verify_credential(cred, {epoch_string});
  std::cout << "[pow] credential verification: "
            << (verified ? "ACCEPTED" : "REJECTED") << "\n\n";

  // --- 2. Build the dual group graphs (epoch 0, trusted init).
  core::EpochBuilder builder(params);
  core::EpochGraphs graphs = builder.initial(rng);
  std::cout << "[build] graph 1: " << graphs.g1->size() << " groups, "
            << graphs.g1->red_fraction() * 100 << "% red\n";
  std::cout << "[build] graph 2: " << graphs.g2->size() << " groups, "
            << graphs.g2->red_fraction() * 100 << "% red\n\n";

  // --- 3. One epoch of churn: all IDs turn over, new graphs built
  // from the old via dual searches.
  core::BuildStats stats;
  graphs = builder.build_next(graphs, rng, &stats);
  std::cout << "[epoch] rebuilt from old graphs: "
            << stats.membership_requests << " membership requests ("
            << stats.membership_dual_failures << " dual failures, "
            << stats.membership_rejects << " rejects), "
            << stats.neighbor_requests << " neighbor requests\n";
  std::cout << "[epoch] new red fractions: g1 = "
            << graphs.g1->red_fraction() * 100 << "%, g2 = "
            << graphs.g2->red_fraction() * 100 << "%\n\n";

  // --- 4. Secure searches: epsilon-robustness in action.
  const core::RobustnessReport rob =
      core::measure_robustness(*graphs.g1, 20000, rng);
  std::cout << "[search] success rate: " << rob.search_success * 100
            << "% over " << rob.searches << " searches\n";
  std::cout << "[search] mean route: " << rob.route_hops.mean()
            << " hops; mean cost " << rob.messages.mean()
            << " messages (all-to-all between "
            << params.group_size() << "-member groups)\n";

  const double dual_fail =
      core::measure_dual_failure(*graphs.g1, *graphs.g2, 20000, rng);
  std::cout << "[search] dual-search failure rate: " << dual_fail
            << " (single was " << rob.q_f << ")\n";

  std::cout << "\nDone. See bench/ for the paper's full experiment suite.\n";
  return 0;
}
