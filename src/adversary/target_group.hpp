// Targeted-join attack — why u.a.r. IDs matter.
//
// The classic join-leave attack concentrates adversarial nodes in one
// victim group by re-joining until placements land there (this is what
// breaks small groups under the cuckoo baselines).  Under the
// paper's PoW scheme the adversary CANNOT choose placements: each ID
// costs a full puzzle solution and lands u.a.r. (Lemma 11 + the f∘g
// composition), so stuffing a specific tiny group of size |G| requires
// ~|G|/2 * (n/|G|) = n/2 puzzle solutions per epoch — while its budget
// is beta*n.  This module measures the best concentration the
// adversary achieves per strategy.
#pragma once

#include <cstddef>

#include "core/params.hpp"
#include "util/rng.hpp"

namespace tg::adversary {

struct TargetedJoinReport {
  std::size_t ids_spent = 0;
  std::size_t landed_in_target = 0;   ///< IDs that hit the victim group
  double best_group_bad_fraction = 0.0;  ///< max over ALL groups
  bool victim_captured = false;       ///< victim lost its good majority
};

/// The adversary spends its full per-epoch ID budget (beta*n u.a.r.
/// IDs) trying to capture the group of one victim leader.  Because
/// placements are uniform, expected hits are budget * |G| / n.
[[nodiscard]] TargetedJoinReport targeted_join_uar(const core::Params& params,
                                                   Rng& rng);

/// Counterfactual: the same budget with FREELY CHOSEN placements (what
/// breaks systems without PoW-uniform IDs): the adversary stacks its
/// IDs directly on the victim's membership points.
[[nodiscard]] TargetedJoinReport targeted_join_chosen(const core::Params& params,
                                                      Rng& rng);

}  // namespace tg::adversary
