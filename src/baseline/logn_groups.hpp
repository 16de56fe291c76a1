// The prior-work baseline: groups of size Theta(log n).
//
// Every pre-2018 construction cited in Section I-B pays |G| ~ log n to
// keep ALL groups good w.h.p. (epsilon = 1/poly(n)).  Re-running the
// tiny-groups pipeline with that group size gives the apples-to-apples
// cost comparison of Corollary 1 (checked in tests/test_integration.cpp):
// same topology, same searches, only |G| differs.
#pragma once

#include "core/params.hpp"

namespace tg::baseline {

/// Parameters identical to `p` except the group size is the
/// logarithmic baseline (c * ln n, odd-forced).
[[nodiscard]] core::Params logn_baseline(const core::Params& p) noexcept;

/// Closed-form expected message costs for the three Section I cost
/// items, given a group size and route length — used to cross-check
/// the measured ledgers.
struct CostModel {
  double group_communication = 0.0;  ///< |G| (|G|-1)
  double secure_routing = 0.0;       ///< D |G|^2
  double state_per_id = 0.0;         ///< memberships*|G| + |L_w| links
};
[[nodiscard]] CostModel predict_costs(std::size_t group_size, double route_hops,
                                      double memberships,
                                      double neighbor_groups) noexcept;

}  // namespace tg::baseline
