// Well-spread placements (Lemma 5 / Appendix VII).
//
// The paper reduces "the adversary may include only a subset of its
// u.a.r. IDs" to a combinatorial property of the resulting placement:
// every clockwise interval of length (lambda ln m)/m contains between
// (lambda/2) ln m and (3 lambda/2) ln m IDs, w.h.p. regardless of the
// omitted subset.  These checks power the Lemma 5 tests.
#pragma once

#include <cstddef>

#include "idspace/ring_table.hpp"

namespace tg::ids {

struct SpreadReport {
  double lambda = 0.0;
  std::size_t intervals_checked = 0;
  std::size_t min_count = 0;      ///< sparsest interval found
  std::size_t max_count = 0;      ///< densest interval found
  double expected = 0.0;          ///< lambda * ln m
  bool well_spread = false;       ///< min >= expected/2 && max <= 3*expected/2
};

/// Slide an interval of length (lambda ln m)/m around the ring anchored
/// at every ID (the extremal positions) and report the density range.
[[nodiscard]] SpreadReport check_well_spread(const RingTable& table,
                                             double lambda);

/// Max load factor: the largest responsibility fraction times m — the
/// quantity bounded by property P2 ("a randomly chosen ID is
/// responsible for at most a (1+delta'')/N fraction" in expectation;
/// the max is O(log) by balls-in-bins).
[[nodiscard]] double max_responsibility_times_m(const RingTable& table);

}  // namespace tg::ids
