// Erasure-coded storage on groups — replication's cheaper sibling.
//
// The paper's storage application (Section I-A; footnote 2 "data may
// also be redundantly stored at multiple group members") replicates
// each item at every member: byte overhead |G|x, reads tolerate up to
// a bad minority.  Reed-Solomon coding over the group does better: the
// item is a degree-(k-1) polynomial over GF(2^61-1), member i holds
// the single evaluation at x = i+1, and ANY k honest evaluations
// reconstruct — lying members are corrected by Berlekamp-Welch as long
// as |G| >= k + 2e.  Storage overhead drops from |G|x to |G|/k x while
// keeping Byzantine tolerance e = floor((|G|-k)/2).
//
// The trade-off tests/test_coded_storage.cpp checks: replication reads are
// one round with majority filtering; coded reads must gather shares
// (same round shape) but pay BW decoding CPU, and tolerate strictly
// fewer liars when k is pushed high.  This mirrors the classic
// replication-vs-coding design space, instantiated on the paper's
// groups.
#pragma once

#include <cstdint>
#include <vector>

#include "bft/shamir.hpp"


#include "util/rng.hpp"

namespace tg::bft {

/// An item encoded across one group; words are data (NOT secret), so
/// the polynomial interpolates the payload directly: coefficients =
/// data words, shares = evaluations.
struct CodedItem {
  std::vector<Fe> data;           ///< k payload words
  std::vector<Share> fragments;   ///< one per member slot
};

/// Encode `words` (k = words.size()) across `group_size` fragments.
/// Requires k <= group_size.
[[nodiscard]] CodedItem encode_item(const std::vector<std::uint64_t>& words,
                                    std::size_t group_size);

struct CodedReadResult {
  bool ok = false;
  std::vector<std::uint64_t> words;
  std::size_t liars_corrected = 0;
};

/// Read back from the fragments reported by members; `is_liar[i]`
/// marks fragments the adversary corrupts (replaced by garbage drawn
/// from rng).  Succeeds iff fragments.size() >= k + 2 * liars.
[[nodiscard]] CodedReadResult read_item(const CodedItem& item,
                                        const std::vector<std::uint8_t>& is_liar,
                                        Rng& rng);

/// Byte overhead of coding vs replication for a group of g members
/// storing k-word items: g/k vs g.
[[nodiscard]] double coded_overhead(std::size_t g, std::size_t k) noexcept;

/// Max tolerated liars: floor((g - k) / 2).
[[nodiscard]] std::size_t coded_fault_tolerance(std::size_t g,
                                                std::size_t k) noexcept;

}  // namespace tg::bft
