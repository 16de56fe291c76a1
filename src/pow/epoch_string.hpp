// Global random strings: bins, counters and solution sets
// (Section IV-B and Appendix VIII).
//
// Each epoch the good IDs run a lottery: everyone hashes random
// strings; the smallest outputs are gossiped; each ID w keeps
//   * bins B_j = [2^-j, 2^-(j-1)) for j = 1..b ln(nT), each with a
//     counter capped at c0 ln n ("record-breaking" forwards only),
//   * a solution set R_w of the d0 ln n smallest-output strings seen.
// An ID generated with string s verifies against R_u membership.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace tg::pow {

/// A lottery string in flight: identified by its hash output and
/// origin.  (The actual bits are irrelevant to the protocol's
/// combinatorics; verification carries the output value.)
struct LotteryString {
  double output = 1.0;        ///< h(s xor r_{i-1}) in [0,1)
  std::uint32_t origin = 0;   ///< node that generated it
  std::uint32_t uid = 0;      ///< unique id for bookkeeping
  friend bool operator==(const LotteryString&, const LotteryString&) = default;
};

/// Bin index for an output: j such that output in [2^-j, 2^-(j-1));
/// clamped to [1, max_bin].
[[nodiscard]] std::size_t bin_of(double output, std::size_t max_bin) noexcept;

/// Per-node bins/counters state implementing the forwarding filter.
class BinTable {
 public:
  BinTable(std::size_t bins, std::size_t counter_cap);

  /// Bounded min-set acceptance: accept (and forward) iff the string
  /// enters the counter_cap smallest retained for its bin.  This is
  /// the clarified form of the paper's record-breaking rule (see the
  /// implementation comment and docs/DEVIATIONS.md#bintable-c0-smallest
  /// for why strict record-breaking does not survive multi-string
  /// same-bin late release).
  [[nodiscard]] bool accept(const LotteryString& s);

  /// Smallest output seen overall (the node's s^{i*} candidate).
  [[nodiscard]] std::optional<LotteryString> minimum() const;

  /// Assemble the solution set R_w: walk bins from the largest
  /// non-empty j downward collecting retained strings until
  /// `target_size` are gathered (Appendix VIII, Phase 3).
  [[nodiscard]] std::vector<LotteryString> solution_set(
      std::size_t target_size) const;

  [[nodiscard]] std::size_t bins() const noexcept { return best_.size(); }

 private:
  std::vector<std::vector<LotteryString>> best_;  ///< per bin, ascending by output
  std::vector<std::size_t> counters_;
  std::size_t counter_cap_;
};

}  // namespace tg::pow
