// Global random strings: bins and solution sets (Section IV-B and
// Appendix VIII).
//
// Each epoch the good IDs run a lottery: everyone hashes random
// strings; the smallest outputs are gossiped; each ID w keeps
//   * bins B_j = [2^-j, 2^-(j-1)) for j = 1..b ln(nT), each retaining
//     at most c0 ln n strings (only strings that enter a bin's retained
//     set are forwarded),
//   * a solution set R_w of the d0 ln n smallest-output strings seen.
// An ID generated with string s verifies against R_u membership.
#pragma once

#include <cstdint>
#include <memory>
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

/// The bins of every node of one lottery run, in flat fixed-size
/// storage.  Strings are registered once per run and named by their
/// uid, the registration index; outputs and bins are looked up in one
/// table indexed by uid.  Node w keeps, for each bin j = 0..bins, the
/// uids of at most `cap` accepted strings in a fixed slab, ascending by
/// output, plus one seen bit per uid.
///
/// Nodes share no mutable state: `accept`, `minimum` and
/// `solution_set` may run concurrently for distinct nodes, but not
/// concurrently with `add`.
class BinTables {
 public:
  /// `max_strings` bounds the number of `add` calls; the seen bits
  /// take nodes * max_strings / 8 bytes.
  BinTables(std::size_t nodes, std::size_t bins, std::size_t cap,
            std::size_t max_strings);

  /// Register a string; returns its uid.  Throws std::length_error
  /// past `max_strings`.
  std::uint32_t add(double output, std::uint32_t origin);

  [[nodiscard]] const LotteryString& string(std::uint32_t uid) const {
    return strings_[uid];
  }
  [[nodiscard]] std::size_t size() const noexcept { return strings_.size(); }

  /// Bounded min-set acceptance at `node`: accept (and forward) iff
  /// the string enters the `cap` smallest retained for its bin.  This
  /// is the clarified form of the paper's record-breaking rule (see
  /// docs/DEVIATIONS.md#bintable-c0-smallest), and a uid the node has
  /// seen before is rejected without consulting the bin: a redelivery
  /// could never enter the bin again, so the answer is the same.
  [[nodiscard]] bool accept(std::size_t node, std::uint32_t uid);

  /// Smallest output `node` retains (its s^{i*} candidate).
  [[nodiscard]] std::optional<LotteryString> minimum(std::size_t node) const;

  /// Assemble the solution set R_w of `node`: walk bins from the
  /// largest non-empty j downward collecting retained strings until
  /// `target_size` are gathered (Appendix VIII, Phase 3).
  [[nodiscard]] std::vector<LotteryString> solution_set(
      std::size_t node, std::size_t target_size) const;

 private:
  std::size_t rows_;   ///< bins + 1 per node (index 0 unused by bin_of)
  std::size_t cap_;
  std::size_t max_strings_;
  std::size_t words_;  ///< seen-bit words per node
  std::vector<LotteryString> strings_;  ///< by uid
  std::vector<std::uint32_t> bin_;      ///< by uid
  std::vector<std::uint32_t> counts_;   ///< [node * rows_ + j]
  /// [(node * rows_ + j) * cap_ + k]; slots past a count are never
  /// read, so the slab is left uninitialised and untouched pages cost
  /// no memory.
  std::unique_ptr<std::uint32_t[]> slots_;
  std::vector<std::uint64_t> seen_;     ///< [node * words_ + uid / 64]
};

}  // namespace tg::pow
