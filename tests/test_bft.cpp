// Tests for majority filtering of all-to-all transfers (Section I),
// the in-group primitive every inter-group hop relies on.
#include <gtest/gtest.h>

#include <vector>

#include "bft/majority_filter.hpp"
#include "util/rng.hpp"

namespace tg::bft {
namespace {

// --- Majority filtering ---

TEST(MajorityVote, EmptyInput) {
  const auto r = majority_vote({});
  EXPECT_FALSE(r.strict_majority);
  EXPECT_EQ(r.support, 0u);
}

TEST(MajorityVote, UnanimousWins) {
  const std::vector<std::uint64_t> copies(7, 42);
  const auto r = majority_vote(copies);
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(r.support, 7u);
  EXPECT_TRUE(r.strict_majority);
}

TEST(MajorityVote, ExactHalfIsNotStrict) {
  const std::vector<std::uint64_t> copies = {1, 1, 2, 2};
  EXPECT_FALSE(majority_vote(copies).strict_majority);
}

TEST(TransferCorruption, GoodMajorityDecodesTruth) {
  // 9 good vs 4 colluding bad: truth must win.
  const auto r = transfer_with_corruption(777, 9, 4, 666);
  EXPECT_EQ(r.value, 777u);
  EXPECT_TRUE(r.strict_majority);
}

TEST(TransferCorruption, BadMajorityForges) {
  const auto r = transfer_with_corruption(777, 4, 9, 666);
  EXPECT_EQ(r.value, 666u);
}

TEST(TransferCorruption, ThresholdBoundaryExhaustive) {
  // For every composition up to size 21, correctness iff good > bad.
  for (std::size_t good = 0; good <= 21; ++good) {
    for (std::size_t bad = 0; good + bad > 0 && bad <= 21; ++bad) {
      const auto r = transfer_with_corruption(1, good, bad, 2);
      const bool correct = (r.value == 1 && r.strict_majority);
      EXPECT_EQ(correct, good > bad) << "good=" << good << " bad=" << bad;
    }
  }
}

TEST(TransferSplitVotes, SplittingNeverHelpsAdversary) {
  Rng rng(1);
  // With vote splitting the adversary's support only fragments; the
  // truth needs merely a plurality, which `good > bad` guarantees.
  for (int trial = 0; trial < 50; ++trial) {
    const auto r = transfer_with_split_votes(99, 6, 5, 4, rng);
    EXPECT_EQ(r.value, 99u);
  }
}

}  // namespace
}  // namespace tg::bft
