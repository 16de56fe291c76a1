#include "pow/epoch_string.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tg::pow {

std::size_t bin_of(double output, std::size_t max_bin) noexcept {
  if (output <= 0.0) return max_bin;
  // output in [2^-j, 2^-(j-1))  <=>  j = ceil(-log2(output)), with the
  // boundary 2^-j itself belonging to bin j.
  const double l = -std::log2(output);
  auto j = static_cast<std::size_t>(std::ceil(l));
  if (j < 1) j = 1;
  if (j > max_bin) j = max_bin;
  return j;
}

BinTables::BinTables(std::size_t nodes, std::size_t bins, std::size_t cap,
                     std::size_t max_strings)
    : rows_(bins + 1),
      cap_(cap),
      max_strings_(max_strings),
      words_((max_strings + 63) / 64),
      counts_(nodes * rows_, 0),
      slots_(std::make_unique_for_overwrite<std::uint32_t[]>(nodes * rows_ *
                                                              cap)),
      seen_(nodes * words_, 0) {
  strings_.reserve(max_strings);
  bin_.reserve(max_strings);
}

std::uint32_t BinTables::add(double output, std::uint32_t origin) {
  if (strings_.size() == max_strings_) {
    throw std::length_error("BinTables::add: more strings than max_strings");
  }
  const auto uid = static_cast<std::uint32_t>(strings_.size());
  strings_.push_back(LotteryString{output, origin, uid});
  bin_.push_back(static_cast<std::uint32_t>(bin_of(output, rows_ - 1)));
  return uid;
}

bool BinTables::accept(std::size_t node, std::uint32_t uid) {
  std::uint64_t& word = seen_[node * words_ + uid / 64];
  const std::uint64_t bit = std::uint64_t{1} << (uid % 64);
  if (word & bit) return false;
  word |= bit;

  // Bounded min-set per bin.  The paper's rule forwards only strict
  // record-breakers; that breaks Lemma 12(i) when the adversary
  // releases several same-bin strings at different nodes (delivery
  // order then determines which survive where).  Retaining the cap
  // SMALLEST strings per bin — the paper's stated intent in setting
  // c0 >= d'' "so that no smallest values are omitted" — restores set
  // inclusion while keeping state at O(c0 ln n) per bin.
  // (docs/DEVIATIONS.md#bintable-c0-smallest)
  const std::size_t row = node * rows_ + bin_[uid];
  std::uint32_t& count = counts_[row];
  std::uint32_t* slot = &slots_[row * cap_];
  const double x = strings_[uid].output;
  if (count == cap_) {
    if (count == 0 || !(x < strings_[slot[count - 1]].output)) return false;
    --count;  // evict the largest retained
  }
  // Insert after every retained string with an output <= x.
  std::uint32_t pos = count;
  for (; pos > 0 && x < strings_[slot[pos - 1]].output; --pos) {
    slot[pos] = slot[pos - 1];
  }
  slot[pos] = uid;
  ++count;
  return true;
}

std::optional<LotteryString> BinTables::minimum(std::size_t node) const {
  // The overall minimum is the smallest element of the deepest
  // non-empty bin (bins are sorted ascending).
  for (std::size_t j = rows_; j-- > 0;) {
    const std::size_t row = node * rows_ + j;
    if (counts_[row] != 0) return strings_[slots_[row * cap_]];
  }
  return std::nullopt;
}

std::vector<LotteryString> BinTables::solution_set(
    std::size_t node, std::size_t target_size) const {
  std::vector<LotteryString> out;
  for (std::size_t j = rows_; j-- > 0 && out.size() < target_size;) {
    const std::size_t row = node * rows_ + j;
    const std::size_t take = std::min<std::size_t>(
        counts_[row], target_size - out.size());
    for (std::size_t k = 0; k < take; ++k) {
      out.push_back(strings_[slots_[row * cap_ + k]]);
    }
  }
  return out;
}

}  // namespace tg::pow
