#include "pow/epoch_string.hpp"

#include <algorithm>
#include <cmath>

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

BinTable::BinTable(std::size_t bins, std::size_t counter_cap)
    : best_(bins + 1), counters_(bins + 1, 0), counter_cap_(counter_cap) {}

bool BinTable::accept(const LotteryString& s) {
  // Bounded min-set per bin.  The paper's rule forwards only strict
  // record-breakers; that breaks Lemma 12(i) when the adversary
  // releases several same-bin strings at different nodes (delivery
  // order then determines which survive where).  Retaining the
  // counter_cap SMALLEST strings per bin — the paper's stated intent
  // in setting c0 >= d'' "so that no smallest values are omitted" —
  // restores set inclusion while keeping state at O(c0 ln n) per bin.
  // (Documented as a protocol clarification in
  // docs/DEVIATIONS.md#bintable-c0-smallest.)
  const std::size_t j = bin_of(s.output, best_.size() - 1);
  auto& retained = best_[j];
  for (const auto& existing : retained) {
    if (existing.uid == s.uid) return false;  // duplicate delivery
  }
  if (retained.size() < counter_cap_) {
    retained.insert(
        std::upper_bound(retained.begin(), retained.end(), s,
                         [](const LotteryString& a, const LotteryString& b) {
                           return a.output < b.output;
                         }),
        s);
    ++counters_[j];
    return true;
  }
  if (s.output < retained.back().output) {
    retained.pop_back();  // evict the largest retained
    retained.insert(
        std::upper_bound(retained.begin(), retained.end(), s,
                         [](const LotteryString& a, const LotteryString& b) {
                           return a.output < b.output;
                         }),
        s);
    return true;
  }
  return false;
}

std::optional<LotteryString> BinTable::minimum() const {
  // The overall minimum is the smallest element of the deepest
  // non-empty bin (bins are sorted ascending).
  for (std::size_t j = best_.size(); j-- > 0;) {
    if (!best_[j].empty()) return best_[j].front();
  }
  return std::nullopt;
}

std::vector<LotteryString> BinTable::solution_set(
    std::size_t target_size) const {
  std::vector<LotteryString> out;
  for (std::size_t j = best_.size(); j-- > 0 && out.size() < target_size;) {
    for (auto it = best_[j].begin();
         it != best_[j].end() && out.size() < target_size; ++it) {
      out.push_back(*it);
    }
  }
  return out;
}

}  // namespace tg::pow
