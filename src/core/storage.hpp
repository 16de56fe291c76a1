// Replicated storage with epoch handoff — the data layer behind the
// paper's epsilon-robustness definition ("all but an eps-fraction of
// data is reachable and maintained reliably").
//
// A key's value is replicated on the members of the responsible ID's
// group.  When an epoch turns over (all IDs expire), ownership moves
// to the new responsible group: the old owner group pushes each item
// to the new owner, located with a dual search in the old graphs.  An
// item survives the handoff iff
//   * its old owner group still has a good majority (the copies can be
//     majority-filtered), and
//   * the locating dual search succeeds, and
//   * the receiving group is good (it will actually store it).
// The Storage.* tests (test_extensions) measure retention through this
// module.  The served store is a different one: the kv_store example
// and perfbench's kv_chaos drive workload::KvService on the message
// runtime.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/builder.hpp"
#include "core/search.hpp"
#include "util/rng.hpp"

namespace tg::core {

struct HandoffReport {
  std::size_t items_before = 0;
  std::size_t items_after = 0;
  std::size_t lost_bad_owner = 0;     ///< old owner had no good majority
  std::size_t lost_search = 0;        ///< dual search failed
  std::size_t lost_bad_receiver = 0;  ///< new owner group is red
  std::uint64_t messages = 0;

  [[nodiscard]] double retention() const noexcept {
    return items_before == 0 ? 1.0
                             : static_cast<double>(items_after) /
                                   static_cast<double>(items_before);
  }
};

class ReplicatedStore {
 public:
  /// Bind to the current generation; items are owned by groups of g1.
  /// The store keeps a pointer: `generation` (and any EpochGraphs
  /// later passed to handoff()) must outlive the store or be replaced
  /// via handoff() before destruction.
  explicit ReplicatedStore(const EpochGraphs& generation)
      : generation_(&generation) {}

  /// Store a key (value modelled by its checksum).  Fails only if the
  /// owner group is red (it cannot be relied upon to store).
  bool put(RingPoint key, std::uint64_t checksum);

  /// Majority-filtered read via secure search from a random group.
  struct GetResult {
    bool found = false;
    bool correct = false;
    std::uint64_t messages = 0;
  };
  [[nodiscard]] GetResult get(RingPoint key, Rng& rng) const;

  /// Epoch turnover: migrate every item to its new owner in `next`.
  /// After this call the store is bound to `next`.
  HandoffReport handoff(const EpochGraphs& next, Rng& rng);

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

 private:
  struct Item {
    std::uint64_t checksum = 0;
    std::size_t owner_group = 0;
  };

  const EpochGraphs* generation_;
  std::unordered_map<std::uint64_t, Item> items_;  // keyed by key.raw()
};

}  // namespace tg::core
