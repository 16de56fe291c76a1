#include "core/group_graph.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "overlay/routing_index.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::core {

GroupGraph::GroupGraph(const Params& params,
                       std::shared_ptr<const Population> leaders,
                       std::shared_ptr<const Population> member_pool,
                       std::vector<Group> groups)
    : GroupGraph(params, std::move(leaders), std::move(member_pool),
                 GroupTable::from_groups(groups)) {}

GroupGraph::GroupGraph(const Params& params,
                       std::shared_ptr<const Population> leaders,
                       std::shared_ptr<const Population> member_pool,
                       GroupTable table)
    : params_(params),
      leaders_(std::move(leaders)),
      member_pool_(std::move(member_pool)),
      table_(std::move(table)) {
  finish_init();
}

void GroupGraph::finish_init() {
  if (!leaders_ || !member_pool_) {
    throw std::invalid_argument("GroupGraph: null population");
  }
  if (size() != leaders_->size()) {
    throw std::invalid_argument("GroupGraph: one group per leader required");
  }
  topology_ = overlay::make_overlay(params_.overlay_kind, leaders_->table());
  reclassify();
}

void GroupGraph::check_index(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("GroupGraph: group index out of range");
  }
}

GroupGraph GroupGraph::pristine(const Params& params,
                                std::shared_ptr<const Population> pop,
                                const crypto::RandomOracle& membership_oracle) {
  const std::size_t n = pop->size();
  const std::size_t g = params.group_size();

  // Streaming build over bounded leader batches: the membership stage
  // fills a batch on the pool, then its groups are appended straight
  // into the slab in leader order.
  constexpr std::size_t kBatchLeaders = 4096;
  const overlay::RoutingIndex grid(pop->table(), /*row_width=*/0);
  GroupTable table;
  table.reserve(n, n * g);
  const std::size_t batch = std::min(n, kBatchLeaders);
  std::vector<std::uint64_t> keys(batch * g);
  std::vector<std::uint32_t> members(batch * g);
  for (std::size_t base = 0; base < n; base += batch) {
    const std::size_t count = std::min(batch, n - base);
    membership_stage(membership_oracle, pop->table(), grid, g, base, count,
                     keys.data(), members.data());
    for (std::size_t j = 0; j < count; ++j) {
      const GroupId id =
          table.begin_group(static_cast<std::uint32_t>(base + j));
      for (std::size_t slot = 0; slot < g; ++slot) {
        table.add_member(members[j * g + slot]);
      }
      // Deduplicate: a physical ID holds one membership per group.
      table.finish_group();
      std::uint32_t bad = 0;
      for (const auto m : table.members(id)) {
        if (pop->is_bad(m)) ++bad;
      }
      table.set_bad_members(id, bad);
    }
  }
  if (auto* session = telemetry::active()) {
    session->count(telemetry::Probe::core_pristine_builds);
    session->event(telemetry::EventName::pristine_build, telemetry::kSrcCore,
                   'i', /*id=*/0, /*a=*/n, /*b=*/table.size());
  }
  return GroupGraph(params, pop, pop, std::move(table));
}

void membership_stage(const crypto::RandomOracle& oracle,
                      const ids::RingTable& leaders,
                      const overlay::RoutingIndex& pool, std::size_t g,
                      std::size_t first, std::size_t count,
                      std::uint64_t* keys, std::uint32_t* members) {
  if (count == 0 || g == 0) return;
  // One pool task per block of leaders whose keys fill about 1024
  // oracle calls.  The keys flow through the multi-lane engine in
  // batches that cross leader boundaries, so lane occupancy stays full
  // even for tiny groups; the oracle is a pure function of (w, slot),
  // so batching shape cannot perturb results.
  constexpr std::size_t kBlockPoints = 1024;
  constexpr std::size_t kLaneBatch = 64;
  const std::size_t block = std::max<std::size_t>(1, kBlockPoints / g);
  ThreadPool::global().parallel_for(
      (count + block - 1) / block, [&](std::size_t b) {
        auto h = oracle.stream_pair();
        const std::size_t lo = b * block;
        const std::size_t hi = std::min(count, lo + block);
        std::array<std::uint64_t, kLaneBatch> ws{}, slots{};
        for (std::size_t p = lo * g; p < hi * g; p += kLaneBatch) {
          const std::size_t m = std::min(kLaneBatch, hi * g - p);
          for (std::size_t k = 0; k < m; ++k) {
            ws[k] = leaders.at(first + (p + k) / g).raw();
            slots[k] = (p + k) % g;
          }
          h.eval_many(ws.data(), slots.data(), keys + p, m);
        }
        for (std::size_t p = lo * g; p < hi * g; ++p) {
          members[p] = static_cast<std::uint32_t>(
              pool.successor_index(ids::RingPoint{keys[p]}));
        }
      });
}

std::uint64_t GroupGraph::fingerprint() const noexcept {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV prime
  };
  for (std::size_t i = 0; i < size(); ++i) {
    const GroupView g = table_.view(GroupId{i});
    mix(g.leader);
    mix(g.members.size());
    for (const auto m : g.members) mix(m);
    mix(g.bad_members);
    mix(g.corrupted_slots);
    mix(g.rejected_slots);
    mix(g.confused ? 1 : 0);
    mix(is_red(i) ? 1 : 0);
  }
  return h;
}

std::span<std::uint32_t> GroupGraph::mutable_members(std::size_t i) {
  check_index(i);
  return table_.mutable_members(GroupId{i});
}

void GroupGraph::truncate_members(std::size_t i, std::size_t new_size) {
  check_index(i);
  table_.truncate_members(GroupId{i}, new_size);
}

void GroupGraph::assign_members(std::size_t i, const std::uint32_t* data,
                                std::size_t count) {
  check_index(i);
  table_.assign_members(GroupId{i}, data, count);
}

std::size_t GroupGraph::compact_storage() {
  const std::size_t live = table_.member_count();
  if (table_.slab_size() <= live + live / 4) return 0;
  return table_.compact();
}

void GroupGraph::set_bad_members(std::size_t i, std::size_t n) {
  check_index(i);
  table_.set_bad_members(GroupId{i}, static_cast<std::uint32_t>(n));
}

void GroupGraph::set_corrupted_slots(std::size_t i, std::size_t n) {
  check_index(i);
  table_.set_corrupted_slots(GroupId{i}, static_cast<std::uint32_t>(n));
}

void GroupGraph::set_rejected_slots(std::size_t i, std::size_t n) {
  check_index(i);
  table_.set_rejected_slots(GroupId{i}, static_cast<std::uint32_t>(n));
}

void GroupGraph::set_confused(std::size_t i, bool confused) {
  check_index(i);
  table_.set_confused(GroupId{i}, confused);
}

void GroupGraph::mark_red_synthetic(double pf, Rng& rng) {
  synthetic_red_.assign(size(), 0);
  for (auto& flag : synthetic_red_) {
    flag = rng.bernoulli(pf) ? 1 : 0;
  }
  synthetic_mode_ = true;
}

void GroupGraph::reclassify() {
  table_.classify_red(params_, composition_red_);
}

std::size_t GroupGraph::red_count() const noexcept {
  const auto& flags = synthetic_mode_ ? synthetic_red_ : composition_red_;
  return static_cast<std::size_t>(
      std::count(flags.begin(), flags.end(), std::uint8_t{1}));
}

double GroupGraph::red_fraction() const noexcept {
  return size() == 0 ? 0.0
                     : static_cast<double>(red_count()) /
                           static_cast<double>(size());
}

double GroupGraph::bad_fraction() const noexcept {
  if (size() == 0) return 0.0;
  return static_cast<double>(table_.count_bad(params_)) /
         static_cast<double>(size());
}

double GroupGraph::confused_fraction() const noexcept {
  if (size() == 0) return 0.0;
  return static_cast<double>(table_.count_confused()) /
         static_cast<double>(size());
}

double GroupGraph::majority_bad_fraction() const noexcept {
  if (size() == 0) return 0.0;
  return static_cast<double>(table_.count_majority_bad()) /
         static_cast<double>(size());
}

}  // namespace tg::core
