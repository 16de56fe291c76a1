#include "core/builder.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::core {

namespace {

/// Leaders per speculate -> search -> commit chunk.  It bounds the
/// chunk buffers, and with them the build's peak RSS.
constexpr std::size_t kChunkLeaders = 256;
/// Speculated searches per pool task.
constexpr std::size_t kSearchesPerTask = 64;

/// One dual search's outcome: what the commit needs to replay it.
struct DualResult {
  std::uint64_t messages = 0;  ///< traversed cost in both old graphs
  std::uint32_t hops = 0;      ///< of the H route (telemetry)
  bool routed = false;         ///< the H route reached its target
  bool ok = false;             ///< one old graph's search path stayed blue
};

/// The old epoch as the dual searches read it.  A dual search is a
/// single H route in the (shared) old topology, evaluated against both
/// old graphs' red sets.  Per old group one word packs, for each old
/// graph, the group size and red flag (size << 1 | red; g1 in the low
/// half, g2 in the high half), so evaluating a route costs one load
/// per hop.
class OldEpoch {
 public:
  OldEpoch(const EpochGraphs& old, const overlay::RoutingIndex* ix)
      : topology_(old.g1->topology()), ix_(ix), dual_(old.dual()) {
    words_.resize(old.g1->size());
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] = word(*old.g1, i) | word(*old.g2, i) << 32;
    }
  }

  /// A pure function of (boot, key) that records nothing, so pool
  /// workers may run it.
  [[nodiscard]] DualResult search(overlay::Route& route, std::size_t boot,
                                  ids::RingPoint key) const {
    topology_.route_unrecorded(*ix_, route, boot, key);
    DualResult r;
    r.routed = route.ok;
    r.hops = static_cast<std::uint32_t>(route.hops());
    r.ok = evaluate(route, 0, r.messages);
    if (dual_) r.ok = evaluate(route, 32, r.messages) || r.ok;
    return r;
  }

 private:
  static std::uint64_t word(const GroupGraph& graph, std::size_t i) {
    return static_cast<std::uint64_t>(graph.group_size(i)) << 1 |
           (graph.is_red(i) ? 1u : 0u);
  }

  /// Search-path semantics against one old graph (the half at
  /// `shift`): adds the message cost of the traversed portion, which
  /// ends at the first red group after the start, and returns whether
  /// the route reached its target without touching a red group.
  bool evaluate(const overlay::Route& route, int shift,
                std::uint64_t& messages) const {
    const auto size_red = [&](std::size_t idx) {
      return static_cast<std::uint32_t>(words_[idx] >> shift);
    };
    if (route.path.empty()) return route.ok;
    std::uint32_t prev = size_red(route.path[0]);
    bool blue = (prev & 1u) == 0;
    for (std::size_t k = 1; k < route.path.size(); ++k) {
      const std::uint32_t cur = size_red(route.path[k]);
      messages += static_cast<std::uint64_t>(prev >> 1) * (cur >> 1);
      if (cur & 1u) return false;
      prev = cur;
    }
    return route.ok && blue;
  }

  const overlay::InputGraph& topology_;
  const overlay::RoutingIndex* ix_;
  bool dual_;
  std::vector<std::uint64_t> words_;
};

}  // namespace

EpochBuilder::EpochBuilder(const Params& params, BuilderConfig config)
    : params_(params), config_(config), oracles_(params.seed) {}

Population EpochBuilder::next_population(std::size_t target_n,
                                         Rng& rng) const {
  const auto total_bad =
      static_cast<std::size_t>(params_.beta * static_cast<double>(target_n));
  const auto present_bad = static_cast<std::size_t>(
      config_.bad_present_fraction * static_cast<double>(total_bad));
  const std::size_t good = target_n - total_bad;

  std::vector<RingPoint> good_pts, bad_pts;
  good_pts.reserve(good);
  bad_pts.reserve(present_bad);
  for (std::size_t i = 0; i < good; ++i) good_pts.emplace_back(rng.u64());
  for (std::size_t i = 0; i < present_bad; ++i) bad_pts.emplace_back(rng.u64());
  return Population::from_points(good_pts, bad_pts);
}

EpochGraphs EpochBuilder::initial(Rng& rng) const {
  EpochGraphs out;
  out.pop = std::make_shared<const Population>(next_population(params_.n, rng));
  out.g1 = std::make_shared<GroupGraph>(
      GroupGraph::pristine(params_, out.pop, oracles_.h1));
  if (config_.mode == BuildMode::dual_graph) {
    out.g2 = std::make_shared<GroupGraph>(
        GroupGraph::pristine(params_, out.pop, oracles_.h2));
  } else {
    out.g2 = out.g1;
  }
  return out;
}

std::shared_ptr<GroupGraph> EpochBuilder::build_graph(
    const EpochGraphs& old, std::shared_ptr<const Population> new_pop,
    const crypto::RandomOracle& membership_oracle, Rng& rng,
    BuildStats* stats) const {
  const Population& old_pop = *old.pop;
  const std::size_t n = new_pop->size();
  const std::size_t g = params_.group_size();

  // Collect the old population's bad indices once: the adversary's
  // replacement pool when a dual failure hands it a membership slot.
  std::vector<std::uint32_t> old_bad_indices;
  for (std::size_t i = 0; i < old_pop.size(); ++i) {
    if (old_pop.is_bad(i)) old_bad_indices.push_back(static_cast<std::uint32_t>(i));
  }

  // The new topology over the new leader set determines the linking
  // rule targets whose resolution we must attempt.
  const auto new_topology =
      overlay::make_overlay(params_.overlay_kind, new_pop->table());

  BuildStats local_stats;
  BuildStats& st = stats ? *stats : local_stats;
  // Callers may accumulate one BuildStats across several builds, so
  // telemetry publishes before/after deltas of this build only.
  const BuildStats st_before = st;

  // Streaming assembly: each group's accepted members are appended
  // straight into the slab's open span (finish_group sorts and dedupes
  // in place), so the build never materializes a per-group candidate
  // vector.
  GroupTable table;
  table.reserve(n, n * g);

  // The leader loop runs chunk by chunk as speculate -> search ->
  // commit; docs/ARCHITECTURE.md, "Epoch build", gives the argument
  // that the result is the serial loop's, bit for bit.  The index is
  // resolved here, on the calling thread, where the first search's
  // index() call would have counted its hit or build.
  const overlay::RoutingIndex* ix =
      n > 0 ? &old.g1->topology().index() : nullptr;
  const OldEpoch old_epoch(old, ix);
  telemetry::Session* const session = telemetry::active();
  overlay::Route scratch;  // inline searches of a diverged replay
  std::uint64_t searches = 0;

  // Chunk buffers, sized once and reused.  Per speculated search q:
  // its boot index, key and pure result.
  const std::size_t chunk = std::min(n, kChunkLeaders);
  std::vector<std::uint64_t> keys(chunk * g);
  std::vector<std::uint32_t> members(chunk * g);
  std::vector<std::size_t> link_counts(chunk);
  std::vector<std::uint32_t> boots;
  std::vector<ids::RingPoint> search_keys;
  std::vector<DualResult> results;

  for (std::size_t base = 0; base < n; base += chunk) {
    const std::size_t count = std::min(chunk, n - base);

    // Per-leader pure work on the pool: membership keys h(w, slot) and
    // their successors among the old IDs.
    membership_stage(membership_oracle, new_pop->table(), *ix, g, base, count,
                     keys.data(), members.data());

    // Speculate: draw every boot/vboot index from a copy of rng as if
    // every search succeeds -- two draws per membership slot and two
    // per link target, in the serial loop's order.  The linking-rule
    // targets are computed here, on the calling thread, because
    // link_targets allocates its result.
    Rng speculative = rng;
    boots.clear();
    search_keys.clear();
    const auto speculate = [&](ids::RingPoint key) {
      for (int k = 0; k < 2; ++k) {
        boots.push_back(static_cast<std::uint32_t>(
            old_pop.random_good_index(speculative)));
        search_keys.push_back(key);
      }
    };
    for (std::size_t j = 0; j < count; ++j) {
      for (std::size_t slot = 0; slot < g; ++slot) {
        speculate(ids::RingPoint{keys[j * g + slot]});
      }
      const auto targets =
          new_topology->link_targets(new_pop->table().at(base + j));
      link_counts[j] = targets.size();
      for (const ids::RingPoint target : targets) speculate(target);
    }

    // Search: every speculated dual search on the pool.  Each is a pure
    // function of (boot, key) over the old epoch.
    const std::size_t spec_count = boots.size();
    results.resize(spec_count);
    ThreadPool::global().parallel_for(
        (spec_count + kSearchesPerTask - 1) / kSearchesPerTask,
        [&](std::size_t t) {
          overlay::Route route;
          const std::size_t hi =
              std::min(spec_count, (t + 1) * kSearchesPerTask);
          for (std::size_t q = t * kSearchesPerTask; q < hi; ++q) {
            results[q] = old_epoch.search(route, boots[q], search_keys[q]);
          }
        });
    const bool all_ok = std::all_of(results.begin(), results.end(),
                                    [](const DualResult& r) { return r.ok; });

    // Commit in leader order.  If every search succeeded, the real draw
    // sequence is the speculative one: take its results and, after the
    // chunk, its RNG state.  Otherwise replay with the real rng: a
    // redrawn boot equal to the speculated one reuses the cached
    // result, any other is searched inline.  Route telemetry is
    // recorded here, on the calling thread, as route_into would have.
    const auto commit = [&](std::size_t q, sim::MsgCat cat) -> bool {
      const std::size_t boot =
          all_ok ? boots[q] : old_pop.random_good_index(rng);
      const DualResult r =
          boot == boots[q] ? results[q]
                           : old_epoch.search(scratch, boot, search_keys[q]);
      st.messages.add(cat, r.messages);
      if (session) overlay::record_route(*session, r.routed, r.hops);
      ++searches;
      return r.ok;
    };
    std::size_t q = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const GroupId id = table.begin_group(static_cast<std::uint32_t>(base + j));

      // ---- Group-membership requests (via the bootstrap group) ----
      std::size_t corrupted = 0;
      std::size_t rejected = 0;
      for (std::size_t slot = 0; slot < g; ++slot, q += 2) {
        ++st.membership_requests;
        if (!commit(q, sim::MsgCat::membership)) {
          ++st.membership_dual_failures;
          if (config_.adversary_corrupts_on_failure && !old_bad_indices.empty()) {
            // The adversary answers the search: it plants one of its own
            // old IDs as the member.
            table.add_member(old_bad_indices[rng.below(old_bad_indices.size())]);
            ++corrupted;
          }
          continue;
        }
        // Verification by the solicited member: it performs its own dual
        // search on the same key (Section III-A, "Verifying a Group-
        // Membership Request") and erroneously rejects iff both searches
        // fail -- Lemma 7's third failure mode, probability ~ q_f^2.
        if (!commit(q + 1, sim::MsgCat::membership)) {
          ++st.membership_rejects;
          ++rejected;
          continue;
        }
        table.add_member(members[j * g + slot]);
      }
      table.finish_group();  // sort + dedupe the open span in place
      std::uint32_t bad = 0;
      for (const auto m : table.members(id)) {
        if (old_pop.is_bad(m)) ++bad;
      }
      table.set_bad_members(id, bad);
      table.set_corrupted_slots(id, static_cast<std::uint32_t>(corrupted));
      table.set_rejected_slots(id, static_cast<std::uint32_t>(rejected));

      // ---- Neighbor requests (final link resolution; Lemma 8) ----
      bool confused = false;
      for (std::size_t t = 0; t < link_counts[j]; ++t, q += 2) {
        ++st.neighbor_requests;
        if (!commit(q, sim::MsgCat::neighbor_setup)) {
          ++st.neighbor_dual_failures;
          confused = true;  // adversary supplied a wrong neighbor
          continue;
        }
        // The located neighbor verifies the request through Gboot with
        // its own dual search on the same target.
        if (!commit(q + 1, sim::MsgCat::neighbor_setup)) {
          ++st.neighbor_rejects;
          confused = true;  // erroneous rejection leaves the link unset
        }
      }
      table.set_confused(id, confused);
    }
    if (all_ok) rng = speculative;
  }
  // Every search after the first would have counted one index hit.
  if (session && searches > 0) {
    session->count(telemetry::Probe::overlay_index_hits, searches - 1);
  }

  auto graph = std::make_shared<GroupGraph>(params_, new_pop, old.pop,
                                            std::move(table));
  for (std::size_t i = 0; i < graph->size(); ++i) {
    if (graph->group(i).confused) ++st.confused_groups;
    if (graph->group(i).is_bad(params_)) ++st.bad_groups;
  }
  if (auto* session = telemetry::active()) {
    using telemetry::Probe;
    const auto mem_requests = st.membership_requests - st_before.membership_requests;
    const auto mem_rejects = st.membership_rejects - st_before.membership_rejects;
    const auto nbr_requests = st.neighbor_requests - st_before.neighbor_requests;
    const auto nbr_rejects = st.neighbor_rejects - st_before.neighbor_rejects;
    session->count(Probe::core_membership_requests, mem_requests);
    session->count(Probe::core_membership_rejects, mem_rejects);
    session->count(Probe::core_membership_dual_failures,
                   st.membership_dual_failures -
                       st_before.membership_dual_failures);
    session->count(Probe::core_neighbor_requests, nbr_requests);
    session->count(Probe::core_neighbor_rejects, nbr_rejects);
    session->count(Probe::core_neighbor_dual_failures,
                   st.neighbor_dual_failures - st_before.neighbor_dual_failures);
    session->event(telemetry::EventName::epoch_membership, telemetry::kSrcCore,
                   'i', /*id=*/0, mem_requests, mem_rejects);
    session->event(telemetry::EventName::epoch_neighbors, telemetry::kSrcCore,
                   'i', /*id=*/0, nbr_requests, nbr_rejects);
  }
  return graph;
}

EpochGraphs EpochBuilder::build_next(const EpochGraphs& old, Rng& rng,
                                     BuildStats* stats) const {
  EpochGraphs out;
  // Theta(n) size variation: grow/shrink by the configured factor,
  // clamped to a constant factor of the design size n.
  auto target = static_cast<std::size_t>(
      config_.growth_factor * static_cast<double>(old.pop->size()));
  target = std::clamp(target, params_.n / 2, params_.n * 2);
  out.pop = std::make_shared<const Population>(next_population(target, rng));
  out.g1 = build_graph(old, out.pop, oracles_.h1, rng, stats);
  if (config_.mode == BuildMode::dual_graph) {
    out.g2 = build_graph(old, out.pop, oracles_.h2, rng, stats);
  } else {
    out.g2 = out.g1;
  }
  if (auto* session = telemetry::active()) {
    session->set_epoch(session->epoch() + 1);
    session->count(telemetry::Probe::core_epoch_builds);
    session->event(telemetry::EventName::epoch_build, telemetry::kSrcCore, 'i',
                   /*id=*/0, /*a=*/session->epoch());
  }
  return out;
}

}  // namespace tg::core
