// Epoch goldens: the GroupTable epoch storage pinned by fingerprint.
//
// Every constant below was produced at the commit that retired the
// per-group-vector (array-of-structs) layout, with that layout and the
// table layout both built and agreeing bit for bit — under every
// forced hash-kernel combination.  A changed constant means the built
// epoch changed: leader, membership, counters, confusion or red set.
// The pristine golden is additionally re-checked under all 16 kernel
// dispatch combinations here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/builder.hpp"
#include "core/churn.hpp"
#include "core/group_graph.hpp"
#include "core/group_table.hpp"
#include "core/self_heal.hpp"
#include "crypto/oracle.hpp"
#include "dispatch_seams.hpp"
#include "scenario/campaign.hpp"
#include "util/rng.hpp"
#include "workload/traffic.hpp"

namespace tg::core {
namespace {

GroupGraph build_pristine(std::size_t n, std::uint64_t seed) {
  Params params;
  params.n = n;
  params.seed = seed;
  params.beta = 0.05;
  Rng rng(seed);
  const auto pop = std::make_shared<const Population>(
      Population::uniform(n, params.beta, rng));
  const crypto::OracleSuite oracles(seed);
  return GroupGraph::pristine(params, pop, oracles.h1);
}

// ---------- pristine epochs ----------

TEST(EpochGolden, PristineEpochAtTenThousandUnderEveryKernelCombo) {
  // n = 10^4 is large enough that the streaming builder's cross-leader
  // batching exercises partial tail blocks.
  crypto::seams::DispatchGuard guard;
  crypto::seams::for_each_dispatch([](int combo) {
    const GroupGraph graph = build_pristine(10'000, 2024);
    EXPECT_EQ(graph.fingerprint(), 0xd2b7d6309ae5a6f4ULL) << "combo " << combo;
    EXPECT_EQ(graph.red_count(), 0u) << "combo " << combo;
  });
}

TEST(EpochGolden, TableIsDenserThanOneVectorPerGroup) {
  // The slab + columns footprint stays below what one heap vector per
  // group (sizeof(Group) per leader plus the member words) would hold.
  const GroupGraph graph = build_pristine(10'000, 2024);
  std::size_t members = 0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    members += graph.group_size(i);
  }
  const std::size_t per_group_vectors =
      graph.size() * sizeof(Group) + members * sizeof(std::uint32_t);
  EXPECT_LT(graph.memory_bytes(), per_group_vectors);
}

// ---------- adversarial epoch construction ----------

TEST(EpochGolden, BuilderEpochOneAndStatsUnderEveryKernelCombo) {
  // build_next runs the full dual-search construction: one decision
  // path whose RNG consumption fixes both graphs and every counter.
  Params params;
  params.n = 2048;
  params.seed = 99;
  params.beta = 0.08;
  const EpochBuilder builder(params);
  crypto::seams::DispatchGuard guard;
  crypto::seams::for_each_dispatch([&](int combo) {
    Rng rng(params.seed);
    const EpochGraphs epoch0 = builder.initial(rng);
    BuildStats stats;
    const EpochGraphs epoch1 = builder.build_next(epoch0, rng, &stats);
    EXPECT_EQ(epoch1.g1->fingerprint(), 0x1f95b48377665a77ULL) << combo;
    EXPECT_EQ(epoch1.g2->fingerprint(), 0xd907f25ba56d77d6ULL) << combo;
    EXPECT_EQ(stats.membership_requests, 102400u) << combo;
    EXPECT_EQ(stats.membership_dual_failures, 0u) << combo;
    EXPECT_EQ(stats.membership_rejects, 0u) << combo;
    EXPECT_EQ(stats.neighbor_requests, 57344u) << combo;
    EXPECT_EQ(stats.neighbor_dual_failures, 0u) << combo;
    EXPECT_EQ(stats.neighbor_rejects, 1u) << combo;
    EXPECT_EQ(stats.confused_groups, 1u) << combo;
    EXPECT_EQ(stats.bad_groups, 3u) << combo;
  });
}

// ---------- mutation paths ----------

TEST(EpochGolden, ChurnThenHealSequenceUnderEveryKernelCombo) {
  // Departures compact spans in place; healing redraws relocate them
  // to the slab tail.
  Params params;
  params.n = 1024;
  params.seed = 7;
  params.beta = 0.10;
  crypto::seams::DispatchGuard guard;
  crypto::seams::for_each_dispatch([&](int combo) {
    Rng rng(params.seed);
    const auto pop = std::make_shared<const Population>(
        Population::uniform(params.n, params.beta, rng));
    const crypto::OracleSuite oracles(params.seed);
    GroupGraph graph = GroupGraph::pristine(params, pop, oracles.h1);
    const GroupGraph partner = GroupGraph::pristine(params, pop, oracles.h2);

    Rng churn_rng(11);
    const ChurnReport churn = apply_good_departures(graph, 0.10, churn_rng);
    Rng heal_rng(13);
    const HealReport heal = self_heal_round(graph, partner, oracles.h1,
                                            /*salt=*/0xFEED, /*probes=*/64,
                                            heal_rng);
    EXPECT_EQ(churn.departed_good, 92u) << combo;
    EXPECT_EQ(churn.groups_lost_majority, 0u) << combo;
    EXPECT_EQ(heal.healed, 34u) << combo;
    EXPECT_EQ(graph.fingerprint(), 0xc79d3e96c123ea17ULL) << combo;
  });
}

// ---------- GroupTable representation properties ----------

TEST(GroupTableConversion, FromGroupsRoundTripsVerbatim) {
  // Conversion preserves member ORDER (no re-sort): a graph converted
  // at construction must view back exactly what the vectors held.
  std::vector<Group> groups(3);
  groups[0].leader = 0;
  groups[0].members = {5, 1, 9};  // deliberately unsorted
  groups[0].bad_members = 1;
  groups[1].leader = 1;
  groups[1].members = {};
  groups[2].leader = 2;
  groups[2].members = {7};
  groups[2].confused = true;
  const GroupTable table = GroupTable::from_groups(groups);
  ASSERT_EQ(table.size(), groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupId id{static_cast<std::uint32_t>(i)};
    EXPECT_EQ(table.view(id).members, MemberSpan(groups[i].members));
    EXPECT_EQ(table.view(id).leader, groups[i].leader);
    EXPECT_EQ(table.view(id).bad_members, groups[i].bad_members);
    EXPECT_EQ(table.view(id).confused, groups[i].confused);
  }
}

TEST(GroupTableConversion, AssignMembersRelocatesWithoutCorruptingNeighbors) {
  // Growing a group past its span capacity moves it to the slab tail;
  // every other group's membership must read back untouched.
  std::vector<Group> groups(3);
  for (std::size_t i = 0; i < 3; ++i) {
    groups[i].leader = i;
    groups[i].members = {static_cast<std::uint32_t>(10 * i),
                         static_cast<std::uint32_t>(10 * i + 1)};
  }
  GroupTable table = GroupTable::from_groups(groups);
  const std::vector<std::uint32_t> grown{1, 2, 3, 4, 5, 6};
  table.assign_members(GroupId{std::uint32_t{1}}, grown.data(), grown.size());
  EXPECT_EQ(table.view(GroupId{std::uint32_t{1}}).members, MemberSpan(grown));
  EXPECT_EQ(table.view(GroupId{std::uint32_t{0}}).members, MemberSpan(groups[0].members));
  EXPECT_EQ(table.view(GroupId{std::uint32_t{2}}).members, MemberSpan(groups[2].members));

  // Shrinking stays in place and truncation keeps a prefix.
  table.truncate_members(GroupId{std::uint32_t{1}}, 2);
  const std::vector<std::uint32_t> prefix{1, 2};
  EXPECT_EQ(table.view(GroupId{std::uint32_t{1}}).members, MemberSpan(prefix));
}

// ---------- slab compaction ----------

TEST(GroupTableCompaction, CompactReclaimsChurnGapsWithByteIdenticalViews) {
  // Repeated grow-relocations (the self-heal rebuild pattern) leave a
  // dead gap behind every moved span; compact() must slide the live
  // spans back together without disturbing one observable byte.
  std::vector<Group> groups(64);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i].leader = i;
    groups[i].members = {static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(i + 1000)};
    groups[i].bad_members = i % 3;
    groups[i].confused = (i % 7) == 0;
  }
  GroupTable table = GroupTable::from_groups(groups);

  Rng rng(77);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      auto& m = groups[i].members;
      m.push_back(static_cast<std::uint32_t>(rng.below(100000)));
      m.push_back(static_cast<std::uint32_t>(rng.below(100000)));
      table.assign_members(GroupId{i}, m.data(), m.size());
    }
  }
  ASSERT_GT(table.slab_size(), table.member_count());

  const std::size_t dead = table.slab_size() - table.member_count();
  const std::size_t reclaimed = table.compact();
  EXPECT_EQ(reclaimed, dead * sizeof(std::uint32_t));
  EXPECT_EQ(table.slab_size(), table.member_count());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupView v = table.view(GroupId{i});
    EXPECT_EQ(v.members, MemberSpan(groups[i].members)) << "group " << i;
    EXPECT_EQ(v.leader, groups[i].leader) << "group " << i;
    EXPECT_EQ(v.bad_members, groups[i].bad_members) << "group " << i;
    EXPECT_EQ(v.confused, groups[i].confused) << "group " << i;
  }
  // Already dense: a second pass moves nothing and reclaims nothing.
  EXPECT_EQ(table.compact(), 0u);
}

TEST(GroupTableCompaction, GraphCompactStorageIsThresholdGatedAndSafe) {
  GroupGraph graph = build_pristine(1024, 31);
  // Freshly built: no dead slab words, so the gate keeps it a no-op.
  EXPECT_EQ(graph.compact_storage(), 0u);

  // Deep departures strand >25% of the slab as span slack; the gate
  // opens, and compaction must be invisible to every observable.
  Rng churn_rng(5);
  (void)apply_good_departures(graph, 0.30, churn_rng);
  const std::uint64_t print = graph.fingerprint();
  const std::size_t bytes_before = graph.memory_bytes();
  const std::size_t reclaimed = graph.compact_storage();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(graph.memory_bytes(), bytes_before);
  EXPECT_EQ(graph.fingerprint(), print);
  EXPECT_EQ(graph.compact_storage(), 0u);
}

}  // namespace
}  // namespace tg::core

namespace tg {
namespace {

// ---------- delivered traffic ----------

TEST(EpochGolden, ClientTrafficOverPristineWorldsAtAnyShardWidth) {
  // The workload engine builds its worlds through GroupGraph::pristine,
  // so an epoch change would surface here as a different trace.
  scenario::ScenarioSpec spec;
  spec.adversary = scenario::AdversaryKind::omit_ids;
  spec.topology = scenario::Topology::tinygroups;
  spec.n = 256;
  spec.beta = 0.08;
  spec.trials = 3;
  spec.seed = 4242;
  spec.churn = {1, 64};
  spec.workload.service = scenario::WorkloadAxis::Service::kv;
  spec.workload.loop = scenario::WorkloadAxis::Loop::open;
  spec.workload.rate = 2.0;
  spec.workload.clients = 4;
  spec.workload.rounds = 64;
  spec.workload.timeout_rounds = 24;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const workload::CellTraffic cell =
        workload::run_traffic_cell(spec, /*with_adversary=*/true, threads);
    EXPECT_EQ(cell.trace_hash, 0x653a03f2aabe410cULL) << threads;
    EXPECT_EQ(cell.recorder.completed, 374u) << threads;
  }
}

}  // namespace
}  // namespace tg
