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
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "core/churn.hpp"
#include "core/group_graph.hpp"
#include "core/group_table.hpp"
#include "core/self_heal.hpp"
#include "crypto/oracle.hpp"
#include "dispatch_seams.hpp"
#include "scenario/campaign.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
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

// ---------- failure-heavy builds ----------

/// Both graphs' fingerprints, every BuildStats field and the RNG's next
/// draw after build_next.
struct BuildFingerprint {
  std::uint64_t g1 = 0, g2 = 0;
  std::size_t membership_requests = 0, membership_dual_failures = 0,
              membership_rejects = 0;
  std::size_t neighbor_requests = 0, neighbor_dual_failures = 0,
              neighbor_rejects = 0;
  std::size_t confused_groups = 0, bad_groups = 0;
  std::uint64_t membership_messages = 0, neighbor_messages = 0;
  std::uint64_t next_draw = 0;
  friend bool operator==(const BuildFingerprint&,
                         const BuildFingerprint&) = default;
  friend std::ostream& operator<<(std::ostream& os, const BuildFingerprint& f) {
    return os << std::hex << "{0x" << f.g1 << ", 0x" << f.g2 << std::dec
              << ", " << f.membership_requests << ", "
              << f.membership_dual_failures << ", " << f.membership_rejects
              << ", " << f.neighbor_requests << ", "
              << f.neighbor_dual_failures << ", " << f.neighbor_rejects << ", "
              << f.confused_groups << ", " << f.bad_groups << ", "
              << f.membership_messages << ", " << f.neighbor_messages
              << ", 0x" << std::hex << f.next_draw << "}" << std::dec;
  }
};

struct BuildCase {
  const char* name;
  std::size_t n;
  std::uint64_t seed;
  double beta;
  BuilderConfig config;
  BuildFingerprint want;
};

BuildFingerprint run_build_case(const BuildCase& c) {
  Params params;
  params.n = c.n;
  params.seed = c.seed;
  params.beta = c.beta;
  const EpochBuilder builder(params, c.config);
  Rng rng(c.seed);
  const EpochGraphs epoch0 = builder.initial(rng);
  BuildStats st;
  const EpochGraphs epoch1 = builder.build_next(epoch0, rng, &st);
  return {epoch1.g1->fingerprint(),
          epoch1.g2->fingerprint(),
          st.membership_requests,
          st.membership_dual_failures,
          st.membership_rejects,
          st.neighbor_requests,
          st.neighbor_dual_failures,
          st.neighbor_rejects,
          st.confused_groups,
          st.bad_groups,
          st.messages.get(sim::MsgCat::membership),
          st.messages.get(sim::MsgCat::neighbor_setup),
          rng()};
}

TEST(EpochGolden, FailureHeavyBuildsFromMainThreadAndPoolWork) {
  // Values computed by the serial leader loop before the chunked
  // speculate/search/commit build replaced it.  Beta is high enough
  // that dual failures fall in most leader chunks, so the commit's
  // replay (redrawn boots, inline searches) decides these epochs.
  const std::vector<BuildCase> cases = {
      {"corrupting", 2048, 31, 0.14, {},
       {0xab6ff25abb093ca2ULL, 0xf2e4f4cfe3588052ULL, 102400, 726, 577, 57344,
        396, 343, 629, 61, 1553620735u, 868476567u, 0xf481f475080863f7ULL}},
      {"slot-lost", 2048, 31, 0.14, {.adversary_corrupts_on_failure = false},
       {0xa012c696819aeb49ULL, 0xf7b33d6cdbb1fcc2ULL, 102400, 709, 542, 57344,
        386, 338, 607, 45, 1553263404u, 868828055u, 0x4067ad81f25eef7bULL}},
      {"omission", 2048, 32, 0.25, {.bad_present_fraction = 0.5},
       {0xfd08d8ed9b82efefULL, 0x262a0f67c51eabd0ULL, 78400, 193, 173, 43904,
        123, 84, 194, 49, 1174062501u, 658277483u, 0x36d2a5421175574dULL}},
      {"growth", 2048, 33, 0.14, {.growth_factor = 1.3},
       {0xde68de753cdb24daULL, 0x523116c4561ddfcaULL, 133100, 3158, 2490,
        79860, 1813, 1491, 2310, 216, 1949833380u, 1171066082u,
        0x9f356535a12eecfeULL}},
      {"single-graph", 2048, 34, 0.12, {.mode = BuildMode::single_graph},
       {0x7690d06ec1792f3bULL, 0x7690d06ec1792f3bULL, 51200, 2093, 1302,
        28672, 1311, 722, 1157, 55, 385803604u, 215668554u,
        0xf358e349c08c15ebULL}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run_build_case(c), c.want) << c.name << " (main thread)";
  }
  // Inside pool work the build's fan-outs run inline, as they do under
  // campaign trials.
  std::vector<BuildFingerprint> nested(cases.size());
  ThreadPool::global().parallel_for(cases.size(), [&](std::size_t i) {
    nested[i] = run_build_case(cases[i]);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(nested[i], cases[i].want) << cases[i].name << " (nested)";
  }
}

std::uint64_t fnv_string(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// initial + build_next at n = 1024, beta = 0.14 (about 3000 dual
/// failures) with `session` bound by the caller; returns hashes of the
/// stable metrics export and of the Chrome trace.
std::pair<std::uint64_t, std::uint64_t> traced_build(
    const telemetry::Session& session) {
  Params params;
  params.n = 1024;
  params.seed = 5;
  params.beta = 0.14;
  const EpochBuilder builder(params);
  Rng rng(params.seed);
  const EpochGraphs epoch0 = builder.initial(rng);
  (void)builder.build_next(epoch0, rng);
  return {fnv_string(session.metrics_json()),
          fnv_string(session.chrome_trace_json())};
}

TEST(EpochGolden, BuildTelemetryUnderProcessAndThreadBinding) {
  // Hashes computed by the serial leader loop, whose route_into calls
  // recorded every route, hop and index hit on the building thread.  A
  // search that recorded on a pool worker would double-count under
  // set_active and vanish from the session under a ThreadBind.
  const std::pair<std::uint64_t, std::uint64_t> want{0x024511fe1e753618ULL,
                                                     0xee82cd9dfb91071eULL};
  {
    telemetry::Session session;
    telemetry::set_active(&session);
    const auto got = traced_build(session);
    telemetry::set_active(nullptr);
    EXPECT_EQ(got, want) << "set_active";
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> nested(2);
  ThreadPool::global().parallel_for(nested.size(), [&](std::size_t i) {
    telemetry::Session session;
    const telemetry::ThreadBind bind(&session);
    nested[i] = traced_build(session);
  });
  for (const auto& got : nested) EXPECT_EQ(got, want) << "ThreadBind";
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
