// Tests for the message-passing runtime: payload words, the
// deterministic parallel executor, delivery policy, and the Fig. 1
// relay chain.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/relay.hpp"

namespace tg::net {
namespace {

// ---------- Words ----------

TEST(Words, MessageEqualityIsByContentAcrossSboBoundary) {
  // Payload sizes straddling Words::kInlineCapacity: the wire format
  // must compare and copy identically whether the words sit inline or
  // in spilled storage.
  for (const std::size_t words :
       {Words::kInlineCapacity - 1, Words::kInlineCapacity,
        Words::kInlineCapacity + 1, 4 * Words::kInlineCapacity}) {
    Message original;
    original.src = 3;
    original.dst = 4;
    original.tag = 0xBEEF;
    for (std::size_t w = 0; w < words; ++w) {
      original.payload.push_back(0x1000 + w);
    }
    EXPECT_EQ(original.payload.spilled(), words > Words::kInlineCapacity);

    std::vector<Message> inbox;
    inbox.push_back(original);  // copies
    std::vector<Message> drained;
    drained.swap(inbox);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained.front(), original) << words << " words";

    // Equality is by content, not storage class: rebuild via a copy
    // that grew word-by-word (different capacity trajectory).
    Message rebuilt;
    rebuilt.src = original.src;
    rebuilt.dst = original.dst;
    rebuilt.tag = original.tag;
    rebuilt.payload.reserve(words);
    for (const auto w : original.payload) rebuilt.payload.push_back(w);
    EXPECT_EQ(rebuilt, original);
    rebuilt.payload.back() ^= 1;
    EXPECT_FALSE(rebuilt == original);
  }
}

TEST(Words, GrowthAcrossInlineBoundaryPreservesContents) {
  Words w;
  for (std::uint64_t i = 0; i < 3 * Words::kInlineCapacity; ++i) {
    w.push_back(i * i);
    ASSERT_EQ(w.size(), i + 1);
    for (std::uint64_t j = 0; j <= i; ++j) {
      ASSERT_EQ(w[j], j * j) << "after pushing " << i + 1 << " words";
    }
  }
  EXPECT_TRUE(w.spilled());
  EXPECT_EQ(w.front(), 0u);
  EXPECT_EQ(w.back(),
            (3 * Words::kInlineCapacity - 1) * (3 * Words::kInlineCapacity - 1));
}

TEST(Words, CopyAndMoveAcrossStorageClasses) {
  const Words inline_w{1, 2, 3};
  Words spilled_w;
  for (std::uint64_t i = 0; i < 2 * Words::kInlineCapacity; ++i) {
    spilled_w.push_back(i);
  }

  Words copy = spilled_w;  // deep copy of spilled storage
  EXPECT_EQ(copy, spilled_w);
  copy.front() = 99;
  EXPECT_FALSE(copy == spilled_w);  // no aliasing

  Words moved = std::move(copy);
  EXPECT_EQ(moved.front(), 99u);
  EXPECT_EQ(moved.size(), 2 * Words::kInlineCapacity);

  Words target = inline_w;
  target = std::move(moved);  // move-assign spilled over inline
  EXPECT_EQ(target.size(), 2 * Words::kInlineCapacity);
  target = inline_w;  // copy-assign inline over spilled (keeps capacity)
  EXPECT_EQ(target, inline_w);
  target.clear();
  EXPECT_TRUE(target.empty());
  EXPECT_GE(target.capacity(), 2 * Words::kInlineCapacity);
}

TEST(Words, ArenaRecyclesSpillBlocks) {
  WordArena arena;
  {
    Words w(&arena);
    for (std::uint64_t i = 0; i < 4 * Words::kInlineCapacity; ++i) {
      w.push_back(i);
    }
    EXPECT_TRUE(w.spilled());
    EXPECT_EQ(w.arena(), &arena);
  }  // block returns to the arena here
  const auto after_first = arena.stats();
  EXPECT_GT(after_first.allocated, 0u);
  EXPECT_EQ(after_first.released, after_first.allocated);
  EXPECT_GT(arena.free_blocks(), 0u);

  // A second same-shape payload is served entirely from the free list
  // (one reserve -> one block, recycled; no new heap allocation).
  {
    Words w(&arena);
    w.reserve(4 * Words::kInlineCapacity);
    w.push_back(7);
    EXPECT_TRUE(w.spilled());
  }
  const auto after_second = arena.stats();
  EXPECT_EQ(after_second.recycled, 1u);
  EXPECT_EQ(after_second.allocated, after_first.allocated + 1);
  EXPECT_EQ(arena.heap_allocations(), after_first.allocated);
}

TEST(Words, ArenaShardsScatterReleasesAndStealOnMiss) {
  WordArena arena;
  // A multiple of the shard count: round-robin release scattering then
  // parks the same number of blocks in EVERY shard, wherever this
  // thread's rotation happens to start.
  constexpr std::size_t kBlocks = 4 * WordArena::kShardCount;
  {
    std::vector<Words> spilled;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      Words w(&arena);
      w.reserve(4 * Words::kInlineCapacity);
      w.push_back(static_cast<std::uint64_t>(i));
      spilled.push_back(std::move(w));
    }
  }  // all blocks return here, scattered across shards
  EXPECT_EQ(arena.free_blocks(), kBlocks);
  std::uint64_t released_total = 0;
  for (std::size_t s = 0; s < WordArena::kShardCount; ++s) {
    EXPECT_EQ(arena.shard_free_blocks(s), kBlocks / WordArena::kShardCount);
    released_total += arena.shard_stats(s).released;
  }
  EXPECT_EQ(released_total, kBlocks);

  // Re-allocating every block from this single thread must drain ALL
  // shards through steal-on-miss — no fresh heap allocation even
  // though 7/8 of the blocks are parked outside its home shard.
  const auto heap_before = arena.heap_allocations();
  {
    std::vector<Words> again;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      Words w(&arena);
      w.reserve(4 * Words::kInlineCapacity);
      again.push_back(std::move(w));
    }
    EXPECT_EQ(arena.free_blocks(), 0u);
    EXPECT_EQ(arena.heap_allocations(), heap_before);
  }
  // Aggregate invariant across shards: every allocation was either
  // recycled from some shard's list or charged to the heap.
  const auto total = arena.stats();
  EXPECT_EQ(total.allocated, total.recycled + arena.heap_allocations());
}

TEST(Words, AdoptArenaOnlyRebindsInlineStorage) {
  WordArena arena;
  Words heap_spilled;
  for (std::uint64_t i = 0; i < 2 * Words::kInlineCapacity; ++i) {
    heap_spilled.push_back(i);
  }
  // Already-spilled heap storage must keep its owner: releasing a
  // plain-heap block into an arena would corrupt the pool.
  heap_spilled.adopt_arena(&arena);
  EXPECT_EQ(heap_spilled.arena(), nullptr);

  Words fresh;
  fresh.push_back(1);
  fresh.adopt_arena(&arena);
  EXPECT_EQ(fresh.arena(), &arena);
}

// ---------- Network executor ----------

/// Counts messages and echoes each one back to its source with tag+1,
/// up to a bound — enough structure to generate multi-round traffic.
class EchoNode final : public Node {
 public:
  explicit EchoNode(std::uint64_t bounce_limit) : limit_(bounce_limit) {}

  void on_message(const Message& m, Context& ctx) override {
    ++received_;
    if (m.tag < limit_) ctx.send(m.src, m.tag + 1, m.payload);
  }

  std::uint64_t received() const noexcept { return received_; }

 private:
  std::uint64_t limit_;
  std::uint64_t received_ = 0;
};

TEST(Network, PingPongTerminatesAndCounts) {
  Network net(DeliveryPolicy{}, 1, 1);
  const auto a = net.add_node(std::make_unique<EchoNode>(10));
  const auto b = net.add_node(std::make_unique<EchoNode>(10));
  net.start();
  net.inject(Message{a, b, 0, {42}, 0});
  const auto rounds = net.run_until_quiescent();
  // Tags 0..10 inclusive = 11 deliveries, alternating b, a, b, ...
  EXPECT_EQ(net.stats().delivered, 11u);
  EXPECT_GE(rounds, 11u);
  EXPECT_EQ(dynamic_cast<EchoNode&>(net.node(b)).received(), 6u);
  EXPECT_EQ(dynamic_cast<EchoNode&>(net.node(a)).received(), 5u);
}

TEST(Network, AddNodeAfterStartThrows) {
  Network net(DeliveryPolicy{}, 1, 1);
  net.add_node(std::make_unique<EchoNode>(0));
  net.start();
  EXPECT_THROW(net.add_node(std::make_unique<EchoNode>(0)),
               std::logic_error);
}

TEST(Network, InjectToUnknownNodeThrows) {
  Network net(DeliveryPolicy{}, 1, 1);
  net.add_node(std::make_unique<EchoNode>(0));
  EXPECT_THROW(net.inject(Message{0, 5, 0, {}, 0}), std::out_of_range);
}

TEST(Network, DropPolicyDropsApproximatelyP) {
  DeliveryPolicy policy;
  policy.drop_prob = 0.3;
  Network net(std::move(policy), 99, 1);
  // 64 nodes all echo forever-ish; traffic dies out via drops.
  std::vector<NodeId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(net.add_node(std::make_unique<EchoNode>(200)));
  }
  net.start();
  for (int i = 0; i < 64; ++i) {
    net.inject(Message{ids[(i + 1) % 64], ids[i], 0, {1}, 0});
  }
  net.run_until_quiescent(4000);
  const auto& s = net.stats();
  const double drop_rate = static_cast<double>(s.dropped) /
                           static_cast<double>(s.sent);
  EXPECT_NEAR(drop_rate, 0.3, 0.05);
}

TEST(Network, DelayedMessagesArriveWithinBound) {
  DeliveryPolicy policy;
  policy.max_delay_rounds = 3;
  Network net(std::move(policy), 5, 1);
  const auto a = net.add_node(std::make_unique<EchoNode>(0));
  const auto b = net.add_node(std::make_unique<EchoNode>(0));
  net.start();
  // Messages injected bypass policy; make the nodes talk instead.
  net.inject(Message{a, b, 0, {1}, 0});
  net.run_until_quiescent(64);
  EXPECT_EQ(net.stats().delivered, 1u);
  (void)a;
}

TEST(Network, ByzantineSourcesAreCorrupted) {
  DeliveryPolicy policy;
  policy.byzantine = {1, 0};  // node 0 is Byzantine
  Network net(std::move(policy), 7, 1);
  const auto a = net.add_node(std::make_unique<EchoNode>(1));
  const auto b = net.add_node(std::make_unique<EchoNode>(1));
  net.start();
  net.inject(Message{b, a, 0, {100}, 0});  // a receives, echoes to b
  net.run_until_quiescent(16);
  // a's echo passed through the corrupt hook exactly once.
  EXPECT_GE(net.stats().corrupted, 1u);
  (void)b;
}

TEST(Network, TraceIsDeterministicAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    RelayConfig cfg;
    cfg.chain_length = 6;
    cfg.group_size = 11;
    cfg.bad_per_group = 2;
    cfg.drop_prob = 0.05;
    cfg.max_delay_rounds = 2;
    cfg.threads = threads;
    cfg.seed = 31337;
    return run_relay_chain(cfg);
  };
  const auto t1 = run(1);
  const auto t3 = run(3);  // non-divisor width: chunk boundaries shift
  const auto t4 = run(4);
  const auto t8 = run(8);
  const auto t16 = run(16);  // more workers than the pool may hold
  EXPECT_EQ(t1.trace_hash, t3.trace_hash);
  EXPECT_EQ(t1.trace_hash, t4.trace_hash);
  EXPECT_EQ(t1.trace_hash, t8.trace_hash);
  EXPECT_EQ(t1.trace_hash, t16.trace_hash);
  EXPECT_EQ(t1.delivered, t4.delivered);
  EXPECT_EQ(t1.messages_delivered, t8.messages_delivered);
}

/// Chatter with payloads wide enough to spill: the traffic generator
/// for the payload-arena golden.
class WidePayloadNode final : public Node {
 public:
  WidePayloadNode(std::size_t n, std::size_t words) : n_(n), words_(words) {}

  void on_message(const Message& m, Context& ctx) override {
    (void)ctx;
    for (const auto w : m.payload) state_ += w;
  }

  void on_round_end(Context& ctx) override {
    Words payload = ctx.payload();
    payload.push_back(state_);
    while (payload.size() < words_) {
      payload.push_back(payload.back() * 0x100000001B3ULL + ctx.round());
    }
    ctx.send(static_cast<NodeId>((ctx.self() + 1) % n_), 1,
             std::move(payload));
    ctx.send(static_cast<NodeId>((ctx.self() + 3) % n_), 2, {state_});
  }

 private:
  std::size_t n_;
  std::size_t words_;
  std::uint64_t state_ = 1;
};

std::uint64_t run_wide_chatter(std::size_t threads) {
  constexpr std::size_t kNodes = 16;
  DeliveryPolicy policy;
  policy.drop_prob = 0.1;
  policy.max_delay_rounds = 2;
  policy.byzantine.assign(kNodes, 0);
  policy.byzantine[5] = 1;
  Network net(std::move(policy), /*seed=*/777, threads);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net.add_node(std::make_unique<WidePayloadNode>(
        kNodes, 3 * Words::kInlineCapacity));
  }
  net.start();
  for (std::size_t r = 0; r < 24; ++r) net.run_round();
  return net.trace_hash();
}

TEST(Network, SpilledPayloadTrafficMatchesGolden) {
  // Every wide payload spills into the network's arena while the
  // policy drops, delays and corrupts.  The golden was produced when
  // the heap-spill and fresh-buffer round paths were retired, with
  // all four storage combinations agreeing; it holds at any width.
  EXPECT_EQ(run_wide_chatter(1), 0x5adb4c81a283206bULL);
  EXPECT_EQ(run_wide_chatter(4), 0x5adb4c81a283206bULL);
}

TEST(Network, ArenaServesSteadyStateFromFreeLists) {
  constexpr std::size_t kNodes = 8;
  Network net(DeliveryPolicy{}, 3, 1);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net.add_node(std::make_unique<WidePayloadNode>(
        kNodes, 4 * Words::kInlineCapacity));
  }
  net.start();
  for (std::size_t r = 0; r < 8; ++r) net.run_round();
  const auto warm = net.payload_arena().heap_allocations();
  for (std::size_t r = 0; r < 32; ++r) net.run_round();
  const auto after = net.payload_arena().heap_allocations();
  EXPECT_GT(net.payload_arena().stats().recycled, 0u);
  // Warm rounds must not keep hitting the heap.
  EXPECT_EQ(after, warm);
}

TEST(Network, DifferentSeedsDifferentTraces) {
  RelayConfig cfg;
  cfg.drop_prob = 0.1;
  cfg.seed = 1;
  const auto r1 = run_relay_chain(cfg);
  cfg.seed = 2;
  const auto r2 = run_relay_chain(cfg);
  EXPECT_NE(r1.trace_hash, r2.trace_hash);
}

// ---------- Fig. 1 relay chain ----------

TEST(RelayChain, AllGoodDelivers) {
  RelayConfig cfg;
  cfg.chain_length = 5;
  cfg.group_size = 9;
  cfg.bad_per_group = 0;
  const auto run = run_relay_chain(cfg);
  EXPECT_TRUE(run.delivered);
  EXPECT_FALSE(run.corrupted);
  // Messages: (chain-1) hops of |G|^2 copies, all delivered.
  EXPECT_EQ(run.messages_delivered, 4u * 81u);
}

TEST(RelayChain, MinorityByzantineIsFiltered) {
  RelayConfig cfg;
  cfg.chain_length = 6;
  cfg.group_size = 9;
  cfg.bad_per_group = 4;  // 4 of 9: minority
  const auto run = run_relay_chain(cfg);
  EXPECT_TRUE(run.delivered);
  EXPECT_FALSE(run.corrupted);
}

TEST(RelayChain, MajorityByzantineGroupCorrupts) {
  RelayConfig cfg;
  cfg.chain_length = 4;
  cfg.group_size = 9;
  cfg.bad_per_group = 5;  // majority bad in EVERY group
  const auto run = run_relay_chain(cfg);
  EXPECT_FALSE(run.delivered);
}

TEST(RelayChain, ExecutedDeliveryMatchesTheAnalyticBoundary) {
  // docs/DEVIATIONS.md#analytic-messages: the analytic model counts a
  // chain of all-to-all majority relays as delivered exactly when
  // 2 * bad < |G| in every group.  Executed with real messages, the
  // relay draws the same boundary on every seed.
  for (const auto& [group_size, bad] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {9, 0}, {9, 3}, {9, 4}, {9, 5}, {13, 6}, {13, 7}}) {
    std::size_t delivered = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      RelayConfig cfg;
      cfg.chain_length = 6;
      cfg.group_size = group_size;
      cfg.bad_per_group = bad;
      cfg.seed = seed;
      delivered += run_relay_chain(cfg).delivered ? 1 : 0;
    }
    EXPECT_EQ(delivered, 2 * bad < group_size ? 100u : 0u)
        << "|G| = " << group_size << ", bad = " << bad;
  }
}

TEST(RelayChain, SurvivesBoundedDelay) {
  RelayConfig cfg;
  cfg.chain_length = 5;
  cfg.group_size = 9;
  cfg.bad_per_group = 3;
  cfg.max_delay_rounds = 3;
  const auto run = run_relay_chain(cfg);
  EXPECT_TRUE(run.delivered);
  EXPECT_FALSE(run.corrupted);
}

TEST(RelayChain, HeavyDropStarvesButNeverForges) {
  RelayConfig cfg;
  cfg.chain_length = 8;
  cfg.group_size = 7;
  cfg.bad_per_group = 2;
  cfg.drop_prob = 0.6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const auto run = run_relay_chain(cfg);
    // With 60% loss the payload may starve, but a forgery majority
    // among good members must never form.
    EXPECT_FALSE(run.corrupted) << "seed " << seed;
  }
}

TEST(RelayChain, WidePayloadCopiesRelayAndFilterIdentically) {
  // Copies wide enough to spill into pooled storage must not change
  // the protocol outcome: word 0 still carries the value, and the
  // majority filter still rejects a Byzantine minority.
  RelayConfig cfg;
  cfg.chain_length = 5;
  cfg.group_size = 9;
  cfg.bad_per_group = 4;
  cfg.payload_words = 3 * Words::kInlineCapacity;
  const auto wide = run_relay_chain(cfg);
  EXPECT_TRUE(wide.delivered);
  EXPECT_FALSE(wide.corrupted);
  // Same outcome (and message count) as the single-word protocol.
  cfg.payload_words = 1;
  const auto narrow = run_relay_chain(cfg);
  EXPECT_EQ(wide.delivered, narrow.delivered);
  EXPECT_EQ(wide.messages_delivered, narrow.messages_delivered);
}

TEST(RelayChain, RoundsScaleWithChainLength) {
  RelayConfig cfg;
  cfg.group_size = 7;
  cfg.bad_per_group = 0;
  cfg.chain_length = 3;
  const auto short_run = run_relay_chain(cfg);
  cfg.chain_length = 12;
  const auto long_run = run_relay_chain(cfg);
  EXPECT_TRUE(short_run.delivered);
  EXPECT_TRUE(long_run.delivered);
  EXPECT_GT(long_run.rounds, short_run.rounds + 6);
}

}  // namespace
}  // namespace tg::net
