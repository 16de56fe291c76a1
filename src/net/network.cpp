#include "net/network.hpp"

#include <functional>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::net {

Network::Network(DeliveryPolicy policy, std::uint64_t seed,
                 std::size_t threads)
    : policy_(std::move(policy)),
      policy_rng_(seed),
      threads_(threads == 0 ? 1 : threads) {}

NodeId Network::add_node(std::unique_ptr<Node> node) {
  if (started_)
    throw std::logic_error("Network: add_node after start()");
  nodes_.push_back(std::move(node));
  inboxes_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::inject(Message m) {
  if (m.dst >= nodes_.size())
    throw std::out_of_range("Network: inject to unknown node");
  ++stats_.sent;
  m.sent_round = round_;
  inboxes_[m.dst].push_back(std::move(m));
}

void Network::absorb_trace(const Message& m) noexcept {
  const auto mix = [&](std::uint64_t word) {
    trace_hash_ ^= word;
    trace_hash_ *= 1099511628211ULL;  // FNV prime
  };
  mix(m.src);
  mix(m.dst);
  mix(m.tag);
  mix(m.sent_round);
  for (const auto w : m.payload) mix(w);
}

void Network::route_outbox(std::vector<Message>& outbox) {
  for (Message& m : outbox) {
    if (m.dst >= nodes_.size()) continue;  // misaddressed: dropped
    ++stats_.sent;
    const bool byz = m.src < policy_.byzantine.size() &&
                     policy_.byzantine[m.src] != 0;
    if (byz) {
      for (auto& word : m.payload) word ^= 1ULL;
      ++stats_.corrupted;
    }
    if (policy_.drop_prob > 0.0 && policy_rng_.bernoulli(policy_.drop_prob)) {
      ++stats_.dropped;
      continue;
    }
    std::size_t delay = 0;
    if (policy_.max_delay_rounds > 0) {
      delay = policy_rng_.below(policy_.max_delay_rounds + 1);
    }
    if (fault_ != nullptr) {
      const FaultDecision fate =
          fault_->decide(round_, m.src, m.dst, fault_seq_++);
      if (fate.drop) {
        ++stats_.fault_dropped;
        continue;
      }
      // Duplicates are immediate extra copies; the original still
      // follows its (possibly delayed/reordered) fate below.
      for (std::uint32_t k = 0; k < fate.duplicates; ++k) {
        ++stats_.fault_duplicated;
        inboxes_[m.dst].push_back(Message(m));
      }
      if (fate.delay_rounds > 0) {
        ++stats_.fault_delayed;
        delay += fate.delay_rounds;
      } else if (fate.reorder && delay == 0) {
        ++stats_.fault_reordered;
        reordered_.push_back(std::move(m));
        continue;
      }
    }
    if (delay == 0) {
      inboxes_[m.dst].push_back(std::move(m));
    } else {
      ++stats_.delayed;
      const std::size_t slot = static_cast<std::size_t>(round_) + delay;
      if (delayed_.size() <= slot) delayed_.resize(slot + 1);
      delayed_[slot].push_back(std::move(m));
    }
  }
  outbox.clear();  // consumed; capacity survives for the next round
}

void Network::flush_reordered() {
  for (auto it = reordered_.rbegin(); it != reordered_.rend(); ++it) {
    inboxes_[it->dst].push_back(std::move(*it));
  }
  reordered_.clear();
}

void Network::start() {
  started_ = true;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    Context ctx(i, round_, &arena_);
    nodes_[i]->on_start(ctx);
    route_outbox(ctx.outbox());
  }
  flush_reordered();
}

std::size_t Network::run_round() {
  ++round_;
  ++stats_.rounds;
  // The session pointer is resolved once per round; with none active
  // this branch is the round loop's entire telemetry cost.
  telemetry::Session* const telem = telemetry::active();
  if (telem != nullptr) telem->set_round(static_cast<std::uint32_t>(round_));

  // Release messages whose delay expires this round.
  if (round_ < delayed_.size()) {
    for (Message& m : delayed_[round_]) {
      inboxes_[m.dst].push_back(std::move(m));
    }
    delayed_[round_].clear();
  }

  // Per-round scratch, reused across rounds (allocation-free once
  // warm: deliveries swap with the inboxes, outboxes round-trip
  // through the node Contexts).
  const std::size_t n = nodes_.size();
  deliveries_.resize(n);
  outboxes_.resize(n);

  // Sequential drain in node order: the determinism anchor (the trace
  // hash and the per-node delivery order are fixed here, before any
  // parallelism starts).
  std::size_t delivered = 0;
  for (NodeId i = 0; i < n; ++i) {
    // Swap, not copy: last round's delivery buffer becomes the inbox
    // storage for the next round.
    deliveries_[i].clear();
    deliveries_[i].swap(inboxes_[i]);
    delivered += deliveries_[i].size();
    for (const Message& m : deliveries_[i]) absorb_trace(m);
  }
  stats_.delivered += delivered;

  // Parallel handler phase: node i's handlers touch only node i's
  // state and a private Context, so sharding by node is race-free;
  // outboxes are merged in node order afterwards, making results
  // independent of the chunk schedule and worker count.  Runs on the
  // persistent global pool — no thread churn per round.
  const std::function<void(std::size_t)> process = [&](std::size_t i) {
    Context ctx(static_cast<NodeId>(i), round_, std::move(outboxes_[i]),
                &arena_);
    nodes_[i]->on_messages(
        std::span<const Message>(deliveries_[i].data(), deliveries_[i].size()),
        ctx);
    nodes_[i]->on_round_end(ctx);
    outboxes_[i] = std::move(ctx.outbox());
  };
  if (threads_ <= 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) process(i);
  } else {
    ThreadPool::global().parallel_for(n, process, threads_);
  }

  // Sequential merge in node order.
  for (NodeId i = 0; i < n; ++i) {
    route_outbox(outboxes_[i]);
  }
  flush_reordered();
  if (telem != nullptr) telem_flush_round(*telem, delivered);
  return delivered;
}

void Network::telem_flush_round(telemetry::Session& session,
                                std::size_t delivered) {
  using telemetry::Probe;
  const NetworkStats& s = stats_;
  const NetworkStats& p = telem_prev_stats_;
  session.count(Probe::net_messages_sent, s.sent - p.sent);
  session.count(Probe::net_messages_delivered, s.delivered - p.delivered);
  session.count(Probe::net_messages_dropped, s.dropped - p.dropped);
  session.count(Probe::net_messages_delayed, s.delayed - p.delayed);
  session.count(Probe::net_messages_corrupted, s.corrupted - p.corrupted);
  session.count(Probe::net_rounds, s.rounds - p.rounds);
  session.count(Probe::net_fault_dropped, s.fault_dropped - p.fault_dropped);
  session.count(Probe::net_fault_delayed, s.fault_delayed - p.fault_delayed);
  session.count(Probe::net_fault_duplicated,
                s.fault_duplicated - p.fault_duplicated);
  session.count(Probe::net_fault_reordered,
                s.fault_reordered - p.fault_reordered);
  const WordArena::Stats arena = arena_.stats();
  const WordArena::Stats& ap = telem_prev_arena_;
  session.count(Probe::net_arena_allocated, arena.allocated - ap.allocated);
  session.count(Probe::net_arena_released, arena.released - ap.released);
  session.count(Probe::net_arena_unpooled, arena.unpooled - ap.unpooled);
  session.count(Probe::net_arena_recycled, arena.recycled - ap.recycled);
  session.sample(Probe::net_delivered_per_round, delivered);
  session.event(telemetry::EventName::net_round, telemetry::kSrcNet, 'C',
                /*id=*/0, /*a=*/delivered, /*b=*/s.sent - p.sent);
  telem_prev_stats_ = s;
  telem_prev_arena_ = arena;
}

std::size_t Network::run_until_quiescent(std::size_t max_rounds) {
  std::size_t rounds = 0;
  while (rounds < max_rounds) {
    const std::size_t delivered = run_round();
    ++rounds;
    if (delivered != 0) continue;
    bool pending = false;
    for (const auto& inbox : inboxes_) {
      if (!inbox.empty()) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      for (std::size_t slot = static_cast<std::size_t>(round_) + 1;
           slot < delayed_.size(); ++slot) {
        if (!delayed_[slot].empty()) {
          pending = true;
          break;
        }
      }
    }
    if (!pending) break;
  }
  return rounds;
}

}  // namespace tg::net
