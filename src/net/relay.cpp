#include "net/relay.hpp"

#include <algorithm>

#include "bft/majority_filter.hpp"

namespace tg::net {
namespace {

constexpr std::uint64_t kRelayTagBase = 0x5e1a;

}  // namespace

RelayMember::RelayMember(std::size_t group, std::size_t group_size,
                         std::size_t chain_length, std::size_t patience,
                         std::optional<std::uint64_t> initial,
                         std::size_t payload_words)
    : group_(group),
      group_size_(group_size),
      chain_length_(chain_length),
      patience_(patience),
      payload_words_(payload_words == 0 ? 1 : payload_words),
      decoded_(initial) {}

void RelayMember::on_message(const Message& m, Context& ctx) {
  (void)ctx;
  if (m.tag != kRelayTagBase + group_ || m.payload.empty()) return;
  // One copy per sender: a duplicate cannot add support.
  if (std::find(senders_.begin(), senders_.end(), m.src) != senders_.end()) {
    return;
  }
  senders_.push_back(m.src);
  copies_.push_back(m.payload.front());
  if (!collecting_) {
    collecting_ = true;
    rounds_waited_ = 0;
  }
}

void RelayMember::forward(Context& ctx) {
  forwarded_ = true;
  if (!decoded_ || group_ + 1 >= chain_length_) return;
  const auto next_base =
      static_cast<NodeId>((group_ + 1) * group_size_);
  for (std::size_t j = 0; j < group_size_; ++j) {
    // Word 0 carries the relayed value; the remaining words are the
    // synthetic certificate.  ctx.payload() draws spill storage from
    // the network's arena, so wide copies allocate nothing once warm.
    Words copy = ctx.payload();
    copy.reserve(payload_words_);
    copy.push_back(*decoded_);
    std::uint64_t cert = *decoded_;
    for (std::size_t w = 1; w < payload_words_; ++w) {
      cert = mix64(cert);
      copy.push_back(cert);
    }
    ctx.send(next_base + static_cast<NodeId>(j),
             kRelayTagBase + group_ + 1, std::move(copy));
  }
}

void RelayMember::on_round_end(Context& ctx) {
  if (forwarded_) return;
  if (group_ == 0) {
    // Initial holders forward in the first round.
    forward(ctx);
    return;
  }
  if (!collecting_) return;
  if (rounds_waited_ < patience_) {
    ++rounds_waited_;
    return;
  }
  // Fail closed: decode only a value more than |G|/2 distinct senders
  // carried.  Lost honest copies then starve the hop rather than hand
  // the bad minority's common forgery a plurality.
  const auto vote = bft::majority_vote(copies_);
  if (2 * vote.support > group_size_) decoded_ = vote.value;
  forward(ctx);
}

RelayRun run_relay_chain(const RelayConfig& config) {
  DeliveryPolicy policy;
  policy.drop_prob = config.drop_prob;
  policy.max_delay_rounds = config.max_delay_rounds;
  policy.byzantine.assign(config.chain_length * config.group_size, 0);
  for (std::size_t g = 0; g < config.chain_length; ++g) {
    for (std::size_t j = 0; j < config.bad_per_group; ++j) {
      policy.byzantine[g * config.group_size + j] = 1;
    }
  }

  Network net(std::move(policy), config.seed, config.threads);
  std::vector<RelayMember*> members;
  members.reserve(config.chain_length * config.group_size);
  for (std::size_t g = 0; g < config.chain_length; ++g) {
    for (std::size_t j = 0; j < config.group_size; ++j) {
      auto node = std::make_unique<RelayMember>(
          g, config.group_size, config.chain_length,
          config.max_delay_rounds,
          g == 0 ? std::optional<std::uint64_t>(config.payload)
                 : std::nullopt,
          config.payload_words);
      members.push_back(node.get());
      net.add_node(std::move(node));
    }
  }

  net.start();
  // Upper bound: each hop takes 1 + patience rounds, plus slack.
  const std::size_t budget =
      config.chain_length * (2 + config.max_delay_rounds) + 8;
  net.run_until_quiescent(budget);

  RelayRun run;
  run.rounds = net.round();
  run.messages_delivered = net.stats().delivered;
  run.trace_hash = net.trace_hash();

  std::size_t true_holders = 0, forged_holders = 0;
  const std::size_t last = config.chain_length - 1;
  for (std::size_t j = config.bad_per_group; j < config.group_size; ++j) {
    const auto& member = *members[last * config.group_size + j];
    if (!member.decoded()) continue;
    if (*member.decoded() == config.payload) {
      ++true_holders;
    } else {
      ++forged_holders;
    }
  }
  run.delivered = 2 * true_holders > config.group_size;
  run.corrupted = 2 * forged_holders > config.group_size;
  return run;
}

}  // namespace tg::net
