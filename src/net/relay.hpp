// Figure 1, executed: a chain of groups relaying a payload via
// all-to-all exchange + majority filtering, running as real actors on
// the net::Network runtime.
//
// Node id layout: member j of chain group g is node g*group_size + j.
// Group 0's members hold the payload initially; each member of group g
// forwards its majority-decoded value to every member of group g+1.
// A member decodes only a value that more than |G|/2 distinct senders
// carried (bft::majority_vote); short of that it stays undecoded and
// forwards nothing, so loss starves a hop but never forges it.
// Byzantine members are modeled by the network's delivery policy
// (their outgoing payloads are corrupted in flight — equivalently,
// they collude on a common forged value).
//
// The analytic counterpart is the |G_a|*|G_b| per-hop message count
// and the 2*bad < |G| delivery rule (docs/DEVIATIONS.md#analytic-messages);
// tests check the two agree, which is what licenses using the cheap
// analytic model in the large-n experiments.
#pragma once

#include <cstdint>
#include <optional>

#include "net/network.hpp"
#include "net/node.hpp"

namespace tg::net {

class RelayMember final : public Node {
 public:
  /// `patience`: rounds to keep collecting after the first copy
  /// arrives before decoding and forwarding — must be >= the network's
  /// max_delay_rounds or stragglers are decoded without.
  /// `payload_words`: words per forwarded copy — word 0 is the relayed
  /// value, the rest a synthetic certificate (the signature + proof
  /// chain a deployment attaches); above Words::kInlineCapacity the
  /// copies exercise the network's pooled spill storage.
  RelayMember(std::size_t group, std::size_t group_size,
              std::size_t chain_length, std::size_t patience = 0,
              std::optional<std::uint64_t> initial = std::nullopt,
              std::size_t payload_words = 1);

  void on_message(const Message& m, Context& ctx) override;
  void on_round_end(Context& ctx) override;

  /// The value this member decoded (nullopt = starved / not reached).
  [[nodiscard]] std::optional<std::uint64_t> decoded() const noexcept {
    return decoded_;
  }

 private:
  void forward(Context& ctx);

  std::size_t group_;
  std::size_t group_size_;
  std::size_t chain_length_;
  std::size_t patience_;
  std::size_t payload_words_;
  std::optional<std::uint64_t> decoded_;
  std::vector<NodeId> senders_;
  std::vector<std::uint64_t> copies_;
  std::size_t rounds_waited_ = 0;
  bool collecting_ = false;
  bool forwarded_ = false;
};

/// Harness: build a chain of `chain_length` groups of `group_size`
/// members on a network, mark `bad_per_group` members of every group
/// Byzantine (the first ones), push `payload` through, and report.
struct RelayRun {
  bool delivered = false;       ///< final group majority-decoded payload
  bool corrupted = false;       ///< final group majority-decoded a forgery
  std::uint64_t rounds = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t trace_hash = 0;
};

struct RelayConfig {
  std::size_t chain_length = 4;
  std::size_t group_size = 9;
  std::size_t bad_per_group = 0;
  std::size_t threads = 1;
  double drop_prob = 0.0;
  std::size_t max_delay_rounds = 0;
  /// Words per relayed copy (>= 1): value + synthetic certificate.
  std::size_t payload_words = 1;
  std::uint64_t payload = 0xFEEDFACE;
  std::uint64_t seed = 1;
};

[[nodiscard]] RelayRun run_relay_chain(const RelayConfig& config);

}  // namespace tg::net
