// Appendix VIII, executed: min-flood gossip of lottery strings over
// the message-passing runtime.
//
// The analytic model (pow/gossip.hpp) simulates the bin-table
// protocol at step granularity; this module runs the essential
// mechanism — flood the record-breaking minimum, throttled by a
// per-node forward budget — as real actors, so the Lemma 12 claims
// (everyone converges on the minimum; per-node forwards stay bounded;
// a late-released smaller value still propagates if any time remains)
// can be checked against an EXECUTION, including under message loss
// the analytic model does not cover.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/node.hpp"

namespace tg::net {

class MinGossipNode final : public Node {
 public:
  /// `initial`: this node's locally generated lottery output (smaller
  /// is better).  `budget`: max forwards (the c0 ln n counter cap).
  MinGossipNode(std::vector<NodeId> neighbors, std::uint64_t initial,
                std::size_t budget);

  void on_start(Context& ctx) override;
  void on_message(const Message& m, Context& ctx) override;

  [[nodiscard]] std::uint64_t minimum() const noexcept { return min_; }
  [[nodiscard]] std::size_t forwards_used() const noexcept {
    return forwards_;
  }

 private:
  void flood(Context& ctx, NodeId except);

  std::vector<NodeId> neighbors_;
  std::uint64_t min_;
  std::size_t budget_;
  std::size_t forwards_ = 0;
};

struct MinGossipConfig {
  /// Undirected adjacency (e.g. pow::make_gossip_topology output).
  std::vector<std::vector<std::uint32_t>> adjacency;
  /// Per-node initial outputs; size must match adjacency.
  std::vector<std::uint64_t> initials;
  std::size_t forward_budget = 32;
  double drop_prob = 0.0;
  /// Late release: inject `attack_value` at `attack_node` after
  /// `attack_round` rounds (0 = no attack).
  std::uint64_t attack_value = 0;
  std::uint32_t attack_node = 0;
  std::size_t attack_round = 0;
  std::size_t max_rounds = 256;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
};

struct MinGossipRun {
  bool converged = false;        ///< every node holds the global min
  std::uint64_t global_min = 0;  ///< min over initials (+ attack value)
  std::size_t dissenters = 0;    ///< nodes holding something larger
  double mean_forwards = 0.0;
  std::size_t max_forwards = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

[[nodiscard]] MinGossipRun run_min_gossip(const MinGossipConfig& config);

}  // namespace tg::net
