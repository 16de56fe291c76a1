#include "pow/gossip.hpp"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.hpp"

namespace tg::pow {

std::vector<std::vector<std::uint32_t>> make_gossip_topology(
    std::size_t nodes, std::size_t degree, Rng& rng) {
  if (nodes < 2) return {nodes, std::vector<std::uint32_t>{}};
  // A node has at most nodes - 1 peers; a larger degree is never met.
  degree = std::min(degree, nodes - 1);
  std::vector<std::vector<std::uint32_t>> adj(nodes);
  // Links are always added in both directions, so one membership test
  // covers both lists.
  const auto link = [&adj](std::uint32_t a, std::uint32_t b) {
    auto& row = adj[a];
    const auto at = std::lower_bound(row.begin(), row.end(), b);
    if (at != row.end() && *at == b) return;
    row.insert(at, b);
    auto& back = adj[b];
    back.insert(std::lower_bound(back.begin(), back.end(), a), a);
  };
  // Ring backbone guarantees connectivity; random chords give the
  // expander-like expansion that keeps the diameter O(log n).
  for (std::uint32_t i = 0; i < nodes; ++i) {
    link(i, static_cast<std::uint32_t>((i + 1) % nodes));
  }
  for (std::uint32_t i = 0; i < nodes; ++i) {
    while (adj[i].size() < degree) {
      const auto peer = static_cast<std::uint32_t>(rng.below(nodes));
      if (peer == i) continue;
      link(i, peer);
    }
  }
  return adj;
}

GossipOutcome run_string_protocol(
    const std::vector<std::vector<std::uint32_t>>& adjacency,
    const GossipParams& params, const std::vector<LateRelease>& attacks,
    Rng& rng) {
  GossipOutcome out;
  const std::size_t n = adjacency.size();
  if (n == 0) return out;

  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n, 3)));
  const std::size_t phase2 =
      params.phase2_steps ? params.phase2_steps
                          : static_cast<std::size_t>(std::ceil(params.d_prime * ln_n));
  const std::size_t phase3 =
      params.phase3_steps ? params.phase3_steps
                          : static_cast<std::size_t>(std::ceil(params.d_prime * ln_n));
  const auto counter_cap =
      static_cast<std::size_t>(std::ceil(params.c0 * ln_n));
  const auto rset_size = static_cast<std::size_t>(std::ceil(params.d0 * ln_n));
  const auto bins = static_cast<std::size_t>(std::ceil(
      params.b * std::log(static_cast<double>(n) *
                          static_cast<double>(params.epoch_T))));
  const std::size_t total_steps = phase2 + phase3;
  std::size_t released = 0;
  for (const LateRelease& atk : attacks) {
    released += atk.release_step < total_steps && atk.at_node < n;
  }
  BinTables tables(n, bins, counter_cap, n + released);

  // ---- Phase 1: local generation.  The minimum of A uniforms has
  // CDF 1-(1-x)^A; inverse-sample it per node.  Node i's string gets
  // uid i.
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    const double x = 1.0 - std::pow(1.0 - u,
                                    1.0 / static_cast<double>(
                                              params.phase1_attempts));
    (void)tables.add(x, static_cast<std::uint32_t>(i));
  }

  // ---- Phases 2+3: synchronous flooding with bin filtering.
  // outbox[i] = uids node i accepted this step (to deliver next step).
  std::vector<std::vector<std::uint32_t>> outbox(n), next_outbox(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto uid = static_cast<std::uint32_t>(i);
    if (tables.accept(i, uid)) outbox[i].push_back(uid);
  }

  std::vector<LotteryString> selected(n);  // s^{i*}: chosen at end of Phase 2
  for (std::size_t step = 0; step < total_steps; ++step) {
    // Adversarial injections scheduled for this step.
    for (const LateRelease& atk : attacks) {
      if (atk.release_step == step && atk.at_node < n) {
        const std::uint32_t uid = tables.add(atk.output, atk.at_node);
        if (tables.accept(atk.at_node, uid)) outbox[atk.at_node].push_back(uid);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.forward_events += outbox[i].size() * adjacency[i].size();
    }
    // Receiver pull.  On a symmetric adjacency the senders that reach
    // r are exactly r's neighbours; reading them in ascending order,
    // each outbox in order, replays the order in which a sender-major
    // push loop would deliver to r.  A receiver writes only its own
    // bins and outbox, so receivers run in parallel and the result is
    // independent of scheduling.
    ThreadPool::global().parallel_for(n, [&](std::size_t r) {
      auto& accepted = next_outbox[r];
      accepted.clear();
      for (const std::uint32_t sender : adjacency[r]) {
        for (const std::uint32_t uid : outbox[sender]) {
          if (tables.accept(r, uid)) accepted.push_back(uid);
        }
      }
    });
    std::swap(outbox, next_outbox);
    if (step + 1 == phase2) {
      // End of Phase 2: every node selects its current minimum.
      for (std::size_t i = 0; i < n; ++i) {
        selected[i] = tables.minimum(i).value_or(
            tables.string(static_cast<std::uint32_t>(i)));
      }
    }
  }
  out.steps_run = total_steps;

  // ---- Evaluation (Lemma 12).  holders[uid] counts the solution sets
  // that hold uid; a set never holds a uid twice.
  double sum_sizes = 0.0;
  std::vector<std::size_t> holders(tables.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto rset = tables.solution_set(i, rset_size);
    sum_sizes += static_cast<double>(rset.size());
    out.max_solution_set = std::max(out.max_solution_set, rset.size());
    for (const auto& s : rset) ++holders[s.uid];
  }
  out.mean_solution_set = sum_sizes / static_cast<double>(n);

  // global_minimum covers the nodes up to the first disagreement.
  for (std::size_t i = 0; i < n && out.agreement; ++i) {
    out.global_minimum = std::min(out.global_minimum, selected[i].output);
    out.agreement = holders[selected[i].uid] == n;
  }
  return out;
}

}  // namespace tg::pow
