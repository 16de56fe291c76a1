// Figure 1 on real threads: the group-to-group relay executed by the
// message-passing runtime instead of the analytic simulator.
//
// Demonstrates the net:: substrate a deployment would sit on —
// inboxes, a delivery policy with loss/delay/Byzantine corruption,
// and the deterministic parallel executor (same seed => identical
// trace at any thread count).  The payload crosses a chain of tiny
// groups; each member majority-filters what it heard before
// forwarding, exactly the paper's secure-routing primitive.
#include <iostream>

#include "tinygroups/tinygroups.hpp"

int main() {
  using namespace tg;
  log::set_level(log::Level::warn);

  std::cout << "== Fig. 1 relay on the threaded runtime ==\n\n";

  // A healthy chain: minority corruption per group.  Copies carry a
  // 12-word payload (value + synthetic certificate) — wide enough to
  // spill past Words' inline buffer, so the relay also exercises the
  // network's pooled payload storage.
  net::RelayConfig cfg;
  cfg.chain_length = 8;
  cfg.group_size = 11;
  cfg.bad_per_group = 4;  // 4 of 11 — under half
  cfg.drop_prob = 0.02;
  cfg.max_delay_rounds = 2;
  cfg.threads = 4;
  cfg.payload_words = 12;
  cfg.seed = 7;

  const auto healthy = net::run_relay_chain(cfg);
  std::cout << "[relay] chain of " << cfg.chain_length << " groups of "
            << cfg.group_size << " (4 Byzantine each), 2% loss, delay<=2\n"
            << "[relay] delivered=" << (healthy.delivered ? "YES" : "no")
            << " corrupted=" << (healthy.corrupted ? "YES" : "no")
            << " rounds=" << healthy.rounds
            << " messages=" << healthy.messages_delivered << "\n\n";

  // Determinism: the concurrency is real, the results are not racy.
  net::RelayConfig det = cfg;
  det.threads = 1;
  const auto t1 = net::run_relay_chain(det);
  det.threads = 8;
  const auto t8 = net::run_relay_chain(det);
  std::cout << "[determinism] trace hash @1 thread:  0x" << std::hex
            << t1.trace_hash << "\n"
            << "[determinism] trace hash @8 threads: 0x" << t8.trace_hash
            << std::dec << "\n"
            << "[determinism] "
            << (t1.trace_hash == t8.trace_hash ? "IDENTICAL" : "DIVERGED")
            << " — parallel execution is an instrument, not a hazard\n\n";

  // The failure mode the paper defends against: one captured group.
  net::RelayConfig captured = cfg;
  captured.bad_per_group = 6;  // 6 of 11 — majority bad everywhere
  const auto broken = net::run_relay_chain(captured);
  std::cout << "[capture] with bad majorities (6/11): delivered="
            << (broken.delivered ? "YES" : "no")
            << " — majority filtering is exactly as strong as the\n"
            << "          good-majority invariant the construction "
               "maintains\n";
  return 0;
}
