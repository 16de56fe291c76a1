// E20 — the message-passing runtime as an instrument: executed
// Fig. 1 relays agree with the analytic model, scale across worker
// threads, and stay deterministic while doing so.
//
// This validates the substitution made everywhere else (counting
// messages analytically instead of executing them; see
// docs/DEVIATIONS.md#analytic-messages): where both paths exist, they
// agree.
#include <chrono>

#include "bench_common.hpp"

#include "tinygroups/tinygroups.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace tg;
  using namespace tg::bench;
  log::set_level(log::Level::warn);

  banner("E20: threaded runtime — executed Fig. 1 vs the analytic model",
         "executed relays agree with routing::transmit; throughput "
         "scales with workers; traces are thread-count-invariant");

  // ---- Part 1: executed vs analytic delivery ----------------------
  {
    Table t({"|G|", "bad/G", "executed delivered", "analytic delivered",
             "agree"});
    t.set_title("100 seeds per row, chain of 6 groups");
    for (const auto& [g, bad] : std::vector<std::pair<std::size_t, std::size_t>>{
             {9, 0}, {9, 3}, {9, 4}, {9, 5}, {13, 6}, {13, 7}}) {
      std::size_t executed = 0;
      for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        net::RelayConfig cfg;
        cfg.chain_length = 6;
        cfg.group_size = g;
        cfg.bad_per_group = bad;
        cfg.seed = seed;
        executed += net::run_relay_chain(cfg).delivered ? 1 : 0;
      }
      // Analytic: all-to-all majority relay succeeds iff bad < |G|/2
      // in every group (deterministically, no loss).
      const bool analytic = 2 * bad < g;
      const double exec_rate = static_cast<double>(executed) / 100.0;
      t.add_row({g, bad, exec_rate, analytic ? 1.0 : 0.0,
                 std::string((analytic ? exec_rate == 1.0
                                       : exec_rate == 0.0)
                                 ? "yes"
                                 : "NO")});
    }
    t.print(std::cout);
    std::cout << "(the executed runtime and the analytic model draw the\n"
                 " same good-majority boundary — the license for using\n"
                 " message counting at experiment scale.)\n";
  }

  // ---- Part 2: executor width vs wall time --------------------------
  {
    Table t({"threads", "wall s", "vs 1 thread", "msgs delivered", "trace"});
    t.set_title("64 groups x 33 members, per-copy verification work "
                "(signature-check model), 3 relays per config");
    std::cout << "(host reports hardware_concurrency = "
              << std::thread::hardware_concurrency()
              << "; speedup above 1x is only physical on multi-core "
                 "hosts —\n on a single core this table bounds the "
                 "executor's threading OVERHEAD instead)\n";
    net::RelayConfig cfg;
    cfg.chain_length = 64;
    cfg.group_size = 33;
    cfg.bad_per_group = 13;
    cfg.verify_spin = 2000;  // per-copy verification work
    cfg.seed = 5;
    double base = 0.0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      cfg.threads = threads;
      const auto t0 = Clock::now();
      net::RelayRun last{};
      for (int rep = 0; rep < 3; ++rep) last = net::run_relay_chain(cfg);
      const double wall = seconds_since(t0);
      if (threads == 1) base = wall;
      t.add_row({threads, wall, base / wall, last.messages_delivered,
                 std::string("0x") + std::to_string(last.trace_hash % 0xFFFF)});
    }
    t.print(std::cout);
    std::cout << "(identical trace column at every width: results are a\n"
                 " pure function of the seed, not of the interleaving —\n"
                 " the property that makes the concurrent runtime usable\n"
                 " as an experimental instrument.)\n";
  }

  // ---- Part 3: delivery policy stress ------------------------------
  {
    Table t({"drop", "delay<=", "delivered", "corrupted", "rounds"});
    t.set_title("chain of 8 x 11 members, 4 Byzantine each, 50 seeds");
    for (const auto& [drop, delay] :
         std::vector<std::pair<double, std::size_t>>{
             {0.0, 0}, {0.05, 0}, {0.05, 2}, {0.2, 2}, {0.4, 3}}) {
      std::size_t delivered = 0, corrupted = 0;
      RunningStats rounds;
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        net::RelayConfig cfg;
        cfg.chain_length = 8;
        cfg.group_size = 11;
        cfg.bad_per_group = 4;
        cfg.drop_prob = drop;
        cfg.max_delay_rounds = delay;
        cfg.seed = seed;
        const auto run = net::run_relay_chain(cfg);
        delivered += run.delivered ? 1 : 0;
        corrupted += run.corrupted ? 1 : 0;
        rounds.add(static_cast<double>(run.rounds));
      }
      t.add_row({drop, delay, static_cast<double>(delivered) / 50.0,
                 static_cast<double>(corrupted) / 50.0, rounds.mean()});
    }
    t.print(std::cout);
    std::cout << "(loss starves relays (liveness) but never manufactures\n"
                 " a forged majority (safety) — the filter fails closed.)\n";
  }
  return 0;
}
