// bench_telemetry — the telemetry plane's determinism and overhead
// numbers.
//
// Rows in BENCH_telemetry.json:
//
//   * GUARD PAIR — telemetry_event_coverage vs its _seed_baseline:
//     ops_per_sec carries DETERMINISTIC integer-derived rates (trace
//     events per round vs completed ops per round) for a FIXED engine
//     run, so CI's normalized regression guard watches the
//     events-per-op coverage ratio itself — a silent loss of
//     instrumentation shows up as a "perf" regression.
//
//   * telemetry_offpath_round_loop / telemetry_on_round_loop — the
//     chatter round loop with no session bound vs with one recording,
//     plus telemetry_guard_probe (ns per off-path active() check).
//
//   * overhead_telemetry_offpath — the off-path budget arithmetic the
//     in-binary gate asserts (see below).
//
// In-binary gates (throw, with the seed printed, before any JSON is
// written):
//   1. OFF-PATH IDENTITY — binding a session must not perturb
//      behavior: trace hash and every recorder counter of a fixed
//      engine run are byte-identical with and without telemetry, and
//      the session's mirrored counters equal the run's own ledger.
//   2. THREAD EQUALITY — with telemetry on, the exported metrics JSON
//      and Chrome trace JSON are byte-identical at 1 vs 4 executor
//      threads, and the campaign Capture path is byte-identical at
//      1 vs 4 trial-fan-out threads.
//   3. OFF-PATH OVERHEAD — the measured cost of the off-path guard
//      (one inactive telemetry::active() check), multiplied by a
//      conservative guards-per-round bound for the measured chatter
//      traffic, must stay within a few percent of the off-path round
//      time.  The gate is the median of 5 per-sample ratios, each
//      pairing a guard timing with the round timing taken right after.
//      This bounds the "telemetry compiled in but disabled" tax
//      without needing a guard-free binary to diff against.
//
//   bench_telemetry [--fast] [--out DIR]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "bench_common.hpp"
#include "tinygroups/tinygroups.hpp"

namespace {

using namespace tg;

struct BenchConfig {
  std::size_t loop_nodes = 512;
  std::size_t loop_rounds = 384;
};

/// The gates' FIXED shape: never scaled by --fast, so the committed
/// baseline and CI's fast rerun assert the identical run.
constexpr std::size_t kGuardN = 256;
constexpr std::size_t kGuardRounds = 96;
constexpr std::size_t kGuardTimeout = 12;

/// Conservative off-path guards per delivered message: the round loop
/// resolves one session per round, and a delivered workload message
/// crosses at most the GroupNode handle guard, a route guard, an
/// index-hit guard, and an issuer-side lifecycle guard.
constexpr double kGuardsPerMessage = 4.0;
/// Off-path budget: projected guard time <= 5% of the round time.
/// The projection is deliberately pessimistic (every delivered
/// message charged kGuardsPerMessage guards); the measured on/off
/// ratio printed next to it is the honest number and sits at ~1.0x.
constexpr double kOverheadBudget = 0.05;

scenario::ScenarioSpec base_spec(std::string_view name) {
  scenario::ScenarioSpec spec;
  spec.adversary = scenario::AdversaryKind::adaptive;
  spec.topology = scenario::Topology::tinygroups;
  spec.n = kGuardN;
  spec.beta = 0.08;
  spec.trials = 2;
  spec.churn = {2, 64};
  spec.workload.service = scenario::WorkloadAxis::Service::kv;
  spec.workload.loop = scenario::WorkloadAxis::Loop::open;
  spec.workload.rate = 2.0;
  spec.workload.rounds = kGuardRounds;
  spec.workload.timeout_rounds = kGuardTimeout;
  spec.workload.retries = true;
  spec.name = std::string(name);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the name
  for (const char c : spec.name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  spec.seed = mix64(h);
  return spec;
}

/// One benign-world engine run; when `session` is non-null it is bound
/// process-wide for the duration (the bench is single-flow, so the
/// global binding is the right seam here).
workload::RunResult engine_run(const scenario::ScenarioSpec& spec,
                               std::size_t threads,
                               telemetry::Session* session) {
  telemetry::set_active(session);
  Rng rng(spec.seed);
  const workload::World world =
      workload::world_for_trial(spec, /*with_adversary=*/false, rng);
  workload::KvService service(world, std::max<std::size_t>(64, spec.n / 4),
                              rng());
  workload::Spec engine = workload::engine_spec(spec, false);
  engine.retry.enabled = true;
  const workload::RunResult res = workload::run(service, engine, rng(), threads);
  telemetry::set_active(nullptr);
  return res;
}

/// Gate 1: telemetry is an observer, not a participant — and an exact
/// one.
void assert_off_path_identity() {
  const auto spec = base_spec("telemetry_offpath");
  const workload::RunResult dark = engine_run(spec, 1, nullptr);

  telemetry::Session session;
  const workload::RunResult lit = engine_run(spec, 1, &session);

  if (dark.trace_hash != lit.trace_hash ||
      dark.net.delivered != lit.net.delivered ||
      dark.recorder.issued != lit.recorder.issued ||
      dark.recorder.completed != lit.recorder.completed ||
      dark.recorder.timed_out != lit.recorder.timed_out) {
    std::cerr << "telemetry perturbed the run at seed " << spec.seed << "\n";
    throw std::logic_error(
        "telemetry: binding a session changed delivered traffic");
  }
  // The mirrored counters must agree with the run's own ledger — a
  // skew means an instrumentation site counts something else.
  const auto counter = [&](telemetry::Probe p) {
    return session.metrics().counter(p);
  };
  if (counter(telemetry::Probe::workload_ops_issued) !=
          lit.recorder.issued ||
      counter(telemetry::Probe::workload_ops_completed) !=
          lit.recorder.completed ||
      counter(telemetry::Probe::workload_ops_timed_out) !=
          lit.recorder.timed_out ||
      counter(telemetry::Probe::workload_retries) != lit.recorder.retries ||
      counter(telemetry::Probe::workload_hedges) != lit.recorder.hedges ||
      counter(telemetry::Probe::workload_stale_replies) !=
          lit.recorder.stale_replies ||
      counter(telemetry::Probe::net_messages_delivered) !=
          lit.net.delivered) {
    std::cerr << "telemetry mirror skew at seed " << spec.seed << "\n";
    throw std::logic_error(
        "telemetry: mirrored counters disagree with the run's recorder");
  }
  std::cout << "off-path identity: session on/off byte-identical ("
            << lit.net.delivered << " deliveries, trace " << lit.trace_hash
            << "), mirrors exact\n";
}

/// Gate 2a: engine executor width. 2b: campaign trial fan-out width.
void assert_thread_equality() {
  const auto spec = base_spec("telemetry_threads");
  const auto export_at = [&](std::size_t threads) {
    telemetry::Session session;
    (void)engine_run(spec, threads, &session);
    return std::make_pair(session.metrics_json(), session.chrome_trace_json());
  };
  const auto one = export_at(1);
  const auto four = export_at(4);
  if (one != four) {
    std::cerr << "export divergence at seed " << spec.seed << "\n";
    throw std::logic_error(
        "telemetry: exports differ across executor thread counts");
  }

  const auto capture_at = [&](std::size_t threads) {
    telemetry::Capture cap;
    telemetry::set_capture(&cap);
    (void)workload::run_traffic_cell(spec, /*with_adversary=*/true, threads);
    telemetry::set_capture(nullptr);
    return std::make_pair(cap.metrics_json({}), cap.chrome_trace_json());
  };
  const auto narrow = capture_at(1);
  const auto wide = capture_at(4);
  if (narrow != wide) {
    std::cerr << "capture divergence at seed " << spec.seed << "\n";
    throw std::logic_error(
        "telemetry: capture exports differ across trial fan-out widths");
  }
  std::cout << "thread equality: metrics + trace byte-identical at 1 vs 4 "
               "threads (engine and capture paths, "
            << one.second.size() << " trace bytes)\n";
}

/// Gate 3 + timing rows.
void append_overhead(bench::JsonReporter& out, const BenchConfig& config) {
  scenario::RoundLoopConfig loop;
  loop.nodes = config.loop_nodes;
  loop.rounds = config.loop_rounds;

  (void)scenario::run_chatter_round_loop(loop);  // warm-up
  telemetry::Session session;
  telemetry::set_active(&session);
  const scenario::RoundLoopResult on = scenario::run_chatter_round_loop(loop);
  telemetry::set_active(nullptr);

  // The off-path guard is timed in isolation: a noinline loop of the
  // exact inactive-session check every instrumentation site performs.
  // The gate divides the guard time by the round time.  Each guard
  // sample is paired with the round sample taken right after it, so
  // both see the same box load, and the gate is the median of the
  // kOverheadSamples per-pair ratios.
  constexpr std::uint64_t kProbeIters = 1u << 24;
  constexpr std::size_t kOverheadSamples = 5;
  const double messages_per_round =
      static_cast<double>(on.delivered) /
      static_cast<double>(config.loop_rounds);
  const double guards_per_round = kGuardsPerMessage * messages_per_round + 1.0;
  (void)telemetry::detail::off_path_guard_probe(kProbeIters / 16);  // warm
  Quantiles guard_samples, round_samples, fraction_samples;
  scenario::RoundLoopResult off;
  for (std::size_t i = 0; i < kOverheadSamples; ++i) {
    const Stopwatch sw;
    (void)telemetry::detail::off_path_guard_probe(kProbeIters);
    const double guard_sample_ns =
        sw.seconds() * 1e9 / static_cast<double>(kProbeIters);
    off = scenario::run_chatter_round_loop(loop);
    guard_samples.add(guard_sample_ns);
    round_samples.add(off.ns_per_round);
    fraction_samples.add(guard_sample_ns * guards_per_round /
                         off.ns_per_round);
  }
  const double guard_ns = guard_samples.median();
  const double off_ns = round_samples.median();
  const double projected_fraction = fraction_samples.median();
  if (off.trace_hash != on.trace_hash || off.delivered != on.delivered) {
    throw std::logic_error(
        "telemetry: recording changed the chatter round loop's traffic");
  }

  out.add_ns_per_op("telemetry_offpath_round_loop", off_ns,
                    {{"nodes", static_cast<double>(config.loop_nodes)},
                     {"messages_per_round", messages_per_round}});
  out.add_ns_per_op("telemetry_on_round_loop", on.ns_per_round,
                    {{"on_off_ratio", on.ns_per_round / off_ns}});
  out.add_ns_per_op("telemetry_guard_probe", guard_ns);
  out.add("overhead_telemetry_offpath",
          {{"projected_fraction", projected_fraction},
           {"budget_fraction", kOverheadBudget},
           {"guards_per_round", guards_per_round},
           {"guard_ns", guard_ns}});

  std::cout << "off-path overhead: guard " << guard_ns << " ns, projected "
            << 100.0 * projected_fraction << "% of the " << off_ns
            << " ns round (budget " << 100.0 * kOverheadBudget << "%); on/off "
            << on.ns_per_round / off_ns << "x\n";

  if (projected_fraction > kOverheadBudget) {
    throw std::logic_error(
        "telemetry: projected off-path guard cost " +
        std::to_string(100.0 * projected_fraction) +
        "% of the round loop exceeds the " +
        std::to_string(100.0 * kOverheadBudget) + "% budget");
  }
}

/// The deterministic guard pair: events/round vs completed-ops/round
/// for the FIXED gate run — machine-free by construction.
void append_guard_pair(bench::JsonReporter& out) {
  const auto spec = base_spec("telemetry_coverage");
  telemetry::Session session;
  const workload::RunResult res = engine_run(spec, 1, &session);
  const double rounds = static_cast<double>(res.rounds_run);
  const double events = static_cast<double>(session.trace().pushed());
  const double completed = static_cast<double>(res.recorder.completed);
  if (events <= 0.0 || completed <= 0.0) {
    throw std::logic_error("telemetry: coverage run recorded nothing");
  }
  const bench::JsonReporter::Fields shape{
      {"n", static_cast<double>(spec.n)},
      {"rounds", rounds},
      {"seed_hi", static_cast<double>(spec.seed >> 32)},
      {"seed_lo", static_cast<double>(spec.seed & 0xffffffffULL)}};
  bench::JsonReporter::Fields cover{
      {"ops_per_sec", events / rounds},
      {"trace_events", events},
      {"dropped", static_cast<double>(session.trace().dropped())}};
  cover.insert(cover.end(), shape.begin(), shape.end());
  bench::JsonReporter::Fields base{{"ops_per_sec", completed / rounds},
                                   {"completed", completed}};
  base.insert(base.end(), shape.begin(), shape.end());
  out.add("telemetry_event_coverage", std::move(cover));
  out.add("telemetry_event_coverage_seed_baseline", std::move(base));
  std::cout << "guard pair: " << events << " trace events over " << rounds
            << " rounds, " << events / completed << " events per completed "
            << "op (deterministic)\n";
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::warn);
  BenchConfig config;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      config.loop_nodes = 256;
      config.loop_rounds = 192;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--fast] [--out DIR]\n";
      return 2;
    }
  }

  bench::banner("bench_telemetry",
                "the telemetry plane observes without participating: "
                "byte-identical traffic with recording on or off, "
                "byte-identical exports at any thread count, and an "
                "off-path guard bounded to a few percent of the round "
                "loop");
  std::cout << "round loop nodes = " << config.loop_nodes << ", rounds = "
            << config.loop_rounds << "\n\n";

  bench::JsonReporter reporter("telemetry");
  reporter.set_meta("hash_kernel", crypto::Sha256::kernel_name());
  try {
    assert_off_path_identity();
    assert_thread_equality();
    append_overhead(reporter, config);
    append_guard_pair(reporter);
  } catch (const std::exception& error) {
    std::cerr << "bench_telemetry FAILED: " << error.what() << "\n";
    return 1;
  }
  reporter.set_meta_number("peak_rss_bytes",
                           static_cast<double>(bench::peak_rss_bytes()));
  return reporter.write(out_dir) ? 0 : 1;
}
