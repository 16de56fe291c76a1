// perfbench — the end-to-end benchmark of the tinygroups pipeline:
// PoW IDs -> string lottery -> dual-search epoch build, and client
// traffic over the resulting groups under faults.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   perfbench --list [--workload NAME]
//
// One process runs one named workload (see README.md for why each
// exists and the layer -> metric -> end-to-end map):
//
//   epoch_turnover  generation -> real SHA-256 puzzles -> build_next
//   string_lottery  late-release schedule -> run_string_protocol
//   kv_chaos        KvService traffic under the chaos fault preset
//
// Every input derives from --seed.  The timed phase runs a fixed
// number of units, ceil(seconds / reference unit time) (at least the
// workload's minimum), so the work done depends only on the seed and
// --seconds and a faster build finishes sooner.  --trace 1 runs half
// the units twice, untraced then traced with a span around every
// library call the benchmark makes, and reports per-layer numbers;
// --trace 0 reports the end-to-end numbers.  Output checks run on
// every unit; the last stdout line is one JSON object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/late_release.hpp"
#include "core/builder.hpp"
#include "fault/fault_plan.hpp"
#include "pow/gossip.hpp"
#include "pow/id_generation.hpp"
#include "pow/puzzle.hpp"
#include "scenario/scenario.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"
#include "workload/engine.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace tg;
using perfbench::Tracer;

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr std::size_t kSetupRepeats = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The tail unit time (percentile rule) is printed with the unit times
// but is not one of these: over ten seeds on a shared 4-core box its
// spread reached 0.26-0.31 on kv_chaos, beyond any bound allowed.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},       {"wall_s", "s"},
    {"unit_ms_p50", "ms"},  {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},  {"success_share", "share"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.initial_s", "s"},
    {"core.build_next_s", "s"},
    {"core.searches", "count"},
    {"core.ns_per_search", "ns"},
    {"core.dual_failures", "count"},
    {"core.bad_groups", "count"},
    {"core.confused_groups", "count"},
    {"core.red_fraction", "share"},
    {"core.memory_bytes", "bytes"},
    {"core.self_s", "s"},
    {"pow.topology_s", "s"},
    {"pow.string_protocol_s", "s"},
    {"pow.forward_events", "count"},
    {"pow.ns_per_forward", "ns"},
    {"pow.steps_run", "count"},
    {"pow.mean_solution_set", "count"},
    {"pow.generation_ms", "ms"},
    {"pow.solve_attempts", "count"},
    {"pow.solve_ns_per_attempt", "ns"},
    {"pow.self_s", "s"},
    {"adversary.late_release_ms", "ms"},
    {"adversary.self_s", "s"},
    {"workload.service_build_ms", "ms"},
    {"workload.run_ms", "ms"},
    {"workload.issued", "count"},
    {"workload.completed", "count"},
    {"workload.failed", "count"},
    {"workload.timed_out", "count"},
    {"workload.retries", "count"},
    {"workload.hedges", "count"},
    {"workload.stale_replies", "count"},
    {"workload.useful_ratio", "share"},
    {"workload.latency_rounds_p50", "rounds"},
    {"workload.latency_rounds_p99", "rounds"},
    {"workload.self_s", "s"},
    {"net.sent", "count"},
    {"net.delivered", "count"},
    {"net.rounds", "count"},
    {"net.ns_per_delivered", "ns"},
    {"net.ns_per_node_round", "ns"},
    {"fault.dropped", "count"},
    {"fault.delayed", "count"},
    {"fault.duplicated", "count"},
    {"overlay.prepare_routing_ms", "ms"},
    {"trace.unattributed_share", "share"},
    {"trace.overhead", "ratio"},
    {"trace.spans", "count"},
};

using Metrics = std::map<std::string, double>;

/// Count and summed duration of the spans of one name.
struct SpanTotal {
  std::size_t count = 0;
  double seconds = 0.0;

  [[nodiscard]] double mean() const {
    return count ? seconds / static_cast<double>(count) : 0.0;
  }
};
using SpanTotals = std::map<std::string, SpanTotal>;

/// The totals of spans named `name`; empty when there were none.
const SpanTotal& span_total(const SpanTotals& totals, const char* name) {
  static const SpanTotal kNone;
  const auto it = totals.find(name);
  return it == totals.end() ? kNone : it->second;
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ULL;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Per-purpose seed: the same (seed, tag, index) always gives the same
/// stream, and no two tags share one.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag,
                     std::uint64_t index) {
  return mix64(mix64(seed ^ mix64(tag)) + index);
}

constexpr std::uint64_t kSetupTag = 1;
constexpr std::uint64_t kUnitTag = 2;
constexpr std::uint64_t kParamsTag = 3;

/// One named workload.  set_up() may run several times; units run in
/// order and depend only on the seed, their index and the state set-up
/// and earlier units left; reset() returns to the state right after
/// set-up and clears the counters, so a second pass repeats the first
/// exactly.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void set_up(Tracer& rec) = 0;
  /// Checks that need a built world but are not timed; false = failed.
  virtual bool self_check() { return true; }
  /// Runs unit i and checks its outputs; false = a check failed.
  virtual bool run_unit(std::size_t i, Tracer& rec) = 0;
  virtual void reset() = 0;
  /// Operations counted by ops_per_s, and the share that succeeded.
  [[nodiscard]] virtual double ops() const = 0;
  [[nodiscard]] virtual double success_share() const = 0;
  virtual void per_layer(Metrics& m, const SpanTotals& spans) const = 0;
  /// Exact determinism fingerprints, printed and compared across passes.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::uint64_t>>
  fingerprints() const = 0;

 protected:
  [[nodiscard]] std::uint64_t setup_seed() const {
    return derive(seed_, kSetupTag, 0);
  }
  [[nodiscard]] std::uint64_t unit_seed(std::size_t i) const {
    return derive(seed_, kUnitTag, i);
  }
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------
// epoch_turnover: n = 2^14, |G| = 29, chord, beta = 0.05.  Each unit
// is one epoch: the ID-generation window, a real SHA-256 puzzle batch,
// and the dual-graph build of the next generation from the current one.

class EpochTurnover final : public Workload {
 public:
  static constexpr std::size_t kN = std::size_t{1} << 14;
  static constexpr std::size_t kMachines = 256;
  static constexpr double kExpectedAttempts = 4096.0;  // ~1M per batch
  /// Per-machine cap: P(a machine fails) = e^-64, never in practice.
  static constexpr std::uint64_t kMaxAttempts = std::uint64_t{1} << 18;
  /// Stated epsilon on the red-group fraction of every built graph
  /// (observed <= 1e-4 at this size).
  static constexpr double kRedEpsilon = 1e-3;

  explicit EpochTurnover(std::uint64_t seed)
      : Workload(seed),
        params_(make_params(seed)),
        builder_(params_),
        oracles_(params_.seed),
        solver_(oracles_.f, oracles_.g),
        tau_(pow::tau_for_expected_attempts(kExpectedAttempts)),
        size_lo_(static_cast<double>(params_.group_min_size())),
        size_hi_(params_.d2 * core::Params::ln_ln(kN)) {}

  void set_up(Tracer& rec) override {
    Rng rng(setup_seed());
    initial_ = rec.call("core.initial", [&] { return builder_.initial(rng); });
    current_ = initial_;
  }

  bool run_unit(std::size_t i, Tracer& rec) override {
    Rng rng(unit_seed(i));
    pow::GenerationConfig gen_cfg;
    gen_cfg.n = kN;
    gen_cfg.beta = params_.beta;
    const pow::GenerationReport gen = rec.call(
        "pow.generation", [&] { return pow::simulate_generation(gen_cfg, rng); });
    const std::uint64_t r = rng();
    const std::vector<pow::Solution> solutions = rec.call("pow.solve", [&] {
      return solver_.solve_batch(r, tau_, kMachines, kMaxAttempts, rng);
    });
    core::BuildStats stats;
    core::EpochGraphs next = rec.call("core.build_next", [&] {
      return builder_.build_next(current_, rng, &stats);
    });

    bool ok = true;
    if (solutions.size() != kMachines) {
      std::cerr << "epoch " << i << ": " << solutions.size() << " of "
                << kMachines << " machines solved\n";
      ok = false;
    }
    for (const pow::Solution& s : solutions) {
      solve_attempts_ += s.attempts;
      hash_ = fnv_mix(hash_, s.id);
      if (!solver_.check(s.sigma, r, tau_)) {
        std::cerr << "epoch " << i << ": invalid puzzle solution\n";
        ok = false;
      }
    }
    hash_ = fnv_mix(fnv_mix(hash_, gen.good_ids), gen.adversary_ids);
    for (const auto* graph : {next.g1.get(), next.g2.get()}) {
      ok = check_graph(*graph, i) && ok;
      hash_ = fnv_mix(hash_, epoch_fingerprint(*graph));
      max_red_ = std::max(max_red_, graph->red_fraction());
    }
    searches_ += stats.membership_requests + stats.neighbor_requests;
    dual_failures_ +=
        stats.membership_dual_failures + stats.neighbor_dual_failures;
    bad_groups_ += stats.bad_groups;
    confused_groups_ += stats.confused_groups;
    memory_bytes_ = next.g1->memory_bytes() + next.g2->memory_bytes();
    current_ = std::move(next);
    return ok;
  }

  void reset() override {
    current_ = initial_;
    searches_ = dual_failures_ = bad_groups_ = confused_groups_ = 0;
    solve_attempts_ = 0;
    memory_bytes_ = 0;
    max_red_ = 0.0;
    hash_ = kFnvBasis;
  }

  [[nodiscard]] double ops() const override {
    return static_cast<double>(searches_);
  }
  [[nodiscard]] double success_share() const override {
    return searches_ ? 1.0 - static_cast<double>(dual_failures_) /
                                 static_cast<double>(searches_)
                     : 0.0;
  }

  void per_layer(Metrics& m, const SpanTotals& spans) const override {
    const SpanTotal& build = span_total(spans, "core.build_next");
    const SpanTotal& solve = span_total(spans, "pow.solve");
    m["core.searches"] = static_cast<double>(searches_);
    m["core.ns_per_search"] =
        searches_ ? build.seconds * 1e9 / static_cast<double>(searches_) : 0;
    m["core.dual_failures"] = static_cast<double>(dual_failures_);
    m["core.bad_groups"] = static_cast<double>(bad_groups_);
    m["core.confused_groups"] = static_cast<double>(confused_groups_);
    m["core.red_fraction"] = max_red_;
    m["core.memory_bytes"] = static_cast<double>(memory_bytes_);
    m["pow.solve_attempts"] = static_cast<double>(solve_attempts_);
    m["pow.solve_ns_per_attempt"] =
        solve_attempts_
            ? solve.seconds * 1e9 / static_cast<double>(solve_attempts_)
            : 0;
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  fingerprints() const override {
    return {{"epoch_hash", hash_},
            {"searches", searches_},
            {"dual_failures", dual_failures_},
            {"solve_attempts", solve_attempts_}};
  }

 private:
  static constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

  static core::Params make_params(std::uint64_t seed) {
    core::Params p;
    p.n = kN;
    p.beta = 0.05;
    p.seed = derive(seed, kParamsTag, 0);
    return p;
  }

  /// Hash of one built graph: every group's leader, members, counters,
  /// confusion and red classification, in group order.
  static std::uint64_t epoch_fingerprint(const core::GroupGraph& graph) {
    std::uint64_t h = kFnvBasis;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      const core::GroupView g = graph.group(i);
      h = fnv_mix(h, g.leader);
      h = fnv_mix(h, g.members.size());
      for (const auto member : g.members) h = fnv_mix(h, member);
      h = fnv_mix(h, g.bad_members);
      h = fnv_mix(h, g.corrupted_slots);
      h = fnv_mix(h, g.rejected_slots);
      h = fnv_mix(h, g.confused ? 1 : 0);
      h = fnv_mix(h, graph.is_red(i) ? 1 : 0);
    }
    return h;
  }

  /// The paper's bounds on one new graph: red fraction within epsilon
  /// and every group's size in [d1 bound, d2 ln ln n].  The library
  /// requests ceil(d1 ln ln n) members and accepts a group down to
  /// Params::group_min_size() (duplicate draws and rejections), so that
  /// is the lower bound checked.
  bool check_graph(const core::GroupGraph& graph, std::size_t unit) const {
    bool ok = true;
    if (graph.red_fraction() > kRedEpsilon) {
      std::cerr << "epoch " << unit << ": red fraction "
                << graph.red_fraction() << " > " << kRedEpsilon << "\n";
      ok = false;
    }
    for (std::size_t g = 0; g < graph.size(); ++g) {
      const auto size = static_cast<double>(graph.group_size(g));
      if (size > size_hi_ || size < size_lo_) {
        std::cerr << "epoch " << unit << ": group " << g << " has size "
                  << size << " outside [" << size_lo_ << ", " << size_hi_
                  << "]\n";
        ok = false;
        break;
      }
    }
    return ok;
  }

  core::Params params_;
  core::EpochBuilder builder_;
  crypto::OracleSuite oracles_;
  pow::PuzzleSolver solver_;
  std::uint64_t tau_;
  double size_lo_;
  double size_hi_;
  core::EpochGraphs initial_;
  core::EpochGraphs current_;

  std::uint64_t searches_ = 0;
  std::uint64_t dual_failures_ = 0;
  std::uint64_t bad_groups_ = 0;
  std::uint64_t confused_groups_ = 0;
  std::uint64_t solve_attempts_ = 0;
  std::size_t memory_bytes_ = 0;
  double max_red_ = 0.0;
  std::uint64_t hash_ = kFnvBasis;
};

// ---------------------------------------------------------------------
// string_lottery: the late_release/tinygroups campaign cell's inputs.
// A 4096-node gossip topology of degree |G| = 27 (set-up), then per
// unit the worst-case late-release schedule and one full three-phase
// lottery with 2^12 phase-1 attempts per node.

class StringLottery final : public Workload {
 public:
  static constexpr std::size_t kN = 4096;
  /// kLateStrings + churn.epochs / 2 of the campaign cell's defaults.
  static constexpr std::size_t kLateStrings = 4 + 4 / 2;

  explicit StringLottery(std::uint64_t seed) : Workload(seed) {
    params_.nodes = kN;
    params_.phase1_attempts = 1 << 12;
    steps_ = static_cast<std::size_t>(std::ceil(
        params_.d_prime * std::log(static_cast<double>(kN))));
  }

  void set_up(Tracer& rec) override {
    core::Params p;
    p.n = kN;
    Rng rng(setup_seed());
    topology_ = rec.call("pow.topology", [&] {
      return pow::make_gossip_topology(kN, p.group_size(), rng);
    });
  }

  bool run_unit(std::size_t i, Tracer& rec) override {
    Rng rng(unit_seed(i));
    const std::vector<pow::LateRelease> attacks =
        rec.call("adversary.late_release", [&] {
          return adversary::worst_case_late_release(
              kLateStrings, kN, steps_, /*honest_minimum_estimate=*/1e-9, rng);
        });
    const pow::GossipOutcome o = rec.call("pow.string_protocol", [&] {
      return pow::run_string_protocol(topology_, params_, attacks, rng);
    });
    ++lotteries_;
    forward_events_ += o.forward_events;
    steps_run_ += o.steps_run;
    solution_set_sum_ += o.mean_solution_set;
    hash_ = fnv_mix(fnv_mix(hash_, o.forward_events), o.max_solution_set);
    hash_ = fnv_mix(hash_, bits_of(o.global_minimum));

    bool ok = true;
    if (!o.agreement) {
      std::cerr << "lottery " << i << ": no agreement under late release\n";
      ok = false;
    } else {
      ++agreed_;
    }
    if (o.steps_run != 2 * steps_) {
      std::cerr << "lottery " << i << ": ran " << o.steps_run
                << " steps, phases 2 + 3 are " << 2 * steps_ << "\n";
      ok = false;
    }
    return ok;
  }

  void reset() override {
    lotteries_ = agreed_ = 0;
    forward_events_ = steps_run_ = 0;
    solution_set_sum_ = 0.0;
    hash_ = 0;
  }

  [[nodiscard]] double ops() const override {
    return static_cast<double>(forward_events_);
  }
  [[nodiscard]] double success_share() const override {
    return lotteries_ ? static_cast<double>(agreed_) /
                            static_cast<double>(lotteries_)
                      : 0.0;
  }

  void per_layer(Metrics& m, const SpanTotals& spans) const override {
    const double seconds = span_total(spans, "pow.string_protocol").seconds;
    m["pow.forward_events"] = static_cast<double>(forward_events_);
    m["pow.ns_per_forward"] =
        forward_events_
            ? seconds * 1e9 / static_cast<double>(forward_events_)
            : 0;
    m["pow.steps_run"] = static_cast<double>(steps_run_);
    m["pow.mean_solution_set"] =
        lotteries_ ? solution_set_sum_ / static_cast<double>(lotteries_) : 0;
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  fingerprints() const override {
    return {{"lottery_hash", hash_},
            {"forward_events", forward_events_},
            {"steps_run", steps_run_}};
  }

 private:
  pow::GossipParams params_;
  std::size_t steps_ = 0;  ///< phase 2 = phase 3 = ceil(d' ln n)
  std::vector<std::vector<std::uint32_t>> topology_;

  std::uint64_t lotteries_ = 0;
  std::uint64_t agreed_ = 0;
  std::uint64_t forward_events_ = 0;
  std::uint64_t steps_run_ = 0;
  double solution_set_sum_ = 0.0;
  std::uint64_t hash_ = 0;
};

// ---------------------------------------------------------------------
// kv_chaos: a tinygroups world at n = 4096 with its routing index warm
// (set-up), then per unit a fresh KvService (50/50 put/get over n/4
// keys) under open-loop traffic at rate 8 for 192 rounds, timeout 16,
// the chaos fault preset and the retry lifecycle.

class KvChaos final : public Workload {
 public:
  static constexpr std::size_t kN = 4096;
  static constexpr std::size_t kRounds = 192;
  /// Network executor width of the timed units.  Fixed at 1: at width
  /// 4 the per-round barrier made unit times on a shared 4-core box
  /// swing by half between runs (other tenants hold cores), which no
  /// run length averages out.
  static constexpr std::size_t kWidth = 1;
  /// Width the self-check compares against: the library promises
  /// identical results at any width.
  static constexpr std::size_t kCheckWidth = 4;

  explicit KvChaos(std::uint64_t seed) : Workload(seed) {}

  void set_up(Tracer& rec) override {
    scenario::ScenarioSpec spec;
    spec.topology = scenario::Topology::tinygroups;
    spec.n = kN;
    Rng rng(setup_seed());
    world_.emplace(rec.call("workload.world_for_trial", [&] {
      return workload::world_for_trial(spec, /*with_adversary=*/false, rng);
    }));
    rec.call("overlay.prepare_routing", [&] { world_->prepare_routing(); });
  }

  /// One unit at the timed width and at kCheckWidth must agree exactly.
  bool self_check() override {
    Tracer off(false);
    const workload::RunResult one = run_traffic(0, kWidth, off);
    const workload::RunResult wide = run_traffic(0, kCheckWidth, off);
    const bool same = same_result(one, wide);
    std::cout << "self-check: unit 0 at width " << kWidth << " vs "
              << kCheckWidth << ": "
              << (same ? "identical" : "DIFFERENT") << " (trace hash "
              << one.trace_hash << ")\n";
    return same;
  }

  bool run_unit(std::size_t i, Tracer& rec) override {
    const workload::RunResult res = run_traffic(i, kWidth, rec);
    const workload::Recorder& r = res.recorder;
    totals_.merge(r);
    sent_ += res.net.sent;
    delivered_ += res.net.delivered;
    rounds_ += res.net.rounds;
    node_rounds_ += res.net.rounds * world_->groups();
    fault_dropped_ += res.net.fault_dropped;
    fault_delayed_ += res.net.fault_delayed;
    fault_duplicated_ += res.net.fault_duplicated;
    hash_ = fnv_mix(hash_, res.trace_hash);
    if (r.finished() != r.issued) {
      std::cerr << "traffic unit " << i << ": completed " << r.completed
                << " + failed " << r.failed << " + timed out " << r.timed_out
                << " != issued " << r.issued << "\n";
      return false;
    }
    return true;
  }

  void reset() override {
    totals_ = {};
    sent_ = delivered_ = rounds_ = node_rounds_ = 0;
    fault_dropped_ = fault_delayed_ = fault_duplicated_ = 0;
    hash_ = 0;
  }

  [[nodiscard]] double ops() const override {
    return static_cast<double>(totals_.completed);
  }
  [[nodiscard]] double success_share() const override {
    return totals_.issued ? static_cast<double>(totals_.completed) /
                                static_cast<double>(totals_.issued)
                          : 0.0;
  }

  void per_layer(Metrics& m, const SpanTotals& spans) const override {
    const double ns = span_total(spans, "workload.run").seconds * 1e9;
    const workload::Recorder& r = totals_;
    m["workload.issued"] = static_cast<double>(r.issued);
    m["workload.completed"] = static_cast<double>(r.completed);
    m["workload.failed"] = static_cast<double>(r.failed);
    m["workload.timed_out"] = static_cast<double>(r.timed_out);
    m["workload.retries"] = static_cast<double>(r.retries);
    m["workload.hedges"] = static_cast<double>(r.hedges);
    m["workload.stale_replies"] = static_cast<double>(r.stale_replies);
    const double attempts =
        static_cast<double>(r.issued + r.retries + r.hedges);
    m["workload.useful_ratio"] =
        attempts > 0 ? static_cast<double>(r.completed) / attempts : 0;
    m["workload.latency_rounds_p50"] = static_cast<double>(r.latency.p50());
    m["workload.latency_rounds_p99"] = static_cast<double>(r.latency.p99());
    m["net.sent"] = static_cast<double>(sent_);
    m["net.delivered"] = static_cast<double>(delivered_);
    m["net.rounds"] = static_cast<double>(rounds_);
    m["net.ns_per_delivered"] =
        delivered_ ? ns / static_cast<double>(delivered_) : 0;
    m["net.ns_per_node_round"] =
        node_rounds_ ? ns / static_cast<double>(node_rounds_) : 0;
    m["fault.dropped"] = static_cast<double>(fault_dropped_);
    m["fault.delayed"] = static_cast<double>(fault_delayed_);
    m["fault.duplicated"] = static_cast<double>(fault_duplicated_);
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  fingerprints() const override {
    return {{"trace_hash", hash_},
            {"issued", totals_.issued},
            {"completed", totals_.completed},
            {"timed_out", totals_.timed_out},
            {"delivered", delivered_}};
  }

 private:
  workload::RunResult run_traffic(std::size_t i, std::size_t width,
                                  Tracer& rec) const {
    Rng rng(unit_seed(i));
    workload::KvService service = rec.call("workload.service_build", [&] {
      return workload::KvService(*world_, kN / 4, rng(), 0.5);
    });
    workload::Spec spec;
    spec.mode = workload::Mode::open_loop;
    spec.rate = 8.0;
    spec.rounds = kRounds;
    spec.timeout_rounds = 16;
    spec.retry.enabled = true;
    const auto plan = fault::fault_preset("chaos", world_->groups(), kRounds, rng());
    if (!plan) throw std::logic_error("fault preset 'chaos' is missing");
    spec.faults = *plan;
    const std::uint64_t run_seed = rng();
    return rec.call("workload.run", [&] {
      return workload::run(service, spec, run_seed, width);
    });
  }

  static bool same_result(const workload::RunResult& a,
                          const workload::RunResult& b) {
    const workload::Recorder& x = a.recorder;
    const workload::Recorder& y = b.recorder;
    bool same = a.trace_hash == b.trace_hash && a.rounds_run == b.rounds_run &&
                x.issued == y.issued && x.completed == y.completed &&
                x.failed == y.failed && x.timed_out == y.timed_out &&
                x.rounds == y.rounds && x.wire_messages == y.wire_messages &&
                x.analytic_messages == y.analytic_messages &&
                x.retries == y.retries && x.hedges == y.hedges &&
                x.stale_replies == y.stale_replies &&
                a.net.sent == b.net.sent && a.net.delivered == b.net.delivered &&
                a.net.fault_dropped == b.net.fault_dropped &&
                a.net.fault_delayed == b.net.fault_delayed &&
                a.net.fault_duplicated == b.net.fault_duplicated;
    for (std::size_t k = 0; same && k < workload::LatencyHistogram::kBuckets;
         ++k) {
      same = x.latency.bucket_count(k) == y.latency.bucket_count(k);
    }
    return same;
  }

  std::optional<workload::World> world_;

  workload::Recorder totals_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t node_rounds_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t fault_delayed_ = 0;
  std::uint64_t fault_duplicated_ = 0;
  std::uint64_t hash_ = 0;
};

// ---------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  const char* why;
  /// Seconds one unit takes on the reference machine (4-core x86-64,
  /// Release build): sets the unit count, not a pass/fail limit.
  double reference_unit_s;
  std::size_t min_units;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

template <class W>
std::unique_ptr<Workload> make_workload(std::uint64_t seed) {
  return std::make_unique<W>(seed);
}

const std::vector<WorkloadDef> kWorkloads = {
    {"epoch_turnover",
     "PoW IDs then the dual-search epoch build at n=2^14; core does ~97% of "
     "the work, gossip, net and workload are not touched",
     2.0, 2, make_workload<EpochTurnover>},
    {"string_lottery",
     "the late_release/tinygroups lottery at n=4096; run_string_protocol is "
     "~99% of the unit and the campaign's hot spot",
     11.0, 4, make_workload<StringLottery>},
    {"kv_chaos",
     "KvService traffic at n=4096 under the chaos fault preset with retries; "
     "net, fault, request lifecycle and route_many do the work",
     0.10, 100, make_workload<KvChaos>},
};

std::size_t units_for(const WorkloadDef& w, double seconds) {
  const auto n = static_cast<std::size_t>(
      std::ceil(seconds / w.reference_unit_s - 1e-9));
  return std::max(w.min_units, n);
}

struct Pass {
  std::vector<double> unit_ms;
  double wall_s = 0.0;
  std::size_t failed = 0;
};

Pass run_pass(Workload& wl, std::size_t units, Tracer& rec) {
  Pass pass;
  Stopwatch wall;
  for (std::size_t i = 0; i < units; ++i) {
    Stopwatch sw;
    rec.open_root("unit", i + 1);
    const bool ok = wl.run_unit(i, rec);
    rec.close_root();
    pass.unit_ms.push_back(sw.millis());
    if (!ok) ++pass.failed;
  }
  pass.wall_s = wall.seconds();
  return pass;
}

/// Span totals by name, over set-up spans ("setup" roots and their
/// children) and timed spans separately; the key is the span name.
void total_spans(const std::vector<perfbench::Span>& spans,
                 SpanTotals& setup, SpanTotals& timed,
                 std::map<std::string, double>& layer_self) {
  const std::vector<double> self = perfbench::self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    if (s.parent == 0) continue;  // roots: setup / unit
    SpanTotal& t = (s.unit == 0 ? setup : timed)[s.name];
    ++t.count;
    t.seconds += s.end - s.start;
    if (s.unit != 0) layer_self[perfbench::layer_of(s.name)] += self[i];
  }
}

void print_list(const std::string& filter) {
  std::cout << "workloads:\n";
  for (const WorkloadDef& w : kWorkloads) {
    if (!filter.empty() && filter != w.name) continue;
    std::cout << "  " << w.name << "  (" << w.min_units
              << "+ units, ~" << w.reference_unit_s << " s each)\n    "
              << w.why << "\n";
  }
  std::cout << "end-to-end metrics (--trace 0):\n";
  for (const MetricDef& m : kEndToEnd) {
    std::cout << "  " << m.name << " [" << m.unit << "]\n";
  }
  std::cout << "per-layer metrics (--trace 1):\n";
  for (const MetricDef& m : kPerLayer) {
    std::cout << "  " << m.name << " [" << m.unit << "]\n";
  }
}

std::string json_result(bool correct, std::size_t attempted,
                        std::size_t failed, const Metrics& values,
                        const std::vector<MetricDef>& defs) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    std::snprintf(buf, sizeof buf, "%.17g",
                  it == values.end() ? 0.0 : it->second);
    out += i == 0 ? "\"" : ", \"";
    out += defs[i].name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += defs[i].unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       perfbench --list [--workload NAME]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      o.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (opt.workload == w.name) def = &w;
  }
  if (opt.list) {
    if (!opt.workload.empty() && def == nullptr) usage("unknown workload");
    print_list(opt.workload);
    return 0;
  }
  if (def == nullptr) usage("unknown or missing --workload");

  const std::unique_ptr<Workload> wl = def->make(opt.seed);
  Tracer rec(opt.trace);
  Tracer untraced(false);

  std::vector<double> setup_s;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    Stopwatch sw;
    rec.open_root("setup", 0);
    wl->set_up(rec);
    rec.close_root();
    setup_s.push_back(sw.seconds());
  }
  bool correct = wl->self_check();

  // --trace 1 splits the units over an untraced and a traced pass of
  // the same units; their wall-time ratio is the tracing overhead.
  const std::size_t full = units_for(*def, opt.seconds);
  const std::size_t units = opt.trace ? (full + 1) / 2 : full;
  const Pass plain = run_pass(*wl, units, untraced);
  const auto plain_prints = wl->fingerprints();
  std::size_t attempted = units;
  std::size_t failed = plain.failed;
  Pass traced;
  if (opt.trace) {
    wl->reset();
    traced = run_pass(*wl, units, rec);
    attempted += units;
    failed += traced.failed;
    if (wl->fingerprints() != plain_prints) {
      std::cerr << "traced pass diverged from the untraced pass\n";
      correct = false;
    }
  }
  correct = correct && failed == 0;

  const double tail_pct = perfbench::tail_percentile(units);
  std::cout << "workload " << def->name << "  seed " << opt.seed << "  units "
            << units << (opt.trace ? " per pass (untraced + traced)" : "")
            << "\n  unit ms: p50 " << perfbench::percentile(plain.unit_ms, 50)
            << ", tail p" << tail_pct << " "
            << perfbench::percentile(plain.unit_ms, tail_pct) << " (of "
            << units << " samples)\n";
  if (units <= 20) {
    std::cout << "  each unit ms:";
    for (const double ms : plain.unit_ms) std::cout << " " << ms;
    std::cout << "\n";
  }
  for (const auto& [name, value] : wl->fingerprints()) {
    std::cout << "  fingerprint " << name << " = " << value << "\n";
  }

  Metrics shown;
  if (!opt.trace) {
    shown["setup_s"] = perfbench::percentile(setup_s, 50);
    shown["wall_s"] = plain.wall_s;
    shown["unit_ms_p50"] = perfbench::percentile(plain.unit_ms, 50);
    shown["ops_per_s"] = wl->ops() / plain.wall_s;
    shown["peak_rss_mb"] =
        static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
    shown["success_share"] = wl->success_share();
  } else {
    SpanTotals setup_spans;
    SpanTotals timed_spans;
    std::map<std::string, double> layer_self;
    total_spans(rec.spans(), setup_spans, timed_spans, layer_self);
    const auto mean = [](const SpanTotals& t, const char* name) {
      return span_total(t, name).mean();
    };
    shown["core.initial_s"] = mean(setup_spans, "core.initial");
    shown["core.build_next_s"] = mean(timed_spans, "core.build_next");
    shown["pow.topology_s"] = mean(setup_spans, "pow.topology");
    shown["pow.string_protocol_s"] = mean(timed_spans, "pow.string_protocol");
    shown["pow.generation_ms"] = 1e3 * mean(timed_spans, "pow.generation");
    shown["adversary.late_release_ms"] =
        1e3 * mean(timed_spans, "adversary.late_release");
    shown["workload.service_build_ms"] =
        1e3 * mean(timed_spans, "workload.service_build");
    shown["workload.run_ms"] = 1e3 * mean(timed_spans, "workload.run");
    shown["overlay.prepare_routing_ms"] =
        1e3 * mean(setup_spans, "overlay.prepare_routing");
    for (const auto& [name, seconds] : layer_self) {
      shown[name + ".self_s"] = seconds / static_cast<double>(units);
    }
    wl->per_layer(shown, timed_spans);
    shown["trace.unattributed_share"] =
        perfbench::unattributed_share(rec.spans());
    shown["trace.overhead"] = traced.wall_s / plain.wall_s;
    shown["trace.spans"] = static_cast<double>(rec.spans().size());

    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      out << perfbench::chrome_trace_json(rec.spans());
      if (!out) {
        std::cerr << "cannot write trace to " << opt.trace_out << "\n";
        correct = false;
      }
    }
  }

  const std::vector<MetricDef>& defs = opt.trace ? kPerLayer : kEndToEnd;
  for (const MetricDef& m : defs) {
    const auto it = shown.find(m.name);
    std::printf("  %-28s %18.6g %s\n", m.name,
                it == shown.end() ? 0.0 : it->second, m.unit);
  }
  std::cout << json_result(correct, attempted, failed, shown, defs)
            << std::endl;
  return correct ? 0 : 1;
}
