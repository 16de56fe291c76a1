// The load-generation engine: deterministic open/closed-loop client
// traffic executed over the message runtime.
//
// Every op is REAL net::Network traffic: a request message hops
// group-to-group along the overlay route toward the key's responsible
// group (one node per group — the group's collective actor), which
// executes the op against the service's per-group state and replies
// to the issuing client node.  Red groups on the route silently drop
// the request (the Section II search semantics: the search dies at
// the first red group), so the client times out; a red RESPONSIBLE
// group serves garbage, which the harness flags as a corrupted reply.
// Every op, in either mode, runs through one request lifecycle (see
// RetryPolicy); a client that never retries is one allowed a single
// attempt.
//
// Two generation modes, both driven entirely by the run seed:
//   * OPEN LOOP — a deterministic arrival schedule (fixed-rate via an
//     integer-emitting accumulator, optional bursty phases) issues
//     ops regardless of completions: the mode that exposes queueing
//     collapse under overload.
//   * CLOSED LOOP — N concurrent clients, each issue -> wait ->
//     think -> reissue: the mode that models interactive users.
//
// Determinism contract: (service spec, engine spec, seed) fully
// determine every op outcome, the network trace hash, and every
// histogram bucket — at ANY executor thread count.  Client state is
// per-node (the runtime's actor discipline), recorders merge in node
// order, and histogram counts are integers, so tests assert
// bit-identical percentiles between 1-thread and N-thread runs.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "workload/histogram.hpp"
#include "workload/service.hpp"

namespace tg::workload {

enum class Mode {
  open_loop,
  closed_loop,
};

[[nodiscard]] std::string_view to_string(Mode mode) noexcept;

/// How many attempts the request lifecycle gives each op.  Every op
/// runs through one ledger: the op id stays stable across attempts,
/// the first reply settles the op, and every later (duplicate, hedged,
/// post-timeout) reply is counted stale and dropped without touching
/// the histogram.  Disabled (the default), an op gets one attempt and
/// no hedge: it times out after `Spec::timeout_rounds`.  Enabled, an
/// op gets a deadline of 4 x Spec::timeout_rounds, retries with
/// exponential backoff (2 << (k - 1) rounds before attempt k + 1)
/// through an alternate entry group — the best of 4 candidates at
/// avoiding hop groups its earlier timeouts implicated — and an
/// optional hedged second attempt after a p99-derived delay.
struct RetryPolicy {
  bool enabled = false;
  /// Total send attempts per op, the first included (when enabled).
  std::size_t max_attempts = 4;
  /// Launch a hedged second attempt if no reply after hedge_delay.
  bool hedge = false;
  /// 0 = derive per issue from the issuer's own p99 (bootstrap: half
  /// the timeout until 8 latencies are recorded).
  std::size_t hedge_delay_rounds = 0;
};

/// A scripted change of adversary posture at a round boundary (the
/// adaptive adversary's campaign compiles into these plus a
/// fault::FaultPlan).  Phases are sorted by start_round; each applies
/// until the next begins.  An empty phase list preserves the scalar
/// eclipsed_fraction / background_rate knobs exactly.
struct AttackPhase {
  std::uint64_t start_round = 0;
  double eclipsed_fraction = 0.0;
  double background_rate = 0.0;
};

struct Spec {
  Mode mode = Mode::open_loop;
  /// Rounds of traffic generation; the run then drains in-flight ops
  /// (every op resolves: reply or timeout).
  std::size_t rounds = 256;
  /// Rounds an attempt waits for its reply; must be >= 1 (run()
  /// throws std::invalid_argument on 0).
  std::size_t timeout_rounds = 48;

  // Open loop.
  double rate = 4.0;  ///< mean arrivals per round
  /// Bursty phases: every `burst_every` rounds the first `burst_rounds`
  /// run at rate * burst_multiplier (0 = steady rate).
  std::size_t burst_every = 0;
  std::size_t burst_rounds = 0;
  double burst_multiplier = 4.0;

  // Closed loop.
  std::size_t clients = 8;
  std::size_t think_rounds = 2;

  // Adversary-facing knobs (set by the scenario bridge).
  /// Fraction of ops whose start group is steered to the bad-heaviest
  /// group (the eclipse attack observed from the service side).
  double eclipsed_fraction = 0.0;
  /// Bogus background requests per round that consume service and
  /// network capacity but are never recorded (the flood attack).
  double background_rate = 0.0;

  /// The deterministic fault plane for this run and the only source
  /// of message hazards (empty = pristine delivery; the injector seam
  /// is then never attached and traffic is byte-identical to a
  /// fault-free build).  A zero plan seed is replaced with a run-seed
  /// derivation.
  fault::FaultPlan faults;
  /// The request lifecycle's attempt policy (see RetryPolicy).
  RetryPolicy retry;
  /// Scripted adversary posture changes (see AttackPhase).
  std::vector<AttackPhase> phases;
  /// Record per-delivery-round completion counts into
  /// RunResult::completed_by_round (recovery-time measurement).
  bool track_round_goodput = false;

  /// Synthetic certificate words padding every request/reply (above
  /// net::Words::kInlineCapacity the traffic exercises the payload
  /// arena — what bench_workload's arena guard pair measures).
  std::size_t padding_words = 4;
};

struct RunResult {
  Recorder recorder;
  net::NetworkStats net;
  std::uint64_t trace_hash = 0;  ///< runtime determinism fingerprint
  std::uint64_t rounds_run = 0;  ///< generation + drain
  double seconds = 0.0;          ///< wall clock (perf reporting only)
  /// Completed ops per delivery round (empty unless
  /// Spec::track_round_goodput): the recovery trajectory.
  std::vector<std::uint64_t> completed_by_round;
};

/// Drive `spec` traffic for `service` over its world.  The service
/// must be freshly built per run (its per-group state mutates).
/// `threads` is the network executor width; results are identical for
/// any value.
[[nodiscard]] RunResult run(Service& service, const Spec& spec,
                            std::uint64_t seed, std::size_t threads = 1);

}  // namespace tg::workload
