// The message-passing runtime: rounds, delivery policy, and a
// deterministic parallel executor.
//
// The simulator elsewhere in this repository counts messages
// analytically; this module EXECUTES protocols — real inboxes, real
// handler code, real threads — which is where a deployment of the
// paper would spend its engineering budget (the repro cost the
// calibration notes flag as "networking/concurrency boilerplate").
//
// Execution model: synchronous rounds (matching the paper's model,
// Section I-C).  Per round the runtime
//   1. releases the messages whose delay expires into their inboxes,
//   2. drains every inbox in node order (the delivery order and the
//      trace hash are fixed here),
//   3. runs every node's handlers — in parallel across nodes on the
//      process-wide persistent thread pool, since a handler only
//      touches its own node's state and its Context outbox (chunked
//      dynamically, merged in node order afterwards: identical
//      results at any thread count and any chunk schedule),
//   4. routes the merged outboxes in node order — delivery policy
//      (drop, bounded delay, Byzantine source corruption) with a
//      deterministic RNG, then the fault plane — into the inboxes
//      for the next round.
//
// Inboxes are plain per-node vectors with no lock: every push happens
// in a sequential routing pass (route_outbox, delayed release,
// flush_reordered, inject) and every drain in the sequential drain
// loop, never while handlers run.
//
// Determinism is load-bearing: tests assert byte-identical traces
// between 1-thread and N-thread executions, which is what makes the
// concurrent runtime trustworthy as an experimental instrument.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/node.hpp"
#include "net/words.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tg::telemetry {
class Session;
}

namespace tg::net {

/// Per-message delivery fate, decided by the policy RNG.
struct DeliveryPolicy {
  double drop_prob = 0.0;
  /// Uniform extra delay in [0, max_delay_rounds] rounds.
  std::size_t max_delay_rounds = 0;
  /// Messages FROM these nodes have the low bit of every payload word
  /// flipped (the Byzantine channel model: the adversary owns its
  /// members' links).
  std::vector<std::uint8_t> byzantine;  // indexed by NodeId; may be empty
};

/// What the fault plane does to one routed message.  The default
/// (all-zero) decision is exactly "deliver normally": an injector that
/// always returns `{}` is indistinguishable from no injector at all.
struct FaultDecision {
  bool drop = false;
  /// Extra delivery delay in rounds (additive with any policy delay).
  std::uint32_t delay_rounds = 0;
  /// Extra copies delivered alongside the original.
  std::uint32_t duplicates = 0;
  /// Hold the message and re-deliver it after all in-order traffic of
  /// this routing pass, in reverse hold order (a deterministic
  /// within-round reordering).  Ignored when the message is delayed.
  bool reorder = false;
};

/// The runtime seam the fault plane plugs into (see src/fault/).
///
/// Contract: `decide` must be a PURE function of its arguments — the
/// network calls it from the sequential routing pass with `msg_seq`, a
/// per-network counter of routed messages, so decisions are keyed by
/// (round, message id) and never by thread schedule.  Determinism at
/// any executor width follows from purity; implementations must not
/// keep mutable state across calls.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  [[nodiscard]] virtual FaultDecision decide(std::uint64_t round, NodeId src,
                                             NodeId dst,
                                             std::uint64_t msg_seq) const = 0;
};

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t rounds = 0;
  /// Fault-plane verdicts (zero unless an injector is attached).
  std::uint64_t fault_dropped = 0;
  std::uint64_t fault_delayed = 0;
  std::uint64_t fault_duplicated = 0;
  std::uint64_t fault_reordered = 0;
};

class Network {
 public:
  /// `threads` is the executor width; 1 = sequential.  Determinism
  /// holds for ANY width given the same seed.
  explicit Network(DeliveryPolicy policy, std::uint64_t seed,
                   std::size_t threads = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register a node; returns its id.  All nodes must be added before
  /// the first run call.
  NodeId add_node(std::unique_ptr<Node> node);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }

  /// Inject a message from outside the node set (test harness, client).
  void inject(Message m);

  /// Run on_start for every node and route the resulting sends.
  void start();

  /// Execute one synchronous round; returns the number of messages
  /// delivered (0 = quiescent, if also no delayed messages remain).
  std::size_t run_round();

  /// Run rounds until quiescence or `max_rounds`; returns rounds run.
  std::size_t run_until_quiescent(std::size_t max_rounds = 1024);

  /// FNV-1a hash over every delivered message in delivery order —
  /// the determinism fingerprint used by tests.
  [[nodiscard]] std::uint64_t trace_hash() const noexcept {
    return trace_hash_;
  }

  /// The payload spill pool (hit/miss/retention counters for tests and
  /// the round-loop bench's steady-state-allocation assertion).
  [[nodiscard]] const WordArena& payload_arena() const noexcept {
    return arena_;
  }

  /// Attach (or detach, with nullptr) the fault plane.  The injector
  /// is not owned and must outlive the network.  With no injector the
  /// routing path is byte-identical to a build without the seam; the
  /// injector is consulted once per routed message, after Byzantine
  /// corruption and the delivery policy's own drop/delay draws.
  /// `inject()` bypasses the fault plane (harness traffic is exempt).
  void set_fault_injector(const FaultInjector* injector) noexcept {
    fault_ = injector;
  }
  [[nodiscard]] const FaultInjector* fault_injector() const noexcept {
    return fault_;
  }

 private:
  /// Route every message out of `outbox` (delivery policy, inbox
  /// push or delay scheduling), then clear it with capacity kept.
  void route_outbox(std::vector<Message>& outbox);
  /// Release reorder-held messages (reverse hold order) into their
  /// inboxes.  Called after every full routing pass so held traffic
  /// still lands in the same round's inboxes, merely out of order.
  void flush_reordered();
  void absorb_trace(const Message& m) noexcept;
  /// End-of-round telemetry flush (only called with a session active):
  /// publishes this round's stats/arena deltas as counters, samples
  /// the delivery histogram, and emits the per-round counter event.
  /// Runs at a sequential point, after the outbox merge.
  void telem_flush_round(telemetry::Session& session, std::size_t delivered);

  DeliveryPolicy policy_;
  Rng policy_rng_;
  std::size_t threads_;  ///< executor width cap on the global pool
  /// Spill-block pool for message payloads.  Declared before every
  /// container that can hold Messages (nodes, inboxes, scratch,
  /// delayed slots): members destroy in reverse order, so all
  /// arena-backed payloads release their blocks before the arena dies.
  WordArena arena_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Per-node inboxes: messages routed for delivery next round.
  std::vector<std::vector<Message>> inboxes_;
  /// Recycled per-round scratch: deliveries_ swaps with the inboxes,
  /// outboxes_ round-trips through the node Contexts, so a warmed-up
  /// round loop performs no per-round container allocation.
  std::vector<std::vector<Message>> deliveries_;
  std::vector<std::vector<Message>> outboxes_;
  /// Messages scheduled for future rounds: slot = round index.
  std::vector<std::vector<Message>> delayed_;
  /// Reorder-held messages of the current routing pass.
  std::vector<Message> reordered_;
  /// Unowned fault plane; nullptr = pristine delivery path.
  const FaultInjector* fault_ = nullptr;
  /// Routed-message counter: the (round, msg_seq) key of fault draws.
  std::uint64_t fault_seq_ = 0;
  NetworkStats stats_;
  /// Snapshots of the counters already published to telemetry, so each
  /// round reports deltas (start()'s traffic folds into round 1).
  NetworkStats telem_prev_stats_;
  WordArena::Stats telem_prev_arena_;
  std::uint64_t round_ = 0;
  std::uint64_t trace_hash_ = 1469598103934665603ULL;  // FNV offset
  bool started_ = false;
};

}  // namespace tg::net
