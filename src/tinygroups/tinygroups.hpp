// Umbrella header: the full public API of the tinygroups library.
//
// Reproduction of "Tiny Groups Tackle Byzantine Adversaries"
// (Jaiyeola, Patron, Saia, Young, Zhou — IPDPS 2018).
#pragma once

// Utilities
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

// Cryptographic substrate (random oracles, PoW proofs)
#include "crypto/commitment.hpp"
#include "crypto/hex.hpp"
#include "crypto/oracle.hpp"
#include "crypto/sha256.hpp"

// ID space [0,1)
#include "idspace/interval.hpp"
#include "idspace/placement.hpp"
#include "idspace/ring_point.hpp"
#include "idspace/ring_table.hpp"

// Input graphs H (P1-P4)
#include "overlay/chord.hpp"
#include "overlay/chordpp.hpp"
#include "overlay/debruijn.hpp"
#include "overlay/distance_halving.hpp"
#include "overlay/input_graph.hpp"
#include "overlay/kautz.hpp"
#include "overlay/properties.hpp"
#include "overlay/registry.hpp"
#include "overlay/routing_index.hpp"
#include "overlay/tapestry.hpp"
#include "overlay/viceroy.hpp"

// Simulation scaffolding
#include "sim/clock.hpp"
#include "sim/latency.hpp"
#include "sim/metrics.hpp"
#include "sim/trial_runner.hpp"

// Scenario campaign engine (adversary x topology x churn matrix)
#include "scenario/campaign.hpp"
#include "scenario/scenario.hpp"

// Fault plane (deterministic message-level fault injection)
#include "fault/fault_plan.hpp"

// Telemetry plane (deterministic metrics + causal op tracing)
#include "telemetry/histogram.hpp"
#include "telemetry/telemetry.hpp"

// Workload engine (deterministic client traffic over the overlay)
#include "workload/engine.hpp"
#include "workload/histogram.hpp"
#include "workload/service.hpp"
#include "workload/traffic.hpp"

// Majority filtering of all-to-all transfers (Section I)
#include "bft/majority_filter.hpp"

// The paper's contribution: tiny group graphs
#include "core/bootstrap.hpp"
#include "core/builder.hpp"
#include "core/churn.hpp"
#include "core/epoch_manager.hpp"
#include "core/group.hpp"
#include "core/group_graph.hpp"
#include "core/initialization.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "core/quarantine.hpp"
#include "core/robustness.hpp"
#include "core/search.hpp"
#include "core/self_heal.hpp"
#include "core/storage.hpp"

// Message-passing runtime (actors, delivery policy, Fig. 1 relay)
#include "net/message.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/relay.hpp"
#include "net/words.hpp"

// Proof-of-work ID machinery
#include "pow/epoch_string.hpp"
#include "pow/gossip.hpp"
#include "pow/id_generation.hpp"
#include "pow/puzzle.hpp"
#include "pow/verification.hpp"

// Adversary strategies
#include "adversary/adaptive.hpp"
#include "adversary/adversary.hpp"
#include "adversary/eclipse.hpp"
#include "adversary/flood.hpp"
#include "adversary/late_release.hpp"
#include "adversary/omit_ids.hpp"
#include "adversary/precompute.hpp"
#include "adversary/redirect.hpp"
#include "adversary/target_group.hpp"

// Baselines
#include "baseline/commensal_cuckoo.hpp"
#include "baseline/cuckoo.hpp"
#include "baseline/logn_groups.hpp"
#include "baseline/single_graph.hpp"
