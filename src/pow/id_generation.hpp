// Epoch-level ID generation (Section IV-A, Lemma 11).
//
// Starting at step T/2, every good machine solves the ID puzzle for
// the next epoch; tau is set so that w.h.p. a machine needs
// (1 +- eps) T/2 steps.  The adversary holds a beta fraction of total
// computational power and spends it all on puzzles; Lemma 11 bounds
// its haul at (1 + eps) beta n IDs, u.a.r. on the ring.
//
// Concentration note: the paper ASSUMES solve times concentrate
// ("tau is set small enough such that w.h.p. (1±eps)T/2 steps are
// required").  A single hash-threshold puzzle cannot provide that —
// its solve time is geometric, hence memoryless, and half of all
// machines would finish early at ANY scale.  We realize the paper's
// assumption with the standard mechanism: PUZZLE COMPOSITION.  An ID
// requires K sub-solutions (each of difficulty tau' targeting T/(2K)
// steps), so a good machine's solve time is Erlang(K) with relative
// deviation 1/sqrt(K), and the adversary's ID count over the window
// has relative deviation 1/sqrt(K beta n) — both inside the (1+eps)
// slack for K = 100, eps = 0.3.  Documented in
// docs/DEVIATIONS.md#id-generation-slack.
//
// The simulation measures exactly the lemma's two claims: the COUNT
// of adversarial IDs per window and their DISTRIBUTION (KS-tested in
// tests/test_pow.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "idspace/ring_point.hpp"
#include "pow/puzzle.hpp"
#include "util/rng.hpp"

namespace tg::pow {

struct GenerationConfig {
  std::size_t n = 4096;              ///< machines in the system
  double beta = 0.05;                ///< adversary's compute fraction
  std::uint64_t half_epoch_steps = 1 << 14;  ///< T/2
  std::uint64_t attempts_per_step = 16;      ///< kappa: hash rate per machine
  /// Window/count slack eps of Lemma 11; must dominate the 3/sqrt(K)
  /// relative deviation of Erlang(K) solve times.
  double eps = 0.3;
  /// K: sub-puzzles composed per ID (see concentration note above).
  std::uint64_t sub_puzzles = 100;
};

struct GenerationReport {
  std::size_t good_ids = 0;
  std::size_t adversary_ids = 0;
  /// Lemma 11 bound (1+eps) * beta * n for the measured window.
  double adversary_bound = 0.0;
  bool within_bound = false;
  /// Adversarial ID positions for distribution testing.
  std::vector<double> adversary_positions;
  std::uint64_t tau = 0;
};

/// tau calibrated so a good machine expects to solve in T/2 steps.
[[nodiscard]] std::uint64_t calibrate_tau(const GenerationConfig& cfg) noexcept;

/// One generation window via the sampling oracle (fleet scale).
[[nodiscard]] GenerationReport simulate_generation(const GenerationConfig& cfg,
                                                   Rng& rng);

/// Small-scale generation through real SHA-256 puzzles; `machines`
/// good solvers each running to completion.  Exercises the PuzzleSolver
/// path end-to-end (used by tests and the quickstart example).
[[nodiscard]] std::vector<Solution> solve_real_batch(
    const crypto::OracleSuite& oracles, std::size_t machines, std::uint64_t r,
    std::uint64_t tau, std::uint64_t max_attempts_per_machine, Rng& rng);

}  // namespace tg::pow
