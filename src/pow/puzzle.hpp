// Computational puzzles for ID generation (Section IV-A).
//
// To generate an ID, a participant picks random sigma and checks
//   g(sigma XOR r) <= tau,
// where r is the epoch's globally-known random string; on success the
// ID is f(g(sigma XOR r)).  Composing f after g is what forces even
// adversarially-chosen sigma to yield u.a.r. IDs ("Why Use Two Hash
// Functions?").
//
// Two evaluation paths are provided:
//  * PuzzleSolver — real SHA-256 evaluations through the oracles; used
//    by tests, examples and small benches.
//  * PuzzleOracle — the statistically exact sampling substitute for
//    fleet-scale benches: the number of solutions in A attempts is
//    Binomial(A, tau/2^64) and each solution's ID is u.a.r. (because f
//    is a random oracle).  docs/DEVIATIONS.md#pow-random-oracle
//    documents this substitution.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/oracle.hpp"
#include "idspace/ring_point.hpp"
#include "util/rng.hpp"

namespace tg::pow {

/// Threshold such that one solution is expected per `expected_attempts`
/// hash evaluations.
[[nodiscard]] std::uint64_t tau_for_expected_attempts(
    double expected_attempts) noexcept;

/// Success probability per attempt implied by tau.
[[nodiscard]] double attempt_success_probability(std::uint64_t tau) noexcept;

struct Solution {
  std::uint64_t sigma = 0;     ///< the secret witness
  std::uint64_t g_output = 0;  ///< g(sigma xor r) — must be <= tau
  std::uint64_t id = 0;        ///< f(g(sigma xor r)), the ID in [0,1)
  std::uint64_t attempts = 0;  ///< hash evaluations spent
};

class PuzzleSolver {
 public:
  /// Oracles f and g from the suite (Section IV-A's two hash functions).
  PuzzleSolver(const crypto::RandomOracle& f, const crypto::RandomOracle& g)
      : f_(&f), g_(&g) {}

  /// Attempt up to `max_attempts` random sigma values against epoch
  /// string (tag) `r`.  Returns the first solution found.
  [[nodiscard]] std::optional<Solution> solve(std::uint64_t r,
                                              std::uint64_t tau,
                                              std::uint64_t max_attempts,
                                              Rng& rng) const;

  /// Batched solving: `machines` independent solvers, each drawing from
  /// an rng forked from `rng`.  Up to Sha256::kMaxLanes machines run
  /// interleaved, their per-step g evaluations hashed together through
  /// the multi-lane SHA-256 engine (retired machines hand their lane
  /// to the next pending one; ragged groups fall back to narrower
  /// tiers / scalar) — no per-attempt allocation or context setup.
  /// Results are byte-identical to calling solve() once per forked rng
  /// under every dispatch combination; machines that exhaust
  /// max_attempts produce no entry.
  [[nodiscard]] std::vector<Solution> solve_batch(std::uint64_t r,
                                                  std::uint64_t tau,
                                                  std::size_t machines,
                                                  std::uint64_t max_attempts,
                                                  Rng& rng) const;

  /// Evaluate one specific sigma (used by verification tests and by
  /// the chosen-input adversary).
  [[nodiscard]] Solution evaluate(std::uint64_t sigma, std::uint64_t r) const;

  /// Is (sigma, r) a valid puzzle solution under tau?
  [[nodiscard]] bool check(std::uint64_t sigma, std::uint64_t r,
                           std::uint64_t tau) const;

 private:
  const crypto::RandomOracle* f_;
  const crypto::RandomOracle* g_;
};

/// Sampling substitute: statistically exact solution counts and ID
/// distribution without per-attempt hashing.
class PuzzleOracle {
 public:
  /// Number of solutions found in `attempts` evaluations under tau.
  [[nodiscard]] static std::uint64_t solution_count(std::uint64_t attempts,
                                                    std::uint64_t tau,
                                                    Rng& rng);

  /// Draw that many u.a.r. IDs (what f produces on fresh inputs).
  [[nodiscard]] static std::vector<ids::RingPoint> draw_ids(std::uint64_t count,
                                                            Rng& rng);
};

}  // namespace tg::pow
