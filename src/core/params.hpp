// System parameters (the paper's constants d1, d2, beta, delta, k, ...).
//
// All of the paper's guarantees are asymptotic with tunable constants;
// this struct pins concrete defaults calibrated so that the claimed
// shapes are visible at simulable scales (n up to ~2^20).  See
// docs/DEVIATIONS.md#parameter-calibration for the rationale.
#pragma once

#include <cstddef>
#include <cstdint>

#include "overlay/registry.hpp"

namespace tg::core {

struct Params {
  /// Number of IDs n (one group per ID).
  std::size_t n = std::size_t{1} << 12;

  /// Adversary's fraction of computational power / IDs (Section I-C).
  double beta = 0.05;

  /// Slack in the good-group definition: a group is good while its bad
  /// membership is at most (1 + delta) * beta * |G| (Section I-C).
  double delta = 0.1;

  /// Concrete bad-membership threshold fraction theta.  The paper's
  /// analysis needs SOME constant in ((1+delta)beta, 1/2): the Chernoff
  /// argument behind S2 gives Pr[Binomial(|G|, beta) > theta |G|] =
  /// exp(-Theta(|G|)) = 1/poly(log n) for any such constant.  The
  /// asymptotic form (1+delta)*beta*|G| truncates to zero at simulable
  /// group sizes, so we take the threshold as
  ///   max(floor((1+delta) beta |G|), floor(theta |G|)).
  /// theta = 0.3 keeps a majority margin for churn (a group born with
  /// <= 0.3 bad retains a good majority until ~57% of its good members
  /// depart, beyond the eps'/2 churn bound; cf. epsilon_prime()).
  ///
  /// Calibration note (Lemma 9's "d2 sufficiently large"): the epoch
  /// pipeline is stable only while pf << 1/(R D^2), where R is the
  /// number of dual searches per group and D the route length —
  /// otherwise confusion compounds across epochs exactly as the paper
  /// warns for the naive design.  theta = 0.3 together with d1 = 12
  /// puts pf ~ 1e-4 at simulable n, satisfying the bound with margin.
  double bad_fraction_limit = 0.3;

  /// Group-size constants: d1 ln ln n <= |G| <= d2 ln ln n.
  double d1 = 12.0;
  double d2 = 15.0;

  /// Input graph family used for both H and the group graph topology.
  overlay::Kind overlay_kind = overlay::Kind::chord;

  /// Experiment seed: all oracles and RNG streams derive from it.
  std::uint64_t seed = 1;

  /// When nonzero, fixes the group size directly (used by the
  /// Theta(log n) baseline and the group-size knee tests).
  std::size_t group_size_override = 0;

  /// ln ln n, floored at a small positive value so tiny test sizes work.
  [[nodiscard]] static double ln_ln(std::size_t n) noexcept;

  /// Requested group size: odd-forced ceil(d1 ln ln n), minimum 3.
  /// Odd so that strict majority filtering never ties.
  [[nodiscard]] std::size_t group_size() const noexcept;

  /// Minimum acceptable size after erroneous rejections (the d1 bound);
  /// a group smaller than this is classified bad.
  [[nodiscard]] std::size_t group_min_size() const noexcept;

  /// Baseline (prior work): odd-forced ceil(c ln n) for Theta(log n)
  /// groups; c chosen as 2.0 which keeps all groups good w.h.p. at
  /// beta = 0.05 (the campaign's logn_groups cells run it).
  [[nodiscard]] std::size_t baseline_group_size() const noexcept;

  /// Threshold count of bad members above which a group is bad.
  [[nodiscard]] std::size_t bad_member_threshold(std::size_t size) const noexcept;

  /// Churn bound: eps' = 1 - 2(1+delta)beta; at most an (eps'/2)
  /// fraction of good IDs may leave a group per epoch (Section III).
  [[nodiscard]] double epsilon_prime() const noexcept;
};

}  // namespace tg::core
