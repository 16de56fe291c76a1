// Distributed key generation — the group-communication workload of
// Young et al. [51] ("executing distributed key generation"), which
// the paper lists as the canonical Theta(|G|^2)-message group task.
//
// Joint-Feldman structure: every member deals a Shamir sharing of a
// fresh random secret with a public commitment to the polynomial;
// members verify their shares, complain about bad dealers, and the
// group key is the sum of the qualified dealers' secrets.  Each member
// ends holding a share of the group key on a degree-d polynomial, so
// any d+1 members can act for the group (threshold signing, etc.).
//
// Substitution (docs/DEVIATIONS.md#feldman-dkg): Feldman's discrete-log
// commitments are modeled by PolyCommitment, an object that can only
// be minted through the dealer API and verifies evaluations without
// revealing the polynomial — the same information interface, enforced
// by construction rather than by hardness assumptions.
#pragma once

#include <cstdint>
#include <vector>

#include "bft/shamir.hpp"
#include "core/group.hpp"
#include "core/population.hpp"
#include "util/rng.hpp"

namespace tg::bft {

/// Commitment to a polynomial that can verify single evaluations.
/// Mintable only via commit_poly (friend), mirroring Feldman/KZG
/// verification semantics inside the simulator.
class PolyCommitment {
 public:
  PolyCommitment() = default;

  /// Would (x, y) lie on the committed polynomial?
  [[nodiscard]] bool verify(Fe x, Fe y) const noexcept {
    return !poly_.empty() && poly_eval(poly_, x) == y;
  }
  [[nodiscard]] std::size_t degree() const noexcept {
    return poly_.empty() ? 0 : poly_.size() - 1;
  }

 private:
  friend PolyCommitment commit_poly(const Poly& p);
  Poly poly_;  // never exposed; stands in for the commitment vector
};

[[nodiscard]] PolyCommitment commit_poly(const Poly& p);

/// How a Byzantine dealer misbehaves during the dealing round.
enum class DealerFault {
  none,          ///< deals honestly (bad members may still lie later)
  wrong_shares,  ///< sends corrupted shares to even-indexed members
  no_deal,       ///< sends nothing (crash-style withholding)
};

struct DkgResult {
  bool ok = false;               ///< a qualified set formed
  std::size_t qualified = 0;     ///< dealers surviving complaints
  std::size_t disqualified = 0;  ///< dealers voted out
  /// Every good member's share of the group key (x = member slot + 1).
  std::vector<Share> good_key_shares;
  /// Simulator-side ground truth: sum of qualified dealers' secrets.
  Fe group_secret{};
  /// Reconstructing from good shares alone matches group_secret.
  bool shares_consistent = false;
  std::uint64_t messages = 0;
  std::size_t complaints = 0;
};

/// Run one DKG round over the group.  `degree` is the threshold
/// polynomial degree (default: floor((|G|-1)/3) so Berlekamp-Welch can
/// later correct up to the same number of lying members).  Bad members
/// deal with `fault` and additionally complain spuriously about one
/// honest dealer (complaints against honest dealers are refuted by the
/// dealer's justification broadcast, so they only cost messages).
[[nodiscard]] DkgResult run_dkg(const core::GroupView& group,
                                const core::Population& pool,
                                DealerFault fault, Rng& rng);

}  // namespace tg::bft
