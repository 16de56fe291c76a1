// Hash commitments and the zero-knowledge pre-image proof stand-in.
//
// Section IV-A: an ID w proves that it knows sigma_w with
// g(sigma_w xor r) <= tau and f(g(sigma_w xor r)) = id WITHOUT
// revealing sigma_w (otherwise a bad verifier could steal it).  The
// paper cites a garbled-circuit ZK scheme for the SHA family [25].
//
// Substitution (docs/DEVIATIONS.md#zkp-commitment): we model the ZKP
// as a commitment-carrying proof object that can only be minted
// through the prover API, which checks the statement against the
// actual witness.
// Verifiers see validity plus the public statement, never sigma —
// exactly the information interface of the real ZKP.  Soundness holds
// in-simulator because no other code path can construct a proof.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace tg::crypto {

struct Commitment {
  Digest value{};
  friend bool operator==(const Commitment&, const Commitment&) = default;
};

/// commit(data, nonce) = SHA-256(data || nonce).  Hiding comes from the
/// nonce; binding from collision resistance.
[[nodiscard]] Commitment commit(std::span<const std::uint8_t> data,
                                std::uint64_t nonce);
[[nodiscard]] bool open(const Commitment& c, std::span<const std::uint8_t> data,
                        std::uint64_t nonce);

/// Public statement of the PoW pre-image relation (Section IV-A).
struct PowStatement {
  std::uint64_t epoch_string_tag = 0;  ///< identifies r_{i-1} (by hash)
  std::uint64_t claimed_g_output = 0;  ///< g(sigma xor r)
  std::uint64_t claimed_id = 0;        ///< f(g(sigma xor r))
  std::uint64_t tau = 0;               ///< puzzle threshold
};

/// Opaque proof object; see file comment for the substitution rationale.
class ZkPreimageProof {
 public:
  ZkPreimageProof() = default;

  [[nodiscard]] const PowStatement& statement() const noexcept { return stmt_; }
  [[nodiscard]] const Commitment& witness_commitment() const noexcept {
    return commitment_;
  }
  /// Verify: checks the prover-attested relation and that the statement
  /// satisfies the public threshold.  Reveals nothing about sigma.
  [[nodiscard]] bool verify() const noexcept {
    return witness_ok_ && stmt_.claimed_g_output <= stmt_.tau;
  }

 private:
  friend ZkPreimageProof prove_pow_preimage(std::uint64_t sigma,
                                            std::uint64_t sigma_nonce,
                                            std::uint64_t g_of_input,
                                            std::uint64_t f_of_g,
                                            const PowStatement& stmt);
  PowStatement stmt_{};
  Commitment commitment_{};
  bool witness_ok_ = false;
};

/// Prover API: only entry point that can mint a valid proof.  The
/// caller supplies the true evaluations (the simulator computes them
/// with the oracles); `witness_ok` is set only if they match the
/// claimed statement.
[[nodiscard]] ZkPreimageProof prove_pow_preimage(std::uint64_t sigma,
                                                 std::uint64_t sigma_nonce,
                                                 std::uint64_t g_of_input,
                                                 std::uint64_t f_of_g,
                                                 const PowStatement& stmt);

}  // namespace tg::crypto
