// Unit tests for crypto: SHA-256 against FIPS 180-4 vectors, hex,
// random oracles, commitments/ZK proof objects.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "crypto/commitment.hpp"
#include "crypto/hex.hpp"
#include "crypto/oracle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_simd.hpp"
#include "dispatch_seams.hpp"

namespace tg::crypto {
namespace {

// --- SHA-256 test vectors (FIPS 180-4 / NIST CAVS) ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongMessage896Bits) {
  EXPECT_EQ(
      to_hex(sha256("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                    "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  // FIPS 180-4 pseudo-vector; exercises many block iterations.
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 ctx;
  ctx.update("hello ");
  ctx.update("world");
  EXPECT_EQ(ctx.finish(), sha256("hello world"));
}

TEST(Sha256, BoundarySizedInputs) {
  // Lengths that straddle the 55/56/64-byte padding boundaries.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    // Byte-at-a-time must agree.
    Sha256 b;
    for (const char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
  }
}

TEST(Sha256, ResetReusesContext) {
  Sha256 ctx;
  ctx.update("garbage");
  (void)ctx.finish();
  ctx.reset();
  ctx.update("abc");
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, UpdateU64BigEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  Sha256 b;
  b.update(std::span<const std::uint8_t>(bytes, 8));
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha256, DigestToU64TakesLeadingBytes) {
  Digest d{};
  for (int i = 0; i < 32; ++i) d[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(digest_to_u64(d), 0x0102030405060708ULL);
}

// --- Hex codec ---

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xff, 0x12, 0xab};
  const auto hex = to_hex(bytes);
  EXPECT_EQ(hex, "00ff12ab");
  const auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
}

TEST(Hex, AcceptsUppercase) {
  const auto back = from_hex("AbCd");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((*back)[0], 0xab);
  EXPECT_EQ((*back)[1], 0xcd);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // bad digit
  EXPECT_TRUE(from_hex("").has_value());       // empty is fine
}

// --- Random oracles ---

TEST(Oracle, Deterministic) {
  const RandomOracle o("test", 42);
  EXPECT_EQ(o.value_u64(7), o.value_u64(7));
  EXPECT_EQ(o.value_pair(1, 2), o.value_pair(1, 2));
}

TEST(Oracle, DomainSeparation) {
  const RandomOracle a("domain-a", 42), b("domain-b", 42);
  EXPECT_NE(a.value_u64(7), b.value_u64(7));
}

TEST(Oracle, SeedSeparation) {
  const RandomOracle a("d", 1), b("d", 2);
  EXPECT_NE(a.value_u64(7), b.value_u64(7));
}

TEST(Oracle, PairIsNotConcatenationCollision) {
  const RandomOracle o("d", 1);
  // (1, 2) and (different split of the same bytes) must differ because
  // inputs are length-prefixed by fixed-width encoding.
  EXPECT_NE(o.value_pair(1, 2), o.value_pair(2, 1));
  EXPECT_NE(o.value_pair(0, 1), o.value_u64(1));
}

TEST(Oracle, OutputLooksUniform) {
  const RandomOracle o("uniformity", 3);
  // Crude equidistribution check: mean of normalized outputs.
  double sum = 0.0;
  const int samples = 4000;
  for (int i = 0; i < samples; ++i) {
    sum += static_cast<double>(o.value_u64(static_cast<std::uint64_t>(i))) *
           0x1.0p-64;
  }
  EXPECT_NEAR(sum / samples, 0.5, 0.02);
}

TEST(OracleSuite, FiveIndependentOracles) {
  const OracleSuite suite(99);
  const std::uint64_t x = 1234;
  std::set<std::uint64_t> outputs = {
      suite.h1.value_u64(x), suite.h2.value_u64(x), suite.f.value_u64(x),
      suite.g.value_u64(x), suite.h.value_u64(x)};
  EXPECT_EQ(outputs.size(), 5u);  // all distinct
}

// --- Midstate / fast-path equivalence ---
//
// The midstate cache, the prepadded single-block templates and the
// SHA-NI kernel are pure optimizations: every oracle output must stay
// byte-identical to hashing domain || seed || args from scratch.

namespace {

std::vector<std::uint8_t> pseudo_bytes(std::size_t n, std::uint64_t salt) {
  std::vector<std::uint8_t> out(n);
  std::uint64_t x = salt * 0x9e3779b97f4a7c15ULL + 1;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  return out;
}

Digest scratch_digest(std::string_view domain, std::uint64_t seed,
                      std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(domain);
  ctx.update_u64(seed);
  ctx.update(data);
  return ctx.finish();
}

}  // namespace

TEST(Oracle, MidstateMatchesScratchDigest) {
  // Domain lengths straddle every fast-path boundary: template valid
  // for u64 (<= 47 prefix), pair (<= 39), single-block finalize
  // (<= 55), buffered block (< 64) and multi-block prefixes (>= 64).
  for (const std::size_t domain_len :
       {1u, 13u, 30u, 39u, 40u, 46u, 47u, 48u, 55u, 56u, 63u, 64u, 65u, 100u}) {
    const std::string domain(domain_len, 'd');
    const RandomOracle oracle(domain, 77);
    for (const std::size_t data_len : {0u, 1u, 8u, 16u, 31u, 55u, 56u, 64u,
                                       65u, 100u}) {
      const auto data = pseudo_bytes(data_len, domain_len * 131 + data_len);
      EXPECT_EQ(oracle.digest(data), scratch_digest(domain, 77, data))
          << "domain_len=" << domain_len << " data_len=" << data_len;
      EXPECT_EQ(oracle.value(data),
                digest_to_u64(scratch_digest(domain, 77, data)));
    }
  }
}

TEST(Oracle, FastPathMatchesScratchU64AndPair) {
  for (const std::size_t domain_len : {1u, 13u, 38u, 39u, 40u, 47u, 48u, 60u,
                                       64u, 90u}) {
    const std::string domain(domain_len, 'x');
    const RandomOracle oracle(domain, 42);
    for (const std::uint64_t a : {0ULL, 1ULL, 0x0123456789abcdefULL, ~0ULL}) {
      Sha256 ref_u64;
      ref_u64.update(domain);
      ref_u64.update_u64(42);
      ref_u64.update_u64(a);
      EXPECT_EQ(oracle.value_u64(a), digest_to_u64(ref_u64.finish()))
          << "domain_len=" << domain_len;

      Sha256 ref_pair;
      ref_pair.update(domain);
      ref_pair.update_u64(42);
      ref_pair.update_u64(a);
      ref_pair.update_u64(a ^ 0x5555555555555555ULL);
      EXPECT_EQ(oracle.value_pair(a, a ^ 0x5555555555555555ULL),
                digest_to_u64(ref_pair.finish()))
          << "domain_len=" << domain_len;
    }
  }
}

TEST(Oracle, StreamMatchesValueU64) {
  for (const std::size_t domain_len : {13u, 47u, 48u, 80u}) {
    const RandomOracle oracle(std::string(domain_len, 's'), 9);
    auto stream = oracle.stream_u64();
    for (std::uint64_t x = 0; x < 200; ++x) {
      EXPECT_EQ(stream(x * 0x9e3779b97f4a7c15ULL),
                oracle.value_u64(x * 0x9e3779b97f4a7c15ULL));
    }
  }
}

TEST(Sha256, FinishWithTailMatchesCloneFinish) {
  for (const std::size_t prefix_len : {0u, 1u, 21u, 47u, 55u, 56u, 63u, 64u,
                                       65u, 120u, 128u, 130u}) {
    const auto prefix = pseudo_bytes(prefix_len, prefix_len + 7);
    Sha256 midstate;
    midstate.update(prefix);
    for (const std::size_t tail_len : {0u, 1u, 8u, 24u, 46u, 47u, 55u, 56u,
                                       64u, 80u}) {
      const auto tail = pseudo_bytes(tail_len, tail_len * 31 + 5);
      Sha256 clone(midstate);
      clone.update(tail);
      const Digest expected = clone.finish();
      EXPECT_EQ(midstate.finish_with_tail(tail), expected)
          << "prefix=" << prefix_len << " tail=" << tail_len;
      EXPECT_EQ(midstate.finish_with_tail_u64(tail), digest_to_u64(expected));
    }
    EXPECT_EQ(midstate.bytes_absorbed(), prefix_len);
  }
}

TEST(Sha256, ScalarAndHardwareKernelsAgree) {
  // By default a host only ever exercises one compression kernel
  // (cpuid dispatch); force the scalar path and cross-check it against
  // the hardware path on the same inputs so a regression in either
  // kernel is caught on every machine that has both.
  const bool had_hw = detail::shani_enabled();
  std::vector<Digest> scalar_digests;
  detail::set_shani_enabled(false);
  EXPECT_FALSE(detail::shani_enabled());
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  for (const std::size_t len : {0u, 1u, 55u, 56u, 64u, 65u, 200u}) {
    scalar_digests.push_back(sha256(pseudo_bytes(len, len)));
  }
  detail::set_shani_enabled(true);  // no-op on hosts without SHA
  std::size_t i = 0;
  for (const std::size_t len : {0u, 1u, 55u, 56u, 64u, 65u, 200u}) {
    EXPECT_EQ(sha256(pseudo_bytes(len, len)), scalar_digests[i++])
        << "len=" << len << " hw=" << detail::shani_enabled();
  }
  detail::set_shani_enabled(had_hw);
}

TEST(Sha256, CompressPaddedBlockMatchesOneShot) {
  for (const std::size_t len : {0u, 1u, 21u, 37u, 54u, 55u}) {
    const auto msg = pseudo_bytes(len, len + 99);
    std::uint8_t block[64] = {};
    std::copy(msg.begin(), msg.end(), block);
    block[len] = 0x80;
    store_u64_be(block + 56, static_cast<std::uint64_t>(len) * 8);
    const Digest expected = sha256(msg);
    EXPECT_EQ(Sha256::compress_padded_block(block), expected) << "len=" << len;
    EXPECT_EQ(Sha256::compress_padded_block_u64(block),
              digest_to_u64(expected));
  }
}

// --- Multi-lane engine: cross-kernel determinism ---
//
// The multi-lane kernels (AVX-512 x16, AVX2 x8, SSE2 x4) and the
// per-block paths (SHA-NI, scalar) must be byte-identical for every
// lane count and ragged tail, under every forcible dispatch
// combination (helpers shared with test_pow via dispatch_seams.hpp).
// On hosts without some tier the corresponding set_*_enabled is a
// no-op, so the loop degenerates gracefully.

using seams::DispatchGuard;
using seams::for_each_dispatch;

TEST(Sha256MultiLane, MatchesScalarForAllWidthsAndTails) {
  const DispatchGuard guard;
  // Every count from a single block to just under two full widest
  // groups, so each tier's group loop AND every ragged-tail ladder
  // rung is exercised.
  const std::size_t max_count = 2 * Sha256::kMaxLanes - 1;
  const auto bytes = pseudo_bytes(max_count * 64, 0xb10c);
  std::vector<std::uint64_t> expected(max_count);
  detail::set_shani_enabled(false);
  detail::set_avx512_enabled(false);
  detail::set_avx2_enabled(false);
  detail::set_sse2_enabled(false);
  for (std::size_t i = 0; i < max_count; ++i) {
    expected[i] = Sha256::compress_padded_block_u64(bytes.data() + i * 64);
  }
  for_each_dispatch([&](int combo) {
    for (std::size_t count = 1; count <= max_count; ++count) {
      std::vector<std::uint64_t> outs(count, 0);
      Sha256::compress_padded_blocks_u64xN(bytes.data(), count, outs.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(outs[i], expected[i])
            << "combo=" << combo << " count=" << count << " i=" << i
            << " kernel=" << detail::hash_kernel_name();
      }
    }
  });
}

TEST(Sha256MultiLane, LaneWidthReflectsDispatch) {
  const DispatchGuard guard;
  detail::set_shani_enabled(false);
  detail::set_avx512_enabled(false);
  detail::set_avx2_enabled(false);
  detail::set_sse2_enabled(false);
  EXPECT_EQ(Sha256::lane_width(), 1u);
  EXPECT_STREQ(detail::hash_kernel_name(), "scalar");
  if (detail::avx512_available()) {
    detail::set_avx512_enabled(true);
    EXPECT_EQ(Sha256::lane_width(), 16u);
    detail::set_avx512_enabled(false);
  }
  if (detail::avx2_available()) {
    detail::set_avx2_enabled(true);
    EXPECT_EQ(Sha256::lane_width(), 8u);
    // SHA-NI outranks the 8-lane tier per block, so enabling it takes
    // the batch path back to per-block dispatch.
    if (detail::shani_available()) {
      detail::set_shani_enabled(true);
      EXPECT_EQ(Sha256::lane_width(), 1u);
      detail::set_shani_enabled(false);
    }
    detail::set_avx2_enabled(false);
  }
  if (detail::sse2_available()) {
    detail::set_sse2_enabled(true);
    EXPECT_EQ(Sha256::lane_width(), 4u);
  }
}

TEST(Oracle, EvalManyMatchesValueU64UnderEveryKernel) {
  const DispatchGuard guard;
  // Domain lengths cover the fast single-block template (<= 47-byte
  // prefix) and the slow fallback path.
  for (const std::size_t domain_len : {13u, 47u, 48u, 80u}) {
    const RandomOracle oracle(std::string(domain_len, 'm'), 21);
    std::vector<std::uint64_t> xs(2 * Sha256::kMaxLanes + 3);
    std::vector<std::uint64_t> expected(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = i * 0x9e3779b97f4a7c15ULL + domain_len;
      expected[i] = oracle.value_u64(xs[i]);
    }
    for_each_dispatch([&](int combo) {
      auto stream = oracle.stream_u64();
      for (const std::size_t n :
           {std::size_t{1}, std::size_t{3}, Sha256::kMaxLanes - 1,
            Sha256::kMaxLanes, Sha256::kMaxLanes + 5, xs.size()}) {
        std::vector<std::uint64_t> outs(n, 0);
        stream.eval_many(xs.data(), outs.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(outs[i], expected[i])
              << "combo=" << combo << " domain_len=" << domain_len
              << " n=" << n << " i=" << i;
        }
      }
    });
  }
}

TEST(Oracle, StreamPairMatchesValuePairUnderEveryKernel) {
  const DispatchGuard guard;
  // Domain lengths straddle the pair fast-path boundary (prefix <= 39
  // bytes for a single padded block with 16 argument bytes).
  for (const std::size_t domain_len : {1u, 13u, 39u, 40u, 60u}) {
    const RandomOracle oracle(std::string(domain_len, 'p'), 33);
    const std::uint64_t w = 0xfeedface00c0ffeeULL + domain_len;
    std::vector<std::uint64_t> slots(2 * Sha256::kMaxLanes + 1);
    std::vector<std::uint64_t> expected(slots.size());
    for (std::size_t s = 0; s < slots.size(); ++s) {
      slots[s] = s;
      expected[s] = oracle.value_pair(w, s);
    }
    for_each_dispatch([&](int combo) {
      auto stream = oracle.stream_pair();
      EXPECT_EQ(stream(w, 7), oracle.value_pair(w, 7)) << "combo=" << combo;
      for (const std::size_t n :
           {std::size_t{1}, Sha256::kMaxLanes, slots.size()}) {
        std::vector<std::uint64_t> outs(n, 0);
        stream.eval_many(w, slots.data(), outs.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(outs[i], expected[i])
              << "combo=" << combo << " domain_len=" << domain_len
              << " n=" << n << " i=" << i;
        }
      }
    });
  }
}

// --- Commitments and the ZK proof object ---

TEST(Commitment, OpensWithCorrectData) {
  const std::vector<std::uint8_t> data = {1, 2, 3};
  const auto c = commit(data, 777);
  EXPECT_TRUE(open(c, data, 777));
}

TEST(Commitment, RejectsWrongNonceOrData) {
  const std::vector<std::uint8_t> data = {1, 2, 3};
  const auto c = commit(data, 777);
  EXPECT_FALSE(open(c, data, 778));
  const std::vector<std::uint8_t> other = {1, 2, 4};
  EXPECT_FALSE(open(c, other, 777));
}

TEST(ZkProof, AcceptsHonestStatement) {
  PowStatement stmt;
  stmt.claimed_g_output = 100;
  stmt.claimed_id = 555;
  stmt.tau = 1000;
  const auto proof = prove_pow_preimage(42, 9, 100, 555, stmt);
  EXPECT_TRUE(proof.verify());
}

TEST(ZkProof, RejectsMismatchedWitness) {
  PowStatement stmt;
  stmt.claimed_g_output = 100;
  stmt.claimed_id = 555;
  stmt.tau = 1000;
  // Prover's true evaluations disagree with the claim.
  const auto proof = prove_pow_preimage(42, 9, 101, 555, stmt);
  EXPECT_FALSE(proof.verify());
}

TEST(ZkProof, RejectsAboveThreshold) {
  PowStatement stmt;
  stmt.claimed_g_output = 5000;  // exceeds tau
  stmt.claimed_id = 555;
  stmt.tau = 1000;
  const auto proof = prove_pow_preimage(42, 9, 5000, 555, stmt);
  EXPECT_FALSE(proof.verify());
}

}  // namespace
}  // namespace tg::crypto
