#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"

namespace hipcloud::crypto {
namespace {

// 1024-bit keys keep keygen fast in tests; the protocol layers default to
// the same size the paper's HIPL deployment used (1024-bit RSA HIs).
class RsaTest : public ::testing::Test {
 protected:
  static const RsaKeyPair& keypair() {
    static const RsaKeyPair kp = [] {
      HmacDrbg drbg(42, "rsa-test");
      return rsa_generate(drbg, 1024);
    }();
    return kp;
  }
};

TEST_F(RsaTest, KeyHasExpectedShape) {
  const auto& kp = keypair();
  EXPECT_EQ(kp.pub.n.bit_length(), 1024u);
  EXPECT_EQ(kp.pub.e, BigInt(65537));
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.pub.n);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const Bytes msg = to_bytes("host identity protocol base exchange");
  const Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(rsa_verify_pkcs1(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongMessage) {
  const Bytes sig = rsa_sign_pkcs1(keypair().priv, to_bytes("message A"));
  EXPECT_FALSE(rsa_verify_pkcs1(keypair().pub, to_bytes("message B"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  sig[10] ^= 0x01;
  EXPECT_FALSE(rsa_verify_pkcs1(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify_pkcs1(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  HmacDrbg drbg(77, "other-key");
  const RsaKeyPair other = rsa_generate(drbg, 1024);
  const Bytes msg = to_bytes("message");
  const Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  EXPECT_FALSE(rsa_verify_pkcs1(other.pub, msg, sig));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  HmacDrbg drbg(1, "enc");
  const Bytes pt = to_bytes("48-byte TLS premaster secret equivalent....!");
  const Bytes ct = rsa_encrypt_pkcs1(keypair().pub, drbg, pt);
  EXPECT_EQ(ct.size(), 128u);
  EXPECT_EQ(rsa_decrypt_pkcs1(keypair().priv, ct), pt);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  HmacDrbg drbg(2, "enc2");
  const Bytes pt = to_bytes("hello");
  EXPECT_NE(rsa_encrypt_pkcs1(keypair().pub, drbg, pt),
            rsa_encrypt_pkcs1(keypair().pub, drbg, pt));
}

TEST_F(RsaTest, EncryptRejectsOversizedMessage) {
  HmacDrbg drbg(3, "enc3");
  EXPECT_THROW(rsa_encrypt_pkcs1(keypair().pub, drbg, Bytes(120, 0)),
               std::invalid_argument);
}

TEST_F(RsaTest, DecryptRejectsGarbage) {
  EXPECT_THROW(rsa_decrypt_pkcs1(keypair().priv, Bytes(128, 0xab)),
               std::runtime_error);
  EXPECT_THROW(rsa_decrypt_pkcs1(keypair().priv, Bytes(10, 0)),
               std::runtime_error);
}

TEST_F(RsaTest, PublicKeyEncodeDecodeRoundTrip) {
  const Bytes encoded = keypair().pub.encode();
  const RsaPublicKey decoded = RsaPublicKey::decode(encoded);
  EXPECT_EQ(decoded, keypair().pub);
}

TEST_F(RsaTest, PublicKeyDecodeRejectsTruncated) {
  EXPECT_THROW(RsaPublicKey::decode(Bytes{0x00}), std::runtime_error);
  Bytes bad = keypair().pub.encode();
  bad.resize(3);
  EXPECT_THROW(RsaPublicKey::decode(bad), std::runtime_error);
}

// Golden vectors: SHA-256 of the public key encoding, then the DRBG's next
// 32 bytes. A second generation in one process is a memo hit, so
// determinism is pinned against fixed values rather than a rerun.
struct KeyVector {
  std::uint64_t seed;
  const char* personalization;
  std::size_t bits;
  const char* pub_sha256;
  const char* next_drbg_bytes;
};

void expect_golden(const KeyVector& v) {
  HmacDrbg drbg(v.seed, v.personalization);
  const RsaKeyPair kp = rsa_generate(drbg, v.bits);
  EXPECT_EQ(kp.pub.n.bit_length(), v.bits);
  EXPECT_EQ(to_hex(Sha256::digest(kp.pub.encode())), v.pub_sha256);
  EXPECT_EQ(to_hex(drbg.generate(32)), v.next_drbg_bytes);
}

TEST(RsaGenerate, DeterministicFromSeed) {
  expect_golden(
      {5, "same", 512,
       "35e942edcb447eeac2415a62ba5fbfefe5525eb0c0ef235ba162ea4fb80696bc",
       "a97de600fcfe535ce65d1ac5db561713945948e364dca81b13aaf24f3a1982c6"});
}

// The load balancer's host identity in every Fig. 2 world (seed 1).
TEST(RsaGenerate, Fig2IdentityMatchesGolden) {
  expect_golden(
      {1, "hi:lb", 1024,
       "c132fd0e24504605b5c8ffce84e59948a805e5607a229b9e6788082488afeefc",
       "046edd9cbad347ed10cda28dfba1710f45640e4993bcee72d564e05f19c1fb9d"});
}

TEST(RsaGenerate, RejectsTinyModulus) {
  HmacDrbg drbg(6, "tiny");
  EXPECT_THROW(rsa_generate(drbg, 64), std::invalid_argument);
  EXPECT_THROW(rsa_generate(drbg, 513), std::invalid_argument);
}

TEST(RsaGenerate, SignatureWorksAcrossKeySizes) {
  for (std::size_t bits : {512u, 768u}) {
    HmacDrbg drbg(bits, "size-sweep");
    const RsaKeyPair kp = rsa_generate(drbg, bits);
    const Bytes msg = to_bytes("msg");
    EXPECT_TRUE(rsa_verify_pkcs1(kp.pub, msg, rsa_sign_pkcs1(kp.priv, msg)))
        << bits;
  }
}

// A key pair plus the DRBG bytes that follow it: everything a caller can
// observe of one rsa_generate call.
struct Generation {
  RsaKeyPair kp;
  Bytes next;
};

Generation generate_and_draw(std::uint64_t seed,
                             const char* personalization, std::size_t bits) {
  HmacDrbg drbg(seed, personalization);
  RsaKeyPair kp = rsa_generate(drbg, bits);
  return {std::move(kp), drbg.generate(32)};
}

void expect_same(const Generation& a, const Generation& b) {
  EXPECT_EQ(a.kp.pub, b.kp.pub);
  EXPECT_EQ(a.kp.priv.d, b.kp.priv.d);
  EXPECT_EQ(a.kp.priv.p, b.kp.priv.p);
  EXPECT_EQ(a.kp.priv.q, b.kp.priv.q);
  EXPECT_EQ(a.kp.priv.qinv, b.kp.priv.qinv);
  EXPECT_EQ(a.next, b.next);
}

TEST(RsaMemo, WarmHitMatchesColdResult) {
  const Generation cold = generate_and_draw(21, "memo-warm", 512);
  const Generation warm = generate_and_draw(21, "memo-warm", 512);
  expect_same(cold, warm);
  const Bytes msg = to_bytes("memo");
  EXPECT_TRUE(
      rsa_verify_pkcs1(cold.kp.pub, msg, rsa_sign_pkcs1(warm.kp.priv, msg)));
}

TEST(RsaMemo, DistinctInputsNeverShareAnEntry) {
  const Generation base = generate_and_draw(22, "memo-a", 512);
  const Generation other_name = generate_and_draw(22, "memo-b", 512);
  const Generation other_bits = generate_and_draw(22, "memo-a", 768);
  EXPECT_NE(base.kp.pub, other_name.kp.pub);
  EXPECT_NE(base.next, other_name.next);
  EXPECT_EQ(other_bits.kp.pub.n.bit_length(), 768u);
  EXPECT_NE(base.kp.pub, other_bits.kp.pub);
  EXPECT_NE(base.next, other_bits.next);
  // The neighbours left the first entry alone.
  expect_same(base, generate_and_draw(22, "memo-a", 512));
}

TEST(RsaMemo, ConcurrentRequestsShareOneKey) {
  constexpr int kThreads = 4;
  std::vector<Generation> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&results, i] {
      results[static_cast<std::size_t>(i)] =
          generate_and_draw(23, "memo-threads", 512);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    expect_same(results[0], results[static_cast<std::size_t>(i)]);
  }
}

TEST(RsaMemo, ProbeSeesAKeyOnlyOnceItIsBuiltAndNeverDraws) {
  const HmacDrbg fresh(24, "memo-probe");
  EXPECT_FALSE(rsa_key_cached(fresh, 512));
  const Generation built = generate_and_draw(24, "memo-probe", 512);
  EXPECT_TRUE(rsa_key_cached(fresh, 512));
  EXPECT_FALSE(rsa_key_cached(fresh, 768));  // the bit size is in the key
  // Probing left the DRBG where it was: a draw from it still hits the
  // same entry and continues the same stream.
  HmacDrbg probed(24, "memo-probe");
  EXPECT_TRUE(rsa_key_cached(probed, 512));
  EXPECT_EQ(probed.state(), fresh.state());
  const RsaKeyPair kp = rsa_generate(probed, 512);
  expect_same(built, {kp, probed.generate(32)});
}

}  // namespace
}  // namespace hipcloud::crypto
