#include <gtest/gtest.h>

#include "hip/esp.hpp"
#include "hip/keymat.hpp"

namespace hipcloud::hip {
namespace {

using crypto::Bytes;

const net::Ipv6Addr kHitA = net::Ipv6Addr::parse("2001:10::a");
const net::Ipv6Addr kHitB = net::Ipv6Addr::parse("2001:10::b");

TEST(Keymat, BothSidesDeriveComplementaryKeys) {
  const Bytes secret(192, 0x5a);
  const Keymat a = Keymat::derive(secret, kHitA, kHitB);
  const Keymat b = Keymat::derive(secret, kHitB, kHitA);
  EXPECT_EQ(a.hip_hmac_out, b.hip_hmac_in);
  EXPECT_EQ(a.hip_hmac_in, b.hip_hmac_out);
  EXPECT_EQ(a.esp_enc_out, b.esp_enc_in);
  EXPECT_EQ(a.esp_auth_out, b.esp_auth_in);
  EXPECT_EQ(a.esp_enc_in, b.esp_enc_out);
  EXPECT_EQ(a.esp_auth_in, b.esp_auth_out);
}

TEST(Keymat, DirectionalKeysDiffer) {
  const Keymat a = Keymat::derive(Bytes(192, 1), kHitA, kHitB);
  EXPECT_NE(a.esp_enc_out, a.esp_enc_in);
  EXPECT_NE(a.hip_hmac_out, a.hip_hmac_in);
  EXPECT_NE(a.esp_enc_out, a.esp_auth_out);
}

TEST(Keymat, SecretSeparation) {
  const Keymat k1 = Keymat::derive(Bytes(192, 1), kHitA, kHitB);
  const Keymat k2 = Keymat::derive(Bytes(192, 2), kHitA, kHitB);
  EXPECT_NE(k1.esp_enc_out, k2.esp_enc_out);
}

TEST(Keymat, HitPairSeparation) {
  const net::Ipv6Addr other = net::Ipv6Addr::parse("2001:10::c");
  const Keymat k1 = Keymat::derive(Bytes(192, 1), kHitA, kHitB);
  const Keymat k2 = Keymat::derive(Bytes(192, 1), kHitA, other);
  EXPECT_NE(k1.esp_enc_out, k2.esp_enc_out);
}

class EspSuiteTest : public ::testing::TestWithParam<EspSuite> {
 protected:
  EspSa make_sa(std::uint32_t spi = 0x1000) {
    return EspSa(spi, GetParam(), Bytes(32, 0x11), Bytes(32, 0x22));
  }
};

TEST_P(EspSuiteTest, ProtectUnprotectRoundTrip) {
  EspSa tx = make_sa();
  EspSa rx = make_sa();
  const Bytes payload = crypto::to_bytes("GET /auction HTTP/1.1\r\n\r\n");
  const Bytes wire = tx.protect(6, EspSa::kModeHit, payload);
  const auto out = rx.unprotect(wire);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->inner_proto, 6);
  EXPECT_EQ(out->addr_mode, EspSa::kModeHit);
  EXPECT_EQ(out->payload, payload);
  EXPECT_EQ(out->seq, 1u);
}

TEST_P(EspSuiteTest, CiphertextHidesPlaintext) {
  EspSa tx = make_sa();
  const Bytes payload = crypto::to_bytes(
      "confidential tenant data that must not appear on the shared wire");
  const Bytes wire = tx.protect(6, EspSa::kModeHit, payload);
  // Search for the plaintext in the wire bytes.
  const bool leaked =
      std::search(wire.begin(), wire.end(), payload.begin(), payload.end()) !=
      wire.end();
  if (GetParam() == EspSuite::kNullSha256) {
    EXPECT_TRUE(leaked);  // NULL cipher: integrity only, by design
  } else {
    EXPECT_FALSE(leaked);
  }
}

TEST_P(EspSuiteTest, TamperedPacketRejected) {
  EspSa tx = make_sa();
  EspSa rx = make_sa();
  Bytes wire = tx.protect(17, EspSa::kModeLsi, Bytes(100, 7));
  wire[wire.size() / 2] ^= 0x01;
  EXPECT_FALSE(rx.unprotect(wire).has_value());
  EXPECT_EQ(rx.auth_failures(), 1u);
}

TEST_P(EspSuiteTest, IcvMismatchDetectedAtEveryBytePosition) {
  // The ICV check goes through crypto::ct_equal; corrupting any of its
  // 12 trailing bytes — first, middle, last — must reject the packet.
  EspSa tx = make_sa();
  Bytes wire = tx.protect(6, EspSa::kModeHit, Bytes(48, 0x3c));
  constexpr std::size_t kIcvSize = 12;
  ASSERT_GT(wire.size(), kIcvSize);
  for (std::size_t pos = 0; pos < kIcvSize; ++pos) {
    EspSa rx = make_sa();
    Bytes bad = wire;
    bad[bad.size() - kIcvSize + pos] ^= 0x01;
    EXPECT_FALSE(rx.unprotect(bad).has_value())
        << "flipped ICV byte " << pos << " was accepted";
    EXPECT_EQ(rx.auth_failures(), 1u);
  }
  EspSa rx = make_sa();
  EXPECT_TRUE(rx.unprotect(wire).has_value());
}

TEST_P(EspSuiteTest, ReplayIsDropped) {
  EspSa tx = make_sa();
  EspSa rx = make_sa();
  const Bytes wire = tx.protect(6, EspSa::kModeHit, Bytes(10, 1));
  EXPECT_TRUE(rx.unprotect(wire).has_value());
  EXPECT_FALSE(rx.unprotect(wire).has_value());
  EXPECT_EQ(rx.replay_drops(), 1u);
}

TEST_P(EspSuiteTest, OutOfOrderWithinWindowAccepted) {
  EspSa tx = make_sa();
  EspSa rx = make_sa();
  std::vector<Bytes> wires;
  for (int i = 0; i < 5; ++i) {
    wires.push_back(tx.protect(6, EspSa::kModeHit, Bytes(4, std::uint8_t(i))));
  }
  // Deliver 5th first, then the rest.
  EXPECT_TRUE(rx.unprotect(wires[4]).has_value());
  EXPECT_TRUE(rx.unprotect(wires[0]).has_value());
  EXPECT_TRUE(rx.unprotect(wires[2]).has_value());
  EXPECT_TRUE(rx.unprotect(wires[1]).has_value());
  EXPECT_TRUE(rx.unprotect(wires[3]).has_value());
  EXPECT_EQ(rx.replay_drops(), 0u);
}

TEST_P(EspSuiteTest, AncientSequenceOutsideWindowDropped) {
  EspSa tx = make_sa();
  EspSa rx = make_sa();
  const Bytes first = tx.protect(6, EspSa::kModeHit, Bytes(1, 1));
  // Advance far beyond the 64-packet window.
  Bytes last;
  for (int i = 0; i < 70; ++i) last = tx.protect(6, EspSa::kModeHit, Bytes(1, 2));
  EXPECT_TRUE(rx.unprotect(last).has_value());
  EXPECT_FALSE(rx.unprotect(first).has_value());
  EXPECT_EQ(rx.replay_drops(), 1u);
}

TEST_P(EspSuiteTest, WrongSpiRejected) {
  EspSa tx = make_sa(0x1000);
  EspSa rx = make_sa(0x2000);
  const Bytes wire = tx.protect(6, EspSa::kModeHit, Bytes(4, 0));
  EXPECT_FALSE(rx.unprotect(wire).has_value());
}

TEST_P(EspSuiteTest, WrongKeyRejected) {
  EspSa tx = make_sa();
  EspSa rx(0x1000, GetParam(), Bytes(32, 0x11), Bytes(32, 0x99));
  const Bytes wire = tx.protect(6, EspSa::kModeHit, Bytes(4, 0));
  EXPECT_FALSE(rx.unprotect(wire).has_value());
}

TEST_P(EspSuiteTest, EmptyPayload) {
  EspSa tx = make_sa();
  EspSa rx = make_sa();
  const auto out = rx.unprotect(tx.protect(6, EspSa::kModeHit, {}));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->payload.empty());
}

TEST_P(EspSuiteTest, MalformedWireRejected) {
  EspSa rx = make_sa();
  EXPECT_FALSE(rx.unprotect(Bytes(10, 0)).has_value());
  EXPECT_FALSE(rx.unprotect({}).has_value());
}

TEST_P(EspSuiteTest, OverheadIsBounded) {
  EspSa tx = make_sa();
  const Bytes wire = tx.protect(6, EspSa::kModeHit, Bytes(1000, 0));
  EXPECT_LE(wire.size(), 1000 + esp_overhead(GetParam()) + 16);
  EXPECT_GT(wire.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Suites, EspSuiteTest,
    ::testing::Values(EspSuite::kNullSha256, EspSuite::kAes128CtrSha256,
                      EspSuite::kAes128CbcSha256),
    [](const auto& name_info) -> std::string {
      switch (name_info.param) {
        case EspSuite::kNullSha256:
          return "Null";
        case EspSuite::kAes128CtrSha256:
          return "AesCtr";
        case EspSuite::kAes128CbcSha256:
          return "AesCbc";
      }
      return "Unknown";
    });

// --- RFC 4303 replay-window edge cases -------------------------------------

TEST(EspReplayWindow, DuplicateAtExactWindowEdge) {
  // 64-entry window: with highest=65, seq=2 sits at offset 63 (the last
  // in-window slot) and seq=1 at offset 64 (just outside).
  EspSa tx(1, EspSuite::kAes128CtrSha256, Bytes(32, 0x11), Bytes(32, 0x22));
  EspSa rx(1, EspSuite::kAes128CtrSha256, Bytes(32, 0x11), Bytes(32, 0x22));
  std::vector<Bytes> wires;
  for (int i = 0; i < 65; ++i) {
    wires.push_back(tx.protect(6, EspSa::kModeHit, Bytes(4, 0)));
  }
  EXPECT_TRUE(rx.unprotect(wires[64]).has_value());   // seq 65
  EXPECT_TRUE(rx.unprotect(wires[1]).has_value());    // seq 2: offset 63, in
  EXPECT_FALSE(rx.unprotect(wires[1]).has_value());   // duplicate at the edge
  EXPECT_FALSE(rx.unprotect(wires[0]).has_value());   // seq 1: offset 64, out
  EXPECT_EQ(rx.replay_drops(), 2u);
  EXPECT_EQ(rx.auth_failures(), 0u);
}

TEST(EspReplayWindow, ShiftOfSixtyFourOrMoreWipesWindow) {
  // A jump of >= 64 sequence numbers must zero the whole window — stale
  // bits surviving the shift would falsely flag unseen packets as replays.
  EspSa tx(1, EspSuite::kAes128CtrSha256, Bytes(32, 0x11), Bytes(32, 0x22));
  EspSa rx(1, EspSuite::kAes128CtrSha256, Bytes(32, 0x11), Bytes(32, 0x22));
  std::vector<Bytes> wires;
  for (int i = 0; i < 70; ++i) {
    wires.push_back(tx.protect(6, EspSa::kModeHit, Bytes(4, 0)));
  }
  EXPECT_TRUE(rx.unprotect(wires[0]).has_value());   // seq 1
  EXPECT_TRUE(rx.unprotect(wires[69]).has_value());  // seq 70: shift 69, wipe
  EXPECT_TRUE(rx.unprotect(wires[68]).has_value());  // seq 69 unseen: accept
  EXPECT_TRUE(rx.unprotect(wires[7]).has_value());   // seq 8: offset 62, in
  EXPECT_FALSE(rx.unprotect(wires[0]).has_value());  // seq 1: offset 69, out
  EXPECT_EQ(rx.replay_drops(), 1u);
}

TEST(EspReplayWindow, SequenceZeroRejected) {
  // seq 0 is never sent (the SA starts at 1); a crafted packet with a
  // valid ICV but seq 0 must still be dropped by the replay check.
  const Bytes auth_key(32, 0x22);
  EspSa rx(1, EspSuite::kNullSha256, {}, auth_key);
  Bytes wire;
  crypto::append_be(wire, 1, 4);  // SPI
  crypto::append_be(wire, 0, 4);  // SEQ = 0
  wire.insert(wire.end(), 16, 0);  // IV
  wire.push_back(6);               // inner proto
  wire.push_back(EspSa::kModeHit);
  Bytes icv = crypto::hmac_sha256(auth_key, wire);
  icv.resize(12);
  wire.insert(wire.end(), icv.begin(), icv.end());
  EXPECT_FALSE(rx.unprotect(wire).has_value());
  EXPECT_EQ(rx.replay_drops(), 1u);   // rejected by replay, not by auth
  EXPECT_EQ(rx.auth_failures(), 0u);
}

TEST(EspSa, SuiteNamesAreDistinct) {
  EXPECT_STRNE(esp_suite_name(EspSuite::kNullSha256),
               esp_suite_name(EspSuite::kAes128CtrSha256));
}

TEST(EspSa, RejectsShortKeys) {
  EXPECT_THROW(
      EspSa(1, EspSuite::kAes128CtrSha256, Bytes(8, 0), Bytes(32, 0)),
      std::invalid_argument);
}

TEST(EspSa, RejectsSuitesOutsideTheEnum) {
  // A suite no cipher switch knows would carry payloads in clear.
  for (const std::uint8_t byte : {0x00, 0x04, 0x7f, 0xff}) {
    EXPECT_FALSE(esp_suite_from_wire(byte).has_value()) << int{byte};
    EXPECT_THROW(EspSa(1, static_cast<EspSuite>(byte), Bytes(16, 0),
                       Bytes(32, 0)),
                 std::invalid_argument)
        << int{byte};
  }
  for (const EspSuite suite :
       {EspSuite::kNullSha256, EspSuite::kAes128CtrSha256,
        EspSuite::kAes128CbcSha256}) {
    EXPECT_EQ(esp_suite_from_wire(static_cast<std::uint8_t>(suite)), suite);
  }
}

}  // namespace
}  // namespace hipcloud::hip
