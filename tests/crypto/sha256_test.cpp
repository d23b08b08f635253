#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "crypto/bytes.hpp"

namespace hipcloud::crypto {
namespace {

// FIPS 180-4 / NIST CAVP vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(Sha256::digest(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finish();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    const auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::digest(msg));
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  const auto d = h.finish();
  EXPECT_EQ(to_hex(BytesView(d.data(), d.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Boundary lengths around the 64-byte block/55-56 byte padding edge.
TEST(Sha256, PaddingBoundaries) {
  // 55 bytes: fits length in first block; 56: forces a second block.
  const Bytes m55(55, 'x');
  const Bytes m56(56, 'x');
  const Bytes m64(64, 'x');
  EXPECT_NE(Sha256::digest(m55), Sha256::digest(m56));
  EXPECT_NE(Sha256::digest(m56), Sha256::digest(m64));
  // Determinism.
  EXPECT_EQ(Sha256::digest(m64), Sha256::digest(m64));
}

// RFC 3174-style SHA-1 vectors (used for HIPv1 HIT derivation).
TEST(Sha1, Abc) {
  EXPECT_EQ(to_hex(sha1(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Empty) {
  EXPECT_EQ(to_hex(sha1({})), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, LongerVector) {
  EXPECT_EQ(to_hex(sha1(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// FIPS 180 vectors through the one-block path the HIP puzzle uses.
TEST(Sha1, OneBlockPathMatchesFipsVectors) {
  EXPECT_EQ(to_hex(sha1_block(sha1_pad_block({}))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(to_hex(sha1_block(sha1_pad_block(to_bytes("abc")))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  // Every length that fits one block agrees with the general path, and
  // rewriting bytes in place hashes the rewritten message.
  Bytes msg;
  for (std::size_t len = 0; len <= 55; ++len) {
    EXPECT_EQ(sha1_block(sha1_pad_block(msg)), sha1(msg)) << len;
    msg.push_back(static_cast<std::uint8_t>(len * 7));
  }
  Sha1Block block = sha1_pad_block(to_bytes("abd"));
  block[2] = 'c';
  EXPECT_EQ(to_hex(sha1_block(block)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_THROW(sha1_pad_block(Bytes(56, 'a')), std::invalid_argument);
}

// Lengths around the block and padding boundaries (55/56: the length
// field still fits or needs a second block; 64/119/120/128: whole
// blocks plus a tail), and the FIPS 180 million-'a' message.
TEST(Sha1, BlockAndPaddingBoundaries) {
  const std::pair<std::size_t, const char*> vectors[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {65, "11655326c708d70319be2610e8a57d9a5b959d3b"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
      {128, "ad5b3fdbcb526778c2839d2f151ea753995e26a0"},
      {1000000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
  };
  for (const auto& [len, digest] : vectors) {
    EXPECT_EQ(to_hex(sha1(Bytes(len, 'a'))), digest) << len;
  }
}

}  // namespace
}  // namespace hipcloud::crypto
