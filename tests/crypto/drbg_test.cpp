#include "crypto/drbg.hpp"

#include <gtest/gtest.h>

#include <map>

namespace hipcloud::crypto {
namespace {

TEST(HmacDrbg, DeterministicForSameSeed) {
  HmacDrbg a(42, "host-a");
  HmacDrbg b(42, "host-a");
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(HmacDrbg, PersonalizationSeparatesStreams) {
  HmacDrbg a(42, "host-a");
  HmacDrbg b(42, "host-b");
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, SeedSeparatesStreams) {
  HmacDrbg a(1, "x");
  HmacDrbg b(2, "x");
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, SuccessiveCallsDiffer) {
  HmacDrbg d(7, "x");
  const Bytes first = d.generate(32);
  const Bytes second = d.generate(32);
  EXPECT_NE(first, second);
}

TEST(HmacDrbg, SplitRequestsMatchSingleRequest) {
  // generate(64) equals generate(32)+generate(32) only if the state
  // update happens per call; verify our chosen semantics are stable.
  HmacDrbg a(9, "x");
  HmacDrbg b(9, "x");
  const Bytes one = a.generate(64);
  Bytes two = b.generate(32);
  const Bytes more = b.generate(32);
  two.insert(two.end(), more.begin(), more.end());
  // Per SP 800-90A, each generate() call finishes with an update, so the
  // streams intentionally differ after the first 32 bytes.
  EXPECT_TRUE(std::equal(two.begin(), two.begin() + 32, one.begin()));
  EXPECT_NE(two, one);
}

TEST(HmacDrbg, StateTracksTheStream) {
  HmacDrbg a(12, "x");
  HmacDrbg b(12, "x");
  EXPECT_EQ(a.state().size(), 64u);
  EXPECT_EQ(a.state(), b.state());
  a.generate(1);
  EXPECT_NE(a.state(), b.state());
  b.generate(1);
  EXPECT_EQ(a.state(), b.state());
}

TEST(HmacDrbg, ReseedChangesOutput) {
  HmacDrbg a(11, "x");
  HmacDrbg b(11, "x");
  b.reseed(to_bytes("extra entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(HmacDrbg, OutputLooksUniform) {
  HmacDrbg d(13, "uniformity");
  const Bytes out = d.generate(65536);
  // Chi-squared-ish sanity: every byte value should appear.
  std::map<std::uint8_t, int> counts;
  for (std::uint8_t b : out) ++counts[b];
  EXPECT_EQ(counts.size(), 256u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 128) << int(value);  // expected 256 each
    EXPECT_LT(count, 512) << int(value);
  }
}

TEST(HmacDrbg, ZeroLengthRequest) {
  HmacDrbg d(15, "x");
  EXPECT_TRUE(d.generate(0).empty());
}

}  // namespace
}  // namespace hipcloud::crypto
