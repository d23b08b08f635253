// Cross-backend parity fuzz: every SHA-256 tier — scalar, SHA-NI, and
// each multi-buffer lane width — must produce bit-identical digests and
// HMAC tags for randomized lengths, keys, and batch shapes. The scalar
// compression (verified against NIST vectors in sha256_test.cpp) is the
// reference; everything else must match it exactly.
//
// Backends are flipped in-process via the test hooks that mirror the
// HIPCLOUD_NO_SHANI / HIPCLOUD_NO_SHAMB env knobs; the CTest registration
// also re-runs this binary with those env knobs set (see CMakeLists.txt)
// to prove the knobs themselves are honored and the portable tier works.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha_mb.hpp"
#include "crypto/sha_ni.hpp"

namespace hipcloud::crypto {
namespace {

// Deterministic xorshift64* so failures reproduce byte-for-byte.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s * 0x2545f4914f6cdd1dULL;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  Bytes bytes(std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(next());
    return out;
  }
};

// Restore auto dispatch even when an ASSERT bails out of a test body.
struct BackendGuard {
  ~BackendGuard() {
    sha256_backend::set_for_test(sha256_backend::Kind::kAuto);
    shamb::set_lane_cap_for_test(0);
  }
};

// Lengths hammer the padding/tail boundaries (0, 55, 56, 63, 64, 119,
// 120, 128...) plus a random spread up to several KB.
std::vector<Bytes> fuzz_messages(Rng& rng) {
  std::vector<Bytes> msgs;
  for (std::size_t len = 0; len <= 130; ++len) msgs.push_back(rng.bytes(len));
  for (int i = 0; i < 40; ++i) msgs.push_back(rng.bytes(rng.below(5000)));
  return msgs;
}

TEST(ShaParity, ShaNiMatchesScalarStreaming) {
  BackendGuard guard;
  if (!shani::supported()) {
    GTEST_SKIP() << "CPU lacks SHA-NI (or HIPCLOUD_NO_SHANI set)";
  }
  Rng rng;
  const auto msgs = fuzz_messages(rng);
  for (const auto& msg : msgs) {
    sha256_backend::set_for_test(sha256_backend::Kind::kScalar);
    const Bytes want = Sha256::digest(msg);

    sha256_backend::set_for_test(sha256_backend::Kind::kShaNi);
    ASSERT_STREQ(sha256_backend::active_name(), "sha-ni");
    EXPECT_EQ(Sha256::digest(msg), want) << "len=" << msg.size();

    // Chunked updates cross the buffered-partial-block path into the bulk
    // backend call at random offsets.
    Sha256 h;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take = std::min(1 + rng.below(97), msg.size() - off);
      h.update(BytesView(msg.data() + off, take));
      off += take;
    }
    const auto chunked = h.finish();
    EXPECT_EQ(Bytes(chunked.begin(), chunked.end()), want)
        << "chunked len=" << msg.size();
  }
}

TEST(ShaParity, DualStreamCompressMatchesTwoSingleStreamCalls) {
  if (!shani::supported()) {
    GTEST_SKIP() << "CPU lacks SHA-NI (or HIPCLOUD_NO_SHANI set)";
  }
  Rng rng;
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t nblocks = 1 + rng.below(9);
    const Bytes blocks_a = rng.bytes(64 * nblocks);
    const Bytes blocks_b = rng.bytes(64 * nblocks);
    std::uint32_t want_a[8], want_b[8], got_a[8], got_b[8];
    for (int i = 0; i < 8; ++i) {
      want_a[i] = got_a[i] = static_cast<std::uint32_t>(rng.next());
      want_b[i] = got_b[i] = static_cast<std::uint32_t>(rng.next());
    }
    shani::compress(want_a, blocks_a.data(), nblocks);
    shani::compress(want_b, blocks_b.data(), nblocks);
    shani::compress2(got_a, blocks_a.data(), got_b, blocks_b.data(), nblocks);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(got_a[i], want_a[i]) << "trial=" << trial << " word=" << i;
      ASSERT_EQ(got_b[i], want_b[i]) << "trial=" << trial << " word=" << i;
    }
  }
}

TEST(ShaParity, MultiBufferMatchesStreamingHmacAtEveryLaneWidth) {
  BackendGuard guard;
  Rng rng;
  const auto msgs = fuzz_messages(rng);

  for (int trial = 0; trial < 12; ++trial) {
    const Bytes key = rng.bytes(trial == 0 ? 0 : rng.below(100));
    // Reference tags from the scalar streaming HMAC.
    sha256_backend::set_for_test(sha256_backend::Kind::kScalar);
    shamb::set_lane_cap_for_test(1);
    HmacSha256 ref(key);
    std::vector<Bytes> want;
    for (const auto& msg : msgs) {
      ref.reset();
      ref.update(msg);
      Bytes tag(HmacSha256::kDigestSize);
      ref.finish(tag.data());
      want.push_back(std::move(tag));
    }

    sha256_backend::set_for_test(sha256_backend::Kind::kAuto);
    for (const std::size_t cap :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      shamb::set_lane_cap_for_test(cap);
      HmacSha256Mb mb(key);
      std::vector<Bytes> got(msgs.size(), Bytes(HmacSha256::kDigestSize));
      std::vector<HmacSha256Mb::Job> jobs(msgs.size());
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        jobs[i] = {msgs[i].data(), msgs[i].size(), got[i].data()};
      }
      // Uneven batch slices exercise partial lane groups and the
      // mixed-length dummy-lane scheduling.
      std::size_t at = 0;
      while (at < jobs.size()) {
        const std::size_t n = std::min(1 + rng.below(11), jobs.size() - at);
        mb.compute(jobs.data() + at, n);
        at += n;
      }
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "lanes=" << shamb::lane_width() << " msg=" << i
            << " len=" << msgs[i].size();
      }
    }
  }
}

TEST(ShaParity, EnvOptOutsAreHonored) {
  // Only meaningful in the CTest variant that sets the knobs; documents
  // the expected default otherwise.
  if (std::getenv("HIPCLOUD_NO_SHANI") != nullptr) {
    EXPECT_FALSE(shani::supported());
    EXPECT_STREQ(sha256_backend::active_name(), "scalar");
  }
  if (std::getenv("HIPCLOUD_NO_SHAMB") != nullptr) {
    EXPECT_EQ(shamb::lane_width(), 1u);
    // Width 1 reports the single-stream backend it falls back to.
    EXPECT_STREQ(shamb::active_name(), sha256_backend::active_name());
  }
}

}  // namespace
}  // namespace hipcloud::crypto
