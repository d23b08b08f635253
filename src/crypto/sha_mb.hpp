#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace hipcloud::crypto {

/// Multi-buffer SHA-256: hashes N *independent* messages in lock-step by
/// keeping one message per SIMD lane (8 lanes under AVX2, 2 interleaved
/// SHA-NI streams on SHA-NI hosts). Unlike a
/// single SHA-NI stream, these tiers scale with batch width, which is
/// exactly the shape of the ESP send queue: many small packets wanting
/// independent ICVs in the same event tick. Digests are byte-identical
/// to Sha256 at every lane width (pinned by
/// tests/crypto/sha_parity_test.cpp).
namespace shamb {

/// Upper bound on lanes any backend steps at once (AVX2 width).
inline constexpr std::size_t kMaxLanes = 8;

/// Lanes the active backend compresses per step: 8 (AVX2), 2 (two
/// interleaved SHA-NI streams — the default on SHA-NI hosts), or 1
/// (per-lane fallback through sha256_backend, which may itself be
/// SHA-NI). Honors `HIPCLOUD_NO_SHAMB` (force 1), read once at first use.
std::size_t lane_width();

/// Test hook mirroring sha256_backend::set_for_test: cap the lane width
/// in-process (0 = auto, else 1/2/8). Lets the parity fuzz test sweep
/// every tier in a single run regardless of env.
void set_lane_cap_for_test(std::size_t cap);

/// Name of the widest tier compress_blocks() would use ("avx2-x8",
/// "sha-ni-x2", or at width 1 the single-stream backend's name).
const char* active_name();

/// Advance `nlanes` independent SHA-256 states by `nblocks` 64-byte
/// blocks each: states[l] absorbs blocks[l][0 .. 64*nblocks). Splits
/// internally into x8 SIMD groups plus a pairwise/per-lane tail, so any
/// nlanes is legal. The per-lane block streams must not alias.
void compress_blocks(std::uint32_t (*states)[8],
                     const std::uint8_t* const* blocks, std::size_t nlanes,
                     std::size_t nblocks);

}  // namespace shamb

/// Batched HMAC-SHA256: same key schedule as HmacSha256 (the lanes start
/// from the identical ipad/opad midstates) but computes up to N tags per
/// multi-buffer pass. Keep one keyed instance per SA next to the
/// streaming MAC; compute() is const and heap-free, so it is safe on the
/// packet path.
class HmacSha256Mb {
 public:
  static constexpr std::size_t kDigestSize = HmacSha256::kDigestSize;

  HmacSha256Mb() = default;
  explicit HmacSha256Mb(BytesView key) : mac_(key) {}

  /// One MAC computation: `mac` receives the full 32-byte tag (callers
  /// truncate for ICVs). `data` may be null only when len == 0.
  struct Job {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    std::uint8_t* mac = nullptr;
  };

  /// Compute all jobs' tags, lane_width() messages per SIMD pass.
  /// Bit-identical to running HmacSha256 per job; allocation-free.
  void compute(Job* jobs, std::size_t njobs) const;

 private:
  HmacSha256 mac_;  // holds the precomputed inner/outer midstates
};

}  // namespace hipcloud::crypto
