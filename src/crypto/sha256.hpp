#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.hpp"

namespace hipcloud::crypto {

/// Block-compression backend shared by Sha256 (streaming) and the
/// multi-buffer scheduler in sha_mb.cpp. Dispatches once per call between
/// the scalar compression and the SHA-NI kernel (sha_ni.cpp) based on
/// CPUID — the digests are byte-identical either way (pinned by
/// tests/crypto/sha_parity_test.cpp).
namespace sha256_backend {

enum class Kind {
  kAuto,    // runtime CPUID dispatch (production default)
  kScalar,  // force the portable compression
  kShaNi,   // prefer SHA-NI; silently falls back to scalar if unsupported
};

/// Compress `nblocks` consecutive 64-byte blocks into `state` using the
/// active backend.
void compress(std::uint32_t state[8], const std::uint8_t* blocks,
              std::size_t nblocks);

/// The portable compression, always available (parity reference).
void compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks);

/// Test hook: override the dispatch for the whole process. Unlike the
/// HIPCLOUD_NO_SHANI env knob (read once), this switches backends
/// in-process so parity tests can interleave them.
void set_for_test(Kind kind);

/// Name of the backend compress() would use right now ("sha-ni"/"scalar").
const char* active_name();

}  // namespace sha256_backend

/// Incremental SHA-256 (FIPS 180-4). Implemented from scratch; verified
/// against the NIST test vectors in tests/crypto/sha256_test.cpp.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalize and return the 32-byte digest. The object must be reset()
  /// before reuse.
  std::array<std::uint8_t, kDigestSize> finish();

  /// One-shot convenience.
  static Bytes digest(BytesView data);

  /// Captured compression state at a block boundary. Lets HMAC precompute
  /// the keyed inner/outer pad blocks once and restart from them per
  /// message instead of rehashing 64 key bytes every call.
  struct Midstate {
    std::array<std::uint32_t, 8> h;
    std::uint64_t processed_bytes;
  };

  /// Snapshot the state. Only valid at a block boundary (no buffered
  /// partial block); throws std::logic_error otherwise.
  Midstate midstate() const;

  /// Reset to a previously captured midstate.
  void restore(const Midstate& m);

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// SHA-1 (FIPS 180-4) — needed because HIPv1 (RFC 5201) derives HITs and
/// puzzle digests with SHA-1. One-shot only; not for new designs. None of
/// the functions below allocates.
using Sha1Digest = std::array<std::uint8_t, 20>;
Sha1Digest sha1(BytesView data);

/// A message of at most 55 bytes padded into its one SHA-1 block (FIPS
/// 180-4 §5.1.1). A caller that hashes many messages of one length which
/// differ in a few bytes (the HIP puzzle's J) pads once, rewrites those
/// bytes in place and hashes the block each time with sha1_block().
using Sha1Block = std::array<std::uint8_t, 64>;
/// Throws std::invalid_argument above 55 bytes.
Sha1Block sha1_pad_block(BytesView message);
/// sha1() of the message padded into `block`: a single compression.
Sha1Digest sha1_block(const Sha1Block& block);

}  // namespace hipcloud::crypto
