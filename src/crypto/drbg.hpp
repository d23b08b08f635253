#pragma once

#include <cstdint>

#include "crypto/bytes.hpp"

namespace hipcloud::crypto {

/// HMAC-DRBG (NIST SP 800-90A, HMAC-SHA256 variant, no reseed counter
/// enforcement). Used for all key material in the simulator so scenarios
/// are deterministic: every host seeds its DRBG from the scenario seed
/// plus its own name.
class HmacDrbg {
 public:
  explicit HmacDrbg(BytesView seed);
  /// Convenience: seed from a 64-bit value plus a personalization string.
  HmacDrbg(std::uint64_t seed, std::string_view personalization);

  /// Generate `n` pseudo-random bytes.
  Bytes generate(std::size_t n);

  /// Mix additional entropy/state into the generator.
  void reseed(BytesView input);

  /// The whole generator state, K || V: two generators with equal state
  /// produce the same output from here on.
  Bytes state() const;

 private:
  void update(BytesView provided);

  Bytes key_;  // K
  Bytes v_;    // V
};

}  // namespace hipcloud::crypto
