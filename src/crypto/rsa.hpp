#pragma once

#include "crypto/bigint.hpp"
#include "crypto/bytes.hpp"

namespace hipcloud::crypto {

class HmacDrbg;

/// RSA public key (n, e).
struct RsaPublicKey {
  BigInt n;
  BigInt e;

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// Serialized form used for HIs on the wire and HIT derivation:
  /// len(e)[2] | e | n.
  Bytes encode() const;
  static RsaPublicKey decode(BytesView data);

  bool operator==(const RsaPublicKey& other) const = default;
};

/// RSA private key with CRT components for fast signing.
struct RsaPrivateKey {
  BigInt n, e, d;
  BigInt p, q, dp, dq, qinv;

  RsaPublicKey public_key() const { return {n, e}; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generate an RSA keypair with modulus of `bits` (e = 65537). Determinism
/// follows the DRBG, so identical seeds yield identical keys. Each distinct
/// (DRBG state, bits) is generated once per process; a repeat returns the
/// same keys and advances `drbg` exactly as the first call did.
RsaKeyPair rsa_generate(HmacDrbg& drbg, std::size_t bits);

/// Whether rsa_generate(drbg, bits) would find its key in the memo, built
/// or still being built by another thread. Never blocks and never draws
/// from `drbg`.
bool rsa_key_cached(const HmacDrbg& drbg, std::size_t bits);

/// PKCS#1 v1.5 signature over SHA-256(message). Returns modulus-width bytes.
Bytes rsa_sign_pkcs1(const RsaPrivateKey& key, BytesView message);

/// Verify a PKCS#1 v1.5 SHA-256 signature.
bool rsa_verify_pkcs1(const RsaPublicKey& key, BytesView message,
                      BytesView signature);

/// PKCS#1 v1.5 encryption (type-2 padding) — used by the TLS baseline's
/// RSA key exchange. Plaintext must be at most modulus_bytes - 11.
Bytes rsa_encrypt_pkcs1(const RsaPublicKey& key, HmacDrbg& drbg,
                        BytesView plaintext);

/// Throws std::runtime_error on padding failure.
Bytes rsa_decrypt_pkcs1(const RsaPrivateKey& key, BytesView ciphertext);

}  // namespace hipcloud::crypto
