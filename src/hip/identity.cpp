#include "hip/identity.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"

namespace hipcloud::hip {

using crypto::Bytes;
using crypto::BytesView;

HostIdentity HostIdentity::generate(crypto::HmacDrbg& drbg, HiAlgorithm algo,
                                    std::size_t rsa_bits) {
  HostIdentity hi;
  hi.algo_ = algo;
  hi.public_encoding_.push_back(static_cast<std::uint8_t>(algo));
  if (algo == HiAlgorithm::kRsa) {
    hi.rsa_ = crypto::rsa_generate(drbg, rsa_bits);
    const Bytes pub = hi.rsa_.pub.encode();
    hi.public_encoding_.insert(hi.public_encoding_.end(), pub.begin(),
                               pub.end());
  } else {
    hi.ec_ = crypto::p256::generate(drbg);
    const Bytes pub = crypto::p256::encode_point(hi.ec_.public_point);
    hi.public_encoding_.insert(hi.public_encoding_.end(), pub.begin(),
                               pub.end());
  }
  hi.hit_ = derive_hit(hi.public_encoding_);
  hi.nonce_drbg_ = crypto::HmacDrbg(drbg.generate(32));
  return hi;
}

net::Ipv6Addr HostIdentity::derive_hit(BytesView public_encoding) {
  // RFC 4843 ORCHID: 28-bit prefix 2001:10::/28 followed by 100 bits of
  // hash output. HIPv1 (RFC 5201) uses SHA-1 as the ORCHID hash.
  const crypto::Sha1Digest digest = crypto::sha1(public_encoding);
  std::array<std::uint8_t, 16> b{};
  b[0] = 0x20;
  b[1] = 0x01;
  b[2] = 0x00;
  b[3] = static_cast<std::uint8_t>(0x10 | (digest[0] & 0x0f));
  for (int i = 0; i < 12; ++i) b[4 + i] = digest[1 + i];
  return net::Ipv6Addr(b);
}

std::size_t HostIdentity::rsa_bits() const {
  if (algo_ != HiAlgorithm::kRsa) return 0;
  return rsa_.pub.n.bit_length();
}

Bytes HostIdentity::sign(BytesView message) const {
  if (algo_ == HiAlgorithm::kRsa) {
    return crypto::rsa_sign_pkcs1(rsa_.priv, message);
  }
  return crypto::p256::ecdsa_sign(ec_.private_scalar, nonce_drbg_, message)
      .encode();
}

bool HostIdentity::verify(BytesView public_encoding, BytesView message,
                          BytesView signature) {
  if (public_encoding.empty()) return false;
  try {
    const auto algo = static_cast<HiAlgorithm>(public_encoding[0]);
    if (algo == HiAlgorithm::kRsa) {
      const auto pub = crypto::RsaPublicKey::decode(public_encoding.subspan(1));
      return crypto::rsa_verify_pkcs1(pub, message, signature);
    }
    if (algo == HiAlgorithm::kEcdsa) {
      const auto point = crypto::p256::decode_point(public_encoding.subspan(1));
      return crypto::p256::ecdsa_verify(
          point, message, crypto::p256::Signature::decode(signature));
    }
  } catch (const std::runtime_error&) {
    return false;
  }
  return false;
}

}  // namespace hipcloud::hip
