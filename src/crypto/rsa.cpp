#include "crypto/rsa.hpp"

#include <stdexcept>

#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "sim/memo.hpp"

namespace hipcloud::crypto {

Bytes RsaPublicKey::encode() const {
  const Bytes eb = e.to_bytes_be();
  const Bytes nb = n.to_bytes_be();
  Bytes out;
  append_be(out, eb.size(), 2);
  out.insert(out.end(), eb.begin(), eb.end());
  out.insert(out.end(), nb.begin(), nb.end());
  return out;
}

RsaPublicKey RsaPublicKey::decode(BytesView data) {
  if (data.size() < 3) throw std::runtime_error("RsaPublicKey: truncated");
  const auto elen = static_cast<std::size_t>(read_be(data, 0, 2));
  if (2 + elen >= data.size()) {
    throw std::runtime_error("RsaPublicKey: truncated");
  }
  RsaPublicKey key;
  key.e = BigInt::from_bytes_be(data.subspan(2, elen));
  key.n = BigInt::from_bytes_be(data.subspan(2 + elen));
  return key;
}

namespace {

// Draws primes from `drbg` until they make a valid `bits`-bit key.
RsaKeyPair generate_uncached(HmacDrbg& drbg, std::size_t bits) {
  const BigInt e(65537);
  for (;;) {
    BigInt p = BigInt::generate_prime(drbg, bits / 2);
    BigInt q = BigInt::generate_prime(drbg, bits / 2);
    if (p == q) continue;
    if (p < q) std::swap(p, q);
    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (!(BigInt::gcd(e, phi) == BigInt(1))) continue;
    const BigInt d = e.mod_inverse(phi);
    RsaPrivateKey priv;
    priv.n = n;
    priv.e = e;
    priv.d = d;
    priv.p = p;
    priv.q = q;
    priv.dp = d % (p - BigInt(1));
    priv.dq = d % (q - BigInt(1));
    priv.qinv = q.mod_inverse(p);
    return {priv.public_key(), priv};
  }
}

// One generation's result: the key pair and the DRBG as it was left.
struct Generated {
  RsaKeyPair keys;
  HmacDrbg drbg_after;
};

// Key generation is a pure function of the DRBG state on entry and the
// bit size, so those two are the memo's key (DESIGN.md §5b).
const sim::Memo<Bytes, Generated>& key_memo() {
  static const sim::Memo<Bytes, Generated> memo{};
  return memo;
}

Bytes memo_key(const HmacDrbg& drbg, std::size_t bits) {
  Bytes id = drbg.state();
  append_be(id, bits, 8);
  return id;
}

}  // namespace

bool rsa_key_cached(const HmacDrbg& drbg, std::size_t bits) {
  return key_memo().contains(memo_key(drbg, bits));
}

RsaKeyPair rsa_generate(HmacDrbg& drbg, std::size_t bits) {
  if (bits < 128 || bits % 2 != 0) {
    throw std::invalid_argument("rsa_generate: bits must be even and >= 128");
  }
  Generated g = key_memo().get(memo_key(drbg, bits), [&drbg, bits] {
    HmacDrbg work = drbg;
    RsaKeyPair keys = generate_uncached(work, bits);
    return Generated{std::move(keys), std::move(work)};
  });
  drbg = std::move(g.drbg_after);
  return std::move(g.keys);
}

namespace {

// RSA private operation with CRT: ~4x faster than a full-width mod_exp.
BigInt rsa_private_op(const RsaPrivateKey& key, const BigInt& c) {
  const BigInt m1 = c.mod_exp(key.dp, key.p);
  const BigInt m2 = c.mod_exp(key.dq, key.q);
  // h = qinv * (m1 - m2) mod p, handling m1 < m2.
  BigInt diff;
  if (m1 >= m2) {
    diff = m1 - m2;
  } else {
    diff = key.p - ((m2 - m1) % key.p);
  }
  const BigInt h = (key.qinv * diff) % key.p;
  return m2 + key.q * h;
}

// DER prefix for a SHA-256 DigestInfo (RFC 8017 §9.2 note 1).
const std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

Bytes emsa_pkcs1_v15(BytesView message, std::size_t em_len) {
  const Bytes digest = Sha256::digest(message);
  const std::size_t t_len = sizeof(kSha256DigestInfo) + digest.size();
  if (em_len < t_len + 11) {
    throw std::invalid_argument("emsa_pkcs1_v15: modulus too small");
  }
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t_len - 3, 0xff);
  em.push_back(0x00);
  em.insert(em.end(), kSha256DigestInfo,
            kSha256DigestInfo + sizeof(kSha256DigestInfo));
  em.insert(em.end(), digest.begin(), digest.end());
  return em;
}

}  // namespace

Bytes rsa_sign_pkcs1(const RsaPrivateKey& key, BytesView message) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  const Bytes em = emsa_pkcs1_v15(message, k);
  const BigInt m = BigInt::from_bytes_be(em);
  const BigInt s = rsa_private_op(key, m);
  return s.to_bytes_be(k);
}

bool rsa_verify_pkcs1(const RsaPublicKey& key, BytesView message,
                      BytesView signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes_be(signature);
  if (s >= key.n) return false;
  const BigInt m = s.mod_exp(key.e, key.n);
  const Bytes em = m.to_bytes_be(k);
  Bytes expected;
  try {
    expected = emsa_pkcs1_v15(message, k);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return ct_equal(em, expected);
}

Bytes rsa_encrypt_pkcs1(const RsaPublicKey& key, HmacDrbg& drbg,
                        BytesView plaintext) {
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 11 > k) {
    throw std::invalid_argument("rsa_encrypt_pkcs1: message too long");
  }
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  const std::size_t pad_len = k - plaintext.size() - 3;
  while (em.size() < 2 + pad_len) {
    // Non-zero random padding bytes.
    const Bytes r = drbg.generate(pad_len);
    for (std::uint8_t b : r) {
      if (b != 0 && em.size() < 2 + pad_len) em.push_back(b);
    }
  }
  em.push_back(0x00);
  em.insert(em.end(), plaintext.begin(), plaintext.end());
  const BigInt m = BigInt::from_bytes_be(em);
  return m.mod_exp(key.e, key.n).to_bytes_be(k);
}

Bytes rsa_decrypt_pkcs1(const RsaPrivateKey& key, BytesView ciphertext) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != k) {
    throw std::runtime_error("rsa_decrypt_pkcs1: bad length");
  }
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= key.n) throw std::runtime_error("rsa_decrypt_pkcs1: out of range");
  const Bytes em = rsa_private_op(key, c).to_bytes_be(k);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    throw std::runtime_error("rsa_decrypt_pkcs1: bad padding");
  }
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep < 10 || sep == em.size()) {
    throw std::runtime_error("rsa_decrypt_pkcs1: bad padding");
  }
  return Bytes(em.begin() + static_cast<long>(sep) + 1, em.end());
}

}  // namespace hipcloud::crypto
