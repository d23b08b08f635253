#include "crypto/drbg.hpp"

#include "crypto/hmac.hpp"

namespace hipcloud::crypto {

HmacDrbg::HmacDrbg(BytesView seed) : key_(32, 0x00), v_(32, 0x01) {
  update(seed);
}

HmacDrbg::HmacDrbg(std::uint64_t seed, std::string_view personalization)
    : key_(32, 0x00), v_(32, 0x01) {
  Bytes s;
  append_be(s, seed, 8);
  const Bytes p = to_bytes(personalization);
  s.insert(s.end(), p.begin(), p.end());
  update(s);
}

void HmacDrbg::update(BytesView provided) {
  Bytes input = v_;
  input.push_back(0x00);
  input.insert(input.end(), provided.begin(), provided.end());
  key_ = hmac_sha256(key_, input);
  v_ = hmac_sha256(key_, v_);
  if (!provided.empty()) {
    input = v_;
    input.push_back(0x01);
    input.insert(input.end(), provided.begin(), provided.end());
    key_ = hmac_sha256(key_, input);
    v_ = hmac_sha256(key_, v_);
  }
}

Bytes HmacDrbg::generate(std::size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    v_ = hmac_sha256(key_, v_);
    const std::size_t take = std::min(v_.size(), n - out.size());
    out.insert(out.end(), v_.begin(), v_.begin() + static_cast<long>(take));
  }
  update({});
  return out;
}

void HmacDrbg::reseed(BytesView input) { update(input); }

Bytes HmacDrbg::state() const {
  Bytes s = key_;
  s.insert(s.end(), v_.begin(), v_.end());
  return s;
}

}  // namespace hipcloud::crypto
