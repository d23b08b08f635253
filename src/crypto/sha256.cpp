#include "crypto/sha256.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "crypto/sha_ni.hpp"

namespace hipcloud::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace sha256_backend {

namespace {
// kAuto by default; tests flip this with set_for_test(). Relaxed is fine:
// there is no data guarded by the flag, only a pure-function choice.
std::atomic<Kind> g_forced{Kind::kAuto};
}  // namespace

void compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t nblocks) {
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* p = blocks + 64 * blk;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(p[4 * i]) << 24) |
             (std::uint32_t(p[4 * i + 1]) << 16) |
             (std::uint32_t(p[4 * i + 2]) << 8) | std::uint32_t(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

void compress(std::uint32_t state[8], const std::uint8_t* blocks,
              std::size_t nblocks) {
  const Kind forced = g_forced.load(std::memory_order_relaxed);
  if (forced != Kind::kScalar && shani::supported()) {
    shani::compress(state, blocks, nblocks);
  } else {
    compress_scalar(state, blocks, nblocks);
  }
}

void set_for_test(Kind kind) {
  g_forced.store(kind, std::memory_order_relaxed);
}

const char* active_name() {
  return g_forced.load(std::memory_order_relaxed) != Kind::kScalar &&
                 shani::supported()
             ? "sha-ni"
             : "scalar";
}

}  // namespace sha256_backend

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t need = kBlockSize - buf_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      sha256_backend::compress(h_.data(), buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  // Hand all full blocks to the backend in one call so SHA-NI amortizes
  // its state shuffles across the whole run instead of per block.
  if (const std::size_t nblocks = (data.size() - off) / kBlockSize) {
    sha256_backend::compress(h_.data(), data.data() + off, nblocks);
    off += nblocks * kBlockSize;
  }
  if (off < data.size()) {
    buf_len_ = data.size() - off;
    std::memcpy(buf_.data(), data.data() + off, buf_len_);
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then 64-bit big-endian bit length.
  const std::uint8_t pad_byte = 0x80;
  update(BytesView(&pad_byte, 1));
  static const std::uint8_t zeros[kBlockSize] = {};
  while (buf_len_ != 56) {
    const std::size_t gap = buf_len_ < 56 ? 56 - buf_len_ : kBlockSize - buf_len_ + 56;
    update(BytesView(zeros, gap));
  }
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  update(BytesView(len_be, 8));
  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Sha256::Midstate Sha256::midstate() const {
  if (buf_len_ != 0) {
    throw std::logic_error("Sha256::midstate: not at a block boundary");
  }
  return Midstate{h_, total_len_};
}

void Sha256::restore(const Midstate& m) {
  h_ = m.h;
  total_len_ = m.processed_bytes;
  buf_len_ = 0;
}

Bytes Sha256::digest(BytesView data) {
  Sha256 h;
  h.update(data);
  const auto d = h.finish();
  return Bytes(d.begin(), d.end());
}

namespace {

using Sha1State = std::array<std::uint32_t, 5>;

constexpr Sha1State kSha1Init = {0x67452301, 0xEFCDAB89, 0x98BADCFE,
                                 0x10325476, 0xC3D2E1F0};

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

// One SHA-1 compression of the 64-byte block at `p` into `h`.
void sha1_compress(Sha1State& h, const std::uint8_t* p) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t(p[4 * i]) << 24) |
           (std::uint32_t(p[4 * i + 1]) << 16) |
           (std::uint32_t(p[4 * i + 2]) << 8) | std::uint32_t(p[4 * i + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) { f = (b & c) | (~b & d); k = 0x5A827999; }
    else if (i < 40) { f = b ^ c ^ d; k = 0x6ED9EBA1; }
    else if (i < 60) { f = (b & c) | (b & d) | (c & d); k = 0x8F1BBCDC; }
    else { f = b ^ c ^ d; k = 0xCA62C1D6; }
    const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
    e = d; d = c; c = rotl(b, 30); b = a; a = tmp;
  }
  h[0] += a; h[1] += b; h[2] += c; h[3] += d; h[4] += e;
}

Sha1Digest sha1_digest_of(const Sha1State& h) {
  Sha1Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h[i]);
  }
  return out;
}

// Appends FIPS 180-4 §5.1.1 padding for a `total`-byte message to the
// `len` tail bytes already in `buf` (len < 64) and returns the padded
// size: 64 bytes when len <= 55, else 128, which `buf` must hold.
std::size_t sha1_pad(std::uint8_t* buf, std::size_t len, std::uint64_t total) {
  buf[len++] = 0x80;
  const std::size_t padded = len <= 56 ? 64 : 128;
  std::memset(buf + len, 0, padded - 8 - len);
  const std::uint64_t bit_len = total * 8;
  for (int i = 0; i < 8; ++i) {
    buf[padded - 8 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  return padded;
}

}  // namespace

Sha1Digest sha1(BytesView data) {
  Sha1State h = kSha1Init;
  const std::size_t whole = data.size() / 64 * 64;
  for (std::size_t blk = 0; blk < whole; blk += 64) {
    sha1_compress(h, data.data() + blk);
  }
  // The tail and its padding: one or two blocks on the stack.
  std::uint8_t tail[128];
  const std::size_t len = data.size() - whole;
  if (len != 0) std::memcpy(tail, data.data() + whole, len);
  const std::size_t padded = sha1_pad(tail, len, data.size());
  for (std::size_t blk = 0; blk < padded; blk += 64) {
    sha1_compress(h, tail + blk);
  }
  return sha1_digest_of(h);
}

Sha1Block sha1_pad_block(BytesView message) {
  if (message.size() > 55) {
    throw std::invalid_argument("sha1_pad_block: message over 55 bytes");
  }
  Sha1Block block;
  if (!message.empty()) {
    std::memcpy(block.data(), message.data(), message.size());
  }
  sha1_pad(block.data(), message.size(), message.size());
  return block;
}

Sha1Digest sha1_block(const Sha1Block& block) {
  Sha1State h = kSha1Init;
  sha1_compress(h, block.data());
  return sha1_digest_of(h);
}

}  // namespace hipcloud::crypto
