#pragma once

// Self-contained "before" reference implementations for micro_crypto:
//
//  - AesRef: the byte-oriented S-box AES-128 the datapath started from
//    (plain SubBytes/ShiftRows/MixColumns per byte, no T-tables, no
//    AES-NI), with the seed's allocating aes_ctr shape on top.
//  - LegacyEspProtect: the seed's EspSa::protect() datapath — separate
//    plaintext/IV/ciphertext/ICV temporaries assembled with inserts and a
//    per-packet re-keyed HMAC (~5 heap allocations per packet).
//
// These live in the bench (not the library) on purpose: the library keeps
// one implementation; the bench keeps the yardstick.

#include <array>
#include <cstdint>
#include <cstring>

#include "crypto/aes.hpp"
#include "crypto/bytes.hpp"
#include "crypto/hmac.hpp"

namespace hipcloud::bench {

// ---------------------------------------------------------------------------
// Reference S-box AES-128 ("before")

class AesRef {
 public:
  explicit AesRef(crypto::BytesView key16) {
    const std::uint8_t* sbox = get_sbox();
    std::memcpy(rk_, key16.data(), 16);
    std::uint8_t rcon = 0x01;
    for (int i = 4; i < 44; ++i) {
      std::uint8_t t[4];
      std::memcpy(t, rk_ + 4 * (i - 1), 4);
      if (i % 4 == 0) {
        const std::uint8_t hi = t[0];
        t[0] = static_cast<std::uint8_t>(sbox[t[1]] ^ rcon);
        t[1] = sbox[t[2]];
        t[2] = sbox[t[3]];
        t[3] = sbox[hi];
        rcon = xtime(rcon);
      }
      for (int j = 0; j < 4; ++j) {
        rk_[4 * i + j] = static_cast<std::uint8_t>(rk_[4 * (i - 4) + j] ^ t[j]);
      }
    }
  }

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
    const std::uint8_t* sbox = get_sbox();
    std::uint8_t s[16];
    for (int i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(in[i] ^ rk_[i]);
    for (int round = 1; round <= 10; ++round) {
      for (auto& b : s) b = sbox[b];
      shift_rows(s);
      if (round != 10) mix_columns(s);
      for (int i = 0; i < 16; ++i) s[i] ^= rk_[16 * round + i];
    }
    std::memcpy(out, s, 16);
  }

  /// The seed's allocating aes_ctr: fresh output vector, one
  /// encrypt_block per 16 bytes.
  crypto::Bytes ctr(crypto::BytesView nonce12, std::uint32_t initial_counter,
                    crypto::BytesView data) const {
    crypto::Bytes out(data.begin(), data.end());
    std::uint8_t counter_block[16];
    std::memcpy(counter_block, nonce12.data(), 12);
    std::uint32_t ctr_v = initial_counter;
    std::uint8_t keystream[16];
    for (std::size_t off = 0; off < out.size(); off += 16) {
      counter_block[12] = static_cast<std::uint8_t>(ctr_v >> 24);
      counter_block[13] = static_cast<std::uint8_t>(ctr_v >> 16);
      counter_block[14] = static_cast<std::uint8_t>(ctr_v >> 8);
      counter_block[15] = static_cast<std::uint8_t>(ctr_v);
      ++ctr_v;
      encrypt_block(counter_block, keystream);
      const std::size_t n = out.size() - off < 16 ? out.size() - off : 16;
      for (std::size_t i = 0; i < n; ++i) out[off + i] ^= keystream[i];
    }
    return out;
  }

 private:
  static std::uint8_t xtime(std::uint8_t x) {
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
  }

  // S-box computed once (multiplicative inverse + affine transform) — the
  // baseline has the table, it just works byte-at-a-time like the seed.
  static const std::uint8_t* get_sbox() {
    static const auto table = [] {
      std::array<std::uint8_t, 256> sbox{};
      std::uint8_t inv[256] = {0};
      for (int a = 1; a < 256; ++a) {
        for (int b = 1; b < 256; ++b) {
          if (gmul(static_cast<std::uint8_t>(a),
                   static_cast<std::uint8_t>(b)) == 1) {
            inv[a] = static_cast<std::uint8_t>(b);
            break;
          }
        }
      }
      for (int i = 0; i < 256; ++i) {
        const std::uint8_t x = inv[i];
        sbox[i] = static_cast<std::uint8_t>(
            x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63);
      }
      return sbox;
    }();
    return table.data();
  }

  static std::uint8_t rotl8(std::uint8_t x, int n) {
    return static_cast<std::uint8_t>((x << n) | (x >> (8 - n)));
  }

  static std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
    std::uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
      if (b & 1) p ^= a;
      a = xtime(a);
      b >>= 1;
    }
    return p;
  }

  static void shift_rows(std::uint8_t s[16]) {
    std::uint8_t t[16];
    for (int c = 0; c < 4; ++c) {
      for (int r = 0; r < 4; ++r) t[4 * c + r] = s[4 * ((c + r) % 4) + r];
    }
    std::memcpy(s, t, 16);
  }

  static void mix_columns(std::uint8_t s[16]) {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = s + 4 * c;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3);
      col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3);
      col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3);
      col[3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3));
    }
  }

  std::uint8_t rk_[176];
};

// ---------------------------------------------------------------------------
// Legacy ESP protect ("before"): the seed's allocation-per-stage datapath.

class LegacyEspProtect {
 public:
  LegacyEspProtect(std::uint32_t spi, crypto::BytesView enc_key,
                   crypto::BytesView auth_key)
      : spi_(spi),
        cipher_(enc_key.subspan(0, 16)),
        auth_key_(auth_key.begin(), auth_key.end()) {}

  crypto::Bytes protect(std::uint8_t inner_proto, std::uint8_t addr_mode,
                        crypto::BytesView payload) {
    crypto::Bytes plaintext;
    plaintext.reserve(2 + payload.size());
    plaintext.push_back(inner_proto);
    plaintext.push_back(addr_mode);
    plaintext.insert(plaintext.end(), payload.begin(), payload.end());

    crypto::Bytes iv(16, 0);
    crypto::append_be(iv, spi_, 4);
    crypto::append_be(iv, iv_counter_++, 8);
    iv.erase(iv.begin(), iv.begin() + 12);
    iv.resize(16, 0);

    crypto::Bytes ciphertext = crypto::aes_ctr(
        cipher_, crypto::BytesView(iv).subspan(0, 12),
        static_cast<std::uint32_t>(crypto::read_be(iv, 12, 4)), plaintext);

    crypto::Bytes wire;
    wire.reserve(4 + 4 + 16 + ciphertext.size() + 12);
    crypto::append_be(wire, spi_, 4);
    crypto::append_be(wire, next_seq_++, 4);
    wire.insert(wire.end(), iv.begin(), iv.end());
    wire.insert(wire.end(), ciphertext.begin(), ciphertext.end());
    crypto::Bytes icv = crypto::hmac_sha256(auth_key_, wire);
    icv.resize(12);
    wire.insert(wire.end(), icv.begin(), icv.end());
    return wire;
  }

 private:
  std::uint32_t spi_;
  crypto::Aes cipher_;
  crypto::Bytes auth_key_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t iv_counter_ = 1;
};

}  // namespace hipcloud::bench
