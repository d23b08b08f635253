#include "hip/puzzle.hpp"

#include <algorithm>
#include <cmath>

#include "crypto/sha256.hpp"

namespace hipcloud::hip {

namespace {

// The input I | HIT-I | HIT-R | J is 48 bytes; J is its last 8.
constexpr std::size_t kJOffset = 8 + 16 + 16;

void put_be64(std::uint8_t* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * (7 - i)));
  }
}

bool low_bits_zero(const crypto::Sha1Digest& digest, int k) {
  // Check the lowest k bits of the digest (big-endian byte order: the
  // tail of the digest). No digest has more zero bits than it has bits.
  if (k > static_cast<int>(digest.size()) * 8) return false;
  int idx = static_cast<int>(digest.size()) - 1;
  while (k >= 8) {
    if (digest[idx--] != 0) return false;
    k -= 8;
  }
  if (k > 0) {
    const std::uint8_t mask = static_cast<std::uint8_t>((1u << k) - 1);
    if (digest[idx] & mask) return false;
  }
  return true;
}

// The input with J = 0, padded into its one SHA-1 block: an attempt
// rewrites only J.
crypto::Sha1Block puzzle_block(std::uint64_t i, const net::Ipv6Addr& hit_i,
                               const net::Ipv6Addr& hit_r) {
  std::uint8_t input[kJOffset + 8] = {};
  put_be64(input, i);
  std::copy(hit_i.bytes().begin(), hit_i.bytes().end(), input + 8);
  std::copy(hit_r.bytes().begin(), hit_r.bytes().end(), input + 24);
  return crypto::sha1_pad_block(input);
}

bool solves(crypto::Sha1Block& block, std::uint64_t j, int k) {
  put_be64(block.data() + kJOffset, j);
  return low_bits_zero(crypto::sha1_block(block), k);
}

}  // namespace

double Puzzle::expected_attempts() const {
  return std::ldexp(1.0, difficulty_k);
}

Puzzle::Solution Puzzle::solve(const net::Ipv6Addr& initiator_hit,
                               const net::Ipv6Addr& responder_hit) const {
  Solution solution;
  if (difficulty_k == 0) {
    solution.attempts = 1;
    return solution;
  }
  crypto::Sha1Block block =
      puzzle_block(random_i, initiator_hit, responder_hit);
  for (std::uint64_t j = 0;; ++j) {
    ++solution.attempts;
    if (solves(block, j, difficulty_k)) {
      solution.j = j;
      return solution;
    }
  }
}

bool Puzzle::verify(const net::Ipv6Addr& initiator_hit,
                    const net::Ipv6Addr& responder_hit,
                    std::uint64_t j) const {
  if (difficulty_k == 0) return true;
  crypto::Sha1Block block =
      puzzle_block(random_i, initiator_hit, responder_hit);
  return solves(block, j, difficulty_k);
}

}  // namespace hipcloud::hip
