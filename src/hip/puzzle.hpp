#pragma once

#include <cstdint>

#include "crypto/bytes.hpp"
#include "net/address.hpp"

namespace hipcloud::hip {

/// The largest puzzle difficulty K either side of a BEX accepts. A
/// responder never asks for more (its configured K must not exceed it, and
/// the adaptive raise stops there), and an initiator drops an R1 that
/// does before solving anything: K comes off the wire, and solving costs
/// ~2^K host-side hashes.
inline constexpr std::uint8_t kMaxPuzzleDifficulty = 30;

/// The HIP computational puzzle (RFC 5201 §4.1.2): the responder sends a
/// random value I and difficulty K; the initiator must find J such that
/// the lowest K bits of SHA-1(I | HIT-I | HIT-R | J) are zero. Solving
/// costs ~2^K hashes; verification costs one. This is HIP's DoS defence —
/// a loaded responder raises K to slow initiators down.
struct Puzzle {
  std::uint8_t difficulty_k = 0;  // 0 disables the puzzle
  std::uint64_t random_i = 0;

  /// Brute-force a solution. Returns J and the number of attempts
  /// (callers charge attempts * puzzle_hash_cycles to the CPU model).
  /// Runs ~2^K attempts, so callers bound K first (kMaxPuzzleDifficulty);
  /// above 160, the digest's width, no J solves.
  struct Solution {
    std::uint64_t j = 0;
    std::uint64_t attempts = 0;
  };
  Solution solve(const net::Ipv6Addr& initiator_hit,
                 const net::Ipv6Addr& responder_hit) const;

  /// Single-hash check of a claimed solution.
  bool verify(const net::Ipv6Addr& initiator_hit,
              const net::Ipv6Addr& responder_hit, std::uint64_t j) const;

  /// Expected solving attempts at this difficulty: 2^K, for every K.
  double expected_attempts() const;
};

}  // namespace hipcloud::hip
