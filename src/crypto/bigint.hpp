#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/bytes.hpp"

namespace hipcloud::crypto {

class HmacDrbg;

/// Arbitrary-precision unsigned integer, 32-bit little-endian limbs.
///
/// Supports everything the public-key layer needs: +, -, *, divmod,
/// shifts, modular exponentiation (Montgomery for odd moduli), modular
/// inverse and GCD. Subtraction below zero throws — the protocol code
/// never needs signed values; the extended Euclid below handles signs
/// internally.
class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal ergonomics

  static BigInt from_bytes_be(BytesView data);
  static BigInt from_hex(std::string_view hex);

  /// Big-endian bytes, left-padded with zeros to at least `min_width`.
  Bytes to_bytes_be(std::size_t min_width = 0) const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;
  void set_bit(std::size_t i);

  std::strong_ordering operator<=>(const BigInt& other) const;
  bool operator==(const BigInt& other) const { return limbs_ == other.limbs_; }

  BigInt operator+(const BigInt& rhs) const;
  /// Throws std::underflow_error if rhs > *this.
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder; throws std::domain_error on divide-by-zero.
  std::pair<BigInt, BigInt> divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& rhs) const { return divmod(rhs).first; }
  BigInt operator%(const BigInt& rhs) const { return divmod(rhs).second; }

  /// (this ^ exp) mod m. For odd m: fixed 4-bit-window exponentiation
  /// with Montgomery multiplication on 64-bit words; otherwise plain
  /// square-and-multiply with divmod. Not constant-time.
  BigInt mod_exp(const BigInt& exp, const BigInt& m) const;

  /// Multiplicative inverse mod m; throws std::domain_error when
  /// gcd(this, m) != 1.
  BigInt mod_inverse(const BigInt& m) const;

  static BigInt gcd(BigInt a, BigInt b);

  /// Uniform random value in [0, bound) drawn from the DRBG.
  static BigInt random_below(HmacDrbg& drbg, const BigInt& bound);

  /// Random integer with exactly `bits` bits (MSB set).
  static BigInt random_bits(HmacDrbg& drbg, std::size_t bits);

  /// Miller-Rabin probabilistic primality test with `rounds` bases drawn
  /// from the DRBG (plus deterministic small-prime trial division).
  static bool is_probable_prime(const BigInt& n, HmacDrbg& drbg,
                                int rounds = 20);

  /// Generate a random probable prime with exactly `bits` bits.
  static BigInt generate_prime(HmacDrbg& drbg, std::size_t bits);

 private:
  void trim();
  class Montgomery;  // odd-modulus kernel, defined in bigint.cpp

  std::vector<std::uint32_t> limbs_;  // little-endian; no trailing zeros
};

}  // namespace hipcloud::crypto
