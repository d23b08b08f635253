#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/drbg.hpp"

namespace hipcloud::crypto {
namespace {

// Reference for the differential tests: right-to-left square-and-multiply
// on operator* and operator% only, sharing no code with mod_exp.
BigInt reference_mod_exp(const BigInt& base, const BigInt& exp,
                         const BigInt& m) {
  BigInt result = BigInt(1) % m;
  BigInt power = base % m;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * power) % m;
    power = (power * power) % m;
  }
  return result;
}

// True when n passes one Miller-Rabin round to base a.
bool strong_probable_prime(const BigInt& n, const BigInt& a) {
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  BigInt x = a.mod_exp(d, n);
  if (x == BigInt(1) || x == n_minus_1) return true;
  for (std::size_t i = 1; i < s; ++i) {
    x = (x * x) % n;
    if (x == n_minus_1) return true;
  }
  return false;
}

TEST(BigInt, ConstructionAndHex) {
  EXPECT_EQ(BigInt().to_hex(), "0");
  EXPECT_EQ(BigInt(0x1234).to_hex(), "1234");
  EXPECT_EQ(BigInt(0xffffffffffffffffULL).to_hex(), "ffffffffffffffff");
  EXPECT_EQ(BigInt::from_hex("deadbeefcafebabe0123456789").to_hex(),
            "deadbeefcafebabe0123456789");
}

TEST(BigInt, BytesRoundTrip) {
  const Bytes b = from_hex("00ffee0102030405060708090a0b0c0d0e0f");
  const BigInt v = BigInt::from_bytes_be(b);
  // Leading zero byte is dropped on re-encode unless padded.
  EXPECT_EQ(to_hex(v.to_bytes_be()), "ffee0102030405060708090a0b0c0d0e0f");
  EXPECT_EQ(v.to_bytes_be(18).size(), 18u);
  EXPECT_EQ(v.to_bytes_be(18)[0], 0);
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt(5), BigInt(7));
  EXPECT_GT(BigInt::from_hex("100000000"), BigInt(0xffffffff));
  EXPECT_EQ(BigInt(42), BigInt(42));
  EXPECT_LT(BigInt(), BigInt(1));
}

TEST(BigInt, AddSubInverse) {
  const BigInt a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  const BigInt b = BigInt::from_hex("123456789abcdef0");
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ((a + a) - a, a);
  EXPECT_THROW(b - a, std::underflow_error);
}

TEST(BigInt, AddCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_hex("ffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).to_hex(), "10000000000000000");
}

TEST(BigInt, MulKnownValues) {
  EXPECT_EQ((BigInt(0xffffffff) * BigInt(0xffffffff)).to_hex(),
            "fffffffe00000001");
  const BigInt a = BigInt::from_hex("123456789abcdef0123456789abcdef0");
  const BigInt one(1);
  EXPECT_EQ(a * one, a);
  EXPECT_TRUE((a * BigInt()).is_zero());
}

TEST(BigInt, ShiftRoundTrip) {
  const BigInt a = BigInt::from_hex("deadbeef12345678");
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((a << s) >> s, a) << s;
  }
  EXPECT_EQ((BigInt(1) << 128).bit_length(), 129u);
}

TEST(BigInt, DivmodIdentity) {
  // Property: a == q*b + r with r < b, across sizes and shapes.
  HmacDrbg drbg(1, "divmod");
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_bits(drbg, 256 + (i % 64));
    const BigInt b = BigInt::random_bits(drbg, 32 + (i * 7) % 200);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigInt, DivmodEdgeCases) {
  EXPECT_THROW(BigInt(1).divmod(BigInt()), std::domain_error);
  const BigInt a = BigInt::from_hex("123456789");
  EXPECT_EQ(a / a, BigInt(1));
  EXPECT_TRUE((a % a).is_zero());
  EXPECT_TRUE((a / (a + BigInt(1))).is_zero());
  EXPECT_EQ(a % (a + BigInt(1)), a);
}

TEST(BigInt, DivmodKnuthAddBackCase) {
  // Exercise the rare "add back" branch with a crafted near-boundary case.
  const BigInt u = BigInt::from_hex("7fffffff800000010000000000000000");
  const BigInt v = BigInt::from_hex("800000008000000200000005");
  const auto [q, r] = u.divmod(v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(BigInt, ModExpSmallKnownValues) {
  EXPECT_EQ(BigInt(4).mod_exp(BigInt(13), BigInt(497)), BigInt(445));
  EXPECT_EQ(BigInt(2).mod_exp(BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(BigInt(7).mod_exp(BigInt(), BigInt(13)), BigInt(1));  // x^0
}

TEST(BigInt, ModExpMatchesNaive) {
  HmacDrbg drbg(2, "modexp");
  for (int i = 0; i < 10; ++i) {
    const BigInt base = BigInt::random_bits(drbg, 64);
    const BigInt exp = BigInt::random_bits(drbg, 16);
    BigInt mod = BigInt::random_bits(drbg, 64);
    mod.set_bit(0);  // odd -> Montgomery path
    // Naive repeated multiplication.
    BigInt naive(1);
    const std::uint64_t e =
        std::stoull(exp.to_hex(), nullptr, 16);
    for (std::uint64_t j = 0; j < e % 1000; ++j) {
      naive = (naive * base) % mod;
    }
    const BigInt expected = naive;
    EXPECT_EQ(base.mod_exp(BigInt(e % 1000), mod), expected);
  }
}

TEST(BigInt, ModExpMatchesReferenceAcrossWidths) {
  HmacDrbg drbg(9, "modexp-diff");
  // Odd moduli from 1 to 2048 bits: 1 bit is m = 1 and 2 bits is m = 3;
  // 32k+1 bits gives an odd number of 32-bit limbs with a top limb of 1
  // (half of the kernel's top 64-bit word).
  for (const std::size_t bits :
       {1u, 2u, 5u, 31u, 32u, 33u, 63u, 64u, 65u, 96u, 97u, 127u, 160u,
        255u, 256u, 257u, 511u, 512u, 513u, 1023u, 1024u, 1025u, 1536u,
        2047u, 2048u}) {
    BigInt m = BigInt::random_bits(drbg, bits);
    m.set_bit(0);
    const std::vector<BigInt> bases = {
        BigInt(), m - BigInt(1), BigInt::random_below(drbg, m),
        BigInt::random_bits(drbg, bits + 37),  // >= m
        m};
    // Exponent lengths 0 and 1, lengths on either side of the 4-bit
    // window, and full width.
    for (const std::size_t exp_bits :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{9},
          std::size_t{66}, bits, bits + 3}) {
      const BigInt exp = BigInt::random_bits(drbg, exp_bits);
      for (const BigInt& base : bases) {
        EXPECT_EQ(base.mod_exp(exp, m), reference_mod_exp(base, exp, m))
            << "bits=" << bits << " exp_bits=" << exp_bits
            << " base=" << base.to_hex() << " m=" << m.to_hex();
      }
    }
  }
}

TEST(BigInt, ModExpEvenModulus) {
  EXPECT_EQ(BigInt(3).mod_exp(BigInt(5), BigInt(100)), BigInt(43));
}

TEST(BigInt, ModInverse) {
  const BigInt m = BigInt::from_hex("fffffffb");  // prime
  HmacDrbg drbg(3, "inverse");
  for (int i = 0; i < 20; ++i) {
    const BigInt a = BigInt(1) + BigInt::random_below(drbg, m - BigInt(1));
    const BigInt inv = a.mod_inverse(m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
  EXPECT_THROW(BigInt(4).mod_inverse(BigInt(8)), std::domain_error);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigInt, BitOps) {
  BigInt v;
  v.set_bit(100);
  EXPECT_TRUE(v.bit(100));
  EXPECT_FALSE(v.bit(99));
  EXPECT_EQ(v.bit_length(), 101u);
  EXPECT_EQ(v, BigInt(1) << 100);
}

TEST(BigInt, RandomBelowIsInRange) {
  HmacDrbg drbg(4, "below");
  const BigInt bound = BigInt::from_hex("10000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(drbg, bound), bound);
  }
}

TEST(BigInt, RandomBitsHasExactWidth) {
  HmacDrbg drbg(5, "bits");
  for (std::size_t bits : {8u, 33u, 64u, 127u, 256u}) {
    EXPECT_EQ(BigInt::random_bits(drbg, bits).bit_length(), bits);
  }
}

TEST(BigInt, PrimalityKnownPrimesAndComposites) {
  HmacDrbg drbg(6, "prime");
  EXPECT_TRUE(BigInt::is_probable_prime(BigInt(2), drbg));
  EXPECT_TRUE(BigInt::is_probable_prime(BigInt(65537), drbg));
  // 2^61 - 1 is a Mersenne prime.
  EXPECT_TRUE(
      BigInt::is_probable_prime(BigInt::from_hex("1fffffffffffffff"), drbg));
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(1), drbg));
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(561), drbg));   // Carmichael
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(65536), drbg));
  // 2^67-1 = 193707721 * 761838257287 (composite Mersenne).
  EXPECT_FALSE(
      BigInt::is_probable_prime(BigInt::from_hex("7ffffffffffffffff"), drbg));
}

TEST(BigInt, PrimalityStrongPseudoprimeToSmallBases) {
  // 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5
  // and 7 and fails it to 11; random bases expose it.
  const BigInt n(3215031751ULL);
  for (const std::uint64_t a : {2u, 3u, 5u, 7u}) {
    EXPECT_TRUE(strong_probable_prime(n, BigInt(a))) << a;
  }
  EXPECT_FALSE(strong_probable_prime(n, BigInt(11)));
  HmacDrbg drbg(10, "spsp");
  EXPECT_FALSE(BigInt::is_probable_prime(n, drbg));
}

TEST(BigInt, PrimalityAt512Bits) {
  HmacDrbg drbg(11, "prime512");
  // 2^512 - 569 is the largest 512-bit prime.
  const BigInt p = (BigInt(1) << 512) - BigInt(569);
  EXPECT_TRUE(BigInt::is_probable_prime(p, drbg));
  // (2^255 - 19)(2^256 - 189): two primes, so no small factor to find.
  const BigInt semiprime = ((BigInt(1) << 255) - BigInt(19)) *
                           ((BigInt(1) << 256) - BigInt(189));
  EXPECT_FALSE(BigInt::is_probable_prime(semiprime, drbg));
}

TEST(BigInt, GeneratePrimeHasRequestedBits) {
  HmacDrbg drbg(7, "genprime");
  const BigInt p = BigInt::generate_prime(drbg, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(BigInt::is_probable_prime(p, drbg));
}

TEST(BigInt, FermatLittleTheoremProperty) {
  // a^(p-1) == 1 mod p for prime p and a not divisible by p.
  const BigInt p = BigInt::from_hex("ffffffffffffffc5");  // 2^64-59, prime
  HmacDrbg drbg(8, "fermat");
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt(2) + BigInt::random_below(drbg, p - BigInt(2));
    EXPECT_EQ(a.mod_exp(p - BigInt(1), p), BigInt(1));
  }
}

}  // namespace
}  // namespace hipcloud::crypto
