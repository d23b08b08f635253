#include "hip/puzzle.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "crypto/sha256.hpp"

namespace hipcloud::hip {
namespace {

const net::Ipv6Addr kHitI = net::Ipv6Addr::parse("2001:10::1");
const net::Ipv6Addr kHitR = net::Ipv6Addr::parse("2001:10::2");

TEST(Puzzle, ZeroDifficultyIsFree) {
  Puzzle puzzle{0, 12345};
  const auto solution = puzzle.solve(kHitI, kHitR);
  EXPECT_EQ(solution.attempts, 1u);
  EXPECT_TRUE(puzzle.verify(kHitI, kHitR, solution.j));
  EXPECT_TRUE(puzzle.verify(kHitI, kHitR, 999));  // anything passes at K=0
}

class PuzzleDifficulty : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(PuzzleDifficulty, SolutionVerifies) {
  Puzzle puzzle{GetParam(), 0xdeadbeefULL};
  const auto solution = puzzle.solve(kHitI, kHitR);
  EXPECT_TRUE(puzzle.verify(kHitI, kHitR, solution.j));
  EXPECT_GE(solution.attempts, 1u);
}

TEST_P(PuzzleDifficulty, SolutionIsHitPairSpecific) {
  // A solution computed for one HIT pair must not generally transfer to
  // another pair (K >= 8 makes accidental transfer unlikely).
  if (GetParam() < 8) GTEST_SKIP();
  Puzzle puzzle{GetParam(), 77};
  const auto solution = puzzle.solve(kHitI, kHitR);
  const net::Ipv6Addr other = net::Ipv6Addr::parse("2001:10::3");
  EXPECT_FALSE(puzzle.verify(other, kHitR, solution.j));
}

INSTANTIATE_TEST_SUITE_P(Difficulties, PuzzleDifficulty,
                         ::testing::Values(1, 4, 8, 12));

TEST(Puzzle, AttemptsScaleWithDifficulty) {
  // Average attempts over several I values should grow ~2^K.
  double avg4 = 0, avg10 = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    avg4 += static_cast<double>(Puzzle{4, i * 31 + 1}.solve(kHitI, kHitR).attempts);
    avg10 +=
        static_cast<double>(Puzzle{10, i * 31 + 1}.solve(kHitI, kHitR).attempts);
  }
  avg4 /= 8;
  avg10 /= 8;
  EXPECT_GT(avg10, avg4 * 8);  // 2^6 = 64x expected; 8x is a safe bound
  const Puzzle p10{10, 0};
  EXPECT_DOUBLE_EQ(p10.expected_attempts(), 1024.0);
}

TEST(Puzzle, SolutionMatchesAPlainSha1Search) {
  // The solver hashes one padded block and rewrites only J; a search
  // over the full input through the general SHA-1 must find the same J
  // after the same number of attempts.
  for (const std::uint8_t k : {1, 6, 10}) {
    const Puzzle puzzle{k, 0x0123456789abcdefULL};
    std::uint64_t j = 0;
    for (;; ++j) {
      crypto::Bytes input;
      crypto::append_be(input, puzzle.random_i, 8);
      input.insert(input.end(), kHitI.bytes().begin(), kHitI.bytes().end());
      input.insert(input.end(), kHitR.bytes().begin(), kHitR.bytes().end());
      crypto::append_be(input, j, 8);
      const crypto::Sha1Digest d = crypto::sha1(input);
      const std::uint32_t tail = (std::uint32_t(d[17]) << 16) |
                                 (std::uint32_t(d[18]) << 8) | d[19];
      if ((tail & ((1u << k) - 1)) == 0) break;
    }
    const auto solution = puzzle.solve(kHitI, kHitR);
    EXPECT_EQ(solution.j, j) << int(k);
    EXPECT_EQ(solution.attempts, j + 1) << int(k);
  }
}

TEST(Puzzle, HelpersAreDefinedForEveryDifficulty) {
  const auto expected = [](std::uint8_t k) {
    return Puzzle{k, 0}.expected_attempts();
  };
  EXPECT_DOUBLE_EQ(expected(0), 1.0);
  EXPECT_DOUBLE_EQ(expected(63), 9223372036854775808.0);
  EXPECT_DOUBLE_EQ(expected(64), 18446744073709551616.0);
  EXPECT_DOUBLE_EQ(expected(255), std::ldexp(1.0, 255));
  // No 160-bit digest has more than 160 zero bits: above that, no J
  // verifies (and nothing reads past the digest).
  for (const std::uint8_t k : {161, 200, 255}) {
    const Puzzle puzzle{k, 7};
    for (std::uint64_t j = 0; j < 64; ++j) {
      EXPECT_FALSE(puzzle.verify(kHitI, kHitR, j)) << int(k);
    }
  }
}

TEST(Puzzle, WrongSolutionRejected) {
  Puzzle puzzle{12, 42};
  const auto solution = puzzle.solve(kHitI, kHitR);
  EXPECT_FALSE(puzzle.verify(kHitI, kHitR, solution.j + 1));
}

TEST(Puzzle, DifferentIGivesDifferentSolutions) {
  Puzzle p1{10, 1}, p2{10, 2};
  const auto s1 = p1.solve(kHitI, kHitR);
  // s1 solving p2 would be a 1/1024 coincidence.
  EXPECT_FALSE(p2.verify(kHitI, kHitR, s1.j) &&
               p1.solve(kHitI, kHitR).j == p2.solve(kHitI, kHitR).j);
}

}  // namespace
}  // namespace hipcloud::hip
