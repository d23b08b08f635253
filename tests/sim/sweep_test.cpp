#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hipcloud::sim {
namespace {

TEST(Sweep, ResultsAreInJobOrderAtAnyThreadCount) {
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < 64; ++i) want.push_back(i * i + 7);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto got = sweep<std::size_t>(
        want.size(), [](std::size_t i) { return i * i + 7; }, threads);
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
  EXPECT_TRUE(sweep<int>(0, [](std::size_t) { return 1; }, 4).empty());
}

TEST(Sweep, OneThreadRunsSeriallyOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool on_caller = true;
  sweep<int>(
      10,
      [&](std::size_t i) {
        order.push_back(i);
        on_caller = on_caller && std::this_thread::get_id() == caller;
        return 0;
      },
      1);
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Sweep, FirstErrorIsRethrownAndLaterJobsAreSkipped) {
  std::vector<std::size_t> ran;
  try {
    sweep<int>(
        8,
        [&](std::size_t i) {
          ran.push_back(i);
          if (i == 2 || i == 5) {
            throw std::runtime_error("job " + std::to_string(i));
          }
          return 0;
        },
        1);
    FAIL() << "sweep swallowed the error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 2");
  }
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Sweep, ErrorIsRethrownOnlyAfterEveryWorkerJoins) {
  // Job 0 throws at once while the other workers sit in slow jobs; the
  // caller must not see the error while any job is still running.
  std::atomic<int> running{0};
  EXPECT_THROW(
      sweep<int>(
          8,
          [&](std::size_t i) {
            ++running;
            if (i == 0) {
              --running;
              throw std::runtime_error("first");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            --running;
            return 0;
          },
          4),
      std::runtime_error);
  EXPECT_EQ(running.load(), 0);
}

}  // namespace
}  // namespace hipcloud::sim
