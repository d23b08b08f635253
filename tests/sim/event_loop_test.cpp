#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hipcloud::sim {
namespace {

TEST(EventLoop, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30, [&] { order.push_back(3); });
  loop.schedule(10, [&] { order.push_back(1); });
  loop.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameInstantIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(100, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  Time fired_at = -1;
  loop.schedule(50, [&] {
    loop.schedule(-10, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 50);
}

TEST(EventLoop, EventsScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) loop.schedule(5, chain);
  };
  loop.schedule(5, chain);
  loop.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  const auto h = loop.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(h));
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelTwiceReturnsFalse) {
  EventLoop loop;
  const auto h = loop.schedule(10, [] {});
  EXPECT_TRUE(loop.cancel(h));
  EXPECT_FALSE(loop.cancel(h));
  loop.run();
}

TEST(EventLoop, CancelInvalidHandleIsNoop) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(EventHandle{}));
}

TEST(EventLoop, RunUntilStopsAtBound) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&] { ++fired; });
  loop.schedule(20, [&] { ++fired; });
  loop.schedule(30, [&] { ++fired; });
  EXPECT_EQ(loop.run(15), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 15);  // clock advances to the bound
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(fired, 3);
}

TEST(EventLoop, StopHaltsRun) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&] {
    ++fired;
    loop.stop();
  });
  loop.schedule(20, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, ScheduleAtAbsoluteTime) {
  EventLoop loop;
  Time fired_at = -1;
  loop.schedule_at(123, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 123);
}

TEST(EventLoop, PendingCountExcludesCancelled) {
  EventLoop loop;
  loop.schedule(10, [] {});
  const auto h = loop.schedule(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(h);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StepExecutesOneEvent) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&] { ++fired; });
  loop.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(loop.step());
}

TEST(EventLoop, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  const auto h = loop.schedule(10, [] {});
  loop.run();
  EXPECT_FALSE(loop.cancel(h));
  EXPECT_EQ(loop.pending(), 0u);
  loop.audit_consistency();
}

// The RTO re-arm pattern: every ack cancels the pending retransmit timer
// and schedules a new one; sometimes the timer wins and the cancel arrives
// late. A cancel removes its heap entry at once, so throughout a long
// closed-loop run the heap holds exactly the pending events (the audit
// checks every entry against its slot) and nothing is left behind.
TEST(EventLoop, HeavyRearmChurnLeavesNoTombstones) {
  EventLoop loop;
  std::size_t scheduled = 0, cancelled = 0, fired = 0, late_cancels = 0;
  std::size_t rounds = 0;
  EventHandle rto;
  std::function<void()> ack = [&] {
    ++fired;
    if (rto.valid()) {
      if (loop.cancel(rto)) {
        ++cancelled;
      } else {
        ++late_cancels;  // timer already fired — a stale handle
      }
    }
    if (scheduled < 10000) {
      rto = loop.schedule(100, [&] { ++fired; });
      ++scheduled;
      // Every 20th ack dawdles past the timer so the cancel arrives late.
      loop.schedule(++rounds % 20 == 0 ? 150 : 1, ack);
      ++scheduled;
    }
    // pending() counts exactly the scheduled-but-not-fired-or-cancelled
    // events, and the heap holds exactly those entries — no cancelled
    // ones, at any point of the run.
    EXPECT_EQ(loop.pending(), scheduled + 1 - fired - cancelled);
    EXPECT_NO_THROW(loop.audit_consistency());
  };
  loop.schedule(0, ack);
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
  loop.audit_consistency();
  EXPECT_TRUE(loop.idle());
  EXPECT_GT(cancelled, 4000u);   // the churn actually happened
  EXPECT_GT(late_cancels, 100u);  // and the late-cancel path was exercised
}

TEST(EventLoop, PendingMatchesLiveEventsUnderMixedCancellation) {
  EventLoop loop;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) handles.push_back(loop.schedule(i, [] {}));
  for (int i = 0; i < 100; i += 2) loop.cancel(handles[i]);
  EXPECT_EQ(loop.pending(), 50u);
  loop.audit_consistency();  // the heap holds exactly the 50 live events
  loop.run(49);  // fires odd-delay events up to t=49
  EXPECT_EQ(loop.pending(), 25u);
  loop.audit_consistency();
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
  loop.audit_consistency();
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, GoldenFiringOrderUnderSameInstantCancelChurn) {
  // Determinism regression for the indexed-heap engine: interleaved
  // schedule / cancel / re-schedule at identical instants must fire in
  // exactly the order the documented rule implies — same-instant events
  // fire in schedule order, cancellations never perturb the order of
  // survivors, and a re-schedule counts as a fresh schedule (it joins the
  // back of its instant). The simulation results of every seeded world
  // depend on this sequence, so it is pinned as a golden vector.
  EventLoop loop;
  std::vector<int> order;
  auto rec = [&order](int id) {
    return [&order, id] { order.push_back(id); };
  };

  const auto a = loop.schedule(10, rec(1));
  const auto b = loop.schedule(10, rec(2));
  loop.schedule(10, rec(3));
  loop.cancel(b);          // cancel between two survivors
  loop.schedule(10, rec(4));  // "re-scheduled b": new event, back of t=10
  loop.schedule(5, rec(5));   // scheduled later but fires first
  loop.cancel(a);          // cancel the head of the t=10 instant
  loop.schedule(10, rec(6));
  // From inside a t=5 callback, schedule into the t=10 instant: it must
  // land behind every event already queued there.
  loop.schedule(5, [&] { loop.schedule(5, rec(7)); });

  loop.run();
  EXPECT_EQ(order, (std::vector<int>{5, 3, 4, 6, 7}));
  EXPECT_EQ(loop.pending(), 0u);
  loop.audit_consistency();

  // Stale handles from the drained run must not cancel anything ever
  // again, even after their slots are recycled by new events.
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 8; ++i) fresh.push_back(loop.schedule(1, rec(100 + i)));
  EXPECT_FALSE(loop.cancel(a));
  EXPECT_FALSE(loop.cancel(b));
  EXPECT_EQ(loop.pending(), 8u);
  loop.run();
  EXPECT_EQ(order.size(), 13u);
}

TEST(TimeFormat, HumanReadableUnits) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(1500), "1.500us");
  EXPECT_EQ(format_time(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(format_time(3 * kSecond), "3.000000s");
}

TEST(TimeConversion, RoundTrips) {
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_EQ(from_millis(2.5), 2500 * kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
}

}  // namespace
}  // namespace hipcloud::sim
