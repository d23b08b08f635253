#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "sim/check.hpp"
#include "sim/event_loop.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hipcloud::sim {
namespace {

constexpr Duration kLookahead = from_micros(100);

/// Register every ordered shard pair with `la`: the seams of a world
/// whose every shard may post to every other.
void register_all_pairs(ShardCoordinator& coord, Duration la) {
  for (std::size_t src = 0; src < coord.shard_count(); ++src) {
    for (std::size_t dst = 0; dst < coord.shard_count(); ++dst) {
      if (src != dst) coord.register_pair_lookahead(src, dst, la);
    }
  }
}

/// A deterministic synthetic multi-shard world: every shard runs a
/// self-rescheduling tick chain, folds what it sees into a local
/// accumulator, and every third tick posts a cross-shard event to the
/// next shard (which in turn schedules a local follow-up). The whole
/// construction is a pure function of (shards, ticks); only the worker
/// count at run() time varies across test runs.
struct SyntheticWorld {
  std::vector<std::unique_ptr<EventLoop>> loops;
  ShardCoordinator coord;
  std::vector<std::uint64_t> acc;       // written only by the owning shard
  std::vector<std::uint64_t> arrivals;  // cross-event count per shard

  SyntheticWorld(std::size_t shards, int ticks) : acc(shards), arrivals(shards) {
    for (std::size_t s = 0; s < shards; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    register_all_pairs(coord, kLookahead);
    for (std::size_t s = 0; s < shards; ++s) {
      schedule_tick(s, shards, /*tick=*/0, ticks);
    }
  }

  void fold(std::size_t s, std::uint64_t word) {
    acc[s] = (acc[s] ^ word) * 1099511628211ULL;
  }

  void schedule_tick(std::size_t s, std::size_t shards, int tick, int ticks) {
    if (tick >= ticks) return;
    const Duration step = from_micros(10 + static_cast<int>(s));
    loops[s]->schedule(step, [this, s, shards, tick, ticks] {
      fold(s, static_cast<std::uint64_t>(loops[s]->now()));
      fold(s, static_cast<std::uint64_t>(tick));
      if (tick % 3 == 0 && shards > 1) {
        const std::size_t dst = (s + 1) % shards;
        // Lookahead contract: the post lands at or beyond the end of the
        // epoch that issued it.
        const Time when = loops[s]->now() + kLookahead + from_micros(7);
        coord.post(s, dst, when, [this, dst, s] {
          ++arrivals[dst];
          fold(dst, 0x9e3779b97f4a7c15ULL + s);
          loops[dst]->schedule(from_micros(5),
                               [this, dst] { fold(dst, 0xfeedULL); });
        });
      }
      schedule_tick(s, shards, tick + 1, ticks);
    });
  }
};

struct RunResult {
  std::uint64_t hash;
  std::uint64_t fired;
  std::vector<std::uint64_t> acc;
  std::vector<std::uint64_t> arrivals;
  std::vector<Time> clocks;
};

RunResult result_of(const SyntheticWorld& w) {
  RunResult r;
  r.hash = w.coord.world_hash();
  r.fired = w.coord.merged_perf().events_fired;
  r.acc = w.acc;
  r.arrivals = w.arrivals;
  for (const auto& loop : w.loops) r.clocks.push_back(loop->now());
  return r;
}

RunResult run_world(std::size_t shards, int ticks, Time until,
                    unsigned workers) {
  SyntheticWorld w(shards, ticks);
  w.coord.run(until, workers);
  return result_of(w);
}

TEST(ShardCoordinator, HashByteIdenticalAcrossWorkerCounts) {
  const Time until = from_millis(3);
  const RunResult base = run_world(8, 40, until, 1);
  EXPECT_GT(base.fired, 0u);
  EXPECT_GT(base.arrivals[1], 0u);
  for (const unsigned workers : {2u, 4u, 8u}) {
    const RunResult r = run_world(8, 40, until, workers);
    EXPECT_EQ(r.hash, base.hash) << "workers=" << workers;
    EXPECT_EQ(r.fired, base.fired) << "workers=" << workers;
    EXPECT_EQ(r.acc, base.acc) << "workers=" << workers;
    EXPECT_EQ(r.arrivals, base.arrivals) << "workers=" << workers;
    EXPECT_EQ(r.clocks, base.clocks) << "workers=" << workers;
  }
}

TEST(ShardCoordinator, DrainToCompletionMatchesBoundedRun) {
  // until = -1 runs until every loop and inbox drains; the event streams
  // must still be worker-count independent.
  const RunResult base = run_world(4, 30, -1, 1);
  for (const unsigned workers : {2u, 4u}) {
    const RunResult r = run_world(4, 30, -1, workers);
    EXPECT_EQ(r.hash, base.hash);
    EXPECT_EQ(r.acc, base.acc);
  }
}

TEST(ShardCoordinator, CrossShardDeliveryAtExactLookaheadBoundary) {
  // A post whose arrival lands exactly one lookahead ahead — the tightest
  // legal cross-shard delivery — must fire at precisely that virtual
  // time in the destination, at every worker count.
  for (const unsigned workers : {1u, 2u}) {
    std::vector<std::unique_ptr<EventLoop>> loops;
    ShardCoordinator coord;
    for (int s = 0; s < 2; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    register_all_pairs(coord, kLookahead);
    Time boundary_fire = -1;
    Time far_fire = -1;
    loops[0]->schedule_at(0, [&] {
      coord.post(0, 1, kLookahead,
                 [&] { boundary_fire = loops[1]->now(); });
      coord.post(0, 1, 3 * kLookahead + from_micros(50),
                 [&] { far_fire = loops[1]->now(); });
    });
    coord.run(from_millis(1), workers);
    EXPECT_EQ(boundary_fire, kLookahead) << "workers=" << workers;
    EXPECT_EQ(far_fire, 3 * kLookahead + from_micros(50))
        << "workers=" << workers;
    EXPECT_EQ(loops[0]->now(), from_millis(1));
    EXPECT_EQ(loops[1]->now(), from_millis(1));
  }
}

TEST(ShardCoordinator, DrainOrderIsWhenThenSourceThenPostIndex) {
  // Three sources post events for the same destination instant; the
  // drain must schedule them by (when, src shard, post index), never by
  // which worker drained first.
  for (const unsigned workers : {1u, 4u}) {
    std::vector<std::unique_ptr<EventLoop>> loops;
    ShardCoordinator coord;
    for (int s = 0; s < 4; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    register_all_pairs(coord, kLookahead);
    std::vector<int> order;
    const Time when = kLookahead + from_micros(1);
    // Post from sources 3, 1, 2 (registration order must not matter) —
    // plus a second event from source 1 to exercise the post index.
    loops[3]->schedule_at(0, [&] {
      coord.post(3, 0, when, [&] { order.push_back(30); });
    });
    loops[1]->schedule_at(0, [&] {
      coord.post(1, 0, when, [&] { order.push_back(10); });
      coord.post(1, 0, when, [&] { order.push_back(11); });
    });
    loops[2]->schedule_at(0, [&] {
      coord.post(2, 0, when, [&] { order.push_back(20); });
    });
    coord.run(from_millis(1), workers);
    EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 30}))
        << "workers=" << workers;
  }
}

TEST(ShardCoordinator, SkipAheadOverIdleStretches) {
  // Two events a long idle gap apart: the coordinator must not grind
  // through (gap / lookahead) empty epochs. events_fired and the final
  // clock prove the far event still fires at its exact time.
  std::vector<std::unique_ptr<EventLoop>> loops;
  ShardCoordinator coord;
  for (int s = 0; s < 2; ++s) {
    loops.push_back(std::make_unique<EventLoop>());
    coord.add_shard(loops.back().get());
  }
  register_all_pairs(coord, kLookahead);
  Time fired_at = -1;
  loops[0]->schedule_at(from_micros(5), [] {});
  loops[1]->schedule_at(from_seconds(10), [&] { fired_at = loops[1]->now(); });
  coord.run(from_seconds(11), 2);
  EXPECT_EQ(fired_at, from_seconds(10));
  EXPECT_EQ(coord.merged_perf().events_fired, 2u);
}

TEST(ShardCoordinator, MergedPerfIsShardIdOrderAndWorkerInvariant) {
  SyntheticWorld w(4, 20);
  w.coord.run(from_millis(2), 4);
  // Manual shard-id-order merge must match what the coordinator reports.
  PerfCounters manual;
  for (std::size_t s = 0; s < 4; ++s) manual.merge(w.loops[s]->perf());
  const PerfCounters merged = w.coord.merged_perf();
  EXPECT_EQ(merged.determinism_hash, manual.determinism_hash);
  EXPECT_EQ(merged.events_fired, manual.events_fired);
  EXPECT_EQ(merged.events_scheduled, manual.events_scheduled);
}

TEST(ShardCoordinator, CallbackFailurePropagatesWithoutDeadlock) {
  for (const unsigned workers : {1u, 2u}) {
    std::vector<std::unique_ptr<EventLoop>> loops;
    ShardCoordinator coord;
    for (int s = 0; s < 2; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    register_all_pairs(coord, kLookahead);
    loops[1]->schedule_at(from_micros(10), [] {
      throw CheckFailure("synthetic shard failure");
    });
    loops[0]->schedule_at(from_micros(1), [] {});
    EXPECT_THROW(coord.run(from_millis(1), workers), CheckFailure);
  }
}

TEST(ShardCoordinator, IrregularlySlicedRunsMatchOneRun) {
  // Stopping at arbitrary instants re-slices the epochs and moves the
  // barrier at which each post is drained into its destination. Cross
  // arrivals carry their post-time identity (EventLoop::schedule_cross)
  // and local events draw seq from a counter arrivals do not consume, so
  // no firing may be renamed or reordered by the slicing: the sliced runs
  // reproduce the single run exactly, at every worker count.
  const Time until = from_millis(3);
  const Time stops[] = {from_micros(23),  from_micros(118), from_micros(119),
                        from_micros(262), from_micros(401), from_micros(555),
                        from_micros(731)};
  SyntheticWorld whole(8, 40);
  whole.coord.run(until, 1);
  const RunResult base = result_of(whole);
  EXPECT_GT(base.arrivals[1], 0u);
  std::uint64_t sliced_epochs = 0;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    SyntheticWorld w(8, 40);
    std::size_t stops_with_posts_in_flight = 0;
    for (const Time stop : stops) {
      w.coord.run(stop, workers);
      if (w.coord.inbox_pending() > 0) ++stops_with_posts_in_flight;
    }
    w.coord.run(until, workers);
    // The slicing really differs: more epochs, and posts crossed stops.
    // Within one slicing the epoch count is worker-invariant.
    EXPECT_GT(w.coord.epochs(), whole.coord.epochs()) << "workers=" << workers;
    EXPECT_GT(stops_with_posts_in_flight, 0u) << "workers=" << workers;
    if (workers == 1) sliced_epochs = w.coord.epochs();
    EXPECT_EQ(w.coord.epochs(), sliced_epochs) << "workers=" << workers;
    const RunResult r = result_of(w);
    EXPECT_EQ(r.hash, base.hash) << "workers=" << workers;
    EXPECT_EQ(r.fired, base.fired) << "workers=" << workers;
    EXPECT_EQ(r.acc, base.acc) << "workers=" << workers;
    EXPECT_EQ(r.arrivals, base.arrivals) << "workers=" << workers;
    EXPECT_EQ(r.clocks, base.clocks) << "workers=" << workers;
  }
}

TEST(ShardCoordinator, DeliveryAtExactPerPairLookaheadBoundary) {
  // Two seams with very different registered lookaheads; a post that
  // lands exactly one *pair* lookahead ahead — tighter than the slow
  // seam, looser than nothing — must fire at precisely that instant.
  constexpr Duration kFast = from_micros(200);
  constexpr Duration kSlow = from_millis(4);
  for (const unsigned workers : {1u, 2u, 4u}) {
    std::vector<std::unique_ptr<EventLoop>> loops;
    ShardCoordinator coord;
    for (int s = 0; s < 3; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    coord.register_pair_lookahead(0, 1, kFast);
    coord.register_pair_lookahead(0, 2, kSlow);
    EXPECT_EQ(coord.pair_lookahead(0, 1), kFast);
    EXPECT_EQ(coord.pair_lookahead(0, 2), kSlow);
    EXPECT_EQ(coord.pair_lookahead(1, 0), Duration{-1});
    Time fast_fire = -1;
    Time slow_fire = -1;
    loops[0]->schedule_at(0, [&] {
      coord.post(0, 1, kFast, [&] { fast_fire = loops[1]->now(); });
      coord.post(0, 2, kSlow, [&] { slow_fire = loops[2]->now(); });
    });
    coord.run(from_millis(10), workers);
    EXPECT_EQ(fast_fire, kFast) << "workers=" << workers;
    EXPECT_EQ(slow_fire, kSlow) << "workers=" << workers;
  }
}

/// Two isolated seam groups with very different cadences: shards 0<->1
/// ping-pong every ~kFast over a fast seam, shards 2<->3 every ~kSlow
/// over a slow one. No seam crosses the groups.
struct TwoPairWorld {
  static constexpr Duration kFast = from_micros(100);
  static constexpr Duration kSlow = from_millis(10);

  std::vector<std::unique_ptr<EventLoop>> loops;
  ShardCoordinator coord;
  std::vector<std::uint64_t> bounces{0, 0, 0, 0};

  TwoPairWorld() {
    for (int s = 0; s < 4; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    coord.register_pair_lookahead(0, 1, kFast);
    coord.register_pair_lookahead(1, 0, kFast);
    coord.register_pair_lookahead(2, 3, kSlow);
    coord.register_pair_lookahead(3, 2, kSlow);
    loops[0]->schedule_at(0, [this] { bounce(0, 1, kFast); });
    loops[2]->schedule_at(0, [this] { bounce(2, 3, kSlow); });
  }

  void bounce(std::size_t from, std::size_t to, Duration la) {
    ++bounces[from];
    coord.post(from, to, loops[from]->now() + la, [this, to, from, la] {
      bounce(to, from, la);
    });
  }
};

TEST(ShardCoordinator, FastSeamDoesNotThrottleSlowPairStride) {
  // Per-pair horizons: the fast pair takes one epoch per bounce, and the
  // slow pair rides one long stride per slow bounce instead of being
  // marched at the fast seam's cadence. The schedule is pinned exactly,
  // so a horizon regression fails here: marching every shard at the fast
  // cadence (one stride per shard per epoch, 2000 strides) or any extra
  // epoch moves these numbers.
  const Time until = from_millis(50);
  std::uint64_t hash_1w = 0;
  for (const unsigned workers : {1u, 2u, 4u}) {
    TwoPairWorld w;
    w.coord.run(until, workers);
    if (workers == 1) hash_1w = w.coord.world_hash();
    EXPECT_EQ(w.coord.world_hash(), hash_1w) << "workers=" << workers;
    EXPECT_EQ(w.bounces, (std::vector<std::uint64_t>{251, 250, 3, 3}))
        << "workers=" << workers;
    EXPECT_EQ(w.coord.epochs(), 501u) << "workers=" << workers;
    EXPECT_EQ(w.coord.merged_perf().shard_strides, 507u)
        << "workers=" << workers;
  }
}

TEST(ShardCoordinator, DynamicLinkAdditionShrinksPairLookaheadMidRun) {
  // A new, faster link appears on an existing seam between runs:
  // registration is shrink-only, tightens only that pair, and the
  // delivery contract switches to the new bound for traffic posted
  // afterwards. Hashes stay worker-invariant across the whole
  // two-segment schedule.
  constexpr Duration kInitial = from_millis(2);
  constexpr Duration kShrunk = from_micros(250);
  auto run_segments = [&](unsigned workers) {
    std::vector<std::unique_ptr<EventLoop>> loops;
    ShardCoordinator coord;
    for (int s = 0; s < 2; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    coord.register_pair_lookahead(0, 1, kInitial);
    coord.register_pair_lookahead(1, 0, kInitial);
    std::vector<Time> fires;
    loops[0]->schedule_at(0, [&] {
      coord.post(0, 1, kInitial, [&] { fires.push_back(loops[1]->now()); });
    });
    coord.run(from_millis(5), workers);
    // The new link lands: the seam is now 8x tighter. A larger value
    // must NOT loosen it back.
    coord.register_pair_lookahead(0, 1, kShrunk);
    coord.register_pair_lookahead(0, 1, from_millis(50));
    EXPECT_EQ(coord.pair_lookahead(0, 1), kShrunk);
    EXPECT_EQ(coord.pair_lookahead(1, 0), kInitial);
    const Time t0 = from_millis(5);
    loops[0]->schedule_at(t0, [&] {
      coord.post(0, 1, t0 + kShrunk,
                 [&] { fires.push_back(loops[1]->now()); });
    });
    coord.run(from_millis(10), workers);
    EXPECT_EQ(fires,
              (std::vector<Time>{kInitial, t0 + kShrunk}))
        << "workers=" << workers;
    return coord.world_hash();
  };
  const std::uint64_t base = run_segments(1);
  EXPECT_EQ(run_segments(2), base);
}

TEST(ShardCoordinator, PlanWorkersClampsAutoRequestsToWorkOnHand) {
  SyntheticWorld tiny(4, 2);
  // Explicit requests pass through, clamped only by the shard count.
  EXPECT_EQ(tiny.coord.plan_workers(2), 2u);
  EXPECT_EQ(tiny.coord.plan_workers(8), 4u);
  // Auto on a tiny world collapses to 1: a handful of pending events
  // cannot amortize even one barrier round of thread traffic.
  EXPECT_LT(tiny.coord.shard(0)->pending() * 4,
            ShardCoordinator::kAutoEventsPerWorker);
  EXPECT_EQ(tiny.coord.plan_workers(0), 1u);
  // run(until, 0) must behave like an explicit run at the planned count:
  // same hash as every other worker count.
  const Time until = from_millis(1);
  const RunResult base = run_world(4, 10, until, 1);
  SyntheticWorld w(4, 10);
  w.coord.run(until, 0);
  EXPECT_EQ(w.coord.world_hash(), base.hash);
}

/// Two shards; shard 0 posts to shard 1 from `ticks` local events 1 ms
/// apart, each post landing 2.5 ms later. Every arrival records its
/// virtual time, so a late or lost drain shows.
struct ParityWorld {
  std::vector<std::unique_ptr<EventLoop>> loops;
  ShardCoordinator coord;
  std::vector<Time> arrivals;

  explicit ParityWorld(int ticks) {
    for (int s = 0; s < 2; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    register_all_pairs(coord, kLookahead);
    for (int k = 0; k < ticks; ++k) {
      loops[0]->schedule_at(from_millis(k), [this] {
        coord.post(0, 1, loops[0]->now() + from_micros(2500),
                   [this] { arrivals.push_back(loops[1]->now()); });
      });
    }
  }
};

TEST(ShardCoordinator, BoundedRunResumesWithUndrainedPostsInEitherParity) {
  // A bounded run that stops with a post still in flight leaves it in the
  // write cell of whatever parity its last round had; the next run must
  // drain it on time either way. The runs below end after both odd and
  // even epoch counts.
  bool seen_parity[2] = {false, false};
  for (int ticks = 1; ticks <= 4; ++ticks) {
    std::vector<Time> want;
    for (int k = 0; k < ticks; ++k) {
      want.push_back(from_millis(k) + from_micros(2500));
    }
    ParityWorld whole(ticks);
    whole.coord.run(from_millis(10), 1);
    EXPECT_EQ(whole.arrivals, want) << "ticks=" << ticks;
    for (const unsigned workers : {1u, 2u}) {
      ParityWorld split(ticks);
      // Stop just after the last post, before its arrival.
      split.coord.run(from_millis(ticks - 1) + from_micros(1), workers);
      EXPECT_EQ(split.coord.inbox_pending(), 1u) << "ticks=" << ticks;
      seen_parity[split.coord.epochs() % 2] = true;
      split.coord.run(from_millis(10), workers);
      EXPECT_EQ(split.arrivals, want)
          << "ticks=" << ticks << " workers=" << workers;
      EXPECT_EQ(split.coord.inbox_pending(), 0u);
      EXPECT_EQ(split.coord.world_hash(), whole.coord.world_hash())
          << "ticks=" << ticks << " workers=" << workers;
    }
  }
  EXPECT_TRUE(seen_parity[0] && seen_parity[1]);
}

TEST(ShardCoordinator, SetupThreadPostsBeforeTheFirstRunAreDrained) {
  for (const unsigned workers : {1u, 2u}) {
    std::vector<std::unique_ptr<EventLoop>> loops;
    ShardCoordinator coord;
    for (int s = 0; s < 2; ++s) {
      loops.push_back(std::make_unique<EventLoop>());
      coord.add_shard(loops.back().get());
    }
    register_all_pairs(coord, kLookahead);
    std::vector<Time> fires;
    for (const Time when : {kLookahead, from_millis(3), from_micros(150)}) {
      coord.post(0, 1, when, [&] { fires.push_back(loops[1]->now()); });
    }
    coord.post(1, 0, from_millis(2), [&] { fires.push_back(loops[0]->now()); });
    EXPECT_EQ(coord.inbox_pending(), 4u);
    coord.run(from_millis(5), workers);
    EXPECT_EQ(fires, (std::vector<Time>{kLookahead, from_micros(150),
                                        from_millis(2), from_millis(3)}))
        << "workers=" << workers;
    EXPECT_EQ(coord.inbox_pending(), 0u);
  }
}

TEST(ShardCoordinator, InboxPendingCountsBothParityCells) {
  // On one worker a round drains and runs shard 0, then shard 1. A throw
  // in shard 0 leaves shard 1's read cell undrained while shard 0's new
  // post waits in the other parity's cell: both count, and the next run
  // delivers both on time.
  std::vector<std::unique_ptr<EventLoop>> loops;
  ShardCoordinator coord;
  for (int s = 0; s < 2; ++s) {
    loops.push_back(std::make_unique<EventLoop>());
    coord.add_shard(loops.back().get());
  }
  register_all_pairs(coord, kLookahead);
  std::vector<Time> fires;
  const auto arrive = [&] { fires.push_back(loops[1]->now()); };
  loops[0]->schedule_at(0, [&] { coord.post(0, 1, from_micros(250), arrive); });
  loops[0]->schedule_at(from_micros(300), [&] {
    coord.post(0, 1, from_micros(600), arrive);
    throw CheckFailure("synthetic shard failure");
  });
  EXPECT_THROW(coord.run(from_millis(1), 1), CheckFailure);
  EXPECT_EQ(coord.inbox_pending(), 2u);
  EXPECT_TRUE(fires.empty());
  coord.run(from_millis(1), 1);
  EXPECT_EQ(fires, (std::vector<Time>{from_micros(250), from_micros(600)}));
  EXPECT_EQ(coord.inbox_pending(), 0u);
}

TEST(ShardCoordinator, PostOnUnregisteredSeamTripsInRegisteredOnlyMode) {
  // Registered seams are the only legal channels: an unregistered pair
  // bounds no horizon, so a post on it could land in a committed past.
  std::vector<std::unique_ptr<EventLoop>> loops;
  ShardCoordinator coord;
  for (int s = 0; s < 2; ++s) {
    loops.push_back(std::make_unique<EventLoop>());
    coord.add_shard(loops.back().get());
  }
  coord.register_pair_lookahead(0, 1, kLookahead);
  EXPECT_NO_THROW(coord.post(0, 1, kLookahead, [] {}));
  EXPECT_THROW(coord.post(1, 0, kLookahead, [] {}), CheckFailure);
}

TEST(SummaryMerge, FixedOrderMergesAreByteIdentical) {
  // Chan's combination is order-sensitive in floating point; the contract
  // is that merging the same partials in the same (shard-id) order twice
  // yields bit-identical state. See Summary::merge.
  std::vector<Summary> parts(4);
  std::uint64_t x = 88172645463325252ULL;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (int i = 0; i < 1000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      parts[s].add(static_cast<double>(x % 100000) / 7.0);
    }
  }
  Summary a;
  for (const Summary& p : parts) a.merge(p);
  Summary b;
  for (const Summary& p : parts) b.merge(p);
  // Bit-level equality, not EXPECT_DOUBLE_EQ: the JSON writers print
  // these values, and the bytes must reproduce.
  const double ma = a.mean(), mb = b.mean();
  const double va = a.stddev(), vb = b.stddev();
  EXPECT_EQ(std::memcmp(&ma, &mb, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0);
  EXPECT_EQ(a.percentile(99), b.percentile(99));
}

}  // namespace
}  // namespace hipcloud::sim
