// EventLoop against a reference model, plus the re-entrancy cases of the
// in-place engine: callbacks run inside their arena slot, so a callback
// that cancels or re-arms itself, grows the arena or throws must leave
// the engine consistent. FixedDelayQueue entries take part in the same
// model as plain schedule(delay) calls that cannot be cancelled.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/event_loop.hpp"
#include "sim/fixed_delay_queue.hpp"
#include "sim/random.hpp"

namespace hipcloud::sim {
namespace {

// The fixed delays of the two queues the differential test pushes into;
// the first makes same-instant entries.
constexpr std::array<Duration, 2> kQueueDelays = {0, 9};

// The documented contract, written as plainly as possible: pending events
// ordered by (when, seq), local seqs drawn from one counter, reschedule
// = cancel + schedule under one fresh seq, a queue push = a schedule that
// cannot be cancelled, and a destroyed queue's entries gone uncounted.
class ModelLoop {
 public:
  Time now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  Time next_event_time() const {
    return queue_.empty() ? -1 : queue_.begin()->first.first;
  }
  const PerfCounters& perf() const { return perf_; }
  const std::vector<int>& fired() const { return fired_; }
  std::size_t queue_fired() const {
    return static_cast<std::size_t>(
        std::count_if(fired_.begin(), fired_.end(),
                      [this](int id) { return queue_of_.count(id) != 0; }));
  }

  // Ids are assigned in creation order, as the harness below does.
  int schedule_at(Time when) {
    if (when < now_) when = now_;
    const int id = next_id_++;
    enqueue(id, when);
    return id;
  }
  int schedule(Duration delay) { return schedule_at(now_ + clamp(delay)); }

  int push(int queue) {
    const int id = schedule(kQueueDelays[queue]);
    queue_of_[id] = queue;
    return id;
  }

  void destroy_queue(int queue) {
    for (const auto& [id, q] : queue_of_) {
      const auto it = where_.find(id);
      if (q != queue || it == where_.end()) continue;
      queue_.erase(it->second);
      where_.erase(it);
    }
  }

  bool cancel(int id) {
    if (queue_of_.count(id) != 0) return false;
    const auto it = where_.find(id);
    if (it == where_.end()) return false;
    queue_.erase(it->second);
    where_.erase(it);
    ++perf_.events_cancelled;
    return true;
  }

  bool reschedule(int id, Duration delay) {
    if (!cancel(id)) return false;
    enqueue(id, now_ + clamp(delay));
    return true;
  }

  bool step(Time until) {
    if (queue_.empty()) return false;
    const auto top = queue_.begin();
    const auto [when, seq] = top->first;
    if (until >= 0 && when > until) return false;
    const int id = top->second;
    where_.erase(id);
    queue_.erase(top);
    now_ = when;
    ++perf_.events_fired;
    perf_.note_fire(when, seq);
    fired_.push_back(id);
    if (spawns(id)) {
      // A queue entry pushes its child into its own queue.
      const auto q = queue_of_.find(id);
      if (q != queue_of_.end()) {
        push(q->second);
      } else {
        schedule(child_delay(id));
      }
    }
    return true;
  }

  std::size_t run(Time until) {
    std::size_t n = 0;
    while (step(until)) ++n;
    if (until >= 0 && now_ < until) now_ = until;
    return n;
  }

  // Every fifth event schedules one child when it fires, sometimes at the
  // same instant.
  static bool spawns(int id) { return id % 5 == 0; }
  static Duration child_delay(int id) { return id % 7; }

 private:
  using Key = std::pair<Time, std::uint64_t>;
  static Duration clamp(Duration d) { return d < 0 ? 0 : d; }
  void enqueue(int id, Time when) {
    const Key key{when, next_seq_++};
    queue_.emplace(key, id);
    where_[id] = key;
    ++perf_.events_scheduled;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  int next_id_ = 0;
  std::map<Key, int> queue_;
  std::map<int, Key> where_;
  std::map<int, int> queue_of_;  // queue entries' ids, pending or not
  std::vector<int> fired_;
  PerfCounters perf_;
};

class Harness;

// The harness's callback: 64 bytes, like the real timer and CPU
// continuations.
struct Fire {
  Harness* harness;
  std::uint64_t id;
  std::array<std::uint64_t, 6> pad;
  void operator()() const;
};

// A queue entry's value.
struct Push {
  Harness* harness;
  int queue;
  std::uint64_t id;
  void operator()() const;
};

// Drives a real EventLoop with the same ids as the model.
class Harness {
 public:
  EventLoop loop;
  std::array<std::optional<FixedDelayQueue<Push>>, 2> queues;
  std::vector<EventHandle> handles;  // by id; stale ones stay in place
  std::vector<int> event_ids;        // the ids that have a handle
  std::vector<int> fired;

  Harness() {
    for (int q = 0; q < 2; ++q) queues[q].emplace(loop, kQueueDelays[q]);
  }

  void schedule(Duration delay) {
    event_ids.push_back(static_cast<int>(handles.size()));
    handles.push_back(loop.schedule(delay, next_callback()));
  }
  void schedule_at(Time when) {
    event_ids.push_back(static_cast<int>(handles.size()));
    handles.push_back(loop.schedule_at(when, next_callback()));
  }
  void push(int queue) {
    const auto id = static_cast<std::uint64_t>(handles.size());
    handles.emplace_back();  // a queue entry has no handle
    queues[queue]->push(Push{this, queue, id});
  }
  void destroy_queue(int queue) {
    queues[queue].reset();
    queues[queue].emplace(loop, kQueueDelays[queue]);
  }

 private:
  Fire next_callback() {
    const auto id = static_cast<std::uint64_t>(handles.size());
    return Fire{this, id, {id, id, id, id, id, id}};
  }
};

void Fire::operator()() const {
  for (const std::uint64_t word : pad) ASSERT_EQ(word, id);
  const int n = static_cast<int>(id);
  harness->fired.push_back(n);
  if (ModelLoop::spawns(n)) harness->schedule(ModelLoop::child_delay(n));
}

void Push::operator()() const {
  const int n = static_cast<int>(id);
  harness->fired.push_back(n);
  if (ModelLoop::spawns(n)) harness->push(queue);
}

void expect_same(const Harness& h, const ModelLoop& m, std::size_t op) {
  SCOPED_TRACE(::testing::Message() << "after operation " << op);
  ASSERT_EQ(h.fired, m.fired());
  ASSERT_EQ(h.loop.now(), m.now());
  ASSERT_EQ(h.loop.pending(), m.pending());
  ASSERT_EQ(h.loop.next_event_time(), m.next_event_time());
  const PerfCounters& a = h.loop.perf();
  const PerfCounters& b = m.perf();
  ASSERT_EQ(a.events_scheduled, b.events_scheduled);
  ASSERT_EQ(a.events_fired, b.events_fired);
  ASSERT_EQ(a.events_cancelled, b.events_cancelled);
  ASSERT_EQ(a.determinism_hash, b.determinism_hash);
  ASSERT_NO_THROW(h.loop.audit_consistency());
}

void run_differential(std::uint64_t seed, std::size_t ops) {
  Xoshiro256 rng(seed);
  Harness h;
  ModelLoop m;
  auto small = [&](std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.below(100);
    // Recent events are mostly pending, older ones mostly stale; -1
    // stands for the invalid handle.
    const auto pick = [&]() -> int {
      const std::size_t n = h.event_ids.size();
      if (n == 0 || rng.below(16) == 0) return -1;
      if (rng.below(4) != 0) {
        return h.event_ids[n - 1 - rng.below(std::min<std::size_t>(n, 24))];
      }
      return h.event_ids[rng.below(n)];
    };
    if (kind < 26) {
      const Duration d = small(-3, 20);  // negative clamps; ties are common
      h.schedule(d);
      m.schedule(d);
    } else if (kind < 37) {
      const Time when = h.loop.now() + small(-5, 20);
      h.schedule_at(when);
      m.schedule_at(when);
    } else if (kind < 44) {
      const int q = static_cast<int>(rng.below(2));
      h.push(q);
      m.push(q);
    } else if (kind < 45) {
      const int q = static_cast<int>(rng.below(2));
      h.destroy_queue(q);
      m.destroy_queue(q);
    } else if (kind < 60) {
      const int id = pick();
      const EventHandle handle = id < 0 ? EventHandle{} : h.handles[id];
      ASSERT_EQ(h.loop.cancel(handle), id >= 0 && m.cancel(id));
    } else if (kind < 75) {
      const int id = pick();
      const Duration d = small(-3, 25);
      const EventHandle handle = id < 0 ? EventHandle{} : h.handles[id];
      ASSERT_EQ(h.loop.reschedule(handle, d),
                id >= 0 && m.reschedule(id, d));
    } else if (kind < 92) {
      const Time until = rng.below(4) == 0 ? -1 : h.loop.now() + small(0, 6);
      ASSERT_EQ(h.loop.step(until), m.step(until));
    } else {
      const Time until = rng.below(8) == 0 ? -1 : h.loop.now() + small(0, 15);
      ASSERT_EQ(h.loop.run(until), m.run(until));
    }
    expect_same(h, m, op);
  }
  ASSERT_EQ(h.loop.run(), m.run(-1));
  expect_same(h, m, ops);
  // The mix really exercised firing, cancelling, re-arming and queues.
  EXPECT_GT(m.perf().events_fired, ops / 5);
  EXPECT_GT(m.perf().events_cancelled, ops / 20);
  EXPECT_GT(m.queue_fired(), ops / 20);
}

TEST(EventLoopModel, MatchesReferenceModelOnRandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    run_differential(seed, 6000);
    if (HasFatalFailure()) return;
  }
}

TEST(EventLoopModel, RescheduleFiresWhereCancelPlusScheduleWould) {
  // Two loops, one re-arming in place and one cancelling and scheduling
  // afresh, fire the same (when, seq) stream: same hash, same counters.
  EventLoop in_place;
  EventLoop fresh;
  std::vector<int> order_a;
  std::vector<int> order_b;
  EventHandle a = in_place.schedule(10, [&] { order_a.push_back(0); });
  EventHandle b = fresh.schedule(10, [&] { order_b.push_back(0); });
  for (int i = 1; i <= 3; ++i) {
    in_place.schedule(5 * i, [&, i] { order_a.push_back(i); });
    fresh.schedule(5 * i, [&, i] { order_b.push_back(i); });
  }
  // Earlier, then later, then onto an occupied instant.
  for (const Duration d : {3, 12, 10}) {
    ASSERT_TRUE(in_place.reschedule(a, d));
    ASSERT_TRUE(fresh.cancel(b));
    b = fresh.schedule(d, [&] { order_b.push_back(0); });
  }
  in_place.run();
  fresh.run();
  EXPECT_EQ(order_a, (std::vector<int>{1, 2, 0, 3}));
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(in_place.perf().determinism_hash, fresh.perf().determinism_hash);
  EXPECT_EQ(in_place.perf().events_scheduled, 7u);
  EXPECT_EQ(in_place.perf().events_scheduled, fresh.perf().events_scheduled);
  EXPECT_EQ(in_place.perf().events_cancelled, 3u);
  EXPECT_EQ(in_place.perf().events_cancelled, fresh.perf().events_cancelled);
  // Fired: the handle is stale for both operations.
  EXPECT_FALSE(in_place.reschedule(a, 1));
  EXPECT_FALSE(in_place.cancel(a));
  EXPECT_FALSE(in_place.reschedule(EventHandle{}, 1));
  EXPECT_EQ(in_place.perf().events_cancelled, 3u);
}

TEST(EventLoopModel, CallbackCannotCancelOrRescheduleItself) {
  EventLoop loop;
  EventHandle self;
  bool cancelled = true;
  bool rescheduled = true;
  int fired = 0;
  self = loop.schedule(5, [&] {
    ++fired;
    cancelled = loop.cancel(self);
    rescheduled = loop.reschedule(self, 10);
    loop.audit_consistency();  // the firing slot is accounted for
  });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(cancelled);
  EXPECT_FALSE(rescheduled);
  EXPECT_EQ(loop.perf().events_cancelled, 0u);
  EXPECT_EQ(loop.perf().events_scheduled, 1u);
  EXPECT_TRUE(loop.idle());
  loop.audit_consistency();
}

TEST(EventLoopModel, CallbackGrowsTheArenaWhileItRuns) {
  EventLoop loop;
  const std::size_t before = [&] {
    loop.schedule(0, [] {});
    return loop.arena_slots();
  }();
  const std::size_t burst = 3 * EventLoop::kSlotsPerChunk;
  // The running callback's captures live in its slot; growing the arena
  // must not move them (ASan would report the read after growth).
  std::vector<int> captured(64, 7);
  int sum_after = 0;
  int children = 0;
  loop.schedule(1, [&, captured] {
    for (std::size_t i = 0; i < burst; ++i) {
      loop.schedule(static_cast<Duration>(i % 3), [&] { ++children; });
    }
    loop.audit_consistency();
    for (const int v : captured) sum_after += v;
  });
  loop.run();
  EXPECT_GE(loop.arena_slots(), before + 2 * EventLoop::kSlotsPerChunk);
  EXPECT_EQ(sum_after, 64 * 7);
  EXPECT_EQ(children, static_cast<int>(burst));
  loop.audit_consistency();
}

TEST(EventLoopModel, ThrowingCallbackRecyclesItsSlot) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(1, [&] { order.push_back(1); });
  loop.schedule(2, [&] {
    order.push_back(2);
    loop.schedule(1, [&] { order.push_back(4); });
    // CheckFailure is the one exception allowed out of the engine.
    throw CheckFailure("callback failed");
  });
  loop.schedule(3, [&] { order.push_back(3); });
  EXPECT_THROW(loop.run(), CheckFailure);
  EXPECT_EQ(loop.now(), 2);
  EXPECT_EQ(loop.pending(), 2u);
  loop.audit_consistency();
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  loop.audit_consistency();
}

// Cancels another event from its destructor, as a TcpConnection whose
// last owner was a callback cancels its RTO timer.
struct CancelOnDestroy {
  EventLoop* loop;
  EventHandle* victim;
  bool armed = true;
  CancelOnDestroy(EventLoop* l, EventHandle* v) : loop(l), victim(v) {}
  CancelOnDestroy(CancelOnDestroy&& o) noexcept
      : loop(o.loop), victim(o.victim), armed(std::exchange(o.armed, false)) {}
  CancelOnDestroy(const CancelOnDestroy&) = delete;
  ~CancelOnDestroy() {
    if (armed) loop->cancel(*victim);
  }
};

TEST(EventLoopModel, CallbackDestructorsMayReenterTheLoop) {
  EventLoop loop;
  int fired = 0;
  EventHandle victim_a = loop.schedule(50, [&] { ++fired; });
  EventHandle victim_b = loop.schedule(60, [&] { ++fired; });
  loop.schedule(70, [&] { ++fired; });
  // Fires, then its capture cancels victim_a while the slot retires.
  loop.schedule(10, [&, guard = CancelOnDestroy(&loop, &victim_a)] {
    ++fired;
  });
  // Cancelled; its capture cancels victim_b while the slot is released.
  const EventHandle doomed = loop.schedule(
      20, [&, guard = CancelOnDestroy(&loop, &victim_b)] { ++fired; });
  EXPECT_TRUE(loop.cancel(doomed));
  loop.audit_consistency();
  EXPECT_EQ(loop.pending(), 3u);
  loop.run(30);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.audit_consistency();
  loop.run();
  EXPECT_EQ(fired, 2);  // victim_c
  {
    // Pending at teardown: the destructor releases each callback while
    // the engine is still whole, so the capture's cancel is harmless.
    EventLoop doomed_loop;
    EventHandle victim = doomed_loop.schedule(70, [] {});
    doomed_loop.schedule(5, [guard = CancelOnDestroy(&doomed_loop,
                                                     &victim)] {});
  }
}

// ---------------------------------------------------------------------------
// FixedDelayQueue

// A queue value that records its name and then runs `then`.
struct Note {
  std::vector<int>* order;
  int name;
  std::function<void()> then;
  void operator()() const {
    order->push_back(name);
    if (then) then();
  }
};

TEST(FixedDelayQueue, SameInstantTiesFireInScheduleOrder) {
  // One loop pushes into a queue and the other schedules the same
  // callbacks with the queue's delay: the (when, seq) stream is the same,
  // so the order, the hash and the counters are too.
  EventLoop queued;
  EventLoop plain;
  std::vector<int> order_q;
  std::vector<int> order_p;
  FixedDelayQueue<Note> queue(queued, 10);
  const auto both = [&](int name, bool into_queue, Duration delay) {
    if (into_queue) {
      queue.push(Note{&order_q, name, nullptr});
    } else {
      queued.schedule(delay, Note{&order_q, name, nullptr});
    }
    plain.schedule(delay, Note{&order_p, name, nullptr});
  };
  both(0, false, 10);
  both(1, true, 10);
  both(2, false, 10);
  both(3, true, 10);
  both(4, false, 4);
  EXPECT_EQ(queued.pending(), 5u);
  EXPECT_EQ(queue.size(), 2u);
  queued.run(6);
  plain.run(6);
  both(5, true, 10);   // at 16, behind everything at 10
  both(6, false, 4);   // at 10, after the first four
  EXPECT_EQ(queued.next_event_time(), 10);
  queued.audit_consistency();
  queued.run();
  plain.run();
  EXPECT_EQ(order_q, (std::vector<int>{4, 0, 1, 2, 3, 6, 5}));
  EXPECT_EQ(order_q, order_p);
  EXPECT_EQ(queued.now(), 16);
  EXPECT_EQ(queued.perf().determinism_hash, plain.perf().determinism_hash);
  EXPECT_EQ(queued.perf().events_scheduled, 7u);
  EXPECT_EQ(queued.perf().events_fired, plain.perf().events_fired);
  EXPECT_EQ(queued.perf().events_cancelled, 0u);
  EXPECT_TRUE(queued.idle());
  EXPECT_EQ(queue.size(), 0u);
  queued.audit_consistency();
}

TEST(FixedDelayQueue, ValueMayPushIntoItsOwnQueue) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<Time> at;
  FixedDelayQueue<Note> queue(loop, 5);
  // 0 pushes 2 when it fires at 5, behind 1 (pushed at 2, due at 7); 2
  // pushes 3 into the queue it emptied.
  queue.push(Note{&order, 0, [&] {
    at.push_back(loop.now());
    EXPECT_EQ(queue.size(), 1u);  // left, and 1 armed, before the call
    queue.push(Note{&order, 2, [&] {
      at.push_back(loop.now());
      EXPECT_EQ(queue.size(), 0u);
      queue.push(Note{&order, 3, [&] { at.push_back(loop.now()); }});
      loop.audit_consistency();
    }});
  }});
  loop.run(2);
  queue.push(Note{&order, 1, [&] { at.push_back(loop.now()); }});
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(at, (std::vector<Time>{5, 7, 10, 15}));
  EXPECT_EQ(loop.perf().events_scheduled, 4u);
  EXPECT_EQ(loop.perf().events_fired, 4u);
  EXPECT_TRUE(loop.idle());
  loop.audit_consistency();
}

TEST(FixedDelayQueue, ThrowingValueLeavesTheQueueConsistent) {
  EventLoop loop;
  std::vector<int> order;
  FixedDelayQueue<Note> queue(loop, 3);
  queue.push(Note{&order, 0, [&] {
    queue.push(Note{&order, 2, nullptr});
    throw CheckFailure("value failed");
  }});
  queue.push(Note{&order, 1, nullptr});
  EXPECT_THROW(loop.run(), CheckFailure);
  EXPECT_EQ(loop.now(), 3);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(loop.pending(), 2u);
  EXPECT_EQ(loop.next_event_time(), 3);
  loop.audit_consistency();
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.now(), 6);
  EXPECT_TRUE(loop.idle());
  loop.audit_consistency();
}

TEST(FixedDelayQueue, DestroyedQueueFiresNothingAndCountsNothing) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(8, Note{&order, 9, nullptr});
  {
    FixedDelayQueue<Note> queue(loop, 5);
    for (int i = 0; i < 3; ++i) queue.push(Note{&order, i, nullptr});
    EXPECT_EQ(loop.pending(), 4u);
    EXPECT_EQ(loop.next_event_time(), 5);
  }
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.next_event_time(), 8);
  EXPECT_EQ(loop.perf().events_scheduled, 4u);
  EXPECT_EQ(loop.perf().events_cancelled, 0u);
  loop.audit_consistency();
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{9}));

  // A value that destroys its own queue: the entries behind it never fire.
  std::optional<FixedDelayQueue<Note>> doomed;
  doomed.emplace(loop, 2);
  doomed->push(Note{&order, 10, [&] { doomed.reset(); }});
  doomed->push(Note{&order, 11, nullptr});
  doomed->push(Note{&order, 12, nullptr});
  EXPECT_EQ(loop.pending(), 3u);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_FALSE(doomed.has_value());
  EXPECT_EQ(order, (std::vector<int>{9, 10}));
  EXPECT_TRUE(loop.idle());
  EXPECT_EQ(loop.perf().events_cancelled, 0u);
  loop.audit_consistency();
}

}  // namespace
}  // namespace hipcloud::sim
