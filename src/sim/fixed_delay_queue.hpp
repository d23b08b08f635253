#pragma once

#include <deque>
#include <utility>

#include "sim/check.hpp"
#include "sim/event_loop.hpp"

namespace hipcloud::sim {

/// A FIFO of values that each fire a fixed delay after they are pushed:
/// `value()` runs then, where the event `loop.schedule(delay, value)`
/// would have run. A fixed delay means deadlines never decrease along the
/// queue, so only the head sits in the loop's heap as an ordinary event;
/// the rest wait here as `{when, seq, value}` records, with no callback
/// slot and no heap entry each. `T` is a small `void()` callable held by
/// value (say, a pointer and an id).
///
/// Each entry fires at exactly the `(when, seq)` schedule() would have
/// given it: push() draws its seq from the loop at once and counts one
/// schedule, and the head fires through the loop's step(). The
/// determinism hash and the `events_*` counters cannot tell the two
/// apart, and the loop's pending() counts every entry.
///
/// Destroying the queue discards its entries: none fires, and none counts
/// as cancelled, as for events still pending when the loop itself is
/// destroyed. The loop must outlive the queue.
template <typename T>
class FixedDelayQueue {
 public:
  /// Negative delays clamp to 0.
  FixedDelayQueue(EventLoop& loop, Duration delay)
      : loop_(loop), delay_(delay < 0 ? 0 : delay) {}
  // The head's event holds the queue's address.
  FixedDelayQueue(const FixedDelayQueue&) = delete;
  FixedDelayQueue& operator=(const FixedDelayQueue&) = delete;
  ~FixedDelayQueue() {
    if (!entries_.empty()) loop_.discard(head_, entries_.size() - 1);
  }

  Duration delay() const { return delay_; }
  std::size_t size() const { return entries_.size(); }

  /// Queues `value` to fire delay() from now.
  void push(T value) {
    const Time when = loop_.now() + delay_;
    HIPCLOUD_AUDIT(entries_.empty() || when >= entries_.back().when,
                   "fixed-delay queue: deadline below its tail's");
    entries_.push_back(Entry{when, loop_.park(), std::move(value)});
    if (entries_.size() == 1) arm();
  }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    T value;
  };

  void arm() {
    const Entry& head = entries_.front();
    head_ = loop_.unpark(head.when, head.seq, [this] { fire(); });
  }

  // The head's event. The entry leaves and the next head is armed before
  // the value runs, so a value that pushes into this queue, throws or
  // destroys the queue leaves it consistent; nothing touches the queue
  // after the call.
  void fire() {
    T value = std::move(entries_.front().value);
    entries_.pop_front();
    if (!entries_.empty()) arm();
    value();
  }

  EventLoop& loop_;
  const Duration delay_;
  std::deque<Entry> entries_;
  EventHandle head_;  // the front entry's event
};

}  // namespace hipcloud::sim
