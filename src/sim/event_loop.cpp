#include "sim/event_loop.hpp"

#include "sim/check.hpp"

namespace hipcloud::sim {

EventLoop::~EventLoop() {
  // Release pending callbacks while the engine is still whole: a captured
  // object's destructor may cancel (or schedule) other events. Dropping
  // the last heap entry keeps the heap valid at every step.
  while (!heap_.empty()) {
    const std::uint32_t idx = heap_.back().slot;
    heap_.pop_back();
    release_slot(idx);
  }
}

void EventLoop::audit_consistency() const {
  const std::size_t n = heap_.size();
  const std::size_t slots = state_.size();
  HIPCLOUD_CHECK(slots == chunks_.size() * kSlotsPerChunk,
                 "slot arena size disagrees with its chunks");
  for (std::size_t i = 0; i < n; ++i) {
    const HeapEntry& e = heap_[i];
    HIPCLOUD_CHECK(e.slot < slots,
                   "heap entry references a slot outside the arena");
    HIPCLOUD_CHECK(state_[e.slot].pos == i,
                   "slot does not record its heap position");
    HIPCLOUD_CHECK(static_cast<bool>(callback(e.slot)),
                   "pending event has no callback");
    if (i > 0) {
      const HeapEntry& parent = heap_[(i - 1) / 2];
      HIPCLOUD_CHECK(!earlier(e, parent),
                     "heap property violated: child earlier than parent");
    }
    HIPCLOUD_CHECK(e.when >= now_, "pending event scheduled in the past");
  }
  std::size_t free_marked = 0;
  std::size_t firing = 0;
  for (std::uint32_t idx = 0; idx < slots; ++idx) {
    const std::uint32_t pos = state_[idx].pos;
    if (pos == kFree) {
      ++free_marked;
      HIPCLOUD_CHECK(!callback(idx), "free slot still holds a callback");
    } else if (pos == kFiring) {
      ++firing;
      HIPCLOUD_CHECK(static_cast<bool>(callback(idx)),
                     "firing slot has no callback");
    } else {
      HIPCLOUD_CHECK(pos < n && heap_[pos].slot == idx,
                     "slot records a heap position it does not hold");
    }
  }
  HIPCLOUD_CHECK(firing == firing_,
                 "firing slots disagree with the callbacks on the stack");
  for (const std::uint32_t idx : free_slots_) {
    HIPCLOUD_CHECK(idx < slots, "freelist entry outside the arena");
    HIPCLOUD_CHECK(state_[idx].pos == kFree,
                   "freelisted slot is queued or firing");
  }
  // Every freelist entry is a free-marked slot, so equal counts mean each
  // free slot is listed exactly once.
  HIPCLOUD_CHECK(free_marked == free_slots_.size(),
                 "freelist lists a slot twice or misses one");
  HIPCLOUD_CHECK(n + free_slots_.size() + firing_ == slots,
                 "slot arena partition broken (leaked or duplicated slot)");
}

std::uint64_t EventLoop::cross_seq(std::uint32_t src_shard,
                                   std::uint64_t post_idx) {
  HIPCLOUD_DCHECK(src_shard < (1u << (63 - kCrossSrcShift)),
                  "cross seq encoding: shard id too wide");
  HIPCLOUD_DCHECK(post_idx < (1ULL << kCrossSrcShift),
                  "cross seq encoding: post index too wide");
  return kCrossSeqBit |
         (static_cast<std::uint64_t>(src_shard) << kCrossSrcShift) | post_idx;
}

void EventLoop::grow_arena() {
  const auto base = static_cast<std::uint32_t>(state_.size());
  chunks_.push_back(std::make_unique<InlineFn[]>(kSlotsPerChunk));
  state_.resize(state_.size() + kSlotsPerChunk, SlotState{kFree, 0});
  // Highest index first, so the chunk hands out its slots in order.
  for (std::uint32_t i = kSlotsPerChunk; i > 0; --i) {
    free_slots_.push_back(base + i - 1);
  }
}

void EventLoop::release_slot(std::uint32_t idx) {
  // Off the heap and generation bumped before the callable dies, so a
  // destructor that re-enters cancel()/reschedule() with this handle
  // sees a stale one. The destructor may also grow the arena, so state_
  // is re-indexed afterwards rather than held by reference.
  state_[idx].pos = kFiring;
  ++state_[idx].gen;
  callback(idx).reset();
  state_[idx].pos = kFree;
  free_slots_.push_back(idx);
}

// Both sifts move the 24-byte POD entries through a hole instead of
// swapping, so each level costs one copy (plus the moved slot's position
// update) rather than three.

void EventLoop::sift_up(std::size_t i, HeapEntry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventLoop::sift_down(std::size_t i, HeapEntry e) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void EventLoop::heap_erase(std::size_t i) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  if (i > 0 && earlier(last, heap_[(i - 1) / 2])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

EventHandle EventLoop::enqueue(Time when, std::uint64_t seq,
                               std::uint32_t idx) {
  if (when < now_) when = now_;
  heap_.push_back(HeapEntry{});  // grow first; sift_up fills the hole
  sift_up(heap_.size() - 1, HeapEntry{when, seq, idx});
  return EventHandle((static_cast<std::uint64_t>(state_[idx].gen) << 32) |
                     (static_cast<std::uint64_t>(idx) + 1));
}

std::uint32_t EventLoop::pending_position(EventHandle h) const {
  if (!h.valid()) return kFree;
  const std::uint32_t idx =
      static_cast<std::uint32_t>(h.id_ & 0xffffffffu) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(h.id_ >> 32);
  if (idx >= state_.size()) return kFree;
  const SlotState& s = state_[idx];
  // A fired or cancelled event's slot has a newer generation; a firing
  // one is off the heap. Either way the handle no longer names a pending
  // event, checked in O(1).
  if (s.gen != gen || s.pos == kFiring) return kFree;
  return s.pos;
}

bool EventLoop::remove(EventHandle h) {
  const std::uint32_t pos = pending_position(h);
  if (pos == kFree) return false;
  const std::uint32_t idx = heap_[pos].slot;
  heap_erase(pos);
  release_slot(idx);  // release captured state eagerly
  return true;
}

bool EventLoop::cancel(EventHandle h) {
  if (!remove(h)) return false;
  ++perf_.events_cancelled;
  return true;
}

void EventLoop::discard(EventHandle head, std::size_t parked) {
  parked_ -= parked;
  remove(head);
}

bool EventLoop::reschedule(EventHandle h, Duration delay) {
  const std::uint32_t pos = pending_position(h);
  if (pos == kFree) return false;
  if (delay < 0) delay = 0;
  const HeapEntry e{now_ + delay, next_seq_++, heap_[pos].slot};
  ++perf_.events_cancelled;
  ++perf_.events_scheduled;
  // The new seq is the largest yet, so the entry moves up only when its
  // deadline moved earlier.
  if (e.when < heap_[pos].when) {
    sift_up(pos, e);
  } else {
    sift_down(pos, e);
  }
  return true;
}

bool EventLoop::step(Time until) {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  if (until >= 0 && top.when > until) return false;
  HIPCLOUD_CHECK(top.when >= now_, "event fired with regressed time");
  heap_erase(0);
  state_[top.slot].pos = kFiring;
  ++firing_;
  // Recycles the slot once the callback returns or throws.
  struct Retire {
    EventLoop& loop;
    std::uint32_t idx;
    ~Retire() {
      loop.release_slot(idx);
      --loop.firing_;
    }
  } retire{*this, top.slot};
  now_ = top.when;
  ++perf_.events_fired;
  perf_.note_fire(top.when, top.seq);
#ifdef HIPCLOUD_AUDIT_ENABLED
  // Periodic full structural audit; every firing would make the suite
  // O(events * arena).
  if ((perf_.events_fired & 1023u) == 0) audit_consistency();
#endif
  // Chunks never move, so this reference stays valid even if the
  // callback grows the arena.
  callback(top.slot)();
  return true;
}

std::size_t EventLoop::run(Time until) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && step(until)) ++n;
  // When bounded, advance the clock to the bound so repeated bounded runs
  // observe monotonic time even across empty stretches.
  if (until >= 0 && now_ < until) now_ = until;
  return n;
}

}  // namespace hipcloud::sim
