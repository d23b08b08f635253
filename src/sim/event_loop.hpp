#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/perf.hpp"
#include "sim/time.hpp"

namespace hipcloud::sim {

template <typename T>
class FixedDelayQueue;

/// Handle returned by EventLoop::schedule(); can be used to cancel or
/// re-arm the event before it fires. Value-semantic and cheap to copy.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class EventLoop;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  // (generation << 32) | (slot index + 1); 0 is the invalid handle.
  std::uint64_t id_ = 0;
};

/// Deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant fire in schedule order (FIFO),
/// which together with the seeded PRNGs makes every scenario bit-for-bit
/// reproducible. Single-threaded by design: one EventLoop = one simulated
/// world. Parallelism belongs one level up (independent worlds on
/// independent threads, e.g. the bench harness sweeping client counts).
///
/// Internally the queue is an indexed binary heap of 24-byte POD entries
/// `{when, seq, slot}` over an arena of callback slots. The arena grows a
/// chunk at a time and never moves a slot, and a dense side array keeps
/// each slot's heap position and generation. The heap holds exactly the
/// pending events:
///
///  - schedule: take a slot from the freelist (or grow the arena), build
///    the callable straight into it (InlineFn::emplace — no heap
///    allocation for callables up to 128 bytes), push {when, seq, slot}.
///  - cancel: O(log n) — validate the handle's generation, remove the
///    entry from its recorded heap position, destroy the callable and
///    recycle the slot at once.
///  - reschedule: move a pending entry in place under a fresh seq, which
///    is exactly the (when, seq) that cancel plus schedule would assign.
///  - fire: pop the root and invoke the callable where it was built; the
///    slot is recycled when the callable returns or throws. While it runs
///    the slot is neither queued nor free, so callbacks can schedule,
///    cancel and reschedule re-entrantly, and their own handle reports
///    false.
///
/// Events that share one fixed delay can wait off the heap in a
/// FixedDelayQueue (sim/fixed_delay_queue.hpp): only each queue's head is
/// on the heap, and the entries behind it are counted as pending here.
class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `f` (any `void()` callable) to run `delay` from now.
  /// Negative delays clamp to 0.
  template <typename F>
  EventHandle schedule(Duration delay, F&& f) {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Schedule `f` at an absolute virtual time (>= now).
  template <typename F>
  EventHandle schedule_at(Time when, F&& f) {
    const std::uint32_t idx = emplace_callback(std::forward<F>(f));
    ++perf_.events_scheduled;
    return enqueue(when, next_seq_++, idx);
  }

  /// Schedule a cross-shard arrival with a schedule-stable identity.
  /// Instead of drawing from the local FIFO counter (whose value depends
  /// on *when* the coordinator drained this post), the entry's seq is the
  /// encoding `kCrossSeqBit | (src << kCrossSrcShift) | post_idx` — a
  /// name fixed at post() time. Consequences, both load-bearing for the
  /// determinism hash:
  ///  - at the same instant, every cross arrival fires after every local
  ///    event (kCrossSeqBit dominates any realistic local counter), and
  ///    cross arrivals order among themselves by (src shard, post index)
  ///    — exactly the coordinator's canonical drain order;
  ///  - the (when, seq) pair folded by PerfCounters::note_fire is
  ///    invariant across epoch slicings, so a run cut into bounded runs
  ///    at any instants drains the same posts at different barriers and
  ///    still produces the byte-identical hash by construction
  ///    (ShardCoordinator.IrregularlySlicedRunsMatchOneRun).
  /// The local counter is NOT consumed, so local seq streams are equally
  /// slicing-invariant.
  template <typename F>
  EventHandle schedule_cross(Time when, std::uint32_t src_shard,
                             std::uint64_t post_idx, F&& f) {
    const std::uint64_t seq = cross_seq(src_shard, post_idx);
    const std::uint32_t idx = emplace_callback(std::forward<F>(f));
    ++perf_.events_scheduled;
    return enqueue(when, seq, idx);
  }

  static constexpr std::uint64_t kCrossSeqBit = 1ULL << 63;
  static constexpr unsigned kCrossSrcShift = 40;  // post_idx < 2^40

  /// Cancel a pending event. Returns true if the event existed and had
  /// not yet fired. Cancelling twice, after firing, or from inside the
  /// event's own callback is a harmless no-op that returns false.
  bool cancel(EventHandle h);

  /// Re-arm a pending event to fire `delay` from now (negative delays
  /// clamp to 0), keeping its callback and its handle. The event takes a
  /// fresh seq, so it fires exactly where cancel() plus schedule() would
  /// have put it, and the counters record one cancel plus one schedule.
  /// Returns false, changing nothing, for a stale handle or from inside
  /// the event's own callback.
  bool reschedule(EventHandle h, Duration delay);

  /// Run until the event queue drains or `until` (if >= 0) is reached.
  /// Returns the number of events executed.
  std::size_t run(Time until = -1);

  /// Execute at most one pending event. Returns false when queue is empty
  /// or the next event lies beyond `until` (when `until` >= 0).
  bool step(Time until = -1);

  /// Pending (scheduled, not yet fired or cancelled) event count: the
  /// heap's entries plus the entries parked in FixedDelayQueues behind
  /// their queue's head.
  std::size_t pending() const { return heap_.size() + parked_; }

  /// Time of the earliest pending event, or -1 when none remain (a
  /// parked entry is never earlier than its queue's head, which is on the
  /// heap). The shard coordinator uses this between epochs to skip idle
  /// stretches deterministically.
  Time next_event_time() const { return heap_.empty() ? -1 : heap_[0].when; }

  /// Slots in the callback arena: pending, free and firing. Grows a chunk
  /// of kSlotsPerChunk at a time and never shrinks.
  std::size_t arena_slots() const { return state_.size(); }
  static constexpr std::uint32_t kSlotsPerChunk = 256;

  /// True when no live events remain.
  bool idle() const { return pending() == 0; }

  /// Request run() to stop after the current event completes.
  void stop() { stopped_ = true; }

  /// Full structural audit of the engine: heap shape ((when, seq) order
  /// holds on every parent/child edge), the slot↔position map (every heap
  /// entry's slot records that entry's index and holds a callback), the
  /// freelist (free slots are empty, listed once and nowhere else), the
  /// slots currently firing, the arena partition (queued + free + firing
  /// = every slot), and no pending event in the past. O(arena). Throws
  /// sim::CheckFailure on the first violation. Always compiled (tests
  /// call it directly); the audit build (-DHIPCLOUD_AUDIT=ON)
  /// additionally runs it every 1024 firings.
  void audit_consistency() const;

  /// Per-world performance counters (event engine + buffer pool + packet
  /// pipeline all record into this one instance).
  PerfCounters& perf() { return perf_; }
  const PerfCounters& perf() const { return perf_; }

 private:
  template <typename T>
  friend class FixedDelayQueue;

  // FixedDelayQueue's access. park() draws a pushed entry's seq, the one
  // schedule() would have drawn, counts one schedule and counts the entry
  // as pending off the heap. unpark() puts a parked entry on the heap
  // under its drawn (when, seq) and counts nothing. discard() drops a
  // destroyed queue's entries, its head's event and `parked` others,
  // counting nothing either, as ~EventLoop() counts nothing.
  std::uint64_t park() {
    ++parked_;
    ++perf_.events_scheduled;
    return next_seq_++;
  }
  template <typename F>
  EventHandle unpark(Time when, std::uint64_t seq, F&& f) {
    const std::uint32_t idx = emplace_callback(std::forward<F>(f));
    --parked_;
    return enqueue(when, seq, idx);
  }
  void discard(EventHandle head, std::size_t parked);

  // Position sentinels in SlotState::pos; every other value is the
  // slot's index in heap_. kFiring: off the heap with its callback still
  // alive (running, or being destroyed).
  static constexpr std::uint32_t kFree = 0xffffffffu;  // on the freelist
  static constexpr std::uint32_t kFiring = 0xfffffffeu;
  static constexpr std::uint32_t kChunkShift = 8;
  static_assert(kSlotsPerChunk == 1u << kChunkShift);

  struct SlotState {
    std::uint32_t pos;  // heap index, kFree or kFiring
    std::uint32_t gen;  // bumped on recycle: stale handles never match
  };
  // POD heap entry; the generation lives in the handle and the side array.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;  // tiebreaker: FIFO within the same instant
    std::uint32_t slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  static std::uint64_t cross_seq(std::uint32_t src_shard,
                                 std::uint64_t post_idx);

  InlineFn& callback(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kSlotsPerChunk - 1)];
  }
  const InlineFn& callback(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kSlotsPerChunk - 1)];
  }

  // Builds `f` in the freelist's top slot and only then takes the slot,
  // so a throwing constructor leaves the engine untouched.
  template <typename F>
  std::uint32_t emplace_callback(F&& f) {
    if (free_slots_.empty()) grow_arena();
    const std::uint32_t idx = free_slots_.back();
    callback(idx).emplace(std::forward<F>(f));
    free_slots_.pop_back();
    return idx;
  }

  // Puts the built callback `idx` on the heap; the caller counts it.
  EventHandle enqueue(Time when, std::uint64_t seq, std::uint32_t idx);
  void grow_arena();
  // Heap position of the event `h` names, or kFree when it is not pending.
  std::uint32_t pending_position(EventHandle h) const;
  // Destroys the callable (which may re-enter the loop), bumps the
  // generation and returns the slot to the freelist.
  void release_slot(std::uint32_t idx);
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    state_[e.slot].pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, HeapEntry e);
  void sift_down(std::size_t i, HeapEntry e);
  void heap_erase(std::size_t i);
  // Removes the pending event `h` names, if any, counting nothing.
  bool remove(EventHandle h);

  PerfCounters perf_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  std::uint32_t firing_ = 0;  // callbacks on the stack (nested step() calls)
  std::size_t parked_ = 0;    // pending FixedDelayQueue entries off the heap
  std::vector<HeapEntry> heap_;
  std::vector<SlotState> state_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<InlineFn[]>> chunks_;
};

}  // namespace hipcloud::sim
