#include "sim/shard.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "sim/check.hpp"
#include "sim/log.hpp"

namespace hipcloud::sim {

namespace {

constexpr Time kInfTime = std::numeric_limits<Time>::max();

/// Saturating add for horizon arithmetic: an unconstrained bound plus a
/// finite lookahead stays unconstrained instead of wrapping.
Time sat_add(Time a, Duration b) {
  if (a >= kInfTime - b) return kInfTime;
  return a + b;
}

}  // namespace

// hipcheck:seam — setup-time (re)build of the round state; no workers exist
std::size_t ShardCoordinator::add_shard(EventLoop* loop) {
  const std::size_t id = shards_.size();
  shards_.push_back(loop);
  const std::size_t n = shards_.size();
  // Resizing invalidates mailbox contents, so shards must all register
  // before the first post()/run(); cells are addressed src * n + dst.
  HIPCLOUD_CHECK(inbox_pending() == 0,
                 "add_shard after cross-shard events were posted");
  inboxes_.clear();
  inboxes_.resize(2 * n * n);
  drain_scratch_.resize(n);
  post_seq_.assign(n, 0);
  pair_lookahead_.assign(n * n, -1);
  horizons_.assign(n, -1);
  lbts_.assign(n, kInfTime);
  return id;
}

void ShardCoordinator::register_pair_lookahead(std::size_t src,
                                               std::size_t dst,
                                               Duration lookahead) {
  const std::size_t n = shards_.size();
  HIPCLOUD_CHECK(src < n && dst < n && src != dst,
                 "pair lookahead outside the world");
  HIPCLOUD_CHECK(lookahead > 0, "pair lookahead must be positive");
  Duration& cell = pair_lookahead_[src * n + dst];
  if (cell < 0 || lookahead < cell) cell = lookahead;
}

Duration ShardCoordinator::pair_lookahead(std::size_t src,
                                          std::size_t dst) const {
  const std::size_t n = shards_.size();
  HIPCLOUD_CHECK(src < n && dst < n, "pair lookahead outside the world");
  return pair_lookahead_[src * n + dst];
}

void ShardCoordinator::post(std::size_t src, std::size_t dst, Time when,
                            InlineFn fn) {
  const std::size_t n = shards_.size();
  HIPCLOUD_CHECK(src < n && dst < n, "cross-shard post outside the world");
  HIPCLOUD_CHECK(pair_lookahead_[src * n + dst] >= 0,
                 "cross-shard post on an unregistered seam");
  Inbox& c = cell(write_parity_, src, dst);
  c.events.push_back(CrossEvent{when, post_seq_[src]++, std::move(fn)});
  c.min_when = std::min(c.min_when, when);
}

std::size_t ShardCoordinator::inbox_pending() const {
  std::size_t total = 0;
  for (const Inbox& c : inboxes_) total += c.events.size();
  return total;
}

PerfCounters ShardCoordinator::merged_perf() const {
  // Shard-id order, always: PerfCounters::merge folds the per-shard
  // hashes commutatively, but the float-free counters here and the
  // Summary/Histogram merges one level up are only byte-stable when the
  // merge order itself is fixed — so the coordinator pins it to the id
  // order regardless of which worker finished last.
  PerfCounters merged;
  for (const EventLoop* loop : shards_) merged.merge(loop->perf());
  merged.shard_epochs += epochs_;
  merged.shard_strides += strides_;
  merged.shard_stride_ns += stride_ns_;
  return merged;
}

// hipcheck:seam — the sanctioned inbox drain at the top of a round: the
// barrier crossed between a post and this drain gives the happens-before
// edge, and the parity flip keeps every writer out of the read cells.
void ShardCoordinator::drain_into(std::size_t dst) {
  const std::size_t n = shards_.size();
  const unsigned read_parity = write_parity_ ^ 1u;
  std::vector<DrainRef>& batch = drain_scratch_[dst];
  batch.clear();
  for (std::size_t src = 0; src < n; ++src) {
    for (CrossEvent& e : cell(read_parity, src, dst).events) {
      batch.push_back(
          DrainRef{e.when, static_cast<std::uint32_t>(src), e.post_idx, &e});
    }
  }
  if (batch.empty()) return;
  // (when, src shard, per-source post index) is a total order independent
  // of drain timing. schedule_cross stamps each entry with exactly this
  // identity, so the heap would order them correctly in any insertion
  // order; the sort keeps the canonical sequence visible in schedule
  // order too (events_scheduled traces, audit dumps). It sorts references,
  // so each callback moves once, from its inbox cell into its event slot.
  std::sort(batch.begin(), batch.end(),
            [](const DrainRef& a, const DrainRef& b) {
              return std::tie(a.when, a.src, a.post_idx) <
                     std::tie(b.when, b.src, b.post_idx);
            });
  EventLoop* loop = shards_[dst];
  for (const DrainRef& r : batch) {
    loop->schedule_cross(r.when, r.src, r.post_idx, std::move(r.event->fn));
  }
  for (std::size_t src = 0; src < n; ++src) {
    Inbox& c = cell(read_parity, src, dst);
    c.events.clear();
    c.min_when = kInfTime;
  }
}

// hipcheck:seam — the cross-worker failure funnel; mutex-serialized
void ShardCoordinator::record_failure() {
  const MutexLock lock(failure_mu_);
  if (!first_failure_) first_failure_ = std::current_exception();
  failed_.store(true, std::memory_order_relaxed);
}

// hipcheck:seam — barrier-completion step: every worker is parked, so the
// shared round state (horizons_, lbts_, write parity, schedule counters)
// has exactly one running writer and the barrier release publishes it.
void ShardCoordinator::compute_horizons(Time until, bool& done) {
  const std::size_t n = shards_.size();
  // l(i) starts at next(i): the earliest pending work for shard i, from
  // its own heap or from the undrained posts addressed to it, which all
  // sit in write cells (the read cells were drained this round). These
  // are the committed clocks' forward projections published at this
  // barrier — every shard's loop is parked, so the reads are exact.
  for (std::size_t i = 0; i < n; ++i) {
    const Time t = shards_[i]->next_event_time();
    lbts_[i] = t >= 0 ? t : kInfTime;
  }
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      lbts_[dst] = std::min(lbts_[dst], cell(write_parity_, src, dst).min_when);
    }
  }
  const Time global_min = *std::min_element(lbts_.begin(), lbts_.end());
  if (global_min == kInfTime || (until >= 0 && global_min > until)) {
    done = true;
    return;
  }

  // Fixed point of l(i) = min(next(i), min_j l(j) + la(j,i)) over the
  // registered seams — a shortest-path relaxation, so at most n-1 sweeps
  // converge; worlds converge in 2-3 because seams are few. l(i)
  // lower-bounds the next instant shard i can fire (and hence emit)
  // anything.
  for (std::size_t round = 1; round < n; ++round) {
    bool changed = false;
    for (std::size_t dst = 0; dst < n; ++dst) {
      for (std::size_t src = 0; src < n; ++src) {
        const Duration la = pair_lookahead_[src * n + dst];
        if (la < 0) continue;
        const Time cand = sat_add(lbts_[src], la);
        if (cand < lbts_[dst]) {
          lbts_[dst] = cand;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  // horizon(i): nothing can arrive from seam (j,i) before l(j) +
  // la(j,i), so shard i safely commits through the min of those. The
  // shard holding the global minimum l always clears its own horizon
  // (every term is >= l_min + positive la), so each round fires at
  // least one event — progress is unconditional.
  for (std::size_t i = 0; i < n; ++i) {
    Time h = kInfTime;
    for (std::size_t j = 0; j < n; ++j) {
      const Duration la = pair_lookahead_[j * n + i];
      if (la < 0) continue;
      h = std::min(h, sat_add(lbts_[j], la));
    }
    if (until >= 0 && h > until) h = until;
    horizons_[i] = h == kInfTime ? -1 : h;
  }

  // The posts just read become the next round's drain.
  write_parity_ ^= 1u;
  ++epochs_;
  for (std::size_t i = 0; i < n; ++i) {
    const Time h = horizons_[i];
    if (h < 0) {
      // Unconstrained drain stride (no incoming seam).
      if (shards_[i]->pending() > 0) ++strides_;
    } else if (h > shards_[i]->now()) {
      ++strides_;
      stride_ns_ += static_cast<std::uint64_t>(h - shards_[i]->now());
    }
  }
}

unsigned ShardCoordinator::plan_workers(unsigned requested) const {
  const std::size_t n = shards_.size();
  if (n == 0) return 1;
  if (requested >= 1) {
    return requested > n ? static_cast<unsigned>(n) : requested;
  }
  // Auto: size the pool from the work on hand. Barrier rounds cost real
  // wall time per worker, so tiny worlds (the 1k-client fig_scale point)
  // must collapse to few workers no matter how many cores the host has.
  std::size_t pending = inbox_pending();
  for (const EventLoop* loop : shards_) pending += loop->pending();
  std::size_t by_work = pending / kAutoEventsPerWorker;
  if (by_work < 1) by_work = 1;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::size_t w = std::min<std::size_t>({by_work, n, hw});
  return static_cast<unsigned>(w);
}

// hipcheck:seam — owns the worker pool: resets the shared failure funnel
// before any worker exists and reads it back after every join.
std::size_t ShardCoordinator::run(Time until, unsigned workers) {
  const std::size_t n = shards_.size();
  if (n == 0) return 0;
  workers = plan_workers(workers);
  failed_.store(false, std::memory_order_relaxed);
  first_failure_ = nullptr;

  // The first horizon step reads only write cells. A run ended by a
  // failure can leave posts in read cells its last round never drained;
  // move them over (the drain sorts, so their order does not matter).
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      Inbox& stale = cell(write_parity_ ^ 1u, src, dst);
      if (stale.events.empty()) continue;
      Inbox& live = cell(write_parity_, src, dst);
      for (CrossEvent& e : stale.events) live.events.push_back(std::move(e));
      live.min_when = std::min(live.min_when, stale.min_when);
      stale.events.clear();
      stale.min_when = kInfTime;
    }
  }

  std::uint64_t fired_before = 0;
  for (const EventLoop* loop : shards_) fired_before += loop->perf().events_fired;

  // Round state: written only inside the barrier completion (all workers
  // parked) or before the workers start, read by workers after release —
  // the barrier itself is the synchronization.
  bool done = false;
  auto advance = [&]() noexcept {
    if (failed_.load(std::memory_order_relaxed)) {
      done = true;
      return;
    }
    compute_horizons(until, done);
  };

  std::barrier sync(static_cast<std::ptrdiff_t>(workers), advance);

  advance();  // compute the first round's horizons before any worker exists

  auto worker_main = [&](unsigned w) {
    // Audited shared reads in this loop: `done`, horizons_ and the write
    // parity are written only by the barrier completion (advance) while
    // every worker is parked, and the barrier release sequences those
    // writes before the reads below — plain loads are race-free. failed_
    // and barrier_wait_ns_ are relaxed atomics by design (flag and
    // counter; no data rides on their ordering).
    while (!done) {
      // Drain each owned shard's read cells (posted during the previous
      // round; nobody writes them this round), then run its loop to its
      // own horizon. Static id-striped ownership: assignment affects only
      // wall time, never what any shard executes.
      if (!failed_.load(std::memory_order_relaxed)) {
        try {
          for (std::size_t s = w; s < n; s += workers) {
            drain_into(s);
            Log::set_shard_id(static_cast<int>(s));
            shards_[s]->run(horizons_[s]);
          }
        } catch (...) {
          record_failure();
        }
        Log::set_shard_id(-1);
      }
      // hipcheck:allow(wall-clock): barrier-wait telemetry; never feeds sim state
      const auto wait = std::chrono::steady_clock::now();
      sync.arrive_and_wait();  // completion computes the next horizons
      barrier_wait_ns_.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  // hipcheck:allow(wall-clock): barrier-wait telemetry; never feeds sim state
                  std::chrono::steady_clock::now() - wait)
                  .count()),
          std::memory_order_relaxed);
    }
  };

  if (workers == 1) {
    worker_main(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_main, w);
    for (std::thread& t : pool) t.join();
  }

  {
    // The joins above already order every record_failure() before this
    // read; the lock is for the thread-safety analysis (first_failure_ is
    // GUARDED_BY) and costs one uncontended acquire per run.
    const MutexLock lock(failure_mu_);
    if (first_failure_) std::rethrow_exception(first_failure_);
  }

  if (until >= 0) {
    // Leave every clock at exactly `until` (EventLoop::run semantics for
    // bounded runs); nothing fires — the termination check proved no
    // event at or before `until` remains anywhere.
    for (EventLoop* loop : shards_) loop->run(until);
  }

  std::uint64_t fired_after = 0;
  for (const EventLoop* loop : shards_) fired_after += loop->perf().events_fired;
  return static_cast<std::size_t>(fired_after - fired_before);
}

}  // namespace hipcloud::sim
