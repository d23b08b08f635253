#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/inline_fn.hpp"
#include "sim/perf.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace hipcloud::sim {

/// Conservative parallel discrete-event coordinator: N single-threaded
/// EventLoops (one per shard) advance in barrier-synchronized rounds.
/// Each round computes a *per-shard horizon* from adaptive per-pair
/// channel lookahead: every ordered shard pair (j,i) carries the minimum
/// delivery latency of links crossing that seam, and shard i may run to
///
///   horizon(i) = min over incoming seams (j,i) of  l(j) + lookahead(j,i)
///
/// where l(j) is a lower bound on the next instant shard j can fire any
/// event — the fixed point of l(j) = min(next(j), min_k l(k) +
/// lookahead(k,j)) over the published per-shard committed clocks and
/// next-event times, computed once per barrier. Shards connected only by
/// slow seams take long strides; idle shards skip ahead; a fast seam
/// between two other shards never throttles them. Cross-shard posts are
/// legal only on registered seams (checked), so a pair with no
/// registered seam carries no traffic and imposes no constraint at all.
/// This is the only horizon rule; net::ShardedWorld registers each seam
/// when it connects a CrossLinkHalf pair across it.
///
/// Cross-shard traffic flows through per-(src,dst) inboxes, two cells
/// per pair selected by epoch parity, and each round crosses one barrier:
///
///  - During a round, a shard posts a cross-shard event with post():
///    an absolute firing time plus a callback, appended to the pair's
///    *write* cell, whose minimum post time it lowers. Each write cell has
///    exactly one writer (the source shard's worker), so appends are
///    plain vector pushes — no locks, no atomics.
///  - The barrier completion computes the next horizons from every
///    loop's next_event_time() and the write cells' minima (n² reads, no
///    scan of the posts), then flips the parity: this round's write cells
///    become the next round's read cells.
///  - At the top of the next round, each worker drains the read cells
///    addressed to its shards, sorts the entries by (when, src shard,
///    source post index) and schedules them into the destination loop
///    via EventLoop::schedule_cross, which stamps the entry with a (src,
///    post index) identity fixed at post time; then it runs each shard to
///    its horizon. The barrier between a post and its drain gives the
///    happens-before edge, and nobody writes a read cell while it drains.
///
/// Determinism: the shard partition is part of the world's topology, and
/// nothing in the horizon computation, drain order, or per-loop event
/// order depends on the number of worker threads or on OS scheduling.
/// Moreover the per-loop (when, seq) firing streams are invariant across
/// *epoch slicings*: local events draw seq from the loop's FIFO counter
/// (which cross arrivals do not consume) and cross arrivals carry their
/// post-time identity, so draining the same posts at different barriers
/// cannot reorder or rename any firing. The per-shard FNV-1a hashes and
/// their shard-id-order merge are therefore byte-identical whether the
/// same world runs on 1 worker or N, in one run or in several bounded
/// runs.
class ShardCoordinator {
 public:
  ShardCoordinator() = default;
  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Register a shard's loop; returns its shard id (dense, 0-based).
  /// All shards must be added before the first run().
  std::size_t add_shard(EventLoop* loop);

  std::size_t shard_count() const { return shards_.size(); }
  EventLoop* shard(std::size_t id) { return shards_[id]; }

  /// Record that links cross the ordered seam (src,dst) with delivery
  /// latency >= `lookahead`, which must be positive. Shrink-only min:
  /// registering a faster link later tightens the pair (legal between
  /// runs — outstanding posts were validated against the older, larger
  /// bound). Posts on a registered pair must arrive at least
  /// `pair_lookahead(src,dst)` after the source's committed clock, or
  /// conservative synchronization is violated (a post could land inside
  /// the round that issued it).
  void register_pair_lookahead(std::size_t src, std::size_t dst,
                               Duration lookahead);

  /// The registered seam lookahead, or -1 when (src,dst) has none.
  Duration pair_lookahead(std::size_t src, std::size_t dst) const;

  /// Post a cross-shard event: run `fn` in shard `dst`'s loop at absolute
  /// time `when`. Called only from `src`'s worker during a round (or
  /// from the setup thread before run()); (src,dst) must be a registered
  /// seam (checked), and the lookahead contract requires `when` to be at
  /// or beyond `dst`'s current horizon.
  void post(std::size_t src, std::size_t dst, Time when, InlineFn fn);

  /// Run every shard to `until` (inclusive, like EventLoop::run; pass -1
  /// to run until all loops and inboxes drain) using `workers` threads.
  /// workers is clamped to [1, shard_count]; 1 runs inline on the caller;
  /// 0 picks a count automatically (see plan_workers). Returns the total
  /// number of events fired across all shards.
  std::size_t run(Time until, unsigned workers = 1);

  /// The worker count run() will actually use for `requested`. An
  /// explicit request (>= 1) is only clamped to [1, shard_count]. A
  /// request of 0 sizes the pool from the work on hand: one worker per
  /// kAutoEventsPerWorker currently-pending events, capped by the host's
  /// hardware concurrency and the shard count — so tiny worlds run
  /// inline instead of paying barrier traffic for microseconds of work.
  unsigned plan_workers(unsigned requested) const;

  /// Auto-sizing grain: pending events per worker below which adding a
  /// worker costs more in barrier rounds than it saves in parallelism
  /// (measured on the 1k-client fig_scale point, which regressed to
  /// 0.895x at 8 workers before the clamp).
  static constexpr std::size_t kAutoEventsPerWorker = 2048;

  /// Cross-shard events still waiting in inboxes, in either parity cell
  /// (only meaningful between runs; exposed for tests).
  std::size_t inbox_pending() const;

  /// Barrier rounds executed across all runs so far. A pure function of
  /// the simulated schedule — identical at every worker count — and the
  /// denominator of the events-per-epoch bench column.
  std::uint64_t epochs() const { return epochs_; }

  /// Total wall-clock nanoseconds workers spent parked at the round
  /// barrier, summed across workers and runs. Telemetry only (never
  /// feeds simulation state or the hash): the BENCH_scale.json
  /// barrier-wait column.
  std::uint64_t barrier_wait_ns() const {
    return barrier_wait_ns_.load(std::memory_order_relaxed);
  }

  /// Per-shard counters merged in shard-id order — never in worker
  /// completion order — so the merged stream (and the JSON it feeds) is
  /// byte-identical for every worker count. The coordinator's own
  /// epoch/stride counters ride along in the shard_* fields.
  PerfCounters merged_perf() const;

  /// The world determinism hash: the shard-id-order merge of the
  /// per-shard FNV-1a firing streams.
  std::uint64_t world_hash() const { return merged_perf().determinism_hash; }

 private:
  struct CrossEvent {
    Time when;
    std::uint64_t post_idx;  // per-source posting counter: drain tiebreak
    InlineFn fn;
  };
  /// One single-writer mailbox cell per (src,dst) shard pair and parity.
  struct Inbox {
    std::vector<CrossEvent> events;
    /// Earliest `when` in `events`; the largest Time while it is empty.
    Time min_when = std::numeric_limits<Time>::max();
  };
  /// A drained inbox entry, sorted by (when, src, post_idx) in place of
  /// the entry itself.
  struct DrainRef {
    Time when;
    std::uint32_t src;
    std::uint64_t post_idx;
    CrossEvent* event;
  };

  void compute_horizons(Time until, bool& done);
  /// The cell of (src,dst) at `parity`.
  Inbox& cell(unsigned parity, std::size_t src, std::size_t dst) {
    const std::size_t n = shards_.size();
    return inboxes_[(parity * n + src) * n + dst];
  }
  void drain_into(std::size_t dst);
  void record_failure() HIPCLOUD_EXCLUDES(failure_mu_);

  std::vector<EventLoop*> shards_;
  // Single-writer mailbox cells, addressed through cell(parity, src,
  // dst). During a round the write cell of (src,dst) and post_seq_[src]
  // are appended only by src's worker, and the read cell of (src,dst) is
  // drained only by dst's worker, so the ownership analyzer treats them
  // as confined to one shard at a time.
  std::vector<Inbox> inboxes_;            // hipcheck:shard_owned
  std::vector<std::uint64_t> post_seq_;   // hipcheck:shard_owned
  // drain_into's reused batch, one per destination; drain_scratch_[dst]
  // is touched only by dst's worker.
  std::vector<std::vector<DrainRef>> drain_scratch_;  // hipcheck:shard_owned
  // src * shard_count + dst; -1: no registered seam (always so on the
  // diagonal), so the pair carries no posts and bounds no horizon.
  std::vector<Duration> pair_lookahead_;

  // Round state: written only inside the barrier completion (all workers
  // parked) or before the workers start, read by workers after release —
  // the barrier itself is the synchronization. horizons_[i] is the bound
  // shard i runs to this round (-1: unconstrained, run to drain).
  std::vector<Time> horizons_;  // hipcheck:shard_shared
  std::vector<Time> lbts_;      // hipcheck:shard_shared — fixed-point scratch

  // The parity whose cells post() appends to; flipped only by the
  // barrier completion once it has read the write cells' minima.
  unsigned write_parity_ = 0;   // hipcheck:shard_shared

  // Deterministic schedule counters (see epochs()); barrier-published
  // like the horizons above.
  std::uint64_t epochs_ = 0;     // hipcheck:shard_shared
  std::uint64_t strides_ = 0;    // hipcheck:shard_shared
  std::uint64_t stride_ns_ = 0;  // hipcheck:shard_shared

  // Wall-clock telemetry (see barrier_wait_ns()); relaxed atomic, any
  // worker may add at any time.
  std::atomic<std::uint64_t> barrier_wait_ns_{0};  // hipcheck:shard_shared

  // Per-run worker failure funnel: a throwing shard callback must not
  // deadlock the barrier protocol, so workers record here, go passive,
  // and the round completion shuts the run down.
  std::atomic<bool> failed_{false};  // hipcheck:shard_shared
  Mutex failure_mu_;
  std::exception_ptr first_failure_ HIPCLOUD_GUARDED_BY(failure_mu_);  // hipcheck:shard_shared
};

}  // namespace hipcloud::sim
