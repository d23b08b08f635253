#pragma once

#include <cstdint>
#include <cstdio>

namespace hipcloud::sim {

/// Always-on per-world performance counters. One instance per simulated
/// world (owned by the EventLoop, shared with the buffer pool and the
/// packet pipeline), so the bench harness can report exactly what the
/// simulator substrate did: how many events the engine processed, how
/// often the payload pool recycled a buffer instead of hitting the
/// allocator, and how many payload bytes moved through the datapath by
/// reference rather than by copy.
///
/// Counters are plain uint64 increments on paths that already do far more
/// work per call — the overhead is noise, which is why they stay on even
/// in release builds and can feed every BENCH_*.json.
struct PerfCounters {
  /// FNV-1a parameters (64-bit). The determinism hash folds in one
  /// 64-bit word per round instead of the canonical byte-at-a-time
  /// variant — same mixing structure, 3 multiplies per event instead
  /// of 24, and the auditor only needs stream equality, not FNV
  /// test-vector compatibility.
  static constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
  static constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

  // Event engine.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t events_cancelled = 0;

  /// Rolling hash of every event firing in this world, in firing order:
  /// for each fired event the engine folds in (when, seq). The pair is a
  /// unique, schedule-stable name for the event: local events draw seq
  /// from the loop's FIFO counter, cross-shard events carry a
  /// (src shard, post index) encoding assigned at post time (see
  /// EventLoop::schedule_cross) — so the stream is invariant not only
  /// across worker counts but across epoch slicings (bounded runs stopped
  /// at different instants drain the same posts at different barriers).
  /// Arena slot indices are deliberately NOT folded: slot recycling
  /// depends on when cross events are drained, which is exactly the
  /// freedom the per-pair horizon exploits. Two runs of the same seeded
  /// world are bit-deterministic iff their hash streams match; any hidden
  /// nondeterminism (iteration-order leak, uninitialised read feeding a
  /// timer, cross-world state) diverges the hash at the first bad
  /// firing. bench/audit_determinism re-runs sweep worlds across thread
  /// counts and schedule perturbations and diffs exactly this value.
  std::uint64_t determinism_hash = kFnvOffset;

  /// Fold one event firing into the determinism hash.
  void note_fire(std::int64_t when, std::uint64_t seq) {
    auto fold = [this](std::uint64_t word) {
      determinism_hash = (determinism_hash ^ word) * kFnvPrime;
    };
    fold(static_cast<std::uint64_t>(when));
    fold(seq);
  }

  // Payload buffer pool.
  std::uint64_t pool_hits = 0;    // buffer recycled from a freelist
  std::uint64_t pool_misses = 0;  // freelist empty: fresh heap allocation
  std::uint64_t pool_returns = 0;

  // Packet pipeline.
  std::uint64_t packets_delivered = 0;   // local_deliver on any node
  std::uint64_t payload_bytes_copied = 0;  // memcpy'd between buffers
  std::uint64_t payload_bytes_moved = 0;   // changed owner without a copy

  // Sharded coordinator (filled in by ShardCoordinator::merged_perf).
  // All three are pure functions of the simulated schedule — identical
  // at every worker count — so they can sit next to the hash in every
  // BENCH_*.json without harming comparability.
  std::uint64_t shard_epochs = 0;      // barrier rounds executed
  std::uint64_t shard_strides = 0;     // per-shard bounded run intervals
  std::uint64_t shard_stride_ns = 0;   // total simulated ns those strides span

  void merge(const PerfCounters& o) {
    events_scheduled += o.events_scheduled;
    events_fired += o.events_fired;
    events_cancelled += o.events_cancelled;
    // Per-world hashes are order-sensitive streams; the cross-world
    // combination must not depend on merge order (sweep results arrive
    // by job index regardless of which thread ran them), so worlds
    // combine commutatively. A per-world regression still flips the
    // merged value.
    determinism_hash ^= o.determinism_hash;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    pool_returns += o.pool_returns;
    packets_delivered += o.packets_delivered;
    payload_bytes_copied += o.payload_bytes_copied;
    payload_bytes_moved += o.payload_bytes_moved;
    shard_epochs += o.shard_epochs;
    shard_strides += o.shard_strides;
    shard_stride_ns += o.shard_stride_ns;
  }

  /// Mean events executed per barrier round — the headline the per-pair
  /// horizons drive up (same events, fewer barriers).
  double events_per_epoch() const {
    return shard_epochs ? static_cast<double>(events_fired) /
                              static_cast<double>(shard_epochs)
                        : 0.0;
  }

  double pool_hit_rate() const {
    const std::uint64_t total = pool_hits + pool_misses;
    return total ? static_cast<double>(pool_hits) / static_cast<double>(total)
                 : 0.0;
  }

  /// Fresh payload-buffer heap allocations per delivered packet — the
  /// headline number the pooled pipeline drives down.
  double pool_misses_per_packet() const {
    return packets_delivered ? static_cast<double>(pool_misses) /
                                   static_cast<double>(packets_delivered)
                             : 0.0;
  }

  /// Emit as a JSON object body (no surrounding braces) with the given
  /// indent prefix — shared by every BENCH_*.json writer.
  void write_json_fields(std::FILE* f, const char* indent) const {
    std::fprintf(f,
                 "%s\"determinism_hash\": \"0x%016llx\",\n"
                 "%s\"events_scheduled\": %llu,\n"
                 "%s\"events_fired\": %llu,\n"
                 "%s\"events_cancelled\": %llu,\n"
                 "%s\"pool_hits\": %llu,\n"
                 "%s\"pool_misses\": %llu,\n"
                 "%s\"pool_hit_rate\": %.4f,\n"
                 "%s\"packets_delivered\": %llu,\n"
                 "%s\"pool_misses_per_packet\": %.4f,\n"
                 "%s\"payload_bytes_copied\": %llu,\n"
                 "%s\"payload_bytes_moved\": %llu,\n"
                 "%s\"shard_epochs\": %llu,\n"
                 "%s\"shard_strides\": %llu,\n"
                 "%s\"shard_stride_ns\": %llu,\n"
                 "%s\"events_per_epoch\": %.2f",
                 indent, static_cast<unsigned long long>(determinism_hash),
                 indent, static_cast<unsigned long long>(events_scheduled),
                 indent, static_cast<unsigned long long>(events_fired),
                 indent, static_cast<unsigned long long>(events_cancelled),
                 indent, static_cast<unsigned long long>(pool_hits),
                 indent, static_cast<unsigned long long>(pool_misses),
                 indent, pool_hit_rate(),
                 indent, static_cast<unsigned long long>(packets_delivered),
                 indent, pool_misses_per_packet(),
                 indent, static_cast<unsigned long long>(payload_bytes_copied),
                 indent, static_cast<unsigned long long>(payload_bytes_moved),
                 indent, static_cast<unsigned long long>(shard_epochs),
                 indent, static_cast<unsigned long long>(shard_strides),
                 indent, static_cast<unsigned long long>(shard_stride_ns),
                 indent, events_per_epoch());
  }
};

}  // namespace hipcloud::sim
