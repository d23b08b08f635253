#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/node.hpp"
#include "sim/shard.hpp"

namespace hipcloud::net {

class ShardedWorld;

/// One direction of a cross-shard link. A cross-shard connection is a
/// *pair* of these, one owned by each endpoint's shard: every piece of
/// link state a sender touches (rng for loss, busy_until, drop/delivery
/// counters) lives in the sending shard, so the transmit path needs no
/// synchronization. Only the final delivery crosses the seam, as a
/// coordinator post carrying a pool-free copy of the payload; it lands on
/// the interface the opposite half occupies on the remote node.
class CrossLinkHalf : public Link {
 public:
  CrossLinkHalf(sim::ShardCoordinator& coord, std::size_t src_shard,
                std::size_t dst_shard, Network& src_net, Node* local,
                Node* remote, const LinkConfig& config)
      : Link(src_net, local, remote, config),
        coord_(coord),
        src_shard_(src_shard),
        dst_shard_(dst_shard) {}

 protected:
  void schedule_delivery(sim::Time arrival, Node* to, std::size_t to_iface,
                         Packet&& pkt) override;

 private:
  sim::ShardCoordinator& coord_;
  std::size_t src_shard_;
  std::size_t dst_shard_;
};

/// A world partitioned into shards: one Network (event loop, buffer
/// pool, rng, nodes, links) per shard, stitched together by cross-shard
/// links and run in conservative lockstep by a sim::ShardCoordinator.
///
/// The partition is part of the topology — the same ShardedWorld build
/// always produces the same per-shard event streams — and the worker
/// count passed to run() is pure execution policy. world_hash() is
/// byte-identical for any worker count.
class ShardedWorld {
 public:
  /// `seed` derives every shard's Network seed via SplitMix64, so two
  /// worlds built with the same seed and topology are identical and
  /// shards never share a generator.
  explicit ShardedWorld(std::size_t shards, std::uint64_t seed = 1);

  std::size_t shard_count() const { return nets_.size(); }
  Network& shard(std::size_t id) { return *nets_[id]; }
  sim::ShardCoordinator& coordinator() { return coord_; }

  struct CrossAttachment {
    Link* a_to_b;  // attached on a (lives in a's shard)
    Link* b_to_a;  // attached on b (lives in b's shard)
    std::size_t iface_a;
    std::size_t iface_b;
  };

  /// Connect node `a` (in shard_a) to node `b` (in shard_b) with a
  /// cross-shard link. `config.latency` must be positive: it is the
  /// channel lookahead registered for the (shard_a, shard_b) seam in
  /// both directions, so each shard's per-round horizon is bounded only
  /// by the seams actually pointing at it.
  CrossAttachment connect_cross(std::size_t shard_a, Node* a,
                                std::size_t shard_b, Node* b,
                                const LinkConfig& config);

  /// Run all shards to `until` on `workers` threads (see
  /// sim::ShardCoordinator::run). Returns total events fired.
  std::size_t run(sim::Time until, unsigned workers = 1);

  /// Shard-id-order merge of every shard's counters.
  sim::PerfCounters merged_perf() const { return coord_.merged_perf(); }
  std::uint64_t world_hash() const { return coord_.world_hash(); }

 private:
  std::vector<std::unique_ptr<Network>> nets_;
  sim::ShardCoordinator coord_;
  std::vector<std::unique_ptr<CrossLinkHalf>> cross_links_;
};

}  // namespace hipcloud::net
