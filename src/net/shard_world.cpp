#include "net/shard_world.hpp"

#include <utility>

#include "sim/check.hpp"
#include "sim/random.hpp"

namespace hipcloud::net {

// hipcheck:seam — the one sanctioned shard crossing in the network layer:
// the posted callback touches only by-value copies (node pointer and
// interface index; the payload is re-staged pool-free).
void CrossLinkHalf::schedule_delivery(sim::Time arrival, Node* to,
                                      std::size_t to_iface, Packet&& pkt) {
  // The payload may sit in a pooled block owned by the sending shard's
  // BufferPool; pools are single-threaded, so the block must not cross
  // the seam (the destination would run its destructor and push it onto
  // a foreign freelist). Stage a pool-free copy here, on the sending
  // thread, preserving the head/tailroom window so the receive path can
  // still grow headers in place. The copy is charged to the sending
  // shard — it is the real cost of the shard seam and shows up in every
  // BENCH json as payload_bytes_copied.
  crypto::Buffer staged(pkt.payload.view(), pkt.payload.headroom(),
                        pkt.payload.tailroom());
  network().perf().payload_bytes_copied += pkt.payload.size();
  pkt.payload = std::move(staged);
  coord_.post(src_shard_, dst_shard_, arrival,
              [to, to_iface, p = std::move(pkt)]() mutable {
                to->deliver(std::move(p), to_iface);
              });
}

ShardedWorld::ShardedWorld(std::size_t shards, std::uint64_t seed) {
  HIPCLOUD_CHECK(shards > 0, "a sharded world needs at least one shard");
  sim::SplitMix64 seeder(seed);
  nets_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    nets_.push_back(std::make_unique<Network>(seeder.next()));
    coord_.add_shard(&nets_.back()->loop());
  }
}

ShardedWorld::CrossAttachment ShardedWorld::connect_cross(
    std::size_t shard_a, Node* a, std::size_t shard_b, Node* b,
    const LinkConfig& config) {
  HIPCLOUD_CHECK(shard_a < nets_.size() && shard_b < nets_.size(),
                 "connect_cross outside the world");
  HIPCLOUD_CHECK(shard_a != shard_b,
                 "connect_cross within one shard: use Network::connect");
  HIPCLOUD_CHECK(config.latency > 0,
                 "cross-shard links need positive latency (lookahead)");
  auto ab = std::make_unique<CrossLinkHalf>(coord_, shard_a, shard_b,
                                            *nets_[shard_a], a, b, config);
  auto ba = std::make_unique<CrossLinkHalf>(coord_, shard_b, shard_a,
                                            *nets_[shard_b], b, a, config);
  CrossAttachment att;
  att.a_to_b = ab.get();
  att.b_to_a = ba.get();
  att.iface_a = a->attach_link(ab.get());
  att.iface_b = b->attach_link(ba.get());
  // Each half delivers into the interface the opposite half occupies on
  // the far node.
  ab->set_interfaces(att.iface_a, att.iface_b);
  ba->set_interfaces(att.iface_b, att.iface_a);
  cross_links_.push_back(std::move(ab));
  cross_links_.push_back(std::move(ba));
  // The seam's channel lookahead, both directions: a delivery can leave
  // no earlier than `latency` after the instant the sender commits the
  // transmit, so the coordinator may stride each receiver past every
  // remote clock by its own seam's minimum. Every cross post this world
  // issues rides a CrossLinkHalf, so these are its only seams; pairs
  // never connected carry no traffic and bound no horizon. Shrink-only:
  // adding a faster link mid-build (or between runs) tightens just this
  // pair.
  coord_.register_pair_lookahead(shard_a, shard_b, config.latency);
  coord_.register_pair_lookahead(shard_b, shard_a, config.latency);
  return att;
}

std::size_t ShardedWorld::run(sim::Time until, unsigned workers) {
  return coord_.run(until, workers);
}

}  // namespace hipcloud::net
