#include "net/shard_world.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/bytes.hpp"
#include "net/node.hpp"
#include "sim/time.hpp"

namespace hipcloud::net {
namespace {

Packet make_udp(Network& net, const IpAddr& src, const IpAddr& dst,
                std::size_t payload_len) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.proto = IpProto::kUdp;
  pkt.payload = net.buffer_pool().make(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    pkt.payload.data()[i] = static_cast<std::uint8_t>(i);
  }
  pkt.stamp_l3_overhead();
  return pkt;
}

TEST(ShardedWorld, CrossShardDeliveryTimingMatchesLinkPhysics) {
  ShardedWorld world(2, /*seed=*/7);
  Node* a = world.shard(0).add_node("a");
  Node* b = world.shard(1).add_node("b");
  const IpAddr a_addr(Ipv4Addr(10, 0, 0, 1));
  const IpAddr b_addr(Ipv4Addr(10, 1, 0, 1));

  LinkConfig cfg;
  cfg.bandwidth_bps = 1e9;
  cfg.latency = sim::from_micros(200);
  const auto att = world.connect_cross(0, a, 1, b, cfg);
  a->add_address(att.iface_a, a_addr);
  b->add_address(att.iface_b, b_addr);
  a->add_route(b_addr, 32, att.iface_a);

  constexpr std::size_t kPayload = 1000;
  sim::Time rx_time = -1;
  std::size_t rx_bytes = 0;
  b->register_protocol(IpProto::kUdp, [&](Packet&& pkt) {
    rx_time = world.shard(1).loop().now();
    rx_bytes = pkt.payload.size();
    // The payload crossed the shard seam as a pool-free copy; the bytes
    // themselves must survive intact.
    EXPECT_EQ(pkt.payload.data()[13], 13);
  });

  const sim::Time t0 = sim::from_micros(10);
  world.shard(0).loop().schedule_at(t0, [&] {
    a->send(make_udp(world.shard(0), a_addr, b_addr, kPayload));
  });
  world.run(sim::from_millis(5), /*workers=*/2);

  // Arrival = send + serialization(wire bytes at 1 Gb/s) + latency, the
  // exact same physics as an intra-shard link.
  const std::size_t wire = kPayload + 20;
  const auto serialization = static_cast<sim::Duration>(
      static_cast<double>(wire) * 8.0 / cfg.bandwidth_bps *
      static_cast<double>(sim::kSecond));
  EXPECT_EQ(rx_time, t0 + serialization + cfg.latency);
  EXPECT_EQ(rx_bytes, kPayload);
  EXPECT_EQ(att.a_to_b->delivered_packets(), 1u);
  // The sending shard charged itself for the seam copy.
  EXPECT_EQ(world.shard(0).perf().payload_bytes_copied, kPayload);
}

TEST(ShardedWorld, HashAndCountersWorkerInvariant) {
  // Ping-pong traffic across the seam at every worker count: the merged
  // determinism hash and per-shard node counters must not move.
  auto build_and_run = [](unsigned workers) {
    ShardedWorld world(2, /*seed=*/42);
    Node* a = world.shard(0).add_node("a");
    Node* b = world.shard(1).add_node("b");
    const IpAddr a_addr(Ipv4Addr(10, 0, 0, 1));
    const IpAddr b_addr(Ipv4Addr(10, 1, 0, 1));
    LinkConfig cfg;
    cfg.latency = sim::from_micros(120);
    const auto att = world.connect_cross(0, a, 1, b, cfg);
    a->add_address(att.iface_a, a_addr);
    b->add_address(att.iface_b, b_addr);
    a->add_route(b_addr, 32, att.iface_a);
    b->add_route(a_addr, 32, att.iface_b);

    int bounces = 0;
    b->register_protocol(IpProto::kUdp, [&, a_addr, b_addr](Packet&& pkt) {
      Packet back;
      back.src = b_addr;
      back.dst = a_addr;
      back.proto = IpProto::kUdp;
      back.payload = std::move(pkt.payload);
      back.stamp_l3_overhead();
      b->send(std::move(back));
    });
    a->register_protocol(IpProto::kUdp, [&](Packet&& pkt) {
      ++bounces;
      if (bounces < 8) {
        Packet again;
        again.src = pkt.dst;
        again.dst = pkt.src;
        again.proto = IpProto::kUdp;
        again.payload = std::move(pkt.payload);
        again.stamp_l3_overhead();
        a->send(std::move(again));
      }
    });
    world.shard(0).loop().schedule_at(sim::from_micros(1), [&] {
      Packet first;
      first.src = a_addr;
      first.dst = b_addr;
      first.proto = IpProto::kUdp;
      first.payload = world.shard(0).buffer_pool().make(256);
      first.stamp_l3_overhead();
      a->send(std::move(first));
    });
    world.run(sim::from_millis(20), workers);
    return std::tuple{world.world_hash(), world.merged_perf().events_fired,
                      bounces, a->sent_packets(), b->received_packets()};
  };

  const auto base = build_and_run(1);
  EXPECT_EQ(std::get<2>(base), 8);
  EXPECT_EQ(build_and_run(2), base);
  EXPECT_EQ(build_and_run(4), base);
}

TEST(ShardedWorld, RejectsSameShardAndZeroLatencyCrossLinks) {
  ShardedWorld world(2);
  Node* a = world.shard(0).add_node("a");
  Node* a2 = world.shard(0).add_node("a2");
  Node* b = world.shard(1).add_node("b");
  LinkConfig zero;
  zero.latency = 0;
  EXPECT_ANY_THROW(world.connect_cross(0, a, 0, a2, LinkConfig{}));
  EXPECT_ANY_THROW(world.connect_cross(0, a, 1, b, zero));
}

TEST(ShardedWorld, ConnectCrossRegistersPerPairLookaheadBothWays) {
  ShardedWorld world(3);
  Node* a = world.shard(0).add_node("a");
  Node* b = world.shard(1).add_node("b");
  Node* c = world.shard(2).add_node("c");
  LinkConfig slow;
  slow.latency = sim::from_millis(2);
  LinkConfig fast;
  fast.latency = sim::from_micros(30);
  world.connect_cross(0, a, 1, b, slow);
  world.connect_cross(1, b, 2, c, fast);
  auto& coord = world.coordinator();
  // Each seam keeps its own channel lookahead, in both directions; the
  // never-connected (0,2) seam has none and carries no traffic.
  EXPECT_EQ(coord.pair_lookahead(0, 1), slow.latency);
  EXPECT_EQ(coord.pair_lookahead(1, 0), slow.latency);
  EXPECT_EQ(coord.pair_lookahead(1, 2), fast.latency);
  EXPECT_EQ(coord.pair_lookahead(2, 1), fast.latency);
  EXPECT_EQ(coord.pair_lookahead(0, 2), sim::Duration{-1});
  // A second, faster link on an existing seam shrinks just that pair —
  // the dynamic-link-addition contract.
  LinkConfig faster;
  faster.latency = sim::from_micros(400);
  world.connect_cross(0, a, 1, b, faster);
  EXPECT_EQ(coord.pair_lookahead(0, 1), faster.latency);
  EXPECT_EQ(coord.pair_lookahead(1, 0), faster.latency);
  EXPECT_EQ(coord.pair_lookahead(1, 2), fast.latency);
}

}  // namespace
}  // namespace hipcloud::net
