#include "cloud/shard_fabric.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "net/node.hpp"
#include "sim/time.hpp"

namespace hipcloud::cloud {
namespace {

struct FabricRun {
  std::uint64_t hash;
  std::uint64_t fired;
  std::vector<int> received;  // per rack
};

/// Build a 4-rack fabric, have every rack's VM fire UDP probes at the
/// VMs two neighbouring racks over the cross-shard gateway mesh, and
/// count receipts per rack. Counters are written only by the owning
/// rack's shard thread, so the test is exact under TSan too.
FabricRun run_fabric(unsigned workers) {
  FabricConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 1;
  cfg.vms_per_host = 1;
  ShardedFabric fabric(cfg);

  std::vector<int> received(cfg.racks, 0);
  std::vector<net::IpAddr> vm_ip;
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    Vm* vm = fabric.rack_vms(r)[0].get();
    vm_ip.emplace_back(vm->private_ip());
    vm->node()->register_protocol(
        net::IpProto::kUdp,
        [&received, r](net::Packet&&) { ++received[r]; });
  }
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    Vm* vm = fabric.rack_vms(r)[0].get();
    for (std::size_t hop = 1; hop <= 2; ++hop) {
      const std::size_t peer = (r + hop) % cfg.racks;
      const sim::Time at = sim::from_micros(10 + 7 * static_cast<int>(r) +
                                            3 * static_cast<int>(hop));
      fabric.world().shard(r).loop().schedule_at(at, [&, vm, r, peer] {
        net::Packet pkt;
        pkt.src = vm_ip[r];
        pkt.dst = vm_ip[peer];
        pkt.proto = net::IpProto::kUdp;
        pkt.payload = fabric.world().shard(r).buffer_pool().make(128);
        pkt.stamp_l3_overhead();
        vm->node()->send(std::move(pkt));
      });
    }
  }
  fabric.run(sim::from_millis(50), workers);
  return FabricRun{fabric.world_hash(), fabric.merged_perf().events_fired,
                   std::move(received)};
}

TEST(ShardedFabric, CrossRackTrafficArrivesAndHashIsWorkerInvariant) {
  const FabricRun base = run_fabric(1);
  // Every rack is probed by its two upstream neighbours.
  EXPECT_EQ(base.received, (std::vector<int>{2, 2, 2, 2}));
  for (const unsigned workers : {2u, 4u}) {
    const FabricRun r = run_fabric(workers);
    EXPECT_EQ(r.hash, base.hash) << "workers=" << workers;
    EXPECT_EQ(r.fired, base.fired) << "workers=" << workers;
    EXPECT_EQ(r.received, base.received) << "workers=" << workers;
  }
}

TEST(ShardedFabric, RackTopologyAndAddressing) {
  FabricConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 2;
  cfg.vms_per_host = 2;
  ShardedFabric fabric(cfg);
  ASSERT_EQ(fabric.racks(), 3u);
  EXPECT_EQ(fabric.world().shard_count(), 3u);
  // Every pair of racks is a seam, both ways, at the mesh latency.
  auto& coord = fabric.world().coordinator();
  for (std::size_t i = 0; i < cfg.racks; ++i) {
    for (std::size_t j = 0; j < cfg.racks; ++j) {
      EXPECT_EQ(coord.pair_lookahead(i, j),
                i == j ? sim::Duration{-1} : cfg.cross_rack.latency);
    }
  }
  for (std::size_t r = 0; r < cfg.racks; ++r) {
    ASSERT_EQ(fabric.rack_vms(r).size(), 4u);
    for (const auto& vm : fabric.rack_vms(r)) {
      // Rack r lives in shard r, a pure function of the topology.
      EXPECT_EQ(&vm->node()->network(), &fabric.world().shard(r));
      // Rack r owns 10.r.0.0/16 (cloud index = rack id).
      const std::uint32_t ip = vm->private_ip().value();
      EXPECT_EQ(ip >> 24, 10u);
      EXPECT_EQ((ip >> 16) & 0xffu, static_cast<std::uint32_t>(r));
    }
  }
}

}  // namespace
}  // namespace hipcloud::cloud
