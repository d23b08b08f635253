#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/cloud.hpp"
#include "net/shard_world.hpp"

namespace hipcloud::cloud {

struct FabricConfig {
  std::size_t racks = 4;
  std::size_t hosts_per_rack = 2;
  std::size_t vms_per_host = 2;
  ProviderProfile profile = ProviderProfile::ec2();
  /// Rack-to-rack interconnect. Its latency is every rack seam's
  /// lookahead: bigger = longer epochs and fewer barriers, smaller =
  /// tighter cross-rack RTTs. Must stay positive.
  net::LinkConfig cross_rack{/*bandwidth_bps=*/10e9,
                             /*latency=*/sim::from_micros(100),
                             /*max_queue_delay=*/sim::from_millis(50),
                             /*loss_rate=*/0.0,
                             /*mtu=*/1500};
  std::uint64_t seed = 1;
};

/// A datacenter built for the sharded simulator: `racks` Cloud instances
/// (cloud index = rack id, so rack r owns 10.r.0.0/16), each living in
/// its own shard of a net::ShardedWorld (shard id = rack id: a rack's
/// hypervisors, VMs, ToR fabric and gateway share one event loop, so
/// almost all traffic a VM generates stays inside it), with a full mesh
/// of cross-shard gateway-to-gateway links carrying the inter-rack
/// routes. Worker threads are chosen at run() time; the topology (and
/// therefore every event stream) never depends on them.
class ShardedFabric {
 public:
  explicit ShardedFabric(const FabricConfig& config);

  net::ShardedWorld& world() { return world_; }
  const FabricConfig& config() const { return config_; }
  std::size_t racks() const { return clouds_.size(); }
  Cloud& rack(std::size_t r) { return *clouds_[r]; }

  /// All VMs of one rack, in launch order.
  const std::vector<std::unique_ptr<Vm>>& rack_vms(std::size_t r) const {
    return clouds_[r]->vms();
  }

  /// Gateway interface index on rack `from` for the mesh link toward
  /// rack `to` — what callers use to add routes for non-10/8 prefixes
  /// (consumer subnets, frontends) across the rack mesh. CHECK-fails on
  /// from == to.
  std::size_t cross_iface(std::size_t from, std::size_t to) const;

  std::size_t run(sim::Time until, unsigned workers = 1) {
    return world_.run(until, workers);
  }
  sim::PerfCounters merged_perf() const { return world_.merged_perf(); }
  std::uint64_t world_hash() const { return world_.world_hash(); }

 private:
  FabricConfig config_;
  net::ShardedWorld world_;
  // One Cloud per rack; rack r's nodes, links and pools are confined to
  // shard r's event loop (the fabric's whole point), so the analyzer
  // treats the racks as shard-confined state.
  std::vector<std::unique_ptr<Cloud>> clouds_;  // hipcheck:shard_owned
  /// mesh_iface_[from * racks + to] = gateway iface on `from` toward
  /// `to` (SIZE_MAX on the diagonal).
  std::vector<std::size_t> mesh_iface_;
};

}  // namespace hipcloud::cloud
