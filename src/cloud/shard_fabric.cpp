#include "cloud/shard_fabric.hpp"

#include <limits>
#include <string>

#include "sim/check.hpp"

namespace hipcloud::cloud {

ShardedFabric::ShardedFabric(const FabricConfig& config)
    : config_(config), world_(config.racks, config.seed) {
  HIPCLOUD_CHECK(config.racks > 0, "fabric needs at least one rack");
  HIPCLOUD_CHECK(config.racks <= 200,
                 "rack id doubles as the 10.<rack>/16 cloud index");
  clouds_.reserve(config.racks);
  for (std::size_t r = 0; r < config.racks; ++r) {
    auto cloud = std::make_unique<Cloud>(world_.shard(r), config.profile,
                                         static_cast<int>(r));
    for (std::size_t h = 0; h < config.hosts_per_rack; ++h) {
      Hypervisor* host = cloud->add_host();
      for (std::size_t v = 0; v < config.vms_per_host; ++v) {
        cloud->launch("rack" + std::to_string(r) + "-vm" +
                          std::to_string(h) + "." + std::to_string(v),
                      InstanceType::small(), "tenant-fabric", host);
      }
    }
    clouds_.push_back(std::move(cloud));
  }
  mesh_iface_.assign(config.racks * config.racks,
                     std::numeric_limits<std::size_t>::max());
  // Full mesh of rack-to-rack links: every pair of racks gets its own
  // cross-shard path, so inter-rack traffic never funnels through a
  // single shard's spine node (which would serialize the whole world on
  // one loop). Each gateway routes the peer rack's 10.<peer>/16 out of
  // the pair's own interface.
  for (std::size_t i = 0; i < config.racks; ++i) {
    for (std::size_t j = i + 1; j < config.racks; ++j) {
      const auto att = world_.connect_cross(
          i, clouds_[i]->gateway(), j, clouds_[j]->gateway(),
          config.cross_rack);
      clouds_[i]->gateway()->add_route(
          net::IpAddr(net::Ipv4Addr(10, static_cast<std::uint8_t>(j), 0, 0)),
          16, att.iface_a);
      clouds_[j]->gateway()->add_route(
          net::IpAddr(net::Ipv4Addr(10, static_cast<std::uint8_t>(i), 0, 0)),
          16, att.iface_b);
      mesh_iface_[i * config.racks + j] = att.iface_a;
      mesh_iface_[j * config.racks + i] = att.iface_b;
    }
  }
}

std::size_t ShardedFabric::cross_iface(std::size_t from, std::size_t to) const {
  HIPCLOUD_CHECK(from < racks() && to < racks() && from != to,
                 "cross_iface needs two distinct racks");
  return mesh_iface_[from * config_.racks + to];
}

}  // namespace hipcloud::cloud
