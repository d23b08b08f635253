#include "core/sharded_service.hpp"

#include <algorithm>
#include <string>

#include "sim/check.hpp"

namespace hipcloud::core {

using net::IpAddr;
using net::Ipv4Addr;

ShardedService::ShardedService(cloud::ShardedFabric& fabric,
                               ShardedServiceConfig config)
    : fabric_(fabric), config_(std::move(config)) {
  const std::size_t racks = fabric_.racks();
  HIPCLOUD_CHECK(racks >= 3,
                 "ShardedService needs a gateway rack, a web rack and a db "
                 "rack");
  HIPCLOUD_CHECK(racks <= 100, "client subnet octet is 100 + rack");

  // --- proxy node on the gateway rack (198.18.1.2) --------------------------
  net::Network& net0 = fabric_.world().shard(0);
  net::Node* gw0 = fabric_.rack(0).gateway();
  net::Node* proxy = net0.add_node("proxy", 16e9);
  const auto patt = net0.connect(gw0, proxy, config_.proxy_link);
  gw0->add_address(patt.iface_a, Ipv4Addr(198, 18, 1, 1));
  proxy->add_address(patt.iface_b, Ipv4Addr(198, 18, 1, 2));
  proxy->set_default_route(patt.iface_b);
  gw0->add_route(IpAddr(Ipv4Addr(198, 18, 1, 0)), 24, patt.iface_a);

  // --- per-rack client farms (198.18.<100+r>.2) -----------------------------
  for (std::size_t r = 0; r < racks; ++r) {
    net::Network& net = fabric_.world().shard(r);
    net::Node* gw = fabric_.rack(r).gateway();
    net::Node* farm = net.add_node("clients-" + std::to_string(r), 50e9);
    const auto att = net.connect(gw, farm, config_.client_link);
    const auto octet = static_cast<std::uint8_t>(100 + r);
    gw->add_address(att.iface_a, Ipv4Addr(198, 18, octet, 1));
    farm->add_address(att.iface_b, Ipv4Addr(198, 18, octet, 2));
    farm->set_default_route(att.iface_b);
    gw->add_route(IpAddr(Ipv4Addr(198, 18, octet, 0)), 24, att.iface_a);
    client_nodes_.push_back(farm);
    client_tcp_.push_back(std::make_unique<net::TcpStack>(farm));
  }

  // --- consumer routes over the rack mesh -----------------------------------
  // Every rack reaches the frontend subnet via its seam to rack 0; rack 0
  // reaches each remote farm subnet via its seam to that rack. (10/8
  // routes already ride the mesh from the fabric build.)
  for (std::size_t r = 1; r < racks; ++r) {
    fabric_.rack(r).gateway()->add_route(IpAddr(Ipv4Addr(198, 18, 1, 0)), 24,
                                         fabric_.cross_iface(r, 0));
    gw0->add_route(
        IpAddr(Ipv4Addr(198, 18, static_cast<std::uint8_t>(100 + r), 0)), 24,
        fabric_.cross_iface(0, r));
  }

  // --- the tiers: proxy on rack 0, web on 1..racks-2, db last --------------
  Placement placement{proxy, {}, fabric_.rack_vms(racks - 1)[0].get(),
                      "shsvc:", "proxy"};
  for (std::size_t r = 1; r + 1 < racks; ++r) {
    placement.web.push_back(fabric_.rack_vms(r)[0].get());
  }
  // Pinned (the sharded_rubis hash depends on it): the fabric's DB runs on
  // the apps::DbConfig{} cost model, not the testbed's Fig. 2 calibration.
  DeploymentConfig deployment;
  static_cast<ServiceConfig&>(deployment) = config_;
  deployment.web_servers = static_cast<int>(placement.web.size());
  const apps::DbConfig db_costs;
  deployment.db_base_cycles = db_costs.base_cycles;
  deployment.db_per_row_cycles = db_costs.per_row_cycles;
  deployment.db_per_byte_cycles = db_costs.per_byte_cycles;
  deployment.db_cache_hit_cycles = db_costs.cache_hit_cycles;
  tiers_ = std::make_unique<SecureService>(std::move(placement),
                                           std::move(deployment));
}

void ShardedService::start_clients() {
  const std::size_t racks = fabric_.racks();
  farm_reports_.assign(racks, apps::LoadReport{});
  farm_done_.assign(racks, 0);
  for (std::size_t r = 0; r < racks; ++r) {
    apps::ClosedLoopClients::Config cfg;
    cfg.concurrency = config_.clients_per_rack;
    cfg.think_time = config_.think_time;
    cfg.duration = config_.duration;
    cfg.warmup = config_.client_warmup;
    cfg.target = tiers_->frontend();
    cfg.mix = config_.dataset;
    cfg.seed = config_.seed ^ ((r + 1) * 0x9e3779b97f4a7c15ULL);
    farms_.push_back(std::make_unique<apps::ClosedLoopClients>(
        client_nodes_[r], client_tcp_[r].get(), cfg));
    farms_.back()->start([this, r](const apps::LoadReport& rep) {
      farm_reports_[r] = rep;
      farm_done_[r] = 1;
    });
  }
}

apps::LoadReport ShardedService::report() const {
  apps::LoadReport total;
  for (std::size_t r = 0; r < farm_reports_.size(); ++r) {
    if (farm_done_[r] == 0) continue;
    const auto& rep = farm_reports_[r];
    total.completed += rep.completed;
    total.errors += rep.errors;
    total.duration_seconds =
        std::max(total.duration_seconds, rep.duration_seconds);
    total.latency_ms.merge(rep.latency_ms);
  }
  return total;
}

}  // namespace hipcloud::core
