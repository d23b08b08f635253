#pragma once

#include <memory>
#include <vector>

#include "apps/workload.hpp"
#include "cloud/shard_fabric.hpp"
#include "core/secure_service.hpp"

namespace hipcloud::core {

/// Knobs of the sharded (multi-rack, parallel-world) placement of the
/// paper's Figure 1 service; the shared ones live in ServiceConfig. The
/// web tier is one VM per middle rack, so it has no size knob. Pinned,
/// not tunable: the DB runs on the `apps::DbConfig{}` cost model and the
/// host identities use `shsvc:` labels (`sharded_rubis` pins both).
struct ShardedServiceConfig : ServiceConfig {
  /// Closed-loop virtual users per rack-local client farm.
  int clients_per_rack = 4;
  /// Measurement window of each farm (after its own warmup).
  sim::Duration duration = 2 * sim::kSecond;
  sim::Duration think_time = 0;
  sim::Duration client_warmup = sim::from_millis(200);
  /// Client farm <-> rack gateway link.
  net::LinkConfig client_link{1e9, sim::from_micros(200),
                              sim::from_millis(100), 0.0, 1500};
  /// Proxy <-> rack-0 gateway link.
  net::LinkConfig proxy_link{10e9, sim::from_micros(150),
                             sim::from_millis(100), 0.0, 1500};
};

/// The RUBiS + reverse-proxy service stretched across a ShardedFabric.
/// The tiers are one SecureService; this class places them and adds the
/// consumers:
///
///   * rack 0 is the gateway rack — the HAProxy-style proxy node hangs
///     off its gateway at 198.18.1.2 and fronts the whole service;
///   * racks 1 .. racks-2 each contribute their first VM as a RUBiS web
///     server (round-robin proxy backends);
///   * the last rack's first VM is the database;
///   * every rack also carries a client farm node (198.18.<100+r>.2)
///     whose closed-loop users hit the frontend through the rack mesh.
///
/// In kHip mode every proxy->web and web->db request rides a BEET-ESP
/// tunnel across the shard seams, in kSsl a TLS session — real crypto
/// through the parallel worlds. All application state lives on the
/// owning rack's event loop; worker count never changes behaviour, so
/// the fabric's determinism hash stays byte-identical at any worker
/// count with this service running.
class ShardedService {
 public:
  ShardedService(cloud::ShardedFabric& fabric, ShardedServiceConfig config);

  /// Kick off HIP BEX pre-establishment (no-op outside kHip). Run the
  /// fabric afterwards to let the associations complete before
  /// measuring.
  void prepare() { tiers_->prepare(); }

  /// Schedule every rack's client farm. Farms start at each rack loop's
  /// current time; run the fabric past warmup+duration (plus drain
  /// slack) and then read report().
  void start_clients();

  /// Aggregate of all farms that completed, merged in rack order (so
  /// the aggregate itself is deterministic).
  apps::LoadReport report() const;

  const ShardedServiceConfig& config() const { return config_; }
  /// The tiers: proxy, web VMs, DB and their daemons.
  SecureService& tiers() { return *tiers_; }
  apps::ReverseProxy& proxy() { return tiers_->proxy(); }
  /// Rack (= shard) hosting web server i — chaos runs schedule that
  /// VM's failure on this shard's loop.
  std::size_t web_rack(std::size_t i) const { return i + 1; }

  /// Aggregate ESP packets sent by all HIP daemons (kHip only).
  std::uint64_t total_esp_packets() const {
    return tiers_->total_esp_packets();
  }

 private:
  cloud::ShardedFabric& fabric_;
  ShardedServiceConfig config_;

  std::vector<net::Node*> client_nodes_;  // one per rack
  std::vector<std::unique_ptr<net::TcpStack>> client_tcp_;
  std::unique_ptr<SecureService> tiers_;

  std::vector<std::unique_ptr<apps::ClosedLoopClients>> farms_;
  // Per-rack completion slots: farm_reports_[r] / farm_done_[r] are
  // written only by rack r's own shard (the farm's completion callback
  // runs on that loop) and read after run() joins the workers — one
  // writer per slot, no seam crossing, hence owned rather than shared.
  std::vector<apps::LoadReport> farm_reports_;  // hipcheck:shard_owned
  std::vector<char> farm_done_;                 // hipcheck:shard_owned
};

}  // namespace hipcloud::core
