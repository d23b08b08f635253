#pragma once

#include <memory>
#include <vector>

#include "apps/reverse_proxy.hpp"
#include "apps/rubis.hpp"
#include "cloud/cloud.hpp"
#include "hip/daemon.hpp"

namespace hipcloud::core {

/// How intra-cloud hops are protected — the three scenarios of the
/// paper's evaluation.
enum class SecurityMode { kBasic, kHip, kSsl };
const char* mode_name(SecurityMode mode);

/// For the HIP mode: whether applications address peers by LSI (the
/// paper's configuration, with its extra translation cost) or by HIT.
enum class HipAddressing { kLsi, kHit };

struct DeploymentConfig {
  SecurityMode mode = SecurityMode::kHip;
  HipAddressing hip_addressing = HipAddressing::kLsi;
  int web_servers = 3;
  cloud::InstanceType web_type = cloud::InstanceType::micro();
  cloud::InstanceType db_type = cloud::InstanceType::large();
  bool db_query_cache = false;
  apps::RubisConfig dataset;
  hip::HipConfig hip;
  /// Frontend load-balancer failure masking (health checks + retry).
  apps::ReverseProxy::HealthConfig proxy_health;
  std::uint64_t seed = 1;
  std::uint16_t frontend_port = 80;

  /// --- calibration (see EXPERIMENTS.md) -------------------------------
  /// Web-tier cycles per dynamic request (RUBiS PHP-style page logic).
  double web_request_cycles = 5.25e6;
  /// Database cost model (cycles).
  double db_base_cycles = 2.0e6;
  double db_per_row_cycles = 20e3;
  double db_per_byte_cycles = 20.0;
  double db_cache_hit_cycles = 100e3;
};

/// The paper's Figure 1 deployment: a reverse HTTP proxy / load balancer
/// outside the cloud fronting `web_servers` RUBiS web VMs that share one
/// database VM, with every intra-cloud hop secured per `mode`:
///
///  * kBasic — plain TCP between all tiers (no security);
///  * kHip   — HIP daemons on the LB and every VM; the proxy reaches web
///             VMs by LSI/HIT and web VMs reach the DB the same way, so
///             all cloud traffic flows through BEET-ESP tunnels while
///             consumers stay HIP-oblivious (end-to-middle);
///  * kSsl   — TLS on both intra-cloud hops (the OpenVPN/stunnel-style
///             baseline the paper compares against).
///
/// The returned service is ready once `prepare()` has run to completion
/// (it pre-establishes HIP associations / warms nothing else).
class SecureService {
 public:
  SecureService(net::Network& net, cloud::Cloud& cloud, net::Node* lb_node,
                DeploymentConfig config);

  /// Kick off HIP BEX pre-establishment (no-op in other modes). Run the
  /// event loop afterwards to completion or until quiescent.
  void prepare();

  /// The consumer-facing endpoint on the load balancer.
  net::Endpoint frontend() const;

  const DeploymentConfig& config() const { return config_; }
  apps::ReverseProxy& proxy() { return *proxy_; }
  apps::DatabaseServer& database() { return *db_server_; }
  const std::vector<cloud::Vm*>& web_vms() const { return web_vms_; }
  cloud::Vm* db_vm() { return db_vm_; }
  hip::HipDaemon* lb_hip() { return lb_hip_.get(); }
  hip::HipDaemon* web_hip(std::size_t i) { return web_hips_.at(i).get(); }
  hip::HipDaemon* db_hip() { return db_hip_.get(); }

  /// Aggregate ESP packets sent by all HIP daemons (HIP mode only).
  std::uint64_t total_esp_packets() const;

 private:
  net::Endpoint web_backend_endpoint(std::size_t i) const;
  net::Endpoint db_endpoint_for_web(std::size_t i) const;

  net::Network& net_;
  cloud::Cloud& cloud_;
  net::Node* lb_node_;
  DeploymentConfig config_;

  std::vector<cloud::Vm*> web_vms_;
  cloud::Vm* db_vm_ = nullptr;

  // Per-node stacks (order matters: HIP daemons install their shim before
  // TCP stacks are used, which is fine either way; Teredo would need to
  // come after HIP).
  std::unique_ptr<net::TcpStack> lb_tcp_;
  std::vector<std::unique_ptr<net::TcpStack>> web_tcp_;
  std::unique_ptr<net::TcpStack> db_tcp_;

  std::unique_ptr<hip::HipDaemon> lb_hip_;
  std::vector<std::unique_ptr<hip::HipDaemon>> web_hips_;
  std::unique_ptr<hip::HipDaemon> db_hip_;

  // TLS PKI for the SSL scenario.
  std::unique_ptr<tls::CertificateAuthority> ca_;

  std::unique_ptr<apps::DatabaseServer> db_server_;
  std::vector<std::unique_ptr<apps::RubisWebServer>> web_servers_;
  std::unique_ptr<apps::ReverseProxy> proxy_;
};

}  // namespace hipcloud::core
