#pragma once

#include <memory>
#include <string>
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

/// The RSA-1024 host identity of every HIP node src/core builds, drawn
/// from a DRBG personalised by (seed, label).
hip::HostIdentity make_identity(std::uint64_t seed, const std::string& label);

/// Generate the `bits`-bit RSA key of a DRBG personalised by (seed, label)
/// for every label, side by side on sim::sweep's threads (DESIGN.md §5b).
/// The keys land in rsa_generate's memo, so a later draw from the same
/// DRBG (make_identity, a CA, a TLS key) returns them byte for byte. Keys
/// the memo already holds are skipped, and no thread starts unless at
/// least two keys are missing. The first error is rethrown on the caller
/// after every worker joins.
void build_rsa_keys(std::uint64_t seed, const std::vector<std::string>& labels,
                    std::size_t bits = 1024);

/// Knobs of the Fig. 1 service that mean the same on every substrate.
struct ServiceConfig {
  SecurityMode mode = SecurityMode::kHip;
  HipAddressing hip_addressing = HipAddressing::kLsi;
  apps::RubisConfig dataset;
  hip::HipConfig hip;
  /// Frontend load-balancer failure masking (health checks + retry).
  apps::ReverseProxy::HealthConfig proxy_health;
  std::uint64_t seed = 1;
  std::uint16_t frontend_port = 80;
  /// Web-tier cycles per dynamic request (RUBiS PHP-style page logic;
  /// see EXPERIMENTS.md).
  double web_request_cycles = 5.25e6;
};

/// What one SecureService runs: the shared knobs plus the web-tier size
/// and the database cost model. The defaults are the testbed's Fig. 2
/// calibration; ShardedService fills in its own values.
struct DeploymentConfig : ServiceConfig {
  int web_servers = 3;
  bool db_query_cache = false;
  /// Database cost model (cycles; see EXPERIMENTS.md).
  double db_base_cycles = 2.0e6;
  double db_per_row_cycles = 20e3;
  double db_per_byte_cycles = 20.0;
  double db_cache_hit_cycles = 100e3;
};

/// Where the tiers of one SecureService run. The substrate creates the
/// nodes and VMs; the service only builds on them. Host identities are
/// drawn with the labels `id_prefix + {proxy_id, "web<i>", "db"}`.
struct Placement {
  net::Node* proxy = nullptr;
  std::vector<cloud::Vm*> web;
  cloud::Vm* db = nullptr;
  std::string id_prefix;
  std::string proxy_id;
};

/// The paper's Figure 1 service: a reverse HTTP proxy / load balancer
/// fronting RUBiS web VMs that share one database VM, with every
/// intra-cloud hop secured per `mode`:
///
///  * kBasic — plain TCP between all tiers (no security);
///  * kHip   — HIP daemons on the LB and every VM; the proxy reaches web
///             VMs by LSI/HIT and web VMs reach the DB the same way, so
///             all cloud traffic flows through BEET-ESP tunnels while
///             consumers stay HIP-oblivious (end-to-middle);
///  * kSsl   — TLS on both intra-cloud hops (the OpenVPN/stunnel-style
///             baseline the paper compares against).
///
/// This is the only code that builds the tiers. `Testbed` places them on
/// one `cloud::Cloud`, `ShardedService` across the racks of a
/// `cloud::ShardedFabric`. The service is ready once `prepare()` has run
/// to completion (it pre-establishes HIP associations / warms nothing
/// else).
class SecureService {
 public:
  /// `config.web_servers` must equal `placement.web.size()`.
  SecureService(Placement placement, DeploymentConfig config);

  /// Kick off HIP BEX pre-establishment (no-op in other modes). Run the
  /// event loop afterwards to completion or until quiescent.
  void prepare();

  /// The consumer-facing endpoint on the load balancer.
  net::Endpoint frontend() const;

  const DeploymentConfig& config() const { return config_; }
  apps::ReverseProxy& proxy() { return *proxy_; }
  apps::DatabaseServer& database() { return *db_server_; }
  const std::vector<cloud::Vm*>& web_vms() const { return placement_.web; }
  cloud::Vm* db_vm() { return placement_.db; }
  hip::HipDaemon* lb_hip() { return lb_hip_.get(); }
  hip::HipDaemon* web_hip(std::size_t i) { return web_hips_.at(i).get(); }
  hip::HipDaemon* db_hip() { return db_hip_.get(); }

  /// Aggregate ESP packets sent by all HIP daemons (HIP mode only).
  std::uint64_t total_esp_packets() const;

 private:
  net::Endpoint web_backend_endpoint(std::size_t i) const;
  net::Endpoint db_endpoint_for_web(std::size_t i) const;

  Placement placement_;
  DeploymentConfig config_;

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
