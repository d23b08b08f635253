#include "core/secure_service.hpp"

#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "sim/check.hpp"
#include "sim/sweep.hpp"

namespace hipcloud::core {

using apps::TransportConfig;
using net::Endpoint;
using net::IpAddr;

const char* mode_name(SecurityMode mode) {
  switch (mode) {
    case SecurityMode::kBasic:
      return "basic";
    case SecurityMode::kHip:
      return "hip";
    case SecurityMode::kSsl:
      return "ssl";
  }
  return "?";
}

hip::HostIdentity make_identity(std::uint64_t seed, const std::string& label) {
  crypto::HmacDrbg drbg(seed, label);
  return hip::HostIdentity::generate(drbg, hip::HiAlgorithm::kRsa, 1024);
}

void build_rsa_keys(std::uint64_t seed, const std::vector<std::string>& labels,
                    std::size_t bits) {
  std::vector<const std::string*> missing;
  for (const std::string& label : labels) {
    if (!crypto::rsa_key_cached(crypto::HmacDrbg(seed, label), bits)) {
      missing.push_back(&label);
    }
  }
  // A single cold key costs the same built here or where it is drawn.
  if (missing.size() < 2) return;
  sim::sweep<crypto::RsaKeyPair>(missing.size(), [&](std::size_t i) {
    crypto::HmacDrbg drbg(seed, *missing[i]);
    return crypto::rsa_generate(drbg, bits);
  });
}

SecureService::SecureService(Placement placement, DeploymentConfig config)
    : placement_(std::move(placement)), config_(std::move(config)) {
  HIPCLOUD_CHECK(placement_.web.size() ==
                     static_cast<std::size_t>(config_.web_servers),
                 "placement must carry config.web_servers web VMs");
  const std::size_t webs = placement_.web.size();

  // --- RSA keys --------------------------------------------------------------
  // The DRBG label of every key the tiers below draw. HIP: the proxy's,
  // then each web server's, then the DB's host identity. SSL: the CA's,
  // the DB's, then each web server's certificate key. They are built side
  // by side first, so each draw below finds its key in the memo.
  std::vector<std::string> key_labels;
  if (config_.mode == SecurityMode::kHip) {
    key_labels.push_back(placement_.id_prefix + placement_.proxy_id);
    for (std::size_t i = 0; i < webs; ++i) {
      key_labels.push_back(placement_.id_prefix + "web" + std::to_string(i));
    }
    key_labels.push_back(placement_.id_prefix + "db");
  } else if (config_.mode == SecurityMode::kSsl) {
    key_labels = {"ca", "db-key"};
    for (std::size_t i = 0; i < webs; ++i) {
      key_labels.push_back("web-key" + std::to_string(i));
    }
  }
  build_rsa_keys(config_.seed, key_labels);

  // --- HIP daemons (before anything opens sockets) --------------------------
  if (config_.mode == SecurityMode::kHip) {
    const auto identity = [&](std::size_t k) {
      return make_identity(config_.seed, key_labels[k]);
    };
    lb_hip_ = std::make_unique<hip::HipDaemon>(placement_.proxy, identity(0),
                                               config_.hip);
    for (std::size_t i = 0; i < webs; ++i) {
      web_hips_.push_back(std::make_unique<hip::HipDaemon>(
          placement_.web[i]->node(), identity(1 + i), config_.hip));
    }
    db_hip_ = std::make_unique<hip::HipDaemon>(
        placement_.db->node(), identity(1 + webs), config_.hip);

    // Populate the "hip hosts files": LB <-> web, web <-> db.
    for (std::size_t i = 0; i < webs; ++i) {
      auto& wh = *web_hips_[i];
      lb_hip_->add_peer(wh.hit(), IpAddr(placement_.web[i]->private_ip()));
      wh.add_peer(lb_hip_->hit(), *placement_.proxy->first_address(false));
      wh.add_peer(db_hip_->hit(), IpAddr(placement_.db->private_ip()));
      db_hip_->add_peer(wh.hit(), IpAddr(placement_.web[i]->private_ip()));
    }
  }

  // --- TCP stacks -------------------------------------------------------------
  lb_tcp_ = std::make_unique<net::TcpStack>(placement_.proxy);
  for (cloud::Vm* vm : placement_.web) {
    web_tcp_.push_back(std::make_unique<net::TcpStack>(vm->node()));
  }
  db_tcp_ = std::make_unique<net::TcpStack>(placement_.db->node());

  // --- TLS PKI (SSL scenario) --------------------------------------------------
  TransportConfig web_front;   // LB -> web
  TransportConfig db_transport;  // web -> db
  if (config_.mode == SecurityMode::kSsl) {
    crypto::HmacDrbg ca_drbg(config_.seed, key_labels[0]);
    ca_ = std::make_unique<tls::CertificateAuthority>("cloud-ca", ca_drbg);
    web_front.kind = TransportConfig::Kind::kTls;
    db_transport.kind = TransportConfig::Kind::kTls;
    web_front.tls.ca_public_key = ca_->public_key();
    db_transport.tls.ca_public_key = ca_->public_key();
  }

  // --- database tier ---------------------------------------------------------
  apps::DbConfig db_config;
  db_config.query_cache = config_.db_query_cache;
  db_config.base_cycles = config_.db_base_cycles;
  db_config.per_row_cycles = config_.db_per_row_cycles;
  db_config.per_byte_cycles = config_.db_per_byte_cycles;
  db_config.cache_hit_cycles = config_.db_cache_hit_cycles;
  db_config.transport = db_transport;
  if (config_.mode == SecurityMode::kSsl) {
    crypto::HmacDrbg key_drbg(config_.seed, key_labels[1]);
    const auto key = crypto::rsa_generate(key_drbg, 1024);
    db_config.transport.tls.certificate = ca_->issue("db", key.pub);
    db_config.transport.tls.private_key = key.priv;
    db_config.transport.tls_seed = config_.seed ^ 0xdb;
  }
  db_server_ = std::make_unique<apps::DatabaseServer>(
      placement_.db->node(), db_tcp_.get(), 3306, db_config);
  apps::load_rubis_dataset(*db_server_, config_.dataset);

  // --- web tier ------------------------------------------------------------------
  for (std::size_t i = 0; i < webs; ++i) {
    TransportConfig serve_cfg;  // how this web server accepts LB traffic
    TransportConfig db_cfg = db_transport;
    if (config_.mode == SecurityMode::kSsl) {
      serve_cfg.kind = TransportConfig::Kind::kTls;
      crypto::HmacDrbg key_drbg(config_.seed, key_labels[2 + i]);
      const auto key = crypto::rsa_generate(key_drbg, 1024);
      serve_cfg.tls.certificate =
          ca_->issue("web" + std::to_string(i), key.pub);
      serve_cfg.tls.private_key = key.priv;
      serve_cfg.tls_seed = config_.seed ^ (0x3e0 + i);
      db_cfg.tls.certificate.reset();  // client side needs only the CA
      db_cfg.tls.private_key.reset();
      db_cfg.tls_seed = config_.seed ^ (0x7d0 + i);
    }
    web_servers_.push_back(std::make_unique<apps::RubisWebServer>(
        placement_.web[i]->node(), web_tcp_[i].get(), 8080, serve_cfg,
        db_endpoint_for_web(i), db_cfg, config_.dataset));
    web_servers_.back()->set_request_cycles(config_.web_request_cycles);
  }

  // --- load balancer ------------------------------------------------------------
  std::vector<Endpoint> backends;
  for (std::size_t i = 0; i < webs; ++i) {
    backends.push_back(web_backend_endpoint(i));
  }
  TransportConfig lb_front;  // consumers: plain HTTP (paper's setup)
  TransportConfig lb_back = web_front;
  if (config_.mode == SecurityMode::kSsl) {
    lb_back.tls_seed = config_.seed ^ 0x1b;
  }
  proxy_ = std::make_unique<apps::ReverseProxy>(
      placement_.proxy, lb_tcp_.get(), config_.frontend_port, lb_front,
      lb_back, std::move(backends), apps::ReverseProxy::Balance::kRoundRobin,
      config_.proxy_health);
}

Endpoint SecureService::web_backend_endpoint(std::size_t i) const {
  if (config_.mode == SecurityMode::kHip) {
    const auto& web_hit = web_hips_[i]->hit();
    if (config_.hip_addressing == HipAddressing::kLsi) {
      return Endpoint{IpAddr(*lb_hip_->lsi_for_peer(web_hit)), 8080};
    }
    return Endpoint{IpAddr(web_hit), 8080};
  }
  return Endpoint{IpAddr(placement_.web[i]->private_ip()), 8080};
}

Endpoint SecureService::db_endpoint_for_web(std::size_t i) const {
  if (config_.mode == SecurityMode::kHip) {
    const auto& db_hit = db_hip_->hit();
    if (config_.hip_addressing == HipAddressing::kLsi) {
      return Endpoint{IpAddr(*web_hips_[i]->lsi_for_peer(db_hit)), 3306};
    }
    return Endpoint{IpAddr(db_hit), 3306};
  }
  return Endpoint{IpAddr(placement_.db->private_ip()), 3306};
}

void SecureService::prepare() {
  if (config_.mode != SecurityMode::kHip) return;
  // Pre-establish all associations so measurement windows see only the
  // data plane (the paper measures steady-state throughput).
  for (auto& wh : web_hips_) {
    lb_hip_->initiate(wh->hit());
    wh->initiate(db_hip_->hit());
  }
}

Endpoint SecureService::frontend() const {
  return Endpoint{*placement_.proxy->first_address(false),
                  config_.frontend_port};
}

std::uint64_t SecureService::total_esp_packets() const {
  std::uint64_t total = 0;
  if (lb_hip_) total += lb_hip_->stats().esp_packets_out;
  for (const auto& wh : web_hips_) total += wh->stats().esp_packets_out;
  if (db_hip_) total += db_hip_->stats().esp_packets_out;
  return total;
}

}  // namespace hipcloud::core
