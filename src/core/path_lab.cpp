#include "core/path_lab.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/secure_service.hpp"

namespace hipcloud::core {

using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

const char* PathLab::path_name(Path path) {
  switch (path) {
    case Path::kIpv4:
      return "IPv4";
    case Path::kLsi:
      return "LSI(IPv4)";
    case Path::kHit:
      return "HIT(IPv4)";
    case Path::kTeredo:
      return "Teredo";
    case Path::kHitTeredo:
      return "HIT(Teredo)";
    case Path::kLsiTeredo:
      return "LSI(Teredo)";
  }
  return "?";
}

PathLab::PathLab(Config config) : config_(std::move(config)) {
  net_ = std::make_unique<net::Network>(config_.seed);
  cloud_ = std::make_unique<cloud::Cloud>(*net_, config_.provider, 1);
  cloud_->add_host();
  cloud_->add_host();
  vm1_ = cloud_->launch("vm1", config_.vm_type);
  vm2_ = cloud_->launch("vm2", config_.vm_type);

  inet_ = net_->add_node("internet-core");
  inet_->set_forwarding(true);
  cloud_->attach_external(inet_, config_.provider.gateway_link);

  // Teredo server/relay on the public internet.
  teredo_node_ = net_->add_node("teredo-server");
  const auto tl = net_->connect(teredo_node_, inet_, config_.teredo_link);
  teredo_node_->add_address(tl.iface_a, Ipv4Addr(83, 1, 1, 1));
  inet_->add_address(tl.iface_b, Ipv4Addr(83, 1, 1, 254));
  teredo_node_->set_default_route(tl.iface_a);
  inet_->add_route(IpAddr(Ipv4Addr(83, 1, 1, 1)), 32, tl.iface_b);

  // Order matters: HIP shims first, Teredo shims second, so ESP packets
  // towards Teredo locators are tunnelled. Both identities' keys are built
  // side by side first; make_identity then finds them in the memo.
  const std::vector<std::string> key_labels{"pathlab:vm1", "pathlab:vm2"};
  build_rsa_keys(config_.seed, key_labels);
  hip1_ = std::make_unique<hip::HipDaemon>(
      vm1_->node(), make_identity(config_.seed, key_labels[0]), config_.hip);
  hip2_ = std::make_unique<hip::HipDaemon>(
      vm2_->node(), make_identity(config_.seed, key_labels[1]), config_.hip);

  udp1_ = std::make_unique<net::UdpStack>(vm1_->node());
  udp2_ = std::make_unique<net::UdpStack>(vm2_->node());
  udp_srv_ = std::make_unique<net::UdpStack>(teredo_node_);
  teredo_server_ = std::make_unique<net::TeredoServer>(teredo_node_,
                                                       udp_srv_.get());
  const Endpoint server_ep{IpAddr(Ipv4Addr(83, 1, 1, 1)), net::kTeredoPort};
  teredo1_ = std::make_unique<net::TeredoClient>(vm1_->node(), udp1_.get(),
                                                 server_ep);
  teredo2_ = std::make_unique<net::TeredoClient>(vm2_->node(), udp2_.get(),
                                                 server_ep);

  icmp1_ = std::make_unique<net::IcmpStack>(vm1_->node());
  icmp2_ = std::make_unique<net::IcmpStack>(vm2_->node());

  net::TcpConfig tcp_cfg;
  tcp_cfg.receive_window = config_.receive_window;
  tcp1_ = std::make_unique<net::TcpStack>(vm1_->node(), tcp_cfg);
  tcp2_ = std::make_unique<net::TcpStack>(vm2_->node(), tcp_cfg);
}

void PathLab::ensure_teredo() {
  if (teredo_ready_) return;
  teredo1_->qualify([](const net::Ipv6Addr&) {});
  teredo2_->qualify([](const net::Ipv6Addr&) {});
  net_->loop().run();
  if (!teredo1_->qualified() || !teredo2_->qualified()) {
    throw std::runtime_error("PathLab: Teredo qualification failed");
  }
  teredo_ready_ = true;
}

void PathLab::ensure_hip_over(bool teredo_locators) {
  if (teredo_locators) {
    ensure_teredo();
    if (!hip_peered_teredo_) {
      hip1_->add_peer(hip2_->hit(), IpAddr(teredo2_->address()));
      hip2_->add_peer(hip1_->hit(), IpAddr(teredo1_->address()));
      hip_peered_teredo_ = true;
      hip_peered_ipv4_ = false;
    }
  } else if (!hip_peered_ipv4_) {
    hip1_->add_peer(hip2_->hit(), IpAddr(vm2_->private_ip()));
    hip2_->add_peer(hip1_->hit(), IpAddr(vm1_->private_ip()));
    hip_peered_ipv4_ = true;
    hip_peered_teredo_ = false;
  }
  hip1_->initiate(hip2_->hit());
  net_->loop().run();
  if (hip1_->state(hip2_->hit()) != hip::AssocState::kEstablished) {
    throw std::runtime_error("PathLab: BEX failed");
  }
}

IpAddr PathLab::establish(Path path) {
  switch (path) {
    case Path::kIpv4:
      return IpAddr(vm2_->private_ip());
    case Path::kTeredo:
      ensure_teredo();
      return IpAddr(teredo2_->address());
    case Path::kLsi:
      ensure_hip_over(false);
      return IpAddr(*hip1_->lsi_for_peer(hip2_->hit()));
    case Path::kHit:
      ensure_hip_over(false);
      return IpAddr(hip2_->hit());
    case Path::kHitTeredo:
      ensure_hip_over(true);
      return IpAddr(hip2_->hit());
    case Path::kLsiTeredo:
      ensure_hip_over(true);
      return IpAddr(*hip1_->lsi_for_peer(hip2_->hit()));
  }
  throw std::invalid_argument("PathLab: unknown path");
}

double PathLab::ping_rtt_ms(const IpAddr& dst, int count) {
  double mean = -1;
  icmp1_->ping(dst, count, sim::from_millis(200), 56,
               [&](const sim::Summary& rtts, int lost) {
                 if (lost == 0) mean = rtts.mean();
               });
  net_->loop().run();
  if (mean < 0) throw std::runtime_error("PathLab: ping lost packets");
  return mean;
}

double PathLab::iperf_mbps(const IpAddr& dst, sim::Duration duration) {
  const std::uint16_t port = next_iperf_port_++;
  iperf_server_ = std::make_unique<apps::IperfServer>(vm2_->node(),
                                                      tcp2_.get(), port);
  double mbps = -1;
  apps::IperfClient::run(vm1_->node(), tcp1_.get(), Endpoint{dst, port},
                         duration,
                         [&](const apps::IperfClient::Report& report) {
                           mbps = report.mbits_per_second;
                         });
  net_->loop().run();
  if (mbps < 0) throw std::runtime_error("PathLab: iperf failed");
  return mbps;
}

}  // namespace hipcloud::core
