#include "core/testbed.hpp"

#include <string>

namespace hipcloud::core {

using net::IpAddr;
using net::Ipv4Addr;

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)) {
  net_ = std::make_unique<net::Network>(config_.seed);
  cloud_ = std::make_unique<cloud::Cloud>(*net_, config_.provider, 1);
  for (int h = 0; h < config_.cloud_hosts; ++h) cloud_->add_host();

  inet_ = net_->add_node("internet-core");
  inet_->set_forwarding(true);
  // The client farm node runs many virtual users but is not itself a
  // bottleneck (jmeter on a workstation).
  client_node_ = net_->add_node("clients", 50e9);
  // The paper's LB is "a high-performance server ... outside the cloud".
  lb_node_ = net_->add_node("loadbalancer", 16e9);

  const auto cl = net_->connect(client_node_, inet_, config_.client_wan);
  client_node_->add_address(cl.iface_a, Ipv4Addr(198, 18, 0, 2));
  inet_->add_address(cl.iface_b, Ipv4Addr(198, 18, 0, 1));
  client_node_->set_default_route(cl.iface_a);
  inet_->add_route(IpAddr(Ipv4Addr(198, 18, 0, 0)), 24, cl.iface_b);

  const auto ll = net_->connect(lb_node_, inet_, config_.lb_link);
  lb_node_->add_address(ll.iface_a, Ipv4Addr(198, 18, 1, 2));
  inet_->add_address(ll.iface_b, Ipv4Addr(198, 18, 1, 1));
  lb_node_->set_default_route(ll.iface_a);
  inet_->add_route(IpAddr(Ipv4Addr(198, 18, 1, 0)), 24, ll.iface_b);

  cloud_->attach_external(inet_, config_.provider.gateway_link);

  // The paper's fleet: t1.micro web VMs sharing one m1.large database.
  Placement placement{lb_node_, {}, nullptr, "hi:", "lb"};
  for (int i = 0; i < config_.deployment.web_servers; ++i) {
    placement.web.push_back(cloud_->launch("web" + std::to_string(i),
                                           cloud::InstanceType::micro(),
                                           "acme"));
  }
  placement.db = cloud_->launch("db", cloud::InstanceType::large(), "acme");
  service_ = std::make_unique<SecureService>(std::move(placement),
                                             config_.deployment);
  client_tcp_ = std::make_unique<net::TcpStack>(client_node_);

  // Pre-establish HIP associations before any measurement. With
  // keepalive enabled the daemons re-arm probe timers forever, so the
  // loop never drains — bound the warm-up run instead.
  service_->prepare();
  if (config_.deployment.hip.keepalive_interval > 0 &&
      config_.deployment.mode == SecurityMode::kHip) {
    net_->loop().run(net_->loop().now() + 15 * sim::kSecond);
  } else {
    net_->loop().run();
  }
}

apps::LoadReport Testbed::run_closed_loop(int concurrency,
                                          sim::Duration duration,
                                          sim::Duration think_time) {
  apps::ClosedLoopClients::Config cfg;
  cfg.concurrency = concurrency;
  cfg.duration = duration;
  cfg.think_time = think_time;
  cfg.target = service_->frontend();
  cfg.mix = config_.deployment.dataset;
  cfg.seed = config_.seed ^ static_cast<std::uint64_t>(concurrency) << 8;
  apps::ClosedLoopClients clients(client_node_, client_tcp_.get(), cfg);
  apps::LoadReport report;
  bool done = false;
  clients.start([&](const apps::LoadReport& r) {
    report = r;
    done = true;
    // The measurement is over; stop instead of draining so perpetual
    // timers (keepalives, health probes) can't keep the run alive.
    net_->loop().stop();
  });
  net_->loop().run();
  if (!done) report.duration_seconds = 0;  // defensive; should not happen
  return report;
}

apps::LoadReport Testbed::run_open_loop(double rate_rps,
                                        sim::Duration duration,
                                        const std::string& fixed_path) {
  apps::OpenLoopGenerator::Config cfg;
  cfg.rate_rps = rate_rps;
  cfg.duration = duration;
  cfg.fixed_path = fixed_path;
  cfg.poisson = true;  // realistic arrival jitter -> visible queueing
  cfg.target = service_->frontend();
  cfg.mix = config_.deployment.dataset;
  cfg.seed = config_.seed ^ 0xfeed;
  apps::OpenLoopGenerator gen(client_node_, client_tcp_.get(), cfg);
  apps::LoadReport report;
  bool done = false;
  gen.start([&](const apps::LoadReport& r) {
    report = r;
    done = true;
    net_->loop().stop();
  });
  net_->loop().run();
  if (!done) report.duration_seconds = 0;
  return report;
}

}  // namespace hipcloud::core
