// "Power user" access (paper §IV-D): a cloud administrator working from a
// NATted home network reaches a VM inside the cloud directly over
// HIP-over-Teredo — no VPN, no port forwarding, no proxy. The admin's
// workstation qualifies with a public Teredo server, then runs the HIP
// Base Exchange through the tunnel and talks to the VM's management
// service over the resulting ESP association.

#include <cstdio>

#include "cloud/cloud.hpp"
#include "crypto/drbg.hpp"
#include "hip/daemon.hpp"
#include "net/nat.hpp"
#include "net/teredo.hpp"

using namespace hipcloud;

namespace {
hip::HostIdentity make_identity(const char* name) {
  crypto::HmacDrbg drbg(31, std::string("poweruser:") + name);
  return hip::HostIdentity::generate(drbg, hip::HiAlgorithm::kRsa, 1024);
}
}  // namespace

int main() {
  net::Network net(37);

  // The cloud with one managed VM.
  cloud::Cloud ec2(net, cloud::ProviderProfile::ec2(), 1);
  ec2.add_host();
  auto* vm = ec2.launch("prod-vm", cloud::InstanceType::small(), "acme");

  // Public internet + Teredo server.
  auto* inet = net.add_node("internet");
  inet->set_forwarding(true);
  ec2.attach_external(inet, ec2.profile().gateway_link);
  auto* teredo_srv = net.add_node("teredo-server");
  const auto tl = net.connect(teredo_srv, inet,
                              {100e6, sim::from_millis(2),
                               sim::from_millis(100), 0.0, 1500});
  teredo_srv->add_address(tl.iface_a, net::Ipv4Addr(83, 1, 1, 1));
  inet->add_address(tl.iface_b, net::Ipv4Addr(83, 1, 1, 254));
  teredo_srv->set_default_route(tl.iface_a);
  inet->add_route(net::IpAddr(net::Ipv4Addr(83, 1, 1, 1)), 32, tl.iface_b);

  // The admin's home network: workstation behind a consumer NAT.
  auto* home_nat = net.add_node("home-router");
  auto* admin = net.add_node("admin-laptop", 4e9);
  const auto hl = net.connect(admin, home_nat,
                              {50e6, sim::from_millis(1),
                               sim::from_millis(100), 0.0, 1500});
  const auto ul = net.connect(home_nat, inet,
                              {20e6, sim::from_millis(8),
                               sim::from_millis(100), 0.0, 1500});
  admin->add_address(hl.iface_a, net::Ipv4Addr(192, 168, 1, 100));
  home_nat->add_address(hl.iface_b, net::Ipv4Addr(192, 168, 1, 1));
  home_nat->add_address(ul.iface_a, net::Ipv4Addr(84, 20, 30, 41));
  inet->add_address(ul.iface_b, net::Ipv4Addr(84, 20, 30, 254));
  admin->set_default_route(hl.iface_a);
  home_nat->add_route(net::IpAddr(net::Ipv4Addr(192, 168, 1, 0)), 24,
                      hl.iface_b);
  home_nat->set_default_route(ul.iface_a);
  // NAT pool address routed at the home router.
  net::Nat nat(home_nat, hl.iface_b, ul.iface_a,
               net::Ipv4Addr(84, 20, 30, 40));
  inet->add_route(net::IpAddr(net::Ipv4Addr(84, 20, 30, 40)), 32,
                  ul.iface_b);
  inet->add_route(net::IpAddr(net::Ipv4Addr(84, 20, 30, 41)), 32,
                  ul.iface_b);

  // HIP daemons first (shim order), then Teredo clients.
  hip::HipDaemon hip_admin(admin, make_identity("admin"));
  hip::HipDaemon hip_vm(vm->node(), make_identity("vm"));
  // Management plane is locked to the admin's HIT — topology-independent
  // access control.
  hip_vm.set_default_accept(false);
  hip_vm.allow(hip_admin.hit());

  net::UdpStack u_admin(admin), u_vm(vm->node()), u_srv(teredo_srv);
  net::TeredoServer server(teredo_srv, &u_srv);
  const net::Endpoint srv_ep{net::IpAddr(net::Ipv4Addr(83, 1, 1, 1)),
                             net::kTeredoPort};
  net::TeredoClient t_admin(admin, &u_admin, srv_ep);
  net::TeredoClient t_vm(vm->node(), &u_vm, srv_ep);

  t_admin.qualify([](const net::Ipv6Addr& addr) {
    std::printf("admin Teredo address : %s\n", addr.to_string().c_str());
  });
  t_vm.qualify([](const net::Ipv6Addr& addr) {
    std::printf("VM Teredo address    : %s\n", addr.to_string().c_str());
  });
  net.loop().run();
  if (!t_admin.qualified() || !t_vm.qualified()) {
    std::printf("Teredo qualification failed\n");
    return 1;
  }
  // The NAT mapping learned during qualification is visible in the
  // admin's Teredo address — inspect it:
  const auto mapped = net::teredo_mapped_endpoint(t_admin.address());
  std::printf("NAT mapping embedded in admin's address: %s\n",
              mapped.to_string().c_str());

  // HIP over Teredo locators.
  hip_admin.add_peer(hip_vm.hit(), net::IpAddr(t_vm.address()));
  hip_vm.add_peer(hip_admin.hit(), net::IpAddr(t_admin.address()));

  // A toy management service on the VM, reachable only via HIP.
  u_vm.bind(22, [&](const net::Endpoint& from, const net::IpAddr&,
                    crypto::Buffer) {
    u_vm.send(22, from, crypto::to_bytes("uptime: 42 days, load 0.03"));
  });

  bool got_reply = false;
  u_admin.bind(9000, [&](const net::Endpoint&, const net::IpAddr&,
                         crypto::Buffer data) {
    std::printf("management reply     : %.*s\n",
                static_cast<int>(data.size()),
                data.empty() ? "" : reinterpret_cast<const char*>(data.data()));
    got_reply = true;
  });
  hip_admin.on_established([&](const net::Ipv6Addr&, sim::Duration rtt) {
    std::printf("BEX over Teredo through the NAT completed in %.2f ms\n",
                sim::to_millis(rtt));
  });
  u_admin.send(9000, net::Endpoint{net::IpAddr(hip_vm.hit()), 22},
               crypto::to_bytes("status"));
  net.loop().run();

  std::printf("power_user_teredo %s\n", got_reply ? "OK" : "FAILED");
  return got_reply ? 0 : 1;
}
