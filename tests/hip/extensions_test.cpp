// Tests for the paper's future-work extensions (dynamic DNS on mobility)
// plus parameterized sweeps across the HIP configuration space.

#include <gtest/gtest.h>

#include "cloud/cloud.hpp"
#include "hip/dns_updater.hpp"
#include "net/udp.hpp"

namespace hipcloud::hip {
namespace {

using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

HostIdentity make_identity(const std::string& name, HiAlgorithm algo,
                           std::size_t bits = 1024) {
  crypto::HmacDrbg drbg(crypto::to_bytes("ext:" + name));
  return HostIdentity::generate(drbg, algo, bits);
}

TEST(DnsUpdater, PublishesHipAndARecords) {
  net::Network net(61);
  cloud::Cloud ec2(net, cloud::ProviderProfile::ec2(), 1);
  ec2.add_host();
  auto* vm = ec2.launch("svc", cloud::InstanceType::small());
  auto* dns_vm = ec2.launch("dns", cloud::InstanceType::small());
  HipDaemon daemon(vm->node(), make_identity("svc", HiAlgorithm::kRsa));
  net::UdpStack u_dns(dns_vm->node());
  net::DnsServer dns(dns_vm->node(), &u_dns);
  DnsUpdater updater(&daemon, &dns, "svc.cloud");

  net::UdpStack u_vm(vm->node());
  net::DnsResolver resolver(vm->node(), &u_vm,
                            Endpoint{IpAddr(dns_vm->private_ip()),
                                     net::kDnsPort});
  std::optional<Ipv4Addr> a;
  std::optional<net::Ipv6Addr> hit;
  resolver.query("svc.cloud", net::DnsType::kA,
                 [&](std::vector<net::DnsRecord> records) {
                   if (!records.empty()) a = records[0].as_a();
                 });
  resolver.query("svc.cloud", net::DnsType::kHip,
                 [&](std::vector<net::DnsRecord> records) {
                   if (!records.empty()) hit = records[0].hip_hit();
                 });
  net.loop().run();
  EXPECT_EQ(a, std::optional<Ipv4Addr>(vm->private_ip()));
  EXPECT_EQ(hit, std::optional<net::Ipv6Addr>(daemon.hit()));
}

TEST(DnsUpdater, MigrationRefreshesTheARecord) {
  net::Network net(63);
  cloud::Cloud ec2(net, cloud::ProviderProfile::ec2(), 1);
  auto* h0 = ec2.add_host();
  auto* h1 = ec2.add_host();
  auto* vm = ec2.launch("svc", cloud::InstanceType::small(), "t", h0);
  auto* dns_vm = ec2.launch("dns", cloud::InstanceType::small(), "t", h0);
  HipDaemon daemon(vm->node(), make_identity("svc2", HiAlgorithm::kRsa));
  net::UdpStack u_dns(dns_vm->node());
  net::DnsServer dns(dns_vm->node(), &u_dns);
  DnsUpdater updater(&daemon, &dns, "svc.cloud");

  Ipv4Addr new_ip;
  ec2.migrate(vm, h1, [&](const cloud::Cloud::MigrationReport& report) {
    new_ip = report.new_ip;
    daemon.move_to(IpAddr(report.new_ip));
  });
  net.loop().run();

  // Resolve via the server's own stack (one UdpStack per node; a second
  // would displace the first's protocol registration).
  net::DnsResolver resolver(dns_vm->node(), &u_dns,
                            Endpoint{IpAddr(dns_vm->private_ip()),
                                     net::kDnsPort});
  std::optional<Ipv4Addr> resolved;
  resolver.query("svc.cloud", net::DnsType::kA,
                 [&](std::vector<net::DnsRecord> records) {
                   ASSERT_EQ(records.size(), 1u);  // old record replaced
                   resolved = records[0].as_a();
                 });
  net.loop().run();
  EXPECT_EQ(resolved, std::optional<Ipv4Addr>(new_ip));
}

/// Full HIP configuration sweep: every combination of identity algorithm,
/// DH group and ESP suite must complete a BEX and carry data.
struct HipSweepParam {
  HiAlgorithm algo;
  crypto::DhGroup group;
  EspSuite suite;
};

class HipConfigSweep : public ::testing::TestWithParam<HipSweepParam> {};

TEST_P(HipConfigSweep, BexAndDataWork) {
  const auto p = GetParam();
  net::Network net(71);
  auto* a = net.add_node("a", 3e9);
  auto* b = net.add_node("b", 3e9);
  const auto link = net.connect(a, b, {});
  a->add_address(link.iface_a, Ipv4Addr(10, 0, 0, 1));
  b->add_address(link.iface_b, Ipv4Addr(10, 0, 0, 2));
  a->set_default_route(link.iface_a);
  b->set_default_route(link.iface_b);
  HipConfig cfg;
  cfg.dh_group = p.group;
  cfg.esp_suite = p.suite;
  cfg.puzzle_difficulty = 4;
  HipDaemon ha(a, make_identity("sweep-a", p.algo), cfg);
  HipDaemon hb(b, make_identity("sweep-b", p.algo), cfg);
  ha.add_peer(hb.hit(), IpAddr(Ipv4Addr(10, 0, 0, 2)));
  hb.add_peer(ha.hit(), IpAddr(Ipv4Addr(10, 0, 0, 1)));

  net::UdpStack ua(a), ub(b);
  crypto::Bytes got;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer data) {
    got.assign(data.begin(), data.end());
  });
  ua.send(9, Endpoint{IpAddr(hb.hit()), 7}, crypto::to_bytes("sweep"));
  net.loop().run();
  EXPECT_EQ(ha.state(hb.hit()), AssocState::kEstablished);
  EXPECT_EQ(got, crypto::to_bytes("sweep"));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HipConfigSweep,
    ::testing::Values(
        HipSweepParam{HiAlgorithm::kRsa, crypto::DhGroup::kModp1536,
                      EspSuite::kAes128CtrSha256},
        HipSweepParam{HiAlgorithm::kRsa, crypto::DhGroup::kModp2048,
                      EspSuite::kAes128CbcSha256},
        HipSweepParam{HiAlgorithm::kRsa, crypto::DhGroup::kModp1536,
                      EspSuite::kNullSha256},
        HipSweepParam{HiAlgorithm::kEcdsa, crypto::DhGroup::kModp1536,
                      EspSuite::kAes128CtrSha256},
        HipSweepParam{HiAlgorithm::kEcdsa, crypto::DhGroup::kModp2048,
                      EspSuite::kNullSha256},
        HipSweepParam{HiAlgorithm::kEcdsa, crypto::DhGroup::kModp3072,
                      EspSuite::kAes128CbcSha256}),
    [](const auto& name_info) {
      const auto& p = name_info.param;
      std::string name =
          p.algo == HiAlgorithm::kRsa ? "Rsa" : "Ecdsa";
      name += "Modp" + std::to_string(p.group == crypto::DhGroup::kModp1536
                                          ? 1536
                                          : p.group ==
                                                    crypto::DhGroup::kModp2048
                                                ? 2048
                                                : 3072);
      name += p.suite == EspSuite::kNullSha256       ? "Null"
              : p.suite == EspSuite::kAes128CtrSha256 ? "Ctr"
                                                      : "Cbc";
      return name;
    });

}  // namespace
}  // namespace hipcloud::hip
