// Cross-module integration tests: determinism, DNS-driven HIP discovery,
// migration with live traffic, and end-to-end tenant isolation.

#include <gtest/gtest.h>

#include "cloud/cloud.hpp"
#include "core/path_lab.hpp"
#include "core/testbed.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha_mb.hpp"
#include "net/dns.hpp"

namespace hipcloud {
namespace {

using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

TEST(Determinism, HashIdenticalAcrossCryptoBackends) {
  // The crypto backend (scalar vs SHA-NI vs multi-buffer lanes) and the
  // batched ESP datapath must never leak into simulation state: the
  // per-world FNV-1a event-order hash is byte-identical whichever
  // backend computes the (bit-identical) ciphertext and ICVs.
  auto run = [] {
    core::TestbedConfig cfg;
    cfg.deployment.mode = core::SecurityMode::kHip;
    cfg.deployment.dataset.items = 100;
    core::Testbed bed(cfg);
    const auto report = bed.run_closed_loop(5, 8 * sim::kSecond);
    EXPECT_GT(report.completed, 0u);
    return bed.network().perf().determinism_hash;
  };
  crypto::sha256_backend::set_for_test(crypto::sha256_backend::Kind::kScalar);
  crypto::shamb::set_lane_cap_for_test(1);
  const auto scalar_hash = run();
  crypto::sha256_backend::set_for_test(crypto::sha256_backend::Kind::kAuto);
  crypto::shamb::set_lane_cap_for_test(8);
  const auto avx2_hash = run();
  crypto::shamb::set_lane_cap_for_test(0);
  const auto auto_hash = run();
  EXPECT_EQ(scalar_hash, avx2_hash);
  EXPECT_EQ(scalar_hash, auto_hash);
}

TEST(Determinism, IdenticalSeedsGiveIdenticalResults) {
  auto run = [] {
    core::TestbedConfig cfg;
    cfg.deployment.mode = core::SecurityMode::kHip;
    cfg.deployment.dataset.items = 100;
    core::Testbed bed(cfg);
    return bed.run_closed_loop(5, 8 * sim::kSecond);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_DOUBLE_EQ(a.latency_ms.mean(), b.latency_ms.mean());
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    core::TestbedConfig cfg;
    cfg.seed = seed;
    cfg.deployment.seed = seed;
    cfg.deployment.dataset.items = 100;
    core::Testbed bed(cfg);
    return bed.run_closed_loop(5, 8 * sim::kSecond);
  };
  const auto a = run(1);
  const auto b = run(2);
  // Same workload semantics, different random draws.
  EXPECT_NE(a.latency_ms.mean(), b.latency_ms.mean());
}

/// The paper's deployment note: HIP records can live in the DNS, so peers
/// discover (HIT, HI, locator) dynamically. Resolve a HIP record and use
/// it to establish an association.
TEST(DnsHipDiscovery, ResolveThenEstablish) {
  net::Network net(51);
  cloud::Cloud ec2(net, cloud::ProviderProfile::ec2(), 1);
  ec2.add_host();
  auto* service = ec2.launch("svc", cloud::InstanceType::small());
  auto* client = ec2.launch("cli", cloud::InstanceType::small());
  auto* dns_vm = ec2.launch("dns", cloud::InstanceType::small());

  crypto::HmacDrbg d1(1, "dns-svc"), d2(2, "dns-cli");
  hip::HipDaemon hip_svc(service->node(),
                         hip::HostIdentity::generate(
                             d1, hip::HiAlgorithm::kRsa, 1024));
  hip::HipDaemon hip_cli(client->node(),
                         hip::HostIdentity::generate(
                             d2, hip::HiAlgorithm::kRsa, 1024));
  hip_svc.add_peer(hip_cli.hit(), IpAddr(client->private_ip()));

  // The cloud provider publishes the VM's HIP + A records.
  net::UdpStack u_dns(dns_vm->node()), u_cli(client->node());
  net::DnsServer dns(dns_vm->node(), &u_dns);
  dns.add_record("svc.cloud",
                 net::DnsRecord::hip(hip_svc.hit(),
                                     hip_svc.identity().public_encoding()));
  dns.add_record("svc.cloud", net::DnsRecord::a(service->private_ip()));

  net::DnsResolver resolver(client->node(), &u_cli,
                            Endpoint{IpAddr(dns_vm->private_ip()),
                                     net::kDnsPort});
  std::optional<net::Ipv6Addr> hit;
  std::optional<Ipv4Addr> locator;
  resolver.query("svc.cloud", net::DnsType::kHip,
                 [&](std::vector<net::DnsRecord> records) {
                   if (!records.empty()) hit = records[0].hip_hit();
                 });
  resolver.query("svc.cloud", net::DnsType::kA,
                 [&](std::vector<net::DnsRecord> records) {
                   if (!records.empty()) locator = records[0].as_a();
                 });
  net.loop().run();
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(locator.has_value());
  EXPECT_EQ(*hit, hip_svc.hit());
  EXPECT_EQ(*locator, service->private_ip());

  hip_cli.add_peer(*hit, IpAddr(*locator));
  hip_cli.initiate(*hit);
  net.loop().run();
  EXPECT_EQ(hip_cli.state(*hit), hip::AssocState::kEstablished);
}

/// Live migration under load: a TCP stream addressed by HIT survives the
/// VM moving to another host/subnet.
TEST(MigrationIntegration, TcpStreamSurvivesMigration) {
  net::Network net(53);
  cloud::Cloud ec2(net, cloud::ProviderProfile::ec2(), 1);
  auto* h0 = ec2.add_host();
  auto* h1 = ec2.add_host();
  auto* server_vm = ec2.launch("srv", cloud::InstanceType::small(), "t", h0);
  auto* client_vm = ec2.launch("cli", cloud::InstanceType::small(), "t", h0);

  crypto::HmacDrbg d1(1, "mig-srv"), d2(2, "mig-cli");
  hip::HipDaemon hs(server_vm->node(),
                    hip::HostIdentity::generate(d1, hip::HiAlgorithm::kRsa,
                                                1024));
  hip::HipDaemon hc(client_vm->node(),
                    hip::HostIdentity::generate(d2, hip::HiAlgorithm::kRsa,
                                                1024));
  hs.add_peer(hc.hit(), IpAddr(client_vm->private_ip()));
  hc.add_peer(hs.hit(), IpAddr(server_vm->private_ip()));

  net::TcpStack ts(server_vm->node()), tc(client_vm->node());
  std::size_t received = 0;
  ts.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) { received += data.size(); });
  });
  auto conn = tc.connect(Endpoint{IpAddr(hs.hit()), 80});
  // Drip-feed data across the migration window.
  constexpr int kChunks = 100;
  for (int i = 0; i < kChunks; ++i) {
    net.loop().schedule(i * 100 * sim::kMillisecond,
                        [&, i] { conn->send(crypto::Bytes(1000, 0x77)); });
  }
  net.loop().schedule(3 * sim::kSecond, [&] {
    ec2.migrate(server_vm, h1, [&](const cloud::Cloud::MigrationReport& r) {
      hs.move_to(IpAddr(r.new_ip));
    });
  });
  net.loop().run(60 * sim::kSecond);
  EXPECT_EQ(received, kChunks * 1000u);
  EXPECT_TRUE(conn->established());
}

/// Multi-tenant isolation end-to-end: tenant B cannot read tenant A's
/// database even from inside the same cloud, in any of three ways.
TEST(TenantIsolation, RivalCannotReachProtectedService) {
  net::Network net(57);
  cloud::Cloud ec2(net, cloud::ProviderProfile::ec2(), 1);
  ec2.add_host();
  ec2.add_host();
  auto* svc = ec2.launch("svc", cloud::InstanceType::small(), "acme");
  auto* friendly = ec2.launch("friendly", cloud::InstanceType::small(),
                              "acme");
  auto* rival = ec2.launch("rival", cloud::InstanceType::small(), "rival");

  crypto::HmacDrbg d1(1, "iso-svc"), d2(2, "iso-friend"), d3(3, "iso-rival");
  hip::HipDaemon h_svc(svc->node(), hip::HostIdentity::generate(
                                        d1, hip::HiAlgorithm::kRsa, 1024));
  hip::HipDaemon h_friend(friendly->node(),
                          hip::HostIdentity::generate(
                              d2, hip::HiAlgorithm::kRsa, 1024));
  hip::HipDaemon h_rival(rival->node(),
                         hip::HostIdentity::generate(
                             d3, hip::HiAlgorithm::kRsa, 1024));
  // hosts.allow: only the friendly VM.
  h_svc.set_default_accept(false);
  h_svc.allow(h_friend.hit());
  h_svc.add_peer(h_friend.hit(), IpAddr(friendly->private_ip()));
  h_friend.add_peer(h_svc.hit(), IpAddr(svc->private_ip()));
  h_rival.add_peer(h_svc.hit(), IpAddr(svc->private_ip()));

  net::UdpStack us(svc->node()), uf(friendly->node()), ur(rival->node());
  int svc_hits = 0;
  us.bind(7, [&](const Endpoint& from, const IpAddr&, crypto::Buffer) {
    ++svc_hits;
    us.send(7, from, crypto::to_bytes("secret"));
  });

  int friend_got = 0, rival_got = 0;
  uf.bind(9, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++friend_got;
  });
  ur.bind(9, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++rival_got;
  });

  // 1. Friendly VM over HIP: works.
  uf.send(9, Endpoint{IpAddr(h_svc.hit()), 7}, crypto::Bytes(4, 1));
  // 2. Rival over HIP: BEX denied by ACL.
  ur.send(9, Endpoint{IpAddr(h_svc.hit()), 7}, crypto::Bytes(4, 2));
  // 3. Rival forging ESP with a random SPI: dropped by the SA table.
  net::Packet forged;
  forged.src = rival->private_ip();
  forged.dst = svc->private_ip();
  forged.proto = net::IpProto::kEsp;
  crypto::append_be(forged.payload, 0x12345678u, 4);
  forged.payload.resize(80, 0xaa);
  forged.stamp_l3_overhead();
  rival->node()->send_raw(std::move(forged));

  net.loop().run(30 * sim::kSecond);
  EXPECT_EQ(friend_got, 1);
  EXPECT_EQ(rival_got, 0);
  EXPECT_EQ(svc_hits, 1);
  EXPECT_GT(h_svc.stats().acl_rejects, 0u);
}

/// PathLab smoke: every connectivity mode functions (the Figure 3 rig).
class PathLabModes
    : public ::testing::TestWithParam<core::PathLab::Path> {};

TEST_P(PathLabModes, PingAndSmallTransferWork) {
  core::PathLab lab;
  const auto dst = lab.establish(GetParam());
  EXPECT_GT(lab.ping_rtt_ms(dst, 5), 0.0);
  EXPECT_GT(lab.iperf_mbps(dst, 2 * sim::kSecond), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, PathLabModes,
    ::testing::Values(core::PathLab::Path::kIpv4, core::PathLab::Path::kLsi,
                      core::PathLab::Path::kHit,
                      core::PathLab::Path::kTeredo,
                      core::PathLab::Path::kHitTeredo,
                      core::PathLab::Path::kLsiTeredo),
    [](const auto& name_info) {
      std::string name = core::PathLab::path_name(name_info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

}  // namespace
}  // namespace hipcloud
