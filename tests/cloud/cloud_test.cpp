#include "cloud/cloud.hpp"

#include <gtest/gtest.h>

#include "cloud/vlan.hpp"
#include "net/udp.hpp"

namespace hipcloud::cloud {
namespace {

using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

TEST(InstanceType, EcuToCycles) {
  EXPECT_DOUBLE_EQ(InstanceType::large().cycles_per_second(), 4.0 * 1.2e9);
  EXPECT_LT(InstanceType::micro().cycles_per_second(),
            InstanceType::small().cycles_per_second());
  EXPECT_GT(InstanceType::micro().burst_compute_units,
            InstanceType::micro().compute_units);
}

TEST(Cloud, LaunchAssignsAddressesPerHost) {
  net::Network net(1);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  auto* h0 = ec2.add_host();
  auto* h1 = ec2.add_host();
  auto* vm0 = ec2.launch("a", InstanceType::small(), "t", h0);
  auto* vm1 = ec2.launch("b", InstanceType::small(), "t", h0);
  auto* vm2 = ec2.launch("c", InstanceType::small(), "t", h1);
  EXPECT_EQ(vm0->private_ip(), Ipv4Addr(10, 1, 0, 10));
  EXPECT_EQ(vm1->private_ip(), Ipv4Addr(10, 1, 0, 11));
  EXPECT_EQ(vm2->private_ip(), Ipv4Addr(10, 1, 1, 10));
  EXPECT_EQ(h0->vm_count(), 2);
  EXPECT_EQ(h1->vm_count(), 1);
}

TEST(Cloud, RoundRobinPlacement) {
  net::Network net(1);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  ec2.add_host();
  ec2.add_host();
  ec2.add_host();
  std::vector<int> hosts;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(
        ec2.launch("vm" + std::to_string(i), InstanceType::small())
            ->host()
            ->index());
  }
  EXPECT_EQ(hosts, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Cloud, LaunchWithoutHostsThrows) {
  net::Network net(1);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  EXPECT_THROW(ec2.launch("vm", InstanceType::small()), std::runtime_error);
}

TEST(Cloud, IntraCloudConnectivity) {
  net::Network net(1);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  ec2.add_host();
  ec2.add_host();
  auto* a = ec2.launch("a", InstanceType::small());
  auto* b = ec2.launch("b", InstanceType::small());  // different host
  net::UdpStack ua(a->node()), ub(b->node());
  crypto::Bytes got;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer data) {
    got.assign(data.begin(), data.end());
  });
  ua.send(9, Endpoint{IpAddr(b->private_ip()), 7},
          crypto::to_bytes("cross-host"));
  net.loop().run();
  EXPECT_EQ(got, crypto::to_bytes("cross-host"));
}

TEST(Cloud, ExternalConnectivityThroughGateway) {
  net::Network net(1);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  ec2.add_host();
  auto* vm = ec2.launch("vm", InstanceType::small());
  auto* outside = net.add_node("outside");
  const auto link = ec2.attach_external(outside, {});
  (void)link;
  // Address the external node (its only interface is the gateway link).
  outside->add_address(0, Ipv4Addr(8, 8, 8, 8));
  net::UdpStack uv(vm->node()), uo(outside);
  Endpoint seen{};
  uo.bind(53, [&](const Endpoint& from, const IpAddr&, crypto::Buffer) {
    seen = from;
  });
  uv.send(9, Endpoint{IpAddr(Ipv4Addr(8, 8, 8, 8)), 53}, crypto::Bytes(4, 0));
  net.loop().run();
  // The VM's private address is visible (no NAT at the gateway).
  EXPECT_EQ(seen.addr, IpAddr(vm->private_ip()));
}

TEST(Cloud, TwoCloudsInterconnect) {
  net::Network net(2);
  Cloud priv(net, ProviderProfile::opennebula(), 1);
  Cloud pub(net, ProviderProfile::ec2(), 2);
  priv.add_host();
  pub.add_host();
  auto* a = priv.launch("a", InstanceType::small());
  auto* b = pub.launch("b", InstanceType::small());
  auto* wan = net.add_node("wan");
  wan->set_forwarding(true);
  priv.attach_external(wan, {});
  pub.attach_external(wan, {});
  net::UdpStack ua(a->node()), ub(b->node());
  int got = 0;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer) { ++got; });
  ua.send(9, Endpoint{IpAddr(b->private_ip()), 7}, crypto::Bytes(4, 0));
  net.loop().run();
  EXPECT_EQ(got, 1);
}

TEST(Cloud, MigrationMovesVmAndChangesIp) {
  net::Network net(3);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  auto* h0 = ec2.add_host();
  auto* h1 = ec2.add_host();
  auto* vm = ec2.launch("vm", InstanceType::small(), "t", h0);
  const auto old_ip = vm->private_ip();
  bool done = false;
  Cloud::MigrationReport report{};
  ec2.migrate(vm, h1, [&](const Cloud::MigrationReport& r) {
    report = r;
    done = true;
  });
  net.loop().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(vm->host(), h1);
  EXPECT_NE(vm->private_ip(), old_ip);
  EXPECT_EQ(vm->private_ip(), report.new_ip);
  EXPECT_GT(report.total, 0);
  EXPECT_GT(report.downtime, 0);
  EXPECT_LT(report.downtime, report.total);
  EXPECT_GE(report.bytes_copied,
            vm->type().memory_mb * std::size_t(1000000));
  EXPECT_EQ(h0->vm_count(), 0);
  EXPECT_EQ(h1->vm_count(), 1);
}

TEST(Cloud, MigratedVmIsReachableAtNewAddress) {
  net::Network net(3);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  auto* h0 = ec2.add_host();
  auto* h1 = ec2.add_host();
  auto* vm = ec2.launch("vm", InstanceType::small(), "t", h0);
  auto* peer = ec2.launch("peer", InstanceType::small(), "t", h0);
  net::UdpStack uv(vm->node()), up(peer->node());
  int got = 0;
  uv.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer) { ++got; });
  Ipv4Addr new_ip;
  ec2.migrate(vm, h1, [&](const Cloud::MigrationReport& r) {
    new_ip = r.new_ip;
  });
  net.loop().run();
  up.send(9, Endpoint{IpAddr(new_ip), 7}, crypto::Bytes(4, 0));
  net.loop().run();
  EXPECT_EQ(got, 1);
}

TEST(Cloud, HigherDirtyRateCopiesMore) {
  auto copied_with = [](double dirty_rate) {
    net::Network net(3);
    Cloud ec2(net, ProviderProfile::ec2(), 1);
    auto* h0 = ec2.add_host();
    auto* h1 = ec2.add_host();
    auto* vm = ec2.launch("vm", InstanceType::large(), "t", h0);
    std::size_t copied = 0;
    ec2.migrate(vm, h1,
                [&](const Cloud::MigrationReport& r) {
                  copied = r.bytes_copied;
                },
                dirty_rate);
    net.loop().run();
    return copied;
  };
  EXPECT_GT(copied_with(0.4), copied_with(0.05));
}

TEST(Cloud, MigrateToSameHostThrows) {
  net::Network net(3);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  auto* h0 = ec2.add_host();
  auto* vm = ec2.launch("vm", InstanceType::small(), "t", h0);
  EXPECT_THROW(ec2.migrate(vm, h0, nullptr), std::invalid_argument);
}

TEST(Vlan, SameVlanPasses) {
  net::Network net(4);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  ec2.add_host();
  ec2.add_host();
  auto* a = ec2.launch("a", InstanceType::small(), "tenant1");
  auto* b = ec2.launch("b", InstanceType::small(), "tenant1");
  VlanFabric vlan;
  vlan.assign(IpAddr(a->private_ip()), 100);
  vlan.assign(IpAddr(b->private_ip()), 100);
  vlan.enforce_on(ec2.fabric());
  net::UdpStack ua(a->node()), ub(b->node());
  int got = 0;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer) { ++got; });
  ua.send(9, Endpoint{IpAddr(b->private_ip()), 7}, crypto::Bytes(4, 0));
  net.loop().run();
  EXPECT_EQ(got, 1);
  EXPECT_GT(vlan.passed(), 0u);
}

TEST(Vlan, CrossVlanBlocked) {
  net::Network net(4);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  ec2.add_host();
  ec2.add_host();
  auto* a = ec2.launch("a", InstanceType::small(), "tenant1");
  auto* b = ec2.launch("b", InstanceType::small(), "tenant2");
  VlanFabric vlan;
  vlan.assign(IpAddr(a->private_ip()), 100);
  vlan.assign(IpAddr(b->private_ip()), 200);
  vlan.enforce_on(ec2.fabric());
  net::UdpStack ua(a->node()), ub(b->node());
  int got = 0;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer) { ++got; });
  ua.send(9, Endpoint{IpAddr(b->private_ip()), 7}, crypto::Bytes(4, 0));
  net.loop().run();
  EXPECT_EQ(got, 0);
  EXPECT_GT(vlan.dropped(), 0u);
}

TEST(CpuBurst, CreditsSpeedUpEarlyWork) {
  net::Network net(5);
  Cloud ec2(net, ProviderProfile::ec2(), 1);
  ec2.add_host();
  auto* vm = ec2.launch("vm", InstanceType::micro());
  auto& cpu = vm->node()->cpu();
  const double credits_before = cpu.remaining_credit_cycles();
  EXPECT_GT(credits_before, 0.0);
  // Burn more than the credit bucket; early work runs at burst speed.
  sim::Time first_done = 0, second_done = 0;
  const double half_bucket = credits_before / 2;
  cpu.run(half_bucket, [&] { first_done = net.loop().now(); });
  cpu.run(2 * credits_before, [&] { second_done = net.loop().now(); });
  net.loop().run();
  EXPECT_LT(cpu.remaining_credit_cycles(), 1.0);
  // First half-bucket at 2.0 ECU burst; the tail of the second chunk at
  // 0.35 ECU sustained — the tail dominates.
  const double first_seconds = sim::to_seconds(first_done);
  const double expected_first = half_bucket / (2.0 * 1.2e9);
  EXPECT_NEAR(first_seconds, expected_first, expected_first * 0.01);
  EXPECT_GT(sim::to_seconds(second_done), first_seconds * 4);
}

}  // namespace
}  // namespace hipcloud::cloud
