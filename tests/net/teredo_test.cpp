#include "net/teredo.hpp"

#include <gtest/gtest.h>

#include "net/icmp.hpp"
#include "net/nat.hpp"
#include "net/tcp.hpp"

namespace hipcloud::net {
namespace {

TEST(TeredoAddress, RoundTripsMappedEndpoint) {
  const Ipv4Addr server(8, 0, 0, 53);
  const Ipv4Addr mapped(77, 1, 2, 3);
  const std::uint16_t port = 43210;
  const Ipv6Addr addr = make_teredo_address(server, mapped, port);
  EXPECT_TRUE(addr.is_teredo());
  const Endpoint ep = teredo_mapped_endpoint(addr);
  EXPECT_EQ(ep.addr, IpAddr(mapped));
  EXPECT_EQ(ep.port, port);
}

TEST(TeredoAddress, RejectsNonTeredo) {
  EXPECT_THROW(teredo_mapped_endpoint(Ipv6Addr::parse("2001:db8::1")),
               std::invalid_argument);
}

/// Two Teredo clients, one behind a NAT, one with a public address, plus
/// a combined server/relay:
///
///   alice (192.168.1.2) -- nat -- core -- teredo-server (8.0.0.53)
///                                  |
///                                bob (8.0.0.99)
struct TeredoTopo {
  Network net;
  Node *alice, *natbox, *core, *srv, *bob;
  std::unique_ptr<Nat> nat;
  std::unique_ptr<UdpStack> ua, us, ub;
  std::unique_ptr<TeredoServer> server;
  std::unique_ptr<TeredoClient> ca, cb;

  TeredoTopo() : net(5) {
    alice = net.add_node("alice");
    natbox = net.add_node("natbox");
    core = net.add_node("core");
    srv = net.add_node("teredo-server");
    bob = net.add_node("bob");
    const auto l1 = net.connect(alice, natbox, {});
    const auto l2 = net.connect(natbox, core, {});
    const auto l3 = net.connect(core, srv, {});
    const auto l4 = net.connect(core, bob, {});
    alice->add_address(l1.iface_a, Ipv4Addr(192, 168, 1, 2));
    natbox->add_address(l1.iface_b, Ipv4Addr(192, 168, 1, 1));
    natbox->add_address(l2.iface_a, Ipv4Addr(8, 0, 1, 2));
    core->add_address(l2.iface_b, Ipv4Addr(8, 0, 1, 1));
    core->add_address(l3.iface_a, Ipv4Addr(8, 0, 2, 1));
    srv->add_address(l3.iface_b, Ipv4Addr(8, 0, 0, 53));
    core->add_address(l4.iface_a, Ipv4Addr(8, 0, 3, 1));
    bob->add_address(l4.iface_b, Ipv4Addr(8, 0, 0, 99));

    alice->set_default_route(l1.iface_a);
    natbox->add_route(IpAddr(Ipv4Addr(192, 168, 1, 0)), 24, l1.iface_b);
    natbox->set_default_route(l2.iface_a);
    core->add_route(IpAddr(Ipv4Addr(8, 0, 1, 0)), 24, l2.iface_b);
    core->add_route(IpAddr(Ipv4Addr(8, 0, 0, 53)), 32, l3.iface_a);
    core->add_route(IpAddr(Ipv4Addr(8, 0, 0, 99)), 32, l4.iface_a);
    core->set_forwarding(true);
    srv->set_default_route(l3.iface_b);
    bob->set_default_route(l4.iface_b);
    nat = std::make_unique<Nat>(natbox, l1.iface_b, l2.iface_a,
                                Ipv4Addr(8, 0, 1, 2));
    // Route the NAT public address (its own outside addr doubles as the
    // pool here; inbound translation keys on the mapping table).
    // NOTE: pool == interface address would break local delivery, so use
    // a dedicated pool address routed at the natbox.
    nat.reset();
    nat = std::make_unique<Nat>(natbox, l1.iface_b, l2.iface_a,
                                Ipv4Addr(8, 0, 1, 77));
    core->add_route(IpAddr(Ipv4Addr(8, 0, 1, 77)), 32, l2.iface_b);

    us = std::make_unique<UdpStack>(srv);
    server = std::make_unique<TeredoServer>(srv, us.get());
    ua = std::make_unique<UdpStack>(alice);
    ub = std::make_unique<UdpStack>(bob);
    const Endpoint server_ep{IpAddr(Ipv4Addr(8, 0, 0, 53)), kTeredoPort};
    ca = std::make_unique<TeredoClient>(alice, ua.get(), server_ep);
    cb = std::make_unique<TeredoClient>(bob, ub.get(), server_ep);
  }
};

TEST(Teredo, QualificationBehindNatSeesPublicMapping) {
  TeredoTopo topo;
  Ipv6Addr got;
  topo.ca->qualify([&](const Ipv6Addr& addr) { got = addr; });
  topo.net.loop().run();
  ASSERT_TRUE(topo.ca->qualified());
  EXPECT_TRUE(got.is_teredo());
  // The embedded endpoint must be the NAT pool address, not 192.168.1.2.
  const Endpoint mapped = teredo_mapped_endpoint(got);
  EXPECT_EQ(mapped.addr, IpAddr(Ipv4Addr(8, 0, 1, 77)));
}

TEST(Teredo, QualificationOnPublicHostSeesOwnAddress) {
  TeredoTopo topo;
  topo.cb->qualify([](const Ipv6Addr&) {});
  topo.net.loop().run();
  ASSERT_TRUE(topo.cb->qualified());
  EXPECT_EQ(teredo_mapped_endpoint(topo.cb->address()).addr,
            IpAddr(Ipv4Addr(8, 0, 0, 99)));
}

TEST(Teredo, PingOverTunnelThroughNat) {
  TeredoTopo topo;
  IcmpStack ia(topo.alice), ib(topo.bob);
  topo.ca->qualify([](const Ipv6Addr&) {});
  topo.cb->qualify([](const Ipv6Addr&) {});
  topo.net.loop().run();
  ASSERT_TRUE(topo.ca->qualified() && topo.cb->qualified());

  bool done = false;
  ia.ping(IpAddr(topo.cb->address()), 5, sim::from_millis(5), 32,
          [&](const sim::Summary& rtts, int lost) {
            done = true;
            EXPECT_EQ(lost, 0);
            EXPECT_EQ(rtts.count(), 5u);
          });
  topo.net.loop().run();
  EXPECT_TRUE(done);
}

TEST(Teredo, TunnelRttExceedsDirectV4Rtt) {
  // The relay detour + encapsulation must cost more than the direct path
  // — the ordering the paper's Figure 3 shows for Teredo.
  TeredoTopo topo;
  IcmpStack ia(topo.alice), ib(topo.bob);
  topo.ca->qualify([](const Ipv6Addr&) {});
  topo.cb->qualify([](const Ipv6Addr&) {});
  topo.net.loop().run();

  double direct_rtt = 0, teredo_rtt = 0;
  ia.ping(IpAddr(Ipv4Addr(8, 0, 0, 99)), 10, sim::from_millis(5), 32,
          [&](const sim::Summary& rtts, int) { direct_rtt = rtts.mean(); });
  topo.net.loop().run();
  ia.ping(IpAddr(topo.cb->address()), 10, sim::from_millis(5), 32,
          [&](const sim::Summary& rtts, int) { teredo_rtt = rtts.mean(); });
  topo.net.loop().run();
  EXPECT_GT(direct_rtt, 0.0);
  EXPECT_GT(teredo_rtt, direct_rtt);
}

TEST(Teredo, TcpOverTunnel) {
  TeredoTopo topo;
  topo.ca->qualify([](const Ipv6Addr&) {});
  topo.cb->qualify([](const Ipv6Addr&) {});
  topo.net.loop().run();

  TcpStack ta(topo.alice), tb(topo.bob);
  crypto::Bytes got;
  tb.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) {
      got.assign(data.begin(), data.end());
    });
  });
  auto conn = ta.connect(Endpoint{IpAddr(topo.cb->address()), 80});
  conn->on_connect([&] { conn->send(crypto::to_bytes("over teredo")); });
  topo.net.loop().run();
  EXPECT_EQ(got, crypto::to_bytes("over teredo"));
  // MSS must have shrunk to leave room for the tunnel overhead.
  EXPECT_LE(conn->mss(), 1500u - 40 - 20 - TeredoClient::kTunnelOverhead);
}

TEST(Teredo, UnqualifiedClientDropsTeredoTraffic) {
  TeredoTopo topo;
  IcmpStack ia(topo.alice), ib(topo.bob);
  topo.cb->qualify([](const Ipv6Addr&) {});
  topo.net.loop().run();
  bool done = false;
  ia.ping(IpAddr(topo.cb->address()), 2, sim::from_millis(1), 8,
          [&](const sim::Summary& rtts, int lost) {
            done = true;
            EXPECT_EQ(lost, 2);
            EXPECT_EQ(rtts.count(), 0u);
          });
  topo.net.loop().run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace hipcloud::net
