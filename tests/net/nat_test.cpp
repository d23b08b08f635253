#include "net/nat.hpp"

#include <gtest/gtest.h>

#include "net/icmp.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"

namespace hipcloud::net {
namespace {

/// client (192.168.0.2) -- natbox -- server (8.0.0.10)
/// NAT public pool address: 8.0.0.1 (not owned by the nat node).
struct NattedTopo {
  Network net;
  Node* client;
  Node* natbox;
  Node* server;
  std::unique_ptr<Nat> nat;

  explicit NattedTopo(std::uint64_t seed = 1) : net(seed) {
    client = net.add_node("client");
    natbox = net.add_node("natbox");
    server = net.add_node("server");
    const auto inside = net.connect(client, natbox, {});
    const auto outside = net.connect(natbox, server, {});
    client->add_address(inside.iface_a, Ipv4Addr(192, 168, 0, 2));
    natbox->add_address(inside.iface_b, Ipv4Addr(192, 168, 0, 1));
    natbox->add_address(outside.iface_a, Ipv4Addr(8, 0, 0, 254));
    server->add_address(outside.iface_b, Ipv4Addr(8, 0, 0, 10));
    client->set_default_route(inside.iface_a);
    server->set_default_route(outside.iface_b);  // via natbox for 8.0.0.1
    natbox->add_route(IpAddr(Ipv4Addr(192, 168, 0, 0)), 24, inside.iface_b);
    natbox->set_default_route(outside.iface_a);
    nat = std::make_unique<Nat>(natbox, inside.iface_b, outside.iface_a,
                                Ipv4Addr(8, 0, 0, 1));
  }
};

TEST(Nat, UdpOutboundIsTranslated) {
  NattedTopo topo;
  UdpStack uc(topo.client), us(topo.server);
  Endpoint seen_src{};
  us.bind(5353, [&](const Endpoint& from, const IpAddr&, crypto::Buffer) {
    seen_src = from;
  });
  uc.send(4000, Endpoint{IpAddr(Ipv4Addr(8, 0, 0, 10)), 5353},
          crypto::to_bytes("x"));
  topo.net.loop().run();
  EXPECT_EQ(seen_src.addr, IpAddr(Ipv4Addr(8, 0, 0, 1)));
  EXPECT_NE(seen_src.port, 4000);  // remapped
  EXPECT_EQ(topo.nat->active_mappings(), 1u);
}

TEST(Nat, UdpReplyComesBackThroughMapping) {
  NattedTopo topo;
  UdpStack uc(topo.client), us(topo.server);
  crypto::Bytes client_got;
  uc.bind(4000, [&](const Endpoint&, const IpAddr&, crypto::Buffer data) {
    client_got.assign(data.begin(), data.end());
  });
  us.bind(5353, [&](const Endpoint& from, const IpAddr&, crypto::Buffer) {
    us.send(5353, from, crypto::to_bytes("reply"));
  });
  uc.send(4000, Endpoint{IpAddr(Ipv4Addr(8, 0, 0, 10)), 5353},
          crypto::to_bytes("ping"));
  topo.net.loop().run();
  EXPECT_EQ(client_got, crypto::to_bytes("reply"));
}

TEST(Nat, MappingIsStableAcrossDatagrams) {
  NattedTopo topo;
  UdpStack uc(topo.client), us(topo.server);
  std::vector<std::uint16_t> seen_ports;
  us.bind(5353, [&](const Endpoint& from, const IpAddr&, crypto::Buffer) {
    seen_ports.push_back(from.port);
  });
  for (int i = 0; i < 3; ++i) {
    uc.send(4000, Endpoint{IpAddr(Ipv4Addr(8, 0, 0, 10)), 5353},
            crypto::Bytes(1, 0));
  }
  topo.net.loop().run();
  ASSERT_EQ(seen_ports.size(), 3u);
  EXPECT_EQ(seen_ports[0], seen_ports[1]);
  EXPECT_EQ(seen_ports[1], seen_ports[2]);
  EXPECT_EQ(topo.nat->active_mappings(), 1u);
}

TEST(Nat, DistinctInsidePortsGetDistinctMappings) {
  NattedTopo topo;
  UdpStack uc(topo.client), us(topo.server);
  std::vector<std::uint16_t> seen_ports;
  us.bind(5353, [&](const Endpoint& from, const IpAddr&, crypto::Buffer) {
    seen_ports.push_back(from.port);
  });
  uc.send(4000, Endpoint{IpAddr(Ipv4Addr(8, 0, 0, 10)), 5353},
          crypto::Bytes(1, 0));
  uc.send(4001, Endpoint{IpAddr(Ipv4Addr(8, 0, 0, 10)), 5353},
          crypto::Bytes(1, 0));
  topo.net.loop().run();
  ASSERT_EQ(seen_ports.size(), 2u);
  EXPECT_NE(seen_ports[0], seen_ports[1]);
  EXPECT_EQ(topo.nat->active_mappings(), 2u);
}

TEST(Nat, UnsolicitedInboundIsDropped) {
  NattedTopo topo;
  UdpStack uc(topo.client), us(topo.server);
  int client_got = 0;
  uc.bind(4000, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++client_got;
  });
  // Server fires at the NAT's public address with no mapping existing.
  us.send(9999, Endpoint{IpAddr(Ipv4Addr(8, 0, 0, 1)), 4000},
          crypto::to_bytes("unsolicited"));
  topo.net.loop().run();
  EXPECT_EQ(client_got, 0);
}

TEST(Nat, TcpThroughNat) {
  NattedTopo topo;
  TcpStack tc(topo.client), ts(topo.server);
  crypto::Bytes at_server, at_client;
  ts.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&, c = conn.get()](crypto::Buffer data) {
      at_server.assign(data.begin(), data.end());
      c->send(crypto::to_bytes("OK"));
    });
  });
  auto conn = tc.connect(Endpoint{IpAddr(Ipv4Addr(8, 0, 0, 10)), 80});
  conn->on_connect([&] { conn->send(crypto::to_bytes("GET /")); });
  conn->on_data([&](crypto::Buffer data) {
    at_client.assign(data.begin(), data.end());
  });
  topo.net.loop().run();
  EXPECT_EQ(at_server, crypto::to_bytes("GET /"));
  EXPECT_EQ(at_client, crypto::to_bytes("OK"));
}

TEST(Nat, IcmpEchoThroughNat) {
  NattedTopo topo;
  IcmpStack ic(topo.client), is(topo.server);
  bool done = false;
  ic.ping(IpAddr(Ipv4Addr(8, 0, 0, 10)), 5, sim::from_millis(1), 32,
          [&](const sim::Summary& rtts, int lost) {
            done = true;
            EXPECT_EQ(lost, 0);
            EXPECT_EQ(rtts.count(), 5u);
          });
  topo.net.loop().run();
  EXPECT_TRUE(done);
}

// Regression: transport payloads too short to carry their port fields
// must be dropped untranslated. The port writers re-check the payload
// size before indexing — without those guards a truncated datagram that
// slipped past read_ports would mean out-of-bounds writes into pooled
// memory (caught by ASan in this suite's default build).
TEST(Nat, TruncatedTransportPayloadDropped) {
  NattedTopo topo;
  int server_got = 0;
  for (const auto proto :
       {IpProto::kUdp, IpProto::kTcp, IpProto::kIcmp}) {
    topo.server->register_protocol(proto, [&](Packet&&) { ++server_got; });
  }
  for (const auto proto :
       {IpProto::kUdp, IpProto::kTcp, IpProto::kIcmp}) {
    for (std::size_t n = 0; n < 4; ++n) {
      Packet pkt;
      pkt.src = IpAddr(Ipv4Addr(192, 168, 0, 2));
      pkt.dst = IpAddr(Ipv4Addr(8, 0, 0, 10));
      pkt.proto = proto;
      pkt.payload = crypto::Bytes(n, 0xab);
      pkt.stamp_l3_overhead();
      topo.client->send(std::move(pkt));
    }
  }
  topo.net.loop().run();
  EXPECT_EQ(server_got, 0);
  EXPECT_EQ(topo.nat->active_mappings(), 0u);
}

}  // namespace
}  // namespace hipcloud::net
