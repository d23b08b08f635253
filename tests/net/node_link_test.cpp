#include <gtest/gtest.h>

#include "net/icmp.hpp"
#include "net/udp.hpp"
#include "test_topology.hpp"

namespace hipcloud::net {
namespace {

using testing::RoutedPair;
using testing::TwoHosts;

TEST(NodeLink, UdpDatagramArrives) {
  TwoHosts topo;
  UdpStack ua(topo.a), ub(topo.b);
  crypto::Bytes received;
  Endpoint from{};
  ub.bind(7000, [&](const Endpoint& src, const IpAddr&, crypto::Buffer data) {
    from = src;
    received.assign(data.begin(), data.end());
  });
  ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 7000},
          crypto::to_bytes("hello"));
  topo.net.loop().run();
  EXPECT_EQ(received, crypto::to_bytes("hello"));
  EXPECT_EQ(from.addr, IpAddr(Ipv4Addr(10, 0, 0, 1)));
  EXPECT_EQ(from.port, 5000);
}

TEST(NodeLink, LatencyIsCharged) {
  LinkConfig link;
  link.latency = sim::from_millis(5);
  link.bandwidth_bps = 1e12;  // effectively zero serialization
  TwoHosts topo(link);
  UdpStack ua(topo.a), ub(topo.b);
  sim::Time arrival = -1;
  ub.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    arrival = topo.net.loop().now();
  });
  ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 7000},
          crypto::Bytes(10, 0));
  topo.net.loop().run();
  EXPECT_GE(arrival, sim::from_millis(5));
  EXPECT_LT(arrival, sim::from_millis(6));
}

TEST(NodeLink, SerializationDelayScalesWithSize) {
  LinkConfig link;
  link.latency = 0;
  link.bandwidth_bps = 8e6;  // 1 byte per microsecond
  TwoHosts topo(link);
  UdpStack ua(topo.a), ub(topo.b);
  sim::Time arrival = -1;
  ub.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    arrival = topo.net.loop().now();
  });
  // 972 data + 8 UDP + 20 IP = 1000 bytes => 1000 us on the wire.
  ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 7000},
          crypto::Bytes(972, 0));
  topo.net.loop().run();
  EXPECT_EQ(arrival, sim::from_micros(1000));
}

TEST(NodeLink, QueueOverflowDrops) {
  LinkConfig link;
  link.bandwidth_bps = 8e6;
  link.max_queue_delay = sim::from_micros(1500);  // fits one extra packet
  TwoHosts topo(link);
  UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  // Each packet takes 1000us to serialize; sending 5 back-to-back can
  // queue at most ~2 (in-flight + one 1000us-deep queue entry).
  for (int i = 0; i < 5; ++i) {
    ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 7000},
            crypto::Bytes(972, 0));
  }
  topo.net.loop().run();
  EXPECT_LT(received, 5);
  EXPECT_GE(received, 1);
}

TEST(NodeLink, RandomLossDropsSomePackets) {
  LinkConfig link;
  link.loss_rate = 0.5;
  TwoHosts topo(link, /*seed=*/7);
  UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  for (int i = 0; i < 100; ++i) {
    topo.net.loop().schedule(i * sim::kMillisecond, [&] {
      ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 7000},
              crypto::Bytes(8, 0));
    });
  }
  topo.net.loop().run();
  EXPECT_GT(received, 20);
  EXPECT_LT(received, 80);
}

TEST(NodeLink, MtuViolationDrops) {
  TwoHosts topo;
  UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 7000},
          crypto::Bytes(2000, 0));
  topo.net.loop().run();
  EXPECT_EQ(received, 0);
}

TEST(NodeLink, RoutingThroughRouter) {
  RoutedPair topo;
  UdpStack ua(topo.a), ub(topo.b);
  crypto::Bytes received;
  ub.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer data) {
    received.assign(data.begin(), data.end());
  });
  ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 2, 1)), 7000},
          crypto::to_bytes("via router"));
  topo.net.loop().run();
  EXPECT_EQ(received, crypto::to_bytes("via router"));
  EXPECT_EQ(topo.r->forwarded_packets(), 1u);
}

TEST(NodeLink, NonForwardingNodeDropsTransit) {
  RoutedPair topo;
  topo.r->set_forwarding(false);
  UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 2, 1)), 7000},
          crypto::Bytes(4, 0));
  topo.net.loop().run();
  EXPECT_EQ(received, 0);
}

TEST(NodeLink, NoRouteIncrementsCounter) {
  Network net;
  Node* lonely = net.add_node("lonely");  // no links, no routes
  const auto iface = lonely->add_virtual_interface();
  lonely->add_address(iface, Ipv4Addr(10, 9, 9, 9));
  UdpStack u(lonely);
  u.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 1)), 7000},
         crypto::Bytes(4, 0));
  net.loop().run();
  EXPECT_EQ(lonely->dropped_no_route(), 1u);
}

TEST(NodeLink, LoopbackDelivery) {
  TwoHosts topo;
  UdpStack ua(topo.a);
  crypto::Bytes received;
  ua.bind(7000, [&](const Endpoint&, const IpAddr&, crypto::Buffer data) {
    received.assign(data.begin(), data.end());
  });
  ua.send(5000, Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 1)), 7000},
          crypto::to_bytes("self"));
  topo.net.loop().run();
  EXPECT_EQ(received, crypto::to_bytes("self"));
}

TEST(NodeLink, SelectSourcePrefersKindMatch) {
  TwoHosts topo;
  const auto iface = topo.a->add_virtual_interface();
  topo.a->add_address(iface, Ipv4Addr(1, 0, 0, 1));               // LSI
  topo.a->add_address(iface, Ipv6Addr::parse("2001:10::1"));      // HIT
  topo.a->add_address(iface, Ipv6Addr::parse("2001:db8::1"));     // plain v6
  EXPECT_EQ(topo.a->select_source(IpAddr(Ipv4Addr(1, 0, 0, 9))),
            std::optional<IpAddr>(IpAddr(Ipv4Addr(1, 0, 0, 1))));
  EXPECT_EQ(topo.a->select_source(IpAddr(Ipv6Addr::parse("2001:10::9"))),
            std::optional<IpAddr>(IpAddr(Ipv6Addr::parse("2001:10::1"))));
  EXPECT_EQ(topo.a->select_source(IpAddr(Ipv6Addr::parse("2001:db8::9"))),
            std::optional<IpAddr>(IpAddr(Ipv6Addr::parse("2001:db8::1"))));
  EXPECT_EQ(topo.a->select_source(IpAddr(Ipv4Addr(10, 0, 0, 2))),
            std::optional<IpAddr>(IpAddr(Ipv4Addr(10, 0, 0, 1))));
}

TEST(Ping, MeasuresRtt) {
  LinkConfig link;
  link.latency = sim::from_millis(2);
  link.bandwidth_bps = 1e12;
  TwoHosts topo(link);
  IcmpStack ia(topo.a), ib(topo.b);
  bool done = false;
  ia.ping(IpAddr(Ipv4Addr(10, 0, 0, 2)), 20, sim::from_millis(10), 56,
          [&](const sim::Summary& rtts, int lost) {
            done = true;
            EXPECT_EQ(lost, 0);
            EXPECT_EQ(rtts.count(), 20u);
            EXPECT_NEAR(rtts.mean(), 4.0, 0.2);  // 2ms each way
          });
  topo.net.loop().run();
  EXPECT_TRUE(done);
}

TEST(Ping, ReportsLossOnDeadPeer) {
  TwoHosts topo;
  IcmpStack ia(topo.a);  // b has no ICMP stack -> no replies
  bool done = false;
  ia.ping(IpAddr(Ipv4Addr(10, 0, 0, 2)), 3, sim::from_millis(1), 8,
          [&](const sim::Summary& rtts, int lost) {
            done = true;
            EXPECT_EQ(lost, 3);
            EXPECT_EQ(rtts.count(), 0u);
          });
  topo.net.loop().run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace hipcloud::net
