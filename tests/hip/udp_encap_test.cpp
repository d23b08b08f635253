// Native HIP NAT traversal (UDP encapsulation, the feature the paper's
// implementations lacked): BEX and ESP through a NAT without Teredo.

#include "hip/udp_encap.hpp"

#include <gtest/gtest.h>

#include "hip/daemon.hpp"
#include "net/nat.hpp"
#include "net/tcp.hpp"

namespace hipcloud::hip {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

HostIdentity make_identity(const std::string& name) {
  crypto::HmacDrbg drbg(crypto::to_bytes("encap:" + name));
  return HostIdentity::generate(drbg, HiAlgorithm::kRsa, 1024);
}

/// initiator (192.168.7.2) -- nat -- responder (9.0.0.10)
struct NattedHipTopo {
  net::Network net{83};
  net::Node *initiator, *natbox, *responder;
  std::unique_ptr<net::Nat> nat;
  std::unique_ptr<HipDaemon> hi, hr;
  std::unique_ptr<net::UdpStack> ui, ur;
  std::unique_ptr<UdpEncap> ei, er;

  NattedHipTopo() {
    initiator = net.add_node("initiator", 3e9);
    natbox = net.add_node("natbox");
    responder = net.add_node("responder", 3e9);
    const auto inside = net.connect(initiator, natbox, {});
    const auto outside = net.connect(natbox, responder, {});
    initiator->add_address(inside.iface_a, Ipv4Addr(192, 168, 7, 2));
    natbox->add_address(inside.iface_b, Ipv4Addr(192, 168, 7, 1));
    natbox->add_address(outside.iface_a, Ipv4Addr(9, 0, 0, 254));
    responder->add_address(outside.iface_b, Ipv4Addr(9, 0, 0, 10));
    initiator->set_default_route(inside.iface_a);
    responder->set_default_route(outside.iface_b);
    natbox->add_route(IpAddr(Ipv4Addr(192, 168, 7, 0)), 24, inside.iface_b);
    natbox->set_default_route(outside.iface_a);
    nat = std::make_unique<net::Nat>(natbox, inside.iface_b,
                                     outside.iface_a, Ipv4Addr(9, 0, 0, 1));
    responder->add_route(IpAddr(Ipv4Addr(9, 0, 0, 1)), 32, 0);

    // Order: daemon first, encapsulation shim second.
    hi = std::make_unique<HipDaemon>(initiator, make_identity("i"));
    hr = std::make_unique<HipDaemon>(responder, make_identity("r"));
    ui = std::make_unique<net::UdpStack>(initiator);
    ur = std::make_unique<net::UdpStack>(responder);
    // The NATted side binds an ephemeral port; the public side the
    // well-known one.
    ei = std::make_unique<UdpEncap>(initiator, ui.get(), 0);
    er = std::make_unique<UdpEncap>(responder, ur.get(), kHipNatPort);

    // The initiator knows the responder's public locator and tunnels to
    // it; the responder learns the initiator's NAT mapping on first
    // contact.
    hi->add_peer(hr->hit(), IpAddr(Ipv4Addr(9, 0, 0, 10)));
    ei->add_encap_peer(IpAddr(Ipv4Addr(9, 0, 0, 10)));
  }
};

TEST(UdpEncap, BexThroughNat) {
  NattedHipTopo topo;
  topo.hi->initiate(topo.hr->hit());
  topo.net.loop().run();
  EXPECT_EQ(topo.hi->state(topo.hr->hit()), AssocState::kEstablished);
  EXPECT_EQ(topo.hr->state(topo.hi->hit()), AssocState::kEstablished);
  EXPECT_GT(topo.ei->encapsulated(), 0u);
  EXPECT_GT(topo.er->decapsulated(), 0u);
}

TEST(UdpEncap, ResponderLearnsNatMapping) {
  NattedHipTopo topo;
  topo.hi->initiate(topo.hr->hit());
  topo.net.loop().run();
  // The responder's daemon must see the NAT pool address as the peer
  // locator, never the private 192.168.7.2.
  // (Observable through successful two-way traffic below.)
  int got = 0;
  topo.ur->bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++got;
  });
  net::UdpStack* app_stack = topo.ui.get();
  app_stack->bind(9, [](const Endpoint&, const IpAddr&, crypto::Buffer) {});
  app_stack->send(9, Endpoint{IpAddr(topo.hr->hit()), 7}, Bytes(32, 1));
  topo.net.loop().run();
  EXPECT_EQ(got, 1);
}

TEST(UdpEncap, EspDataFlowsBothWays) {
  NattedHipTopo topo;
  int at_responder = 0, at_initiator = 0;
  topo.ur->bind(7, [&](const Endpoint& from, const IpAddr&, crypto::Buffer) {
    ++at_responder;
    topo.ur->send(7, from, crypto::to_bytes("pong"));
  });
  topo.ui->bind(9, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++at_initiator;
  });
  for (int i = 0; i < 5; ++i) {
    topo.ui->send(9, Endpoint{IpAddr(topo.hr->hit()), 7}, Bytes(64, 0x5a));
  }
  topo.net.loop().run();
  EXPECT_EQ(at_responder, 5);
  EXPECT_EQ(at_initiator, 5);
}

TEST(UdpEncap, TcpOverEncapsulatedHip) {
  NattedHipTopo topo;
  net::TcpStack ti(topo.initiator), tr(topo.responder);
  std::size_t received = 0;
  tr.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) { received += data.size(); });
  });
  auto conn = ti.connect(Endpoint{IpAddr(topo.hr->hit()), 80});
  conn->on_connect([&] { conn->send(Bytes(50000, 0x42)); });
  topo.net.loop().run(60 * sim::kSecond);
  EXPECT_EQ(received, 50000u);
  // MSS accounts for ESP + UDP encapsulation.
  EXPECT_LE(conn->mss(), 1500u - 40 - 20 - esp_overhead(
                             EspSuite::kAes128CtrSha256) -
                             UdpEncap::kOverhead);
}

TEST(UdpEncap, KeepalivesFlow) {
  NattedHipTopo topo;
  topo.hi->initiate(topo.hr->hit());
  topo.ei->enable_keepalives(5 * sim::kSecond);
  topo.net.loop().run(30 * sim::kSecond);
  EXPECT_GE(topo.ei->keepalives_sent(), 5u);
}

TEST(UdpEncap, NonTunnelledTrafficUnaffected) {
  NattedHipTopo topo;
  // Plain UDP from responder to its own subnet is not intercepted.
  int got = 0;
  topo.ur->bind(70, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++got;
  });
  topo.ur->send(71, Endpoint{IpAddr(Ipv4Addr(9, 0, 0, 10)), 70},
                Bytes(4, 0));
  topo.net.loop().run();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace hipcloud::hip
