#include <gtest/gtest.h>

#include "hip/daemon.hpp"
#include "hip/firewall.hpp"
#include "net/udp.hpp"

namespace hipcloud::hip {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

HostIdentity make_identity(const std::string& name) {
  crypto::HmacDrbg drbg(crypto::to_bytes("id:" + name));
  return HostIdentity::generate(drbg, HiAlgorithm::kRsa, 1024);
}

/// a -- fw -- b where fw is a HIP-aware firewall middlebox (the paper's
/// scenario II: the filter runs in the hypervisor, not the end host).
struct FirewalledPair {
  net::Network net{7};
  net::Node *a, *fw, *b;
  std::unique_ptr<HipDaemon> ha, hb;
  std::unique_ptr<HipFirewall> firewall;

  FirewalledPair() {
    a = net.add_node("a", 3e9);
    fw = net.add_node("fw");
    b = net.add_node("b", 3e9);
    const auto la = net.connect(a, fw, {});
    const auto lb = net.connect(fw, b, {});
    a->add_address(la.iface_a, Ipv4Addr(10, 0, 1, 1));
    fw->add_address(la.iface_b, Ipv4Addr(10, 0, 1, 254));
    fw->add_address(lb.iface_a, Ipv4Addr(10, 0, 2, 254));
    b->add_address(lb.iface_b, Ipv4Addr(10, 0, 2, 1));
    a->set_default_route(la.iface_a);
    b->set_default_route(lb.iface_b);
    fw->add_route(IpAddr(Ipv4Addr(10, 0, 1, 0)), 24, la.iface_b);
    fw->add_route(IpAddr(Ipv4Addr(10, 0, 2, 0)), 24, lb.iface_a);
    firewall = std::make_unique<HipFirewall>(fw, /*default_accept=*/false);
    ha = std::make_unique<HipDaemon>(a, make_identity("fw-a"));
    hb = std::make_unique<HipDaemon>(b, make_identity("fw-b"));
    ha->add_peer(hb->hit(), IpAddr(Ipv4Addr(10, 0, 2, 1)));
    hb->add_peer(ha->hit(), IpAddr(Ipv4Addr(10, 0, 1, 1)));
  }
};

TEST(HipFirewall, AllowedPairEstablishesAndFlows) {
  FirewalledPair topo;
  topo.firewall->allow_pair(topo.ha->hit(), topo.hb->hit());
  net::UdpStack ua(topo.a), ub(topo.b);
  Bytes got;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer data) {
    got.assign(data.begin(), data.end());
  });
  ua.send(9, Endpoint{IpAddr(topo.hb->hit()), 7}, crypto::to_bytes("ok"));
  topo.net.loop().run();
  EXPECT_EQ(got, crypto::to_bytes("ok"));
  EXPECT_GT(topo.firewall->learned_spis(), 0u);
  EXPECT_GT(topo.firewall->passed(), 0u);
}

TEST(HipFirewall, UnknownPairIsBlocked) {
  FirewalledPair topo;  // no allow_pair
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run(10 * sim::kSecond);
  EXPECT_NE(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  EXPECT_GT(topo.firewall->dropped(), 0u);
}

TEST(HipFirewall, DeniedPairIsBlockedEvenIfAllowed) {
  FirewalledPair topo;
  topo.firewall->allow_pair(topo.ha->hit(), topo.hb->hit());
  topo.firewall->deny_pair(topo.ha->hit(), topo.hb->hit());
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run(10 * sim::kSecond);
  EXPECT_NE(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
}

TEST(HipFirewall, PlainTrafficBlockedInWhitelistMode) {
  FirewalledPair topo;
  topo.firewall->allow_pair(topo.ha->hit(), topo.hb->hit());
  net::UdpStack ua(topo.a), ub(topo.b);
  int got = 0;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer) { ++got; });
  // Plain UDP to b's raw IP (no HIP): must be dropped by the middlebox.
  ua.send(9, Endpoint{IpAddr(Ipv4Addr(10, 0, 2, 1)), 7}, Bytes(4, 0));
  topo.net.loop().run();
  EXPECT_EQ(got, 0);
  EXPECT_GT(topo.firewall->dropped(), 0u);
}

TEST(HipFirewall, ForeignEspSpiIsBlocked) {
  FirewalledPair topo;
  topo.firewall->allow_pair(topo.ha->hit(), topo.hb->hit());
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run();
  ASSERT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  const auto dropped_before = topo.firewall->dropped();
  // Inject an ESP packet with an unlearned SPI from a.
  net::Packet fake;
  fake.src = Ipv4Addr(10, 0, 1, 1);
  fake.dst = Ipv4Addr(10, 0, 2, 1);
  fake.proto = net::IpProto::kEsp;
  crypto::append_be(fake.payload, 0xdeadbeef, 4);
  fake.payload.resize(64, 0);
  fake.stamp_l3_overhead();
  topo.a->send_raw(std::move(fake));
  topo.net.loop().run();
  EXPECT_GT(topo.firewall->dropped(), dropped_before);
}

/// Rendezvous: initiator only knows the RVS locator; the responder has
/// registered its HIT there.
TEST(HipRendezvous, I1RelayedThroughRvs) {
  net::Network net{11};
  auto* initiator = net.add_node("initiator", 3e9);
  auto* rvs = net.add_node("rvs", 3e9);
  auto* responder = net.add_node("responder", 3e9);
  auto* core = net.add_node("core");
  const auto li = net.connect(initiator, core, {});
  const auto lr = net.connect(rvs, core, {});
  const auto lp = net.connect(responder, core, {});
  initiator->add_address(li.iface_a, Ipv4Addr(10, 1, 0, 1));
  rvs->add_address(lr.iface_a, Ipv4Addr(10, 2, 0, 1));
  responder->add_address(lp.iface_a, Ipv4Addr(10, 3, 0, 1));
  core->add_address(li.iface_b, Ipv4Addr(10, 1, 0, 254));
  core->add_address(lr.iface_b, Ipv4Addr(10, 2, 0, 254));
  core->add_address(lp.iface_b, Ipv4Addr(10, 3, 0, 254));
  initiator->set_default_route(li.iface_a);
  rvs->set_default_route(lr.iface_a);
  responder->set_default_route(lp.iface_a);
  core->add_route(IpAddr(Ipv4Addr(10, 1, 0, 0)), 24, li.iface_b);
  core->add_route(IpAddr(Ipv4Addr(10, 2, 0, 0)), 24, lr.iface_b);
  core->add_route(IpAddr(Ipv4Addr(10, 3, 0, 0)), 24, lp.iface_b);
  core->set_forwarding(true);

  HipDaemon hi(initiator, make_identity("rvs-i"));
  HipDaemon hr(rvs, make_identity("rvs-s"));
  HipDaemon hp(responder, make_identity("rvs-r"));
  hr.enable_rvs_server();

  // Responder registers with the RVS.
  hp.add_peer(hr.hit(), IpAddr(Ipv4Addr(10, 2, 0, 1)));
  hr.add_peer(hp.hit(), IpAddr(Ipv4Addr(10, 3, 0, 1)));
  hp.register_with_rvs(hr.hit());
  net.loop().run();

  // Initiator knows only the RVS locator for the responder's HIT.
  hi.add_peer(hp.hit(), IpAddr(Ipv4Addr(10, 2, 0, 1)));
  hp.add_peer(hi.hit(), IpAddr(Ipv4Addr(10, 1, 0, 1)));
  hi.initiate(hp.hit());
  net.loop().run();
  EXPECT_EQ(hi.state(hp.hit()), AssocState::kEstablished);
  EXPECT_EQ(hp.state(hi.hit()), AssocState::kEstablished);
}

}  // namespace
}  // namespace hipcloud::hip
