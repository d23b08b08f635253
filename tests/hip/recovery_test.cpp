// Failure-recovery behaviour: ESP sequence exhaustion (RFC 4303 no-wrap),
// proactive/forced SA rekey, dead-peer detection, and automatic
// readdressing when the host's locator set changes under it (the
// migration case of the paper, without the orchestrator calling
// move_to() by hand).
#include <gtest/gtest.h>

#include "hip/daemon.hpp"
#include "net/udp.hpp"

namespace hipcloud::hip {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;
using net::LinkConfig;

HostIdentity make_identity(const std::string& name) {
  crypto::HmacDrbg drbg(crypto::to_bytes("id:" + name));
  return HostIdentity::generate(drbg, HiAlgorithm::kRsa, 1024);
}

/// Same two-hosts-across-a-router fixture as daemon_test.cpp.
struct HipPair {
  net::Network net{42};
  net::Node* a;
  net::Node* r;
  net::Node* b;
  std::unique_ptr<HipDaemon> ha;
  std::unique_ptr<HipDaemon> hb;

  explicit HipPair(HipConfig cfg_a = {}, HipConfig cfg_b = {},
                   LinkConfig link = {}) {
    a = net.add_node("host-a", 3e9);
    r = net.add_node("router");
    b = net.add_node("host-b", 3e9);
    const auto la = net.connect(a, r, link);
    const auto lb = net.connect(r, b, link);
    a->add_address(la.iface_a, Ipv4Addr(10, 0, 1, 1));
    r->add_address(la.iface_b, Ipv4Addr(10, 0, 1, 254));
    r->add_address(lb.iface_a, Ipv4Addr(10, 0, 2, 254));
    b->add_address(lb.iface_b, Ipv4Addr(10, 0, 2, 1));
    a->set_default_route(la.iface_a);
    b->set_default_route(lb.iface_b);
    r->add_route(IpAddr(Ipv4Addr(10, 0, 1, 0)), 24, la.iface_b);
    r->add_route(IpAddr(Ipv4Addr(10, 0, 2, 0)), 24, lb.iface_a);
    r->set_forwarding(true);

    ha = std::make_unique<HipDaemon>(a, make_identity("a"), cfg_a);
    hb = std::make_unique<HipDaemon>(b, make_identity("b"), cfg_b);
    ha->add_peer(hb->hit(), IpAddr(Ipv4Addr(10, 0, 2, 1)));
    hb->add_peer(ha->hit(), IpAddr(Ipv4Addr(10, 0, 1, 1)));
  }

  void establish() {
    ha->initiate(hb->hit());
    net.loop().run(net.loop().now() + sim::kSecond);
    ASSERT_EQ(ha->state(hb->hit()), AssocState::kEstablished);
    ASSERT_EQ(hb->state(ha->hit()), AssocState::kEstablished);
  }
};

// --- satellite (a): the SA must refuse to wrap, not blackhole ------------

TEST(EspSeqExhaustion, ProtectReportsExhaustionInsteadOfWrapping) {
  EspSa tx(0x1000, EspSuite::kAes128CtrSha256, Bytes(32, 0x11),
           Bytes(32, 0x22));
  EspSa rx(0x1000, EspSuite::kAes128CtrSha256, Bytes(32, 0x11),
           Bytes(32, 0x22));
  const Bytes payload = crypto::to_bytes("last packets before rollover");

  tx.seek_seq(0xFFFFFFFE);
  EXPECT_EQ(tx.remaining_seq(), 2u);

  // The final two sequence numbers still work end to end.
  auto out1 = rx.unprotect(tx.protect(6, EspSa::kModeHit, payload));
  ASSERT_TRUE(out1.has_value());
  EXPECT_EQ(out1->seq, 0xFFFFFFFEu);
  auto out2 = rx.unprotect(tx.protect(6, EspSa::kModeHit, payload));
  ASSERT_TRUE(out2.has_value());
  EXPECT_EQ(out2->seq, 0xFFFFFFFFu);
  EXPECT_EQ(tx.remaining_seq(), 0u);
  EXPECT_FALSE(tx.exhausted());  // spent, but not yet asked again

  // Regression: the pre-fix code wrapped to seq 0 here and kept emitting
  // packets the peer's anti-replay window rejects forever. Now the SA
  // reports exhaustion and emits nothing.
  const Bytes wire = tx.protect(6, EspSa::kModeHit, payload);
  EXPECT_TRUE(wire.empty());
  EXPECT_TRUE(tx.exhausted());
  // ...and stays exhausted on further attempts.
  EXPECT_TRUE(tx.protect(6, EspSa::kModeHit, payload).empty());
}

// --- tentpole: proactive rekey before exhaustion --------------------------

TEST(HipRecovery, ProactiveRekeyRollsSasBeforeExhaustion) {
  HipPair topo;
  net::UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7777, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  topo.establish();

  // Pretend the outbound SA has nearly spent its 32-bit space: the next
  // data packet must trip the proactive-rekey threshold.
  ASSERT_TRUE(topo.ha->seek_esp_seq(topo.hb->hit(), 0xFFFFFF00u));
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 1));
  topo.net.loop().run(topo.net.loop().now() + 5 * sim::kSecond);

  EXPECT_EQ(received, 1);  // the triggering packet itself is not lost
  EXPECT_EQ(topo.ha->stats().rekeys_initiated, 1u);
  EXPECT_EQ(topo.ha->stats().rekeys_completed, 1u);
  EXPECT_EQ(topo.ha->stats().sa_exhausted_drops, 0u);

  // Both directions keep flowing on the fresh SAs.
  int back = 0;
  ua.bind(8888, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++back;
  });
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 2));
  ub.send(6666, Endpoint{IpAddr(topo.ha->hit()), 8888}, Bytes(10, 3));
  topo.net.loop().run(topo.net.loop().now() + 5 * sim::kSecond);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(back, 1);
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
}

TEST(HipRecovery, ExhaustionForcesRekeyEvenWhenProactiveDisabled) {
  HipConfig cfg;
  cfg.esp_rekey_threshold = 0;  // no proactive rollover
  HipPair topo(cfg, cfg);
  net::UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7777, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  topo.establish();

  // Spend the final sequence number, then hit the exhausted SA.
  ASSERT_TRUE(topo.ha->seek_esp_seq(topo.hb->hit(), 0xFFFFFFFFu));
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 1));
  topo.net.loop().run(topo.net.loop().now() + sim::kSecond);
  EXPECT_EQ(received, 1);

  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 2));
  topo.net.loop().run(topo.net.loop().now() + 5 * sim::kSecond);
  // That packet was dropped (SA spent, rekey kicked off)...
  EXPECT_EQ(topo.ha->stats().sa_exhausted_drops, 1u);
  EXPECT_EQ(topo.ha->stats().rekeys_completed, 1u);
  // ...but the association healed itself without manual intervention.
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 3));
  topo.net.loop().run(topo.net.loop().now() + sim::kSecond);
  EXPECT_EQ(received, 2);
}

// --- tentpole: dead-peer detection + lazy re-establishment ----------------

TEST(HipRecovery, KeepaliveDeclaresDeadPeerAndReBexRecovers) {
  HipConfig cfg_a;
  cfg_a.keepalive_interval = sim::kSecond;
  cfg_a.keepalive_max_misses = 2;
  HipPair topo(cfg_a, HipConfig{});
  net::UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7777, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  topo.establish();

  // Peer crashes: every probe goes unanswered.
  topo.b->set_down(true);
  topo.net.loop().run(topo.net.loop().now() + 20 * sim::kSecond);
  EXPECT_GT(topo.ha->stats().keepalives_sent, 0u);
  EXPECT_EQ(topo.ha->stats().peer_failures, 1u);
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kUnassociated);

  // Peer restarts; the next data packet lazily re-runs the BEX and the
  // responder replaces its stale SAs (re-BEX detection in handle_i2).
  topo.b->set_down(false);
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 1));
  topo.net.loop().run(topo.net.loop().now() + 5 * sim::kSecond);
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(topo.ha->stats().bex_completed, 2u);
}

// --- tentpole: locator-change detection drives the UPDATE exchange -------

TEST(HipRecovery, AddressChangeTriggersReaddressingWithoutManualMoveTo) {
  HipPair topo;
  net::UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7777, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 1));
  topo.net.loop().run();
  ASSERT_EQ(received, 1);

  std::optional<IpAddr> announced;
  topo.ha->on_locator_change([&](const IpAddr& l) { announced = l; });

  // The VM is readdressed (as after a migration): a new locator appears
  // on the interface. Nobody calls move_to() — the daemon notices.
  topo.r->add_route(IpAddr(Ipv4Addr(10, 0, 9, 7)), 32, 0);
  topo.a->add_address(0, Ipv4Addr(10, 0, 9, 7));
  topo.net.loop().run();

  ASSERT_TRUE(announced.has_value());
  EXPECT_EQ(*announced, IpAddr(Ipv4Addr(10, 0, 9, 7)));
  EXPECT_GT(topo.hb->stats().updates_processed, 0u);

  // The old address disappears entirely; the peer must already be
  // talking to the new locator or this packet dies.
  topo.a->remove_address(0, IpAddr(Ipv4Addr(10, 0, 1, 1)));
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 2));
  topo.net.loop().run();
  EXPECT_EQ(received, 2);
}

// --- satellite (b): full pending queue accounts drops ---------------------

TEST(HipRecovery, PendingOverflowIsCountedNotSilent) {
  HipConfig cfg;
  cfg.bex_max_retries = 0;
  HipPair topo(cfg, HipConfig{});
  // Point A at a locator nobody answers so the BEX hangs and traffic
  // piles up in the pre-BEX pending queue.
  topo.ha->add_peer(topo.hb->hit(), IpAddr(Ipv4Addr(10, 0, 2, 77)));
  net::UdpStack ua(topo.a);
  const std::size_t kFlood = 100;  // far above any sane pending cap
  for (std::size_t i = 0; i < kFlood; ++i) {
    ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 1));
  }
  topo.net.loop().run(topo.net.loop().now() + 10 * sim::kSecond);
  const auto& st = topo.ha->stats();
  EXPECT_GT(st.pending_dropped, 0u);
  // Queue-at-failure packets are charged to pending_failed when the BEX
  // gives up.
  EXPECT_GT(st.pending_failed, 0u);
  EXPECT_EQ(st.pending_dropped + st.pending_failed, kFlood);
}

}  // namespace
}  // namespace hipcloud::hip
