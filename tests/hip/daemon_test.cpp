#include "hip/daemon.hpp"

#include <gtest/gtest.h>

#include "net/tcp.hpp"
#include "net/udp.hpp"

namespace hipcloud::hip {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;
using net::LinkConfig;

HostIdentity make_identity(const std::string& name,
                           HiAlgorithm algo = HiAlgorithm::kRsa) {
  crypto::HmacDrbg drbg(crypto::to_bytes("id:" + name));
  return HostIdentity::generate(drbg, algo, 1024);
}

/// Two HIP hosts across a router; each side knows the other's HIT and
/// locator a priori (the "hip hosts file" deployment the paper uses).
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
};

TEST(HipDaemon, BexEstablishesBothSides) {
  HipPair topo;
  sim::Duration latency = 0;
  topo.ha->on_established(
      [&](const net::Ipv6Addr&, sim::Duration l) { latency = l; });
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run();
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  EXPECT_EQ(topo.hb->state(topo.ha->hit()), AssocState::kEstablished);
  EXPECT_GT(latency, 0);
  EXPECT_EQ(topo.ha->stats().bex_completed, 1u);
  EXPECT_EQ(topo.hb->stats().bex_completed, 1u);
  EXPECT_EQ(topo.ha->stats().auth_failures, 0u);
}

TEST(HipDaemon, UdpOverHits) {
  HipPair topo;
  net::UdpStack ua(topo.a), ub(topo.b);
  Bytes received;
  Endpoint from{};
  ub.bind(7777, [&](const Endpoint& src, const IpAddr&, crypto::Buffer data) {
    from = src;
    received.assign(data.begin(), data.end());
  });
  // Sending to the HIT lazily triggers the BEX, then data flows via ESP.
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777},
          crypto::to_bytes("hello over hip"));
  topo.net.loop().run();
  EXPECT_EQ(received, crypto::to_bytes("hello over hip"));
  EXPECT_EQ(from.addr, IpAddr(topo.ha->hit()));  // app sees HITs
  EXPECT_GT(topo.ha->stats().esp_packets_out, 0u);
  EXPECT_GT(topo.hb->stats().esp_packets_in, 0u);
}

TEST(HipDaemon, UdpOverLsis) {
  HipPair topo;
  net::UdpStack ua(topo.a), ub(topo.b);
  const Ipv4Addr peer_lsi = *topo.ha->lsi_for_peer(topo.hb->hit());
  EXPECT_TRUE(peer_lsi.is_lsi());
  Bytes received;
  Endpoint from{};
  ub.bind(7777, [&](const Endpoint& src, const IpAddr&, crypto::Buffer data) {
    from = src;
    received.assign(data.begin(), data.end());
  });
  ua.send(5555, Endpoint{IpAddr(peer_lsi), 7777},
          crypto::to_bytes("ipv4 app over hip"));
  topo.net.loop().run();
  EXPECT_EQ(received, crypto::to_bytes("ipv4 app over hip"));
  // The receiving app sees the sender's LSI (IPv4 world preserved).
  EXPECT_TRUE(from.addr.is_lsi());
}

TEST(HipDaemon, TcpOverHits) {
  HipPair topo;
  net::TcpStack ta(topo.a), tb(topo.b);
  Bytes at_server, at_client;
  tb.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data([&, c = conn.get()](crypto::Buffer data) {
      at_server.insert(at_server.end(), data.begin(), data.end());
      c->send(crypto::to_bytes("response"));
    });
  });
  auto conn = ta.connect(Endpoint{IpAddr(topo.hb->hit()), 80});
  conn->on_connect([&] { conn->send(crypto::to_bytes("request")); });
  conn->on_data([&](crypto::Buffer data) {
    at_client.insert(at_client.end(), data.begin(), data.end());
  });
  topo.net.loop().run();
  EXPECT_EQ(at_server, crypto::to_bytes("request"));
  EXPECT_EQ(at_client, crypto::to_bytes("response"));
  // MSS shrank to fit ESP overhead.
  EXPECT_LT(conn->mss(), 1440u);
}

TEST(HipDaemon, BulkTcpTransferOverHip) {
  HipPair topo;
  net::TcpStack ta(topo.a), tb(topo.b);
  constexpr std::size_t kTotal = 200000;
  std::size_t received = 0;
  tb.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) { received += data.size(); });
  });
  auto conn = ta.connect(Endpoint{IpAddr(topo.hb->hit()), 80});
  conn->on_connect([&] { conn->send(Bytes(kTotal, 0x7e)); });
  topo.net.loop().run(60 * sim::kSecond);
  EXPECT_EQ(received, kTotal);
}

TEST(HipDaemon, EavesdropperSeesOnlyCiphertext) {
  HipPair topo;
  // Tap the router: capture every forwarded packet's payload.
  std::vector<Bytes> captured;
  topo.r->set_forward_hook([&](net::Packet& pkt, std::size_t) {
    captured.emplace_back(pkt.payload.begin(), pkt.payload.end());
    return true;
  });
  net::UdpStack ua(topo.a), ub(topo.b);
  ub.bind(7777, [](const Endpoint&, const IpAddr&, crypto::Buffer) {});
  const Bytes secret = crypto::to_bytes("tenant-secret-0123456789-abcdef");
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, secret);
  topo.net.loop().run();
  ASSERT_FALSE(captured.empty());
  for (const auto& wire : captured) {
    EXPECT_EQ(std::search(wire.begin(), wire.end(), secret.begin(),
                          secret.end()),
              wire.end())
        << "plaintext leaked on the shared network";
  }
}

TEST(HipDaemon, AclDenyBlocksBex) {
  HipPair topo;
  topo.hb->deny(topo.ha->hit());  // hosts.deny on the responder
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run(30 * sim::kSecond);
  EXPECT_NE(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  EXPECT_GT(topo.hb->stats().acl_rejects, 0u);
  EXPECT_EQ(topo.ha->stats().bex_failed, 1u);
}

TEST(HipDaemon, DefaultDenyWithExplicitAllow) {
  HipConfig cfg;
  HipPair topo(cfg, cfg);
  topo.hb->set_default_accept(false);
  topo.hb->allow(topo.ha->hit());
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run();
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
}

TEST(HipDaemon, EcdsaIdentitiesInterop) {
  HipPair topo;  // RSA pair already built; build an ECDSA pair instead
  net::Network net2{43};
  auto* x = net2.add_node("x", 3e9);
  auto* y = net2.add_node("y", 3e9);
  const auto link = net2.connect(x, y, {});
  x->add_address(link.iface_a, Ipv4Addr(10, 0, 0, 1));
  y->add_address(link.iface_b, Ipv4Addr(10, 0, 0, 2));
  x->set_default_route(link.iface_a);
  y->set_default_route(link.iface_b);
  HipDaemon hx(x, make_identity("x", HiAlgorithm::kEcdsa));
  HipDaemon hy(y, make_identity("y", HiAlgorithm::kEcdsa));
  hx.add_peer(hy.hit(), IpAddr(Ipv4Addr(10, 0, 0, 2)));
  hy.add_peer(hx.hit(), IpAddr(Ipv4Addr(10, 0, 0, 1)));
  hx.initiate(hy.hit());
  net2.loop().run();
  EXPECT_EQ(hx.state(hy.hit()), AssocState::kEstablished);
}

TEST(HipDaemon, PuzzleDifficultySlowsBex) {
  HipConfig easy;
  easy.puzzle_difficulty = 0;
  HipConfig hard;
  hard.puzzle_difficulty = 16;

  sim::Duration easy_latency = 0, hard_latency = 0;
  {
    HipPair topo(easy, easy);
    topo.ha->on_established(
        [&](const net::Ipv6Addr&, sim::Duration l) { easy_latency = l; });
    topo.ha->initiate(topo.hb->hit());
    topo.net.loop().run();
  }
  {
    HipPair topo(easy, hard);  // responder sets the difficulty
    topo.ha->on_established(
        [&](const net::Ipv6Addr&, sim::Duration l) { hard_latency = l; });
    topo.ha->initiate(topo.hb->hit());
    topo.net.loop().run();
  }
  EXPECT_GT(easy_latency, 0);
  EXPECT_GT(hard_latency, easy_latency * 2);
}

/// A responder that answers every I1 with a well-formed, correctly signed
/// R1 whose puzzle asks for `k` bits: the hostile (or misconfigured)
/// peer an initiator must not trust with its CPU.
struct HardPuzzleResponder {
  net::Node* node;
  HostIdentity identity = make_identity("hard-responder");
  std::uint8_t k;
  int r1_sent = 0;

  HardPuzzleResponder(const HardPuzzleResponder&) = delete;
  HardPuzzleResponder& operator=(const HardPuzzleResponder&) = delete;
  HardPuzzleResponder(net::Node* n, std::uint8_t difficulty)
      : node(n), k(difficulty) {
    node->register_protocol(net::IpProto::kHip, [this](net::Packet&& pkt) {
      const HipMessage i1 = HipMessage::parse(pkt.payload);
      if (i1.type != MsgType::kI1) return;
      HipMessage r1;
      r1.type = MsgType::kR1;
      r1.sender_hit = identity.hit();
      r1.receiver_hit = i1.sender_hit;
      Bytes puzzle{k};
      crypto::append_be(puzzle, 0x1234, 8);
      r1.set_param(ParamType::kPuzzle, std::move(puzzle));
      r1.set_param(ParamType::kDiffieHellman,
                   Bytes{static_cast<std::uint8_t>(crypto::DhGroup::kModp1536),
                         2});
      r1.set_param(
          ParamType::kHipCipher,
          Bytes{static_cast<std::uint8_t>(EspSuite::kAes128CtrSha256)});
      r1.set_param(ParamType::kHostId, identity.public_encoding());
      r1.set_param(ParamType::kSignature, identity.sign(r1.signed_view()));
      net::Packet reply;
      reply.src = pkt.dst;
      reply.dst = pkt.src;
      reply.proto = net::IpProto::kHip;
      reply.payload = r1.serialize();
      reply.stamp_l3_overhead();
      ++r1_sent;
      node->send(std::move(reply));
    });
  }
};

TEST(HipDaemon, InitiatorDropsR1AboveTheDifficultyBound) {
  // K = 40 would cost the initiator ~2^40 host-side SHA-1s, so a world
  // with such a peer would never finish. Each R1 above the bound is
  // dropped unsolved and counted; the retry path then fails the BEX.
  for (const int k : {kMaxPuzzleDifficulty + 1, 40, 255}) {
    net::Network net{42};
    net::Node* a = net.add_node("host-a", 3e9);
    net::Node* b = net.add_node("host-b", 3e9);
    const auto link = net.connect(a, b, LinkConfig{});
    a->add_address(link.iface_a, Ipv4Addr(10, 0, 1, 1));
    b->add_address(link.iface_b, Ipv4Addr(10, 0, 1, 2));
    a->set_default_route(link.iface_a);
    b->set_default_route(link.iface_b);
    HardPuzzleResponder responder(b, static_cast<std::uint8_t>(k));
    const HipConfig cfg;
    HipDaemon ha(a, make_identity("a"), cfg);
    ha.add_peer(responder.identity.hit(), IpAddr(Ipv4Addr(10, 0, 1, 2)));
    ha.initiate(responder.identity.hit());
    net.loop().run();
    EXPECT_EQ(ha.state(responder.identity.hit()), AssocState::kFailed)
        << "K=" << k;
    EXPECT_EQ(ha.stats().bex_failed, 1u) << "K=" << k;
    EXPECT_EQ(ha.stats().auth_failures, 0u) << "K=" << k;
    // The first I1 and every retry drew an R1; each was refused.
    EXPECT_EQ(responder.r1_sent, cfg.bex_max_retries + 1) << "K=" << k;
    EXPECT_EQ(ha.stats().puzzle_too_hard,
              static_cast<std::uint64_t>(responder.r1_sent))
        << "K=" << k;
  }
}

TEST(HipDaemon, RefusesToConstructAboveTheDifficultyBound) {
  net::Network net{42};
  net::Node* n = net.add_node("host", 3e9);
  HipConfig at_bound;
  at_bound.puzzle_difficulty = kMaxPuzzleDifficulty;
  EXPECT_NO_THROW(HipDaemon(n, make_identity("bound"), at_bound));
  net::Node* m = net.add_node("host-2", 3e9);
  HipConfig above;
  above.puzzle_difficulty = kMaxPuzzleDifficulty + 1;
  EXPECT_THROW(HipDaemon(m, make_identity("above"), above),
               std::invalid_argument);
}

TEST(HipDaemon, ResponderDropsI2NamingAnUnknownEspSuite) {
  // The initiator's I2 is signed, HMAC'd and carries a solved puzzle, but
  // its ESP_INFO names suite 0x7f. An SA pair built with it would carry
  // payloads in clear, so the responder drops every copy of the I2 and
  // counts it, and no association forms on either side.
  HipConfig unknown_suite;
  unknown_suite.esp_suite = static_cast<EspSuite>(0x7f);
  HipPair topo(unknown_suite);
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run();
  EXPECT_NE(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  EXPECT_NE(topo.hb->state(topo.ha->hit()), AssocState::kEstablished);
  EXPECT_EQ(topo.ha->stats().bex_completed, 0u);
  EXPECT_EQ(topo.hb->stats().bex_completed, 0u);
  EXPECT_EQ(topo.ha->stats().bex_failed, 1u);
  EXPECT_EQ(topo.hb->stats().auth_failures, 0u);
  // The first I2 and each of the initiator's retransmissions.
  EXPECT_EQ(topo.hb->stats().esp_suite_rejects,
            static_cast<std::uint64_t>(1 + unknown_suite.bex_max_retries));
}

TEST(HipDaemon, AdaptivePuzzleRaisesDifficultyUnderLoad) {
  HipConfig cfg;
  cfg.puzzle_difficulty = 4;
  cfg.adaptive_puzzle = true;
  cfg.adaptive_threshold_rps = 2.0;
  HipPair topo(cfg, cfg);
  EXPECT_EQ(topo.hb->current_puzzle_difficulty(), 4);
  // Simulate an I1 flood reaching the responder.
  for (int i = 0; i < 64; ++i) {
    HipMessage i1;
    i1.type = MsgType::kI1;
    i1.sender_hit = net::Ipv6Addr::parse("2001:10::bad");
    i1.receiver_hit = topo.hb->hit();
    net::Packet pkt;
    pkt.src = Ipv4Addr(10, 0, 1, 1);
    pkt.dst = Ipv4Addr(10, 0, 2, 1);
    pkt.proto = net::IpProto::kHip;
    pkt.payload = i1.serialize();
    pkt.stamp_l3_overhead();
    topo.b->deliver(std::move(pkt), 0);
  }
  topo.net.loop().run(sim::kSecond / 2);
  EXPECT_GT(topo.hb->current_puzzle_difficulty(), 4);
}

TEST(HipDaemon, MobilityLocatorUpdate) {
  HipPair topo;
  net::UdpStack ua(topo.a), ub(topo.b);
  int received = 0;
  ub.bind(7777, [&](const Endpoint&, const IpAddr&, crypto::Buffer) {
    ++received;
  });
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 1));
  topo.net.loop().run();
  ASSERT_EQ(received, 1);

  // Host A moves: new address on the same interface (e.g. VM migrated to
  // a host in another subnet that is also reachable via the router).
  topo.a->add_address(0, Ipv4Addr(10, 0, 1, 99));
  topo.r->add_route(IpAddr(Ipv4Addr(10, 0, 1, 99)), 32, 0);
  topo.ha->move_to(IpAddr(Ipv4Addr(10, 0, 1, 99)));
  topo.net.loop().run();
  EXPECT_GT(topo.hb->stats().updates_processed, 0u);
  EXPECT_GT(topo.ha->stats().updates_processed, 0u);  // echo confirmed

  // Traffic continues after the move.
  ua.send(5555, Endpoint{IpAddr(topo.hb->hit()), 7777}, Bytes(10, 2));
  topo.net.loop().run();
  EXPECT_EQ(received, 2);
}

TEST(HipDaemon, CloseTearsDownAssociation) {
  HipPair topo;
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run();
  ASSERT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  topo.ha->close_association(topo.hb->hit());
  topo.net.loop().run();
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kUnassociated);
  EXPECT_EQ(topo.hb->state(topo.ha->hit()), AssocState::kUnassociated);
}

TEST(HipDaemon, BexFailsWithoutLocator) {
  HipPair topo;
  crypto::HmacDrbg drbg(9, "stranger");
  const auto stranger = HostIdentity::generate(drbg, HiAlgorithm::kRsa, 1024);
  topo.ha->initiate(stranger.hit());
  topo.net.loop().run(10 * sim::kSecond);
  EXPECT_NE(topo.ha->state(stranger.hit()), AssocState::kEstablished);
}

TEST(HipDaemon, BexRetriesOnLoss) {
  LinkConfig lossy;
  lossy.loss_rate = 0.3;
  HipPair topo({}, {}, lossy);
  topo.ha->initiate(topo.hb->hit());
  topo.net.loop().run(60 * sim::kSecond);
  // With retries, the BEX should still complete w.h.p. at 30% loss.
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
}

TEST(HipDaemon, SimultaneousInitiationConverges) {
  HipPair topo;
  topo.ha->initiate(topo.hb->hit());
  topo.hb->initiate(topo.ha->hit());
  topo.net.loop().run(30 * sim::kSecond);
  EXPECT_EQ(topo.ha->state(topo.hb->hit()), AssocState::kEstablished);
  EXPECT_EQ(topo.hb->state(topo.ha->hit()), AssocState::kEstablished);
  // And data flows.
  net::UdpStack ua(topo.a), ub(topo.b);
  int got = 0;
  ub.bind(7, [&](const Endpoint&, const IpAddr&, crypto::Buffer) { ++got; });
  ua.send(9, Endpoint{IpAddr(topo.hb->hit()), 7}, Bytes(4, 0));
  topo.net.loop().run();
  EXPECT_EQ(got, 1);
}

TEST(HipDaemon, LsiMappingsAreStable) {
  HipPair topo;
  const auto lsi1 = topo.ha->lsi_for_peer(topo.hb->hit());
  ASSERT_TRUE(lsi1.has_value());
  EXPECT_EQ(topo.ha->add_peer(topo.hb->hit(), IpAddr(Ipv4Addr(10, 0, 2, 1))),
            *lsi1);
  EXPECT_EQ(topo.ha->peer_for_lsi(*lsi1),
            std::optional<net::Ipv6Addr>(topo.hb->hit()));
  EXPECT_EQ(topo.ha->peer_for_lsi(Ipv4Addr(1, 0, 0, 250)), std::nullopt);
}

}  // namespace
}  // namespace hipcloud::hip
