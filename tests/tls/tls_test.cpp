#include "tls/tls.hpp"

#include <gtest/gtest.h>

#include "net/link.hpp"

namespace hipcloud::tls {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

struct TlsTopo {
  net::Network net{21};
  net::Node* client_node;
  net::Node* server_node;
  net::TcpStack* tc;
  net::TcpStack* ts;
  std::unique_ptr<net::TcpStack> tc_owned, ts_owned;
  crypto::HmacDrbg ca_drbg{1, "ca"};
  CertificateAuthority ca{"hipcloud-ca", ca_drbg};
  crypto::RsaKeyPair server_key;
  TlsConfig server_cfg, client_cfg;

  explicit TlsTopo(net::TcpConfig tcp = {}) {
    client_node = net.add_node("client", 3e9);
    server_node = net.add_node("server", 3e9);
    const auto link = net.connect(client_node, server_node, {});
    client_node->add_address(link.iface_a, Ipv4Addr(10, 0, 0, 1));
    server_node->add_address(link.iface_b, Ipv4Addr(10, 0, 0, 2));
    client_node->set_default_route(link.iface_a);
    server_node->set_default_route(link.iface_b);
    tc_owned = std::make_unique<net::TcpStack>(client_node, tcp);
    ts_owned = std::make_unique<net::TcpStack>(server_node, tcp);
    tc = tc_owned.get();
    ts = ts_owned.get();

    crypto::HmacDrbg kd(2, "server-key");
    server_key = crypto::rsa_generate(kd, 1024);
    server_cfg.certificate = ca.issue("server", server_key.pub);
    server_cfg.private_key = server_key.priv;
    client_cfg.ca_public_key = ca.public_key();
  }

  /// Wire up a TLS server that echoes through `on_req`.
  void serve(std::function<Bytes(const Bytes&)> on_req,
             std::vector<std::shared_ptr<TlsSession>>& keep) {
    ts->listen(443, [this, on_req, &keep](auto conn) {
      auto session =
          TlsSession::server(conn, server_node, server_cfg, /*seed=*/99);
      session->on_data([session_weak = std::weak_ptr<TlsSession>(session),
                        on_req](crypto::Buffer data) {
        if (auto s = session_weak.lock()) {
          s->send(on_req(Bytes(data.begin(), data.end())));
        }
      });
      keep.push_back(std::move(session));
    });
  }
};

TEST(Tls, HandshakeCompletes) {
  TlsTopo topo;
  std::vector<std::shared_ptr<TlsSession>> keep;
  topo.serve([](const Bytes&) { return Bytes{}; }, keep);
  auto conn = topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
  auto session =
      TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
  bool established = false;
  session->on_established([&] { established = true; });
  topo.net.loop().run();
  EXPECT_TRUE(established);
  EXPECT_GT(session->handshake_latency(), 0);
}

TEST(Tls, EchoRoundTrip) {
  TlsTopo topo;
  std::vector<std::shared_ptr<TlsSession>> keep;
  topo.serve(
      [](const Bytes& req) {
        Bytes out = crypto::to_bytes("echo:");
        out.insert(out.end(), req.begin(), req.end());
        return out;
      },
      keep);
  auto conn = topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
  auto session =
      TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
  Bytes reply;
  session->on_data(
      [&](crypto::Buffer data) { reply.assign(data.begin(), data.end()); });
  session->send(crypto::to_bytes("hello"));  // queued until handshake done
  topo.net.loop().run();
  EXPECT_EQ(reply, crypto::to_bytes("echo:hello"));
}

TEST(Tls, PlaintextNeverOnWire) {
  TlsTopo topo;
  // Tap every TCP segment on the wire via a middle node... simpler: a
  // direct link, so capture at the server's TCP layer is not possible.
  // Instead capture link traffic with a forward hook on a router topo.
  net::Network net{5};
  auto* c = net.add_node("c", 3e9);
  auto* r = net.add_node("r");
  auto* s = net.add_node("s", 3e9);
  const auto l1 = net.connect(c, r, {});
  const auto l2 = net.connect(r, s, {});
  c->add_address(l1.iface_a, Ipv4Addr(10, 0, 1, 1));
  r->add_address(l1.iface_b, Ipv4Addr(10, 0, 1, 254));
  r->add_address(l2.iface_a, Ipv4Addr(10, 0, 2, 254));
  s->add_address(l2.iface_b, Ipv4Addr(10, 0, 2, 1));
  c->set_default_route(l1.iface_a);
  s->set_default_route(l2.iface_b);
  r->add_route(IpAddr(Ipv4Addr(10, 0, 1, 0)), 24, l1.iface_b);
  r->add_route(IpAddr(Ipv4Addr(10, 0, 2, 0)), 24, l2.iface_a);
  r->set_forwarding(true);
  std::vector<Bytes> captured;
  r->set_forward_hook([&](net::Packet& pkt, std::size_t) {
    captured.emplace_back(pkt.payload.begin(), pkt.payload.end());
    return true;
  });
  net::TcpStack tc(c), ts(s);
  std::vector<std::shared_ptr<TlsSession>> keep;
  ts.listen(443, [&](auto conn) {
    auto session = TlsSession::server(conn, s, topo.server_cfg, 1);
    keep.push_back(std::move(session));
  });
  auto conn = tc.connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 2, 1)), 443});
  auto session = TlsSession::client(conn, c, topo.client_cfg, 2);
  const Bytes secret = crypto::to_bytes("credit-card-4111111111111111");
  session->send(secret);
  net.loop().run();
  ASSERT_FALSE(captured.empty());
  for (const auto& wire : captured) {
    EXPECT_EQ(std::search(wire.begin(), wire.end(), secret.begin(),
                          secret.end()),
              wire.end());
  }
}

TEST(Tls, TamperedRecordMacRejectedOnWire) {
  // Flip the last byte of the first application record on the wire — the
  // final byte of its HMAC trailer, the one a short-circuiting compare
  // would weigh least. The server's ct_equal check must reject the record
  // and tear the session down without ever delivering the payload.
  TlsTopo topo;
  net::Network net{31};
  auto* c = net.add_node("c", 3e9);
  auto* r = net.add_node("r");
  auto* s = net.add_node("s", 3e9);
  const auto l1 = net.connect(c, r, {});
  const auto l2 = net.connect(r, s, {});
  c->add_address(l1.iface_a, Ipv4Addr(10, 0, 1, 1));
  r->add_address(l1.iface_b, Ipv4Addr(10, 0, 1, 254));
  r->add_address(l2.iface_a, Ipv4Addr(10, 0, 2, 254));
  s->add_address(l2.iface_b, Ipv4Addr(10, 0, 2, 1));
  c->set_default_route(l1.iface_a);
  s->set_default_route(l2.iface_b);
  r->add_route(IpAddr(Ipv4Addr(10, 0, 1, 0)), 24, l1.iface_b);
  r->add_route(IpAddr(Ipv4Addr(10, 0, 2, 0)), 24, l2.iface_a);
  r->set_forwarding(true);

  bool client_established = false;
  bool corrupted = false;
  r->set_forward_hook([&](net::Packet& pkt, std::size_t) {
    if (client_established && !corrupted &&
        pkt.dst == IpAddr(Ipv4Addr(10, 0, 2, 1)) &&
        pkt.payload.size() > net::TcpHeader::kSize) {
      pkt.payload[pkt.payload.size() - 1] ^= 0x01;
      corrupted = true;
    }
    return true;
  });

  net::TcpStack tc(c), ts(s);
  Bytes server_got;
  bool server_closed = false;
  std::vector<std::shared_ptr<TlsSession>> keep;
  ts.listen(443, [&](auto conn) {
    auto session = TlsSession::server(conn, s, topo.server_cfg, 1);
    session->on_data([&](crypto::Buffer data) {
      server_got.assign(data.begin(), data.end());
    });
    session->on_close([&] { server_closed = true; });
    keep.push_back(std::move(session));
  });
  auto conn = tc.connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 2, 1)), 443});
  auto session = TlsSession::client(conn, c, topo.client_cfg, 2);
  session->on_established([&] { client_established = true; });
  session->send(crypto::to_bytes("tamper-me"));
  net.loop().run();

  EXPECT_TRUE(client_established);
  EXPECT_TRUE(corrupted);
  EXPECT_TRUE(server_got.empty()) << "tampered record was delivered";
  EXPECT_TRUE(server_closed);
}

TEST(Tls, ClientRejectsUntrustedCertificate) {
  TlsTopo topo;
  // Client trusts a different CA.
  crypto::HmacDrbg other_drbg(9, "other-ca");
  CertificateAuthority other_ca("evil-ca", other_drbg);
  topo.client_cfg.ca_public_key = other_ca.public_key();
  std::vector<std::shared_ptr<TlsSession>> keep;
  topo.serve([](const Bytes&) { return Bytes{}; }, keep);
  auto conn = topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
  auto session =
      TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
  bool established = false, closed = false;
  session->on_established([&] { established = true; });
  session->on_close([&] { closed = true; });
  topo.net.loop().run();
  EXPECT_FALSE(established);
  EXPECT_TRUE(closed);
}

TEST(Tls, ServerWithoutCertFailsGracefully) {
  TlsTopo topo;
  topo.server_cfg.certificate.reset();
  std::vector<std::shared_ptr<TlsSession>> keep;
  topo.serve([](const Bytes&) { return Bytes{}; }, keep);
  auto conn = topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
  auto session =
      TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
  bool established = false;
  session->on_established([&] { established = true; });
  topo.net.loop().run();
  EXPECT_FALSE(established);
}

TEST(Tls, LargeTransfer) {
  TlsTopo topo;
  std::vector<std::shared_ptr<TlsSession>> keep;
  std::size_t server_received = 0;
  topo.ts->listen(443, [&](auto conn) {
    auto session =
        TlsSession::server(conn, topo.server_node, topo.server_cfg, 3);
    session->on_data([&](crypto::Buffer data) {
      server_received += data.size();
    });
    keep.push_back(std::move(session));
  });
  auto conn = topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
  auto session =
      TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
  constexpr std::size_t kChunk = 16000;
  constexpr int kChunks = 10;
  session->on_established([&] {
    for (int i = 0; i < kChunks; ++i) session->send(Bytes(kChunk, 0x5a));
  });
  topo.net.loop().run();
  EXPECT_EQ(server_received, kChunk * kChunks);
}

TEST(Tls, CloseAlertPropagates) {
  TlsTopo topo;
  std::vector<std::shared_ptr<TlsSession>> keep;
  bool server_closed = false;
  topo.ts->listen(443, [&](auto conn) {
    auto session =
        TlsSession::server(conn, topo.server_node, topo.server_cfg, 3);
    session->on_close([&] { server_closed = true; });
    keep.push_back(std::move(session));
  });
  auto conn = topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
  auto session =
      TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
  session->on_established([&] { session->close(); });
  topo.net.loop().run();
  EXPECT_TRUE(server_closed);
}

TEST(Tls, HandshakeChargesCpuTime) {
  // The handshake on a slow CPU must take longer than on a fast one.
  auto run_with_cpu = [](double cps) {
    TlsTopo topo;
    topo.client_node->cpu().set_cycles_per_second(cps);
    topo.server_node->cpu().set_cycles_per_second(cps);
    std::vector<std::shared_ptr<TlsSession>> keep;
    topo.serve([](const Bytes&) { return Bytes{}; }, keep);
    auto conn =
        topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
    auto session =
        TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
    sim::Duration latency = 0;
    session->on_established([&] { latency = session->handshake_latency(); });
    topo.net.loop().run();
    return latency;
  };
  const auto fast = run_with_cpu(10e9);
  const auto slow = run_with_cpu(0.5e9);
  EXPECT_GT(fast, 0);
  EXPECT_GT(slow, fast);
}

TEST(CertificateAuthority, IssueAndVerify) {
  crypto::HmacDrbg drbg(1, "ca");
  CertificateAuthority ca("root", drbg);
  crypto::HmacDrbg kd(2, "leaf");
  const auto leaf = crypto::rsa_generate(kd, 1024);
  const Certificate cert = ca.issue("www.example", leaf.pub);
  EXPECT_TRUE(CertificateAuthority::verify(ca.public_key(), cert));
  EXPECT_EQ(cert.subject, "www.example");
  EXPECT_EQ(cert.issuer, "root");
}

TEST(CertificateAuthority, TamperedCertFailsVerification) {
  crypto::HmacDrbg drbg(1, "ca");
  CertificateAuthority ca("root", drbg);
  crypto::HmacDrbg kd(2, "leaf");
  const auto leaf = crypto::rsa_generate(kd, 1024);
  Certificate cert = ca.issue("www.example", leaf.pub);
  cert.subject = "www.evil";
  EXPECT_FALSE(CertificateAuthority::verify(ca.public_key(), cert));
}

TEST(Certificate, EncodeDecodeRoundTrip) {
  crypto::HmacDrbg drbg(1, "ca");
  CertificateAuthority ca("root", drbg);
  crypto::HmacDrbg kd(2, "leaf");
  const auto leaf = crypto::rsa_generate(kd, 1024);
  const Certificate cert = ca.issue("svc", leaf.pub);
  const Certificate back = Certificate::decode(cert.encode());
  EXPECT_EQ(back.subject, cert.subject);
  EXPECT_EQ(back.issuer, cert.issuer);
  EXPECT_EQ(back.public_key, cert.public_key);
  EXPECT_EQ(back.signature, cert.signature);
  EXPECT_THROW(Certificate::decode(crypto::Bytes{0xff}), std::runtime_error);
}

// Regression: a 4-byte record header claiming a multi-megabyte body used
// to make the receiver buffer connection bytes forever waiting for a
// payload that never arrives. The record layer now caps the claimed
// length (kMaxRecordLen) and fails the session immediately.
TEST(Tls, OversizedRecordHeaderRejected) {
  TlsTopo topo;
  std::vector<std::shared_ptr<TlsSession>> keep;
  bool server_closed = false;
  topo.ts->listen(443, [&](auto conn) {
    auto session =
        TlsSession::server(conn, topo.server_node, topo.server_cfg, 99);
    session->on_close([&] { server_closed = true; });
    keep.push_back(std::move(session));
  });
  // Raw TCP client, no TLS: handshake record type with a 2 MiB length.
  auto conn = topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
  conn->on_connect([&] { conn->send(Bytes{0x16, 0x20, 0x00, 0x00}); });
  topo.net.loop().run();
  EXPECT_TRUE(server_closed);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_FALSE(keep[0]->established());
}

// The record framer must not care how TCP cut the stream: with one byte
// per segment, 7-byte segments and full segments, every record comes out
// whole, one application message per record, with the same bytes.
TEST(Tls, RecordFramingIsIndependentOfSegmentation) {
  const std::vector<std::size_t> sizes = {1, 100, 5000, 1, 20000};
  for (const std::size_t mss : {std::size_t{1}, std::size_t{7},
                                std::size_t{1460}}) {
    net::TcpConfig tcp;
    tcp.mss_clamp = mss;
    TlsTopo topo(tcp);
    std::vector<std::shared_ptr<TlsSession>> keep;
    topo.serve([](const Bytes& req) { return req; }, keep);
    auto conn =
        topo.tc->connect(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 443});
    auto session =
        TlsSession::client(conn, topo.client_node, topo.client_cfg, 7);
    std::vector<std::size_t> got_sizes;
    Bytes got;
    session->on_data([&](crypto::Buffer data) {
      got_sizes.push_back(data.size());
      got.insert(got.end(), data.begin(), data.end());
    });
    Bytes sent;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      Bytes msg(sizes[i]);
      for (std::size_t k = 0; k < msg.size(); ++k) {
        msg[k] = static_cast<std::uint8_t>(k * 31 + i);
      }
      sent.insert(sent.end(), msg.begin(), msg.end());
      session->send(msg);
    }
    topo.net.loop().run();
    EXPECT_EQ(got_sizes, sizes) << "mss=" << mss;
    EXPECT_EQ(got, sent) << "mss=" << mss;
  }
}

}  // namespace
}  // namespace hipcloud::tls
