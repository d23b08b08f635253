#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include "test_topology.hpp"

namespace hipcloud::net {
namespace {

using crypto::Bytes;
using testing::TwoHosts;

constexpr std::uint16_t kPort = 8080;
const IpAddr kAddrB = Ipv4Addr(10, 0, 0, 2);

TEST(TcpHeader, SerializeParseRoundTrip) {
  TcpHeader h;
  h.src_port = 1111;
  h.dst_port = 80;
  h.seq = 0xdeadbeef;
  h.ack = 0xcafebabe;
  h.syn = true;
  h.ack_flag = true;
  h.window = 87380;
  const Bytes wire = h.serialize(crypto::to_bytes("payload"));
  EXPECT_EQ(wire.size(), TcpHeader::kSize + 7);
  Bytes data;
  const TcpHeader back = TcpHeader::parse(wire, data);
  EXPECT_EQ(back.src_port, 1111);
  EXPECT_EQ(back.dst_port, 80);
  EXPECT_EQ(back.seq, 0xdeadbeef);
  EXPECT_EQ(back.ack, 0xcafebabe);
  EXPECT_TRUE(back.syn);
  EXPECT_TRUE(back.ack_flag);
  EXPECT_FALSE(back.fin);
  EXPECT_FALSE(back.rst);
  EXPECT_EQ(back.window, 87380u);
  EXPECT_EQ(data, crypto::to_bytes("payload"));
}

TEST(TcpHeader, ParseRejectsTruncated) {
  Bytes data;
  EXPECT_THROW(TcpHeader::parse(Bytes(19, 0), data), std::runtime_error);
}

TEST(Tcp, ConnectHandshake) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  bool accepted = false, connected = false;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    accepted = true;
    // hipcheck:allow(self-capture): TcpStack::drop_handlers breaks the cycle at teardown
    conn->on_connect([&, conn] { EXPECT_TRUE(conn->established()); });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] { connected = true; });
  topo.net.loop().run();
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(connected);
  EXPECT_TRUE(client->established());
}

TEST(Tcp, ConnectToClosedPortTimesOutSilently) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  bool connected = false;
  auto client = sa.connect(Endpoint{kAddrB, 9999});
  client->on_connect([&] { connected = true; });
  topo.net.loop().run(10 * sim::kSecond);
  EXPECT_FALSE(connected);
  EXPECT_FALSE(client->established());
}

TEST(Tcp, SmallDataBothDirections) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  Bytes at_server, at_client;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&, c = conn.get()](crypto::Buffer data) {
      at_server.insert(at_server.end(), data.begin(), data.end());
      c->send(crypto::to_bytes("pong"));
    });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] { client->send(crypto::to_bytes("ping")); });
  client->on_data([&](crypto::Buffer data) {
    at_client.insert(at_client.end(), data.begin(), data.end());
  });
  topo.net.loop().run();
  EXPECT_EQ(at_server, crypto::to_bytes("ping"));
  EXPECT_EQ(at_client, crypto::to_bytes("pong"));
}

TEST(Tcp, LargeTransferIsComplete) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  constexpr std::size_t kTotal = 500000;
  std::size_t received = 0;
  std::uint8_t expected = 0;
  bool corrupt = false;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) {
      for (std::uint8_t b : data) {
        if (b != expected++) corrupt = true;
      }
      received += data.size();
    });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] {
    Bytes data(kTotal);
    std::uint8_t v = 0;
    for (auto& b : data) b = v++;
    client->send(std::move(data));
  });
  topo.net.loop().run();
  EXPECT_EQ(received, kTotal);
  EXPECT_FALSE(corrupt);
}

TEST(Tcp, TransferSurvivesLoss) {
  LinkConfig link;
  link.loss_rate = 0.02;
  TwoHosts topo(link, /*seed=*/11);
  TcpStack sa(topo.a), sb(topo.b);
  constexpr std::size_t kTotal = 100000;
  std::size_t received = 0;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) { received += data.size(); });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] { client->send(Bytes(kTotal, 0x5a)); });
  topo.net.loop().run(120 * sim::kSecond);
  EXPECT_EQ(received, kTotal);
  EXPECT_GT(client->retransmissions(), 0u);
}

TEST(Tcp, ThroughputIsWindowLimited) {
  // With a 16 KB window and 10 ms RTT, throughput must sit near
  // win/RTT = 1.6 MB/s despite a 1 Gbit/s link.
  LinkConfig link;
  link.latency = sim::from_millis(5);  // 10 ms RTT
  link.bandwidth_bps = 1e9;
  TwoHosts topo(link);
  TcpConfig cfg;
  cfg.receive_window = 16384;
  TcpStack sa(topo.a, cfg), sb(topo.b, cfg);
  std::size_t received = 0;
  sim::Time last_arrival = 0;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) {
      received += data.size();
      last_arrival = topo.net.loop().now();
    });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  constexpr std::size_t kTotal = 4 * 1024 * 1024;
  client->on_connect([&] { client->send(Bytes(kTotal, 1)); });
  topo.net.loop().run(60 * sim::kSecond);
  ASSERT_EQ(received, kTotal);
  // Completion time should be near kTotal / (win/RTT) = 2.56 s.
  const double rate =
      static_cast<double>(kTotal) / sim::to_seconds(last_arrival);
  EXPECT_GT(rate, 1.2e6);
  EXPECT_LT(rate, 2.2e6);
}

TEST(Tcp, ThroughputIsBandwidthLimitedOnFatWindow) {
  LinkConfig link;
  link.latency = sim::from_micros(100);
  link.bandwidth_bps = 80e6;  // 10 MB/s
  TwoHosts topo(link);
  TcpStack sa(topo.a), sb(topo.b);
  std::size_t received = 0;
  sim::Time last_arrival = 0;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) {
      received += data.size();
      last_arrival = topo.net.loop().now();
    });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  constexpr std::size_t kTotal = 2 * 1024 * 1024;
  client->on_connect([&] { client->send(Bytes(kTotal, 1)); });
  topo.net.loop().run(60 * sim::kSecond);
  ASSERT_EQ(received, kTotal);
  const double rate = static_cast<double>(kTotal) / sim::to_seconds(last_arrival);
  EXPECT_GT(rate, 7e6);    // within ~30% of the 10 MB/s wire limit
  EXPECT_LT(rate, 10.5e6);
}

TEST(Tcp, CleanCloseBothSides) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  bool server_closed = false, client_closed = false;
  std::shared_ptr<TcpConnection> server_conn;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    server_conn = conn;
    conn->on_data([&, c = conn.get()](crypto::Buffer) { c->close(); });
    conn->on_close([&] { server_closed = true; });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] { client->send(crypto::to_bytes("bye")); });
  client->on_close([&] {
    client_closed = true;
    client->close();  // close our side in response to FIN
  });
  topo.net.loop().run();
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(client->state(), TcpConnection::State::kClosed);
}

TEST(Tcp, DataQueuedBeforeCloseIsDelivered) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  std::size_t received = 0;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data([&](crypto::Buffer data) { received += data.size(); });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] {
    client->send(Bytes(100000, 7));
    client->close();  // FIN must wait for the send buffer to drain
  });
  topo.net.loop().run();
  EXPECT_EQ(received, 100000u);
}

TEST(Tcp, ResetTearsDownPeer) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  bool server_closed = false;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_close([&] { server_closed = true; });
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] { client->reset(); });
  topo.net.loop().run();
  EXPECT_TRUE(server_closed);
}

TEST(Tcp, MssReflectsAddressFamily) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  sb.listen(kPort, [](std::shared_ptr<TcpConnection>) {});
  auto v4conn = sa.connect(Endpoint{kAddrB, kPort});
  EXPECT_EQ(v4conn->mss(), 1460u);  // 1500 - 20 - 20
  topo.net.loop().run();
}

TEST(Tcp, ConcurrentConnectionsAreIsolated) {
  TwoHosts topo;
  TcpStack sa(topo.a), sb(topo.b);
  std::map<int, Bytes> server_rx;
  int next_id = 0;
  sb.listen(kPort, [&](std::shared_ptr<TcpConnection> conn) {
    const int id = next_id++;
    conn->on_data([&, id](crypto::Buffer data) {
      server_rx[id].insert(server_rx[id].end(), data.begin(), data.end());
    });
  });
  std::vector<std::shared_ptr<TcpConnection>> clients;
  for (int i = 0; i < 10; ++i) {
    auto c = sa.connect(Endpoint{kAddrB, kPort});
    c->on_connect([c = c.get(), i] {
      c->send(Bytes(100 + static_cast<std::size_t>(i),
                    static_cast<std::uint8_t>(i)));
    });
    clients.push_back(std::move(c));
  }
  topo.net.loop().run();
  ASSERT_EQ(server_rx.size(), 10u);
  // Each connection received a uniform buffer of a single byte value.
  for (const auto& [id, data] : server_rx) {
    ASSERT_FALSE(data.empty());
    const std::uint8_t v = data[0];
    EXPECT_EQ(data.size(), 100u + v);
    for (std::uint8_t b : data) EXPECT_EQ(b, v);
  }
}

TEST(Tcp, RetransmissionTimerRecoversFromTotalBlackout) {
  // Drop everything for the first 300 ms, then heal the link: the SYN
  // retransmit must eventually establish the connection.
  LinkConfig link;
  TwoHosts topo(link, 3);
  TcpStack sa(topo.a), sb(topo.b);
  bool connected = false;
  // Blackout by detaching the listener until t=300ms.
  topo.net.loop().schedule(sim::from_millis(300), [&] {
    sb.listen(kPort, [](std::shared_ptr<TcpConnection>) {});
  });
  auto client = sa.connect(Endpoint{kAddrB, kPort});
  client->on_connect([&] { connected = true; });
  topo.net.loop().run(30 * sim::kSecond);
  EXPECT_TRUE(connected);
}

}  // namespace
}  // namespace hipcloud::net
