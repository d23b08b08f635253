// Failure paths of the two pooled clients, HttpClient and DbClient, driven
// through their public APIs: a connect that throws, a target that never
// accepts, the connection cap, and a server that closes a connection
// while a request is outstanding. Both clients must treat each of them
// the same way. A connection one side closes is closed by the other side
// too, client or server, so no TcpStack keeps it half-closed.

#include <gtest/gtest.h>

#include <cstring>

#include "apps/database.hpp"
#include "apps/http_client.hpp"
#include "apps/http_server.hpp"

namespace hipcloud::apps {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

constexpr std::uint16_t kPort = 7000;

/// client -- server over one link. `tcp` configures the client's stack;
/// an unaddressed client has no source address for any destination.
struct Topo {
  net::Network net{13};
  net::Node* client_node;
  net::Node* server_node;
  std::unique_ptr<net::TcpStack> tc, ts;

  explicit Topo(net::TcpConfig tcp = {}, bool client_addressed = true) {
    client_node = net.add_node("client", 8e9);
    server_node = net.add_node("server", 8e9);
    const auto link = net.connect(client_node, server_node, {});
    if (client_addressed) {
      client_node->add_address(link.iface_a, Ipv4Addr(10, 0, 0, 1));
    }
    server_node->add_address(link.iface_b, Ipv4Addr(10, 0, 0, 2));
    client_node->set_default_route(link.iface_a);
    server_node->set_default_route(link.iface_b);
    tc = std::make_unique<net::TcpStack>(client_node, tcp);
    ts = std::make_unique<net::TcpStack>(server_node);
  }

  Endpoint server_ep() const {
    return Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), kPort};
  }
  sim::Time now() { return net.loop().now(); }
};

/// One request's end as its callback saw it.
struct Outcome {
  bool ok;
  sim::Duration latency;
  sim::Time at;
};

/// HttpClient with its default connection cap.
struct HttpSide {
  static constexpr std::size_t kCap = 64;

  explicit HttpSide(Topo& t) : topo(t), client(t.client_node, t.tc.get()) {}

  void send(std::vector<Outcome>* out) {
    client.request(topo.server_ep(), HttpRequest{},
                   [this, out](std::optional<HttpResponse> resp,
                               sim::Duration latency) {
                     out->push_back(Outcome{resp.has_value() &&
                                                resp->status == 200,
                                            latency, topo.now()});
                   });
  }
  std::uint64_t failures() const { return client.failures(); }

  /// The real server for this client.
  struct Server {
    explicit Server(Topo& t) : server(t.server_node, t.ts.get(), kPort) {
      server.set_handler([](const HttpRequest&, HttpServer::RespondFn done) {
        done(HttpResponse::make(200, crypto::to_bytes("ok")));
      });
    }
    HttpServer server;
  };

  /// A complete, valid reply on the wire.
  static Bytes reply() {
    return crypto::to_bytes("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
  }

  Topo& topo;
  HttpClient client;
};

/// DbClient, whose cap is fixed at 16.
struct DbSide {
  static constexpr std::size_t kCap = 16;

  explicit DbSide(Topo& t)
      : topo(t), client(t.client_node, t.tc.get(), t.server_ep()) {}

  void send(std::vector<Outcome>* out) {
    client.query("GET items 1", [this, out](std::optional<DbResult> result,
                                            sim::Duration latency) {
      out->push_back(Outcome{result.has_value() && result->ok, latency,
                             topo.now()});
    });
  }
  std::uint64_t failures() const { return client.failures(); }

  struct Server {
    explicit Server(Topo& t) : server(t.server_node, t.ts.get(), kPort) {
      server.load_row("items", 1, 64);
    }
    DatabaseServer server;
  };

  /// An empty, ok result in its length-prefixed frame.
  static Bytes reply() {
    const Bytes body = DbResult{}.serialize();
    Bytes frame(4 + body.size());
    const auto len = static_cast<std::uint32_t>(body.size());
    for (int i = 0; i < 4; ++i) {
      frame[i] = static_cast<std::uint8_t>(len >> (8 * (3 - i)));
    }
    std::memcpy(frame.data() + 4, body.data(), body.size());
    return frame;
  }

  Topo& topo;
  DbClient client;
};

/// A bare listener on the server node: it closes its first connection
/// when the first request arrives, unanswered, and answers every request
/// on a later connection with `reply`.
struct ClosingServer {
  ClosingServer(Topo& t, Bytes reply) {
    t.ts->listen(kPort, [this, reply](
                            std::shared_ptr<net::TcpConnection> conn) {
      const int n = ++accepted;
      net::TcpConnection* c = conn.get();  // the handler lives in *c
      conn->on_data([c, n, reply](crypto::Buffer) {
        if (n == 1) {
          c->close();
        } else {
          c->send(crypto::Buffer(reply));
        }
      });
    });
  }
  int accepted = 0;
};

template <typename Side>
class ClientFailurePaths : public ::testing::Test {};

struct SideNames {
  template <typename Side>
  static std::string GetName(int) {
    return std::is_same_v<Side, HttpSide> ? "Http" : "Db";
  }
};

using Sides = ::testing::Types<HttpSide, DbSide>;
TYPED_TEST_SUITE(ClientFailurePaths, Sides, SideNames);

// TcpStack::connect throws when the node has no source address; each
// attempt fails exactly one queued request, at once and with zero
// latency, and nothing fails it a second time later.
TYPED_TEST(ClientFailurePaths, NoSourceAddressFailsOneRequestPerAttempt) {
  Topo topo({}, /*client_addressed=*/false);
  TypeParam side(topo);
  std::vector<Outcome> out;
  for (std::size_t i = 1; i <= 3; ++i) {
    side.send(&out);
    ASSERT_EQ(out.size(), i);
    EXPECT_FALSE(out.back().ok);
    EXPECT_EQ(out.back().latency, 0);
    EXPECT_EQ(out.back().at, 0);
  }
  topo.net.loop().run(120 * sim::kSecond);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(side.failures(), 3u);
  EXPECT_EQ(topo.tc->active_connections(), 0u);
}

// Nothing listens, and TCP answers a SYN to a closed port with silence,
// so every connection dies before it is established (here after two
// RTOs: 1 s + 2 s). Each such death fails exactly one queued request;
// the request left over is retried on a new connection, which dies in
// turn.
TYPED_TEST(ClientFailurePaths, UnansweredConnectsFailOneRequestEach) {
  net::TcpConfig tcp;
  tcp.max_consecutive_rtos = 1;
  Topo topo(tcp);
  TypeParam side(topo);
  constexpr std::size_t kCap = TypeParam::kCap;
  std::vector<Outcome> out;
  for (std::size_t i = 0; i < kCap + 1; ++i) side.send(&out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(topo.tc->active_connections(), kCap);
  topo.net.loop().run(5 * sim::kSecond);
  ASSERT_EQ(out.size(), kCap);
  for (const Outcome& o : out) {
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.latency, 0);
    EXPECT_EQ(o.at, 3 * sim::kSecond);
  }
  EXPECT_EQ(topo.tc->active_connections(), 1u);  // the retry
  topo.net.loop().run();
  ASSERT_EQ(out.size(), kCap + 1);
  EXPECT_FALSE(out.back().ok);
  EXPECT_EQ(out.back().latency, 0);
  EXPECT_EQ(out.back().at, 6 * sim::kSecond);
  EXPECT_EQ(side.failures(), kCap + 1);
  EXPECT_EQ(topo.tc->active_connections(), 0u);
}

// cap + 1 concurrent requests open exactly cap connections (all of them
// kept alive afterwards), and every request completes.
TYPED_TEST(ClientFailurePaths, CapPlusOneRequestsOpenCapConnections) {
  Topo topo;
  typename TypeParam::Server server(topo);
  TypeParam side(topo);
  constexpr std::size_t kCap = TypeParam::kCap;
  std::vector<Outcome> out;
  for (std::size_t i = 0; i < kCap + 1; ++i) side.send(&out);
  EXPECT_EQ(topo.tc->active_connections(), kCap);
  topo.net.loop().run();
  ASSERT_EQ(out.size(), kCap + 1);
  for (const Outcome& o : out) EXPECT_TRUE(o.ok);
  EXPECT_EQ(side.failures(), 0u);
  EXPECT_EQ(topo.tc->active_connections(), kCap);
  EXPECT_EQ(topo.ts->active_connections(), kCap);
}

// The server closes the connection while a request is outstanding: that
// request fails, and the next one opens a new connection and succeeds.
// The client closes its side of the first connection, so both stacks are
// rid of it once the server's TIME_WAIT (2 s) ends.
TYPED_TEST(ClientFailurePaths, ServerCloseMidRequestFailsThatRequestOnly) {
  Topo topo;
  ClosingServer server(topo, TypeParam::reply());
  TypeParam side(topo);
  std::vector<Outcome> out;
  side.send(&out);
  topo.net.loop().run(10 * sim::kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].ok);
  EXPECT_EQ(server.accepted, 1);
  EXPECT_EQ(topo.tc->active_connections(), 0u);
  EXPECT_EQ(topo.ts->active_connections(), 0u);
  side.send(&out);
  topo.net.loop().run(20 * sim::kSecond);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[1].ok);
  EXPECT_EQ(server.accepted, 2);
  EXPECT_EQ(side.failures(), 1u);
  EXPECT_EQ(topo.tc->active_connections(), 1u);  // kept alive
  EXPECT_EQ(topo.ts->active_connections(), 1u);
}

// A raw client connects to the real server and closes the connection as
// soon as it is established, while its session is idle: the server closes
// its side too, so both stacks are rid of the connection once the
// client's TIME_WAIT (2 s) ends.
TYPED_TEST(ClientFailurePaths, PeerCloseOfIdleSessionClosesServerSide) {
  Topo topo;
  typename TypeParam::Server server(topo);
  const auto conn = topo.tc->connect(topo.server_ep());
  net::TcpConnection* c = conn.get();  // the handler lives in *c
  conn->on_connect([c] { c->close(); });
  topo.net.loop().run(1 * sim::kSecond);
  EXPECT_EQ(topo.tc->active_connections(), 1u);  // in TIME_WAIT
  EXPECT_EQ(topo.ts->active_connections(), 0u);
  topo.net.loop().run(10 * sim::kSecond);
  EXPECT_EQ(topo.tc->active_connections(), 0u);
  EXPECT_EQ(topo.ts->active_connections(), 0u);
}

// HTTP only: a request queued behind a connection that never establishes
// fails when its queue-time timeout expires, with that timeout as its
// latency. The connection's death minutes later fails nothing more.
TEST(HttpClientFailurePaths, QueuedBehindDeadConnectFailsAtQueueTimeout) {
  Topo topo;  // nothing listens; TCP retries the SYN for minutes
  HttpClient client(topo.client_node, topo.tc.get(), {}, 2 * sim::kSecond);
  std::vector<Outcome> out;
  client.request(topo.server_ep(), HttpRequest{},
                 [&](std::optional<HttpResponse> resp, sim::Duration l) {
                   out.push_back(Outcome{resp.has_value(), l, topo.now()});
                 });
  topo.net.loop().run(10 * sim::kSecond);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].ok);
  EXPECT_EQ(out[0].at, 2 * sim::kSecond);
  EXPECT_EQ(out[0].latency, 2 * sim::kSecond);
  EXPECT_EQ(topo.tc->active_connections(), 1u);  // still sending SYNs
  topo.net.loop().run(600 * sim::kSecond);
  EXPECT_EQ(topo.tc->active_connections(), 0u);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(client.failures(), 1u);
}

}  // namespace
}  // namespace hipcloud::apps
