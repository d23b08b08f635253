#include <gtest/gtest.h>

#include "apps/http_client.hpp"
#include "apps/http_server.hpp"
#include "apps/reverse_proxy.hpp"

namespace hipcloud::apps {
namespace {

using crypto::Bytes;
using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

struct WebTopo {
  net::Network net{3};
  net::Node* client_node;
  net::Node* server_node;
  std::unique_ptr<net::TcpStack> tc, ts;

  WebTopo() {
    client_node = net.add_node("client", 8e9);
    server_node = net.add_node("server", 8e9);
    const auto link = net.connect(client_node, server_node, {});
    client_node->add_address(link.iface_a, Ipv4Addr(10, 0, 0, 1));
    server_node->add_address(link.iface_b, Ipv4Addr(10, 0, 0, 2));
    client_node->set_default_route(link.iface_a);
    server_node->set_default_route(link.iface_b);
    tc = std::make_unique<net::TcpStack>(client_node);
    ts = std::make_unique<net::TcpStack>(server_node);
  }

  Endpoint server_ep(std::uint16_t port) const {
    return Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), port};
  }
};

TEST(HttpServerClient, BasicRequestResponse) {
  WebTopo topo;
  HttpServer server(topo.server_node, topo.ts.get(), 80);
  server.set_handler([](const HttpRequest& req, HttpServer::RespondFn done) {
    done(HttpResponse::make(200, crypto::to_bytes("echo:" + req.path)));
  });
  HttpClient client(topo.client_node, topo.tc.get());
  std::optional<HttpResponse> got;
  HttpRequest req;
  req.path = "/hello";
  client.request(topo.server_ep(80), req,
                 [&](std::optional<HttpResponse> resp, sim::Duration) {
                   got = std::move(resp);
                 });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, crypto::to_bytes("echo:/hello"));
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServerClient, KeepAliveReusesConnection) {
  WebTopo topo;
  HttpServer server(topo.server_node, topo.ts.get(), 80);
  server.set_handler([](const HttpRequest&, HttpServer::RespondFn done) {
    done(HttpResponse::make(200, Bytes(10, 'x')));
  });
  HttpClient client(topo.client_node, topo.tc.get());
  int completed = 0;
  std::function<void(int)> send_next = [&](int remaining) {
    if (remaining == 0) return;
    client.request(topo.server_ep(80), HttpRequest{},
                   [&, remaining](std::optional<HttpResponse> resp,
                                  sim::Duration) {
                     if (resp) ++completed;
                     send_next(remaining - 1);
                   });
  };
  send_next(5);
  topo.net.loop().run();
  EXPECT_EQ(completed, 5);
  // Sequential requests reuse the single pooled connection.
  EXPECT_EQ(server.active_connections(), 1u);
}

TEST(HttpServerClient, ConcurrentRequestsOpenParallelConnections) {
  WebTopo topo;
  HttpServer server(topo.server_node, topo.ts.get(), 80);
  server.set_handler([&](const HttpRequest&, HttpServer::RespondFn done) {
    // Delay each response so requests overlap.
    topo.net.loop().schedule(50 * sim::kMillisecond, [done] {
      done(HttpResponse::make(200, Bytes(4, 'y')));
    });
  });
  HttpClient client(topo.client_node, topo.tc.get());
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    client.request(topo.server_ep(80), HttpRequest{},
                   [&](std::optional<HttpResponse> resp, sim::Duration) {
                     if (resp) ++completed;
                   });
  }
  topo.net.loop().run();
  EXPECT_EQ(completed, 8);
  EXPECT_GT(server.active_connections(), 1u);
}

TEST(HttpServerClient, MissingHandlerGives404) {
  WebTopo topo;
  HttpServer server(topo.server_node, topo.ts.get(), 80);
  HttpClient client(topo.client_node, topo.tc.get());
  std::optional<HttpResponse> got;
  client.request(topo.server_ep(80), HttpRequest{},
                 [&](std::optional<HttpResponse> resp, sim::Duration) {
                   got = std::move(resp);
                 });
  topo.net.loop().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 404);
}

TEST(HttpServerClient, DeadServerTimesOut) {
  WebTopo topo;  // nothing listening on 81
  HttpClient client(topo.client_node, topo.tc.get(), {}, 2 * sim::kSecond);
  bool called = false;
  client.request(topo.server_ep(81), HttpRequest{},
                 [&](std::optional<HttpResponse> resp, sim::Duration) {
                   called = true;
                   EXPECT_FALSE(resp.has_value());
                 });
  topo.net.loop().run(30 * sim::kSecond);
  EXPECT_TRUE(called);
  EXPECT_EQ(client.failures(), 1u);
}

TEST(HttpServerClient, LatencyIsMeasured) {
  WebTopo topo;
  HttpServer server(topo.server_node, topo.ts.get(), 80);
  server.set_handler([&](const HttpRequest&, HttpServer::RespondFn done) {
    topo.net.loop().schedule(30 * sim::kMillisecond, [done] {
      done(HttpResponse::make(200, {}));
    });
  });
  HttpClient client(topo.client_node, topo.tc.get());
  sim::Duration latency = 0;
  client.request(topo.server_ep(80), HttpRequest{},
                 [&](std::optional<HttpResponse>, sim::Duration l) {
                   latency = l;
                 });
  topo.net.loop().run();
  EXPECT_GE(latency, 30 * sim::kMillisecond);
  EXPECT_LT(latency, 100 * sim::kMillisecond);
}

// A response the client cannot frame fails its request and closes the
// connection, as a timeout does, instead of leaving it established in
// the node's TcpStack until the peer closes it.
TEST(HttpServerClient, MalformedResponseClosesTheConnection) {
  WebTopo topo;
  bool peer_saw_close = false;
  topo.ts->listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    net::TcpConnection* c = conn.get();  // the handler lives in *c
    conn->on_data([c](crypto::Buffer) {
      c->send(crypto::Buffer(
          crypto::to_bytes("HTTP/1.1 200 OK\r\nno colon here\r\n\r\n")));
    });
    conn->on_close([&] { peer_saw_close = true; });
  });
  HttpClient client(topo.client_node, topo.tc.get());
  int calls = 0;
  client.request(topo.server_ep(80), HttpRequest{},
                 [&](std::optional<HttpResponse> resp, sim::Duration) {
                   ++calls;
                   EXPECT_FALSE(resp.has_value());
                 });
  topo.net.loop().run(10 * sim::kSecond);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(client.failures(), 1u);
  EXPECT_TRUE(peer_saw_close);
}

// Bytes the server cannot frame, arriving while a request is being
// charged, close the session: the handler never runs for it and no
// response is counted as served.
TEST(HttpServerClient, FramingErrorMidRequestDropsThatRequest) {
  WebTopo topo;
  HttpServer server(topo.server_node, topo.ts.get(), 80);
  server.set_request_cycles(8e9);  // one second on this node
  int handled = 0;
  server.set_handler([&](const HttpRequest&, HttpServer::RespondFn done) {
    ++handled;
    done(HttpResponse::make(200, {}));
  });
  const auto conn = topo.tc->connect(topo.server_ep(80));
  conn->on_connect([&] {
    conn->send(HttpRequest{}.serialize());
    topo.net.loop().schedule(100 * sim::kMillisecond, [&] {
      conn->send(crypto::Buffer(
          crypto::to_bytes("GET / HTTP/1.1\r\nno colon here\r\n\r\n")));
    });
  });
  topo.net.loop().run(10 * sim::kSecond);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(server.requests_served(), 0u);
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(ReverseProxy, RoundRobinAcrossBackends) {
  net::Network net{5};
  auto* client_node = net.add_node("client", 8e9);
  auto* lb = net.add_node("lb", 8e9);
  std::vector<net::Node*> backends;
  std::vector<std::unique_ptr<net::TcpStack>> stacks;
  std::vector<std::unique_ptr<HttpServer>> servers;
  // client -- lb -- {b0, b1, b2}
  const auto cl = net.connect(client_node, lb, {});
  client_node->add_address(cl.iface_a, Ipv4Addr(10, 0, 0, 1));
  lb->add_address(cl.iface_b, Ipv4Addr(10, 0, 0, 2));
  client_node->set_default_route(cl.iface_a);
  lb->add_route(IpAddr(Ipv4Addr(10, 0, 0, 0)), 24, cl.iface_b);
  std::vector<Endpoint> backend_eps;
  for (int i = 0; i < 3; ++i) {
    auto* b = net.add_node("b" + std::to_string(i), 8e9);
    const auto bl = net.connect(lb, b, {});
    const Ipv4Addr addr(10, 0, std::uint8_t(i + 1), 2);
    lb->add_address(bl.iface_a, Ipv4Addr(10, 0, std::uint8_t(i + 1), 1));
    b->add_address(bl.iface_b, addr);
    b->set_default_route(bl.iface_b);
    lb->add_route(IpAddr(addr), 32, bl.iface_a);
    backends.push_back(b);
    stacks.push_back(std::make_unique<net::TcpStack>(b));
    servers.push_back(std::make_unique<HttpServer>(b, stacks.back().get(),
                                                   8080));
    servers.back()->set_handler(
        [i](const HttpRequest&, HttpServer::RespondFn done) {
          done(HttpResponse::make(
              200, crypto::to_bytes("backend" + std::to_string(i))));
        });
    backend_eps.push_back(Endpoint{IpAddr(addr), 8080});
  }
  auto lb_tcp = std::make_unique<net::TcpStack>(lb);
  ReverseProxy proxy(lb, lb_tcp.get(), 80, {}, {}, backend_eps);

  auto client_tcp = std::make_unique<net::TcpStack>(client_node);
  HttpClient client(client_node, client_tcp.get());
  std::map<std::string, int> seen;
  int completed = 0;
  std::function<void(int)> send_next = [&](int remaining) {
    if (remaining == 0) return;
    client.request(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 80},
                   HttpRequest{},
                   [&, remaining](std::optional<HttpResponse> resp,
                                  sim::Duration) {
                     if (resp) {
                       ++completed;
                       seen[std::string(resp->body.begin(),
                                        resp->body.end())]++;
                     }
                     send_next(remaining - 1);
                   });
  };
  send_next(9);
  net.loop().run();
  EXPECT_EQ(completed, 9);
  EXPECT_EQ(seen.size(), 3u);
  for (const auto& [name, count] : seen) EXPECT_EQ(count, 3) << name;
  EXPECT_EQ(proxy.relayed(), 9u);
  EXPECT_EQ(proxy.errors(), 0u);
}

TEST(ReverseProxy, UpstreamFailureYields502) {
  net::Network net{7};
  auto* client_node = net.add_node("client", 8e9);
  auto* lb = net.add_node("lb", 8e9);
  const auto cl = net.connect(client_node, lb, {});
  client_node->add_address(cl.iface_a, Ipv4Addr(10, 0, 0, 1));
  lb->add_address(cl.iface_b, Ipv4Addr(10, 0, 0, 2));
  client_node->set_default_route(cl.iface_a);
  lb->add_route(IpAddr(Ipv4Addr(10, 0, 0, 0)), 24, cl.iface_b);
  auto lb_tcp = std::make_unique<net::TcpStack>(lb);
  // Backend endpoint points nowhere (no route).
  ReverseProxy proxy(lb, lb_tcp.get(), 80, {}, {},
                     {Endpoint{IpAddr(Ipv4Addr(10, 9, 9, 9)), 8080}});
  auto client_tcp = std::make_unique<net::TcpStack>(client_node);
  HttpClient client(client_node, client_tcp.get());
  std::optional<HttpResponse> got;
  client.request(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 80}, HttpRequest{},
                 [&](std::optional<HttpResponse> resp, sim::Duration) {
                   got = std::move(resp);
                 });
  net.loop().run(400 * sim::kSecond);  // TCP gives up after ~3 min of RTOs
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 502);
  EXPECT_EQ(proxy.errors(), 1u);
}

}  // namespace
}  // namespace hipcloud::apps
