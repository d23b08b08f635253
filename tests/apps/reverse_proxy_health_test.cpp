// ReverseProxy health checks (HAProxy `check`/`fall`/`inter`),
// idempotent-retry redispatch, and the least-outstanding tie-break fix.
#include <gtest/gtest.h>

#include "apps/http_client.hpp"
#include "apps/http_server.hpp"
#include "apps/reverse_proxy.hpp"

namespace hipcloud::apps {
namespace {

using net::Endpoint;
using net::IpAddr;
using net::Ipv4Addr;

/// client -- lb -- {b0, b1, b2}, each backend echoing its index.
struct ProxyTopo {
  net::Network net{11};
  net::Node* client_node;
  net::Node* lb;
  std::vector<net::Node*> backends;
  std::vector<std::unique_ptr<net::TcpStack>> stacks;
  std::vector<std::unique_ptr<HttpServer>> servers;
  std::vector<Endpoint> backend_eps;
  std::unique_ptr<net::TcpStack> lb_tcp, client_tcp;
  std::unique_ptr<ReverseProxy> proxy;
  std::unique_ptr<HttpClient> client;

  explicit ProxyTopo(ReverseProxy::Balance balance,
                     ProxyHealthConfig health) {
    client_node = net.add_node("client", 8e9);
    lb = net.add_node("lb", 8e9);
    const auto cl = net.connect(client_node, lb, {});
    client_node->add_address(cl.iface_a, Ipv4Addr(10, 0, 0, 1));
    lb->add_address(cl.iface_b, Ipv4Addr(10, 0, 0, 2));
    client_node->set_default_route(cl.iface_a);
    lb->add_route(IpAddr(Ipv4Addr(10, 0, 0, 0)), 24, cl.iface_b);
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
      servers.push_back(
          std::make_unique<HttpServer>(b, stacks.back().get(), 8080));
      servers.back()->set_handler(
          [i](const HttpRequest&, HttpServer::RespondFn done) {
            done(HttpResponse::make(
                200, crypto::to_bytes("backend" + std::to_string(i))));
          });
      backend_eps.push_back(Endpoint{IpAddr(addr), 8080});
    }
    lb_tcp = std::make_unique<net::TcpStack>(lb);
    proxy = std::make_unique<ReverseProxy>(lb, lb_tcp.get(), 80,
                                           TransportConfig{},
                                           TransportConfig{}, backend_eps,
                                           balance, health);
    client_tcp = std::make_unique<net::TcpStack>(client_node);
    client = std::make_unique<HttpClient>(client_node, client_tcp.get());
  }

  /// Issue `n` sequential GETs through the proxy; returns how many
  /// succeeded (non-502) once the loop has been run by the caller. The
  /// continuation lives in a member (not a self-capturing shared
  /// function, which would be a reference cycle); chains never overlap —
  /// each call is followed by a loop.run() before the next.
  void send_sequential(int n, int* ok) {
    send_next_ = [this, ok](int remaining) {
      if (remaining == 0) return;
      client->request(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 80},
                      HttpRequest{},
                      [this, ok, remaining](std::optional<HttpResponse> resp,
                                            sim::Duration) {
                        if (resp && resp->status == 200) ++*ok;
                        send_next_(remaining - 1);
                      });
    };
    send_next_(n);
  }

  std::function<void(int)> send_next_;
};

ProxyHealthConfig fast_health() {
  ProxyHealthConfig h;
  h.max_failures = 1;
  h.reprobe_interval = 2 * sim::kSecond;
  h.retry_limit = 1;
  h.retry_backoff = sim::from_millis(50);
  h.upstream_timeout = sim::kSecond;
  return h;
}

TEST(ReverseProxyHealth, CrashedBackendIsEjectedMaskedAndRevived) {
  ProxyTopo topo(ReverseProxy::Balance::kRoundRobin, fast_health());
  auto& loop = topo.net.loop();

  // Backend 0 crashes before any traffic.
  topo.backends[0]->set_down(true);

  int ok = 0;
  topo.send_sequential(6, &ok);
  loop.run(loop.now() + 30 * sim::kSecond);

  // The first request hit b0, timed out, was redispatched to a healthy
  // backend — the client never saw the failure.
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(topo.proxy->errors(), 0u);
  EXPECT_EQ(topo.proxy->retries(), 1u);
  EXPECT_EQ(topo.proxy->ejections(), 1u);
  EXPECT_FALSE(topo.proxy->healthy(0));
  EXPECT_EQ(topo.proxy->dispatched()[0], 1u);  // never picked again

  // While down, the proxy keeps re-probing on the reprobe interval.
  EXPECT_GT(topo.proxy->probes_sent(), 0u);

  // Backend restarts; the next probe brings it back into rotation.
  topo.backends[0]->set_down(false);
  loop.run(loop.now() + 10 * sim::kSecond);
  EXPECT_EQ(topo.proxy->revivals(), 1u);
  EXPECT_TRUE(topo.proxy->healthy(0));

  int ok2 = 0;
  topo.send_sequential(6, &ok2);
  loop.run(loop.now() + 10 * sim::kSecond);
  EXPECT_EQ(ok2, 6);
  EXPECT_GT(topo.proxy->dispatched()[0], 1u);  // back in rotation
}

TEST(ReverseProxyHealth, NonIdempotentRequestsAreNotRetried) {
  ProxyTopo topo(ReverseProxy::Balance::kRoundRobin, fast_health());
  auto& loop = topo.net.loop();
  topo.backends[0]->set_down(true);

  // POSTs must not be redispatched: the first one to hit the dead
  // backend surfaces as a 502 instead of a silent replay.
  int ok = 0, err = 0;
  for (int i = 0; i < 3; ++i) {
    HttpRequest req;
    req.method = "POST";
    topo.client->request(Endpoint{IpAddr(Ipv4Addr(10, 0, 0, 2)), 80}, req,
                         [&](std::optional<HttpResponse> resp,
                             sim::Duration) {
                           // One engaged check and one read: GCC 12's
                           // -Wmaybe-uninitialized loses track of two.
                           const int status = resp ? resp->status : 0;
                           if (status == 200) ++ok;
                           if (status == 502) ++err;
                         });
  }
  loop.run(loop.now() + 30 * sim::kSecond);
  EXPECT_EQ(err, 1);
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(topo.proxy->retries(), 0u);
  EXPECT_EQ(topo.proxy->errors(), 1u);
}

// Satellite (c): with every backend idle, least-outstanding is a
// permanent tie — the old std::min_element scan pinned all such picks to
// backend 0. The rotating tie-break must spread them evenly.
TEST(ReverseProxyHealth, LeastOutstandingTieBreakRotates) {
  ProxyTopo topo(ReverseProxy::Balance::kLeastOutstanding,
                 ProxyHealthConfig{});
  auto& loop = topo.net.loop();
  int ok = 0;
  topo.send_sequential(9, &ok);  // sequential → outstanding is always 0
  loop.run(loop.now() + 30 * sim::kSecond);
  EXPECT_EQ(ok, 9);
  EXPECT_EQ(topo.proxy->dispatched()[0], 3u);
  EXPECT_EQ(topo.proxy->dispatched()[1], 3u);
  EXPECT_EQ(topo.proxy->dispatched()[2], 3u);
}

}  // namespace
}  // namespace hipcloud::apps
