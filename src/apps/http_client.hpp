#pragma once

#include <optional>

#include "apps/http.hpp"
#include "apps/request_reply.hpp"

namespace hipcloud::apps {

/// HTTP/1.1 as PooledClient speaks it.
struct HttpClientProtocol {
  using Request = HttpRequest;
  using Reply = HttpResponse;
  using Framer = HttpFramer<HttpParser::Kind::kResponse>;

  static void write(Stream& stream, HttpRequest req, crypto::BufferPool* pool) {
    stream.send(req.serialize(pool));
  }
  static std::optional<HttpResponse> decode(HttpResponse&& resp,
                                            crypto::BufferPool*) {
    return std::move(resp);
  }
};

/// HTTP/1.1 client with per-destination keep-alive connection pooling
/// (one outstanding request per connection, new connections opened on
/// demand up to a cap, 64 by default — jmeter/HAProxy-style behaviour),
/// and a timeout fixed at construction, 30 s by default.
class HttpClient : public PooledClient<HttpClientProtocol> {
 public:
  /// Response or nullopt on timeout/connection failure, plus the request
  /// latency (issue -> response).
  using ResponseFn = ReplyFn;

  HttpClient(net::Node* node, net::TcpStack* tcp,
             TransportConfig transport = {},
             sim::Duration timeout = 30 * sim::kSecond)
      : PooledClient(node, tcp, std::move(transport), 64, timeout) {}

  void request(const net::Endpoint& dst, HttpRequest req, ResponseFn done) {
    req.headers["connection"] = "keep-alive";
    PooledClient::request(dst, std::move(req), std::move(done));
  }
};

}  // namespace hipcloud::apps
