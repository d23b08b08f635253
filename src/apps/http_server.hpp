#pragma once

#include <cstdint>

#include "apps/http.hpp"
#include "apps/request_reply.hpp"

namespace hipcloud::apps {

/// Lightweight HTTP/1.1 server with keep-alive, serving one request at a
/// time per connection (matching the thttpd-class servers the paper's
/// web tier used). Handlers respond asynchronously, which lets them
/// query the database tier first.
class HttpServer {
 public:
  using RespondFn = std::function<void(HttpResponse)>;
  using Handler = std::function<void(const HttpRequest&, RespondFn)>;

  HttpServer(net::Node* node, net::TcpStack* tcp, std::uint16_t port,
             TransportConfig transport = {});

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// CPU cycles charged per request before the handler runs (parsing,
  /// dispatch, templating). Default approximates a small PHP-less
  /// dynamic endpoint. The handler does not run for a connection that
  /// closed during the charge.
  void set_request_cycles(double cycles) { request_cycles_ = cycles; }

  /// Responses actually sent.
  std::uint64_t requests_served() const { return sessions_.replies_sent(); }
  std::uint64_t active_connections() const { return sessions_.sessions(); }

 private:
  using Sessions = SessionServer<HttpFramer<HttpParser::Kind::kRequest>>;

  void serve(HttpRequest&& req, Sessions::Reply reply);

  net::Node* node_;
  Handler handler_;
  double request_cycles_ = 60e3;
  Sessions sessions_;  // last: it starts listening
};

}  // namespace hipcloud::apps
