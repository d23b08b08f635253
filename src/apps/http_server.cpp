#include "apps/http_server.hpp"

namespace hipcloud::apps {

HttpServer::HttpServer(net::Node* node, net::TcpStack* tcp,
                       std::uint16_t port, TransportConfig transport)
    : node_(node),
      sessions_(node, tcp, port, std::move(transport),
                [this](HttpRequest&& req, Sessions::Reply reply) {
                  serve(std::move(req), std::move(reply));
                }) {}

void HttpServer::serve(HttpRequest&& req, Sessions::Reply reply) {
  // Charge request-processing CPU, then hand to the handler.
  node_->cpu().run(request_cycles_, [this, reply, req = std::move(req)] {
    if (!reply.open()) return reply.drop();
    auto respond = [this, reply](HttpResponse resp) {
      reply.send([&] {
        return resp.serialize(&node_->network().buffer_pool());
      });
    };
    if (handler_) {
      handler_(req, std::move(respond));
    } else {
      respond(HttpResponse::make(404, crypto::to_bytes("no handler")));
    }
  });
}

}  // namespace hipcloud::apps
